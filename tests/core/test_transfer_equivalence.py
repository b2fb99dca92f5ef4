"""Transfer selection on the ownership grid against the per-SD reference.

``select_transfers`` ranks the frontier with the same float arithmetic
as the original pure-Python selection but computes the frontier, the
receiver centroid and donor connectivity as array passes.  The
reference below is a verbatim copy of that original selection; every
plan must match it SD for SD, on connected (multilevel-partitioned) and
scattered, disconnected ownerships, with and without connectivity
preservation.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.strategies import make_strategy
from repro.core.transfer import (NUM_ANGLE_BINS, TransferPlan, _sp_centroid,
                                 _stays_connected, naive_select_transfers,
                                 select_transfers, transfer_stream)
from repro.mesh.subdomain import SubdomainGrid
from repro.partition.kway import partition_sd_grid


# -- the reference: the original per-SD selection, verbatim -------------------
def ref_sp_centroid(sd_grid, parts, node):
    members = np.nonzero(parts == node)[0]
    if len(members) == 0:
        return np.array([0.5, 0.5])
    pts = np.array([sd_grid.sd_center(int(s)) for s in members])
    return pts.mean(axis=0)


def ref_donor_stays_connected(sd_grid, parts, donor, candidate):
    members = [s for s in np.nonzero(parts == donor)[0] if s != candidate]
    if len(members) <= 1:
        return True
    member_set = set(int(s) for s in members)
    seed = members[0]
    seen = {int(seed)}
    stack = [int(seed)]
    while stack:
        s = stack.pop()
        for nb in sd_grid.face_neighbors(s):
            if nb in member_set and nb not in seen:
                seen.add(nb)
                stack.append(nb)
    return len(seen) == len(member_set)


def ref_select_transfers(sd_grid, parts, donor, receiver, count,
                         preserve_donor_connectivity=True):
    work = np.array(parts, dtype=np.int64, copy=True)
    centroid = ref_sp_centroid(sd_grid, work, receiver)
    bin_usage = [0] * NUM_ANGLE_BINS
    chosen = []
    for _ in range(count):
        frontier = ref_frontier(sd_grid, work, donor, receiver)
        if not frontier:
            break
        pick = ref_pick(sd_grid, work, donor, receiver, frontier, centroid,
                        bin_usage, preserve_donor_connectivity)
        if pick is None:
            break
        chosen.append(pick)
        work[pick] = receiver
        bin_usage[ref_angle_bin(sd_grid, pick, centroid)] += 1
    return TransferPlan(donor, receiver, count, chosen)


def ref_frontier(sd_grid, parts, donor, receiver):
    out = []
    for sd in np.nonzero(parts == donor)[0]:
        if any(parts[nb] == receiver for nb in sd_grid.face_neighbors(int(sd))):
            out.append(int(sd))
    return out


def ref_angle_bin(sd_grid, sd, centroid):
    cx, cy = sd_grid.sd_center(sd)
    angle = math.atan2(cy - centroid[1], cx - centroid[0])
    b = int((angle + math.pi) / (2 * math.pi) * NUM_ANGLE_BINS)
    return min(b, NUM_ANGLE_BINS - 1)


def ref_pick(sd_grid, parts, donor, receiver, frontier, centroid,
             bin_usage, preserve_connectivity):
    scored = []
    for sd in frontier:
        adj = sum(1 for nb in sd_grid.face_neighbors(sd)
                  if parts[nb] == receiver)
        cx, cy = sd_grid.sd_center(sd)
        dist = math.hypot(cx - centroid[0], cy - centroid[1])
        usage = bin_usage[ref_angle_bin(sd_grid, sd, centroid)]
        scored.append((round(dist, 9), usage, -adj, sd))
    scored.sort()
    if preserve_connectivity:
        for _, _, _, sd in scored:
            if ref_donor_stays_connected(sd_grid, parts, donor, sd):
                return sd
    return scored[0][3] if scored else None


def ref_naive_select_transfers(sd_grid, parts, donor, receiver, count):
    work = np.array(parts, dtype=np.int64, copy=True)
    chosen = []
    for _ in range(max(0, count)):
        frontier = ref_frontier(sd_grid, work, donor, receiver)
        if not frontier:
            break
        pick = min(frontier)
        chosen.append(pick)
        work[pick] = receiver
    return TransferPlan(donor, receiver, count, chosen)


def ref_transfer_stream(sd_grid, parts, donor, receiver,
                        preserve_donor_connectivity=True):
    """Repeated single-SD reference selections, applied in place."""
    while True:
        plan = ref_select_transfers(sd_grid, parts, donor, receiver, 1,
                                    preserve_donor_connectivity)
        if not plan.sds:
            return
        parts[plan.sds[0]] = receiver
        yield plan.sds[0]


# -- ownerships -----------------------------------------------------------
@st.composite
def ownerships(draw):
    """``(sd_grid, parts, nodes)``: a contiguous multilevel partition or a
    scattered random ownership (SPs with several components)."""
    sd_nx = draw(st.integers(2, 10))
    sd_ny = draw(st.integers(2, 10))
    nodes = draw(st.integers(2, min(6, sd_nx * sd_ny)))
    seed = draw(st.integers(0, 2 ** 16))
    sg = SubdomainGrid(4 * sd_nx + draw(st.integers(0, 3)),
                       4 * sd_ny + draw(st.integers(0, 3)), sd_nx, sd_ny)
    if draw(st.booleans()):
        parts = partition_sd_grid(sd_nx, sd_ny, nodes, seed=seed)
    else:
        rng = np.random.default_rng(seed)
        parts = rng.integers(0, nodes, sg.num_subdomains)
    return sg, np.asarray(parts, dtype=np.int64), nodes


def plan_key(plan):
    return plan.donor, plan.receiver, plan.requested, plan.sds


class TestSelectTransfersMatchesReference:
    @given(case=ownerships(), count=st.integers(0, 12),
           preserve=st.booleans(), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_plans_identical(self, case, count, preserve, data):
        sg, parts, nodes = case
        donor = data.draw(st.integers(0, nodes - 1))
        receiver = data.draw(st.integers(0, nodes - 1).filter(
            lambda r: r != donor))
        got = select_transfers(sg, parts, donor, receiver, count,
                               preserve_donor_connectivity=preserve)
        ref = ref_select_transfers(sg, parts, donor, receiver, count,
                                   preserve_donor_connectivity=preserve)
        assert plan_key(got) == plan_key(ref)
        assert all(type(sd) is int for sd in got.sds)

    @given(case=ownerships(), preserve=st.booleans(), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_stream_equals_repeated_single_picks(self, case, preserve, data):
        sg, parts, nodes = case
        donor = data.draw(st.integers(0, nodes - 1))
        receiver = data.draw(st.integers(0, nodes - 1).filter(
            lambda r: r != donor))
        got_parts, ref_parts = parts.copy(), parts.copy()
        got = list(transfer_stream(sg, got_parts, donor, receiver, preserve))
        ref = list(ref_transfer_stream(sg, ref_parts, donor, receiver,
                                       preserve))
        assert got == ref
        assert np.array_equal(got_parts, ref_parts)

    @given(case=ownerships(), count=st.integers(0, 8), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_naive_plans_identical(self, case, count, data):
        sg, parts, nodes = case
        donor = data.draw(st.integers(0, nodes - 1))
        receiver = (donor + 1) % nodes
        assert plan_key(naive_select_transfers(
            sg, parts, donor, receiver, count)) == plan_key(
            ref_naive_select_transfers(sg, parts, donor, receiver, count))

    @given(case=ownerships(), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_centroid_and_connectivity_identical(self, case, data):
        sg, parts, nodes = case
        node = data.draw(st.integers(0, nodes))  # may own nothing
        centroid = _sp_centroid(sg, parts, node)
        assert centroid.tobytes() == ref_sp_centroid(sg, parts,
                                                     node).tobytes()
        members = np.nonzero(parts == node)[0]
        if len(members):
            assert _stays_connected(sg, parts, node, members).tolist() == [
                ref_donor_stays_connected(sg, parts, node, sd)
                for sd in members]


class TestBalanceStepsUnchanged:
    """Whole balancing steps (every strategy) still agree with the
    reference selection swapped in for ``select_transfers``."""

    @given(case=ownerships(), seed=st.integers(0, 2 ** 16),
           name=st.sampled_from(["tree", "diffusion", "greedy"]))
    @settings(max_examples=60, deadline=None)
    def test_strategy_decisions(self, case, seed, name):
        sg, parts, nodes = case
        rng = np.random.default_rng(seed)
        busy = rng.uniform(0.2, 2.0, nodes)
        strategy = make_strategy(name, sg)
        got = strategy.balance_step(parts, nodes, busy)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("repro.core.strategies.base.select_transfers",
                       ref_select_transfers)
            mp.setattr("repro.core.strategies.base.transfer_stream",
                       ref_transfer_stream)
            ref = strategy.balance_step(parts, nodes, busy)
        assert np.array_equal(got.parts_after, ref.parts_after)
        assert [plan_key(p) for p in got.plans] == \
            [plan_key(p) for p in ref.plans]
