"""The partitioner's array-valued passes against the loops they replace.

``graph_from_edges``, ``compute_gains``, ``induced_subgraph``, ``edge_cut``
and the edge collection of ``contract`` are numpy passes over the CSR
arrays.
Each is checked here against a verbatim copy of the per-vertex Python
loop it replaced: same arrays, bit for bit, so the multilevel
partitioner makes the same decisions and returns the same partitions.
"""

import heapq
from typing import Dict, List, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.partition.coarsen as coarsen_mod
import repro.partition.graph as graph_mod
import repro.partition.initial as initial_mod
import repro.partition.kway as kway_mod
import repro.partition.refine as refine_mod
from repro.experiments import build, scenario_names
from repro.partition.coarsen import contract, heavy_edge_matching
from repro.partition.graph import (Graph, graph_from_edges, grid_dual_graph,
                                   induced_subgraph)
from repro.partition.initial import grow_bisection
from repro.partition.kway import partition_sd_grid
from repro.partition.metrics import edge_cut
from repro.partition.refine import compute_gains


# -- the per-vertex loops, as they were ------------------------------------
def _loop_graph_from_edges(num_vertices, edges, vwgt=None,
                           edge_weights=None, coords=None):
    edge_list = list(edges)
    if edge_weights is None:
        weights: List[float] = [1.0] * len(edge_list)
    else:
        weights = list(edge_weights)
        if len(weights) != len(edge_list):
            raise ValueError("edge_weights must parallel edges")
    merged: Dict[Tuple[int, int], float] = {}
    for (u, v), w in zip(edge_list, weights):
        if u == v:
            raise ValueError(f"self-loop ({u},{v}) not allowed")
        if not (0 <= u < num_vertices and 0 <= v < num_vertices):
            raise ValueError(f"edge ({u},{v}) out of range")
        key = (min(u, v), max(u, v))
        merged[key] = merged.get(key, 0.0) + float(w)

    adj: List[List[Tuple[int, float]]] = [[] for _ in range(num_vertices)]
    for (u, v), w in merged.items():
        adj[u].append((v, w))
        adj[v].append((u, w))
    xadj = np.zeros(num_vertices + 1, dtype=np.int64)
    adjncy = np.empty(2 * len(merged), dtype=np.int64)
    adjwgt = np.empty(2 * len(merged), dtype=np.float64)
    pos = 0
    for v in range(num_vertices):
        adj[v].sort()
        for (u, w) in adj[v]:
            adjncy[pos] = u
            adjwgt[pos] = w
            pos += 1
        xadj[v + 1] = pos
    return Graph(xadj, adjncy, vwgt=None if vwgt is None else np.asarray(vwgt),
                 adjwgt=adjwgt, coords=coords)


def _loop_compute_gains(graph, parts):
    n = graph.num_vertices
    gains = np.zeros(n)
    for v in range(n):
        nbrs = graph.neighbors(v)
        wgts = graph.edge_weights(v)
        same = parts[nbrs] == parts[v]
        gains[v] = float(wgts[~same].sum() - wgts[same].sum())
    return gains


def _loop_edge_cut(graph, parts):
    parts = np.asarray(parts, dtype=np.int64)
    cut = 0.0
    for v in range(graph.num_vertices):
        nbrs = graph.neighbors(v)
        wgts = graph.edge_weights(v)
        mask = parts[nbrs] != parts[v]
        cut += float(wgts[mask].sum())
    return cut / 2.0


def _loop_grow_bisection(graph, target_weight, seed_vertex):
    n = graph.num_vertices
    parts = np.ones(n, dtype=np.int64)  # everything starts in part 1
    in_region = np.zeros(n, dtype=bool)
    grown = 0.0

    # max-heap on gain via negated keys; lazy deletion with stamp checks
    gain = np.zeros(n)
    heap: list = []
    stamp = np.zeros(n, dtype=np.int64)

    def push(v: int) -> None:
        stamp[v] += 1
        heapq.heappush(heap, (-gain[v], v, stamp[v]))

    def absorb(v: int) -> None:
        nonlocal grown
        parts[v] = 0
        in_region[v] = True
        grown += float(graph.vwgt[v])
        for u, w in zip(graph.neighbors(v), graph.edge_weights(v)):
            if not in_region[u]:
                gain[u] += 2.0 * w  # edge flips from "out" to "in"
                push(int(u))

    # seed the frontier gains: gain = (edges into region) - (edges out)
    for v in range(n):
        gain[v] = -float(graph.edge_weights(v).sum())
    absorb(seed_vertex)

    def would_overshoot(v: int) -> bool:
        # stop rather than badly overshoot the target weight
        return (grown + graph.vwgt[v] > 1.5 * target_weight
                and grown > 0.5 * target_weight)

    while grown < target_weight:
        if not heap:
            # the seed's component is exhausted: recursive bisection
            # hands us disconnected regions, and stopping here used to
            # return a degenerate split (e.g. weight 1 vs 38) whose
            # zero cut then won best_bisection — jump to a fresh
            # component and keep growing toward the target
            remaining = np.flatnonzero(~in_region)
            if remaining.size == 0:
                break
            v = int(remaining[0])
            if would_overshoot(v):
                break
            absorb(v)
            continue
        neg_gain, v, st = heapq.heappop(heap)
        if in_region[v] or st != stamp[v]:
            continue
        if would_overshoot(v):
            break
        absorb(v)
    return parts


def _loop_induced_subgraph(graph, vertices):
    local_of = {int(v): i for i, v in enumerate(vertices)}
    edges = []
    weights = []
    for i, v in enumerate(vertices):
        for u, w in zip(graph.neighbors(int(v)), graph.edge_weights(int(v))):
            j = local_of.get(int(u))
            if j is not None and i < j:
                edges.append((i, j))
                weights.append(float(w))
    coords = None if graph.coords is None else graph.coords[vertices]
    return _loop_graph_from_edges(len(vertices), edges,
                                  vwgt=graph.vwgt[vertices],
                                  edge_weights=weights, coords=coords)


def _loop_contract(graph, match):
    n = graph.num_vertices
    fine_to_coarse = np.full(n, -1, dtype=np.int64)
    next_id = 0
    for v in range(n):
        if fine_to_coarse[v] != -1:
            continue
        partner = int(match[v])
        fine_to_coarse[v] = next_id
        if partner != v:
            fine_to_coarse[partner] = next_id
        next_id += 1

    coarse_vwgt = np.zeros(next_id)
    np.add.at(coarse_vwgt, fine_to_coarse, graph.vwgt)

    edges: List[Tuple[int, int]] = []
    weights: List[float] = []
    for v in range(n):
        cv = int(fine_to_coarse[v])
        for u, w in zip(graph.neighbors(v), graph.edge_weights(v)):
            cu = int(fine_to_coarse[u])
            if cv < cu:
                edges.append((cv, cu))
                weights.append(float(w))

    coords = None
    if graph.coords is not None:
        coords = np.zeros((next_id, 2))
        np.add.at(coords, fine_to_coarse,
                  graph.coords * graph.vwgt[:, None])
        coords /= np.maximum(coarse_vwgt, 1e-300)[:, None]

    coarse = _loop_graph_from_edges(next_id, edges, vwgt=coarse_vwgt,
                                    edge_weights=weights, coords=coords)
    return coarse, fine_to_coarse


# -- helpers -----------------------------------------------------------------
def assert_same_graph(a: Graph, b: Graph) -> None:
    for name in ("xadj", "adjncy", "adjwgt", "vwgt"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype, name
        np.testing.assert_array_equal(x, y, err_msg=name)
    assert (a.coords is None) == (b.coords is None)
    if a.coords is not None:
        np.testing.assert_array_equal(a.coords, b.coords)


weights_st = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@st.composite
def edge_lists(draw, max_vertices=12, max_edges=60):
    """Edge lists with duplicates (in both orientations), isolated
    vertices and arbitrary float weights."""
    n = draw(st.integers(2, max_vertices))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda e: e[0] != e[1])
    edges = draw(st.lists(pair, max_size=max_edges))
    weights = draw(st.lists(weights_st, min_size=len(edges),
                            max_size=len(edges)))
    return n, edges, weights


@st.composite
def graphs(draw, max_vertices=12):
    n, edges, weights = draw(edge_lists(max_vertices=max_vertices))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    return _loop_graph_from_edges(n, edges, vwgt=rng.uniform(0.5, 2.0, n),
                                  edge_weights=weights,
                                  coords=rng.random((n, 2)))


@st.composite
def grid_graphs(draw):
    """SD dual graphs, with and without the diagonal (degree-8) edges."""
    return grid_dual_graph(draw(st.integers(1, 7)), draw(st.integers(1, 7)),
                           diagonal=draw(st.booleans()))


# -- graph_from_edges ----------------------------------------------------------
class TestGraphFromEdges:
    @settings(max_examples=120, deadline=None)
    @given(edge_lists())
    def test_matches_loop(self, data):
        n, edges, weights = data
        coords = np.arange(2 * n, dtype=float).reshape(n, 2)
        assert_same_graph(
            graph_from_edges(n, edges, vwgt=np.arange(n) + 1.0,
                             edge_weights=weights, coords=coords),
            _loop_graph_from_edges(n, edges, vwgt=np.arange(n) + 1.0,
                                   edge_weights=weights, coords=coords))

    @settings(max_examples=50, deadline=None)
    @given(edge_lists(max_vertices=4, max_edges=80))
    def test_many_duplicates_sum_in_input_order(self, data):
        """Up to 80 copies of a few edges: the merged weight is the
        running sum in input order, not a pairwise or sorted sum."""
        n, edges, weights = data
        assert_same_graph(
            graph_from_edges(n, edges, edge_weights=weights),
            _loop_graph_from_edges(n, edges, edge_weights=weights))

    def test_array_input_and_default_weights(self):
        edges = [(3, 1), (0, 2), (1, 3), (2, 0), (0, 1)]
        assert_same_graph(graph_from_edges(5, np.array(edges)),
                          _loop_graph_from_edges(5, edges))

    def test_no_vertices_no_edges(self):
        assert_same_graph(graph_from_edges(0, []),
                          _loop_graph_from_edges(0, []))

    @pytest.mark.parametrize("edges, message", [
        ([(0, 1), (2, 2), (0, 9)], r"self-loop \(2,2\)"),
        ([(0, 1), (0, 9), (2, 2)], r"edge \(0,9\) out of range"),
        ([(-1, 1)], r"edge \(-1,1\) out of range"),
    ])
    def test_first_bad_edge_is_reported(self, edges, message):
        with pytest.raises(ValueError, match=message):
            _loop_graph_from_edges(4, edges)
        with pytest.raises(ValueError, match=message):
            graph_from_edges(4, edges)

    def test_weight_length_checked(self):
        with pytest.raises(ValueError, match="parallel"):
            graph_from_edges(3, [(0, 1)], edge_weights=[1.0, 2.0])


# -- compute_gains -------------------------------------------------------------
class TestComputeGains:
    @settings(max_examples=120, deadline=None)
    @given(graphs(max_vertices=8), st.data())
    def test_matches_loop(self, graph, data):
        """Up to 8 vertices: fewer than 8 neighbours per side, where the
        loop's ``np.sum`` adds one weight at a time too."""
        parts = np.array(data.draw(st.lists(
            st.integers(0, 1), min_size=graph.num_vertices,
            max_size=graph.num_vertices)), dtype=np.int64)
        np.testing.assert_array_equal(compute_gains(graph, parts),
                                      _loop_compute_gains(graph, parts))

    @settings(max_examples=50, deadline=None)
    @given(grid_graphs(), st.integers(0, 2 ** 32 - 1))
    def test_matches_loop_on_grid_graphs(self, graph, seed):
        parts = np.random.default_rng(seed).integers(
            0, 2, graph.num_vertices)
        np.testing.assert_array_equal(compute_gains(graph, parts),
                                      _loop_compute_gains(graph, parts))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(8, 40), st.integers(0, 2 ** 32 - 1))
    def test_long_sides_agree_to_round_off(self, leaves, seed):
        """A hub with 8 or more neighbours on one side: numpy sums such
        runs pairwise, the gains add them one by one.  The two agree to
        round-off, and exactly on integer and quarter weights."""
        rng = np.random.default_rng(seed)
        edges = [(0, v) for v in range(1, leaves + 1)]
        parts = rng.integers(0, 2, leaves + 1)
        parts[1:9] = parts[0]  # at least 8 neighbours on the hub's side
        w = rng.uniform(0.1, 10.0, leaves)
        g = graph_from_edges(leaves + 1, edges, edge_weights=w)
        np.testing.assert_allclose(compute_gains(g, parts),
                                   _loop_compute_gains(g, parts),
                                   rtol=0, atol=1e-12 * w.sum())
        quarters = rng.integers(1, 12, leaves) * 0.25
        g = graph_from_edges(leaves + 1, edges, edge_weights=quarters)
        np.testing.assert_array_equal(compute_gains(g, parts),
                                      _loop_compute_gains(g, parts))


class TestEdgeCut:
    @settings(max_examples=100, deadline=None)
    @given(st.one_of(graphs(max_vertices=8), grid_graphs()), st.data())
    def test_matches_loop(self, graph, data):
        parts = np.array(data.draw(st.lists(
            st.integers(0, 3), min_size=graph.num_vertices,
            max_size=graph.num_vertices)), dtype=np.int64)
        assert edge_cut(graph, parts) == _loop_edge_cut(graph, parts)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(9, 40), st.integers(0, 2 ** 32 - 1))
    def test_many_vertices_total_in_vertex_order(self, n, seed):
        """A weighted cycle: per-vertex cut weights are added up one
        vertex at a time, as the loop did, not pairwise."""
        rng = np.random.default_rng(seed)
        g = graph_from_edges(n, [(v, (v + 1) % n) for v in range(n)],
                             edge_weights=rng.uniform(0.1, 10.0, n))
        parts = rng.integers(0, 3, n)
        assert edge_cut(g, parts) == _loop_edge_cut(g, parts)

    def test_edgeless_graphs(self):
        for n in (0, 3):
            g = graph_from_edges(n, [])
            assert edge_cut(g, np.zeros(n, dtype=np.int64)) == 0.0


class TestGrowBisection:
    @settings(max_examples=100, deadline=None)
    @given(st.one_of(graphs(max_vertices=8), grid_graphs()), st.data())
    def test_matches_loop(self, graph, data):
        """The frontier gains are seeded with minus the weighted degree."""
        n = graph.num_vertices
        seed_vertex = data.draw(st.integers(0, n - 1))
        target = data.draw(st.floats(0.1, 1.0)) * graph.total_vertex_weight()
        np.testing.assert_array_equal(
            grow_bisection(graph, target, seed_vertex),
            _loop_grow_bisection(graph, target, seed_vertex))


# -- induced_subgraph and contract ---------------------------------------------
class TestSubgraphAndContraction:
    @settings(max_examples=80, deadline=None)
    @given(graphs(), st.data())
    def test_induced_subgraph_matches_loop(self, graph, data):
        n = graph.num_vertices
        chosen = data.draw(st.lists(st.integers(0, n - 1), unique=True,
                                    max_size=n))
        vertices = np.array(chosen, dtype=np.int64)
        assert_same_graph(induced_subgraph(graph, vertices),
                          _loop_induced_subgraph(graph, vertices))

    @settings(max_examples=30, deadline=None)
    @given(grid_graphs(), st.integers(0, 2 ** 32 - 1))
    def test_induced_subgraph_of_grid_graphs(self, graph, seed):
        rng = np.random.default_rng(seed)
        vertices = rng.permutation(graph.num_vertices)[
            :rng.integers(0, graph.num_vertices + 1)]
        assert_same_graph(induced_subgraph(graph, vertices),
                          _loop_induced_subgraph(graph, vertices))

    @settings(max_examples=80, deadline=None)
    @given(st.one_of(graphs(), grid_graphs()), st.integers(0, 2 ** 32 - 1))
    def test_contract_matches_loop(self, graph, seed):
        match = heavy_edge_matching(graph, np.random.default_rng(seed))
        coarse, f2c = contract(graph, match)
        ref_coarse, ref_f2c = _loop_contract(graph, match)
        np.testing.assert_array_equal(f2c, ref_f2c)
        assert_same_graph(coarse, ref_coarse)


# -- end to end: the partitions themselves ---------------------------------------
def _metis_partition_args():
    args = {(32, 32, 64, 0)}  # the 512^2 drift benchmark's partition
    for name in scenario_names():
        spec = build(name)
        partition = getattr(spec, "partition", None)
        if partition is not None and partition.method == "metis":
            args.add((spec.mesh.sd_nx, spec.mesh.sd_ny,
                      spec.cluster.num_nodes, partition.seed))
    return sorted(args)


@pytest.mark.parametrize("nx, ny, k, seed", _metis_partition_args())
def test_registry_partitions_match_loop_passes(monkeypatch, nx, ny, k, seed):
    """Every registry scenario's METIS-style partition is unchanged."""
    fast = partition_sd_grid(nx, ny, k, seed=seed)
    monkeypatch.setattr(graph_mod, "graph_from_edges", _loop_graph_from_edges)
    monkeypatch.setattr(refine_mod, "compute_gains", _loop_compute_gains)
    monkeypatch.setattr(initial_mod, "edge_cut", _loop_edge_cut)
    monkeypatch.setattr(coarsen_mod, "contract", _loop_contract)
    monkeypatch.setattr(kway_mod, "induced_subgraph", _loop_induced_subgraph)
    np.testing.assert_array_equal(fast, partition_sd_grid(nx, ny, k,
                                                          seed=seed))
