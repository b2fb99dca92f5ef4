"""Direction-uniform, contiguity-preserving SD transfer selection.

When the balancer decides node ``r`` borrows ``count`` SDs from node
``d``, *which* SDs move matters: the paper requires borrowing "uniformly
in all the spatial directions" so the receiver's SP stays compact and the
donor's SP is not hollowed out — preserving the contiguous, low-edge-cut
shape METIS produced (Sec. 7, Fig. 6).

Selection is greedy, one SD at a time, over the donor SDs on the current
donor/receiver frontier:

1. smallest distance to the receiver's SP centroid — the region grows
   as a compact disc, which is what "borrowing uniformly in all the
   spatial directions" produces in the paper's Fig. 6;
2. among distance ties, round-robin over angular bins around the
   centroid (explicit direction uniformity);
3. among remaining ties, maximise face-adjacency to the receiver's SP,
   then smallest SD id (determinism).

A candidate whose removal would disconnect the donor's SP is skipped
while connected alternatives exist, keeping both SPs contiguous whenever
geometry allows.
"""

from __future__ import annotations

import math
from typing import Iterator, List, Sequence, Tuple

import numpy as np
from scipy import ndimage

from ..mesh.subdomain import SubdomainGrid

__all__ = ["TransferPlan", "select_transfers", "transfer_stream",
           "apply_transfers", "naive_select_transfers"]

#: Number of angular bins used for direction-uniform spreading.
NUM_ANGLE_BINS = 8


class TransferPlan:
    """The outcome of one donor->receiver selection.

    ``sds`` lists the SD ids to move (in selection order); ``requested``
    records how many were asked for — fewer may be geometrically
    possible (no shared frontier left).
    """

    def __init__(self, donor: int, receiver: int, requested: int,
                 sds: List[int]) -> None:
        self.donor = donor
        self.receiver = receiver
        self.requested = requested
        self.sds = sds

    @property
    def moved(self) -> int:
        """Number of SDs actually selected."""
        return len(self.sds)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<TransferPlan n{self.donor}->n{self.receiver} "
                f"{self.moved}/{self.requested} SDs>")


def _sp_centroid(sd_grid: SubdomainGrid, parts: np.ndarray, node: int) -> np.ndarray:
    members = np.nonzero(parts == node)[0]
    if len(members) == 0:
        return np.array([0.5, 0.5])
    return sd_grid.centers[members].mean(axis=0)


#: 3-D connectivity that links SDs within a plane only: stacked
#: ownership planes are labelled independently in one call
_PLANAR = np.zeros((3, 3, 3), dtype=bool)
_PLANAR[1] = ndimage.generate_binary_structure(2, 1)


def _stays_connected(sd_grid: SubdomainGrid, parts: np.ndarray, donor: int,
                     candidates: Sequence[int]) -> np.ndarray:
    """Per candidate (each an SD of ``donor``): whether removing it
    alone keeps the donor's SP face-connected (at most one component
    left).

    One plane per candidate, each holding the donor's SP cropped to its
    bounding box with that candidate cleared, is labelled in a single
    call.  Labels are numbered in scan order, so plane ``i`` owns the
    label range ``(max of planes < i, max of plane i]`` and its
    component count is the step of the running maximum.
    """
    members = sd_grid.ownership_grid(parts) == donor
    rows = np.nonzero(members.any(axis=1))[0]
    cols = np.nonzero(members.any(axis=0))[0]
    box = members[rows[0]:rows[-1] + 1, cols[0]:cols[-1] + 1]
    iy, ix = np.divmod(np.asarray(candidates, dtype=np.int64), sd_grid.sd_nx)
    planes = np.repeat(box[None], len(iy), axis=0)
    planes[np.arange(len(iy)), iy - rows[0], ix - cols[0]] = False
    labels, _count = ndimage.label(planes, structure=_PLANAR)
    top = np.maximum.accumulate(labels.reshape(len(iy), -1).max(axis=1))
    top[1:] -= top[:-1].copy()
    return top <= 1


def select_transfers(sd_grid: SubdomainGrid, parts: np.ndarray,
                     donor: int, receiver: int, count: int,
                     preserve_donor_connectivity: bool = True) -> TransferPlan:
    """Select up to ``count`` donor SDs to hand to ``receiver``.

    ``parts`` is *not* modified; apply the plan with
    :func:`apply_transfers`.  Selection re-evaluates the frontier after
    each pick, so the chosen set grows the receiver's region organically
    instead of peeling a single row.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if donor == receiver:
        raise ValueError("donor and receiver must differ")
    work = np.array(parts, dtype=np.int64, copy=True)
    centroid = None
    bin_usage = [0] * NUM_ANGLE_BINS
    chosen: List[int] = []
    whole = False

    for _ in range(count):
        frontier, adj = _frontier(sd_grid, work, donor, receiver)
        if not len(frontier):
            break
        if centroid is None:  # the receiver's SP before any pick
            centroid = _sp_centroid(sd_grid, work, receiver)
        pick, pick_bin, whole = _pick(sd_grid, work, donor, frontier, adj,
                                      centroid, bin_usage,
                                      preserve_donor_connectivity, whole)
        chosen.append(pick)
        work[pick] = receiver
        bin_usage[pick_bin] += 1
    return TransferPlan(donor, receiver, count, chosen)


def transfer_stream(sd_grid: SubdomainGrid, parts: np.ndarray, donor: int,
                    receiver: int, preserve_donor_connectivity: bool = True
                    ) -> Iterator[int]:
    """Hand donor SDs to ``receiver`` one at a time, for as long as the
    caller keeps asking.

    Each yielded SD is exactly what ``select_transfers(parts, donor,
    receiver, count=1)`` would pick on the ownership left by the
    previous picks; the stream moves it in ``parts`` (in place) before
    yielding it, and ends when the frontier is exhausted.  Unlike
    repeated calls it remembers, between picks, whether the donor's SP
    is known to be in one piece, which lets most connectivity checks be
    settled from an SD's eight neighbours.
    """
    if donor == receiver:
        raise ValueError("donor and receiver must differ")
    whole = False
    while True:
        frontier, adj = _frontier(sd_grid, parts, donor, receiver)
        if not len(frontier):
            return
        centroid = _sp_centroid(sd_grid, parts, receiver)
        pick, _bin, whole = _pick(sd_grid, parts, donor, frontier, adj,
                                  centroid, [0] * NUM_ANGLE_BINS,
                                  preserve_donor_connectivity, whole)
        parts[pick] = receiver
        yield pick


def _frontier(sd_grid: SubdomainGrid, parts: np.ndarray, donor: int,
              receiver: int) -> Tuple[np.ndarray, np.ndarray]:
    """Donor SDs face-adjacent to the receiver's SP, ascending, with the
    number of receiver SDs each touches."""
    # receiver SDs among each SD's four faces: a zero-padded copy of the
    # receiver's SP summed over its four shifts
    theirs = np.zeros((sd_grid.sd_ny + 2, sd_grid.sd_nx + 2), dtype=np.int8)
    theirs[1:-1, 1:-1] = sd_grid.ownership_grid(parts) == receiver
    touching = (theirs[:-2, 1:-1] + theirs[2:, 1:-1]
                + theirs[1:-1, :-2] + theirs[1:-1, 2:]).ravel()
    frontier = np.nonzero((parts == donor) & touching.astype(bool))[0]
    return frontier, touching[frontier]


class _Ring:
    """The donor's SP as a zero-padded byte mask, read around one SD.

    Removing SD ``c`` cannot split the component it belongs to when the
    donor SDs on its four faces are connected through the donor SDs of
    its eight-cell ring: any path through ``c`` can detour around it.
    Going round the ring (N, NE, E, SE, S, SW, W, NW), two consecutive
    faces are linked iff the corner between them is a donor SD too, so
    the faces form ``faces - links`` groups (one when all four links
    close the ring).
    """

    def __init__(self, sd_grid: SubdomainGrid, parts: np.ndarray,
                 donor: int) -> None:
        nx = sd_grid.sd_nx
        stride = nx + 2
        padded = np.zeros((sd_grid.sd_ny + 2, stride), dtype=np.uint8)
        padded[1:-1, 1:-1] = sd_grid.ownership_grid(parts) == donor
        self.cells = padded.tobytes()
        self.nx = nx
        self.stride = stride
        self.offsets = (-stride, 1 - stride, 1, stride + 1, stride,
                        stride - 1, -1, -stride - 1)

    def keeps_whole(self, sd: int) -> bool:
        """Whether removing ``sd`` leaves its component in one piece."""
        iy, ix = divmod(sd, self.nx)
        at = (iy + 1) * self.stride + ix + 1
        ring = [self.cells[at + o] for o in self.offsets]
        faces, corners = ring[0::2], ring[1::2]
        links = sum(faces[k] & corners[k] & faces[(k + 1) % 4]
                    for k in range(4))
        return links == 4 or sum(faces) - links <= 1


def _pick(sd_grid: SubdomainGrid, parts: np.ndarray, donor: int,
          frontier: np.ndarray, adj: np.ndarray, centroid: np.ndarray,
          bin_usage: List[int], preserve_connectivity: bool,
          whole: bool) -> Tuple[int, int, bool]:
    """Rank the frontier by the selection criteria; return the best SD,
    its angular bin, and whether the donor's SP is known to be in at
    most one piece after the pick.

    ``whole`` says the donor's SP is known to be in at most one piece
    now.  Then every candidate whose removal keeps its component whole
    (:class:`_Ring`) keeps the SP connected, and only the candidates
    ranked ahead of the first such one need the global check.
    """
    offsets = sd_grid.centers[frontier] - centroid
    scored = []
    for sd, a, (dx, dy) in zip(frontier.tolist(), adj.tolist(),
                               offsets.tolist()):
        # angular bin of the offset around the centroid
        b = min(int((math.atan2(dy, dx) + math.pi) / (2 * math.pi)
                    * NUM_ANGLE_BINS), NUM_ANGLE_BINS - 1)
        scored.append((round(math.hypot(dx, dy), 9), bin_usage[b], -a, sd,
                       b))
    scored.sort()
    if not preserve_connectivity:
        return scored[0][3], scored[0][4], False
    safe = len(scored)  # rank of the first candidate known to be safe
    if whole:
        ring = _Ring(sd_grid, parts, donor)
        safe = next((i for i, entry in enumerate(scored)
                     if ring.keeps_whole(entry[3])), safe)
    if safe:
        connected = _stays_connected(sd_grid, parts, donor,
                                     [entry[3] for entry in scored[:safe]])
        for entry, ok in zip(scored, connected.tolist()):
            if ok:
                return entry[3], entry[4], True
    if safe < len(scored):
        return scored[safe][3], scored[safe][4], True
    # every candidate disconnects the donor; accept the best-ranked
    # one — balance beats contiguity as a last resort
    return scored[0][3], scored[0][4], False


def naive_select_transfers(sd_grid: SubdomainGrid, parts: np.ndarray,
                           donor: int, receiver: int, count: int) -> TransferPlan:
    """Baseline for the transfer ablation: take the lowest-id frontier SDs.

    Ignores direction uniformity and donor connectivity; used by
    ``bench_abl_transfer`` to quantify what the paper's policy buys.
    """
    work = np.array(parts, dtype=np.int64, copy=True)
    chosen: List[int] = []
    for _ in range(max(0, count)):
        frontier, _adj = _frontier(sd_grid, work, donor, receiver)
        if not len(frontier):
            break
        pick = int(frontier[0])
        chosen.append(pick)
        work[pick] = receiver
    return TransferPlan(donor, receiver, count, chosen)


def apply_transfers(parts: np.ndarray, plans: Sequence[TransferPlan]) -> np.ndarray:
    """Apply transfer plans to a copy of ``parts``; returns the new array."""
    out = np.array(parts, dtype=np.int64, copy=True)
    for plan in plans:
        for sd in plan.sds:
            if out[sd] != plan.donor:
                raise ValueError(
                    f"SD {sd} no longer owned by donor {plan.donor}")
            out[sd] = plan.receiver
    return out
