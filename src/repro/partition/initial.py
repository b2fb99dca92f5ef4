"""Initial bisection of the coarsest graph: greedy graph growing (GGGP).

Karypis & Kumar's multilevel scheme bisects the coarsest graph with a
cheap heuristic and lets refinement do the real work.  We implement
greedy graph growing: start a region from a (pseudo-peripheral) seed and
repeatedly absorb the frontier vertex whose absorption decreases the cut
most, until the region holds half the vertex weight.  Several trials from
different seeds are run and the best cut kept.
"""

from __future__ import annotations

import heapq
from typing import Optional, Tuple

import numpy as np

from .graph import Graph
from .metrics import edge_cut

__all__ = ["pseudo_peripheral_vertex", "grow_bisection", "best_bisection"]


def pseudo_peripheral_vertex(graph: Graph, start: int = 0) -> int:
    """Find an approximately peripheral vertex by repeated BFS.

    Two BFS sweeps: the farthest vertex from ``start``, then the farthest
    vertex from that one.  Peripheral seeds make grown regions long and
    thin less often, which lowers the initial cut.
    """
    def bfs_farthest(seed: int) -> int:
        n = graph.num_vertices
        dist = np.full(n, -1, dtype=np.int64)
        dist[seed] = 0
        frontier = [seed]
        last = seed
        while frontier:
            nxt = []
            for v in frontier:
                for u in graph.neighbors(v):
                    if dist[u] == -1:
                        dist[u] = dist[v] + 1
                        nxt.append(int(u))
                        last = int(u)
            frontier = nxt
        return last

    if graph.num_vertices == 0:
        raise ValueError("empty graph")
    return bfs_farthest(bfs_farthest(start))


def grow_bisection(graph: Graph, target_weight: float,
                   seed_vertex: int) -> np.ndarray:
    """Grow part 0 from ``seed_vertex`` until it reaches ``target_weight``.

    Greedy criterion: among frontier vertices, absorb the one with the
    largest *gain* (weight of edges into the region minus weight of edges
    out), the same gain FM refinement uses.  Disconnected leftovers are
    possible on pathological graphs; the caller's refinement pass cleans
    up balance.

    Returns a 0/1 part array.
    """
    n = graph.num_vertices
    parts = np.ones(n, dtype=np.int64)  # everything starts in part 1
    in_region = np.zeros(n, dtype=bool)
    grown = 0.0

    # max-heap on gain via negated keys; lazy deletion with stamp checks.
    # Frontier gains start as (edges into region) - (edges out), i.e.
    # minus the weighted degree
    gain = -np.bincount(graph.edge_owners(), weights=graph.adjwgt,
                        minlength=n)
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


def best_bisection(graph: Graph, target_weight: float,
                   rng: np.random.Generator, trials: int = 4) -> np.ndarray:
    """Run several growing trials; return the best partition.

    The first trial seeds from a pseudo-peripheral vertex; remaining
    trials use random seeds.  ``trials`` is small because refinement
    dominates the final quality.

    Trials compare by ``(badly unbalanced?, cut)``: a trial whose part-0
    weight misses the target by more than 50% loses to any roughly
    balanced one regardless of cut — otherwise a tiny isolated
    component (cut 0) beats every genuine bisection and the downstream
    refinement, which only improves cuts, is stuck with it.
    """
    n = graph.num_vertices
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    if n == 1:
        return np.zeros(1, dtype=np.int64)
    best: Optional[Tuple[Tuple[bool, float], np.ndarray]] = None
    seeds = [pseudo_peripheral_vertex(graph)]
    seeds += [int(rng.integers(0, n)) for _ in range(max(0, trials - 1))]
    for seed in seeds:
        parts = grow_bisection(graph, target_weight, seed)
        w0 = float(graph.vwgt[parts == 0].sum())
        deviation = abs(w0 - target_weight) / max(target_weight, 1e-300)
        key = (deviation > 0.5, edge_cut(graph, parts))
        if best is None or key < best[0]:
            best = (key, parts)
    assert best is not None
    return best[1]
