"""Coarsening phase of the multilevel partitioner: heavy-edge matching.

Following Karypis & Kumar (the METIS paper, reference [7] of the paper we
reproduce): repeatedly contract a maximal matching that prefers heavy
edges, so that the edge weight hidden inside coarse vertices is maximized
and the cut exposed at the coarsest level is small.  Vertex weights add on
contraction; parallel edges merge with weights summed, so the coarse
graph's cut is exactly the fine graph's cut restricted to uncontracted
edges — the invariant the property tests assert.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .graph import Graph, graph_from_edges

__all__ = ["heavy_edge_matching", "contract", "CoarseLevel", "coarsen_level"]


def heavy_edge_matching(graph: Graph, rng: np.random.Generator) -> np.ndarray:
    """Compute a maximal matching preferring heavy edges.

    Vertices are visited in random order (METIS does the same to avoid
    pathological sweeps on structured grids); each unmatched vertex is
    matched with its heaviest unmatched neighbour, ties broken by smaller
    vertex id for determinism under a fixed seed.

    Returns ``match`` where ``match[v]`` is ``v``'s partner, or ``v``
    itself if unmatched.
    """
    n = graph.num_vertices
    match = np.full(n, -1, dtype=np.int64)
    order = rng.permutation(n)
    for v in order:
        if match[v] != -1:
            continue
        nbrs = graph.neighbors(v)
        wgts = graph.edge_weights(v)
        best_u = -1
        best_w = -np.inf
        for u, w in zip(nbrs, wgts):
            if match[u] != -1:
                continue
            if w > best_w or (w == best_w and u < best_u):
                best_w = float(w)
                best_u = int(u)
        if best_u == -1:
            match[v] = v  # stays single
        else:
            match[v] = best_u
            match[best_u] = v
    return match


def contract(graph: Graph, match: np.ndarray) -> Tuple[Graph, np.ndarray]:
    """Contract a matching into a coarse graph.

    Returns ``(coarse_graph, fine_to_coarse)`` where
    ``fine_to_coarse[v]`` is the coarse vertex containing fine vertex
    ``v``.  Coarse vertex weights are sums of their fine constituents;
    coarse coordinates (if present) are vertex-weight-weighted centroids
    so geometric transfer policies keep working on coarse graphs.
    """
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

    cv = fine_to_coarse[graph.edge_owners()]
    cu = fine_to_coarse[graph.adjncy]
    keep = cv < cu  # visit each fine edge once, drop contracted pairs

    coords = None
    if graph.coords is not None:
        coords = np.zeros((next_id, 2))
        np.add.at(coords, fine_to_coarse,
                  graph.coords * graph.vwgt[:, None])
        coords /= np.maximum(coarse_vwgt, 1e-300)[:, None]

    coarse = graph_from_edges(next_id, np.column_stack((cv[keep], cu[keep])),
                              vwgt=coarse_vwgt,
                              edge_weights=graph.adjwgt[keep], coords=coords)
    return coarse, fine_to_coarse


class CoarseLevel:
    """One level of the coarsening hierarchy.

    Attributes
    ----------
    graph:
        The coarse graph at this level.
    fine_to_coarse:
        Projection map from the previous (finer) level's vertex ids.
    """

    def __init__(self, graph: Graph, fine_to_coarse: np.ndarray) -> None:
        self.graph = graph
        self.fine_to_coarse = fine_to_coarse


def coarsen_level(graph: Graph, rng: np.random.Generator) -> Optional[CoarseLevel]:
    """Run one matching + contraction step.

    Returns ``None`` when coarsening stalls (matching shrinks the graph
    by less than 10%), which is the standard METIS stopping criterion —
    without it, graphs with many isolated vertices loop forever.
    """
    match = heavy_edge_matching(graph, rng)
    coarse, fine_to_coarse = contract(graph, match)
    if coarse.num_vertices > 0.9 * graph.num_vertices:
        return None
    return CoarseLevel(coarse, fine_to_coarse)
