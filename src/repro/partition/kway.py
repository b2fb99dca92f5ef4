"""Multilevel k-way partitioning driver — the METIS substitute.

Implements the structure of ``METIS_PartMeshDual`` as the paper uses it:
k-way partitioning of the SD dual graph via **recursive bisection**, where
each bisection is **multilevel** (heavy-edge-matching coarsening, greedy
graph growing on the coarsest graph, FM refinement at every level on the
way back up).

The public entry point is :func:`partition_graph`; :func:`partition_sd_grid`
is the convenience wrapper the solvers call for the paper's square SD
grids.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from .coarsen import CoarseLevel, coarsen_level
from .graph import Graph, grid_dual_graph, induced_subgraph
from .initial import best_bisection
from .refine import fm_refine_bisection

__all__ = ["multilevel_bisection", "partition_graph", "partition_sd_grid"]

#: Stop coarsening below this size; GGGP is fine on graphs this small.
COARSEST_SIZE = 24


def multilevel_bisection(graph: Graph, target_fraction: float,
                         rng: np.random.Generator,
                         balance: float = 1.05) -> np.ndarray:
    """Bisect ``graph`` so part 0 holds ``target_fraction`` of the weight.

    The full multilevel cycle: coarsen until ``COARSEST_SIZE``, bisect the
    coarsest graph with greedy growing, then project + FM-refine back
    up the hierarchy.  Unequal targets (e.g. 3/7 of the weight) are needed
    by recursive bisection for non-power-of-two ``k``.
    """
    if not 0.0 < target_fraction < 1.0:
        raise ValueError(f"target_fraction must be in (0,1), got {target_fraction}")
    # coarsening phase
    levels: List[CoarseLevel] = []
    current = graph
    while current.num_vertices > COARSEST_SIZE:
        level = coarsen_level(current, rng)
        if level is None:
            break
        levels.append(level)
        current = level.graph

    # initial partition on the coarsest graph
    target_weight = target_fraction * current.total_vertex_weight()
    parts = best_bisection(current, target_weight, rng)
    parts = _refine_asymmetric(current, parts, target_fraction, balance)

    # uncoarsening + refinement
    for level in reversed(levels):
        parts = parts[level.fine_to_coarse]
        finer = _finer_graph(levels, level, graph)
        parts = _refine_asymmetric(finer, parts, target_fraction, balance)
    return parts


def _finer_graph(levels: List[CoarseLevel], level: CoarseLevel,
                 original: Graph) -> Graph:
    """The graph one level finer than ``level`` in the hierarchy."""
    idx = levels.index(level)
    return original if idx == 0 else levels[idx - 1].graph


def _refine_asymmetric(graph: Graph, parts: np.ndarray,
                       target_fraction: float, balance: float) -> np.ndarray:
    """FM refinement holding the asymmetric weight split.

    Each side is capped at ``balance`` times its own target weight, so the
    split cannot drift back toward 50/50 when the recursion asked for an
    uneven cut (needed for non-power-of-two ``k`` and weighted targets).
    """
    return fm_refine_bisection(
        graph, parts, balance=balance,
        target_fractions=(target_fraction, 1.0 - target_fraction))


def partition_graph(graph: Graph, k: int, seed: int = 0,
                    balance: float = 1.05,
                    target_weights: Optional[Sequence[float]] = None) -> np.ndarray:
    """Partition ``graph`` into ``k`` parts via multilevel recursive bisection.

    Parameters
    ----------
    k:
        Number of parts (compute nodes).
    seed:
        Seed for the internal RNG; identical inputs and seed give an
        identical partition (tests rely on this).
    balance:
        Per-bisection imbalance tolerance.
    target_weights:
        Optional length-``k`` relative part weights (normalized
        internally).  This is how the load-balancing comparison assigns
        more SDs to faster nodes up front; default is uniform.

    Returns
    -------
    int64 array of part ids in ``[0, k)``.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    n = graph.num_vertices
    if target_weights is None:
        targets = np.full(k, 1.0 / k)
    else:
        targets = np.asarray(target_weights, dtype=np.float64)
        if len(targets) != k:
            raise ValueError(f"need {k} target weights, got {len(targets)}")
        if np.any(targets <= 0):
            raise ValueError("target weights must be positive")
        targets = targets / targets.sum()
    parts = np.zeros(n, dtype=np.int64)
    if k == 1 or n == 0:
        return parts
    rng = np.random.default_rng(seed)
    _recurse(graph, np.arange(n, dtype=np.int64), targets, 0, parts,
             rng, balance)
    return parts


def _recurse(original: Graph, vertices: np.ndarray, targets: np.ndarray,
             first_part: int, parts: np.ndarray, rng: np.random.Generator,
             balance: float) -> None:
    """Recursively bisect the induced subgraph on ``vertices``.

    ``targets`` are the (normalized) weights of the parts this region must
    produce; part ids are assigned starting at ``first_part``.
    """
    k = len(targets)
    if k == 1:
        parts[vertices] = first_part
        return
    sub = induced_subgraph(original, vertices)
    k_left = k // 2
    frac_left = float(targets[:k_left].sum())
    local = multilevel_bisection(sub, frac_left, rng, balance=balance)
    left = vertices[local == 0]
    right = vertices[local == 1]
    # degenerate splits can occur on tiny graphs; fall back to a weight-
    # ordered split so every part receives at least one vertex when possible
    if len(left) == 0 or len(right) == 0:
        order = vertices[np.argsort(-original.vwgt[vertices], kind="stable")]
        split = max(1, int(round(frac_left * len(order))))
        split = min(split, len(order) - 1) if len(order) > 1 else len(order)
        left, right = order[:split], order[split:]
    _recurse(original, left, targets[:k_left] / max(targets[:k_left].sum(), 1e-300),
             first_part, parts, rng, balance)
    if len(right):
        _recurse(original, right,
                 targets[k_left:] / max(targets[k_left:].sum(), 1e-300),
                 first_part + k_left, parts, rng, balance)


def partition_sd_grid(nx: int, ny: int, k: int, seed: int = 0,
                      vwgt: Optional[Sequence[float]] = None,
                      target_weights: Optional[Sequence[float]] = None) -> np.ndarray:
    """Partition an ``nx × ny`` SD grid into ``k`` node territories.

    The convenience entry point matching the paper's use of
    ``METIS_PartMeshDual`` on the SD mesh (e.g. 16×16 SDs across up to 16
    nodes for Fig. 13).  Returns part ids indexed by ``iy * nx + ix``.
    """
    graph = grid_dual_graph(nx, ny, vwgt=vwgt)
    return partition_graph(graph, k, seed=seed, target_weights=target_weights)
