"""The stack-distance cost model: caches make block shape matter.

A :class:`MemoryHierarchy` prices one memory access by stack distance —
the access hits the first level whose capacity still holds its reuse
window, else it falls through to DRAM — and the
:class:`HierarchyCostModel` folds the expected memory time per DP
update (from the backend's offline :mod:`repro.costmodel.profiler`
profile) into the task's work units as a dimensionless slowdown:

.. math::

    work = count \\cdot flops \\cdot wf \\cdot
           \\bigl(1 + t_{mem}(backend, shape) \\cdot rate_{ref} / flops
           \\bigr)

Expressing the penalty as extra *work* (not seconds) keeps the model
composable with the DES's per-node speed traces: stragglers and warm-up
windows still scale a hierarchy-priced task exactly like a flat one.
``rate_ref`` is the reference 1e9 flops/s the registry scenarios run
their cores at, so on a default node the slowdown reads directly as
"memory stalls per unit of compute".

Slowdowns are deterministic pure floats, memoized per ``(backend,
shape, radius, flops)`` on the model instance (profiles themselves are
LRU-cached in the profiler), so schedules stay bit-reproducible and
task-group prefix sums see ordinary resolved work floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from .base import CostModel, WorkItem
from .profiler import reuse_profile
from .registry import register_cost_model

__all__ = ["MemoryLevel", "MemoryHierarchy", "DEFAULT_HIERARCHY",
           "HierarchyCostModel", "REFERENCE_RATE"]

#: Reference core speed (DP-update flops per virtual second) the
#: slowdown is normalized against — the registry scenarios' 1 GF/s.
REFERENCE_RATE = 1e9


@dataclass(frozen=True)
class MemoryLevel:
    """One cache level: capacity bound, bandwidth, and access latency."""

    name: str
    #: bytes this level can hold (the stack-distance cutoff)
    capacity: float
    #: bytes per second once streaming
    bandwidth: float
    #: seconds per access
    latency: float


@dataclass(frozen=True)
class MemoryHierarchy:
    """An ordered cache ladder with DRAM fallthrough.

    ``levels`` must be ordered smallest to largest capacity; an access
    at stack distance ``d`` is serviced by the first level with
    ``capacity >= d`` (its window still fits), else by DRAM.
    """

    levels: Tuple[MemoryLevel, ...]
    dram_bandwidth: float = 2e10
    dram_latency: float = 8e-8

    def __post_init__(self) -> None:
        caps = [lv.capacity for lv in self.levels]
        if caps != sorted(caps):
            raise ValueError("memory levels must be ordered by capacity, "
                             f"got {caps}")
        for lv in self.levels:
            if lv.capacity <= 0 or lv.bandwidth <= 0 or lv.latency < 0:
                raise ValueError(f"bad memory level {lv!r}")
        if self.dram_bandwidth <= 0 or self.dram_latency < 0:
            raise ValueError("bad DRAM parameters")

    def access_time(self, stack_distance_bytes: float) -> float:
        """Seconds one 8-byte access at this stack distance costs."""
        for lv in self.levels:
            if stack_distance_bytes <= lv.capacity:
                return lv.latency + 8.0 / lv.bandwidth
        return self.dram_latency + 8.0 / self.dram_bandwidth


#: A small contemporary-looking default ladder (used when the cluster
#: spec carries no explicit hierarchy): 32 KiB L1, 256 KiB L2, 8 MiB L3.
DEFAULT_HIERARCHY = MemoryHierarchy(levels=(
    MemoryLevel("L1", 32 * 1024, 4e11, 1e-9),
    MemoryLevel("L2", 256 * 1024, 2e11, 4e-9),
    MemoryLevel("L3", 8 * 1024 * 1024, 1e11, 1.2e-8),
))


@register_cost_model("hierarchy")
class HierarchyCostModel(CostModel):
    """Flat work scaled by the backend/shape stack-distance slowdown.

    Items with unknown shape or backend (``rows``/``cols`` 0, empty
    ``backend``) fall back to the flat arithmetic — bare unit-test
    clusters that submit raw work floats never see a penalty.
    """

    def __init__(self, memory: MemoryHierarchy = None,
                 ref_rate: float = REFERENCE_RATE):
        self.memory = DEFAULT_HIERARCHY if memory is None else memory
        self.ref_rate = float(ref_rate)
        self._slowdowns: Dict[Tuple, float] = {}

    def slowdown(self, backend: str, rows: int, cols: int, radius: int,
                 flops: float) -> float:
        """``1 + mem-time/compute-time`` for this kernel and shape."""
        key = (backend, rows, cols, radius, flops)
        cached = self._slowdowns.get(key)
        if cached is None:
            prof = reuse_profile(backend, rows, cols, radius)
            mem = prof.mem_time_per_dp(self.memory)
            compute = flops / self.ref_rate
            cached = 1.0 + mem / compute
            self._slowdowns[key] = cached
        return cached

    def task_work(self, item: WorkItem) -> float:
        base = item.count * item.flops * item.work_factor
        if item.rows <= 0 or item.cols <= 0 or not item.backend \
                or item.flops <= 0:
            return base
        return base * self.slowdown(item.backend, item.rows, item.cols,
                                    item.radius, item.flops)

    def work_scale(self, item: WorkItem) -> float:
        if item.rows <= 0 or item.cols <= 0 or not item.backend \
                or item.flops <= 0:
            return 1.0
        return self.slowdown(item.backend, item.rows, item.cols,
                             item.radius, item.flops)
