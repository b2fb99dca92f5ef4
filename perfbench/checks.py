"""Correctness checks and the simulated-output digest of one run.

Every check returns a list of failure messages (empty: the run is
correct).  They run after the timed region and recompute each quantity
from the run's outputs instead of trusting the program's own totals.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import marshal
from typing import Any, Dict, List, Sequence

import numpy as np

__all__ = ["digest", "check_schedule", "check_field", "check_service"]

#: relative slack for sums of floats accumulated in different orders
_REL = 1e-9


def digest(record) -> str:
    """SHA-256 of a :class:`RunRecord`, which holds no host timings.

    The service event stream (hundreds of thousands of dicts) is
    encoded with ``marshal`` format 2, which writes values only (binary
    floats, no object references), so equal streams hash equally; the
    other fields go through key-sorted JSON.
    """
    plain = {f.name: getattr(record, f.name)
             for f in dataclasses.fields(record)}
    events = plain.pop("service_events")
    h = hashlib.sha256(json.dumps(plain, sort_keys=True,
                                  separators=(",", ":")).encode("utf-8"))
    h.update(marshal.dumps(list(events), 2))
    return "sha256:" + h.hexdigest()


def check_schedule(spec, record, frames: Sequence[np.ndarray], sd_grid,
                   radius: int) -> List[str]:
    """Busy-time bound, ghost/migration byte balance and SD ownership.

    ``frames`` is the SD ownership per timestep (the initial partition
    plus one frame per step, as ``ownership_timeline`` builds it); step
    ``k`` exchanges ghosts under ``frames[k]``.
    """
    from repro.mesh.decomposition import BYTES_PER_DP, Decomposition
    fails: List[str] = []
    nodes = spec.cluster.num_nodes
    capacity = nodes * spec.cluster.cores_per_node * record.makespan
    busy = sum(record.busy_total)
    if not busy <= capacity * (1 + _REL):
        fails.append(f"busy {busy!r} exceeds nodes x makespan {capacity!r}")

    exchange: Dict[bytes, int] = {}
    ghost = migration = 0
    for step in range(record.num_steps):
        parts = np.asarray(frames[step], dtype=np.int64)
        key = parts.tobytes()
        if key not in exchange:
            exchange[key] = Decomposition(
                sd_grid, parts, nodes).total_exchange_bytes(radius)
        ghost += exchange[key]
        moved = np.nonzero(parts != frames[step + 1])[0]
        migration += sum(sd_grid.dp_count(int(sd)) * BYTES_PER_DP
                         for sd in moved)
    if record.ghost_bytes != ghost:
        fails.append(f"ghost bytes {record.ghost_bytes} != {ghost} "
                     f"recomputed from the ownership per step")
    if record.migration_bytes != migration:
        fails.append(f"migration bytes {record.migration_bytes} != "
                     f"{migration} recomputed from the moved SDs")
    sent = sum(record.bytes_by_class.values())
    if sent != ghost + migration:
        fails.append(f"bytes sent {sent} != ghost {ghost} + migration "
                     f"{migration}")

    final = np.asarray(record.final_parts)
    if len(final) != sd_grid.num_subdomains:
        fails.append(f"{len(final)} owners for "
                     f"{sd_grid.num_subdomains} SDs")
    elif len(final) and (final.min() < 0 or final.max() >= nodes):
        fails.append(f"SD owners outside [0, {nodes})")
    return fails


def check_field(field: np.ndarray, reference: np.ndarray,
                tol: float = 1e-12) -> List[str]:
    """The distributed field matches the serial reference within ``tol``."""
    if field.shape != reference.shape:
        return [f"field shape {field.shape} != reference {reference.shape}"]
    err = float(np.max(np.abs(field - reference))) if field.size else 0.0
    if not err <= tol:
        return [f"field differs from the serial solve by {err!r} > {tol!r}"]
    return []


def check_service(record, summary: Dict[str, Any],
                  num_nodes: int, cores_per_node: int) -> List[str]:
    """Job conservation recounted from the event stream, and busy bound.

    Offered jobs split into shed plus admitted; admitted jobs are
    completed or still in flight.  Conservation holds by construction
    of the recount: each set is rebuilt from the raw events by job
    identity, checked to be a subset of the one it splits, and its size
    compared with the summary's count.
    """
    fails: List[str] = []
    arrived, shed, started, finished = set(), set(), set(), set()
    by_kind = {"arrival": arrived, "shed": shed, "start": started,
               "finish": finished}
    for event in record.service_events:
        by_kind[event["kind"]].add((event["tenant"], event["job"]))
    admitted = arrived - shed
    in_flight = admitted - finished
    if not shed <= arrived or not finished <= admitted \
            or not started <= admitted:
        fails.append("events for jobs that never arrived or were shed")
    counts = {"offered": len(arrived), "shed": len(shed),
              "admitted": len(admitted), "completed": len(finished),
              "in_flight": len(in_flight)}
    for key, value in counts.items():
        if summary[key] != value:
            fails.append(f"summary {key} {summary[key]} != {value} "
                         f"counted from the events")
    horizon = record.spec["horizon"]
    capacity = num_nodes * cores_per_node * horizon
    busy = sum(record.busy_total)
    if not busy <= capacity * (1 + _REL):
        fails.append(f"busy {busy!r} exceeds nodes x horizon {capacity!r}")
    return fails
