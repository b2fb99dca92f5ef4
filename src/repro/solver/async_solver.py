"""Shared-memory futurized solver (paper Sec. 8.2).

The mesh is divided into SDs that are updated by asynchronous tasks on a
thread pool (:class:`repro.amt.executor.TaskExecutor`) sharing the global
temperature arrays — the paper's "multi-threaded version using
asynchronous execution, e.g. futurization".  Each timestep copies the
previous-step array once into a zero-bordered field
(:func:`repro.solver.kernel.pad_field`, the ``Dc`` condition) and
submits one task per SD; a task's ghost-padded block is a slice of that
field (all local in shared memory), and it writes its block of the
next-step array, so tasks within a step are data-race free by
construction.

NumPy's convolution releases the GIL for the bulk of each task, so this
runtime exhibits genuine parallelism; the *deterministic* scaling studies
for Figs. 9–10 nevertheless run on the simulated single node (see
``benchmarks/``) to keep the plotted shapes machine-independent.
"""

from __future__ import annotations

from typing import Callable, List, Optional

import numpy as np

from ..amt.executor import TaskExecutor
from ..amt.future import when_all
from ..mesh.grid import UniformGrid
from ..mesh.subdomain import SubdomainGrid
from .kernel import (NonlocalOperator, check_operator_matches, pad_field,
                     stable_dt)
from .model import NonlocalHeatModel
from .serial import SolveResult
from .exact import step_error

__all__ = ["AsyncSolver"]


class AsyncSolver:
    """Futurized SD-parallel forward-Euler integrator.

    Parameters
    ----------
    model, grid:
        Problem definition and discretization.
    sd_grid:
        SD decomposition of the mesh (the unit of tasking).
    num_threads:
        Worker threads ("CPUs" in the paper's Figs. 9–10).
    source, dt:
        As in :class:`repro.solver.serial.SerialSolver`.
    operator, backend:
        Optional prebuilt :class:`NonlocalOperator`, or the kernel
        backend name to build one with (see
        :mod:`repro.solver.backends`).
    """

    def __init__(self, model: NonlocalHeatModel, grid: UniformGrid,
                 sd_grid: SubdomainGrid, num_threads: int = 1,
                 source: Optional[Callable[[float], np.ndarray]] = None,
                 dt: Optional[float] = None,
                 operator: Optional[NonlocalOperator] = None,
                 backend: str = "auto") -> None:
        if (sd_grid.mesh_nx, sd_grid.mesh_ny) != (grid.nx, grid.ny):
            raise ValueError(
                f"SD grid covers {sd_grid.mesh_nx}x{sd_grid.mesh_ny} "
                f"but mesh is {grid.nx}x{grid.ny}")
        self.model = model
        self.grid = grid
        self.sd_grid = sd_grid
        if operator is None:
            operator = NonlocalOperator(model, grid, backend=backend)
        else:
            check_operator_matches(operator, model, grid)
        self.operator = operator
        self.source = source
        self.dt = (stable_dt(model, grid, stencil=operator.stencil)
                   if dt is None else float(dt))
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        self.num_threads = num_threads

    def _sd_task(self, sd: int, field: np.ndarray, u_old: np.ndarray,
                 u_new: np.ndarray, b: Optional[np.ndarray]) -> None:
        """Update one SD block: read its padded block from ``field`` (the
        zero-bordered ``u_old``), write ``u_new``."""
        R = self.operator.radius
        rect = self.sd_grid.rect(sd)
        padded = field[rect.y0:rect.y1 + 2 * R, rect.x0:rect.x1 + 2 * R]
        rhs = self.operator.apply_block(padded)
        if b is not None:
            rhs = rhs + b[rect.slices()]
        u_new[rect.slices()] = u_old[rect.slices()] + self.dt * rhs

    def run(self, u0: np.ndarray, num_steps: int,
            exact: Optional[Callable[[float], np.ndarray]] = None) -> SolveResult:
        """Integrate ``num_steps`` steps; same contract as the serial solver."""
        if num_steps < 0:
            raise ValueError(f"num_steps must be >= 0, got {num_steps}")
        u_old = np.array(u0, dtype=np.float64, copy=True)
        if u_old.shape != self.grid.shape:
            raise ValueError(f"u0 shape {u_old.shape} != grid {self.grid.shape}")
        u_new = np.empty_like(u_old)
        times = [0.0]
        errors: Optional[List[float]] = None
        if exact is not None:
            errors = [step_error(self.grid, u_old, exact(0.0))]
        t = 0.0
        sds = list(range(self.sd_grid.num_subdomains))
        with TaskExecutor(self.num_threads, name="async-solver") as ex:
            for _ in range(num_steps):
                b = None if self.source is None else self.source(t)
                field = pad_field(u_old, self.operator.radius)
                futs = [ex.async_(self._sd_task, sd, field, u_old, u_new, b)
                        for sd in sds]
                for f in when_all(futs).get():
                    f.get()  # surface any task exception
                u_old, u_new = u_new, u_old
                t += self.dt
                times.append(t)
                if exact is not None:
                    errors.append(step_error(self.grid, u_old, exact(t)))
        return SolveResult(u_old.copy(), times, errors)
