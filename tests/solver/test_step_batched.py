"""Step-batched SD numerics: the distributed solver's barrier update.

The SD tasks of a step carry virtual work only; the numeric update of
every active SD runs at the step barrier as a few stacked kernel
applies over windows of one zero-bordered copy of the field.  These
tests pin that update bit for bit against the per-SD reference (one
zero-padded block per SD, assembled from its clipped halo and applied
alone), the stacked kernel applies against per-block ones, and the
failure contract of a kernel that raises mid-run.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.amt.faults import ChurnEvent, FaultSchedule
from repro.core.policy import IntervalPolicy
from repro.mesh.domain import DomainMask
from repro.mesh.grid import UniformGrid
from repro.mesh.subdomain import SubdomainGrid
from repro.partition.geometric import block_partition
from repro.solver import distributed
from repro.solver.async_solver import AsyncSolver
from repro.solver.backends import FFTBackend
from repro.solver.distributed import DistributedSolver
from repro.solver.kernel import NonlocalOperator
from repro.solver.model import NonlocalHeatModel

BACKENDS = ("direct", "fft", "sparse")


def per_sd_reference(solver, u0, steps):
    """The SD-by-SD forward-Euler update the batched barrier replaces.

    Each active SD assembles its own zero-padded block from the clipped
    halo rectangle of ``u_old``, applies the operator to it alone, and
    writes ``u_old + dt * (L(u) + b)`` to its rectangle of ``u_new``.
    """
    op, sg = solver.operator, solver.sd_grid
    R = op.radius
    u_old = np.array(u0, dtype=np.float64, copy=True)
    sds = range(sg.num_subdomains)
    mask = getattr(solver, "domain_mask", None)
    if mask is not None:
        u_old[~mask.dp_mask()] = 0.0
        sds = np.nonzero(mask.active)[0].tolist()
    u_new = np.zeros_like(u_old)
    for step in range(steps):
        b = None if solver.source is None else solver.source(step * solver.dt)
        for sd in sds:
            rect = sg.rect(sd)
            halo = sg.halo_rect(sd, R)
            padded = np.zeros((rect.height + 2 * R, rect.width + 2 * R))
            dy0 = halo.y0 - (rect.y0 - R)
            dx0 = halo.x0 - (rect.x0 - R)
            padded[dy0:dy0 + halo.height,
                   dx0:dx0 + halo.width] = u_old[halo.slices()]
            rhs = op.apply_block(padded)
            if b is not None:
                rhs = rhs + b[rect.slices()]
            u_new[rect.slices()] = u_old[rect.slices()] + solver.dt * rhs
        u_old, u_new = u_new, u_old
    return u_old


def make_problem(dim, nx, ny, sd_nx, sd_ny, eps_factor, seed):
    """Grid, model, SD grid, a random initial field and a random source."""
    grid = UniformGrid(nx, ny, dim=dim)
    model = NonlocalHeatModel(epsilon=eps_factor * grid.h, dim=dim)
    sg = SubdomainGrid(nx, ny, sd_nx, sd_ny)
    rng = np.random.default_rng(seed)
    u0 = rng.standard_normal(grid.shape)
    forcing = rng.standard_normal(grid.shape)

    def source(t):
        return forcing * (1.0 + t)
    return grid, model, sg, u0, source


def churn_schedule(make_solver, nodes):
    """Node 0 fails mid-way through step 1 and a node joins in step 2,
    at times read off the same configuration's schedule-only run."""
    step = make_solver(None, numerics=False).run(None, 2).step_durations[0]
    return FaultSchedule(nodes, (ChurnEvent("fail", 1.5 * step, 0),
                                 ChurnEvent("join", 2.5 * step, nodes)))


class TestBarrierUpdateMatchesPerSD:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_random_configurations(self, data):
        dim = data.draw(st.sampled_from([1, 2]), label="dim")
        nx = data.draw(st.integers(5, 19), label="nx")
        ny = 1 if dim == 1 else data.draw(st.integers(5, 19), label="ny")
        sd_nx = data.draw(st.integers(1, min(5, nx)), label="sd_nx")
        sd_ny = 1 if dim == 1 else data.draw(st.integers(1, min(5, ny)),
                                             label="sd_ny")
        # up to R = 6, wider than most SD edges drawn here
        eps_factor = data.draw(st.integers(1, 6), label="eps_factor")
        backend = data.draw(st.sampled_from(BACKENDS), label="backend")
        overlap = data.draw(st.booleans(), label="overlap")
        with_source = data.draw(st.booleans(), label="source")
        seed = data.draw(st.integers(0, 2 ** 16), label="seed")
        grid, model, sg, u0, source = make_problem(
            dim, nx, ny, sd_nx, sd_ny, eps_factor, seed)
        n_sds = sg.num_subdomains
        mask = None
        if data.draw(st.booleans(), label="masked"):
            active = np.array(data.draw(
                st.lists(st.booleans(), min_size=n_sds, max_size=n_sds),
                label="active"))
            active[data.draw(st.integers(0, n_sds - 1))] = True
            mask = DomainMask(sg, active)
        nodes = data.draw(st.integers(1, min(4, n_sds)), label="nodes")
        parts = np.array(data.draw(
            st.lists(st.integers(0, nodes - 1), min_size=n_sds,
                     max_size=n_sds), label="parts"))
        churn = nodes >= 2 and data.draw(st.booleans(), label="churn")

        def make_solver(faults, numerics=True):
            return DistributedSolver(
                model, grid, sg, parts, num_nodes=nodes,
                source=source if with_source else None,
                backend=backend, overlap=overlap, domain_mask=mask,
                compute_numerics=numerics, faults=faults,
                balancer="tree" if faults is not None else None,
                policy=IntervalPolicy(1) if faults is not None else None)

        faults = churn_schedule(make_solver, nodes) if churn else None
        solver = make_solver(faults)
        res = solver.run(u0, 4)
        assert np.array_equal(res.u, per_sd_reference(solver, u0, 4))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_churn_requeues_orphans_and_keeps_the_field(self, backend):
        """A failure with tasks in flight (requeued on the new owners)
        and a join: the field still equals the per-SD reference."""
        grid, model, sg, u0, source = make_problem(2, 30, 26, 4, 3, 3, 7)

        def make_solver(faults, numerics=True):
            return DistributedSolver(
                model, grid, sg, block_partition(4, 3, 3), num_nodes=3,
                source=source, backend=backend, compute_numerics=numerics,
                faults=faults, balancer="tree", policy=IntervalPolicy(1))

        solver = make_solver(churn_schedule(make_solver, 3))
        res = solver.run(u0, 5)
        kinds = [e.kind for e in res.recovery_events]
        assert kinds == ["fail", "join"]
        assert res.recovery_events[0].tasks_requeued > 0
        assert np.array_equal(res.u, per_sd_reference(solver, u0, 5))

    def test_drift_shaped_run_is_one_apply_per_step(self):
        """Uniform SDs whose padded blocks fit the stack cap make one
        kernel call per step."""
        grid, model, sg, u0, source = make_problem(2, 64, 64, 8, 8, 4, 3)
        solver = DistributedSolver(model, grid, sg, block_partition(8, 8, 4),
                                   num_nodes=4, source=source)
        calls = []
        apply_block = solver.operator.apply_block

        def counting(padded, radius=None):
            calls.append(padded.shape)
            return apply_block(padded, radius)
        solver.operator.apply_block = counting
        res = solver.run(u0, 3)
        R = solver.operator.radius
        assert calls == [(64, 8 + 2 * R, 8 + 2 * R)] * 3
        solver.operator.apply_block = apply_block
        assert np.array_equal(res.u, per_sd_reference(solver, u0, 3))

    def test_capped_stacks_split_into_chunks(self, monkeypatch):
        """Blocks beyond the per-call DP cap go to further calls; the
        field is unchanged by the split."""
        grid, model, sg, u0, source = make_problem(2, 30, 27, 4, 4, 3, 9)
        R = 3
        # SDs are 6-7 x 7-8 DPs: the cap fits three padded blocks of
        # every shape per call
        monkeypatch.setattr(distributed, "_MAX_STACK_DPS",
                            3 * (8 + 2 * R) ** 2)
        solver = DistributedSolver(model, grid, sg, block_partition(4, 4, 2),
                                   num_nodes=2, source=source)
        calls = []
        apply_block = solver.operator.apply_block

        def counting(padded, radius=None):
            calls.append(len(padded))
            return apply_block(padded, radius)
        solver.operator.apply_block = counting
        res = solver.run(u0, 2)
        assert max(calls) == 3 and sum(calls) == 2 * 16
        solver.operator.apply_block = apply_block
        assert np.array_equal(res.u, per_sd_reference(solver, u0, 2))


class TestAsyncSolverBlocks:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_padded_slices_match_per_sd_blocks(self, backend):
        """The async solver's tasks slice their padded blocks out of the
        step's zero-bordered field; the result equals the per-SD
        assembly bit for bit (uneven cuts, R wider than an SD)."""
        grid, model, sg, u0, source = make_problem(2, 23, 19, 5, 4, 6, 4)
        solver = AsyncSolver(model, grid, sg, num_threads=2, source=source,
                             backend=backend)
        res = solver.run(u0, 3)
        assert np.array_equal(res.u, per_sd_reference(solver, u0, 3))


class TestKernelFailureAtTheBarrier:
    def test_failure_on_the_second_step_leaves_the_first_steps_field(self):
        grid, model, sg, u0, source = make_problem(2, 24, 24, 4, 4, 3, 1)

        def make_solver():
            return DistributedSolver(model, grid, sg,
                                     block_partition(4, 4, 2), num_nodes=2,
                                     source=source)
        solver = make_solver()
        apply_block = solver.operator.apply_block

        def flaky(padded, radius=None):
            if solver._current_step == 1:
                raise FloatingPointError("kernel blew up")
            return apply_block(padded, radius)
        solver.operator.apply_block = flaky
        with pytest.raises(RuntimeError, match="SD kernel failed") as info:
            solver.run(u0, 3)
        assert isinstance(info.value.__cause__, FloatingPointError)
        # the failed step never swapped the fields: u_old is step 1's
        one_step = make_solver().run(u0, 1).u
        assert np.array_equal(solver._u_old, one_step)


class TestStackedApply:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("dim,shape,eps_factor", [
        (2, (20, 27), 3), (2, (9, 9), 4), (2, (40, 40), 8), (1, (1, 30), 5)])
    def test_stack_equals_per_block_loop(self, backend, dim, shape,
                                         eps_factor):
        nx = shape[1]
        grid = UniformGrid(nx, shape[0], dim=dim)
        model = NonlocalHeatModel(epsilon=eps_factor * grid.h, dim=dim)
        op = NonlocalOperator(model, grid, backend=backend)
        R = op.radius
        rng = np.random.default_rng(5)
        stack = rng.standard_normal((7, shape[0] + 2 * R, nx + 2 * R))
        got = op.apply_block(stack)
        want = np.stack([op.apply_block(block) for block in stack])
        assert got.shape == (7,) + shape
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("shape,eps_factor", [
        ((32, 32), 8), ((17, 40), 4), ((12, 12), 2)])
    def test_fft_valid_window_equals_cropped_full_transform(
            self, shape, eps_factor):
        """The row-trimmed valid convolution is the cropped 2-D
        transform pair's result bit for bit."""
        grid = UniformGrid(shape[1], shape[0])
        model = NonlocalHeatModel(epsilon=eps_factor * grid.h)
        backend = NonlocalOperator(model, grid, backend="fft").backend
        assert isinstance(backend, FFTBackend)
        mh, mw = backend.stencil.mask.shape
        stack = np.random.default_rng(2).standard_normal((5,) + shape)
        full = backend._convolve_full(stack)
        want = full[..., mh - 1:shape[0], mw - 1:shape[1]]
        assert np.array_equal(backend._convolve_valid(stack), want)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_too_small_stack_rejected(self, backend):
        grid = UniformGrid(16, 16)
        op = NonlocalOperator(NonlocalHeatModel(epsilon=3 * grid.h), grid,
                              backend=backend)
        R = op.radius
        with pytest.raises(ValueError, match="too small"):
            op.apply_block(np.zeros((40, 2 * R, 2 * R + 5)))
        with pytest.raises(ValueError, match="too small"):
            op.apply_block(np.zeros((40, 2 * R + 5, 2 * R)))
        with pytest.raises(ValueError, match="stack"):
            op.apply_block(np.zeros((2, 3, 2 * R + 4, 2 * R + 4)))
