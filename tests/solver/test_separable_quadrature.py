"""The separable continuum quadrature of the manufactured source.

``ManufacturedProblem`` evaluates the continuum ball integral of the
rank-one field ``sin(2 pi x) sin(2 pi y)`` at the DPs only, from per-axis
windows of the fine factors.  The reference it must reproduce is the
previous evaluation, kept here verbatim: one FFT convolution over the
whole oversampled grid, sampled back at the DPs.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import convolve2d, oaconvolve

from repro.mesh.grid import UniformGrid
from repro.mesh.stencil import build_stencil
from repro.solver.exact import (ManufacturedProblem, _separable_ball_sum,
                                _spatial_factor)
from repro.solver.kernel import NonlocalOperator
from repro.solver.model import (NonlocalHeatModel, constant_influence,
                                gaussian_influence, linear_influence)

INFLUENCES = (constant_influence, linear_influence, gaussian_influence)


def _fine_grid_integral(model, grid, q):
    """The oversampled-grid quadrature as it was before the separable
    form: ``oaconvolve`` over all ``(q ny) x (q nx)`` fine cells."""
    fine_h = grid.h / q
    fine_stencil = build_stencil(fine_h, model.epsilon, model.influence,
                                 dim=model.dim)
    mask = fine_stencil.mask
    cell = fine_h if model.dim == 1 else fine_h * fine_h

    xf = (np.arange(grid.nx * q) + 0.5) * fine_h
    yf = (None if model.dim == 1
          else (np.arange(grid.ny * q) + 0.5) * fine_h)
    sf = _spatial_factor(xf, yf)

    conv = oaconvolve(sf, mask, mode="same")
    ball_weight = fine_stencil.weight_sum
    integral_fine = cell * (conv - ball_weight * sf)

    if q == 1:
        sampled = integral_fine
    else:
        idx = (np.arange(grid.nx) * q + (q - 1) // 2)
        if model.dim == 1:
            sampled = integral_fine[:, idx]
        else:
            idy = (np.arange(grid.ny) * q + (q - 1) // 2)
            sampled = integral_fine[np.ix_(idy, idx)]
    return model.c * sampled


class TestMatchesFineGridQuadrature:
    @settings(max_examples=120, deadline=None)
    @given(dim=st.sampled_from((1, 2)),
           nx=st.integers(2, 20),
           ny=st.integers(2, 20),
           influence=st.sampled_from(INFLUENCES),
           # horizons from one cell to beyond the whole mesh
           eps_cells=st.one_of(st.integers(1, 30), st.floats(1.0, 30.0)),
           oversample=st.integers(1, 6))
    def test_integral_matches_reference(self, dim, nx, ny, influence,
                                        eps_cells, oversample):
        grid = (UniformGrid(nx, dim=1) if dim == 1
                else UniformGrid(nx, ny))
        model = NonlocalHeatModel(epsilon=eps_cells * grid.h,
                                  influence=influence, dim=dim)
        prob = ManufacturedProblem(model, grid, oversample=oversample)
        # even factors are bumped to the next odd one at construction
        assert prob.oversample % 2 == 1
        ref = _fine_grid_integral(model, grid, prob.oversample)
        got = prob._integral_of_space
        assert got.shape == ref.shape == grid.shape
        scale = np.max(np.abs(ref))
        assert np.max(np.abs(got - ref)) <= 1e-12 * scale

    def test_rectangular_mesh_with_horizon_past_the_domain(self):
        grid = UniformGrid(6, 11)
        model = NonlocalHeatModel(epsilon=9 * grid.h,
                                  influence=gaussian_influence)
        prob = ManufacturedProblem(model, grid, oversample=3)
        ref = _fine_grid_integral(model, grid, 3)
        np.testing.assert_allclose(prob._integral_of_space, ref,
                                   rtol=0, atol=1e-12 * np.abs(ref).max())

    @pytest.mark.parametrize("dim", [1, 2])
    def test_matches_discrete_operator_at_unit_oversample(self, dim):
        """With ``oversample=1`` the quadrature is the discrete operator
        applied to the sampled field."""
        grid = UniformGrid(12, dim=1) if dim == 1 else UniformGrid(12, 12)
        model = NonlocalHeatModel(epsilon=3 * grid.h,
                                  influence=linear_influence, dim=dim)
        cont = ManufacturedProblem(model, grid, oversample=1)
        disc = ManufacturedProblem(model, grid, source_mode="discrete")
        np.testing.assert_allclose(
            cont._integral_of_space, disc._integral_of_space,
            rtol=0, atol=1e-12 * np.abs(disc._integral_of_space).max())


class TestSeparableBallSum:
    """The window algebra on general (asymmetric, rectangular) masks,
    where a missing flip or a shifted window shows."""

    @settings(max_examples=100, deadline=None)
    @given(nx=st.integers(1, 9), ny=st.integers(1, 9),
           q=st.sampled_from((1, 3, 5)),
           half_x=st.integers(0, 12), half_y=st.integers(0, 12),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_2d_matches_direct_convolution(self, nx, ny, q, half_x, half_y,
                                           seed):
        rng = np.random.default_rng(seed)
        fx = rng.standard_normal(nx * q)
        fy = rng.standard_normal(ny * q)
        mask = rng.random((2 * half_y + 1, 2 * half_x + 1))
        ball, s = _separable_ball_sum(fx, fy, mask, q)
        field = np.outer(fy, fx)
        idx = np.arange(nx) * q + (q - 1) // 2
        idy = np.arange(ny) * q + (q - 1) // 2
        ref = convolve2d(field, mask, mode="same")[np.ix_(idy, idx)]
        np.testing.assert_allclose(ball, ref, rtol=0,
                                   atol=1e-12 * np.abs(mask).sum())
        np.testing.assert_array_equal(s, field[np.ix_(idy, idx)])

    @settings(max_examples=60, deadline=None)
    @given(nx=st.integers(1, 15), q=st.sampled_from((1, 3, 5)),
           half=st.integers(0, 20), seed=st.integers(0, 2 ** 32 - 1))
    def test_1d_matches_direct_convolution(self, nx, q, half, seed):
        rng = np.random.default_rng(seed)
        fx = rng.standard_normal(nx * q)
        mask = rng.random((1, 2 * half + 1))
        ball, s = _separable_ball_sum(fx, None, mask, q)
        idx = np.arange(nx) * q + (q - 1) // 2
        ref = convolve2d(fx[None, :], mask, mode="same")[:, idx]
        assert ball.shape == s.shape == (1, nx)
        np.testing.assert_allclose(ball, ref, rtol=0,
                                   atol=1e-12 * np.abs(mask).sum())
        np.testing.assert_array_equal(s, fx[None, idx])


class TestSetupMemory:
    def test_traced_peak_is_a_few_fields(self):
        """No oversampled grid: a 256^2 mesh with R = 8 (a 2560^2 fine
        grid before) peaks at a few mesh-sized arrays."""
        grid = UniformGrid(256, 256)
        model = NonlocalHeatModel(epsilon=8 * grid.h)
        tracemalloc.start()
        try:
            ManufacturedProblem(model, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20


class TestConstructionChecks:
    @pytest.mark.parametrize("model_dim, grid", [
        (1, UniformGrid(8, 8)),
        (2, UniformGrid(8, dim=1)),
    ])
    @pytest.mark.parametrize("mode", ["continuum", "discrete"])
    def test_problem_rejects_dimension_mismatch(self, model_dim, grid, mode):
        model = NonlocalHeatModel(epsilon=2 * grid.h, dim=model_dim)
        with pytest.raises(ValueError, match=r"model is \d-D but grid is \d-D"):
            ManufacturedProblem(model, grid, source_mode=mode)

    @pytest.mark.parametrize("model_dim, grid", [
        (1, UniformGrid(8, 8)),
        (2, UniformGrid(8, dim=1)),
    ])
    def test_operator_rejects_dimension_mismatch(self, model_dim, grid):
        model = NonlocalHeatModel(epsilon=2 * grid.h, dim=model_dim)
        with pytest.raises(ValueError, match=r"model is \d-D but grid is \d-D"):
            NonlocalOperator(model, grid)

    @pytest.mark.parametrize("oversample", [2.5, 3.0, True, False, "3", 0, -1])
    def test_oversample_must_be_a_positive_int(self, oversample):
        grid = UniformGrid(8, 8)
        model = NonlocalHeatModel(epsilon=2 * grid.h)
        with pytest.raises(ValueError, match="oversample must be an int"):
            ManufacturedProblem(model, grid, oversample=oversample)

    def test_numpy_integer_oversample_is_accepted(self):
        grid = UniformGrid(8, 8)
        model = NonlocalHeatModel(epsilon=2 * grid.h)
        a = ManufacturedProblem(model, grid, oversample=np.int64(3))
        b = ManufacturedProblem(model, grid, oversample=3)
        assert a.oversample == 3 and type(a.oversample) is int
        np.testing.assert_array_equal(a._integral_of_space,
                                      b._integral_of_space)
