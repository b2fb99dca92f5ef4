"""Manufactured exact solution and error norms (paper Sec. 3.2).

The paper validates the solver against

    w(t, x) = cos(2 pi t) sin(2 pi x1) sin(2 pi x2)    on D, 0 outside,

with the heat source ``b`` chosen (eq. 6) so ``u = w`` solves eq. (1)
exactly.  This module provides:

* :class:`ManufacturedProblem` — bundles ``u0``, ``b(t)``, and the exact
  field ``w(t)`` on a grid.  Two source modes:

  - ``"discrete"``: ``b = dw/dt - L_h w`` with the *discrete* operator;
    the numerical solution then matches ``w`` up to time-integration
    error only (used to isolate time error in tests).
  - ``"continuum"``: ``b = dw/dt - c ∫ J (w(y)-w(x)) dy`` with the
    continuum ball integral evaluated by midpoint quadrature on a grid
    ``oversample`` times finer than the mesh, so the ball and its
    truncation at the boundary (``w = 0`` on ``Dc``) are resolved well
    below the discretization error.  This is the paper's setting; the
    numerical error then shows the spatial-discretization convergence
    of Fig. 8.  The spatial factor is rank one, so the quadrature is
    evaluated only at the DPs, one axis at a time, without forming the
    fine grid (DESIGN.md "Separable continuum quadrature").

* :func:`interior_multiplier` — the closed-form Fourier-multiplier value
  of the ball integral for interior points (Bessel ``J1`` in 2-D), used
  to cross-validate the quadrature.

* :func:`step_error` / :func:`total_error` — eq. (7).
"""

from __future__ import annotations

import math
import numbers
from typing import Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import j1

from ..mesh.grid import UniformGrid
from ..mesh.stencil import build_stencil
from .kernel import NonlocalOperator
from .model import NonlocalHeatModel

__all__ = ["ManufacturedProblem", "interior_multiplier", "step_error",
           "total_error"]


def _spatial_factor(x: np.ndarray, y: Optional[np.ndarray]) -> np.ndarray:
    """``sin(2 pi x)`` as a ``(1, nx)`` row when ``y`` is ``None``, else
    the ``(ny, nx)`` field ``sin(2 pi x) sin(2 pi y)``.

    The 2-D field is the outer product of the two 1-D factors: the same
    products of the same sines a meshgrid would form elementwise, so the
    array is bit-identical at ``nx + ny`` sine calls instead of
    ``2 nx ny``.
    """
    sx = np.sin(2 * np.pi * x)
    if y is None:
        return sx[None, :]
    return np.sin(2 * np.pi * y)[:, None] * sx[None, :]


def _dp_windows(fine: np.ndarray, q: int,
                half: int) -> Tuple[np.ndarray, np.ndarray]:
    """Windows of a zero-extended fine 1-D factor centred on the DPs.

    ``fine`` samples a factor at the ``n * q`` fine cell centres of one
    axis; DP ``i`` sits exactly on fine cell ``i * q + (q - 1) // 2``
    (``q`` odd).  Returns the ``(n, 2 * half + 1)`` matrix whose row
    ``i`` holds the fine values from ``half`` cells below that DP to
    ``half`` cells above it, zero outside the domain, and the factor's
    values at the DPs.
    """
    padded = np.zeros(fine.size + 2 * half)
    padded[half:half + fine.size] = fine
    idx = np.arange(fine.size // q) * q + (q - 1) // 2
    return sliding_window_view(padded, 2 * half + 1)[idx], fine[idx]


def _separable_ball_sum(fine_x: np.ndarray, fine_y: Optional[np.ndarray],
                        mask: np.ndarray,
                        q: int) -> Tuple[np.ndarray, np.ndarray]:
    """The ``'same'`` convolution of ``fine_y ⊗ fine_x`` with ``mask``,
    at the DPs only, plus the field itself at the DPs.

    The field is rank one and zero outside the domain, so the
    convolution at DP ``(i, j)`` is ``Y[i] @ mask[::-1, ::-1] @ X[j]``
    with ``Y``/``X`` the DP windows of each factor.  ``fine_y=None`` is
    the 1-D case: a single-row mask and a row result.  Works for any
    mask with odd sides.
    """
    wx, sx = _dp_windows(fine_x, q, mask.shape[1] // 2)
    if fine_y is None:
        wy, sy = np.ones((1, 1)), np.ones(1)
    else:
        wy, sy = _dp_windows(fine_y, q, mask.shape[0] // 2)
    return wy @ mask[::-1, ::-1] @ wx.T, sy[:, None] * sx[None, :]


def interior_multiplier(model: NonlocalHeatModel) -> float:
    """Closed-form ``∫_{B_eps} J(w(y)-w(x)) dy = m * w(x)`` for interior x.

    Only available for the constant influence function, where the ball
    integral of the plane-wave components of ``sin sin`` reduces to a
    Fourier multiplier: in 2-D with wavenumber ``kappa = 2 sqrt(2) pi``,

        m = 2 pi eps^2 J1(kappa eps) / (kappa eps)  -  pi eps^2,

    and in 1-D with ``kappa = 2 pi``: ``m = 2 sin(kappa eps)/kappa - 2 eps``.
    """
    if model.influence.name != "constant":
        raise ValueError("closed form requires the constant influence function")
    eps = model.epsilon
    if model.dim == 2:
        kappa = 2.0 * math.sqrt(2.0) * math.pi
        ball = 2.0 * math.pi * eps ** 2 * j1(kappa * eps) / (kappa * eps)
        return float(ball - math.pi * eps ** 2)
    kappa = 2.0 * math.pi
    return float(2.0 * math.sin(kappa * eps) / kappa - 2.0 * eps)


class ManufacturedProblem:
    """Exact solution, initial condition, and source on a specific grid.

    Parameters
    ----------
    model, grid:
        The continuum model and its discretization.
    source_mode:
        ``"discrete"`` or ``"continuum"`` (see module docstring).
    oversample:
        Quadrature refinement factor for the continuum source (the fine
        grid has spacing ``h / oversample``; even factors are rounded up
        to the next odd one); quadrature error is ``O((h/oversample)^2)``,
        subdominant to the ``O(h^2)`` discretization error being
        measured.  Must be an ``int``.
    """

    def __init__(self, model: NonlocalHeatModel, grid: UniformGrid,
                 source_mode: str = "continuum", oversample: int = 5) -> None:
        if source_mode not in ("discrete", "continuum"):
            raise ValueError(f"unknown source mode {source_mode!r}")
        if (isinstance(oversample, bool)
                or not isinstance(oversample, numbers.Integral)
                or oversample < 1):
            raise ValueError(
                f"oversample must be an int >= 1, got {oversample!r}")
        if model.dim != grid.dim:
            raise ValueError(
                f"model is {model.dim}-D but grid is {grid.dim}-D")
        if oversample % 2 == 0:
            # odd factors put a fine cell centre exactly on every DP
            # (even factors would introduce an O(h/q) sampling offset)
            oversample += 1
        self.model = model
        self.grid = grid
        self.source_mode = source_mode
        self.oversample = int(oversample)
        self._space = _spatial_factor(
            grid.x_coords(), None if grid.dim == 1 else grid.y_coords())
        if source_mode == "discrete":
            self._op = NonlocalOperator(model, grid)
            self._integral_of_space = self._op.apply(self._space)
        else:
            self._integral_of_space = self._continuum_integral_of_space()

    # -- exact fields ------------------------------------------------------
    def exact(self, t: float) -> np.ndarray:
        """``w(t)`` sampled at the DPs."""
        return math.cos(2 * math.pi * t) * self._space

    def exact_dt(self, t: float) -> np.ndarray:
        """``∂w/∂t (t)`` sampled at the DPs."""
        return -2 * math.pi * math.sin(2 * math.pi * t) * self._space

    def initial_condition(self) -> np.ndarray:
        """``u0 = w(0) = sin sin``."""
        return self._space.copy()

    def source(self, t: float) -> np.ndarray:
        """The manufactured heat source ``b(t)`` of eq. (6)."""
        # both modes: b = dw/dt - (nonlocal integral term applied to w(t));
        # time enters only through the cos/sin prefactors.
        return self.exact_dt(t) - math.cos(2 * math.pi * t) * self._integral_of_space

    # -- continuum quadrature ---------------------------------------------------
    def _continuum_integral_of_space(self) -> np.ndarray:
        """``c ∫_{B_eps(x)} J (s(y) - s(x)) dy`` at every DP, by quadrature.

        Midpoint quadrature over the cells of a grid ``oversample`` (odd)
        times finer than the mesh, so every DP is a fine cell centre:
        ``c V_f (Σ_k m_k s(x + k h_f) - S s(x))`` with the fine ball mask
        ``m`` (``S = Σ m``), and ``s = 0`` outside ``D``.  ``s`` is the
        product of one sine per axis, so the sum is taken directly at
        the DPs from per-axis windows (:func:`_separable_ball_sum`):
        ``O(N M)`` work and ``O(N)`` memory for ``N`` DPs and a fine
        radius of ``M`` cells.
        """
        q = self.oversample
        grid = self.grid
        fine_h = grid.h / q
        model = self.model
        fine_stencil = build_stencil(fine_h, model.epsilon, model.influence,
                                     dim=model.dim)
        cell = fine_h if model.dim == 1 else fine_h * fine_h

        def fine_factor(n: int) -> np.ndarray:
            return np.sin(2 * np.pi * ((np.arange(n * q) + 0.5) * fine_h))

        ball, s = _separable_ball_sum(
            fine_factor(grid.nx),
            None if model.dim == 1 else fine_factor(grid.ny),
            fine_stencil.mask, q)
        return model.c * (cell * (ball - fine_stencil.weight_sum * s))


def step_error(grid: UniformGrid, numeric: np.ndarray,
               exact: np.ndarray) -> float:
    """``e_k = h^d sum_i |u_exact - u_num|^2`` — eq. (7) at one step."""
    if numeric.shape != exact.shape:
        raise ValueError(f"shape mismatch {numeric.shape} vs {exact.shape}")
    hd = grid.h if grid.dim == 1 else grid.h ** 2
    diff = numeric - exact
    return float(hd * np.sum(diff * diff))


def total_error(errors) -> float:
    """``e = sum_k e_k`` — the quantity plotted in the paper's Fig. 8."""
    return float(np.sum(np.asarray(list(errors), dtype=np.float64)))
