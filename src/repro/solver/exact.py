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
    continuum integral evaluated by oversampled midpoint quadrature on a
    refined grid (handles the boundary truncation of the ball exactly as
    the continuum does).  This is the paper's setting; the numerical
    error then shows the spatial-discretization convergence of Fig. 8.

* :func:`interior_multiplier` — the closed-form Fourier-multiplier value
  of the ball integral for interior points (Bessel ``J1`` in 2-D), used
  to cross-validate the quadrature.

* :func:`step_error` / :func:`total_error` — eq. (7).
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np
from scipy.signal import oaconvolve
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
        grid has spacing ``h / oversample``); quadrature error is
        ``O((h/oversample)^2)``, subdominant to the ``O(h^2)``
        discretization error being measured.
    """

    def __init__(self, model: NonlocalHeatModel, grid: UniformGrid,
                 source_mode: str = "continuum", oversample: int = 5) -> None:
        if source_mode not in ("discrete", "continuum"):
            raise ValueError(f"unknown source mode {source_mode!r}")
        if oversample < 1:
            raise ValueError(f"oversample must be >= 1, got {oversample}")
        if oversample % 2 == 0:
            # odd factors align fine cell centers exactly with coarse DPs
            # (even factors would introduce an O(h/q) sampling offset)
            oversample += 1
        self.model = model
        self.grid = grid
        self.source_mode = source_mode
        self.oversample = oversample
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

        Evaluated on an ``oversample``-refined grid so the ball and the
        boundary truncation (``w = 0`` on ``Dc``) are resolved well below
        the coarse-grid discretization error.  The result is sampled back
        at the coarse DPs (every ``oversample``-th fine cell center is
        exactly a coarse DP when ``oversample`` is odd-centered; we use
        the fine cell whose center is nearest, which for integer factors
        aligns exactly at offset ``(oversample-1)//2`` for odd factors —
        to keep alignment exact for any factor we evaluate the fine field
        at fine cell centers and take the fine cell containing each
        coarse DP center, then correct by evaluating ``s`` exactly at the
        coarse DP for the local term).
        """
        q = self.oversample
        grid = self.grid
        fine_h = grid.h / q
        model = self.model
        # fine stencil of the ball with J weights
        fine_stencil = build_stencil(fine_h, model.epsilon, model.influence,
                                     dim=model.dim)
        mask = fine_stencil.mask
        cell = fine_h if model.dim == 1 else fine_h * fine_h

        xf = (np.arange(grid.nx * q) + 0.5) * fine_h
        yf = (None if model.dim == 1
              else (np.arange(grid.ny * q) + 0.5) * fine_h)
        sf = _spatial_factor(xf, yf)

        # zero-extension outside D is native to 'same' convolution
        conv = oaconvolve(sf, mask, mode="same")
        ball_weight = fine_stencil.weight_sum  # counts only in-ball cells
        integral_fine = cell * (conv - ball_weight * sf)

        # sample the fine field at (the fine cells containing) coarse DPs
        if q == 1:
            sampled = integral_fine
        else:
            # coarse DP center (i+0.5)h lies in fine cell i*q + q//2 for
            # even q (center between cells -> take lower) and exactly at
            # the center of fine cell i*q + (q-1)//2 for odd q.
            idx = (np.arange(grid.nx) * q + (q - 1) // 2)
            if model.dim == 1:
                sampled = integral_fine[:, idx]
            else:
                idy = (np.arange(grid.ny) * q + (q - 1) // 2)
                sampled = integral_fine[np.ix_(idy, idx)]
        return model.c * sampled


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
