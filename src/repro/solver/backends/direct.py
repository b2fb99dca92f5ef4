"""Dense-convolution backend: the seed implementation, unchanged.

``scipy.signal.oaconvolve`` (overlap-add, with scipy choosing direct vs
FFT per call) applied to the raw field.  Stateless — no per-shape plans
or matrices — which makes it the safe default for tiny stencils and the
numerics baseline the other backends are validated against.
"""

from __future__ import annotations

import numpy as np
from scipy.signal import oaconvolve

from .base import ConvolutionKernelBackend
from .registry import register_backend

__all__ = ["DirectBackend"]


@register_backend("direct")
class DirectBackend(ConvolutionKernelBackend):
    """Per-call dense convolution via ``oaconvolve``."""

    def _convolve_same(self, u: np.ndarray) -> np.ndarray:
        return oaconvolve(u, self.stencil.mask, mode="same")

    def _convolve_valid(self, padded: np.ndarray) -> np.ndarray:
        # a stack convolves every block with the mask over the last two
        # axes; scipy picks its block sizes from those axes alone, so
        # each block's result equals its single-block convolution
        mask = self.stencil.mask.reshape(
            (1,) * (padded.ndim - 2) + self.stencil.mask.shape)
        return oaconvolve(padded, mask, mode="valid", axes=(-2, -1))
