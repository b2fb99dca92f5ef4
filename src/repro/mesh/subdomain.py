"""Sub-domain (SD) bookkeeping: the paper's unit of work and exchange.

The paper (Sec. 6.1) coarsens the DP mesh into square sub-domains: the
computation of one SD is the unit of work, and SDs are the unit of load
balancing and of ghost exchange.  :class:`SubdomainGrid` maps between SD
ids and DP index rectangles, and answers the geometric queries the
decomposition and the balancer need (neighbors, halos, border strips).

SD ids follow the dual-graph convention of :mod:`repro.partition.graph`:
``sd = iy * sd_nx + ix``, so a partition array from
:func:`repro.partition.kway.partition_sd_grid` indexes directly.

Besides the per-SD :class:`Rect` queries, the grid answers the same
geometry as whole-mesh arrays (:meth:`SubdomainGrid.halo_pairs`,
:meth:`SubdomainGrid.window_segments`, :meth:`SubdomainGrid.block_groups`,
:attr:`SubdomainGrid.centers`), computed in closed form from the cut
positions and cached: they depend on the SD layout and the stencil
radius only, never on ownership, so the solver's plan compile, its
step-barrier numerics and the balancer's transfer selection reduce to
NumPy passes over them.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

__all__ = ["Rect", "SubdomainGrid"]


class Rect:
    """A half-open DP index rectangle ``[y0, y1) × [x0, x1)``."""

    __slots__ = ("y0", "y1", "x0", "x1")

    def __init__(self, y0: int, y1: int, x0: int, x1: int) -> None:
        self.y0, self.y1, self.x0, self.x1 = int(y0), int(y1), int(x0), int(x1)

    @property
    def height(self) -> int:
        return self.y1 - self.y0

    @property
    def width(self) -> int:
        return self.x1 - self.x0

    @property
    def area(self) -> int:
        """Number of DPs covered (0 if degenerate)."""
        return max(0, self.height) * max(0, self.width)

    def slices(self) -> Tuple[slice, slice]:
        """``(row_slice, col_slice)`` for NumPy indexing."""
        return (slice(self.y0, self.y1), slice(self.x0, self.x1))

    def intersect(self, other: "Rect") -> "Rect":
        """Intersection rectangle (possibly empty)."""
        return Rect(max(self.y0, other.y0), min(self.y1, other.y1),
                    max(self.x0, other.x0), min(self.x1, other.x1))

    def expand(self, margin: int) -> "Rect":
        """Grow by ``margin`` DPs on every side (unclipped)."""
        return Rect(self.y0 - margin, self.y1 + margin,
                    self.x0 - margin, self.x1 + margin)

    def clip(self, ny: int, nx: int) -> "Rect":
        """Clip to the mesh extent ``[0, ny) × [0, nx)``."""
        return Rect(max(0, self.y0), min(ny, self.y1),
                    max(0, self.x0), min(nx, self.x1))

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Rect) and
                (self.y0, self.y1, self.x0, self.x1) ==
                (other.y0, other.y1, other.x0, other.x1))

    def __hash__(self) -> int:
        return hash((self.y0, self.y1, self.x0, self.x1))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Rect(y=[{self.y0},{self.y1}), x=[{self.x0},{self.x1}))"


def _axis_overlaps(cuts: np.ndarray, extent: int, radius: int
                   ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(i, j, length)`` for every SD pair along one axis whose overlap
    of SD ``i``'s halo interval with SD ``j``'s interval is non-empty
    (``i == j`` included), sorted by ``(i, j)``."""
    lo = np.maximum(cuts[:-1] - radius, 0)
    hi = np.minimum(cuts[1:] + radius, extent)
    length = (np.minimum(hi[:, None], cuts[None, 1:])
              - np.maximum(lo[:, None], cuts[None, :-1]))
    i, j = np.nonzero(length > 0)
    return i, j, length[i, j]


def _axis_segments(cuts: np.ndarray, extent: int, radius: int
                   ) -> Tuple[np.ndarray, ...]:
    """Runs of DPs along one axis whose radius window covers a fixed
    range of SDs.

    The window ``[p - radius, p + radius]`` of DP ``p`` changes the SDs
    it touches only where ``p`` crosses a ``cut ± radius`` breakpoint,
    and ``p``'s own SD changes only at a cut, so between consecutive
    breakpoints everything Case 1 depends on is constant.  Returns
    ``(own, lo, hi, length, first)``: per run, the SD containing it,
    the first and last SD its windows reach, and its DP count; per SD,
    the index of its first run (``own`` is non-decreasing).
    """
    n = len(cuts) - 1
    bounds = np.unique(np.clip(
        np.concatenate([cuts - radius, cuts, cuts + radius]), 0, extent))
    starts = bounds[:-1]
    own = np.searchsorted(cuts, starts, side="right") - 1
    lo = np.searchsorted(cuts, np.maximum(starts - radius, 0),
                         side="right") - 1
    hi = np.minimum(np.searchsorted(cuts, starts + radius, side="right") - 1,
                    n - 1)
    first = np.searchsorted(own, np.arange(n))
    return own, lo, hi, np.diff(bounds), first


def _frozen(*arrays: np.ndarray) -> Tuple[np.ndarray, ...]:
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


class SubdomainGrid:
    """Partition of an ``mesh_nx × mesh_ny`` DP mesh into SDs.

    Parameters
    ----------
    mesh_nx, mesh_ny:
        DP counts of the full mesh.
    sd_nx, sd_ny:
        Number of SDs along each axis.  When the mesh does not divide
        evenly, the remainder DPs are spread over the leading SDs (the
        paper always divides evenly, e.g. 400/8; uneven support keeps the
        library usable on arbitrary meshes).
    """

    def __init__(self, mesh_nx: int, mesh_ny: int, sd_nx: int, sd_ny: int) -> None:
        if sd_nx < 1 or sd_ny < 1:
            raise ValueError(f"SD grid must be at least 1x1, got {sd_nx}x{sd_ny}")
        if sd_nx > mesh_nx or sd_ny > mesh_ny:
            raise ValueError(
                f"more SDs than DPs: {sd_nx}x{sd_ny} SDs on {mesh_nx}x{mesh_ny} mesh")
        self.mesh_nx = mesh_nx
        self.mesh_ny = mesh_ny
        self.sd_nx = sd_nx
        self.sd_ny = sd_ny
        self._x_cuts = np.linspace(0, mesh_nx, sd_nx + 1).round().astype(np.int64)
        self._y_cuts = np.linspace(0, mesh_ny, sd_ny + 1).round().astype(np.int64)
        iy, ix = np.divmod(np.arange(self.num_subdomains), sd_nx)
        #: ``(N, 2)`` SD centres in unit-square coordinates, ``(x, y)``
        #: per SD — the values :meth:`sd_center` returns
        self.centers = np.stack([(ix + 0.5) / sd_nx, (iy + 0.5) / sd_ny],
                                axis=1)
        #: block shape of every SD, ``(rows, cols)`` per SD
        self.rows = np.diff(self._y_cuts)[iy]
        self.cols = np.diff(self._x_cuts)[ix]
        _frozen(self.centers, self.rows, self.cols)
        self._halo_pairs: Dict[int, Tuple[np.ndarray, ...]] = {}
        self._segments: Dict[int, Tuple[tuple, tuple]] = {}
        self._block_groups: Optional[List[Tuple]] = None

    # -- id mapping ---------------------------------------------------------
    @property
    def num_subdomains(self) -> int:
        """Total SD count."""
        return self.sd_nx * self.sd_ny

    def sd_id(self, ix: int, iy: int) -> int:
        """SD id at SD-grid column ``ix``, row ``iy``."""
        if not (0 <= ix < self.sd_nx and 0 <= iy < self.sd_ny):
            raise IndexError(f"SD ({ix},{iy}) outside {self.sd_nx}x{self.sd_ny}")
        return iy * self.sd_nx + ix

    def sd_coords(self, sd: int) -> Tuple[int, int]:
        """``(ix, iy)`` SD-grid coordinates of SD ``sd``."""
        if not 0 <= sd < self.num_subdomains:
            raise IndexError(f"SD id {sd} outside [0,{self.num_subdomains})")
        return sd % self.sd_nx, sd // self.sd_nx

    def sd_center(self, sd: int) -> Tuple[float, float]:
        """SD center in unit-square coordinates (for transfer geometry)."""
        ix, iy = self.sd_coords(sd)
        return (ix + 0.5) / self.sd_nx, (iy + 0.5) / self.sd_ny

    # -- geometry --------------------------------------------------------------
    def rect(self, sd: int) -> Rect:
        """DP rectangle owned by SD ``sd``."""
        ix, iy = self.sd_coords(sd)
        return Rect(self._y_cuts[iy], self._y_cuts[iy + 1],
                    self._x_cuts[ix], self._x_cuts[ix + 1])

    def dp_count(self, sd: int) -> int:
        """Number of DPs in SD ``sd``."""
        return self.rect(sd).area

    def halo_rect(self, sd: int, radius: int) -> Rect:
        """The SD rectangle expanded by the stencil ``radius`` and clipped.

        This is the region of the global field the SD's update reads;
        everything in it outside :meth:`rect` is ghost data.
        """
        return self.rect(sd).expand(radius).clip(self.mesh_ny, self.mesh_nx)

    def face_neighbors(self, sd: int) -> List[int]:
        """The 4-adjacent SD ids (matching the dual graph edges)."""
        ix, iy = self.sd_coords(sd)
        out = []
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            jx, jy = ix + dx, iy + dy
            if 0 <= jx < self.sd_nx and 0 <= jy < self.sd_ny:
                out.append(self.sd_id(jx, jy))
        return out

    def halo_neighbors(self, sd: int, radius: int) -> List[Tuple[int, Rect]]:
        """SDs that own part of ``sd``'s halo, with the overlap rectangles.

        Returns ``(other_sd, overlap_rect)`` pairs where ``overlap_rect``
        is in global DP coordinates.  When the stencil radius exceeds the
        SD edge length, SDs beyond the immediate ring appear — this is the
        regime the paper avoids by keeping SDs bigger than eps, and the
        solver supports both.
        """
        halo = self.halo_rect(sd, radius)
        ix, iy = self.sd_coords(sd)
        # ring width in SD units that the halo can reach
        own = self.rect(sd)
        min_w = int(np.diff(self._x_cuts).min())
        min_h = int(np.diff(self._y_cuts).min())
        ring = int(np.ceil(radius / max(1, min(min_w, min_h))))
        out: List[Tuple[int, Rect]] = []
        for jy in range(max(0, iy - ring), min(self.sd_ny, iy + ring + 1)):
            for jx in range(max(0, ix - ring), min(self.sd_nx, ix + ring + 1)):
                other = self.sd_id(jx, jy)
                if other == sd:
                    continue
                overlap = halo.intersect(self.rect(other))
                if overlap.area > 0:
                    out.append((other, overlap))
        return out

    def halo_pairs(self, radius: int) -> Tuple[np.ndarray, np.ndarray,
                                               np.ndarray]:
        """Every halo overlap of the grid as arrays ``(dst, src, area)``.

        One entry per ``(dst, src)`` pair for which
        :meth:`halo_neighbors` of ``dst`` lists ``src``, with the overlap
        area in DPs, sorted by ``dst`` then ``src`` — the order of
        :meth:`repro.mesh.decomposition.Decomposition.ghost_messages`.
        Rectangle overlaps are products of interval overlaps, so the
        table is the outer product of the two per-axis overlap lists.
        Cached per radius (read-only arrays).
        """
        table = self._halo_pairs.get(radius)
        if table is None:
            iy, jy, ly = _axis_overlaps(self._y_cuts, self.mesh_ny, radius)
            ix, jx, lx = _axis_overlaps(self._x_cuts, self.mesh_nx, radius)
            dst = (iy[:, None] * self.sd_nx + ix[None, :]).ravel()
            src = (jy[:, None] * self.sd_nx + jx[None, :]).ravel()
            area = (ly[:, None] * lx[None, :]).ravel()
            keep = np.nonzero(dst != src)[0]
            order = keep[np.lexsort((src[keep], dst[keep]))]
            table = _frozen(dst[order], src[order], area[order])
            self._halo_pairs[radius] = table
        return table

    def window_segments(self, radius: int) -> Tuple[tuple, tuple]:
        """Per-axis DP runs with a constant radius-window SD range.

        Returns ``(rows, cols)``, each ``(own, lo, hi, length, first)``
        as described in :func:`_axis_segments`; the Case-1 DP counts of
        :meth:`repro.mesh.decomposition.Decomposition.case1_counts` are
        evaluated once per (row run, column run) cell instead of per DP.
        Cached per radius (read-only arrays).
        """
        segs = self._segments.get(radius)
        if segs is None:
            segs = (_frozen(*_axis_segments(self._y_cuts, self.mesh_ny,
                                            radius)),
                    _frozen(*_axis_segments(self._x_cuts, self.mesh_nx,
                                            radius)))
            self._segments[radius] = segs
        return segs

    def block_groups(self) -> List[Tuple[int, int, np.ndarray, np.ndarray,
                                         np.ndarray]]:
        """Every SD grouped by block shape, for stacked block gathers.

        Returns one ``(rows, cols, sds, y0, x0)`` entry per distinct SD
        block shape (at most four: uneven cuts give the leading SDs one
        more DP): the SD ids of that shape in ascending order, with their
        rectangles' origins.  The ghost-padded block of SD ``sds[i]``
        is the ``(rows + 2R) x (cols + 2R)`` window at ``(y0[i],
        x0[i])`` of the field zero-bordered by ``R``, for every radius
        ``R`` — so the table needs no radius and is cached once
        (read-only arrays).
        """
        if self._block_groups is None:
            iy, ix = np.divmod(np.arange(self.num_subdomains), self.sd_nx)
            y0, x0 = self._y_cuts[iy], self._x_cuts[ix]
            shapes = self.rows * (self.mesh_nx + 1) + self.cols
            groups = []
            for key in np.unique(shapes):
                sds = np.nonzero(shapes == key)[0]
                rows, cols = divmod(int(key), self.mesh_nx + 1)
                groups.append((rows, cols) + _frozen(sds, y0[sds], x0[sds]))
            self._block_groups = groups
        return self._block_groups

    def ownership_grid(self, parts: np.ndarray) -> np.ndarray:
        """Reshape a per-SD part array into the ``(sd_ny, sd_nx)`` grid."""
        parts = np.asarray(parts)
        if len(parts) != self.num_subdomains:
            raise ValueError(
                f"parts length {len(parts)} != SD count {self.num_subdomains}")
        return parts.reshape(self.sd_ny, self.sd_nx)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<SubdomainGrid mesh={self.mesh_nx}x{self.mesh_ny} "
                f"sds={self.sd_nx}x{self.sd_ny}>")
