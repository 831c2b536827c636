"""Abstract chip floorplan.

Places every *fault site* of a netlist (stems and fanout branches — the
same universe the fault simulator uses) at a coordinate on a square die.
Sites of the same gate cluster together, and gates added consecutively sit
near each other in a row-major scan — a crude standard-cell placement, but
it preserves the one property the defect model needs: a spot defect of
finite radius hits a *spatially local* group of fault sites.

The layout carries a spatial grid index (sites binned into cell-sized
square bins, CSR-packed) so that defect-footprint queries cost the number
of *local* sites, not the number of sites on the die:
:meth:`ChipLayout.sites_within_many` answers a whole defect array in one
batched pass, and :meth:`ChipLayout.sites_within` is a thin single-defect
wrapper over it.
"""

from __future__ import annotations

import math

import numpy as np

from repro.circuit.netlist import Netlist
from repro.faults.model import StuckAtFault, full_fault_universe

__all__ = ["ChipLayout"]

# Defects per pass of a batched footprint query (see sites_within_many).
_QUERY_CHUNK = 2048


class ChipLayout:
    """Square die with every stuck-at fault site at an (x, y) coordinate.

    Parameters
    ----------
    netlist:
        The circuit to lay out.
    area:
        Die area in the same units used for defect densities (so that
        ``D0 * area`` is the expected defect count per die).
    """

    def __init__(self, netlist: Netlist, area: float = 1.0):
        if area <= 0:
            raise ValueError(f"die area must be > 0, got {area}")
        netlist.validate()
        self.netlist = netlist
        self.area = area
        self.side = math.sqrt(area)
        # The memoised enumeration the wire-format decoders also read,
        # so a site index means the same fault everywhere.
        self.sites: list[StuckAtFault] = full_fault_universe(netlist)

        # Row-major placement of signals; each signal's fault sites jitter
        # around the signal's cell center within a cell-sized neighborhood.
        signals = netlist.topological_order()
        per_row = max(1, math.ceil(math.sqrt(len(signals))))
        cell = self.side / per_row
        centers = {}
        for idx, signal in enumerate(signals):
            row, col = divmod(idx, per_row)
            centers[signal] = (
                (col + 0.5) * cell,
                (row + 0.5) * cell,
            )
        jitter = np.random.default_rng(0xC0FFEE)  # fixed: layout is static
        coords = np.empty((len(self.sites), 2))
        for i, site in enumerate(self.sites):
            cx, cy = centers[site.signal]
            dx, dy = jitter.uniform(-0.35 * cell, 0.35 * cell, size=2)
            coords[i] = (
                min(max(cx + dx, 0.0), self.side),
                min(max(cy + dy, 0.0), self.side),
            )
        self.coordinates = coords
        self.cell_size = cell

        # Spatial grid index: cell-sized square bins over the die,
        # CSR-packed (sites sorted by bin id; within a bin, ascending
        # site index — the stable argsort of the row-major bin ids).
        n = per_row
        bin_w = self.side / n
        if len(self.sites):
            ix = np.minimum((coords[:, 0] / bin_w).astype(np.intp), n - 1)
            iy = np.minimum((coords[:, 1] / bin_w).astype(np.intp), n - 1)
            bin_ids = iy * n + ix
            order = np.argsort(bin_ids, kind="stable")
            counts = np.bincount(bin_ids, minlength=n * n)
        else:
            order = np.empty(0, dtype=np.intp)
            counts = np.zeros(n * n, dtype=np.intp)
        offsets = np.zeros(n * n + 1, dtype=np.intp)
        np.cumsum(counts, out=offsets[1:])
        self._grid_n = n
        self._grid_bin_w = bin_w
        self._grid_order = order
        self._grid_offsets = offsets

    @property
    def num_sites(self) -> int:
        """Total stuck-at fault sites — the paper's ``N`` for this chip."""
        return len(self.sites)

    def sites_within_many(
        self, xs, ys, radii
    ) -> tuple[np.ndarray, np.ndarray]:
        """Batched disc queries over the grid index, CSR-packed.

        For ``D`` defects given as aligned arrays, returns
        ``(site_indices, offsets)`` with ``offsets`` of length ``D + 1``:
        ``site_indices[offsets[d]:offsets[d + 1]]`` are the fault sites
        inside defect ``d``'s footprint, in ascending site order — exactly
        what the full-die scan would return, at the cost of the *local*
        bins only.
        """
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        radii = np.asarray(radii, dtype=float)
        if not (xs.shape == ys.shape == radii.shape) or xs.ndim != 1:
            raise ValueError(
                f"xs, ys, radii must be aligned 1-D arrays, got shapes "
                f"{xs.shape}, {ys.shape}, {radii.shape}"
            )
        if radii.size and radii.min() < 0:
            raise ValueError(f"radius must be >= 0, got {radii.min()}")
        num = xs.size
        empty = np.empty(0, dtype=np.intp)
        if num == 0 or self.num_sites == 0:
            return empty, np.zeros(num + 1, dtype=np.intp)
        if num > _QUERY_CHUNK:
            # A lot-sized query runs in chunks: the candidate arrays grow
            # with the defect count, and chunking bounds their footprint.
            parts = [
                self.sites_within_many(
                    xs[i : i + _QUERY_CHUNK],
                    ys[i : i + _QUERY_CHUNK],
                    radii[i : i + _QUERY_CHUNK],
                )
                for i in range(0, num, _QUERY_CHUNK)
            ]
            offsets = np.zeros(num + 1, dtype=np.intp)
            np.cumsum(
                np.concatenate([np.diff(part[1]) for part in parts]),
                out=offsets[1:],
            )
            return np.concatenate([part[0] for part in parts]), offsets

        n, bin_w = self._grid_n, self._grid_bin_w
        # Bin window of each footprint's bounding box; a box that misses
        # the grid entirely contributes zero rows.
        bx0 = np.floor((xs - radii) / bin_w).astype(np.intp)
        bx1 = np.floor((xs + radii) / bin_w).astype(np.intp)
        by0 = np.floor((ys - radii) / bin_w).astype(np.intp)
        by1 = np.floor((ys + radii) / bin_w).astype(np.intp)
        miss = (bx1 < 0) | (by1 < 0) | (bx0 >= n) | (by0 >= n)
        np.clip(bx0, 0, n - 1, out=bx0)
        np.clip(bx1, 0, n - 1, out=bx1)
        np.clip(by0, 0, n - 1, out=by0)
        np.clip(by1, 0, n - 1, out=by1)
        num_rows = np.where(miss, 0, by1 - by0 + 1)

        # One record per (defect, bin row): bins of a row are contiguous
        # in the CSR, so each record is one [start, stop) candidate range.
        row_defect = np.repeat(np.arange(num, dtype=np.intp), num_rows)
        if row_defect.size == 0:
            return empty, np.zeros(num + 1, dtype=np.intp)
        row_first = np.cumsum(num_rows) - num_rows
        row_local = np.arange(row_defect.size, dtype=np.intp) - np.repeat(
            row_first, num_rows
        )
        row_base = (by0[row_defect] + row_local) * n
        starts = self._grid_offsets[row_base + bx0[row_defect]]
        stops = self._grid_offsets[row_base + bx1[row_defect] + 1]
        lens = stops - starts
        total = int(lens.sum())
        if total == 0:
            return empty, np.zeros(num + 1, dtype=np.intp)

        # Expand the ranges into flat candidate positions and filter by
        # the exact disc test (the same arithmetic as the full scan, so
        # results are bit-identical to it).
        cand_defect = np.repeat(row_defect, lens)
        range_first = np.cumsum(lens) - lens
        positions = np.arange(total, dtype=np.intp) + np.repeat(
            starts - range_first, lens
        )
        cand_site = self._grid_order[positions]
        dx = self.coordinates[:, 0].take(cand_site) - xs[cand_defect]
        dy = self.coordinates[:, 1].take(cand_site) - ys[cand_defect]
        rr = radii[cand_defect]
        hit = dx * dx + dy * dy <= rr * rr
        sel_defect = cand_defect[hit]
        # Ascending sites within each defect: one sort of the packed
        # (defect, site) keys, unique since each bin is visited once.
        keys = sel_defect * self.num_sites + cand_site[hit]
        keys.sort()
        offsets = np.zeros(num + 1, dtype=np.intp)
        np.cumsum(np.bincount(sel_defect, minlength=num), out=offsets[1:])
        return keys % self.num_sites, offsets

    def sites_within(self, x: float, y: float, radius: float) -> list[int]:
        """Indices of fault sites inside a disc (a defect footprint).

        Thin single-defect wrapper over :meth:`sites_within_many`.
        """
        if radius < 0:
            raise ValueError(f"radius must be >= 0, got {radius}")
        indices, _ = self.sites_within_many(
            np.array([x], dtype=float),
            np.array([y], dtype=float),
            np.array([radius], dtype=float),
        )
        return list(indices)

    def site_faults(self, indices) -> list[StuckAtFault]:
        """Map fault (universe) indices back to fault objects."""
        sites = self.sites
        return [sites[i] for i in np.asarray(indices).tolist()]

    def __repr__(self) -> str:
        return (
            f"ChipLayout({self.netlist.name!r}, area={self.area}, "
            f"sites={self.num_sites})"
        )
