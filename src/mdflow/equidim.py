"""Equi-dimensional reference solver.

Instead of reducing a fault to a lower-dimensional subdomain, the fault is
resolved as a thin strip of cells carrying the full permeability tensor on a
fine Cartesian grid. The same discretization and assembly stack is reused on
a mesh without any lower-dimensional subdomains, so the two routes share no
fault-specific code paths and can check one another.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .mdassembly import MaterialSet, _in_box, assemble_global, solve
from .mdmesh import MeshError, _snap_index, build_cartesian_md_mesh

logger = logging.getLogger(__name__)


@dataclass
class EquiDimCase:
    """A fully resolved configuration: matrix plus fault strips as regions.

    Every strip corner must lie on a grid node at the requested resolution
    (within 1e-6 of a cell width, as for the mesher's faults), its low corner
    must lie below its high corner on every axis, and the strip must span at
    least two cell rows across its thin axis, otherwise the strip tensor
    cannot be represented on the grid.
    """

    domain_lo: tuple
    domain_hi: tuple
    resolution: tuple
    matrix_k: np.ndarray
    strips: list = field(default_factory=list)  # (lo, hi, tensor)
    bcs: list = field(default_factory=list)

    def validate(self) -> None:
        lo = np.asarray(self.domain_lo, dtype=float)
        hi = np.asarray(self.domain_hi, dtype=float)
        h = (hi - lo) / np.asarray(self.resolution, dtype=int)
        for s_lo, s_hi, _ in self.strips:
            k_lo, k_hi = (
                np.array([_snap_index(x, lo[a], h[a], "fault strip") for a, x in enumerate(p)])
                for p in (s_lo, s_hi)
            )
            rows = k_hi - k_lo
            if np.any(rows <= 0):
                raise MeshError(
                    f"fault strip low corner must lie below its high corner on every axis "
                    f"(cell rows {rows.tolist()})"
                )
            thin = np.argmin(rows * h)  # the strip's thin axis: its least width
            if rows[thin] < 2:
                raise MeshError(f"fault strip must span at least two cell rows (got {rows[thin]})")


@dataclass
class EquiDimSolution:
    grid: object
    pressures: np.ndarray


def solve_equidim(case: EquiDimCase) -> EquiDimSolution:
    """Solve the fully resolved problem on a single Cartesian grid."""
    case.validate()
    mesh = build_cartesian_md_mesh(
        case.domain_lo, case.domain_hi, case.resolution, faults=[]
    )
    materials = MaterialSet(
        matrix_base=case.matrix_k,
        matrix_regions=list(case.strips),
    )
    system = assemble_global(mesh, materials, case.bcs)
    return EquiDimSolution(grid=mesh.subdomains[0], pressures=solve(system).pressures[0])


def average_fault_pressure(
    sol: EquiDimSolution, band_lo, band_hi, axis: int
) -> tuple:
    """Profile of the strip pressure along the fault direction.

    Cells whose centroids fall inside [band_lo, band_hi] (with the margin
    of ``mdassembly._in_box``) are grouped by their coordinate on ``axis``
    (the in-plane direction) and averaged, which mimics the across-aperture
    averaging that defines the reduced fault pressure. Returns (coordinates,
    mean pressures) sorted by coordinate.
    """
    centers = sol.grid.cell_centers_global()
    inside = _in_box(sol.grid, centers, band_lo, band_hi)
    if not np.any(inside):
        raise ValueError("averaging band contains no cells")
    # The cells of one column share their coordinate bit for bit.
    xs, column = np.unique(centers[inside, axis], return_inverse=True)
    return xs, np.bincount(column, sol.pressures[inside]) / np.bincount(column)
