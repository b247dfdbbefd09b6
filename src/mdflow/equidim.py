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

from .mdassembly import MaterialSet, assemble_global, solve
from .mdmesh import MeshError, build_cartesian_md_mesh

logger = logging.getLogger(__name__)


@dataclass
class EquiDimCase:
    """A fully resolved configuration: matrix plus fault strips as regions.

    Every strip must be aligned with grid lines at the requested resolution
    and span at least two cell rows, otherwise the strip tensor cannot be
    represented on the grid.
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
        n = np.asarray(self.resolution, dtype=int)
        h = (hi - lo) / n
        for s_lo, s_hi, _ in self.strips:
            s_lo = np.asarray(s_lo, dtype=float)
            s_hi = np.asarray(s_hi, dtype=float)
            widths = s_hi - s_lo
            thin = int(np.argmin(np.where(widths > 0, widths, np.inf)))
            rows = widths[thin] / h[thin]
            if abs(rows - round(rows)) > 1e-9 or round(rows) < 2:
                raise MeshError(
                    "fault strip must span an integral number of cell rows, "
                    f"at least two (got {rows:.6g})"
                )
            for a in range(lo.shape[0]):
                for v in (s_lo[a], s_hi[a]):
                    t = (v - lo[a]) / h[a]
                    if abs(t - round(t)) > 1e-9:
                        raise MeshError(
                            f"strip edge {v} is not on a grid line of spacing {h[a]}"
                        )


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

    Cells whose centroids fall inside [band_lo, band_hi] are grouped by
    their coordinate on ``axis`` (the in-plane direction) and averaged,
    which mimics the across-aperture averaging that defines the reduced
    fault pressure. Returns (coordinates, mean pressures) sorted by
    coordinate.
    """
    band_lo = np.asarray(band_lo, dtype=float)
    band_hi = np.asarray(band_hi, dtype=float)
    centers = sol.grid.cell_centers
    inside = np.all(
        (centers >= band_lo - 1e-12) & (centers <= band_hi + 1e-12), axis=1
    )
    if not np.any(inside):
        raise ValueError("averaging band contains no cells")
    coord = centers[inside, axis]
    vals = sol.pressures[inside]
    xs = np.unique(np.round(coord, 12))
    out = np.empty(xs.shape[0])
    for i, x in enumerate(xs):
        sel = np.abs(coord - x) <= 1e-11
        out[i] = vals[sel].mean()
    return xs, out
