"""Legacy ASCII VTK output for subdomain grids and cell fields.

Writes unstructured-grid files readable by ParaView and VisIt: shared
points, one cell per grid cell (vertex, line, quad, or voxel depending on
the grid dimension), and any number of scalar cell-data arrays. Grids
embedded in a higher ambient space (fault planes, intersection lines,
points) come out at their global coordinates, so the files of all
subdomains of one mesh overlay correctly.
"""

from __future__ import annotations

import logging

import numpy as np

from .mdmesh import CellGrid, format_rows

logger = logging.getLogger(__name__)

VTK_VERTEX = 1
VTK_LINE = 3
VTK_QUAD = 9
VTK_VOXEL = 11

#: Corner offsets in units of half cell widths, in the point order the cell
#: type expects: counterclockwise for quads, x-fastest for voxels.
_CORNERS = {
    1: np.array([[-1.0], [1.0]]),
    2: np.array([[-1, -1], [1, -1], [1, 1], [-1, 1]], dtype=float),
    3: np.array(
        [
            [-1, -1, -1], [1, -1, -1], [-1, 1, -1], [1, 1, -1],
            [-1, -1, 1], [1, -1, 1], [-1, 1, 1], [1, 1, 1],
        ],
        dtype=float,
    ),
}

_CELL_TYPE = {0: VTK_VERTEX, 1: VTK_LINE, 2: VTK_QUAD, 3: VTK_VOXEL}


def cell_corners(grid: CellGrid) -> np.ndarray:
    """Global corner coordinates per cell, shaped (n_cells, corners, ambient).

    Corner order matches the VTK cell type of the grid's dimension.
    """
    if grid.dim == 0:
        return np.tile(grid.frame_origin, (grid.n_cells, 1, 1))
    offsets = _CORNERS[grid.dim]
    local = (
        grid.cell_centers[:, None, :]
        + 0.5 * grid.cell_widths[:, None, :] * offsets[None, :, :]
    )
    return grid.frame_origin + local @ grid.frame_axes


def write_vtk(path: str, grid: CellGrid, cell_data=None, title: str = "mdflow field") -> None:
    """Write one grid with scalar cell data as a legacy ASCII VTK file.

    Parameters
    ----------
    path : str
        Output file path.
    grid : CellGrid
        Any grid built by the mesher, of topological dimension 0 to 3.
    cell_data : dict, optional
        Scalar arrays of length ``n_cells`` keyed by their field name.
    title : str, optional
        Header comment line (truncated to the format's 255-character limit).
    """
    corners = cell_corners(grid)
    n_cells, per_cell, amb = corners.shape
    flat = np.zeros((n_cells * per_cell, 3))
    # Adding 0.0 turns -0.0 into 0.0, so a merged point never prints as -0.
    flat[:, :amb] = np.round(corners.reshape(n_cells * per_cell, amb), 12) + 0.0
    # Merge coincident corners of neighboring cells; the rounding only
    # groups values differing by floating-point noise. Points come out in
    # lexicographic (x, y, z) order.
    order = np.lexsort(flat.T[::-1])
    ranked = flat[order]
    new = np.ones(order.size, dtype=bool)
    new[1:] = np.any(ranked[1:] != ranked[:-1], axis=1)
    points = ranked[new]
    conn = np.empty(order.size, dtype=int)
    conn[order] = np.cumsum(new) - 1
    conn = conn.reshape(n_cells, per_cell)

    out = ["# vtk DataFile Version 2.0"]
    out.append(title.splitlines()[0][:255] if title else "mdflow field")
    out.append("ASCII")
    out.append("DATASET UNSTRUCTURED_GRID")
    out.append(f"POINTS {points.shape[0]} double")
    out += format_rows("%.12g %.12g %.12g", points)
    out.append(f"CELLS {n_cells} {n_cells * (1 + per_cell)}")
    out += format_rows(" ".join(["%d"] * (1 + per_cell)), np.insert(conn, 0, per_cell, axis=1))
    out.append(f"CELL_TYPES {n_cells}")
    ctype = _CELL_TYPE[grid.dim]
    out.extend([str(ctype)] * n_cells)
    cell_data = cell_data or {}
    if cell_data:
        out.append(f"CELL_DATA {n_cells}")
        for name, values in cell_data.items():
            values = np.asarray(values, dtype=float)
            if values.shape != (n_cells,):
                raise ValueError(
                    f"cell data {name!r} must have one value per cell"
                )
            out.append(f"SCALARS {name} double 1")
            out.append("LOOKUP_TABLE default")
            out += format_rows("%.12g", values[:, None])
    with open(path, "w") as fh:
        fh.write("\n".join(out) + "\n")
    logger.debug("wrote %s: %d points, %d cells", path, points.shape[0], n_cells)

