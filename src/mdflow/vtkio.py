"""Legacy ASCII VTK output for subdomain grids and cell fields.

Writes each grid as a rectilinear-grid file readable by ParaView and
VisIt: one node coordinate array per ambient axis, the cells of the
lattice they span, and any number of scalar cell-data arrays. Grids
embedded in a higher ambient space (fault planes, intersection lines,
points) come out at their global coordinates, with one node along each
axis they do not extend in, so the files of all subdomains of one mesh
overlay correctly.
"""

from __future__ import annotations

import logging

import numpy as np

from .mdmesh import CellGrid, format_rows

logger = logging.getLogger(__name__)


def write_vtk(path: str, grid: CellGrid, cell_data=None, title: str = "mdflow field") -> None:
    """Write one grid with scalar cell data as a legacy ASCII VTK file.

    Parameters
    ----------
    path : str
        Output file path.
    grid : CellGrid
        Any grid built by the mesher, of topological dimension 0 to 3. Its
        cells must fill the lattice of their global node coordinates, each
        cell spanning one node interval along every axis it extends in.
    cell_data : dict, optional
        Scalar arrays of length ``n_cells`` keyed by their field name.
    title : str, optional
        Header comment line (truncated to the format's 255-character limit).

    Raises
    ------
    ValueError
        If the cells do not fill their lattice or a cell-data array does not
        have one value per cell; no file is written then.
    """
    n_cells = grid.n_cells
    centers = grid.cell_centers_global()
    half = 0.5 * np.abs(grid.cell_widths @ grid.frame_axes)
    coords, ids, stride, spans_one = [], np.zeros(n_cells, dtype=int), 1, True
    for a in range(3):
        if a >= centers.shape[1]:
            coords.append(np.zeros(1))
            continue
        # Adding 0.0 turns -0.0 into 0.0, so no coordinate prints as -0.
        lo = np.round(centers[:, a] - half[:, a], 12) + 0.0
        hi = np.round(centers[:, a] + half[:, a], 12) + 0.0
        values = np.unique(np.concatenate([lo, hi]))
        # One node per run of values differing by floating-point noise: far
        # from the origin, the node two neighbours share can differ in its
        # last bits by more than the rounding above removes.
        new = np.diff(values, prepend=-np.inf) > 1e-9 * max(1.0, np.abs(values).max())
        nodes, node_of = values[new], np.cumsum(new) - 1
        i = node_of[np.searchsorted(values, lo)]
        spans_one &= np.array_equal(node_of[np.searchsorted(values, hi)], i + (nodes.size > 1))
        # VTK numbers the cells x-fastest, max(nodes - 1, 1) along each axis.
        ids += stride * i
        stride *= max(nodes.size - 1, 1)
        coords.append(nodes)
    order = np.argsort(ids)
    if not (spans_one and stride == n_cells and np.array_equal(ids[order], np.arange(n_cells))):
        raise ValueError(f"the cells written to {path!r} do not fill a rectilinear lattice")

    out = ["# vtk DataFile Version 2.0"]
    out.append(title.splitlines()[0][:255] if title else "mdflow field")
    out.append("ASCII")
    out.append("DATASET RECTILINEAR_GRID")
    dims = " ".join(str(c.size) for c in coords)
    out.append(f"DIMENSIONS {dims}")
    for axis, nodes in zip("XYZ", coords):
        out.append(f"{axis}_COORDINATES {nodes.size} double")
        out += format_rows("%.12g", nodes[:, None])
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
            out += format_rows("%.12g", values[order, None])
    with open(path, "w") as fh:
        fh.write("\n".join(out) + "\n")
    logger.debug("wrote %s: %s nodes, %d cells", path, dims, n_cells)
