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

from .mdmesh import CellGrid

logger = logging.getLogger(__name__)

#: Rows per %-format call of :func:`format_rows`. Each call turns its rows
#: into Python floats, about 40 bytes per value, so no call holds a whole
#: table.
_FORMAT_ROWS = 4096


def format_rows(fmt: str, table: np.ndarray) -> list:
    """The %-format of a table, one line per row, as one string per
    :data:`_FORMAT_ROWS` rows (none if the table is empty)."""
    return [
        "\n".join([fmt] * len(chunk)) % tuple(chunk.ravel().tolist())
        for chunk in (table[i : i + _FORMAT_ROWS] for i in range(0, len(table), _FORMAT_ROWS))
    ]


def write_vtk(path: str, grid: CellGrid, cell_data=None, title: str = "mdflow field") -> None:
    """Write one grid with scalar cell data as a legacy ASCII VTK file.

    Parameters
    ----------
    path : str
        Output file path.
    grid : CellGrid
        Any grid built by the mesher, of topological dimension 0 to 3. Its
        nodes along each axis it extends in are the even entries of that
        axis's lattice, and its cells are in lattice order, x-fastest, as
        VTK numbers them.
    cell_data : dict, optional
        Scalar arrays of length ``n_cells`` keyed by their field name.
    title : str, optional
        Header comment line (truncated to the format's 255-character limit).

    Raises
    ------
    ValueError
        If a cell-data array does not have one value per cell; no file is
        written then.
    """
    n_cells = grid.n_cells
    # An axis the grid does not extend in has one node, its frame origin.
    coords = [np.array([x]) for x in np.pad(grid.frame_origin, (0, 3 - grid.frame_origin.size))]
    for axis, lattice in zip(np.argmax(grid.frame_axes, axis=1), grid.lattice):
        coords[axis] = lattice[::2]
    # Adding 0.0 turns -0.0 into 0.0, so no coordinate prints as -0.
    coords = [nodes + 0.0 for nodes in coords]

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
            out += format_rows("%.12g", values[:, None])
    with open(path, "w") as fh:
        fh.write("\n".join(out) + "\n")
    logger.debug("wrote %s: %s nodes, %d cells", path, dims, n_cells)
