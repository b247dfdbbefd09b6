"""Legacy ASCII VTK writer tests: lattice coordinates, cell order, cell data.

Files are parsed back, and every cell of the lattice is matched to the grid
cell whose corners (``cell_corners``, computed here independently of the
writer) span the same box.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mdflow.config import FaultConfig, builtin_case
from mdflow.mdmesh import build_cartesian_md_mesh
from mdflow.vtkio import _FORMAT_ROWS, format_rows, write_vtk
from test_mdmesh import _build, fault_boxes

#: Corner offsets in units of half cell widths.
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


def cell_corners(grid):
    """Global corner coordinates per cell, shaped (n_cells, corners, ambient)."""
    if grid.dim == 0:
        return np.tile(grid.frame_origin, (grid.n_cells, 1, 1))
    offsets = _CORNERS[grid.dim]
    local = (
        grid.cell_centers[:, None, :]
        + 0.5 * grid.cell_widths[:, None, :] * offsets[None, :, :]
    )
    return grid.frame_origin + local @ grid.frame_axes


def mesh_of(case, n):
    cfg = builtin_case(case)
    return build_cartesian_md_mesh(
        cfg.domain_lo, cfg.domain_hi, (n,) * len(cfg.domain_lo), cfg.fault_specs()
    )


def grids():
    """Every subdomain of a 3D mesh with three crossing fault planes (a 3D
    matrix, 2D planes in 3D, 1D lines, a 0D point), of a 2D network with
    slits, tips and crossings, of a 3D mesh around the origin whose
    corners include -0.0, and of a 2D mesh with a fault whose nodes at 0
    the writer computes as tiny negative numbers."""
    out = [(f"cube3d/{i}", g) for i, g in enumerate(mesh_of("cube3d", 4).subdomains)]
    out += [(f"network2d/{i}", g) for i, g in enumerate(mesh_of("network2d", 8).subdomains)]

    def fault(p0, p1):
        return FaultConfig(
            p0=p0, p1=p1, aperture=0.01, k_parallel=1.0,
            k_perp=(1.0, 1.0), k_t=(0.0, 0.0), name="F",
        ).spec()

    mesh = build_cartesian_md_mesh(
        (-0.3, -1.0, -2.0), (0.9, 1.0, 2.0), (4, 4, 4),
        [fault((0.3, -1.0, -2.0), (0.3, 1.0, 2.0)), fault((-0.3, 0.0, -2.0), (0.9, 0.0, 2.0))],
    )
    out += [(f"origin/{i}", g) for i, g in enumerate(mesh.subdomains)]
    mesh = build_cartesian_md_mesh(
        (-0.9, -0.6), (0.3, 0.0), (4, 3), [fault((0.0, -0.6), (0.0, 0.0))]
    )
    out += [(f"negzero/{i}", g) for i, g in enumerate(mesh.subdomains)]
    return out


GRIDS = grids()


def read_vtk(path):
    """Node coordinates per axis and cell data of a written file."""
    lines = open(path).read().splitlines()
    assert lines[0] == "# vtk DataFile Version 2.0"
    assert lines[2:4] == ["ASCII", "DATASET RECTILINEAR_GRID"]
    dims = [int(v) for v in lines[4].split()[1:]]
    assert lines[4].startswith("DIMENSIONS ") and len(dims) == 3
    i, coords = 5, []
    for axis, n in zip("XYZ", dims):
        assert lines[i] == f"{axis}_COORDINATES {n} double"
        coords.append(np.array([float(v) for v in lines[i + 1 : i + 1 + n]]))
        i += 1 + n
    n_cells = int(np.prod([max(n - 1, 1) for n in dims]))
    data = {}
    if i < len(lines):
        assert lines[i] == f"CELL_DATA {n_cells}"
        i += 1
        while i < len(lines):
            name = lines[i].split()[1]
            assert lines[i + 1] == "LOOKUP_TABLE default"
            data[name] = np.array([float(v) for v in lines[i + 2 : i + 2 + n_cells]])
            i += 2 + n_cells
    return coords, data


def lattice_boxes(coords):
    """Low and high corners of the lattice cells, in VTK (x-fastest) order."""
    counts = [max(nodes.size - 1, 1) for nodes in coords]
    ijk = np.unravel_index(np.arange(np.prod(counts)), counts[::-1])[::-1]
    lo = np.stack([nodes[i] for nodes, i in zip(coords, ijk)], axis=1)
    hi = np.stack([nodes[i + (nodes.size > 1)] for nodes, i in zip(coords, ijk)], axis=1)
    return lo, hi


def padded_corners(grid):
    c = cell_corners(grid)
    return np.concatenate([c, np.zeros(c.shape[:2] + (3 - c.shape[2],))], axis=2)


def file_cells(grid, path, atol=1e-12):
    """The grid cell at each cell of the file, matched by box, and the file's
    cell data; asserts that the boxes are the grid cells' to ``atol``."""
    coords, data = read_vtk(path)
    lo, hi = lattice_boxes(coords)
    corners = padded_corners(grid)
    ref_lo, ref_hi = corners.min(axis=1), corners.max(axis=1)
    assert lo.shape == ref_lo.shape
    scale = np.abs(corners).max() or 1.0
    key = lambda a, b: np.lexsort(np.round(np.hstack([a, b]) / scale, 9).T)
    cell = np.empty(grid.n_cells, dtype=int)
    cell[key(lo, hi)] = key(ref_lo, ref_hi)
    assert np.abs(lo - ref_lo[cell]).max() < atol
    assert np.abs(hi - ref_hi[cell]).max() < atol
    assert all(np.all(np.diff(nodes) > 0) for nodes in coords)
    return cell, data


@pytest.mark.parametrize("name,grid", GRIDS, ids=[n for n, _ in GRIDS])
def test_cell_boxes_match_cell_corners(name, grid, tmp_path):
    path = tmp_path / "g.vtk"
    write_vtk(str(path), grid)
    cell, data = file_cells(grid, path)
    assert data == {}
    assert np.array_equal(cell, np.arange(grid.n_cells))  # the mesher's order is VTK's
    assert "-0" not in open(path).read().split()  # rounded zeros print as 0


@pytest.mark.parametrize("name,grid", GRIDS[::3], ids=[n for n, _ in GRIDS[::3]])
def test_cell_data_round_trips(name, grid, tmp_path):
    rng = np.random.default_rng(grid.n_cells)
    fields = {"pressure": rng.normal(size=grid.n_cells), "k": rng.uniform(1e-6, 1e6, grid.n_cells)}
    path = tmp_path / "g.vtk"
    write_vtk(str(path), grid, fields, title="field test\nignored")
    assert open(path).read().splitlines()[1] == "field test"
    cell, data = file_cells(grid, path)
    assert list(data) == ["pressure", "k"]
    for key, values in fields.items():
        assert np.abs(data[key] - values[cell]).max() <= 1e-11 * np.abs(values).max()


@settings(max_examples=40, deadline=None)
@given(fault_boxes(), st.integers(1, 3))
def test_subdomain_files_round_trip(tmp_path_factory, box, k):
    mesh, _ = _build(box, k)
    path = tmp_path_factory.getbasetemp() / "round_trip.vtk"
    for grid in mesh.subdomains:
        values = np.sin(np.arange(grid.n_cells) + 0.5) * 10.0 ** (np.arange(grid.n_cells) % 7 - 3)
        write_vtk(str(path), grid, {"p": values})
        # Coordinates below 4 in magnitude printed to 12 significant digits.
        cell, data = file_cells(grid, path, atol=1e-11)
        assert np.array_equal(data["p"], [float("%.12g" % v) for v in values[cell]])


@pytest.mark.parametrize(
    "box",
    [
        ([0.0, 0.0], [1e5, 1e5], [3, 3], [(0, 1, {1: (0, 3)})]),
        ([0.0, 0.0], [1e5, 1e5], [7, 13], [(0, 3, {1: (0, 13)}), (1, 5, {0: (2, 7)})]),
        ([1e5, 1e5], [10.0, 10.0], [7, 13], [(1, 6, {0: (0, 7)})]),
        ([1e5, 1e5], [1.0, 1.0], [7, 7], [(1, 3, {0: (0, 7)})]),
        ([-1e6, 0.0], [4e6, 1e6], [11, 13], [(0, 4, {1: (3, 13)})]),
        (
            [1e5, -1e5, 0.0], [10.0, 3e5, 1e5], [3, 7, 5],
            [(0, 1, {1: (0, 7), 2: (0, 5)}), (1, 3, {0: (0, 3), 2: (1, 4)})],
        ),
        ([0.0, 0.0], [1e-10, 1e-10], [7, 13], [(0, 3, {1: (0, 13)}), (1, 5, {0: (2, 7)})]),
        (
            [0.0, 0.0, 0.0], [1e-12, 3e-12, 1e-12], [3, 7, 5],
            [
                (0, 1, {1: (0, 7), 2: (0, 5)}), (1, 3, {0: (0, 3), 2: (1, 4)}),
                (2, 2, {0: (0, 3), 1: (0, 7)}),
            ],
        ),
    ],
    ids=[
        "1e5-3x3", "1e5-7x13", "offset-1e5", "offset-1e5-size-1", "1e6-11x13", "3d-1e5",
        "size-1e-10-7x13", "3d-size-1e-12",
    ],
)
def test_grids_far_from_the_origin_or_tiny_are_written(box, tmp_path):
    # Far from the origin, neighbours' corners (center +- half width)
    # differ in their last bits; in a tiny box, nodes lie far closer than
    # 1e-9. Either way the nodes are the grid's face planes, one value each.
    mesh, _ = _build(box, 1)
    assert len(mesh.subdomains) > 1
    path = tmp_path / "g.vtk"
    for grid in mesh.subdomains:
        values = np.cos(np.arange(grid.n_cells) * 0.7)
        write_vtk(str(path), grid, {"p": values})
        # Coordinates printed to 12 significant digits.
        cell, data = file_cells(grid, path, atol=1e-11 * np.abs(padded_corners(grid)).max())
        assert np.array_equal(cell, np.arange(grid.n_cells))
        assert np.array_equal(data["p"], [float("%.12g" % v) for v in values])


def test_bad_length_cell_data_rejected(tmp_path):
    grid = GRIDS[0][1]
    path = tmp_path / "g.vtk"
    with pytest.raises(ValueError):
        write_vtk(str(path), grid, {"pressure": np.zeros(grid.n_cells + 1)})
    with pytest.raises(ValueError):
        write_vtk(str(path), grid, {"ok": np.zeros(grid.n_cells), "bad": np.zeros((grid.n_cells, 2))})
    assert not path.exists()


def test_tiny_grid_file_is_unchanged(tmp_path):
    # The exact bytes the writer produces for this grid.
    expected = (
        "# vtk DataFile Version 2.0\ntiny\nASCII\nDATASET RECTILINEAR_GRID\n"
        "DIMENSIONS 3 2 1\nX_COORDINATES 3 double\n0\n1\n2\n"
        "Y_COORDINATES 2 double\n0\n1\nZ_COORDINATES 1 double\n0\nCELL_DATA 2\n"
        "SCALARS pressure double 1\nLOOKUP_TABLE default\n1.5\n-0.25\n"
        "SCALARS k double 1\nLOOKUP_TABLE default\n0.001\n0.666666666667\n"
    )
    grid = build_cartesian_md_mesh((0.0, 0.0), (2.0, 1.0), (2, 1), []).subdomains[0]
    path = tmp_path / "tiny.vtk"
    write_vtk(str(path), grid, {"pressure": [1.5, -0.25], "k": [1e-3, 2.0 / 3.0]},
              title="tiny\nsecond line")
    assert open(path).read() == expected


@pytest.mark.parametrize("n", [0, 1, _FORMAT_ROWS, 2 * _FORMAT_ROWS + 3])
def test_format_rows_matches_row_by_row(n):
    table = np.random.default_rng(n).normal(size=(n, 3)) * 10.0 ** np.arange(-5, 10, 5)
    table[:, 0] = np.arange(n)
    fmt = "%d %.17g %.12g"
    chunks = format_rows(fmt, table)
    assert len(chunks) == -(-n // _FORMAT_ROWS)
    assert "\n".join(chunks) == "\n".join(fmt % tuple(row) for row in table)
