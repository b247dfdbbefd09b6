"""Legacy ASCII VTK writer tests: merged points, connectivity, cell data.

Files are parsed back and checked against ``cell_corners``, which gives
every cell's corners independently of the point merging.
"""

import numpy as np
import pytest

from mdflow.config import FaultConfig, builtin_case
from mdflow.mdmesh import build_cartesian_md_mesh
from mdflow.vtkio import VTK_LINE, VTK_QUAD, VTK_VERTEX, VTK_VOXEL, cell_corners, write_vtk

CELL_TYPES = {0: VTK_VERTEX, 1: VTK_LINE, 2: VTK_QUAD, 3: VTK_VOXEL}


def mesh_of(case, n):
    cfg = builtin_case(case)
    return build_cartesian_md_mesh(
        cfg.domain_lo, cfg.domain_hi, (n,) * len(cfg.domain_lo), cfg.fault_specs()
    )


def grids():
    """Every subdomain of a 3D mesh with three crossing fault planes (a 3D
    matrix, 2D planes in 3D, 1D lines, a 0D point), of a 2D network with
    slits, tips and crossings, and of a 3D mesh around the origin whose
    corners include -0.0."""
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
    return out


GRIDS = grids()


def read_vtk(path):
    """Points, cell connectivity, cell types and cell data of a written file."""
    lines = open(path).read().splitlines()
    assert lines[0] == "# vtk DataFile Version 2.0"
    assert lines[2:4] == ["ASCII", "DATASET UNSTRUCTURED_GRID"]
    i = 4
    n_points = int(lines[i].split()[1])
    points = np.array([[float(v) for v in ln.split()] for ln in lines[i + 1 : i + 1 + n_points]])
    i += 1 + n_points
    _, n_cells, size = lines[i].split()
    n_cells = int(n_cells)
    cells = [[int(v) for v in ln.split()] for ln in lines[i + 1 : i + 1 + n_cells]]
    assert sum(len(c) for c in cells) == int(size)
    assert all(c[0] == len(c) - 1 for c in cells)
    conn = np.array([c[1:] for c in cells], dtype=int).reshape(n_cells, -1)
    i += 1 + n_cells
    assert lines[i] == f"CELL_TYPES {n_cells}"
    types = np.array([int(v) for v in lines[i + 1 : i + 1 + n_cells]], dtype=int)
    i += 1 + n_cells
    data = {}
    if i < len(lines):
        assert lines[i] == f"CELL_DATA {n_cells}"
        i += 1
        while i < len(lines):
            name = lines[i].split()[1]
            assert lines[i + 1] == "LOOKUP_TABLE default"
            data[name] = np.array([float(v) for v in lines[i + 2 : i + 2 + n_cells]])
            i += 2 + n_cells
    return points, conn, types, data


def padded_corners(grid):
    c = cell_corners(grid)
    return np.concatenate([c, np.zeros(c.shape[:2] + (3 - c.shape[2],))], axis=2)


@pytest.mark.parametrize("name,grid", GRIDS, ids=[n for n, _ in GRIDS])
def test_points_and_connectivity_match_cell_corners(name, grid, tmp_path):
    path = tmp_path / "g.vtk"
    write_vtk(str(path), grid)
    points, conn, types, data = read_vtk(path)
    corners = padded_corners(grid)
    assert conn.shape == corners.shape[:2]
    assert np.abs(points[conn] - corners).max() < 1e-12
    # Coincident corners share one point, distinct ones do not, and every
    # point is used.
    distinct = np.unique(np.round(corners.reshape(-1, 3), 9), axis=0)
    assert points.shape[0] == distinct.shape[0]
    assert np.unique(conn).size == points.shape[0]
    assert np.all(np.diff(points[:, 0]) >= 0)  # lexicographic point order
    assert "-0" not in open(path).read().split()  # merged zeros print as 0
    assert np.all(types == CELL_TYPES[grid.dim])
    assert data == {}


@pytest.mark.parametrize("name,grid", GRIDS[::3], ids=[n for n, _ in GRIDS[::3]])
def test_cell_data_round_trips(name, grid, tmp_path):
    rng = np.random.default_rng(grid.n_cells)
    fields = {"pressure": rng.normal(size=grid.n_cells), "k": rng.uniform(1e-6, 1e6, grid.n_cells)}
    path = tmp_path / "g.vtk"
    write_vtk(str(path), grid, fields, title="field test\nignored")
    assert open(path).read().splitlines()[1] == "field test"
    _, _, _, data = read_vtk(path)
    assert list(data) == ["pressure", "k"]
    for key, values in fields.items():
        assert np.abs(data[key] - values).max() <= 1e-11 * np.abs(values).max()


def test_bad_length_cell_data_rejected(tmp_path):
    grid = GRIDS[0][1]
    path = tmp_path / "g.vtk"
    with pytest.raises(ValueError):
        write_vtk(str(path), grid, {"pressure": np.zeros(grid.n_cells + 1)})
    with pytest.raises(ValueError):
        write_vtk(str(path), grid, {"ok": np.zeros(grid.n_cells), "bad": np.zeros((grid.n_cells, 2))})
    assert not path.exists()


def test_tiny_grid_file_is_unchanged(tmp_path):
    # The exact bytes the writer has always produced for this grid.
    expected = (
        "# vtk DataFile Version 2.0\ntiny\nASCII\nDATASET UNSTRUCTURED_GRID\n"
        "POINTS 6 double\n0 0 0\n0 1 0\n1 0 0\n1 1 0\n2 0 0\n2 1 0\n"
        "CELLS 2 10\n4 0 2 3 1\n4 2 4 5 3\nCELL_TYPES 2\n9\n9\nCELL_DATA 2\n"
        "SCALARS pressure double 1\nLOOKUP_TABLE default\n1.5\n-0.25\n"
        "SCALARS k double 1\nLOOKUP_TABLE default\n0.001\n0.666666666667\n"
    )
    grid = build_cartesian_md_mesh((0.0, 0.0), (2.0, 1.0), (2, 1), []).subdomains[0]
    path = tmp_path / "tiny.vtk"
    write_vtk(str(path), grid, {"pressure": [1.5, -0.25], "k": [1e-3, 2.0 / 3.0]},
              title="tiny\nsecond line")
    assert open(path).read() == expected
