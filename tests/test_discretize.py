"""Finite-volume discretization tests: TPFA, MPFA, traces, vector sources.

Linear pressure fields are in the exact solution space of both schemes, so
patch tests assert agreement to near machine precision. The 1D grids come
from the fault subdomain of a two-dimensional mesh.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from mdflow.config import FaultConfig
from mdflow.discretize import (
    BC_DIRICHLET,
    BC_MORTAR,
    BC_NEUMANN,
    BoundaryCondition,
    DiscretizationError,
    _face_rows,
    _gradient_reconstruction,
    discretize,
    mpfa_discretize,
    tpfa_discretize,
)
from mdflow.mdassembly import MaterialSet, build_problems
from mdflow.mdmesh import build_cartesian_md_mesh


def isotropic_perm(grid, value):
    """Per-cell isotropic tensor field from a scalar or per-cell array."""
    v = np.broadcast_to(np.asarray(value, dtype=float), (grid.n_cells,))
    return v[:, None, None] * np.eye(grid.dim)[None, :, :]


def ambient_grid(n=4):
    return build_cartesian_md_mesh((0.0, 0.0), (1.0, 1.0), (n, n), []).subdomains[0]


def line_grid(n=2):
    fault = FaultConfig(
        p0=(0.0, 0.5), p1=(1.0, 0.5), aperture=0.01,
        k_parallel=1.0, k_perp=(1.0, 1.0), k_t=(0.0, 0.0), name="F",
    )
    mesh = build_cartesian_md_mesh((0.0, 0.0), (1.0, 1.0), (n, n), [fault.spec()])
    return mesh.subdomains[1]


def normals(grid):
    """Unit face normals: along each face's axis, with its sign."""
    return np.eye(grid.dim)[grid.face_axis] * grid.face_sign[:, None]


def dirichlet_bc(grid, values):
    bc = BoundaryCondition.empty(grid)
    bnd = grid.is_boundary()
    bc.kind[bnd] = BC_DIRICHLET
    bc.value[bnd] = values(grid.face_centers_global())[bnd]
    return bc


def test_two_cell_transmissibility():
    g = line_grid(2)
    assert g.n_cells == 2
    assert np.allclose(g.cell_volumes, 0.5)
    bc = BoundaryCondition.empty(g)
    bc.kind[g.is_boundary()] = BC_DIRICHLET
    op = tpfa_discretize(g, isotropic_perm(g, 1.0), bc)
    interior = np.flatnonzero(~g.is_boundary())
    row = op.flux_p[interior[0]].toarray().ravel()
    assert np.allclose(sorted(row), [-2.0, 2.0])
    assert abs(row.sum()) < 1e-14


def test_constant_pressure_no_flux():
    g = ambient_grid(4)
    bc = dirichlet_bc(g, lambda x: np.full(len(x), 7.5))
    op = tpfa_discretize(g, isotropic_perm(g, 2.0), bc)
    flux = op.flux_p @ np.full(g.n_cells, 7.5) + op.flux_g @ bc.value
    assert np.abs(flux).max() < 1e-12


@pytest.mark.parametrize("scheme", [tpfa_discretize, mpfa_discretize], ids=["tpfa", "mpfa"])
def test_isotropic_linear_patch(scheme):
    g = ambient_grid(4)
    grad = np.array([2.0, -3.0])
    exact = lambda x: x @ grad + 1.0
    bc = dirichlet_bc(g, exact)
    K = 3.0
    perm = isotropic_perm(g, K)
    op = scheme(g, perm, bc)
    p = exact(g.cell_centers_global())
    flux = op.flux_p @ p + op.flux_g @ bc.value
    qvec = -K * grad
    expect = (normals(g) @ qvec) * g.face_areas
    assert np.abs(flux - expect).max() < 1e-12
    trace = op.trace_p @ p + op.trace_g @ bc.value
    assert np.abs(trace - exact(g.face_centers_global())).max() < 1e-12
    rec = (_gradient_reconstruction(g, perm) @ flux).reshape(g.n_cells, 2)
    assert np.abs(rec - grad[None, :]).max() < 1e-12


def test_full_tensor_linear_patch_mpfa():
    g = ambient_grid(4)
    K = np.array([[2.0, 0.7], [0.7, 1.5]])
    grad = np.array([1.3, -0.4])
    exact = lambda x: x @ grad + 2.0
    bc = dirichlet_bc(g, exact)
    perm = np.tile(K, (g.n_cells, 1, 1))
    op = mpfa_discretize(g, perm, bc)
    p = exact(g.cell_centers_global())
    flux = op.flux_p @ p + op.flux_g @ bc.value
    expect = (normals(g) @ (-K @ grad)) * g.face_areas
    assert np.abs(flux - expect).max() < 1e-12
    trace = op.trace_p @ p + op.trace_g @ bc.value
    assert np.abs(trace - exact(g.face_centers_global())).max() < 1e-12


def test_mpfa_reduces_to_tpfa_isotropic():
    # With grid-aligned tensors the O-scheme collapses to the two-point
    # flux, also for random anisotropic tensors per cell and around the
    # slits, tips, T and X nodes of a fault network. A copy of the grid
    # lists the cells of every third interior face in reverse order.
    mesh = fault_network(8, 7, 2, 4, 5, 1, 6, 2)
    g = mesh.subdomains[0]
    assert {5, 7, 8} <= set(np.bincount(g.face_nodes.ravel()).tolist())  # tip, T, X
    bc = BoundaryCondition.empty(g)
    bnd = g.is_boundary()
    bc.kind[bnd] = BC_NEUMANN
    bc.kind[bnd & np.isin(g.face_bnd, [0, 3])] = BC_DIRICHLET  # x- and y+
    bc.kind[mesh.mortar_face_mask(0)] = BC_MORTAR
    rng = np.random.default_rng(7)
    aniso = np.zeros((g.n_cells, 2, 2))
    aniso[:, [0, 1], [0, 1]] = 10.0 ** rng.uniform(-2.0, 2.0, size=(g.n_cells, 2))
    flip = np.flatnonzero(g.face_cells[:, 1] >= 0)[::3]
    cells = g.face_cells.copy()
    cells[flip] = cells[flip, ::-1]
    flipped = dataclasses.replace(g, face_cells=cells)
    assert np.array_equal(flipped.face_sign[flip], -g.face_sign[flip])
    for grid, perm in ((g, isotropic_perm(g, 1.7)), (g, aniso), (flipped, aniso)):
        a = tpfa_discretize(grid, perm, bc)
        b = mpfa_discretize(grid, perm, bc)
        for name in ("flux_p", "flux_g", "flux_chi", "trace_p", "trace_g", "trace_chi"):
            x, y = getattr(a, name), getattr(b, name)
            # same stencil: neither scheme stores a zero coefficient
            assert np.array_equal(x.indptr, y.indptr), name
            assert np.array_equal(x.indices, y.indices), name
            assert abs(x - y).max() <= 1e-12 * abs(y).max(), name


def test_tpfa_rejects_full_tensor():
    # TPFA drops the cross terms, so it refuses a tensor that has them;
    # MPFA takes the same tensor, and TPFA a diagonal one up to roundoff.
    g = ambient_grid(4)
    K = np.array([[1.0, 0.6], [0.6, 1.0]])
    bc = dirichlet_bc(g, lambda x: x[:, 0])
    perm = np.tile(K, (g.n_cells, 1, 1))
    with pytest.raises(DiscretizationError, match="grid-aligned"):
        tpfa_discretize(g, perm, bc)
    mpfa_discretize(g, perm, bc)
    perm[:, 0, 1] = perm[:, 1, 0] = 1e-13
    tpfa_discretize(g, perm, bc)


def test_scheme_follows_the_tensors():
    # MPFA only where a 2D grid has a tensor that is not grid-aligned.
    g1 = line_grid(2)
    bc1 = BoundaryCondition.empty(g1)
    bc1.kind[g1.is_boundary()] = BC_DIRICHLET
    assert discretize(g1, isotropic_perm(g1, 1.0), bc1).scheme == "TPFA"
    g3 = build_cartesian_md_mesh((0.0,) * 3, (1.0,) * 3, (2, 3, 2), []).subdomains[0]
    bc3 = dirichlet_bc(g3, lambda x: x[:, 0])
    perm3 = np.tile(np.diag([1.0, 2.0, 3.0]), (g3.n_cells, 1, 1))
    assert discretize(g3, perm3, bc3).scheme == "TPFA"
    perm3[4, 0, 2] = perm3[4, 2, 0] = 0.5
    with pytest.raises(DiscretizationError, match="grid-aligned"):
        discretize(g3, perm3, bc3)
    g2 = ambient_grid(4)
    bc2 = dirichlet_bc(g2, lambda x: x[:, 0])
    perm2 = np.tile(np.diag([1.0, 4.0]), (g2.n_cells, 1, 1))
    assert discretize(g2, perm2, bc2).scheme == "TPFA"
    perm2[5, 0, 1] = perm2[5, 1, 0] = 0.5
    assert discretize(g2, perm2, bc2).scheme == "MPFA"
    # the acceptance patch test's grids: isotropic, then a full tensor
    mesh = build_cartesian_md_mesh((0.0, 0.0), (1.2, 1.0), (6, 4), [])
    full = [((0.0, 0.0), (1.2, 1.0), np.array([[2.0, 0.7], [0.7, 1.5]]))]
    for regions, scheme in (([], "TPFA"), (full, "MPFA")):
        mats = MaterialSet(matrix_base=np.eye(2), matrix_regions=regions)
        pr = build_problems(mesh, mats, [])[0][0]
        pr.bc.kind[pr.grid.is_boundary()] = BC_DIRICHLET
        assert discretize(pr.grid, pr.perm, pr.bc).scheme == scheme


def test_vector_source_cancels_gradient():
    g = ambient_grid(4)
    grad = np.array([0.8, -1.1])
    exact = lambda x: x @ grad
    bc = dirichlet_bc(g, exact)
    op = mpfa_discretize(g, isotropic_perm(g, 2.5), bc)
    p = exact(g.cell_centers_global())
    chi = np.tile(-grad, g.n_cells)
    flux = op.flux_p @ p + op.flux_g @ bc.value + op.flux_chi @ chi
    assert np.abs(flux).max() < 1e-12
    trace = op.trace_p @ p + op.trace_g @ bc.value + op.trace_chi @ chi
    assert np.abs(trace - exact(g.face_centers_global())).max() < 1e-12
    # the reconstruction recovers grad p + chi
    R = _gradient_reconstruction(g, isotropic_perm(g, 2.5))
    rec = (R @ flux - chi).reshape(g.n_cells, 2)
    assert np.abs(rec - grad[None, :]).max() < 1e-12


def test_vector_source_line_grid():
    g = line_grid(2)
    bc = BoundaryCondition.empty(g)
    bc.kind[g.is_boundary()] = BC_NEUMANN
    op = tpfa_discretize(g, isotropic_perm(g, 1.0), bc)
    chi = np.ones(g.n_cells * g.dim)
    flux = op.flux_chi @ chi
    interior = ~g.is_boundary()
    assert np.allclose(flux[interior], -1.0)
    assert np.allclose(flux[~interior], 0.0)


@st.composite
def face_row_data(draw):
    """Arguments of :func:`_face_rows`: each row's two distinct columns, in
    either order, or one column and -1 for a boundary row; random keep
    flags, never on a -1; nonzero values, the second set sometimes one
    scalar."""
    n_cols = draw(st.integers(2, 8))
    n = draw(st.integers(0, 12))
    pair = st.lists(st.integers(0, n_cols - 1), min_size=2, max_size=2, unique=True)
    cols = np.array(draw(st.lists(pair, min_size=n, max_size=n)), dtype=int).reshape(n, 2)
    boundary = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    cols[boundary, 1] = -1
    flags = st.lists(st.booleans(), min_size=2 * n, max_size=2 * n)
    keep = np.array(draw(flags), dtype=bool).reshape(n, 2) & (cols >= 0)
    value = st.floats(-1e3, 1e3).filter(lambda v: v != 0.0)
    values = st.lists(value, min_size=n, max_size=n).map(np.array)
    v0 = draw(values)
    v1 = draw(value if draw(st.booleans()) else values)
    return cols, v0, v1, keep, n_cols


@settings(max_examples=100, deadline=None)
@given(face_row_data())
def test_face_rows_match_an_entrywise_reference(args):
    cols, v0, v1, keep, n_cols = args
    m = _face_rows(cols, v0, v1, keep, n_cols)
    assert m.shape == (keep.shape[0], n_cols)
    v1 = np.broadcast_to(v1, v0.shape)
    indptr, indices, data = [0], [], []
    for f in range(keep.shape[0]):
        row = sorted((cols[f, k], v) for k, v in enumerate((v0[f], v1[f])) if keep[f, k])
        indices += [c for c, _ in row]
        data += [v for _, v in row]
        indptr.append(len(indices))
    assert np.array_equal(m.indptr, indptr)
    assert np.array_equal(m.indices, np.array(indices, dtype=int))
    assert np.array_equal(m.data, np.array(data, dtype=float))
    assert np.all(m.data != 0.0)


def test_neumann_trace_one_sided():
    g = line_grid(2)
    bc = BoundaryCondition.empty(g)
    bnd = np.flatnonzero(g.is_boundary())
    bc.kind[bnd] = BC_NEUMANN
    # exact p = x with K = 1: Darcy flux is -1 along +x, so the outward
    # flux density is +1 at the left end and -1 at the right end
    fc = g.face_centers_global()
    left = bnd[np.argmin(fc[bnd, 0])]
    right = bnd[np.argmax(fc[bnd, 0])]
    bc.value[left] = 1.0
    bc.value[right] = -1.0
    op = tpfa_discretize(g, isotropic_perm(g, 1.0), bc)
    p = g.cell_centers_global()[:, 0]
    trace = op.trace_p @ p + op.trace_g @ bc.value
    assert abs(trace[left] - 0.0) < 1e-12
    assert abs(trace[right] - 1.0) < 1e-12


def test_wrong_perm_shape_rejected():
    g = ambient_grid(2)
    bc = dirichlet_bc(g, lambda x: x[:, 0])
    with pytest.raises(DiscretizationError):
        tpfa_discretize(g, np.ones((g.n_cells + 1, 2, 2)), bc)


def test_bc_length_mismatch_rejected():
    g = ambient_grid(2)
    bc = BoundaryCondition(
        kind=np.zeros(3, dtype=int), value=np.zeros(3)
    )
    with pytest.raises(DiscretizationError):
        tpfa_discretize(g, isotropic_perm(g, 1.0), bc)


@pytest.mark.parametrize("scheme", [tpfa_discretize, mpfa_discretize], ids=["tpfa", "mpfa"])
def test_unknown_bc_kind_rejected(scheme):
    g = ambient_grid(3)
    bc = dirichlet_bc(g, lambda x: x[:, 0])
    bc.kind[np.flatnonzero(g.is_boundary())[2]] = 7
    with pytest.raises(DiscretizationError, match="unknown boundary condition kind 7"):
        scheme(g, isotropic_perm(g, 1.0), bc)


def random_spd(rng, n):
    L = rng.normal(size=(n, 2, 2))
    return L @ np.transpose(L, (0, 2, 1)) + 0.1 * np.eye(2)


def test_o_scheme_rows_are_continuous_local_and_numbering_free():
    # Cells take one of three SPD tensors by column stripes. Scaling every
    # cell's tensor by its own factor 1 + 1e-10 r_i may move the rows only
    # by about that much (continuity in the tensors). The grid has a slit
    # with a tip and Dirichlet, Neumann and mortar faces. Its vertical faces
    # right of x = 0.5 are numbered in reverse, so that regions of equal
    # shape and tensors differ in the local numbering of their sub-faces.
    fault = FaultConfig(
        p0=(0.0, 0.5), p1=(0.625, 0.5), aperture=0.01,
        k_parallel=1.0, k_perp=(1.0, 1.0), k_t=(0.0, 0.0), name="F",
    )
    mesh = build_cartesian_md_mesh((0.0, 0.0), (1.0, 0.75), (8, 6), [fault.spec()])
    g = mesh.subdomains[0]
    order = np.arange(g.n_faces)
    flip = np.flatnonzero((g.face_axis == 0) & (g.face_centers[:, 0] > 0.5))
    order[flip] = flip[::-1]
    g = dataclasses.replace(g, **{
        k: getattr(g, k)[order]
        for k in ("face_index", "face_cells", "face_bnd", "face_cut", "face_side")
    })
    bc = BoundaryCondition.empty(g)
    bnd = g.is_boundary()
    bc.kind[bnd] = BC_NEUMANN
    bc.kind[bnd & np.isin(g.face_bnd, [0, 3])] = BC_DIRICHLET  # x- and y+
    bc.kind[g.face_cut >= 0] = BC_MORTAR
    rng = np.random.default_rng(5)
    K = random_spd(rng, 3)
    perm = K[(g.cell_centers[:, 0] // 0.25).astype(int) % 3]
    scale = 1.0 + 1e-10 * (1.0 + rng.permutation(g.n_cells))
    names = ("flux_p", "flux_g", "flux_chi", "trace_p", "trace_g", "trace_chi")
    a = mpfa_discretize(g, perm, bc)
    b = mpfa_discretize(g, perm * scale[:, None, None], bc)
    for name in names:
        x, y = getattr(a, name), getattr(b, name)
        assert abs(x - y).max() <= 1e-7 * abs(y).max(), name
    # Locality and numbering: the vertical faces on a stripe's center line
    # see that stripe's cells only, so their rows must match a grid of that
    # stripe's tensor alone, on either side of the renumbered half.
    xf = g.face_centers[:, 0]
    for t, x0 in ((0, 0.125), (1, 0.375), (2, 0.625), (0, 0.875)):
        rows = np.flatnonzero((g.face_axis == 0) & np.isclose(xf, x0))
        c = mpfa_discretize(g, np.tile(K[t], (g.n_cells, 1, 1)), bc)
        for name in names:
            x, y = getattr(a, name)[rows], getattr(c, name)[rows]
            assert abs(x - y).max() <= 1e-12 * abs(y).max(), name


def fault_network(nx, ny, j1, i2, j3, i3a, i3b, i4):
    """A unit square of nx x ny cells cut by a full-width fault at row j1,
    a fault from it to the top boundary at column i2 (T), a fault at row
    j3 from column i3a to i3b crossing that one with two immersed tips (X)
    and a fault from the bottom boundary up to the first at column i4 (T)."""
    hx, hy = 1.0 / nx, 1.0 / ny

    def fault(p0, p1, name):
        return FaultConfig(
            p0=p0, p1=p1, aperture=0.01, k_parallel=1.0, k_perp=(1.0, 1.0),
            k_t=(0.0, 0.0), name=name,
        ).spec()

    faults = [
        fault((0.0, j1 * hy), (1.0, j1 * hy), "F1"),
        fault((i2 * hx, j1 * hy), (i2 * hx, 1.0), "F2"),
        fault((i3a * hx, j3 * hy), (i3b * hx, j3 * hy), "F3"),
        fault((i4 * hx, 0.0), (i4 * hx, j1 * hy), "F4"),
    ]
    return build_cartesian_md_mesh((0.0, 0.0), (1.0, 1.0), (nx, ny), faults)


@st.composite
def fault_networks(draw):
    """A :func:`fault_network` with drawn positions, a full tensor, a
    gradient and the boundary sides that are Dirichlet."""
    nx = draw(st.integers(5, 10))
    ny = draw(st.integers(5, 10))
    j1 = draw(st.integers(1, ny - 3))
    i2 = draw(st.integers(2, nx - 2))
    j3 = draw(st.integers(j1 + 1, ny - 1))
    i3a = draw(st.integers(1, i2 - 1))
    i3b = draw(st.integers(i2 + 1, nx - 1))
    i4 = draw(st.integers(1, nx - 1).filter(lambda i: i != i2))
    mesh = fault_network(nx, ny, j1, i2, j3, i3a, i3b, i4)
    kxx, kyy = draw(st.floats(0.2, 5.0)), draw(st.floats(0.2, 5.0))
    kxy = draw(st.floats(-0.9, 0.9)) * np.sqrt(kxx * kyy)
    grad = np.array([draw(st.floats(-3.0, 3.0)), draw(st.floats(-3.0, 3.0))])
    dirichlet_sides = draw(st.sets(st.integers(0, 3)))
    return mesh, np.array([[kxx, kxy], [kxy, kyy]]), grad, dirichlet_sides


@settings(max_examples=30, deadline=None)
@given(fault_networks())
def test_mpfa_reproduces_linear_fields_on_fault_networks(case):
    mesh, K, grad, dirichlet_sides = case
    g = mesh.subdomains[0]
    counts = np.bincount(g.face_nodes.ravel())
    assert {5, 7, 8} <= set(counts.tolist())  # tip, T and X nodes
    exact = lambda x: x @ grad + 0.5
    xf = g.face_centers
    bnd = g.is_boundary()
    mortar = mesh.mortar_face_mask(0)
    bc = BoundaryCondition.empty(g)
    bc.kind[bnd] = BC_NEUMANN
    bc.kind[bnd & np.isin(g.face_bnd, list(dirichlet_sides))] = BC_DIRICHLET
    bc.kind[mortar] = BC_MORTAR
    density = normals(g) @ (-K @ grad)  # along the face normal
    bc.value[:] = np.where(bc.kind == BC_DIRICHLET, exact(xf), density)
    bc.value[~bnd] = 0.0
    op = mpfa_discretize(g, np.tile(K, (g.n_cells, 1, 1)), bc)
    p = exact(g.cell_centers)
    flux = op.flux_p @ p + op.flux_g @ bc.value
    assert np.abs(flux - density * g.face_areas).max() < 1e-10
    trace = op.trace_p @ p + op.trace_g @ bc.value
    assert np.abs(trace - exact(xf)).max() < 1e-10


@settings(max_examples=30, deadline=None)
@given(fault_networks(), st.data())
def test_discretize_matches_the_full_o_scheme(case, data):
    # discretize runs the O-scheme only on faces with a node of a full
    # tensor cell and takes the two-point rows elsewhere. On a fault network
    # with random grid-aligned anisotropy, full tensors go on a few cells:
    # one next to a slit, one on the domain boundary and a few anywhere.
    mesh, K, _, dirichlet_sides = case
    assume(abs(K[0, 1]) > 1e-3 * K.max())  # K must count as a full tensor
    g = mesh.subdomains[0]
    fc = g.face_cells
    slit_cells = np.unique(fc[g.face_cut >= 0, 0])
    boundary_cells = np.unique(fc[g.face_bnd >= 0, 0])
    cells = [
        data.draw(st.sampled_from(slit_cells.tolist())),
        data.draw(st.sampled_from(boundary_cells.tolist())),
        *data.draw(st.lists(st.integers(0, g.n_cells - 1), max_size=3)),
    ]
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    perm = np.zeros((g.n_cells, 2, 2))
    perm[:, [0, 1], [0, 1]] = 10.0 ** rng.uniform(-2.0, 2.0, size=(g.n_cells, 2))
    perm[cells] = K
    bc = BoundaryCondition.empty(g)
    bnd = g.is_boundary()
    bc.kind[bnd] = BC_NEUMANN
    bc.kind[bnd & np.isin(g.face_bnd, list(dirichlet_sides))] = BC_DIRICHLET
    bc.kind[mesh.mortar_face_mask(0)] = BC_MORTAR
    a = discretize(g, perm, bc)
    b = mpfa_discretize(g, perm, bc)
    assert 0 < a.multipoint_faces < b.multipoint_faces == g.n_faces
    for name in ("flux_p", "flux_g", "flux_chi", "trace_p", "trace_g", "trace_chi"):
        x, y = getattr(a, name), getattr(b, name)
        assert np.array_equal(x.indptr, y.indptr), name
        assert np.array_equal(x.indices, y.indices), name
        assert abs(x - y).max() <= 1e-12 * abs(y).max(), name
