"""Mixed-dimensional Cartesian mesh construction tests.

Entity counts for the reference configurations were derived by hand from
the Cartesian layout: an n x n grid cut by one full horizontal fault has
n*(n+1) vertical edges plus n*n + 2*n horizontal edges (the slit row is
duplicated), and the fault line itself carries n cells and n+1 faces.
"""

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from mdflow.config import BUILTIN_CASES, FaultConfig, builtin_case
from mdflow.mdmesh import FaultSpec, MeshError, build_cartesian_md_mesh


def one_fault(aperture=0.01, k_t=(80.0, 80.0), p0=(0.0, 0.5), p1=(1.0, 0.5)):
    return FaultConfig(
        p0=p0, p1=p1, aperture=aperture, k_parallel=100.0,
        k_perp=(100.0, 100.0), k_t=k_t, name="F",
    ).spec()


def test_no_faults_single_subdomain():
    mesh = build_cartesian_md_mesh((0.0, 0.0), (1.0, 1.0), (4, 4), [])
    assert len(mesh.subdomains) == 1
    assert mesh.interfaces == []
    assert mesh.info[0].kind == "matrix"
    assert mesh.subdomains[0].n_cells == 16
    mesh.validate()


def test_one_fault_entity_counts():
    mesh = build_cartesian_md_mesh((0.0, 0.0), (1.0, 1.0), (4, 4), [one_fault()])
    amb, flt = mesh.subdomains
    assert (amb.dim, amb.n_cells, amb.n_faces) == (2, 16, 44)
    assert (flt.dim, flt.n_cells, flt.n_faces) == (1, 4, 5)
    assert mesh.info[0].kind == "matrix"
    assert mesh.info[1].kind == "fault"
    assert len(mesh.interfaces) == 2
    assert [i.side for i in mesh.interfaces] == [1, 2]
    assert [i.side_sign for i in mesh.interfaces] == [-1, 1]
    for itf in mesh.interfaces:
        assert itf.n_mortar == 4
        assert itf.lower == 1 and itf.higher == 0
    mesh.validate()


def test_one_fault_geometry():
    mesh = build_cartesian_md_mesh((0.0, 0.0), (1.0, 1.0), (4, 4), [one_fault()])
    amb, flt = mesh.subdomains
    assert np.allclose(amb.cell_volumes, 0.0625)
    assert np.allclose(flt.cell_volumes, 0.25)
    cf = flt.cell_centers_global()
    assert np.allclose(cf[:, 1], 0.5)
    assert np.allclose(np.sort(cf[:, 0]), [0.125, 0.375, 0.625, 0.875])


def test_mortar_faces_flagged_on_ambient():
    mesh = build_cartesian_md_mesh((0.0, 0.0), (1.0, 1.0), (4, 4), [one_fault()])
    amb = mesh.subdomains[0]
    mask = mesh.mortar_face_mask(0)
    assert mask.sum() == 8
    # cut faces carry the fault index, ordinary faces -1
    assert np.all(amb.face_cut[mask] == 0)
    assert np.all(amb.face_cut[~mask] == -1)
    sides = sorted(amb.face_side[mask].tolist())
    assert sides == [1] * 4 + [2] * 4
    assert np.all(amb.face_side[~mask] == 0)


def test_t_junction_counts():
    faults = [
        one_fault(),
        one_fault(p0=(0.5, 0.5), p1=(0.5, 1.0)),
    ]
    mesh = build_cartesian_md_mesh((0.0, 0.0), (1.0, 1.0), (8, 8), faults)
    dims = [(g.dim, g.n_cells, g.n_faces) for g in mesh.subdomains]
    assert dims == [(2, 64, 156), (1, 8, 10), (1, 4, 5), (0, 1, 0)]
    kinds = [info.kind for info in mesh.info]
    assert kinds == ["matrix", "fault", "fault", "intersection"]
    table = sorted((i.lower, i.higher, i.n_mortar) for i in mesh.interfaces)
    assert table == [
        (1, 0, 8),
        (1, 0, 8),
        (2, 0, 4),
        (2, 0, 4),
        (3, 1, 1),
        (3, 1, 1),
        (3, 2, 1),
    ]
    mesh.validate()


def test_three_plane_cube_counts():
    cfg = builtin_case("cube3d")
    mesh = build_cartesian_md_mesh(
        cfg.domain_lo, cfg.domain_hi, (2, 2, 2), cfg.fault_specs()
    )
    dims = sorted(((g.dim, g.n_cells, g.n_faces) for g in mesh.subdomains), reverse=True)
    assert dims == [
        (3, 8, 48),
        (2, 4, 16), (2, 4, 16), (2, 4, 16),
        (1, 2, 4), (1, 2, 4), (1, 2, 4),
        (0, 1, 0),
    ]
    assert len(mesh.interfaces) == 24
    by_kind = {}
    for itf in mesh.interfaces:
        key = (mesh.info[itf.higher].kind, mesh.subdomains[itf.lower].dim, itf.n_mortar)
        by_kind[key] = by_kind.get(key, 0) + 1
    assert by_kind == {
        ("matrix", 2, 4): 6,
        ("fault", 1, 2): 12,
        ("intersection", 0, 1): 6,
    }
    mesh.validate()


def test_hierarchy_order_is_pinned():
    # Subdomain and interface order fix the row order of every output
    # table; the count tests above sort theirs and cannot see a reorder.
    expected = {
        "network2d": (
            [
                (2, "matrix", ()), (1, "fault", (0,)), (1, "fault", (1,)),
                (1, "fault", (2,)), (1, "fault", (3,)), (1, "fault", (4,)),
                (0, "intersection", (3, 4)), (0, "intersection", (0, 3)),
                (0, "intersection", (0, 1)), (0, "intersection", (1, 2)),
            ],
            [
                (1, 0, 1), (1, 0, 2), (2, 0, 1), (2, 0, 2), (3, 0, 1), (3, 0, 2),
                (4, 0, 1), (4, 0, 2), (5, 0, 1), (5, 0, 2),
                (6, 4, 2), (6, 4, 1), (6, 5, 1),
                (7, 1, 2), (7, 1, 1), (7, 4, 2),
                (8, 1, 2), (8, 1, 1), (8, 2, 1),
                (9, 2, 2), (9, 2, 1), (9, 3, 2), (9, 3, 1),
            ],
        ),
        "cube3d": (
            [
                (3, "matrix", ()), (2, "fault", (0,)), (2, "fault", (1,)),
                (2, "fault", (2,)), (1, "intersection", (1, 2)),
                (1, "intersection", (0, 2)), (1, "intersection", (0, 1)),
                (0, "intersection", (0, 1, 2)),
            ],
            [
                (1, 0, 1), (1, 0, 2), (2, 0, 1), (2, 0, 2), (3, 0, 1), (3, 0, 2),
                (4, 2, 1), (4, 2, 2), (4, 3, 1), (4, 3, 2),
                (5, 1, 1), (5, 1, 2), (5, 3, 1), (5, 3, 2),
                (6, 1, 1), (6, 1, 2), (6, 2, 1), (6, 2, 2),
                (7, 4, 2), (7, 4, 1), (7, 5, 2), (7, 5, 1), (7, 6, 2), (7, 6, 1),
            ],
        ),
    }
    for case, (subdomains, interfaces) in expected.items():
        cfg = builtin_case(case)
        res = (8,) * len(cfg.resolution)
        mesh = build_cartesian_md_mesh(cfg.domain_lo, cfg.domain_hi, res, cfg.fault_specs())
        assert [
            (g.dim, info.kind, info.fault_ids) for g, info in zip(mesh.subdomains, mesh.info)
        ] == subdomains
        assert [(i.lower, i.higher, i.side) for i in mesh.interfaces] == interfaces


def test_3d_t_junction_rejected():
    faults = [
        one_fault(p0=(0.5, 0.0, 0.0), p1=(0.5, 1.0, 1.0)),
        one_fault(p0=(0.0, 0.5, 0.0), p1=(0.5, 0.5, 1.0)),
    ]
    faults[1].name = "G"
    with pytest.raises(MeshError) as err:
        build_cartesian_md_mesh((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (4, 4, 4), faults)
    assert str(err.value) == (
        "fault 'G' ends on fault 'F': T-junctions along a line are not supported in 3D"
    )


@pytest.mark.parametrize(
    "p0,p1,needle",
    [
        ((0.0, 0.0), (1.0, 0.0), "strictly inside the domain"),
        ((0.0, 0.5), (1.5, 0.5), "extends outside the domain"),
    ],
)
def test_fault_outside_domain_interior_rejected(p0, p1, needle):
    with pytest.raises(MeshError, match=needle):
        build_cartesian_md_mesh((0.0, 0.0), (1.0, 1.0), (4, 4), [one_fault(p0=p0, p1=p1)])


def _ends_on(fi, fj) -> bool:
    """Whether fault ``fi`` (axis, plane, {axis: (lo, hi)}) ends on ``fj``
    along a line: a 3D T- or L-junction."""
    (ai, pi, ei), (aj, pj, ej) = fi, fj
    if ai == aj:
        return False
    (c,) = set(ei) & set(ej)  # the axis the common line runs along
    overlap = min(ei[c][1], ej[c][1]) - max(ei[c][0], ej[c][0]) > 0
    return overlap and pj in ei[aj] and ej[ai][0] <= pi <= ej[ai][1]


@st.composite
def fault_boxes(draw):
    """A box of 2 to 4 cells per axis with two to four faults on distinct
    grid planes, each spanning the box or ending inside it along every
    in-plane axis. 3D T-junctions are excluded."""
    dim = draw(st.sampled_from([2, 3]))
    m = [draw(st.integers(2, 4)) for _ in range(dim)]
    lo = [draw(st.sampled_from([-1.0, 0.0, 0.5])) for _ in range(dim)]
    size = [draw(st.sampled_from([0.5, 1.0, 3.0])) for _ in range(dim)]
    plane = st.integers(0, dim - 1).flatmap(
        lambda a: st.tuples(st.just(a), st.integers(1, m[a] - 1))
    )
    faults = []
    for axis, at in draw(st.lists(plane, min_size=2, max_size=4, unique=True)):
        ext = {}
        for b in range(dim):
            if b != axis:
                i0 = draw(st.integers(0, m[b] - 1))
                ext[b] = draw(st.sampled_from([(0, m[b]), (i0, draw(st.integers(i0 + 1, m[b])))]))
        faults.append((axis, at, ext))
    if dim == 3:
        assume(not any(_ends_on(fi, fj) for fi in faults for fj in faults))
    return lo, size, m, faults


def _build(box, k):
    lo, size, m, faults = box
    h = [s / c for s, c in zip(size, m)]
    specs = []
    for axis, plane, ext in faults:
        ends = {**ext, axis: (plane, plane)}
        p0 = tuple(lo[b] + ends[b][0] * h[b] for b in range(len(m)))
        p1 = tuple(lo[b] + ends[b][1] * h[b] for b in range(len(m)))
        specs.append(one_fault(p0=p0, p1=p1))
    hi = [a + s for a, s in zip(lo, size)]
    return build_cartesian_md_mesh(lo, hi, [k * c for c in m], specs), specs


def _extent(specs, fault_ids, axis):
    """Length of the span along ``axis`` that the faults share."""
    spans = [sorted((float(specs[f].p0[axis]), float(specs[f].p1[axis]))) for f in fault_ids]
    return min(hi for _, hi in spans) - max(lo for lo, _ in spans)


@settings(max_examples=100, deadline=None)
@given(fault_boxes())
# Two planes whose spans along their common axis only touch: no line.
@example(([0.0] * 3, [1.0] * 3, [2] * 3, [(0, 1, {1: (0, 2), 2: (0, 1)}),
                                         (1, 1, {0: (0, 2), 2: (1, 2)})]))
def test_hierarchy_properties(box):
    mesh, specs = _build(box, 1)
    mesh.validate()
    for g in mesh.subdomains:
        # An interior face's center lies strictly between its cells'
        # centers along its axis and level with both on every other axis.
        inner = ~g.is_boundary()
        x, cells = g.face_centers[inner], g.cell_centers[g.face_cells[inner]]
        lo, hi = cells.min(axis=1), cells.max(axis=1)
        along = np.eye(g.dim, dtype=bool)[g.face_axis[inner]]
        assert np.all(np.where(along, (lo < x) & (x < hi), (lo == x) & (x == hi)))
        if g.dim == 2:
            # A face's two nodes are the lattice nodes at its low and high end.
            row = g.shape[0] + 1
            ends = 2 * np.stack([g.face_nodes % row, g.face_nodes // row], axis=2)
            across = np.eye(2, dtype=int)[1 - g.face_axis][:, None]
            assert np.array_equal(ends, g.face_index[:, None] + [[-1], [1]] * across)
    for itf in mesh.interfaces:
        gl, gh = mesh.subdomains[itf.lower], mesh.subdomains[itf.higher]
        # Mortar cell m pairs lower cell m with the higher face at the same
        # place.
        assert np.allclose(
            gh.face_centers_global()[itf.higher_faces], gl.cell_centers_global(), atol=1e-12
        )
        fids = mesh.info[itf.lower].fault_ids
        if mesh.info[itf.higher].kind == "matrix":
            axes = specs[fids[0]].inplane_axes
            measure = np.prod([_extent(specs, fids, a) for a in axes])
        elif gl.dim == 1:
            along = int(np.argmax(np.abs(gl.frame_axes[0])))
            measure = _extent(specs, fids, along)
        else:
            measure = 1.0
        assert np.isclose(gl.cell_volumes.sum(), measure, rtol=1e-12)

    fine, _ = _build(box, 2)
    assert [(g.dim, i.kind, i.fault_ids) for g, i in zip(fine.subdomains, fine.info)] == [
        (g.dim, i.kind, i.fault_ids) for g, i in zip(mesh.subdomains, mesh.info)
    ]
    table = lambda msh: [(i.lower, i.higher, i.side) for i in msh.interfaces]
    assert table(fine) == table(mesh)
    for g, gf in zip(mesh.subdomains, fine.subdomains):
        assert gf.n_cells == 2**g.dim * g.n_cells


def test_refine_doubles_resolution():
    cfg = builtin_case("case1")
    for nf in [4, 8, 16, 32, 64]:
        mesh = build_cartesian_md_mesh(
            cfg.domain_lo, cfg.domain_hi, (nf, nf), cfg.fault_specs()
        )
        fault = mesh.subdomains[1]
        assert fault.n_cells == nf
        assert mesh.subdomains[0].n_cells == nf * nf
        for itf in mesh.interfaces:
            assert itf.n_mortar == nf


@pytest.mark.parametrize("case", BUILTIN_CASES)
def test_mortar_cells_sit_on_their_faces(case):
    # network2d has tips, a T and an X; cube3d has lines and a 0-d point.
    cfg = builtin_case(case)
    mesh = build_cartesian_md_mesh(cfg.domain_lo, cfg.domain_hi, cfg.resolution, cfg.fault_specs())
    mesh.validate()
    for itf in mesh.interfaces:
        lower, higher = mesh.subdomains[itf.lower], mesh.subdomains[itf.higher]
        # A lower grid is listed after the grid it lies in.
        assert itf.lower > itf.higher
        # Mortar cell m is the lower cell m and the face it pairs with,
        # which lies inside the domain, on one cut.
        assert np.allclose(higher.face_centers_global()[itf.higher_faces],
                           lower.cell_centers_global(), rtol=0.0, atol=1e-12)
        assert np.all(higher.face_bnd[itf.higher_faces] == -1)
        assert np.unique(higher.face_cut[itf.higher_faces]).size == 1


@pytest.mark.parametrize("case", BUILTIN_CASES)
def test_slit_faces_are_the_two_sided_mortar_faces(case):
    # A cut through a grid splits its faces into two copies, one on each
    # side; an interface on each side pairs them with the lower grid. A
    # lower grid that ends on a higher one meets it from one side, through
    # faces that are not split.
    cfg = builtin_case(case)
    mesh = build_cartesian_md_mesh(cfg.domain_lo, cfg.domain_hi, cfg.resolution, cfg.fault_specs())
    sides = {}
    for itf in mesh.interfaces:
        sides.setdefault((itf.lower, itf.higher), []).append(itf)
    for i, grid in enumerate(mesh.subdomains):
        slit = np.zeros(grid.n_faces, dtype=np.int8)
        for pair in sides.values():
            if len(pair) == 2 and pair[0].higher == i:
                assert sorted(itf.side for itf in pair) == [1, 2]
                for itf in pair:
                    slit[itf.higher_faces] = itf.side
        assert np.array_equal(grid.face_side, slit)


def test_deterministic_rebuild():
    cfg = builtin_case("network2d")
    a = build_cartesian_md_mesh(cfg.domain_lo, cfg.domain_hi, (8, 8), cfg.fault_specs())
    b = build_cartesian_md_mesh(cfg.domain_lo, cfg.domain_hi, (8, 8), cfg.fault_specs())
    assert len(a.subdomains) == len(b.subdomains)
    for ga, gb in zip(a.subdomains, b.subdomains):
        assert np.array_equal(ga.cell_centers, gb.cell_centers)
        assert np.array_equal(ga.face_cells, gb.face_cells)
    for ia, ib in zip(a.interfaces, b.interfaces):
        assert np.array_equal(ia.higher_faces, ib.higher_faces)


_NO_SUBDOMAIN = "interface 0 names a subdomain that does not exist"


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda itf: {"side": 3}, "interface side must be 1 or 2, got 3"),
        (lambda itf: {"lower": 7}, _NO_SUBDOMAIN),
        (lambda itf: {"higher": -1}, _NO_SUBDOMAIN),
        (lambda itf: {"higher_faces": np.r_[44, itf.higher_faces[1:]]},
         "interface 0 names a face that does not exist"),
        (lambda itf: {"higher_faces": itf.higher_faces[:3]},
         "interface 0 has 3 mortar cells for 4 lower cells"),
        (lambda itf: {"lower": 0}, "interface must connect dimensions differing by 1"),
        (lambda itf: {"higher_faces": np.full(4, itf.higher_faces[0])},
         "mortar cells must map to distinct higher faces"),
    ],
    ids=["side", "subdomain", "negative-subdomain", "face", "count", "dimension", "distinct"],
)
def test_mesh_with_a_bad_interface_raises_mesh_error(edit, message):
    cfg = builtin_case("case1")
    mesh = build_cartesian_md_mesh(cfg.domain_lo, cfg.domain_hi, (4, 4), cfg.fault_specs())
    # The first interface pairs the fault's 4 cells with 4 of the 44 faces
    # of the matrix.
    itf = mesh.interfaces[0]
    assert (itf.lower, itf.higher, itf.side, itf.n_mortar) == (1, 0, 1, 4)
    assert mesh.subdomains[0].n_faces == 44
    # The side is checked by the constructor, everything else by the mesh.
    with pytest.raises(MeshError, match=f"^{re.escape(message)}$"):
        mesh.interfaces[0] = dataclasses.replace(itf, **edit(itf))
        mesh.validate()


@pytest.mark.parametrize("s, offset", [(1e-9, 0.0), (1e-9, 1e3), (1.0, 1e6), (1e9, 0.0)])
def test_fault_plane_found_at_any_scale(s, offset):
    spec = FaultSpec((s * offset, s * (offset + 0.5)), (s * (offset + 1.0), s * (offset + 0.5)))
    assert spec.axis == 1
    with pytest.raises(MeshError, match="exactly one coordinate"):
        FaultSpec((s * offset, s * offset), (s * offset, s * offset))


@pytest.mark.parametrize("case", ["network2d", "cube3d"])
@pytest.mark.parametrize("s, offset", [(1e-9, 0.0), (1e-8, 1e3), (1.0, 1e6), (1e9, 1e3)])
def test_mesh_does_not_depend_on_units_or_origin(case, s, offset):
    # Every decision is taken on the node lattice, so only the coordinates
    # change, and they change as s (x + offset).
    cfg = builtin_case(case)
    at = lambda p: tuple(s * (x + offset) for x in p)
    specs = [FaultSpec(at(f.p0), at(f.p1), f.name) for f in cfg.faults]
    res = (8,) * len(cfg.resolution)
    ref = build_cartesian_md_mesh(cfg.domain_lo, cfg.domain_hi, res, cfg.fault_specs())
    mesh = build_cartesian_md_mesh(at(cfg.domain_lo), at(cfg.domain_hi), res, specs)
    for a, b in zip(ref.subdomains, mesh.subdomains):
        for name in ("face_index", "face_cells", "face_bnd", "face_cut", "face_side"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
        assert np.allclose(
            b.cell_centers_global(), s * (a.cell_centers_global() + offset), rtol=1e-12, atol=0.0
        )
        assert np.allclose(b.cell_volumes, s**a.dim * a.cell_volumes, rtol=1e-12, atol=0.0)
    assert [(i.lower, i.higher, i.side) for i in ref.interfaces] == [
        (i.lower, i.higher, i.side) for i in mesh.interfaces
    ]
    for a, b in zip(ref.interfaces, mesh.interfaces):
        assert np.array_equal(a.higher_faces, b.higher_faces)


def test_mortar_measures_checked_in_a_tiny_box():
    # Mortar cells 2.5e-9 long: numpy's default absolute tolerance of 1e-8
    # would accept any measure.
    s = 1e-8
    mesh = build_cartesian_md_mesh(
        (0.0, 0.0), (s, s), (4, 4), [one_fault(p0=(0.0, s / 2), p1=(s, s / 2))]
    )
    mesh.validate()
    lower = mesh.subdomains[1]
    mesh.subdomains[1] = dataclasses.replace(lower, widths=tuple(2.0 * w for w in lower.widths))
    with pytest.raises(MeshError, match="measures"):
        mesh.validate()


def _defect(grid, name):
    """A copy of the grid's face data with one defect."""
    f = int(np.flatnonzero(~grid.is_boundary() & (grid.face_axis == 0))[0])
    names = ("face_index", "face_cells", "face_bnd", "face_cut", "face_side")
    faces = {k: getattr(grid, k).copy() for k in names}
    if name == "off-lattice":
        faces["face_index"][f, 1] += 1  # even along both axes
    elif name == "beyond":
        faces["face_index"][f, 0] = 2 * grid.shape[0] + 2
    elif name == "shifted":
        faces["face_index"][f, 0] += 2  # one node further along its axis
    elif name == "swapped":
        g = int(np.flatnonzero(~grid.is_boundary() & (grid.face_axis == 1))[-1])
        faces["face_cells"][[f, g]] = faces["face_cells"][[g, f]]
    elif name == "no-cell":
        faces["face_cells"][f, 1] = grid.n_cells
    elif name == "same-cell":
        faces["face_cells"][f, 1] = faces["face_cells"][f, 0]
    else:  # one face dropped or one doubled: a cell is not closed
        keep = np.r_[0:f, f + 1 : grid.n_faces] if name == "dropped" else np.r_[0 : grid.n_faces, f]
        faces = {k: v[keep] for k, v in faces.items()}
    return faces


@pytest.mark.parametrize(
    "defect",
    ["off-lattice", "beyond", "shifted", "swapped", "no-cell", "same-cell", "dropped", "doubled"],
)
def test_grid_with_a_face_off_its_cells_is_rejected(defect):
    # A grid checks its faces against its lattice when it is made, so a
    # grid with any of these defects cannot exist.
    fault = one_fault(p0=(0.0, 2 / 3), p1=(0.5, 2 / 3))  # a slit with a tip
    grid = build_cartesian_md_mesh((0.0, 0.0), (1.0, 1.0), (4, 3), [fault]).subdomains[0]
    with pytest.raises(MeshError):
        dataclasses.replace(grid, **_defect(grid, defect))


def test_off_grid_fault_rejected():
    with pytest.raises(MeshError):
        build_cartesian_md_mesh(
            (0.0, 0.0), (1.0, 1.0), (4, 4), [one_fault(p0=(0.0, 0.33), p1=(1.0, 0.33))]
        )


def test_partial_fault_must_end_on_grid_line():
    with pytest.raises(MeshError):
        build_cartesian_md_mesh(
            (0.0, 0.0), (1.0, 1.0), (4, 4), [one_fault(p0=(0.1, 0.5), p1=(1.0, 0.5))]
        )


def test_overlapping_faults_rejected():
    faults = [one_fault(), one_fault(p0=(0.25, 0.5), p1=(0.75, 0.5))]
    with pytest.raises(MeshError):
        build_cartesian_md_mesh((0.0, 0.0), (1.0, 1.0), (4, 4), faults)


def test_ambient_dimension_guard():
    with pytest.raises(MeshError):
        build_cartesian_md_mesh((0.0,), (1.0,), (2,), [])
