"""Global assembly and solve tests.

The two quantitative oracles are hand solutions. Series resistance: matrix
K=1 above and below a fault with k_perp=0.01 and aperture 0.01 gives two
interface resistances of 0.5 each on top of the two matrix half-columns,
so a unit head drop drives a flux of 0.25 per mortar cell on a 4-cell
fault. Manufactured coupled field: fault pressure 2x+5 with matrix slopes
156 above and 154 below satisfies the interface law of the case1 material
set with a constant fault source of -2; all fields are piecewise linear,
hence reproduced to machine precision.
"""

import importlib
import logging
import math
import re

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from dataclasses import replace
from hypothesis import HealthCheck, given, settings, strategies as st

from mdflow.config import BcClause, CaseConfig, FaultConfig, builtin_case
from mdflow.discretize import (
    BC_DIRICHLET,
    BC_MORTAR,
    BC_NEUMANN,
    DiscretizationError,
    _gradient_reconstruction,
    discretize,
)
from mdflow.equidim import EquiDimCase, solve_equidim
from mdflow.mdassembly import (
    _COARSEST,
    AssemblyError,
    MaterialSet,
    SolverError,
    _blocks,
    _krylov_solve,
    _nested_dissection,
    _runs,
    _static_pivot_solve,
    assemble_from_problems,
    assemble_global,
    boundary_condition_from_clauses,
    build_problems,
    mass_balance_report,
    solve,
)
from mdflow.mdmesh import build_cartesian_md_mesh
from mdflow.semilocal import InterfaceLawError, assemble_interface_blocks


def series_config(k_perp=0.01, k_t=(0.0, 0.0), n=4):
    fault = FaultConfig(
        p0=(0.0, 0.5), p1=(1.0, 0.5), aperture=0.01, k_parallel=1.0,
        k_perp=(k_perp, k_perp), k_t=k_t, name="F",
    )
    return CaseConfig(
        domain_lo=(0.0, 0.0), domain_hi=(1.0, 1.0), resolution=(n, n),
        matrix_k=1.0, matrix_regions=[], faults=[fault],
        bcs=[BcClause(2, "dirichlet", 1.0), BcClause(3, "dirichlet", 0.0)],
        name="series",
    )


def solve_config(cfg, formulation="semilocal"):
    mesh = build_cartesian_md_mesh(
        cfg.domain_lo, cfg.domain_hi, cfg.resolution, cfg.fault_specs()
    )
    system = assemble_global(mesh, cfg.material_set(formulation), cfg.bcs)
    return mesh, system, solve(system)


def test_unknown_count_case1_level0():
    cfg = builtin_case("case1")
    mesh = build_cartesian_md_mesh(
        cfg.domain_lo, cfg.domain_hi, (4, 4), cfg.fault_specs()
    )
    system = assemble_global(mesh, cfg.material_set(), cfg.bcs)
    # 16 matrix cells + 4 fault cells + 2 * 4 mortar cells
    assert system.n_unknowns == 28
    assert system.matrix.shape == (28, 28)


def test_constant_solution():
    cfg = builtin_case("case1")
    h = 3.25
    cfg = replace(cfg, bcs=[BcClause(s, "dirichlet", h) for s in range(4)])
    mesh, system, sol = solve_config(cfg)
    for p in sol.pressures:
        assert np.allclose(p, h, atol=1e-12)
    for lam in sol.lambdas:
        assert np.abs(lam).max() < 1e-12


def test_no_fault_linear_field():
    cfg = CaseConfig(
        domain_lo=(0.0, 0.0), domain_hi=(1.0, 1.0), resolution=(4, 4),
        matrix_k=2.0, matrix_regions=[], faults=[],
        bcs=[BcClause(2, "dirichlet", 1.0), BcClause(3, "dirichlet", 0.0)],
        name="plain",
    )
    mesh, system, sol = solve_config(cfg)
    y = mesh.subdomains[0].cell_centers_global()[:, 1]
    assert np.abs(sol.pressures[0] - (1.0 - y)).max() < 1e-12


def test_series_resistance():
    cfg = series_config()
    mesh, system, sol = solve_config(cfg)
    assert np.allclose(sol.pressures[1], 0.5, atol=1e-12)
    by_side = {itf.side: lam for itf, lam in zip(mesh.interfaces, sol.lambdas)}
    # positive flux runs from the fault into the upper matrix (side 1)
    assert np.allclose(by_side[1], 0.125, atol=1e-12)
    assert np.allclose(by_side[2], -0.125, atol=1e-12)
    g = mesh.subdomains[0]
    top = g.face_bnd == 3
    assert sol.fluxes[0][top].sum() == pytest.approx(0.5, abs=1e-12)
    y = g.cell_centers_global()[:, 1]
    exact = np.where(y < 0.5, 1.0 - 0.5 * y, 0.25 - 0.5 * (y - 0.5))
    assert np.abs(sol.pressures[0] - exact).max() < 1e-12


def test_manufactured_coupled_linear_field():
    cfg = builtin_case("case1")
    mesh = build_cartesian_md_mesh(
        cfg.domain_lo, cfg.domain_hi, (4, 4), cfg.fault_specs()
    )
    problems, iproblems = build_problems(mesh, cfg.material_set(), [])
    slope, offset, d_up, d_lo = 2.0, 5.0, 156.0, 154.0
    c_up, c_lo = offset - 2e-4, offset + 3e-4

    def p_matrix(x, y):
        up = slope * x + c_up + d_up * (y - 0.5)
        lo = slope * x + c_lo + d_lo * (y - 0.5)
        return np.where(y > 0.5, up, lo)

    amb, flt = problems
    ext = amb.grid.is_boundary() & (amb.bc.kind != 3)
    fc = amb.grid.face_centers_global()
    amb.bc.kind[ext] = BC_DIRICHLET
    amb.bc.value[ext] = p_matrix(fc[ext, 0], fc[ext, 1])
    extf = flt.grid.is_boundary() & (flt.bc.kind != 3)
    fcf = flt.grid.face_centers_global()
    flt.bc.kind[extf] = BC_DIRICHLET
    flt.bc.value[extf] = slope * fcf[extf, 0] + offset
    flt.source[:] = -2.0

    sol = solve(assemble_from_problems(mesh, problems, iproblems))
    cm = mesh.subdomains[0].cell_centers_global()
    assert np.abs(sol.pressures[0] - p_matrix(cm[:, 0], cm[:, 1])).max() < 1e-9
    cf = mesh.subdomains[1].cell_centers_global()
    assert np.abs(sol.pressures[1] - (slope * cf[:, 0] + offset)).max() < 1e-9
    by_side = {itf.side: lam for itf, lam in zip(mesh.interfaces, sol.lambdas)}
    assert np.allclose(by_side[1], -39.0, atol=1e-9)
    assert np.allclose(by_side[2], 38.5, atol=1e-9)
    # in-plane fault flux: -A grad p + coupling terms = -1.96 along +x
    inner = ~mesh.subdomains[1].is_boundary()
    assert np.allclose(sol.fluxes[1][inner], -1.96, atol=1e-9)


def test_local_and_semilocal_match_without_coupling():
    cfg = builtin_case("case1")
    cfg = replace(
        cfg, faults=[replace(cfg.faults[0], k_t=(0.0, 0.0))]
    )
    mesh = build_cartesian_md_mesh(
        cfg.domain_lo, cfg.domain_hi, (8, 8), cfg.fault_specs()
    )
    sys_l = assemble_global(mesh, cfg.material_set("local"), cfg.bcs)
    sys_sl = assemble_global(mesh, cfg.material_set("semilocal"), cfg.bcs)
    diff = (sys_l.matrix - sys_sl.matrix).tocoo()
    scale = np.abs(sys_l.matrix.data).max()
    assert (np.abs(diff.data).max() if diff.nnz else 0.0) <= 1e-14 * scale
    assert np.abs(sys_l.rhs - sys_sl.rhs).max() <= 1e-14 * np.abs(sys_l.rhs).max()


def test_superposition():
    rng = np.random.default_rng(11)
    cfg0 = builtin_case("case1")
    for _ in range(5):
        v1, v2 = rng.uniform(-5.0, 5.0, size=2)

        def with_values(b1, b2):
            cfg = builtin_case("case1")
            bcs = [
                BcClause(2, "dirichlet", b1, box=((0.25, 0.0), (0.75, 0.0))),
                BcClause(3, "dirichlet", b2, box=((0.0, 1.0), (0.25, 1.0))),
                BcClause(3, "dirichlet", b2, box=((0.75, 1.0), (1.0, 1.0))),
            ]
            return replace(cfg, bcs=bcs)

        _, _, sol1 = solve_config(with_values(v1, 0.0))
        _, _, sol2 = solve_config(with_values(0.0, v2))
        _, _, sol12 = solve_config(with_values(v1, v2))
        for a, b, c in zip(sol1.pressures, sol2.pressures, sol12.pressures):
            assert np.abs(a + b - c).max() < 1e-12 * max(1.0, abs(v1), abs(v2))
        for a, b, c in zip(sol1.lambdas, sol2.lambdas, sol12.lambdas):
            assert np.abs(a + b - c).max() < 1e-10 * max(1.0, abs(v1), abs(v2))


def test_mirror_symmetry():
    """Reflecting the geometry about the fault plane and negating the
    tangential coupling yields the reflected pressure field."""
    rng = np.random.default_rng(5)
    kt1, kt2 = rng.uniform(20.0, 70.0, size=2)
    kp1, kp2 = rng.uniform(50.0, 150.0, size=2)
    v1, v2, v3 = rng.uniform(0.0, 10.0, size=3)
    n = 8

    def config(k_perp, k_t, bcs):
        fault = FaultConfig(
            p0=(0.0, 0.5), p1=(1.0, 0.5), aperture=0.01, k_parallel=100.0,
            k_perp=k_perp, k_t=k_t, name="F",
        )
        return CaseConfig(
            domain_lo=(0.0, 0.0), domain_hi=(1.0, 1.0), resolution=(n, n),
            matrix_k=1.0, matrix_regions=[], faults=[fault], bcs=bcs,
            name="mirror",
        )

    bcs_a = [
        BcClause(2, "dirichlet", v1, box=((0.0, 0.0), (0.5, 0.0))),
        BcClause(2, "dirichlet", v2, box=((0.5, 0.0), (1.0, 0.0))),
        BcClause(3, "dirichlet", v3),
    ]
    bcs_b = [
        BcClause(3, "dirichlet", v1, box=((0.0, 1.0), (0.5, 1.0))),
        BcClause(3, "dirichlet", v2, box=((0.5, 1.0), (1.0, 1.0))),
        BcClause(2, "dirichlet", v3),
    ]
    mesh_a, _, sol_a = solve_config(config((kp1, kp2), (kt1, kt2), bcs_a))
    mesh_b, _, sol_b = solve_config(config((kp2, kp1), (-kt2, -kt1), bcs_b))

    ca = mesh_a.subdomains[0].cell_centers_global()
    cb = mesh_b.subdomains[0].cell_centers_global()
    lookup = {
        (round(x, 9), round(y, 9)): i for i, (x, y) in enumerate(cb)
    }
    perm = [lookup[(round(x, 9), round(1.0 - y, 9))] for x, y in ca]
    assert np.abs(sol_a.pressures[0] - sol_b.pressures[0][perm]).max() < 1e-8

    fa = mesh_a.subdomains[1].cell_centers_global()[:, 0]
    fb = mesh_b.subdomains[1].cell_centers_global()[:, 0]
    order_a, order_b = np.argsort(fa), np.argsort(fb)
    assert np.abs(
        sol_a.pressures[1][order_a] - sol_b.pressures[1][order_b]
    ).max() < 1e-8

    # interface fluxes swap sides under the reflection
    def lam_by_side(mesh, sol):
        out = {}
        for itf, lam in zip(mesh.interfaces, sol.lambdas):
            xs = mesh.subdomains[itf.lower].cell_centers_global()[:, 0]
            out[itf.side] = lam[np.argsort(xs)]
        return out

    la, lb = lam_by_side(mesh_a, sol_a), lam_by_side(mesh_b, sol_b)
    assert np.abs(la[1] - lb[2]).max() < 1e-8
    assert np.abs(la[2] - lb[1]).max() < 1e-8


def test_mass_balance_solved_cases():
    for name, n in (("case1", 8), ("network2d", 8)):
        cfg = builtin_case(name)
        cfg = replace(cfg, resolution=(n, n))
        mesh, system, sol = solve_config(cfg)
        rep = mass_balance_report(sol)
        assert rep["max_cell_residual"] <= 1e-10 * rep["scale"]
        assert abs(rep["global_residual"]) <= 1e-10 * rep["scale"]
        for sub in rep["subdomains"]:
            assert sub["max_residual"] <= 1e-10 * rep["scale"]


def scaled(cfg, s, offset=0.0):
    """``cfg`` with every coordinate x moved to s (x + offset), the
    apertures scaled by s and the Neumann values by 1/s: the same problem
    in other units, with the same pressures."""
    at = lambda p: tuple(s * (x + offset) for x in p)
    box = lambda b: b and (at(b[0]), at(b[1]))
    return replace(
        cfg,
        domain_lo=at(cfg.domain_lo), domain_hi=at(cfg.domain_hi),
        matrix_regions=[(at(lo), at(hi), k) for lo, hi, k in cfg.matrix_regions],
        faults=[replace(f, p0=at(f.p0), p1=at(f.p1), aperture=s * f.aperture) for f in cfg.faults],
        bcs=[
            replace(c, box=box(c.box), value=c.value / s if c.kind == "neumann" else c.value)
            for c in cfg.bcs
        ],
    )


def _small(case):
    cfg = builtin_case(case)
    return replace(cfg, resolution=(16, 16) if len(cfg.resolution) == 2 else (8, 8, 8))


#: (s, offset) pairs per built-in case at which the pressures hold to 1e-10.
#: The mortar rows scale with s against the pressure rows. The 2D LU scales
#: its rows by powers of two, so its pivots and order do not depend on s,
#: and network2d drifts at most 2.6e-13 over s = 1e-9 ... 1e9 (before, with
#: unscaled rows, 1.7e-8 at s = 1e-8 and 2.5e-8 at 1e9). The 3D solvers do
#: not scale: cube3d drifts above 1e6 (4.6e-8 at 1e7) and below s = 1e-2
#: (6.7e-9 at s = 1e-5), and at 1e-9 raises SolverError.
_UNITS_2D = [(s, o) for s in (1e-9, 1e-8, 1e-6, 1e-3, 1e3, 1e6, 1e9) for o in (0.0, 1e3)]
SCALES = {
    "case1": _UNITS_2D + [(1.0, 1e6)],
    "network2d": _UNITS_2D + [(1.0, 1e6)],
    "cube3d": [(s, o) for s in (1e-2, 1e3, 1e6) for o in (0.0, 1e3)] + [(1.0, 1e6)],
}
SCALES["case2"] = SCALES["case1"]


@pytest.mark.parametrize("case", sorted(SCALES))
def test_pressures_do_not_depend_on_units_or_origin(case):
    cfg = _small(case)
    ref = np.concatenate(solve_config(cfg)[2].pressures)
    for s, offset in SCALES[case]:
        p = np.concatenate(solve_config(scaled(cfg, s, offset))[2].pressures)
        err = np.abs(p - ref).max() / np.abs(ref).max()
        assert err <= 1e-10, (s, offset, err)


@pytest.mark.parametrize("c", [1e-12, 1e-6])
def test_pressures_scale_with_the_boundary_data(c):
    # The pressures are linear in the boundary data. Each solve is judged
    # relative to the right-hand side, so data far below 1 is solved as
    # accurately as data of order 1.
    for case in ("case1", "case2", "network2d", "cube3d"):
        cfg = _small(case)
        ref = np.concatenate(solve_config(cfg)[2].pressures)
        data = replace(cfg, bcs=[replace(b, value=c * b.value) for b in cfg.bcs])
        p = np.concatenate(solve_config(data)[2].pressures)
        assert np.abs(p - c * ref).max() <= 1e-10 * c * np.abs(ref).max(), case


def extruded(cfg, layers, z):
    """The 2D ``cfg`` extruded along z over ``z = (z0, z1)`` in ``layers``
    cells: each fault becomes a plane whose first in-plane axis is the 2D
    fault's, each boundary box is widened over z, and the z faces keep the
    default no-flow condition."""
    low = lambda p: (*p, z[0])
    high = lambda p: (*p, z[1])
    return replace(
        cfg,
        domain_lo=low(cfg.domain_lo), domain_hi=high(cfg.domain_hi),
        resolution=(*cfg.resolution, layers),
        matrix_regions=[(low(lo), high(hi), k) for lo, hi, k in cfg.matrix_regions],
        faults=[replace(f, p0=low(f.p0), p1=high(f.p1)) for f in cfg.faults],
        bcs=[replace(c, box=c.box and (low(c.box[0]), high(c.box[1]))) for c in cfg.bcs],
    )


@pytest.mark.parametrize("formulation", ["local", "semilocal"])
@pytest.mark.parametrize("layers, z", [(1, (0.0, 1.0)), (3, (0.0, 1.0)), (1, (-0.5, 2.0)), (3, (-0.5, 2.0))])
@pytest.mark.parametrize("case", ["case1", "case2"])
def test_an_extruded_case_gives_the_2d_solution_in_every_layer(case, layers, z, formulation):
    # The 2D path is checked against the resolved reference; with no flow
    # across the z faces, every layer of the 3D path must reproduce it.
    cfg = _small(case)
    mesh2, _, sol2 = solve_config(cfg, formulation)
    mesh3, _, sol3 = solve_config(extruded(cfg, layers, z), formulation)
    assert [g.dim for g in mesh3.subdomains] == [g.dim + 1 for g in mesh2.subdomains]
    for g2, g3, p2, p3 in zip(mesh2.subdomains, mesh3.subdomains, sol2.pressures, sol3.pressures):
        # The grid's own axes come first, so the cross term of a fault acts
        # along the same axis in both.
        frame = np.zeros((g2.dim + 1, 3))
        frame[:-1, :2], frame[-1, 2] = g2.frame_axes, 1.0
        assert np.array_equal(g3.frame_axes, frame)
        assert g3.n_cells == layers * g2.n_cells
        at = {tuple(c): k for k, c in enumerate(g2.cell_centers_global())}
        ref = p2[[at[tuple(c[:2])] for c in g3.cell_centers_global()]]
        assert np.abs(p3 - ref).max() <= 1e-9 * np.abs(p2).max()


def k_scaled(cfg, c):
    """``cfg`` with every permeability and every Neumann value scaled by
    ``c``: the same pressures in another permeability unit."""
    return replace(
        cfg,
        matrix_k=c * cfg.matrix_k,
        matrix_regions=[(lo, hi, c * k) for lo, hi, k in cfg.matrix_regions],
        faults=[
            replace(f, k_parallel=c * f.k_parallel, k_perp=tuple(c * k for k in f.k_perp),
                    k_t=tuple(c * k for k in f.k_t))
            for f in cfg.faults
        ],
        bcs=[replace(b, value=c * b.value if b.kind == "neumann" else b.value) for b in cfg.bcs],
    )


@pytest.mark.parametrize("units", ["aperture-1e-7", "k-1e-5"])
def test_fault_planes_in_other_units_are_accepted_and_solve(units):
    # The per-side screen kappa_perp det(kappa_parallel) > |kappa_t|^2 of a
    # fault plane changed sign with the units and rejected both.
    cfg = _small("cube3d")
    if units == "k-1e-5":
        other = k_scaled(cfg, 1e-5)
    else:
        other = replace(cfg, faults=[replace(f, aperture=1e-7) for f in cfg.faults])
    sol = solve_config(other)[2]
    rep = mass_balance_report(sol)
    assert rep["max_cell_residual"] <= 1e-10 * rep["scale"]
    if units == "k-1e-5":
        ref = np.concatenate(solve_config(cfg)[2].pressures)
        p = np.concatenate(sol.pressures)
        assert np.abs(p - ref).max() <= 1e-10 * np.abs(ref).max()


def test_fault_planes_the_solver_cannot_resolve_raise():
    # With every permeability 1e-13 the system is too ill-scaled for every
    # solver; the residual relative to the right-hand side says so.
    with pytest.raises(SolverError, match="residual too large"):
        solve_config(k_scaled(_small("cube3d"), 1e-13))


@pytest.mark.parametrize(
    "k_t, message",
    [
        # Each side passes the screen (margin 5600), but the two sides'
        # shares 0.72 + 0.72 exceed kappa_parallel = 1.
        (120.0, "fault 'main': the effective in-plane tensor is not positive definite "
                "(smallest eigenvalue -0.44; the sides' shares |k_t|^2/k_perp are 0.72 and 0.72)"),
        # Each side fails alone: its share exceeds kappa_parallel = 1.
        (1500.0, "fault 'main': the effective in-plane tensor is not positive definite "
                 "(smallest eigenvalue -224; the sides' shares |k_t|^2/k_perp are 112.5 and 112.5)"),
    ],
)
def test_a_fault_the_law_cannot_solve_is_named(k_t, message):
    cfg = builtin_case("case1")
    cfg.faults[0].k_t = (k_t, k_t)
    mesh = build_cartesian_md_mesh(cfg.domain_lo, cfg.domain_hi, (16, 16), cfg.fault_specs())
    with pytest.raises(InterfaceLawError) as err:
        assemble_global(mesh, cfg.material_set(), cfg.bcs)
    assert str(err.value) == message


def test_region_holds_its_cells_in_a_tiny_domain():
    # Cells 6.25e-10 wide: an absolute tolerance of 1e-9 would take in the
    # 100 cells whose centers lie within it of the box, not 64.
    s = 1e-8
    mesh = build_cartesian_md_mesh((0.0, 0.0), (s, s), (16, 16), [])
    mats = MaterialSet(matrix_base=np.eye(2), matrix_regions=[((s / 2, s / 2), (s, s), 2 * np.eye(2))])
    perm = build_problems(mesh, mats, [])[0][0].perm
    assert np.count_nonzero(perm[:, 0, 0] == 2.0) == 64


def test_line_permeability_reads_each_faults_own_entry():
    # k_parallel = diag(1e4, 4e4) in every fault's own in-plane axes: a line
    # along y is each fault's first axis in FX (y, z) but its second in
    # FZ (x, y), so FX and FZ meet in a line of mean entry 2.5e4.
    cfg = builtin_case("cube3d")
    specs = cfg.fault_specs()
    mesh = build_cartesian_md_mesh(cfg.domain_lo, cfg.domain_hi, cfg.resolution, specs)
    mats = cfg.material_set()
    mats.fault_perms = [replace(p, k_parallel=np.diag([1e4, 4e4])) for p in mats.fault_perms]
    problems, _ = build_problems(mesh, mats, cfg.bcs)
    lines = 0
    for grid, info, prob in zip(mesh.subdomains, mesh.info, problems):
        if info.kind != "intersection" or grid.dim != 1:
            continue
        along = int(np.flatnonzero(grid.frame_axes[0])[0])
        entries = [[1e4, 4e4][specs[f].inplane_axes.index(along)] for f in info.fault_ids]
        a = np.mean([mats.fault_apertures[f] for f in info.fault_ids])
        assert np.allclose(prob.perm / a**2, np.mean(entries), rtol=1e-12, atol=0.0)
        lines += 1
    assert lines == 3


def test_case1_bottom_inflow_equals_top_outflow():
    cfg = builtin_case("case1")
    mesh, system, sol = solve_config(cfg)
    g = mesh.subdomains[0]
    flux = sol.fluxes[0]
    bottom_in = -flux[g.face_bnd == 2].sum()
    top_out = flux[g.face_bnd == 3].sum()
    assert bottom_in == pytest.approx(top_out, rel=1e-10)
    assert bottom_in > 0.0


def test_source_sink_balance():
    cfg = series_config()
    cfg = replace(cfg, bcs=[BcClause(2, "dirichlet", 0.0)])
    mesh = build_cartesian_md_mesh(
        cfg.domain_lo, cfg.domain_hi, cfg.resolution, cfg.fault_specs()
    )
    g = mesh.subdomains[0]
    src = np.zeros(g.n_cells)
    vols = g.cell_volumes
    src[0] = 1.0 / vols[0]
    src[g.n_cells - 1] = -1.0 / vols[g.n_cells - 1]
    sources = [src, np.zeros(mesh.subdomains[1].n_cells)]
    system = assemble_global(mesh, cfg.material_set(), cfg.bcs, sources=sources)
    sol = solve(system)
    rep = mass_balance_report(sol)
    assert rep["total_source"] == pytest.approx(0.0, abs=1e-12)
    assert abs(rep["global_residual"]) <= 1e-10 * rep["scale"]


def test_flux_continuity_at_mortars():
    cfg = builtin_case("case2")
    mesh, system, sol = solve_config(cfg)
    for itf, lam in zip(mesh.interfaces, sol.lambdas):
        qh = sol.fluxes[itf.higher][itf.higher_faces]
        assert np.abs(qh + lam).max() < 1e-12 * max(1.0, np.abs(lam).max())


def test_no_dirichlet_rejected():
    cfg = series_config()
    cfg = replace(cfg, bcs=[])
    mesh = build_cartesian_md_mesh(
        cfg.domain_lo, cfg.domain_hi, cfg.resolution, cfg.fault_specs()
    )
    with pytest.raises(AssemblyError):
        assemble_global(mesh, cfg.material_set(), cfg.bcs)


def test_tpfa_full_tensor_rejected_in_3d():
    mesh = build_cartesian_md_mesh((0.0,) * 3, (1.0,) * 3, (4, 4, 4), [])
    K = np.array([[2.0, 0.7, 0.0], [0.7, 1.5, 0.3], [0.0, 0.3, 1.0]])
    bcs = [BcClause(side, "dirichlet", float(side)) for side in range(6)]
    with pytest.raises(DiscretizationError, match="grid-aligned"):
        assemble_global(mesh, MaterialSet(matrix_base=K), bcs)


# ---------------------------------------------------------------------------
# Linear solvers: AMG-preconditioned GMRES in 3D, static-pivot LU in 2D, and
# the COLAMD-ordered LU both fall back to.
# ---------------------------------------------------------------------------


def signed_cube3d(n=8):
    """The built-in cube3d geometry at ``n`` cells per axis with cross terms
    of both signs."""
    cfg = builtin_case("cube3d")
    signs = [(1.0, -1.0), (-1.0, -1.0), (-1.0, 1.0)]
    faults = [
        replace(f, k_t=(s1 * 900.0, s2 * 600.0))
        for f, (s1, s2) in zip(cfg.faults, signs)
    ]
    return replace(cfg, faults=faults, resolution=(n, n, n))


def cube3d(n=8):
    return replace(builtin_case("cube3d"), resolution=(n, n, n))


def moved_cube3d(n, at):
    """The built-in cube3d at ``n`` cells per axis with each fault plane
    moved from the mid-plane to ``at``."""
    cfg = cube3d(n)
    faults = []
    for f in cfg.faults:
        p0, p1 = list(f.p0), list(f.p1)
        for a in range(3):
            if p0[a] == p1[a]:
                p0[a] = p1[a] = at
        faults.append(replace(f, p0=tuple(p0), p1=tuple(p1)))
    return replace(cfg, faults=faults)


def assembled(cfg):
    mesh = build_cartesian_md_mesh(
        cfg.domain_lo, cfg.domain_hi, cfg.resolution, cfg.fault_specs()
    )
    return assemble_global(mesh, cfg.material_set(), cfg.bcs)


def unknowns(sol):
    return np.concatenate(sol.pressures + sol.lambdas)


def colamd(system):
    return spla.splu(system.matrix.tocsc()).solve(system.rhs)


KRYLOV_LINE = re.compile(
    r"krylov solve: AMG levels (\d+(?:/\d+)*), (\d+) GMRES iterations, "
    r"residual (\S+), setup \S+ s, solve \S+ s"
)


def slit_planes(grid, axis):
    """The lattice planes normal to ``axis`` that hold slit faces of ``grid``."""
    at = (grid.face_cut >= 0) & (grid.face_axis == axis)
    return np.unique(grid.face_index[at, axis] // 2)


def lattice_level_sizes(system, levels):
    """Unknowns of the first ``levels`` AMG levels when each subdomain's cell
    box is split per axis into runs at its slit planes, and each run of
    length k shrinks to ceil(k / 2) on the first coarsening and to
    ceil(k / 3) on every later one."""
    boxes = [
        [np.diff(np.unique(np.r_[0, slit_planes(g, a), n])) for a, n in enumerate(g.shape)]
        for g in system.mesh.subdomains
    ]
    sizes = []
    for level in range(levels):
        sizes.append(sum(math.prod(int(runs.sum()) for runs in box) for box in boxes))
        b = 2 if level == 0 else 3
        boxes = [[-(-runs // b) for runs in box] for box in boxes]
    return sizes


@pytest.mark.parametrize("n", [8, 16])
@pytest.mark.parametrize("make", [cube3d, signed_cube3d])
def test_krylov_matches_colamd(make, n, caplog):
    system = assembled(make(n))
    with caplog.at_level(logging.INFO, logger="mdflow.mdassembly"):
        sol = solve(system)
    assert "fallback" not in caplog.text and "direct solve" not in caplog.text
    levels, iterations, residual = KRYLOV_LINE.search(caplog.text).groups()
    sizes = [int(k) for k in levels.split("/")]
    assert sizes == lattice_level_sizes(system, len(sizes))
    assert sizes[0] == system.n_pressure and sizes[-1] <= _COARSEST < min(sizes[:-1])
    assert int(iterations) <= 20
    assert float(residual) == pytest.approx(sol.residual, rel=1e-3) and sol.residual <= 1e-10
    ref = colamd(system)
    assert np.linalg.norm(unknowns(sol) - ref) <= 1e-10 * np.linalg.norm(ref)


def uniform_faults(cfg, k):
    """``cfg`` with every fault's conductivities set to ``k`` and no cross
    term: blocking faults for k < 1, conducting ones for k > 1."""
    faults = [replace(f, k_parallel=k, k_perp=(k, k), k_t=(0.0, 0.0)) for f in cfg.faults]
    return replace(cfg, faults=faults)


@pytest.mark.parametrize("k", [1e-6, 1e-4, 1e4])
@pytest.mark.parametrize("n", [16, 24])
def test_krylov_solves_blocking_and_conducting_faults(n, k, caplog):
    """Faults far less (blocking) or far more (conducting) conductive than
    the matrix solve by AMG-GMRES with no COLAMD fallback, and every cell
    balances."""
    system = assembled(uniform_faults(cube3d(n), k))
    with caplog.at_level(logging.INFO, logger="mdflow.mdassembly"):
        sol = solve(system)
    assert "fallback" not in caplog.text
    assert int(KRYLOV_LINE.search(caplog.text).group(2)) <= 20
    assert sol.residual <= 1e-10
    report = mass_balance_report(sol)
    assert report["max_cell_residual"] <= 1e-10 * report["scale"]


@pytest.mark.parametrize("k", [1e-6, 1e-4])
def test_krylov_solves_blocking_faults_off_the_mid_planes(k, caplog):
    """Blocking faults on an odd lattice plane (5/16) stay on the fast path:
    no aggregate straddles them on any level.

    The matrix and fault-plane pressures and the mortar fluxes match
    COLAMD's. The pressures where the faults cross are left out: the GMRES
    stop weighs rows by their size, and at k = 1e-6 their rows are near
    1e-12, so it leaves them up to 5e-6 off (ROADMAP item 12)."""
    system = assembled(uniform_faults(moved_cube3d(16, 5 / 16), k))
    with caplog.at_level(logging.INFO, logger="mdflow.mdassembly"):
        sol = solve(system)
    assert "fallback" not in caplog.text
    levels, iterations, _ = KRYLOV_LINE.search(caplog.text).groups()
    sizes = [int(m) for m in levels.split("/")]
    assert sizes == lattice_level_sizes(system, len(sizes))
    assert int(iterations) <= 20
    report = mass_balance_report(sol)
    assert report["max_cell_residual"] <= 1e-10 * report["scale"]
    ref = colamd(system)
    planes = np.concatenate(
        [np.full(p.size, g.dim >= 2) for p, g in zip(sol.pressures, system.mesh.subdomains)]
        + [np.ones(lam.size, dtype=bool) for lam in sol.lambdas]
    )
    error = unknowns(sol)[planes] - ref[planes]
    assert np.linalg.norm(error) <= 1e-9 * np.linalg.norm(ref)


def test_blocks_split_runs_evenly():
    """A run's blocks differ in width by one cell at most: runs of 4 and 7
    cells take blocks of 2 + 2 and 3 + 2 + 2 cells, not 3 + 1 and 3 + 3 + 1."""
    agg, coarse = _blocks([((4, 7),)], 3)
    assert coarse == [((2, 3),)]
    assert np.bincount(agg).tolist() == [2, 2, 3, 2, 2]


def run_keys(boxes):
    """Each cell's box and its run along each axis, as one integer."""
    keys = []
    for i, box in enumerate(boxes):
        runs = np.meshgrid(*(np.repeat(np.arange(len(r)), r) for r in box), indexing="ij")
        key = i * 10**6 + sum(np.ravel(r, order="F") * 100**a for a, r in enumerate(runs))
        keys.append(np.broadcast_to(key, math.prod(sum(r) for r in box)))
    return np.concatenate(keys)


@pytest.mark.parametrize("at", [0.5, 5 / 16, 7 / 16])
def test_aggregates_stop_at_slit_planes(at):
    """The runs split each axis at exactly the slit planes, and on every
    level each aggregate lies in one run per axis of one box: no aggregate
    holds cells on both sides of a fault."""
    cfg = moved_cube3d(16, at)
    mesh = build_cartesian_md_mesh(cfg.domain_lo, cfg.domain_hi, cfg.resolution, cfg.fault_specs())
    boxes = [_runs(g) for g in mesh.subdomains]
    for g, box in zip(mesh.subdomains, boxes):
        assert [sum(runs) for runs in box] == list(g.shape)
        for a, runs in enumerate(box):
            np.testing.assert_array_equal(np.cumsum(runs)[:-1], slit_planes(g, a))
    for b in (2, 3, 3):
        agg, coarse = _blocks(boxes, b)
        assert coarse == [tuple(tuple(-(-k // b) for k in runs) for runs in box) for box in boxes]
        # One (aggregate, box and runs) pair per aggregate.
        pairs = np.unique(np.c_[agg, run_keys(boxes)], axis=0)
        assert np.array_equal(pairs[:, 0], np.arange(agg.max() + 1))
        assert agg.max() + 1 == sum(math.prod(sum(runs) for runs in box) for box in coarse)
        assert np.bincount(agg).max() <= b**3
        boxes = coarse


def fake_gmres(failure):
    """A stand-in for ``spla.gmres`` that raises, stalls, or claims
    convergence with a wrong answer."""

    def gmres(A, b, **kwargs):
        if failure == "raise":
            raise RuntimeError("Factor is exactly singular")
        return np.zeros_like(b), (1 if failure == "stall" else 0)

    return gmres


@pytest.mark.parametrize(
    "failure,reason",
    [
        ("raise", "krylov solve failed: Factor is exactly singular"),
        ("stall", "no convergence in 0 GMRES iterations"),
        ("wrong", "residual "),
    ],
)
def test_krylov_falls_back_to_colamd(failure, reason, monkeypatch, caplog):
    system = assembled(signed_cube3d())
    ref = colamd(system)
    monkeypatch.setattr(spla, "gmres", fake_gmres(failure))
    with caplog.at_level(logging.INFO, logger="mdflow.mdassembly"):
        sol = solve(system)
    assert f"direct solve: ordering colamd (fallback: {reason}" in caplog.text
    assert (KRYLOV_LINE.search(caplog.text) is None) == (failure == "raise")
    np.testing.assert_array_equal(unknowns(sol), ref)


def unconverged_gmres(error):
    """A stand-in for ``spla.gmres`` that runs the real one, then scales its
    answer by 1 + ``error`` and reports no convergence."""
    gmres = spla.gmres

    def fake(A, b, **kwargs):
        y, info = gmres(A, b, **kwargs)
        return y * (1.0 + error), 1

    return fake


def test_krylov_answer_is_judged_by_its_residual(monkeypatch, caplog):
    """GMRES's ``info`` alone does not send a good answer to COLAMD."""
    system = assembled(signed_cube3d())
    x = unknowns(solve(system))
    monkeypatch.setattr(spla, "gmres", unconverged_gmres(0.0))
    with caplog.at_level(logging.INFO, logger="mdflow.mdassembly"):
        sol = solve(system)
    assert "fallback" not in caplog.text and "direct solve" not in caplog.text
    np.testing.assert_array_equal(unknowns(sol), x)


def inexact_splu(error):
    """A stand-in for ``spla.splu`` whose factor of the full system solves
    with a relative error ``error``; the smaller AMG coarse factors are left
    as they are."""
    splu = spla.splu

    class Inexact:
        def __init__(self, lu):
            self.lu, self.nnz = lu, lu.nnz

        def solve(self, b):
            return self.lu.solve(b) * (1.0 + error)

    def fake(A, **kwargs):
        lu = splu(A, **kwargs)
        return Inexact(lu) if A.shape[0] > 1000 else lu

    return fake


@pytest.mark.parametrize(
    "krylov_error,colamd_error,kept",
    [(1e-8, 1e-7, "krylov solve"), (1e-7, 1e-8, "colamd"), (1e-5, 1e-5, None)],
)
def test_fallback_keeps_the_better_answer(krylov_error, colamd_error, kept, monkeypatch, caplog):
    """Where COLAMD runs, the answer with the smaller residual is kept, and
    only a kept residual above 1e-6 raises."""
    system = assembled(cube3d(12))
    assert system.n_unknowns > 1000 >= _COARSEST  # the stand-in tells the two LUs apart
    ref = unknowns(solve(system))
    monkeypatch.setattr(spla, "gmres", unconverged_gmres(krylov_error))
    monkeypatch.setattr(spla, "splu", inexact_splu(colamd_error))
    with caplog.at_level(logging.INFO, logger="mdflow.mdassembly"):
        if kept is None:
            with pytest.raises(SolverError, match="solution residual too large"):
                solve(system)
            return
        sol = solve(system)
    assert "(fallback: no convergence in" in caplog.text
    error = krylov_error if kept == "krylov solve" else colamd_error
    assert sol.residual == pytest.approx(error, rel=0.1)
    assert np.abs(unknowns(sol) - ref).max() <= 2 * error * np.abs(ref).max()
    assert f"keeping the {kept} answer" in caplog.text


def test_krylov_solve_is_deterministic():
    """Solving another system in between leaves no state behind."""
    first, other = assembled(signed_cube3d(16)), assembled(cube3d(12))
    x = unknowns(solve(first))
    solve(other)
    np.testing.assert_array_equal(unknowns(solve(first)), x)


STATIC_LINE = re.compile(
    r"direct solve: ordering nested-dissection, static pivots, (\d+) off-diagonal, "
    r"float32 factor, order \S+ s, factor \S+ s, LU nnz (\d+), "
    r"\d+ refinement steps to residual \S+ in \S+ s"
)


def static_pivot_facts(system, caplog):
    """Off-diagonal pivots logged by the static-pivot solve, and the
    solution with its relative residual and fallback reason."""
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="mdflow.mdassembly"):
        x, residual, fallback = _static_pivot_solve(system)
    off = int(STATIC_LINE.search(caplog.text).group(1))
    return off, x, residual, fallback


def zero_diagonals(system):
    """Rows whose diagonal is exactly zero: cells whose every face carries an
    imposed flux (mortar or no-flow), such as intersection points."""
    return int((system.matrix.diagonal() == 0).sum())


def static_order(system, caplog):
    """The 2D order, and the off-diagonal pivots and LU size that the
    static-pivot solve logs."""
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="mdflow.mdassembly"):
        _static_pivot_solve(system)
    off, nnz = map(int, STATIC_LINE.search(caplog.text).groups())
    zero = np.flatnonzero(system.matrix.diagonal() == 0)
    return _nested_dissection(system, zero)[0], off, nnz


def test_two_dimensional_solve_uses_static_pivots(caplog):
    system = assembled(replace(builtin_case("network2d"), resolution=(32, 32)))
    with caplog.at_level(logging.INFO, logger="mdflow.mdassembly"):
        sol = solve(system)
    assert "krylov" not in caplog.text and "fallback" not in caplog.text
    off, nnz = map(int, STATIC_LINE.search(caplog.text).groups())
    assert zero_diagonals(system) == 4 and off == 0
    assert nnz < spla.splu(system.matrix.tocsc()).nnz
    ref = colamd(system)
    assert np.linalg.norm(unknowns(sol) - ref) <= 1e-10 * np.linalg.norm(ref)


@pytest.mark.parametrize("k", [1e-2, 1e-8])
def test_two_dimensional_solve_is_exact_under_contrast(k, caplog):
    """A region of low conductivity makes the matrix ill-conditioned, which
    a float32 factor could leave unrefined; it refines to roundoff."""
    region = [((0.55, 0.55), (0.95, 0.95), k)]
    cfg = replace(builtin_case("network2d"), resolution=(64, 64), matrix_regions=region)
    system = assembled(cfg)
    off, x, residual, fallback = static_pivot_facts(system, caplog)
    assert fallback is None and residual <= 1e-14
    p, ref = x[: system.n_pressure], colamd(system)[: system.n_pressure]
    assert np.abs(p - ref).max() <= 1e-9 * np.abs(ref).max()


class WrongSolve:
    """A factorization that reports the real one's pivots and size but
    solves to zero."""

    def __init__(self, lu):
        self.perm_r, self.perm_c, self.nnz = lu.perm_r, lu.perm_c, lu.nnz

    def solve(self, b, trans="N"):
        return np.zeros_like(b)


def fake_static_splu(failure):
    """A stand-in for ``spla.splu`` whose static-pivot calls raise or solve
    wrongly; every other call factors as usual."""
    splu = spla.splu

    def fake(A, permc_spec=None, **kwargs):
        lu = splu(A, permc_spec=permc_spec, **kwargs)
        if permc_spec != "NATURAL":
            return lu
        if failure == "raise":
            raise RuntimeError("Factor is exactly singular")
        return WrongSolve(lu)

    return fake


@pytest.mark.parametrize(
    "failure,reason",
    [
        ("raise", "static-pivot LU failed: Factor is exactly singular"),
        ("wrong", "residual 1.0e+00"),
    ],
)
def test_static_pivots_fall_back_to_colamd(failure, reason, monkeypatch, caplog):
    system = assembled(builtin_case("network2d"))
    ref = colamd(system)
    monkeypatch.setattr(spla, "splu", fake_static_splu(failure))
    with caplog.at_level(logging.INFO, logger="mdflow.mdassembly"):
        sol = solve(system)
    assert f"direct solve: ordering colamd (fallback: {reason})" in caplog.text
    assert (STATIC_LINE.search(caplog.text) is None) == (failure == "raise")
    np.testing.assert_array_equal(unknowns(sol), ref)


def test_assembly_log_counts_schemes(caplog):
    # The face count is over all grids. A full tensor in one interior cell
    # of an 8 x 8 box makes its 4 faces multi-point.
    cfg = replace(builtin_case("network2d"), resolution=(8, 8))
    mesh = build_cartesian_md_mesh(
        cfg.domain_lo, cfg.domain_hi, cfg.resolution, cfg.fault_specs()
    )
    box = build_cartesian_md_mesh((0.0, 0.0), (1.0, 1.0), (4, 4), [])
    K = np.array([[2.0, 0.7], [0.7, 1.5]])
    full = MaterialSet(matrix_base=K)
    box8 = build_cartesian_md_mesh((0.0, 0.0), (1.0, 1.0), (8, 8), [])
    one = MaterialSet(matrix_base=np.eye(2), matrix_regions=[((0.4, 0.4), (0.5, 0.5), K)])
    with caplog.at_level(logging.INFO, logger="mdflow.mdassembly"):
        assemble_global(mesh, cfg.material_set(), cfg.bcs)
        assemble_global(box, full, [BcClause(2, "dirichlet", 1.0)])
        assemble_global(box8, one, [BcClause(2, "dirichlet", 1.0)])
    lines = [r.getMessage() for r in caplog.records if "assembled system" in r.getMessage()]
    n_faces = sum(g.n_faces for g in mesh.subdomains)
    assert lines[0].endswith(
        f"schemes: {len(mesh.subdomains)} TPFA, 0 MPFA (0 of {n_faces} faces multi-point)"
    )
    assert lines[1].endswith("schemes: 0 TPFA, 1 MPFA (40 of 40 faces multi-point)")
    assert lines[2].endswith("schemes: 0 TPFA, 1 MPFA (4 of 144 faces multi-point)")


def test_gradient_reconstruction_only_on_lower_grids(monkeypatch):
    # The interface law reads the tangential gradient on the lower side of
    # each interface only. The matrix grid is never a lower side, and an
    # equi-dimensional solve has no interface at all. (The package's
    # ``discretize`` attribute is the function, hence ``import_module``.)
    modules = [importlib.import_module(m) for m in ("mdflow.mdassembly", "mdflow.discretize")]
    reconstruct = modules[0]._gradient_reconstruction
    calls = []

    def counting(grid, perm):
        calls.append(grid)
        return reconstruct(grid, perm)

    for module in modules:
        monkeypatch.setattr(module, "_gradient_reconstruction", counting)
    for case in ("network2d", "cube3d"):
        cfg = builtin_case(case)
        mesh = build_cartesian_md_mesh(
            cfg.domain_lo, cfg.domain_hi, (8,) * len(cfg.resolution), cfg.fault_specs()
        )
        calls.clear()
        solve(assemble_global(mesh, cfg.material_set(), cfg.bcs))
        lower = sorted({itf.lower for itf in mesh.interfaces})
        assert 0 not in lower
        assert [id(g) for g in calls] == [id(mesh.subdomains[i]) for i in lower]
    calls.clear()
    strip = ((0.0, 0.45), (1.0, 0.55), np.array([[50.0, 20.0], [20.0, 2.0]]))
    solve_equidim(EquiDimCase(
        domain_lo=(0.0, 0.0), domain_hi=(1.0, 1.0), resolution=(20, 20),
        matrix_k=np.eye(2), strips=[strip],
        bcs=[BcClause(2, "dirichlet", 1.0), BcClause(3, "dirichlet", 0.0)],
    ))
    assert calls == []


CLAUSE_MESHES = [
    build_cartesian_md_mesh(cfg.domain_lo, cfg.domain_hi, n, cfg.fault_specs())
    for cfg, n in ((builtin_case("network2d"), (8, 8)), (builtin_case("cube3d"), (4, 4, 4)))
]


def clause_reference(grid, clauses, mortar_mask):
    """Face kinds and values from box tests on every face's global center,
    and the number of faces each clause selects."""
    kind = np.where(grid.is_boundary(), BC_NEUMANN, 0).astype(np.int8)
    value = np.zeros(grid.n_faces)
    counts = []
    gx = grid.face_centers_global()
    for cl in clauses:
        mask = grid.is_boundary() & (grid.face_bnd == cl.side) & ~mortar_mask
        if cl.box is not None:
            inside = (gx >= np.subtract(cl.box[0], 1e-9)) & (gx <= np.add(cl.box[1], 1e-9))
            mask &= np.all(inside, axis=1)
        kind[mask] = BC_DIRICHLET if cl.kind == "dirichlet" else BC_NEUMANN
        value[mask] = cl.value
        counts.append(np.count_nonzero(mask))
    kind[mortar_mask] = BC_MORTAR
    value[mortar_mask] = 0.0
    return kind, value, counts


@st.composite
def clause_lists(draw):
    """A built-in mesh and one to four clauses, whole-side or boxed, with
    box corners on and off grid lines."""
    m = draw(st.integers(0, len(CLAUSE_MESHES) - 1))
    dim = CLAUSE_MESHES[m].dim
    coord = st.sampled_from([0.0, 0.25, 0.3, 0.5, 0.625, 1.0])
    clauses = []
    for _ in range(draw(st.integers(1, 4))):
        box = None
        if draw(st.booleans()):
            a = [draw(coord) for _ in range(dim)]
            b = [draw(coord) for _ in range(dim)]
            box = (tuple(map(min, a, b)), tuple(map(max, a, b)))
        clauses.append(BcClause(
            draw(st.integers(0, 2 * dim - 1)), draw(st.sampled_from(["dirichlet", "neumann"])),
            draw(st.floats(-5, 5)), box,
        ))
    return m, clauses


@settings(max_examples=50, deadline=None)
@given(clause_lists())
def test_boundary_clauses_match_a_test_of_every_face(case):
    m, clauses = case
    mesh = CLAUSE_MESHES[m]
    for i, grid in enumerate(mesh.subdomains):
        mortar = mesh.mortar_face_mask(i)
        bc, counts = boundary_condition_from_clauses(grid, clauses, mortar)
        kind, value, expected = clause_reference(grid, clauses, mortar)
        assert bc.kind.dtype == kind.dtype and np.array_equal(bc.kind, kind)
        assert np.array_equal(bc.value, value)
        assert counts.tolist() == expected


@st.composite
def cartesian_boxes(draw, dims=(2, 3), largest=7):
    """A unit-spacing box of 2 to ``largest`` cells per axis, with or without
    one full fault plane."""
    dim = draw(st.sampled_from(dims))
    n = tuple(draw(st.lists(st.integers(2, largest), min_size=dim, max_size=dim)))
    faults = []
    if draw(st.booleans()):
        axis = draw(st.integers(0, dim - 1))
        at = draw(st.integers(1, n[axis] - 1))
        p0 = [0.0] * dim
        p1 = [float(k) for k in n]
        p0[axis] = p1[axis] = float(at)
        faults.append(
            FaultConfig(tuple(p0), tuple(p1), aperture=0.01, k_parallel=10.0,
                        k_perp=(5.0, 5.0), k_t=(2.0, -3.0), name="F")
        )
    return CaseConfig(
        domain_lo=(0.0,) * dim, domain_hi=tuple(float(k) for k in n),
        resolution=n, matrix_k=1.0, matrix_regions=[], faults=faults,
        bcs=[BcClause(0, "dirichlet", 1.0), BcClause(1, "dirichlet", 0.0)],
        name="box",
    )


@settings(max_examples=25, deadline=None)
@given(cartesian_boxes(dims=(3,), largest=12))
def test_krylov_matches_colamd_on_boxes(cfg):
    """Boxes up to 12^3 cells: those above 100 pressures coarsen by 2^3
    blocks of cells, then 3^3 blocks (a 12^3 box 1728 -> 216 -> 8), before
    the coarsest LU, the others factor the pressure matrix itself."""
    system = assembled(cfg)
    x, residual, fallback = _krylov_solve(system)
    assert fallback is None and residual <= 1e-10
    ref = colamd(system)
    assert np.linalg.norm(x - ref) <= 1e-9 * np.linalg.norm(ref)


@settings(max_examples=30, deadline=None)
@given(cartesian_boxes(), st.integers(0, 2**32 - 1))
def test_stacked_maps_match_per_entity_operators(cfg, seed):
    """The stacked operators against each subdomain's and interface's own
    operators, at a random vector of unknowns."""
    rng = np.random.default_rng(seed)
    cfg = scaled(cfg, rng.uniform(0.25, 4.0))  # mortar measures other than 1
    mesh = build_cartesian_md_mesh(
        cfg.domain_lo, cfg.domain_hi, cfg.resolution, cfg.fault_specs()
    )
    sources = [rng.normal(size=g.n_cells) for g in mesh.subdomains]
    problems, iproblems = build_problems(mesh, cfg.material_set(), cfg.bcs, sources)
    system = assemble_from_problems(mesh, problems, iproblems)
    po, lo, fo = system.p_offsets, system.lam_offsets, system.face_offsets
    n_p = system.n_pressure
    x = rng.normal(size=system.n_unknowns)
    lam = x[n_p:]
    q = system.flux @ x + system.flux_bc
    residual = system.matrix @ x - system.rhs
    tol = 1e-12 * (abs(system.matrix).max() * np.abs(x).max() + np.abs(system.rhs).max())

    # Mortar faces carry -lambda; pressure rows are the cell balances.
    for j, ip in enumerate(iproblems):
        gap = q[fo[ip.itf.higher] + ip.itf.higher_faces] + lam[lo[j] : lo[j + 1]]
        assert np.abs(gap).max() <= 1e-12 * max(1.0, np.abs(lam).max())
    injected = np.concatenate([pr.grid.cell_volumes * pr.source for pr in problems])
    balance = system.div @ q + system.lam_cells @ lam - injected
    assert np.abs(residual[:n_p] - balance).max() <= tol

    # Each subdomain's face data and vector source, mortar cell by mortar cell.
    ops = [discretize(pr.grid, pr.perm, pr.bc) for pr in problems]
    p = [x[po[i] : po[i + 1]] for i in range(len(problems))]
    g = [pr.bc.value.copy() for pr in problems]
    chi = [np.zeros((pr.grid.n_cells, pr.grid.dim)) for pr in problems]
    laws = [assemble_interface_blocks(ip.itf, ip.law) for ip in iproblems]
    for j, (ip, (r, c)) in enumerate(zip(iproblems, laws)):
        itf = ip.itf
        for m in range(itf.n_mortar):  # mortar cell m is lower cell m
            lam_m = lam[lo[j] + m]
            measure = problems[itf.lower].grid.cell_volumes[m]
            g[itf.higher][itf.higher_faces[m]] -= lam_m / measure
            chi[itf.lower][m] += np.linalg.solve(
                problems[itf.lower].perm[m], c * lam_m / measure
            )
    flux, trace, grad = [], [], []
    for op, pr, pi, gi, ci in zip(ops, problems, p, g, chi):
        flux.append(op.flux_p @ pi + op.flux_g @ gi + op.flux_chi @ ci.ravel())
        trace.append(op.trace_p @ pi + op.trace_g @ gi + op.trace_chi @ ci.ravel())
        R = _gradient_reconstruction(pr.grid, pr.perm)
        grad.append((R @ flux[-1]).reshape(ci.shape) - ci)
    assert np.abs(q - np.concatenate(flux)).max() <= tol

    # Mortar rows are the interface law of each mortar cell.
    for j, (ip, (r, c)) in enumerate(zip(iproblems, laws)):
        itf = ip.itf
        for m in range(itf.n_mortar):
            measure = problems[itf.lower].grid.cell_volumes[m]
            law = (
                r * lam[lo[j] + m]
                + measure * (trace[itf.higher][itf.higher_faces[m]] - p[itf.lower][m])
                - measure * (c @ grad[itf.lower][m])
            )
            assert abs(residual[n_p + lo[j] + m] - law) <= tol

    rep = mass_balance_report(solve(system))
    assert rep["max_cell_residual"] <= 1e-10 * rep["scale"]


def crossing_box(n, cuts, full_tensor):
    """A 2D unit-spacing box of ``n`` cells with a full fault across axis
    ``a`` at ``x_a = k`` for each ``(a, k)`` in ``cuts``, whose crossings are
    intersection points, and a matrix tensor that is isotropic (TPFA) or
    full (MPFA)."""
    faults = []
    for axis, at in cuts:
        p0, p1 = [0.0, 0.0], [float(k) for k in n]
        p0[axis] = p1[axis] = float(at)
        faults.append(
            FaultConfig(tuple(p0), tuple(p1), aperture=0.01, k_parallel=10.0,
                        k_perp=(5.0, 5.0), k_t=(2.0, -3.0), name=f"F{len(faults)}")
        )
    cfg = CaseConfig(
        domain_lo=(0.0, 0.0), domain_hi=tuple(float(k) for k in n), resolution=n,
        matrix_k=1.0, matrix_regions=[], faults=faults,
        bcs=[BcClause(0, "dirichlet", 1.0), BcClause(1, "dirichlet", 0.0)],
        name="box",
    )
    mesh = build_cartesian_md_mesh(
        cfg.domain_lo, cfg.domain_hi, cfg.resolution, cfg.fault_specs()
    )
    materials = cfg.material_set()
    if full_tensor:
        materials = replace(materials, matrix_base=np.array([[2.0, 0.7], [0.7, 1.5]]))
    return assemble_global(mesh, materials, cfg.bcs)


@st.composite
def crossing_boxes(draw, largest=12):
    """Systems of :func:`crossing_box` with 2 to ``largest`` cells and up to
    two faults per axis."""
    n = tuple(draw(st.lists(st.integers(2, largest), min_size=2, max_size=2)))
    cuts = [
        (axis, at)
        for axis in (0, 1)
        for at in draw(st.lists(st.integers(1, n[axis] - 1), max_size=2, unique=True))
    ]
    return crossing_box(n, cuts, draw(st.booleans()))


@settings(
    max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],  # cleared per example
)
@given(system=crossing_boxes())
def test_static_pivots_match_colamd_on_boxes(caplog, system):
    """Static pivots agree with the partially pivoted COLAMD LU and rarely
    leave the diagonal. Of 4 x 2300 boxes drawn with hypothesis seeds 0 to
    3, 10 to 14 per seed took two or three pivots off the diagonal; two
    boxes without zero diagonals took three (pivots that elimination
    cancels). None fell back, and every solution agreed with COLAMD within
    2.4e-15. Refinement took at most 5 steps on all but 6 of them, which kept
    a cancelled pivot and took 13 to 22."""
    off, x, residual, fallback = static_pivot_facts(system, caplog)
    assert fallback is None and residual <= 1e-10
    assert off <= 4 * max(zero_diagonals(system), 1)
    ref = colamd(system)
    assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)


def test_static_pivots_pass_over_cancelled_pivots(caplog):
    """The middle cells of this box are closed by mortar and no-flow faces.
    In a minimum-degree order elimination left one of their pivots at
    2.2e-16, which a zero pivot threshold kept (residual 0.43); the
    nested-dissection order fills all 12 zero diagonals before their turn."""
    system = crossing_box((3, 5), [(0, 1), (0, 2), (1, 1), (1, 4)], full_tensor=True)
    off, x, residual, fallback = static_pivot_facts(system, caplog)
    assert fallback is None and residual <= 1e-10
    assert zero_diagonals(system) == 12 and off <= 4 * 12


def test_the_pivot_threshold_passes_over_a_cancelled_pivot(caplog, monkeypatch):
    """Elimination cancels a pivot to the float32 roundoff of the sums it
    came from. Between the faults at x = 2 and x = 3 of a 4x4 box the
    threshold takes two pivots off the diagonal. On an 8x8 box with faults
    at x = 2, x = 4 and y = 6 a threshold of 1e-8 keeps one of 1.8e-7 of
    its column, and refinement stops at a residual of 4.3e-5. With faults
    at x = 4, x = 6 and y = 4 the threshold keeps one of 1.9e-6, and
    refinement needs more than 10 steps."""
    system = crossing_box((4, 4), [(0, 2), (0, 3), (1, 2)], full_tensor=True)
    off, x, residual, fallback = static_pivot_facts(system, caplog)
    assert fallback is None and residual <= 1e-10 and zero_diagonals(system) == 3 and off == 2
    system = crossing_box((8, 8), [(0, 2), (0, 4), (1, 6)], full_tensor=False)
    off, x, residual, fallback = static_pivot_facts(system, caplog)
    assert off > 0 and fallback is None and residual <= 1e-15
    with monkeypatch.context() as patch:
        patch.setattr("mdflow.mdassembly._PIVOT_THRESHOLD", 1e-8)
        off, x, residual, fallback = static_pivot_facts(system, caplog)
    assert off == 0 and residual > 1e-6 and fallback == f"residual {residual:.1e}"
    system = crossing_box((8, 8), [(0, 4), (0, 6), (1, 4)], full_tensor=False)
    off, x, residual, fallback = static_pivot_facts(system, caplog)
    steps = int(re.search(r"(\d+) refinement steps", caplog.text).group(1))
    assert off == 0 and steps > 10 and fallback is None and residual <= 1e-15


@settings(max_examples=40, deadline=None)
@given(system=crossing_boxes())
def test_nested_dissection_keeps_sibling_blocks_apart(system):
    """The 2D order is a permutation. A zero-diagonal unknown follows every
    unknown it couples to, mortar fluxes lead the rest of their leaf or
    separator, and no entry couples two sibling blocks: the later of two
    coupled unknowns lies in a block that holds the earlier."""
    A, n = system.matrix, system.n_unknowns
    zero = np.flatnonzero(A.diagonal() == 0)
    perm, by_code, code, shift = _nested_dissection(system, zero)
    assert np.array_equal(np.sort(perm), np.arange(n))
    at = np.empty(n, int)
    at[perm] = np.arange(n)
    rows, cols = A.nonzero()
    for z in zero:
        coupled = np.setdiff1d(np.concatenate([cols[rows == z], rows[cols == z]]), z)
        assert at[z] > at[coupled].max()
    codes, step = np.empty(n, np.int64), np.empty(n, np.int64)
    codes[by_code], step[by_code] = code, shift
    block = codes >> step
    start = np.array([at[codes >> step[u] == block[u]].min() for u in range(n)])
    first, later = np.minimum(at[rows], at[cols]), np.where(at[rows] > at[cols], rows, cols)
    assert np.all(start[later] <= first)
    pressure, rest = np.arange(n) < system.n_pressure, ~np.isin(np.arange(n), zero)
    for group in {(b, k) for b, k in zip(block, step)}:
        members = (block == group[0]) & (step == group[1]) & rest
        assert at[members & ~pressure].max(initial=-1) < at[members & pressure].min(initial=n)


def test_last_bit_changes_keep_the_fill(caplog):
    """Entries a few units in the last place apart keep the order, every
    pivot on the diagonal and so the fill. Under partial pivoting, sums the
    assembly regrouped moved the fill of network2d-256 by 822 entries."""
    system = assembled(replace(builtin_case("network2d"), resolution=(64, 64)))
    perm, off, nnz = static_order(system, caplog)
    rng = np.random.default_rng(0)
    for _ in range(5):
        A = system.matrix.copy()
        A.data *= 1 + 4e-16 * rng.uniform(-1, 1, A.nnz)
        assert static_order(replace(system, matrix=A), caplog)[1:] == (0, nnz)
    assert off == 0


def test_static_order_does_not_depend_on_units(caplog):
    cfg = _small("network2d")
    perm, off, nnz = static_order(assembled(cfg), caplog)
    for s in (1e-9, 1e9):
        other = static_order(assembled(scaled(cfg, s)), caplog)
        assert np.array_equal(other[0], perm) and other[1:] == (off, nnz)
