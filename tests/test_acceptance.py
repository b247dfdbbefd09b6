"""End-to-end acceptance suite.

Each test checks one shipped guarantee at its stated tolerance and prints a
single PASS or FAIL line (run with ``pytest -s`` to see them inline). The
convergence studies are cached at module scope; the whole file costs about
a minute of 2D solves plus the 3D study.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from mdflow.config import CaseConfig, FaultConfig, builtin_case
from mdflow.discretize import BC_DIRICHLET
from mdflow.mdassembly import (
    BcClause,
    MaterialSet,
    assemble_from_problems,
    assemble_global,
    build_problems,
    mass_balance_report,
    solve,
)
from mdflow.mdmesh import build_cartesian_md_mesh
from mdflow.semilocal import (
    MixedDimLaw,
    check_wellposed,
    scale_to_mixed_dim,
    schur_effective_tensor,
)
from mdflow.verify import (
    _solve_resolution,
    eoc_fit,
    equidim_oracle,
    fault_field,
    run_case,
    sample_nearest,
)


def _verdict(ok, label):
    print(("PASS " if ok else "FAIL ") + label)
    assert ok, label


def _timed_study(case, formulation):
    t0 = time.time()
    res = run_case(case, formulation)
    return res, time.time() - t0


@pytest.fixture(scope="module")
def case1_semilocal():
    return _timed_study("case1", "semilocal")


@pytest.fixture(scope="module")
def case1_local():
    return run_case("case1", "local")


@pytest.fixture(scope="module")
def case1_profiles():
    """Finest-level fault profiles of both formulations plus the resolved
    reference, all ordered by the fault coordinate."""
    cfg = builtin_case("case1")
    xs, peq = equidim_oracle(cfg, resolution=200)
    out = {}
    for formulation in ("semilocal", "local"):
        mesh, sol = _solve_resolution(cfg, formulation, 64)
        centers, values, _ = fault_field(mesh, sol.pressures)[0]
        out[formulation] = values[np.argsort(centers[:, 0])]
    cell_x = (np.arange(64) + 0.5) / 64
    out["reference"] = sample_nearest(xs[:, None], peq, cell_x[:, None])
    return out


def test_case1_semilocal_convergence(case1_semilocal):
    res, secs = case1_semilocal
    fit = eoc_fit(res.errors[1:], res.h[1:])
    _verdict(
        fit >= 0.8 and secs <= 120.0,
        f"case1 semilocal convergence: fitted EOC over the three finest "
        f"pairs {fit:.3f} >= 0.8 in {secs:.1f} s <= 120 s",
    )


def test_case1_local_non_convergence(case1_semilocal, case1_local):
    semi, _ = case1_semilocal
    local = case1_local
    stalls = local.errors[-1] >= 0.5 * local.errors[0]
    ratio = local.errors[-1] / semi.errors[-1]
    _verdict(
        stalls and ratio >= 5.0,
        f"case1 local non-convergence: finest/coarsest error "
        f"{local.errors[-1] / local.errors[0]:.2f} >= 0.5 and local/semilocal "
        f"finest ratio {ratio:.1f} >= 5",
    )


def test_case1_profile_asymmetry(case1_profiles):
    p = case1_profiles
    dev = np.max(np.abs(p["semilocal"] - p["reference"]) / np.abs(p["reference"]))
    asym_semi = np.max(np.abs(p["semilocal"] - p["semilocal"][::-1]))
    asym_local = np.max(np.abs(p["local"] - p["local"][::-1]))
    _verdict(
        dev <= 0.05 and asym_semi > 10.0 * asym_local,
        f"case1 profile: max pointwise deviation {dev * 100:.3f}% <= 5%, "
        f"asymmetry {asym_semi:.3g} > 10 x local {asym_local:.3g}",
    )


def test_case2_two_sided_convergence():
    res = run_case("case2", "semilocal")
    a = builtin_case("case2").faults[0].aperture
    orders = [o for o, h in zip(res.orders, res.h[1:]) if h >= 2.0 * a]
    mean = float(np.mean(orders))
    _verdict(
        len(orders) >= 2 and mean >= 0.8,
        f"case2 two-sided law: mean EOC {mean:.3f} >= 0.8 over the "
        f"{len(orders)} pairs with h >= {2.0 * a:g}",
    )


def test_network2d_self_convergence():
    res = run_case("network2d", "semilocal")
    mean = res.mean_order()
    _verdict(
        mean >= 0.8,
        f"network2d self-convergence: mean EOC {mean:.3f} >= 0.8 "
        f"(reference {res.reference})",
    )


def test_cube3d_self_convergence():
    res, secs = _timed_study("cube3d", "semilocal")
    mean = res.mean_order()
    levels_ok = len(res.records) >= 3 and res.records[0].n_cells >= 8**3
    _verdict(
        mean >= 0.8 and levels_ok and secs <= 600.0,
        f"cube3d self-convergence: mean EOC {mean:.3f} >= 0.8 over "
        f"{len(res.records)} levels (coarsest {res.records[0].n_cells} cells) "
        f"in {secs:.0f} s <= 600 s",
    )


def _patch_error(method, base_k, regions):
    mesh = build_cartesian_md_mesh((0.0, 0.0), (1.2, 1.0), (6, 4), [])
    mats = MaterialSet(matrix_base=base_k * np.eye(2), matrix_regions=regions)
    problems, iproblems = build_problems(mesh, mats, [])
    pr = problems[0]
    ext = pr.grid.is_boundary()
    fc = pr.grid.face_centers
    pr.bc.kind[ext] = BC_DIRICHLET
    pr.bc.value[ext] = 1.0 + 2.0 * fc[ext, 0] + 3.0 * fc[ext, 1]
    sol = solve(assemble_from_problems(mesh, problems, iproblems))
    cc = pr.grid.cell_centers
    exact = 1.0 + 2.0 * cc[:, 0] + 3.0 * cc[:, 1]
    return float(np.abs(sol.pressures[0] - exact).max())


def test_property_linear_patch():
    tensor = np.array([[2.0, 0.7], [0.7, 1.5]])
    region = [((0.0, 0.0), (1.2, 1.0), tensor)]
    err_tpfa = _patch_error("tpfa", 1.0, [])
    err_mpfa = _patch_error("mpfa", 1.0, region)
    _verdict(
        err_tpfa <= 1e-12 and err_mpfa <= 1e-12,
        f"linear patch test: TPFA isotropic {err_tpfa:.2e}, MPFA full tensor "
        f"{err_mpfa:.2e}, both <= 1e-12",
    )


def test_property_mass_balance_every_case():
    worst = {}
    for name, n in (("case1", 32), ("case2", 32), ("network2d", 32), ("cube3d", 8)):
        _, sol = _solve_resolution(builtin_case(name), "semilocal", n)
        rep = mass_balance_report(sol)
        worst[name] = rep["max_cell_residual"] / rep["scale"]
    top = max(worst.values())
    _verdict(
        top <= 1e-10,
        "per-cell mass balance <= 1e-10 relative on every solved case "
        + ", ".join(f"{k} {v:.1e}" for k, v in worst.items()),
    )


def test_property_zero_coupling_matrices_equal():
    cfg = builtin_case("case1")
    cfg = replace(
        cfg,
        resolution=(16, 16),
        faults=[replace(cfg.faults[0], k_t=(0.0, 0.0))],
    )
    mesh = build_cartesian_md_mesh(
        cfg.domain_lo, cfg.domain_hi, cfg.resolution, cfg.fault_specs()
    )
    a_local = assemble_global(mesh, cfg.material_set("local"), cfg.bcs).matrix
    a_semi = assemble_global(mesh, cfg.material_set("semilocal"), cfg.bcs).matrix
    gap = abs(a_local - a_semi).max() / abs(a_semi).max()
    _verdict(
        gap <= 1e-14,
        f"zero tangential coupling: local and semilocal matrices agree to "
        f"{gap:.2e} <= 1e-14 entrywise",
    )


def test_property_schur_elimination():
    law1 = scale_to_mixed_dim(builtin_case("case1").faults[0].equi_perm(), 0.01, 1)
    law2 = scale_to_mixed_dim(builtin_case("case2").faults[0].equi_perm(), 0.02, 1)
    t1 = schur_effective_tensor(law1).tensor[0, 0]
    t2 = schur_effective_tensor(law2).tensor[0, 0]

    # the eliminated two-sided micro-problem must reproduce the effective
    # law identically, including the sign of the rank-one corrections
    eps = (-1.0, 1.0)
    rng = np.random.default_rng(21)
    worst = 0.0
    for _ in range(25):
        t = int(rng.integers(1, 3))
        a0 = rng.normal(size=(t, t))
        kpar = a0 @ a0.T + 2.0 * np.eye(t)
        kperp = tuple(rng.uniform(0.5, 5.0, size=2))
        kt = tuple(rng.uniform(-0.5, 0.5, size=t) for _ in range(2))
        law = MixedDimLaw(kpar, kperp, kt, codim=1, aperture=0.01)
        eff = schur_effective_tensor(law)
        grad = rng.normal(size=t)
        lams = rng.normal(size=2)
        jumps = [
            -(lams[j] + eps[j] * kt[j] @ grad) / kperp[j] for j in range(2)
        ]
        lhs = -kpar @ grad - sum(eps[j] * kt[j] * jumps[j] for j in range(2))
        rhs = -eff.tensor @ grad + sum(
            eps[j] * eff.coupling[j] * lams[j] for j in range(2)
        )
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    _verdict(
        abs(t1 - 0.36) < 1e-12 and abs(t2 - 1.11) < 1e-12 and worst <= 1e-12,
        f"Schur elimination: effective tensors {t1:.6g} and {t2:.6g}, "
        f"micro-problem residual {worst:.2e} <= 1e-12",
    )


def test_property_wellposedness_screen():
    margins = {}
    for name in ("case1", "case2", "network2d", "cube3d"):
        cfg = builtin_case(name)
        vals = []
        for f in cfg.faults:
            law = scale_to_mixed_dim(f.equi_perm(), f.aperture, 1)
            ok, margin = check_wellposed(law)
            assert ok, f"{name} fault {f.name!r} rejected (margin {margin:g})"
            vals.append(margin)
        margins[name] = min(vals)
    bad = MixedDimLaw(
        kappa_parallel=np.array([[1.0]]),
        kappa_perp=(1.0, 1.0),
        kappa_t=(np.array([2.0]), np.array([2.0])),
        codim=1,
        aperture=0.01,
    )
    ok_bad, margin_bad = check_wellposed(bad)
    _verdict(
        not ok_bad and margin_bad == pytest.approx(-3.0),
        "well-posedness screen: all shipped data accepted (min margins "
        + ", ".join(f"{k} {v:.3g}" for k, v in margins.items())
        + f"), overstrong coupling rejected (margin {margin_bad:g})",
    )


def test_property_mirror_symmetry():
    kt1, kt2 = 30.0, 60.0
    kp1, kp2 = 80.0, 120.0
    v1, v2, v3 = 3.0, 7.0, 1.0
    n = 8

    def config(k_perp, k_t, bcs):
        fault = FaultConfig(
            p0=(0.0, 0.5), p1=(1.0, 0.5), aperture=0.01, k_parallel=100.0,
            k_perp=k_perp, k_t=k_t, name="F",
        )
        return CaseConfig(
            domain_lo=(0.0, 0.0), domain_hi=(1.0, 1.0), resolution=(n, n),
            matrix_k=1.0, faults=[fault], bcs=bcs, name="mirror",
        )

    def solved(cfg):
        mesh = build_cartesian_md_mesh(
            cfg.domain_lo, cfg.domain_hi, cfg.resolution, cfg.fault_specs()
        )
        return mesh, solve(assemble_global(mesh, cfg.material_set(), cfg.bcs))

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
    mesh_a, sol_a = solved(config((kp1, kp2), (kt1, kt2), bcs_a))
    mesh_b, sol_b = solved(config((kp2, kp1), (-kt2, -kt1), bcs_b))

    ca = mesh_a.subdomains[0].cell_centers_global()
    cb = mesh_b.subdomains[0].cell_centers_global()
    lookup = {(round(x, 9), round(y, 9)): i for i, (x, y) in enumerate(cb)}
    perm = [lookup[(round(x, 9), round(1.0 - y, 9))] for x, y in ca]
    gap_m = float(np.abs(sol_a.pressures[0] - sol_b.pressures[0][perm]).max())
    fa = np.argsort(mesh_a.subdomains[1].cell_centers_global()[:, 0])
    fb = np.argsort(mesh_b.subdomains[1].cell_centers_global()[:, 0])
    gap_f = float(np.abs(sol_a.pressures[1][fa] - sol_b.pressures[1][fb]).max())
    _verdict(
        gap_m < 1e-8 and gap_f < 1e-8,
        f"mirror symmetry: reflected geometry with negated coupling matches "
        f"to {max(gap_m, gap_f):.2e} <= 1e-8",
    )
