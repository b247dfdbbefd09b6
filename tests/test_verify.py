"""Error norms, convergence orders, and study plumbing tests.

The relative fault error is sqrt(sum w_i (p_i - r_i)^2 / sum w_i r_i^2)
with cell sizes as weights, so p = 2r gives exactly 1 and constant fields
p=1, r=2 give 0.5 for any uniform weighting.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mdflow.config import ConfigError, builtin_case
from mdflow.verify import (
    LevelRecord,
    StudyResult,
    VerifyError,
    _STUDIES,
    _ladder,
    _solve_resolution,
    eoc,
    eoc_fit,
    equidim_oracle,
    fault_field,
    l2_fault_error,
    run_case,
    sample_nearest,
)


def test_l2_error_identical_fields():
    r = np.array([1.0, 2.0, 3.0])
    w = np.array([0.5, 0.25, 0.25])
    assert l2_fault_error(r, r, w) == 0.0


def test_l2_error_doubled_field():
    r = np.array([1.0, -2.0, 3.0])
    w = np.array([0.5, 0.25, 0.25])
    assert l2_fault_error(2.0 * r, r, w) == pytest.approx(1.0, rel=1e-14)


def test_l2_error_constant_fields():
    r = np.full(8, 2.0)
    p = np.full(8, 1.0)
    w = np.full(8, 0.125)
    assert l2_fault_error(p, r, w) == pytest.approx(0.5, rel=1e-14)


def test_l2_error_zero_reference_rejected():
    w = np.ones(3)
    with pytest.raises(VerifyError):
        l2_fault_error(np.ones(3), np.zeros(3), w)


def test_l2_error_shape_mismatch_rejected():
    with pytest.raises(VerifyError):
        l2_fault_error(np.ones(3), np.ones(4), np.ones(4))


def test_l2_error_reorder_invariant():
    rng = np.random.default_rng(13)
    for _ in range(20):
        n = int(rng.integers(3, 30))
        p = rng.normal(size=n)
        r = rng.normal(size=n) + 3.0
        w = rng.uniform(0.1, 1.0, size=n)
        perm = rng.permutation(n)
        a = l2_fault_error(p, r, w)
        b = l2_fault_error(p[perm], r[perm], w[perm])
        assert a == pytest.approx(b, rel=1e-13)


def test_eoc_halving():
    assert eoc([0.1, 0.05], [1.0, 0.5]) == [pytest.approx(1.0)]
    assert eoc([0.1, 0.025], [1.0, 0.5]) == [pytest.approx(2.0)]
    assert eoc([0.1, 0.1], [1.0, 0.5]) == [pytest.approx(0.0)]


def test_eoc_multiple_levels():
    orders = eoc([0.8, 0.4, 0.1], [0.4, 0.2, 0.1])
    assert orders == [pytest.approx(1.0), pytest.approx(2.0)]


def test_eoc_rejects_zero_errors():
    with pytest.raises(VerifyError):
        eoc([0.1, 0.0], [1.0, 0.5])


def test_eoc_rejects_single_level():
    with pytest.raises(VerifyError):
        eoc([0.1], [1.0])


def test_eoc_fit_slope():
    h = np.array([0.4, 0.2, 0.1, 0.05])
    errors = 3.0 * h**1.5
    assert eoc_fit(errors, h) == pytest.approx(1.5, rel=1e-12)


def test_sample_nearest_coincident_points():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    vals = np.array([5.0, 6.0, 7.0])
    out = sample_nearest(pts, vals, pts[::-1])
    assert np.allclose(out, vals[::-1])


def test_sample_nearest_tie_takes_mean():
    pts = np.array([[0.0], [1.0]])
    vals = np.array([2.0, 4.0])
    out = sample_nearest(pts, vals, np.array([[0.5]]))
    assert out[0] == pytest.approx(3.0)


def brute_nearest(ref_points, ref_values, points):
    """Mean over the reference points within the tie tolerance of the
    nearest one, by every pairwise distance."""
    dist = np.linalg.norm(points[:, None, :] - ref_points[None, :, :], axis=2)
    near = dist <= dist.min(axis=1, keepdims=True) * (1.0 + 1e-9) + 1e-13
    return (near * ref_values).sum(axis=1) / near.sum(axis=1)


@st.composite
def lattice_samples(draw):
    """A shuffled Cartesian lattice of 1 to 6 coordinates per axis in 1 to 3
    dimensions, with dyadic spacings so that midpoints tie exactly, and
    query points on lattice points, on midpoints and anywhere near the box."""
    dim = draw(st.integers(1, 3))
    axes = []
    for _ in range(dim):
        steps = draw(st.lists(st.integers(1, 4), min_size=0, max_size=5))
        axes.append(draw(st.integers(-4, 4)) + np.cumsum([0.0] + [s / 4 for s in steps]))
    ref = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dim)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ref = ref[rng.permutation(len(ref))]
    values = rng.normal(size=len(ref))
    mids = [np.concatenate([u, (u[1:] + u[:-1]) / 2]) for u in axes]
    snapped = np.stack([rng.choice(m, size=20) for m in mids], axis=1)
    loose = rng.uniform(-6.0, 6.0, size=(20, dim))
    return ref, values, np.concatenate([snapped, loose])


@settings(max_examples=60, deadline=None)
@given(lattice_samples())
def test_sample_nearest_matches_brute_force(sample):
    ref, values, points = sample
    expected = brute_nearest(ref, values, points)
    np.testing.assert_allclose(sample_nearest(ref, values, points), expected, rtol=1e-14, atol=1e-15)


def test_sample_nearest_needs_the_nearest_lattice_points():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])  # (1, 1) missing
    with pytest.raises(VerifyError, match="do not cover"):
        sample_nearest(pts, np.ones(3), np.array([[0.9, 0.9]]))


def test_fault_field_collects_fault_cells_only():
    from mdflow.mdassembly import assemble_global, solve
    from mdflow.mdmesh import build_cartesian_md_mesh

    cfg = builtin_case("case1")
    mesh = build_cartesian_md_mesh(
        cfg.domain_lo, cfg.domain_hi, (4, 4), cfg.fault_specs()
    )
    sol = solve(assemble_global(mesh, cfg.material_set(), cfg.bcs))
    parts = fault_field(mesh, sol.pressures)
    assert len(parts) == 1
    centers, values, sizes = parts[0]
    assert centers.shape == (4, 2)
    assert values.shape == (4,)
    assert np.allclose(sizes, 0.25)
    assert np.allclose(centers[:, 1], 0.5)


def test_study_result_csv_format():
    records = [
        LevelRecord(level=0, h=0.25, n_cells=20, n_fault_cells=4,
                    error=0.125),
        LevelRecord(level=1, h=0.125, n_cells=72, n_fault_cells=8,
                    error=0.061, order=1.035),
    ]
    res = StudyResult(case="case1", formulation="semilocal",
                      records=records, reference="equidim:200")
    lines = res.to_csv().strip().splitlines()
    assert lines[0] == "level,h,N,N_f,error,eoc,formulation,case"
    assert lines[1] == "0,0.25,20,4,0.125,,semilocal,case1"
    assert lines[2] == "1,0.125,72,8,0.061,1.035,semilocal,case1"
    assert np.allclose(res.errors, [0.125, 0.061])
    assert res.mean_order() == pytest.approx(1.035)


def test_studies_registered():
    assert _STUDIES == {
        "case1": ((4, 8, 16, 32, 64), "equidim", 200),
        "case2": ((4, 8, 16, 32, 64), "equidim", 200),
        "network2d": ((8, 16, 32, 64), "self", 128),
        "cube3d": ((8, 16, 24), "self", 40),
    }


def test_ladder_extension():
    ladder = _STUDIES["case1"][0]
    assert _ladder(ladder, 3) == [4, 8, 16]
    assert _ladder(ladder, 6) == [4, 8, 16, 32, 64, 128]


def test_run_case_rejects_unknown_inputs():
    with pytest.raises(ConfigError):
        run_case("case99")
    with pytest.raises(ConfigError):
        run_case("case1", formulation="midlocal")
    with pytest.raises(ConfigError):
        run_case("case1", levels=0)


def test_self_reference_sampling_is_exact():
    """A field resampled at its own centers reproduces itself, so the
    error of the reference level against itself is identically zero."""
    cfg = builtin_case("case1")
    mesh, sol = _solve_resolution(cfg, "semilocal", 8)
    centers, values, sizes = fault_field(mesh, sol.pressures)[0]
    resampled = sample_nearest(centers, values, centers)
    assert l2_fault_error(resampled, values, sizes) == 0.0


def test_self_convergence_study_runs():
    res = run_case("network2d", "semilocal", levels=2)
    assert res.reference == "self:32x32"
    assert [r.level for r in res.records] == [0, 1]
    assert all(r.error > 0 for r in res.records)
    assert res.records[1].error < res.records[0].error
    assert np.isnan(res.records[0].order)
    assert res.records[1].order > 0


@pytest.mark.parametrize(
    "case,levels,ref_n",
    [("network2d", 4, 128), ("network2d", 5, 256),
     ("cube3d", 2, 32), ("cube3d", 3, 40), ("cube3d", 4, 96)],
)
def test_self_reference_size(case, levels, ref_n, monkeypatch):
    """Twice the finest level, capped at the table's size only while that
    size is finer than the finest level. The reference is solved first, so
    the run stops there."""
    import mdflow.verify as verify

    class Stop(Exception):
        pass

    sizes = []

    def first_solve(cfg, formulation, n):
        sizes.append(n)
        raise Stop

    monkeypatch.setattr(verify, "_solve_resolution", first_solve)
    with pytest.raises(Stop):
        run_case(case, levels=levels)
    assert sizes == [ref_n]


def test_equidim_oracle_profile():
    cfg = builtin_case("case2")
    xs, prof = equidim_oracle(cfg, resolution=200)
    assert xs.shape == (200,)
    assert prof.shape == (200,)
    assert np.all(np.diff(xs) > 0)
    # heads are 10 at the bottom inlet and 1 at the top outlets, so the
    # interior fault profile must sit strictly between them
    assert prof.min() > 1.0 and prof.max() < 10.0


def test_equidim_oracle_rejects_multiple_faults():
    cfg = builtin_case("network2d")
    with pytest.raises(ConfigError):
        equidim_oracle(cfg, resolution=64)


def test_equidim_oracle_rejects_matrix_regions():
    # The resolved reference has a homogeneous matrix; a region would be
    # dropped from it while the reduced model keeps it.
    cfg = builtin_case("case1")
    fault = replace(cfg.faults[0], aperture=0.05)  # two cell rows at 40 x 40
    cfg = replace(cfg, faults=[fault], matrix_regions=[((0.0, 0.0), (1.0, 0.25), 0.01)])
    with pytest.raises(ConfigError, match="homogeneous matrix"):
        equidim_oracle(cfg, resolution=40)


def test_local_equals_semilocal_without_coupling():
    """With no tangential coupling anywhere the two formulations are the
    same model, so their errors against one resolved reference agree."""
    cfg = builtin_case("case1")
    fault = replace(cfg.faults[0], k_t=(0.0, 0.0), aperture=0.05)
    cfg = replace(cfg, faults=[fault])
    xs, prof = equidim_oracle(cfg, resolution=40)
    ref_pts = xs[:, None]
    errs = {}
    for formulation in ("local", "semilocal"):
        mesh, sol = _solve_resolution(cfg, formulation, 16)
        centers, values, sizes = fault_field(mesh, sol.pressures)[0]
        ref = sample_nearest(ref_pts, prof, centers[:, 0][:, None])
        errs[formulation] = l2_fault_error(values, ref, sizes)
    assert errs["local"] > 0
    assert abs(errs["local"] - errs["semilocal"]) <= 1e-10
