"""Interface law tests: scaling, well-posedness, effective tensor, blocks.

The sign of the rank-one Schur correction is locked by an elimination
oracle: pick arbitrary interface fluxes and an in-plane gradient, recover
the pressure jumps from the transfer law, and check that the in-plane
Darcy law written in jump form agrees with the eliminated form written in
flux form. Hand values for Table-style data follow from
A = kappa_par - sum_j kappa_t_j^2 / kappa_perp_j.
"""

import dataclasses

import numpy as np
import pytest

from mdflow.config import builtin_case
from mdflow.mdmesh import MeshError, build_cartesian_md_mesh
from mdflow.semilocal import (
    EquiDimFaultPerm,
    InterfaceLawError,
    MixedDimLaw,
    assemble_interface_blocks,
    check_wellposed,
    scale_to_mixed_dim,
    schur_effective_tensor,
)


def case1_law():
    perm = EquiDimFaultPerm(
        k_parallel=np.array([[100.0]]), k_perp=(100.0, 100.0),
        k_t=(np.array([80.0]), np.array([80.0])),
    )
    return scale_to_mixed_dim(perm, 0.01, 1)


def make_law(kpar, kperp, kt, codim=1, aperture=0.01):
    return MixedDimLaw(
        kappa_parallel=np.atleast_2d(np.asarray(kpar, dtype=float)),
        kappa_perp=tuple(kperp),
        kappa_t=tuple(np.atleast_1d(np.asarray(v, dtype=float)) for v in kt),
        codim=codim,
        aperture=aperture,
    )


def test_codim_one_scaling():
    law = case1_law()
    assert np.allclose(law.kappa_parallel, [[1.0]])
    assert law.kappa_perp == (20000.0, 20000.0)
    assert np.allclose(law.kappa_t[0], [80.0])
    assert np.allclose(law.kappa_t[1], [80.0])


def test_codim_two_scaling_drops_cross_terms():
    perm = EquiDimFaultPerm(
        k_parallel=np.array([[100.0]]), k_perp=(100.0, 100.0),
        k_t=(np.array([80.0]), np.array([80.0])),
    )
    a = 0.01
    law = scale_to_mixed_dim(perm, a, 2)
    assert np.allclose(law.kappa_parallel, [[a**2 * 100.0]])
    # transfer keeps the half-width divisor: 2 a^(c-2) k
    assert np.allclose(law.kappa_perp, (200.0, 200.0))
    assert np.allclose(law.kappa_t[0], [0.0])
    assert np.allclose(law.kappa_t[1], [0.0])


def test_scaling_input_guards():
    perm = EquiDimFaultPerm(
        k_parallel=np.array([[1.0]]), k_perp=(1.0, 1.0),
        k_t=(np.zeros(1), np.zeros(1)),
    )
    with pytest.raises(InterfaceLawError):
        scale_to_mixed_dim(perm, 0.0, 1)
    with pytest.raises(InterfaceLawError):
        scale_to_mixed_dim(perm, 0.01, 0)


def test_perm_validation():
    with pytest.raises(InterfaceLawError):
        EquiDimFaultPerm(k_parallel=np.ones((1, 2)), k_perp=(1.0, 1.0),
                         k_t=(np.zeros(1), np.zeros(1)))
    with pytest.raises(InterfaceLawError):
        EquiDimFaultPerm(k_parallel=np.eye(1), k_perp=(1.0,),
                         k_t=(np.zeros(1), np.zeros(1)))
    with pytest.raises(InterfaceLawError):
        EquiDimFaultPerm(k_parallel=np.eye(1), k_perp=(1.0, 0.0),
                         k_t=(np.zeros(1), np.zeros(1)))
    with pytest.raises(InterfaceLawError):
        EquiDimFaultPerm(k_parallel=np.eye(2), k_perp=(1.0, 1.0),
                         k_t=(np.zeros(1), np.zeros(1)))


def test_wellposed_case1_margin():
    ok, margin = check_wellposed(case1_law())
    assert ok
    assert margin == pytest.approx(13600.0)


def test_wellposed_rejects_strong_coupling():
    law = make_law([[1.0]], (1.0, 1.0), ([2.0], [2.0]))
    ok, margin = check_wellposed(law)
    assert not ok
    assert margin == pytest.approx(-3.0)


def test_wellposed_zero_coupling_always_passes():
    rng = np.random.default_rng(7)
    for _ in range(25):
        kpar = rng.uniform(0.01, 100.0)
        kperp = tuple(rng.uniform(0.01, 100.0, size=2))
        law = make_law([[kpar]], kperp, ([0.0], [0.0]))
        ok, margin = check_wellposed(law)
        assert ok
        assert margin == pytest.approx(min(kperp) * kpar)


def test_wellposed_margin_scaling():
    # scalar in-plane block: uniform rescaling of all coefficients never
    # flips the verdict, and the margin picks up the square of the scale
    rng = np.random.default_rng(21)
    for _ in range(40):
        kpar = rng.uniform(0.1, 10.0)
        kperp = rng.uniform(0.1, 10.0, size=2)
        kt = rng.uniform(-3.0, 3.0, size=2)
        law = make_law([[kpar]], tuple(kperp), ([kt[0]], [kt[1]]))
        ok, margin = check_wellposed(law)
        s = rng.uniform(1e-3, 1e3)
        scaled = make_law([[s * kpar]], tuple(s * kperp),
                          ([s * kt[0]], [s * kt[1]]))
        ok_s, margin_s = check_wellposed(scaled)
        assert ok_s == ok
        assert margin_s == pytest.approx(s**2 * margin, rel=1e-12)


def test_wellposed_verdict_does_not_depend_on_units():
    # cube3d's fault plane and one whose cross term is too strong, in other
    # length units (aperture x s) and permeability units (every k x c).
    base = builtin_case("cube3d").faults[0]
    for k_t, verdict in ((base.k_t, True), ((4e5, 4e5), False)):
        fault = dataclasses.replace(base, k_t=k_t)
        for s in (1e-9, 1e-3, 1.0, 1e3, 1e9):
            for c in (1e-13, 1e-5, 1.0, 1e5):
                perm = fault.equi_perm()
                perm = EquiDimFaultPerm(
                    c * perm.k_parallel, tuple(c * k for k in perm.k_perp),
                    tuple(c * k for k in perm.k_t),
                )
                ok, _ = check_wellposed(scale_to_mixed_dim(perm, s * fault.aperture, 1))
                assert ok == verdict, (k_t, s, c)


def test_effective_tensor_case1():
    eff = schur_effective_tensor(case1_law())
    assert eff.tensor == pytest.approx(np.array([[0.36]]))
    assert eff.coupling[0] == pytest.approx(np.array([0.004]))
    assert eff.coupling[1] == pytest.approx(np.array([0.004]))


def test_effective_tensor_case2():
    cfg = builtin_case("case2")
    f = cfg.faults[0]
    law = scale_to_mixed_dim(f.equi_perm(), f.aperture, 1)
    assert law.kappa_parallel == pytest.approx(np.array([[2.0]]))
    assert law.kappa_perp == (10000.0, 10000.0)
    eff = schur_effective_tensor(law)
    # 2 - (50^2 + 80^2) / 10000
    assert eff.tensor == pytest.approx(np.array([[1.11]]))
    assert eff.coupling[0] == pytest.approx(np.array([0.005]))
    assert eff.coupling[1] == pytest.approx(np.array([0.008]))


def test_effective_tensor_zero_coupling():
    law = make_law([[3.7]], (5.0, 9.0), ([0.0], [0.0]))
    eff = schur_effective_tensor(law)
    assert eff.tensor == pytest.approx(np.array([[3.7]]))


def test_effective_tensor_one_sided():
    law = make_law([[2.0]], (10.0, 10.0), ([3.0], [0.0]))
    eff = schur_effective_tensor(law)
    assert eff.tensor == pytest.approx(np.array([[2.0 - 9.0 / 10.0]]))


def test_effective_tensor_rejects_bad_kperp():
    # The law itself rejects a nonpositive transfer coefficient on either side.
    for kperp in ((1.0, -1.0), (0.0, 1.0)):
        with pytest.raises(InterfaceLawError, match="kappa_perp must be positive"):
            make_law([[1.0]], kperp, ([0.0], [0.0]))


def test_schur_elimination_oracle():
    """Lock the sign of the rank-one correction by direct elimination.

    With side signs eps = (-1, +1), unknown jumps J_j = p - tr p_j, and the
    transfer law lam_j = -kperp_j J_j - eps_j kt_j . grad, the in-plane flux
    written with jumps must equal the eliminated form written with fluxes:

        -kpar grad - sum_j eps_j kt_j J_j
          == -A grad + sum_j eps_j (kt_j / kperp_j) lam_j
    """
    rng = np.random.default_rng(42)
    eps = (-1.0, 1.0)
    for t in (1, 2):
        for _ in range(30):
            q = rng.uniform(-1.0, 1.0, size=(t, t))
            kpar = q @ q.T + t * np.eye(t)
            kperp = rng.uniform(0.5, 20.0, size=2)
            kt = rng.uniform(-1.0, 1.0, size=(2, t))
            law = make_law(kpar, tuple(kperp), (kt[0], kt[1]))
            eff = schur_effective_tensor(law)
            grad = rng.uniform(-2.0, 2.0, size=t)
            lam = rng.uniform(-2.0, 2.0, size=2)
            jumps = [
                -(lam[j] + eps[j] * kt[j] @ grad) / kperp[j] for j in (0, 1)
            ]
            q_jump = -kpar @ grad - sum(
                eps[j] * kt[j] * jumps[j] for j in (0, 1)
            )
            q_flux = -eff.tensor @ grad + sum(
                eps[j] * eff.coupling[j] * lam[j] for j in (0, 1)
            )
            assert np.allclose(q_jump, q_flux, rtol=1e-12, atol=1e-12)


def test_effective_tensor_spd_under_margin_headroom():
    # the per-side margin bounds each rank-one term by kpar; demanding both
    # sides leaves the summed correction positive definite whenever the
    # stronger two-sided margin kperp*kpar - 2 kt^2 > 0 holds
    rng = np.random.default_rng(3)
    for _ in range(50):
        kpar = rng.uniform(0.5, 5.0)
        kperp = rng.uniform(0.5, 50.0, size=2)
        lim = np.sqrt(kpar * kperp / 2.0)
        kt = rng.uniform(-0.99, 0.99, size=2) * lim
        law = make_law([[kpar]], tuple(kperp), ([kt[0]], [kt[1]]))
        eff = schur_effective_tensor(law)
        assert eff.tensor[0, 0] > 0.0


def test_interface_block_coefficients():
    cfg = builtin_case("case1")
    mesh = build_cartesian_md_mesh(cfg.domain_lo, cfg.domain_hi, (4, 4),
                                   cfg.fault_specs())
    law = case1_law()
    by_side = {i.side: i for i in mesh.interfaces}
    for side, eps in ((1, -1.0), (2, 1.0)):
        # resistance 1/kperp and coupling kt/kperp = 0.004, oriented by side
        r, c = assemble_interface_blocks(by_side[side], law)
        assert r == pytest.approx(1.0 / 20000.0)
        assert c == pytest.approx(np.array([eps * 0.004]))


def test_interface_blocks_reject_bad_side():
    cfg = builtin_case("case1")
    mesh = build_cartesian_md_mesh(cfg.domain_lo, cfg.domain_hi, (4, 4),
                                   cfg.fault_specs())
    itf = mesh.interfaces[0]
    with pytest.raises(MeshError, match="side must be 1 or 2, got 3"):
        type(itf)(lower=itf.lower, higher=itf.higher, side=3, higher_faces=itf.higher_faces)
