"""Interface law for thin inclusions with full-tensor permeability.

A fault's equi-dimensional permeability couples the normal flux through the
fault to the tangential pressure gradient inside it whenever the
normal-tangential entries are nonzero. Averaging across the aperture turns
the thin fault into a lower-dimensional subdomain endowed with

- an in-plane conductivity ``kappa_parallel`` (aperture-scaled tangential
  tensor),
- per side, a transfer coefficient ``kappa_perp`` for the pressure jump
  across each half of the fault, and
- per side, a vector ``kappa_t`` carrying the normal-tangential entries.

Eliminating the normal flux unknowns from the averaged Darcy law by a Schur
complement yields an effective in-plane tensor and exposes the interface
fluxes as a vector source inside the fault; the same elimination adds the
tangential-gradient term to each interface flux law. Side 1 is the side the
fault normal points into, side 2 the opposite one; the coupling sign of side
``s`` is ``-1`` for side 1 and ``+1`` for side 2 (the sign of the outward
normal of the neighboring domain relative to the fault normal).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mdmesh import MortarInterface


class InterfaceLawError(Exception):
    """Inconsistent or ill-posed fault parameters."""


@dataclass
class EquiDimFaultPerm:
    """Full-tensor fault permeability split into in-plane and normal parts.

    ``k_parallel`` is the tangential (t x t) block, ``k_perp[s]`` the
    normal-normal entry on side s, and ``k_t[s]`` the normal-tangential row
    on side s, in the fault's in-plane axes. A homogeneous fault has equal
    sides; side-dependent values describe an inclusion whose filling varies
    across the aperture midline.
    """

    k_parallel: np.ndarray
    k_perp: tuple
    k_t: tuple

    def __post_init__(self):
        self.k_parallel = np.atleast_2d(np.asarray(self.k_parallel, dtype=float))
        self.k_t = tuple(np.atleast_1d(np.asarray(v, dtype=float)) for v in self.k_t)
        t = self.k_parallel.shape[0]
        if self.k_parallel.shape != (t, t):
            raise InterfaceLawError("k_parallel must be square")
        if len(self.k_perp) != 2 or len(self.k_t) != 2:
            raise InterfaceLawError("k_perp and k_t need one entry per side")
        for v in self.k_t:
            if v.shape != (t,):
                raise InterfaceLawError("k_t entries must match the in-plane dimension")
        if min(self.k_perp) <= 0:
            raise InterfaceLawError("k_perp must be positive")


@dataclass
class MixedDimLaw:
    """Aperture-scaled coefficients of the lower-dimensional subdomain."""

    kappa_parallel: np.ndarray  # (t, t)
    kappa_perp: tuple  # per side
    kappa_t: tuple  # per side, (t,)
    codim: int
    aperture: float

    def __post_init__(self):
        if min(self.kappa_perp) <= 0:
            raise InterfaceLawError("kappa_perp must be positive")


@dataclass
class EffectiveTensor:
    """Schur-eliminated in-plane tensor and the per-side coupling vectors."""

    tensor: np.ndarray  # (t, t)
    coupling: tuple  # per side, kappa_t / kappa_perp


def scale_to_mixed_dim(perm: EquiDimFaultPerm, aperture: float, codim: int) -> MixedDimLaw:
    """Scale an equi-dimensional fault permeability to codimension ``codim``.

    The in-plane tensor is integrated across the collapsed directions
    (factor aperture**codim), the transfer coefficients absorb the half-width
    of the jump (factor 2 * aperture**(codim-2)), and the normal-tangential
    coupling survives only for codimension one, where a distinct tangential
    plane exists.
    """
    if codim < 1:
        raise InterfaceLawError("codimension must be at least 1")
    if aperture <= 0:
        raise InterfaceLawError("aperture must be positive")
    kpar = aperture**codim * perm.k_parallel
    kperp = tuple(2.0 * aperture ** (codim - 2) * k for k in perm.k_perp)
    if codim == 1:
        kt = tuple(np.array(v, dtype=float) for v in perm.k_t)
    else:
        kt = tuple(np.zeros_like(np.asarray(v, dtype=float)) for v in perm.k_t)
    return MixedDimLaw(
        kappa_parallel=kpar,
        kappa_perp=kperp,
        kappa_t=kt,
        codim=codim,
        aperture=aperture,
    )


def check_wellposed(law: MixedDimLaw) -> tuple:
    """Well-posedness margin of the averaged fault law.

    The eliminated normal-flux block stays positive definite iff, on each
    side, ``kappa_perp`` exceeds ``kappa_t^T kappa_parallel^-1 kappa_t``:
    the Schur complement of ``kappa_parallel`` in the side's local
    permeability block. The margin of a side is that difference times
    ``det(kappa_parallel)``, written with the adjugate as ``kappa_perp
    det(kappa_parallel) - kappa_t^T adj(kappa_parallel) kappa_t`` so that
    it needs no inverse; its sign does not depend on the units of length
    or permeability. Returns ``(ok, margin)`` with the minimum over sides;
    nonpositive margins make the mixed-dimensional operator lose
    coercivity.
    """
    k = law.kappa_parallel
    detp = float(np.linalg.det(k)) if k.size else 1.0
    # The adjugate of an in-plane tensor, at most 2 x 2.
    adj = np.array([[k[1, 1], -k[0, 1]], [-k[1, 0], k[0, 0]]]) if len(k) == 2 else np.eye(len(k))
    margins = [kp * detp - float(kt @ adj @ kt) for kp, kt in zip(law.kappa_perp, law.kappa_t)]
    margin = min(margins)
    return margin > 0.0, margin


def schur_effective_tensor(law: MixedDimLaw) -> EffectiveTensor:
    """Effective in-plane tensor after eliminating the normal fluxes.

    Each side removes a rank-one term kappa_t kappa_t^T / kappa_perp, the
    Schur complement of the side's transfer coefficient in its local
    permeability block; each side's margin bounds its own share, not their
    sum, so the caller checks that the result is positive definite. The
    coupling vectors kappa_t / kappa_perp reappear both in the vector source
    induced by the interface fluxes and in the gradient term of the law.
    """
    tensor = law.kappa_parallel.copy()
    coupling = []
    for kp, kt in zip(law.kappa_perp, law.kappa_t):
        tensor -= np.outer(kt, kt) / kp
        coupling.append(np.asarray(kt, dtype=float) / kp)
    return EffectiveTensor(tensor=tensor, coupling=tuple(coupling))


def assemble_interface_blocks(itf: MortarInterface, law: MixedDimLaw) -> tuple:
    """Transfer resistance ``r = 1/kappa_perp`` and oriented coupling vector
    ``c = side_sign * kappa_t / kappa_perp`` of the side of ``itf``: a mortar
    cell of measure ``|m|`` and flux ``lam`` (positive from the lower to the
    higher subdomain) obeys ``r lam + |m| (trace_h - p_l) - |m| c . grad p_l
    = 0``, imposes the flux density ``-lam / |m|`` on its higher face and
    induces the vector source ``K_eff^-1 c lam / |m|`` in its lower cell.
    """
    kp = law.kappa_perp[itf.side - 1]
    kt = np.asarray(law.kappa_t[itf.side - 1], dtype=float)
    return 1.0 / kp, float(itf.side_sign) * kt / kp
