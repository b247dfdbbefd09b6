"""Convergence verification: error norms, orders, and the built-in studies.

Two kinds of reference are used. The thin-strip cases (case1, case2)
compare the reduced fault pressure against a fully resolved solve on a
fine grid. The network cases (network2d, cube3d) have no affordable
resolved reference, so they self-converge against a reference run at
twice the finest studied resolution (at most 40 cells per axis in 3D),
which is excluded from the order computation.
"""

from __future__ import annotations

import dataclasses
import itertools
import logging
import time
from dataclasses import dataclass, field

import numpy as np

from .config import CaseConfig, ConfigError, builtin_case
from .equidim import EquiDimCase, average_fault_pressure, solve_equidim
from .mdassembly import assemble_global, solve
from .mdmesh import build_cartesian_md_mesh

logger = logging.getLogger(__name__)

#: Each built-in study: the cells per axis of its levels, its reference, and
#: the reference's cells per axis when the whole ladder runs. An ``equidim``
#: reference is the resolved strip. A ``self`` reference is the same model at
#: twice the finest level run, capped at that size unless the levels reach
#: it. The 3D entries are multiples of 8 so the boundary patches (quarter and
#: seven-eighths marks) and the mid-plane faults stay on grid lines.
_STUDIES = {
    "case1": ((4, 8, 16, 32, 64), "equidim", 200),
    "case2": ((4, 8, 16, 32, 64), "equidim", 200),
    "network2d": ((8, 16, 32, 64), "self", 128),
    "cube3d": ((8, 16, 24), "self", 40),
}


class VerifyError(Exception):
    """Ill-posed error or order computation."""


def l2_fault_error(p, p_ref, sizes) -> float:
    """Relative size-weighted l2 distance between fault pressure fields.

    Both fields live on the cells of the coarse model; the reference must
    already be sampled there. The weights are the fault cell sizes, so the
    value approximates the relative L2 norm over the fault.
    """
    p = np.asarray(p, dtype=float)
    p_ref = np.asarray(p_ref, dtype=float)
    sizes = np.asarray(sizes, dtype=float)
    if p.shape != p_ref.shape or p.shape != sizes.shape:
        raise VerifyError("pressure, reference, and size arrays must match")
    denom = np.sqrt(np.sum(sizes * p_ref**2))
    if denom == 0.0:
        raise VerifyError("reference field has zero norm")
    return float(np.sqrt(np.sum(sizes * (p - p_ref) ** 2)) / denom)


def eoc(errors, h) -> list:
    """Order of convergence for each consecutive level pair.

    order_k = log(e_k / e_{k+1}) / log(h_k / h_{k+1}).
    """
    errors = np.asarray(errors, dtype=float)
    h = np.asarray(h, dtype=float)
    if errors.shape != h.shape or errors.size < 2:
        raise VerifyError("need matching error and size lists of length >= 2")
    if np.any(errors <= 0):
        raise VerifyError("orders are undefined for zero or negative errors")
    return [
        float(np.log(errors[k] / errors[k + 1]) / np.log(h[k] / h[k + 1]))
        for k in range(errors.size - 1)
    ]


def eoc_fit(errors, h) -> float:
    """Least-squares slope of log(error) against log(h)."""
    errors = np.asarray(errors, dtype=float)
    h = np.asarray(h, dtype=float)
    if errors.size < 2:
        raise VerifyError("need at least two levels to fit an order")
    if np.any(errors <= 0):
        raise VerifyError("orders are undefined for zero or negative errors")
    return float(np.polyfit(np.log(h), np.log(errors), 1)[0])


def sample_nearest(ref_points, ref_values, points) -> np.ndarray:
    """Nearest-point sampling with averaging over distance ties, for
    distinct reference points on a Cartesian lattice.

    Along each axis a point takes the nearest lattice coordinate, and the
    neighbour on its other side as well where that is as near, within 1e-9
    relative plus 1e-13. The result is the mean over the reference points
    at those combinations. On nested Cartesian grids a coarse center either
    coincides with a fine center or sits symmetrically between 2 (1D) or 4
    (2D) of them, so the mean is the symmetric local mean of the fine field.
    """
    ref_points = np.atleast_2d(np.asarray(ref_points, dtype=float))
    points = np.atleast_2d(np.asarray(points, dtype=float))
    ref_values = np.asarray(ref_values, dtype=float)
    axes = [np.unique(c) for c in ref_points.T]
    at = np.full([len(u) for u in axes], -1)  # reference point at each lattice node
    at[tuple(np.searchsorted(u, c) for u, c in zip(axes, ref_points.T))] = np.arange(len(ref_points))
    choices = []  # per axis: nearest index, the other neighbour, whether it ties
    for u, c in zip(axes, points.T):
        hi = np.clip(np.searchsorted(u, c), 0, len(u) - 1)
        lo = np.maximum(hi - 1, 0)
        d_lo, d_hi = np.abs(c - u[lo]), np.abs(u[hi] - c)
        near = np.where(d_hi < d_lo, hi, lo)
        other = lo + hi - near
        d0, d1 = np.minimum(d_lo, d_hi), np.maximum(d_lo, d_hi)
        choices.append((near, other, (other != near) & (d1 <= d0 * (1.0 + 1e-9) + 1e-13)))
    total = np.zeros(points.shape[0])
    count = np.zeros(points.shape[0])
    for pick in itertools.product((False, True), repeat=len(axes)):
        i = at[tuple(o if k else n for (n, o, _), k in zip(choices, pick))]
        hit = i >= 0
        for (_, _, tie), k in zip(choices, pick):
            if k:
                hit &= tie
        total += np.where(hit, ref_values[i], 0.0)
        count += hit
    if not count.all():
        raise VerifyError("reference points do not cover the nearest lattice points")
    return total / count


@dataclass
class LevelRecord:
    level: int
    h: float
    n_cells: int
    n_fault_cells: int
    error: float
    order: float = np.nan  # vs the previous level; nan on the first row


@dataclass
class StudyResult:
    """Per-level errors and orders of one convergence study."""

    case: str
    formulation: str
    records: list = field(default_factory=list)
    reference: str = ""

    @property
    def errors(self) -> np.ndarray:
        return np.array([r.error for r in self.records])

    @property
    def h(self) -> np.ndarray:
        return np.array([r.h for r in self.records])

    @property
    def orders(self) -> list:
        return [r.order for r in self.records[1:]]

    def mean_order(self) -> float:
        if len(self.records) < 2:
            raise VerifyError("need at least two levels for a mean order")
        return float(np.mean(self.orders))

    def to_csv(self) -> str:
        lines = ["level,h,N,N_f,error,eoc,formulation,case"]
        for r in self.records:
            lines.append(
                f"{r.level},{r.h:.10g},{r.n_cells},{r.n_fault_cells},"
                f"{_error_eoc(r)},{self.formulation},{self.case}"
            )
        return "\n".join(lines) + "\n"


def _error_eoc(r: LevelRecord) -> str:
    """The error and order CSV columns of a level; the first has no order."""
    order = "" if np.isnan(r.order) else f"{r.order:.6g}"
    return f"{r.error:.10g},{order}"


def fault_field(mesh, pressures):
    """Global centers, pressures, and sizes of all codimension-1 fault cells.

    Returns one (centers, values, sizes) triple per fault subdomain, in
    subdomain order. Intersection subdomains are excluded: their pressure
    is an auxiliary coupling quantity, and their measure is of lower order.
    """
    out = []
    for i, info in enumerate(mesh.info):
        if info.kind != "fault":
            continue
        g = mesh.subdomains[i]
        out.append((g.cell_centers_global(), pressures[i], g.cell_volumes))
    return out


def _ladder(ladder, levels: int) -> list:
    """Per-axis cell counts of each study level: the ladder's first
    ``levels`` entries, extended by doubling the last one."""
    steps = list(ladder[:levels])
    while len(steps) < levels:
        steps.append(steps[-1] * 2)
    return steps


def _solve_resolution(cfg: CaseConfig, formulation: str, n: int):
    scfg = dataclasses.replace(cfg, resolution=(n,) * len(cfg.resolution))
    mesh = build_cartesian_md_mesh(
        scfg.domain_lo, scfg.domain_hi, scfg.resolution, scfg.fault_specs()
    )
    system = assemble_global(mesh, scfg.material_set(formulation), scfg.bcs)
    sol = solve(system)
    return mesh, sol


def _study_h(cfg: CaseConfig, n: int) -> float:
    lo = np.asarray(cfg.domain_lo, dtype=float)
    hi = np.asarray(cfg.domain_hi, dtype=float)
    return float(np.max((hi - lo) / float(n)))


def equidim_oracle(cfg: CaseConfig, resolution: int = 200):
    """Resolved-strip reference profile for a single full-width fault.

    Builds the equi-dimensional configuration matching ``cfg`` (one strip
    when both fault sides share a tensor, two half-strips otherwise),
    solves it, and returns the across-fault averaged pressure profile
    (coordinates, values) taken over the two cell rows straddling the
    fault plane.

    Each profile is solved once per process and keyed by exactly the values
    it reads: the domain, ``matrix_k``, the fault, the boundary clauses and
    the resolution. The returned arrays are read-only. The reference's matrix
    is homogeneous: a configuration with regions raises ConfigError.
    """
    if len(cfg.faults) != 1:
        raise ConfigError("the resolved reference supports exactly one fault")
    if cfg.matrix_regions:
        raise ConfigError("the resolved reference models a homogeneous matrix only")
    f = cfg.faults[0]
    key = (
        tuple(cfg.domain_lo), tuple(cfg.domain_hi), cfg.matrix_k,
        tuple(f.p0), tuple(f.p1), f.aperture, f.k_parallel, tuple(f.k_perp), tuple(f.k_t),
        tuple((b.side, b.kind, b.value, b.box and tuple(map(tuple, b.box))) for b in cfg.bcs),
        resolution,
    )
    if key in _ORACLE_PROFILES:
        return _ORACLE_PROFILES[key]
    s = f.spec()
    ax = s.axis
    ip = s.inplane_axes[0]
    lo = np.asarray(cfg.domain_lo, dtype=float)
    hi = np.asarray(cfg.domain_hi, dtype=float)
    dim = lo.shape[0]
    if dim != 2:
        raise ConfigError("the resolved reference is two-dimensional only")
    h = (hi[ax] - lo[ax]) / resolution
    y = s.plane
    a = f.aperture

    def tensor(kt, kperp):
        t = np.zeros((dim, dim))
        t[ip, ip] = f.k_parallel
        t[ax, ax] = kperp
        t[ip, ax] = t[ax, ip] = kt
        return t

    def strip(n_lo, n_hi, kt, kperp):
        s_lo = lo.copy()
        s_hi = hi.copy()
        s_lo[ax] = n_lo
        s_hi[ax] = n_hi
        return (tuple(s_lo), tuple(s_hi), tensor(kt, kperp))

    if f.k_t[0] == f.k_t[1] and f.k_perp[0] == f.k_perp[1]:
        strips = [strip(y - a / 2, y + a / 2, f.k_t[0], f.k_perp[0])]
    else:
        strips = [
            strip(y, y + a / 2, f.k_t[0], f.k_perp[0]),  # side 1: above
            strip(y - a / 2, y, f.k_t[1], f.k_perp[1]),  # side 2: below
        ]
    case = EquiDimCase(
        domain_lo=tuple(lo),
        domain_hi=tuple(hi),
        resolution=(resolution,) * dim,
        matrix_k=cfg.matrix_k * np.eye(dim),
        strips=strips,
        bcs=cfg.bcs,
    )
    sol = solve_equidim(case)
    band_lo = lo.copy()
    band_hi = hi.copy()
    band_lo[ax] = y - h
    band_hi[ax] = y + h
    profile = average_fault_pressure(sol, band_lo, band_hi, axis=ip)
    for values in profile:
        values.setflags(write=False)
    _ORACLE_PROFILES[key] = profile
    return profile


#: Profiles of :func:`equidim_oracle` by the values they were solved from.
_ORACLE_PROFILES = {}


def _reference(cfg, formulation, steps, kind, n):
    """Per fault, the reference points and values, the axes of the fault
    centers they span, and the reference's label."""
    if kind == "equidim":
        xs, peq = equidim_oracle(cfg, n)
        return [(xs[:, None], peq)], [cfg.faults[0].spec().inplane_axes[0]], f"equidim:{n}"
    ref_n = 2 * steps[-1]
    if steps[-1] < n:
        ref_n = min(ref_n, n)
    logger.info("%s: solving self-reference at %d cells/axis", cfg.name, ref_n)
    ref_mesh, ref_sol = _solve_resolution(cfg, formulation, ref_n)
    refs = [(c, v) for c, v, _ in fault_field(ref_mesh, ref_sol.pressures)]
    dim = len(cfg.resolution)
    return refs, list(range(dim)), "self:" + "x".join([str(ref_n)] * dim)


def run_case(case: str, formulation: str = "semilocal", levels: int = None) -> StudyResult:
    """Run one built-in convergence study and return its per-level table."""
    if formulation not in ("local", "semilocal"):
        raise ConfigError(f"unknown formulation {formulation!r}")
    cfg = builtin_case(case)
    ladder, kind, n_ref = _STUDIES[case]
    if levels is None:
        levels = len(ladder)
    if levels < 1:
        raise ConfigError("need at least one level")
    steps = _ladder(ladder, levels)
    t0 = time.time()
    refs, axes, reference = _reference(cfg, formulation, steps, kind, n_ref)
    records = []
    for lv, n in enumerate(steps):
        mesh, sol = _solve_resolution(cfg, formulation, n)
        parts = fault_field(mesh, sol.pressures)
        if len(parts) != len(refs):
            raise VerifyError("fault subdomain count changed across levels")
        centers, values, sizes = zip(*parts)
        ref_vals = [sample_nearest(rp, rv, c[:, axes]) for c, (rp, rv) in zip(centers, refs)]
        values = np.concatenate(values)
        err = l2_fault_error(values, np.concatenate(ref_vals), np.concatenate(sizes))
        records.append(
            LevelRecord(
                level=lv,
                h=_study_h(cfg, n),
                n_cells=sum(g.n_cells for g in mesh.subdomains),
                n_fault_cells=values.shape[0],
                error=err,
            )
        )
        logger.info("%s at %d cells/axis: error %.6g", case, n, err)
    if len(records) >= 2:
        orders = eoc([r.error for r in records], [r.h for r in records])
        for rec, order in zip(records[1:], orders):
            rec.order = order
    logger.info("%s (%s): %d levels in %.1fs", case, formulation, levels, time.time() - t0)
    return StudyResult(
        case=case, formulation=formulation, records=records, reference=reference
    )
