"""Case configuration: file format, validation, and built-in studies.

A configuration file is a plain-text section format:

    # comment
    [domain]
    lo = 0 0
    hi = 1 1
    resolution = 8 8
    matrix_k = 1.0
    formulation = semilocal
    output = out

    [region]
    box = 0.5 0.5 1 1
    k = 0.1

    [fault]
    p0 = 0 0.5
    p1 = 1 0.5
    aperture = 0.01
    k_parallel = 100
    k_perp = 100
    k_t = 80
    name = main

    [bc]
    side = y-
    kind = dirichlet
    value = 10
    box = 0.25 0 0.75 0

``[region]``, ``[fault]`` and ``[bc]`` may repeat. Order matters for
regions (later boxes override) and boundary conditions (later clauses
override). Numbers follow the unit conventions of the solver: lengths in
meters, conductivities in m/s, heads in meters; no unit suffixes are
written. ``k_t`` and ``k_perp`` take one value for both fault sides or two
values (side 1, the side the fault normal points into, first). ``box``
lists the low corner then the high corner; no low coordinate may exceed its
high one, and a boundary clause's box is flat on its side. Boundary sides
are named x-, x+, y-, y+, z-, z+.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace

import numpy as np

from .mdassembly import BcClause, MaterialSet
from .mdmesh import FaultSpec
from .semilocal import EquiDimFaultPerm

logger = logging.getLogger(__name__)

SIDE_NAMES = ("x-", "x+", "y-", "y+", "z-", "z+")


class ConfigError(Exception):
    """Malformed configuration text or inconsistent values."""


@dataclass
class FaultConfig:
    """One planar inclusion with isotropic in-plane conductivity.

    Cross-term and normal conductivities are scalars per side; the cross
    term acts along the first in-plane axis (the only case the axis-aligned
    geometry needs; :class:`EquiDimFaultPerm` accepts full vectors and
    tensors).
    """

    p0: tuple
    p1: tuple
    aperture: float
    k_parallel: float
    k_perp: tuple  # (side1, side2)
    k_t: tuple  # (side1, side2)
    name: str = ""

    def spec(self) -> FaultSpec:
        return FaultSpec(p0=tuple(self.p0), p1=tuple(self.p1), name=self.name)

    def equi_perm(self) -> EquiDimFaultPerm:
        t = len(self.p0) - 1
        k_t = np.zeros((2, t))
        k_t[:, 0] = self.k_t
        return EquiDimFaultPerm(
            k_parallel=self.k_parallel * np.eye(t),
            k_perp=(self.k_perp[0], self.k_perp[1]),
            k_t=(k_t[0], k_t[1]),
        )


@dataclass
class CaseConfig:
    """Everything needed to mesh, assemble, and solve one configuration."""

    domain_lo: tuple
    domain_hi: tuple
    resolution: tuple
    matrix_k: float = 1.0
    matrix_regions: list = field(default_factory=list)  # (lo, hi, k)
    faults: list = field(default_factory=list)
    bcs: list = field(default_factory=list)
    formulation: str = "semilocal"
    output: str = "."
    name: str = "case"

    def validate(self) -> None:
        d = len(self.domain_lo)
        if len(self.domain_hi) != d or len(self.resolution) != d:
            raise ConfigError("domain corners and resolution disagree in dimension")
        if d not in (2, 3):
            raise ConfigError(f"domain must be 2D or 3D, got {d}D")
        if any(h <= l for l, h in zip(self.domain_lo, self.domain_hi)):
            raise ConfigError("domain high corner must exceed low corner")
        if any(int(r) <= 0 for r in self.resolution):
            raise ConfigError("resolution entries must be positive")
        if self.formulation not in ("local", "semilocal"):
            raise ConfigError(f"unknown formulation {self.formulation!r}")
        for f in self.faults:
            if len(f.p0) != d or len(f.p1) != d:
                raise ConfigError(
                    f"fault {f.name!r} corner dimension disagrees with domain"
                )
            if f.aperture <= 0:
                raise ConfigError(f"fault {f.name!r} aperture must be positive")
            if any(k <= 0 for k in f.k_perp):
                raise ConfigError(f"fault {f.name!r} k_perp must be positive")
        for clause in self.bcs:
            if not 0 <= clause.side < 2 * d:
                raise ConfigError(f"boundary side {clause.side} out of range")

    def fault_specs(self) -> list:
        return [f.spec() for f in self.faults]

    def material_set(self, formulation: str = None) -> MaterialSet:
        """Material data, with cross terms dropped for the local variant."""
        form = formulation or self.formulation
        perms = [f.equi_perm() for f in self.faults]
        if form == "local":
            perms = [
                replace(p, k_t=tuple(np.zeros_like(v) for v in p.k_t))
                for p in perms
            ]
        d = len(self.domain_lo)
        regions = [
            (lo, hi, float(k) * np.eye(d)) for lo, hi, k in self.matrix_regions
        ]
        return MaterialSet(
            matrix_base=self.matrix_k * np.eye(d),
            fault_perms=perms,
            fault_apertures=[f.aperture for f in self.faults],
            matrix_regions=regions,
        )


# ---------------------------------------------------------------------------
# Parsing.
# ---------------------------------------------------------------------------

_DOMAIN_KEYS = {"lo", "hi", "resolution", "matrix_k", "formulation", "output", "name"}
_REGION_KEYS = {"box", "k"}
_FAULT_KEYS = {"p0", "p1", "aperture", "k_parallel", "k_perp", "k_t", "name"}
_BC_KEYS = {"side", "kind", "value", "box"}
_SECTION_KEYS = {
    "domain": _DOMAIN_KEYS,
    "region": _REGION_KEYS,
    "fault": _FAULT_KEYS,
    "bc": _BC_KEYS,
}


def _floats(text: str, line: int, key: str) -> list:
    out = []
    for tok in text.split():
        try:
            out.append(float(tok))
        except ValueError:
            raise ConfigError(
                f"line {line}: expected numbers for {key!r}, got {tok!r}"
            ) from None
    if not out:
        raise ConfigError(f"line {line}: {key!r} needs at least one number")
    return out


def _require(sec: dict, key: str, line: int, section: str):
    if key not in sec:
        raise ConfigError(
            f"line {line}: [{section}] section is missing required key {key!r}"
        )
    return sec[key]


def _scalar(text: str, line: int, key: str) -> float:
    vals = _floats(text, line, key)
    if len(vals) != 1:
        raise ConfigError(f"line {line}: {key!r} takes one value")
    return vals[0]


def _pair(vals: list, line: int, key: str) -> tuple:
    if len(vals) == 1:
        return (vals[0], vals[0])
    if len(vals) == 2:
        return (vals[0], vals[1])
    raise ConfigError(f"line {line}: {key!r} takes one or two values")


def _box(vals: list, dim: int, line: int) -> tuple:
    if len(vals) != 2 * dim:
        raise ConfigError(
            f"line {line}: 'box' needs {2 * dim} numbers (low corner, high corner)"
        )
    lo, hi = tuple(vals[:dim]), tuple(vals[dim:])
    if any(a > b for a, b in zip(lo, hi)):
        raise ConfigError(f"line {line}: 'box' low corner {lo} exceeds its high corner {hi}")
    return (lo, hi)


def parse_config(text: str) -> CaseConfig:
    """Parse configuration text, reporting errors with their line number."""
    sections = []  # (name, start_line, {key: (line, raw)})
    current = None
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError(f"line {ln}: unterminated section header")
            name = line[1:-1].strip().lower()
            if name not in _SECTION_KEYS:
                raise ConfigError(f"line {ln}: unknown section [{name}]")
            current = (name, ln, {})
            sections.append(current)
            continue
        if "=" not in line:
            raise ConfigError(f"line {ln}: expected 'key = value'")
        if current is None:
            raise ConfigError(f"line {ln}: key outside of any section")
        key, _, val = line.partition("=")
        key = key.strip().lower()
        val = val.strip()
        name = current[0]
        if key not in _SECTION_KEYS[name]:
            raise ConfigError(f"line {ln}: unknown key {key!r} in [{name}]")
        if key in current[2]:
            raise ConfigError(f"line {ln}: duplicate key {key!r} in [{name}]")
        current[2][key] = (ln, val)

    domains = [s for s in sections if s[0] == "domain"]
    if not domains:
        raise ConfigError("line 1: configuration needs a [domain] section")
    if len(domains) > 1:
        raise ConfigError(
            f"line {domains[1][1]}: more than one [domain] section"
        )
    _, dline, dsec = domains[0]

    def dval(key, default=None, required=False):
        if key in dsec:
            return dsec[key]
        if required:
            raise ConfigError(
                f"line {dline}: [domain] section is missing required key {key!r}"
            )
        return (dline, default)

    ln, lo_raw = dval("lo", required=True)
    lo = tuple(_floats(lo_raw, ln, "lo"))
    dim = len(lo)
    ln, hi_raw = dval("hi", required=True)
    hi = tuple(_floats(hi_raw, ln, "hi"))
    ln, res_raw = dval("resolution", required=True)
    res_f = _floats(res_raw, ln, "resolution")
    for r in res_f:
        if r != int(r) or int(r) <= 0:
            raise ConfigError(f"line {ln}: resolution entries must be positive integers")
    res = tuple(int(r) for r in res_f)
    ln, mk = dval("matrix_k", "1.0")
    matrix_k = _scalar(mk, ln, "matrix_k")

    cfg = CaseConfig(
        domain_lo=lo,
        domain_hi=hi,
        resolution=res,
        matrix_k=matrix_k,
        formulation=dval("formulation", "semilocal")[1].strip(),
        output=dval("output", ".")[1].strip(),
        name=dval("name", "case")[1].strip(),
    )

    for name, sline, sec in sections:
        if name == "domain":
            continue
        if name == "region":
            ln, braw = _require(sec, "box", sline, name)
            box = _box(_floats(braw, ln, "box"), dim, ln)
            ln, kraw = _require(sec, "k", sline, name)
            cfg.matrix_regions.append((box[0], box[1], _scalar(kraw, ln, "k")))
        elif name == "fault":
            ln, raw = _require(sec, "p0", sline, name)
            p0 = tuple(_floats(raw, ln, "p0"))
            ln, raw = _require(sec, "p1", sline, name)
            p1 = tuple(_floats(raw, ln, "p1"))
            ln, raw = _require(sec, "aperture", sline, name)
            ap = _scalar(raw, ln, "aperture")
            if ap <= 0:
                raise ConfigError(f"line {ln}: aperture must be positive")
            ln, raw = _require(sec, "k_parallel", sline, name)
            kpar = _scalar(raw, ln, "k_parallel")
            ln, raw = _require(sec, "k_perp", sline, name)
            kperp = _pair(_floats(raw, ln, "k_perp"), ln, "k_perp")
            if kperp[0] <= 0 or kperp[1] <= 0:
                raise ConfigError(f"line {ln}: k_perp must be positive")
            if "k_t" in sec:
                ln, raw = sec["k_t"]
                kt = _pair(_floats(raw, ln, "k_t"), ln, "k_t")
            else:
                kt = (0.0, 0.0)
            fname = sec["name"][1] if "name" in sec else f"F{len(cfg.faults) + 1}"
            cfg.faults.append(
                FaultConfig(p0, p1, ap, kpar, kperp, kt, name=fname)
            )
        elif name == "bc":
            ln, raw = _require(sec, "side", sline, name)
            side_name = raw.strip().lower()
            if side_name not in SIDE_NAMES[: 2 * dim]:
                raise ConfigError(f"line {ln}: unknown boundary side {raw!r}")
            side = SIDE_NAMES.index(side_name)
            ln, raw = _require(sec, "kind", sline, name)
            kind = raw.strip().lower()
            if kind not in ("dirichlet", "neumann"):
                raise ConfigError(f"line {ln}: unknown condition kind {raw!r}")
            ln, raw = _require(sec, "value", sline, name)
            value = _scalar(raw, ln, "value")
            box = None
            if "box" in sec:
                ln, raw = sec["box"]
                box = _box(_floats(raw, ln, "box"), dim, ln)
            cfg.bcs.append(BcClause(side=side, kind=kind, value=value, box=box))

    try:
        cfg.validate()
    except ConfigError as exc:
        raise ConfigError(f"line {dline}: {exc}") from None
    return cfg


# ---------------------------------------------------------------------------
# Built-in study configurations.
# ---------------------------------------------------------------------------

BUILTIN_CASES = ("case1", "case2", "network2d", "cube3d")


def builtin_case(name: str) -> CaseConfig:
    """The four shipped configurations at their coarsest resolution.

    case1: unit square, one full-width horizontal fault with a strong
    cross term; head 10 on the middle half of the bottom edge, head 1 on
    the outer quarters of the top edge.
    case2: as case1 with a thicker fault and side-dependent cross terms.
    network2d: five axis-aligned faults, two conductive and three
    blocking, head drop top to bottom.
    cube3d: unit cube with three full mid-planes, flux-driven inflow near
    the origin corner, fixed head near the opposite corner.
    """
    if name == "case1" or name == "case2":
        a = 0.01 if name == "case1" else 0.02
        kt = (80.0, 80.0) if name == "case1" else (50.0, 80.0)
        return CaseConfig(
            domain_lo=(0.0, 0.0),
            domain_hi=(1.0, 1.0),
            resolution=(4, 4),
            matrix_k=1.0,
            faults=[
                FaultConfig(
                    p0=(0.0, 0.5),
                    p1=(1.0, 0.5),
                    aperture=a,
                    k_parallel=100.0,
                    k_perp=(100.0, 100.0),
                    k_t=kt,
                    name="main",
                )
            ],
            bcs=[
                BcClause(2, "dirichlet", 10.0, box=((0.25, 0.0), (0.75, 0.0))),
                BcClause(3, "dirichlet", 1.0, box=((0.0, 1.0), (0.25, 1.0))),
                BcClause(3, "dirichlet", 1.0, box=((0.75, 1.0), (1.0, 1.0))),
            ],
            name=name,
        )
    if name == "network2d":
        cond = dict(k_parallel=100.0, k_perp=(100.0, 100.0), k_t=(10.0, 10.0))
        block = dict(k_parallel=0.01, k_perp=(0.01, 0.01), k_t=(0.001, 0.001))
        a = 0.01
        return CaseConfig(
            domain_lo=(0.0, 0.0),
            domain_hi=(1.0, 1.0),
            resolution=(8, 8),
            matrix_k=1.0,
            faults=[
                FaultConfig((0.0, 0.5), (1.0, 0.5), a, name="F1", **cond),
                FaultConfig((0.5, 0.5), (0.5, 1.0), a, name="F2", **cond),
                FaultConfig((0.25, 0.75), (0.75, 0.75), a, name="F3", **block),
                FaultConfig((0.25, 0.0), (0.25, 0.5), a, name="F4", **block),
                FaultConfig((0.25, 0.25), (1.0, 0.25), a, name="F5", **block),
            ],
            bcs=[
                BcClause(3, "dirichlet", 1.0),
                BcClause(2, "dirichlet", 0.0),
            ],
            name=name,
        )
    if name == "cube3d":
        inlet = ((0.0, 0.0, 0.0), (0.25, 0.25, 0.25))
        outlet = ((0.875, 0.875, 0.875), (1.0, 1.0, 1.0))
        mat = dict(
            aperture=1e-4,
            k_parallel=1e4,
            k_perp=(1e4, 1e4),
            k_t=(1e3, 1e3),
        )
        return CaseConfig(
            domain_lo=(0.0, 0.0, 0.0),
            domain_hi=(1.0, 1.0, 1.0),
            resolution=(8, 8, 8),
            matrix_k=1.0,
            matrix_regions=[((0.5, 0.5, 0.5), (1.0, 1.0, 1.0), 0.1)],
            faults=[
                FaultConfig((0.5, 0.0, 0.0), (0.5, 1.0, 1.0), name="FX", **mat),
                FaultConfig((0.0, 0.5, 0.0), (1.0, 0.5, 1.0), name="FY", **mat),
                FaultConfig((0.0, 0.0, 0.5), (1.0, 1.0, 0.5), name="FZ", **mat),
            ],
            bcs=[
                BcClause(0, "neumann", -1.0, box=inlet),
                BcClause(2, "neumann", -1.0, box=inlet),
                BcClause(4, "neumann", -1.0, box=inlet),
                BcClause(1, "dirichlet", 1.0, box=outlet),
                BcClause(3, "dirichlet", 1.0, box=outlet),
                BcClause(5, "dirichlet", 1.0, box=outlet),
            ],
            name=name,
        )
    raise ConfigError(
        f"unknown case {name!r}; available: {', '.join(BUILTIN_CASES)}"
    )
