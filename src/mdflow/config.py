"""Case configuration: file format, validation, and built-in studies.

A configuration file is a plain-text section format:

    # comment
    [domain]
    lo = 0 0
    hi = 1 1
    resolution = 8 8
    matrix_k = 1.0
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

:data:`SECTIONS` lists every key with the count and range of its value and
its default. ``[region]``, ``[fault]`` and ``[bc]`` may repeat. Order
matters for regions (later boxes override) and boundary conditions (later
clauses override). Numbers are finite and follow the unit conventions of
the solver: lengths in meters, conductivities in m/s, heads in meters; no
unit suffixes are written. ``k_t`` and ``k_perp`` take one value for both
fault sides or two values (side 1, the side the fault normal points into,
first). ``mdflow run`` solves the semi-local law; the paper's local law is
the same fault with ``k_t = 0``. ``box`` lists the low corner then the high
corner; no low coordinate may exceed its high one. A region's box must
hold at least one matrix cell center; a boundary clause's box is flat on
its side and must select at least one boundary face of the mesh. Boundary
sides are named x-, x+, y-, y+, z-, z+. The ``[domain]`` ``name`` starts
the name of every output file, so it may be neither empty nor hold a path
separator; ``output`` may not be empty. A ``[fault]`` ``name`` may not be
empty, and no two faults may share a name, whether given or defaulted.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .mdassembly import BcClause, MaterialSet
from .mdmesh import FaultSpec
from .semilocal import EquiDimFaultPerm

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
    output: str = "."
    name: str = "case"

    def validate(self) -> None:
        """The checks that involve more than one key; each key's own count and
        range are checked where :func:`parse_config` reads it."""
        d = len(self.domain_lo)
        if len(self.domain_hi) != d or len(self.resolution) != d:
            raise ConfigError("domain corners and resolution disagree in dimension")
        if d not in (2, 3):
            raise ConfigError(f"domain must be 2D or 3D, got {d}D")
        if any(h <= l for l, h in zip(self.domain_lo, self.domain_hi)):
            raise ConfigError("domain high corner must exceed low corner")

    def fault_specs(self) -> list:
        return [f.spec() for f in self.faults]

    def material_set(self, formulation: str = "semilocal") -> MaterialSet:
        """Material data, with cross terms dropped for the local variant."""
        if formulation not in ("local", "semilocal"):
            raise ConfigError(f"unknown formulation {formulation!r}")
        perms = [f.equi_perm() for f in self.faults]
        if formulation == "local":
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
            fault_names=[f.name for f in self.faults],
            matrix_regions=regions,
        )


# ---------------------------------------------------------------------------
# Parsing.
# ---------------------------------------------------------------------------


def _floats(text: str, line: int, key: str, dim=None) -> tuple:
    out = []
    for tok in text.split():
        try:
            v = float(tok)
        except ValueError:
            raise ConfigError(
                f"line {line}: expected numbers for {key!r}, got {tok!r}"
            ) from None
        if not math.isfinite(v):
            raise ConfigError(f"line {line}: {key!r} must be finite, got {tok!r}")
        out.append(v)
    if not out:
        raise ConfigError(f"line {line}: {key!r} needs at least one number")
    return tuple(out)


# A reader turns a key's text into its value or raises ConfigError at the
# key's line. It is called as ``reader(text, line, key, dim)``, where ``dim``
# is the domain's dimension (None while the domain itself is read);
# ``_floats`` reads any count of numbers.


def _number(positive=False, sides=False):
    """Reader of one number or, with ``sides``, of one per fault side: one
    value for both sides or two, side 1 first."""
    def read(text, line, key, dim):
        vals = _floats(text, line, key)
        if len(vals) > (2 if sides else 1):
            count = "one or two values" if sides else "one value"
            raise ConfigError(f"line {line}: {key!r} takes {count}")
        if positive and min(vals) <= 0:
            raise ConfigError(f"line {line}: {key!r} must be positive")
        return (vals[0], vals[-1]) if sides else vals[0]
    return read


def _point(text, line, key, dim):
    vals = _floats(text, line, key)
    if len(vals) != dim:
        raise ConfigError(f"line {line}: {key!r} needs {dim} numbers, one per axis")
    return vals


def _box(text, line, key, dim):
    vals = _floats(text, line, key)
    if len(vals) != 2 * dim:
        raise ConfigError(
            f"line {line}: 'box' needs {2 * dim} numbers (low corner, high corner)"
        )
    lo, hi = vals[:dim], vals[dim:]
    if any(a > b for a, b in zip(lo, hi)):
        raise ConfigError(f"line {line}: 'box' low corner {lo} exceeds its high corner {hi}")
    return (lo, hi)


def _resolution(text, line, key, dim):
    vals = _floats(text, line, key)
    if any(r != int(r) or r <= 0 for r in vals):
        raise ConfigError(f"line {line}: resolution entries must be positive integers")
    return tuple(int(r) for r in vals)


def _side(text, line, key, dim):
    if text.lower() not in SIDE_NAMES[: 2 * dim]:
        raise ConfigError(f"line {line}: unknown boundary side {text!r}")
    return SIDE_NAMES.index(text.lower())


def _kind(text, line, key, dim):
    if text.lower() not in ("dirichlet", "neumann"):
        raise ConfigError(f"line {line}: unknown condition kind {text!r}")
    return text.lower()


def _nonempty(text, line, key, dim):
    if not text:
        raise ConfigError(f"line {line}: {key!r} needs a value")
    return text


def _file_stem(text, line, key, dim):
    """The case name, which starts the name of every output file."""
    text = _nonempty(text, line, key, dim)
    if any(sep and sep in text for sep in ("/", os.sep, os.altsep)):
        raise ConfigError(f"line {line}: {key!r} must not hold a path separator, got {text!r}")
    return text


#: Default of a key that every section of its kind must set.
REQUIRED = object()

#: Every key of every section, in reading order: its reader and its default.
#: A fault without a name is named F1, F2, ... by its position.
SECTIONS = {
    "domain": {
        "lo": (_floats, REQUIRED),
        "hi": (_floats, REQUIRED),
        "resolution": (_resolution, REQUIRED),
        "matrix_k": (_number(positive=True), 1.0),
        "output": (_nonempty, "."),
        "name": (_file_stem, "case"),
    },
    "region": {
        "box": (_box, REQUIRED),
        "k": (_number(positive=True), REQUIRED),
    },
    "fault": {
        "p0": (_point, REQUIRED),
        "p1": (_point, REQUIRED),
        "aperture": (_number(positive=True), REQUIRED),
        "k_parallel": (_number(positive=True), REQUIRED),
        "k_perp": (_number(positive=True, sides=True), REQUIRED),
        "k_t": (_number(sides=True), (0.0, 0.0)),
        "name": (_nonempty, None),
    },
    "bc": {
        "side": (_side, REQUIRED),
        "kind": (_kind, REQUIRED),
        "value": (_number(), REQUIRED),
        "box": (_box, None),
    },
}


def _read_section(name: str, start: int, entries: dict, dim) -> dict:
    values = {}
    for key, (reader, default) in SECTIONS[name].items():
        if key in entries:
            values[key] = reader(*entries[key], key, dim)
        elif default is REQUIRED:
            raise ConfigError(
                f"line {start}: [{name}] section is missing required key {key!r}"
            )
        else:
            values[key] = default
    return values


def parse_config(text: str) -> CaseConfig:
    """Parse configuration text, reporting errors with their line number."""
    sections = []  # (name, start_line, {key: (raw, line)})
    current = None
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError(f"line {ln}: unterminated section header")
            name = line[1:-1].strip().lower()
            if name not in SECTIONS:
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
        name = current[0]
        if key not in SECTIONS[name]:
            raise ConfigError(f"line {ln}: unknown key {key!r} in [{name}]")
        if key in current[2]:
            raise ConfigError(f"line {ln}: duplicate key {key!r} in [{name}]")
        current[2][key] = (val.strip(), ln)

    domains = [s for s in sections if s[0] == "domain"]
    if not domains:
        raise ConfigError("line 1: configuration needs a [domain] section")
    if len(domains) > 1:
        raise ConfigError(
            f"line {domains[1][1]}: more than one [domain] section"
        )
    _, dline, dsec = domains[0]
    values = _read_section("domain", dline, dsec, None)
    cfg = CaseConfig(domain_lo=values.pop("lo"), domain_hi=values.pop("hi"), **values)
    try:
        cfg.validate()
    except ConfigError as exc:
        raise ConfigError(f"line {dline}: {exc}") from None

    dim = len(cfg.domain_lo)
    for name, start, entries in sections:
        if name == "domain":
            continue
        values = _read_section(name, start, entries, dim)
        if name == "region":
            cfg.matrix_regions.append((*values["box"], values["k"]))
        elif name == "fault":
            if values["name"] is None:
                values["name"] = f"F{len(cfg.faults) + 1}"
            if values["name"] in [f.name for f in cfg.faults]:
                line = entries["name"][1] if "name" in entries else start
                raise ConfigError(f"line {line}: fault name {values['name']!r} is taken")
            cfg.faults.append(FaultConfig(**values))
        else:
            cfg.bcs.append(BcClause(**values, line=entries["box"][1] if "box" in entries else None))
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
