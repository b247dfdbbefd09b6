"""Benchmark workloads and the seeded configuration generator.

Each ``run`` workload turns ``(workload, seed)`` into one configuration
file for ``mdflow run``. The geometry and resolution are fixed, so the size
of an op does not depend on the seed; the seed draws the fault
conductivities, the matrix and region conductivities and the boundary
values. The geometries copy the built-in ``network2d`` and ``cube3d``
studies here, so that a change to the library's built-in cases cannot
silently change the benchmark's inputs.

Cross terms are drawn as a fraction ``r <= 0.5`` of the largest value the
well-posedness screen accepts, ``kappa_perp * det(kappa_parallel)``, so
every generated configuration keeps at least three quarters of its
coercivity margin.

The conductivities move the pivots of the sparse LU, and so its fill. On
``cube3d-24``, where the LU is most of the op, the full ranges spread the
fill over 18.2-18.4 M and split peak RSS between two levels, so there the
conductivities vary by at most 5% and the cross terms keep one sign.
Seeds 0-9 then land within 0.1% of one fill.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "run" (mdflow run <cfg>) or "compare" (mdflow compare <case>)
    case: str
    size: int  # cells per axis of a run workload; unused by compare


WORKLOADS = {
    w.name: w
    for w in (
        Workload("network2d-256", "run", "network2d", 256),
        Workload("cube3d-24", "run", "cube3d", 24),
        Workload("compare-case1", "compare", "case1", 0),
    )
}

def _fmt(*values) -> str:
    return " ".join(f"{float(v):.12g}" for v in values)


def _log_uniform(rng: random.Random, base: float, decades: float) -> float:
    return base * 10.0 ** rng.uniform(-decades, decades)


def _fault(rng, p0, p1, aperture, k_parallel, k_perp, name,
           decades=0.3, cross=(0.05, 0.5), signed=True) -> list:
    """One ``[fault]`` section with seeded conductivities around the base.

    Conductivities vary by up to ``decades`` either way; each cross term is
    a fraction in ``cross`` of its limit, of random sign if ``signed``.
    """
    dim = len(p0)
    kpar = _log_uniform(rng, k_parallel, decades)
    kperp = [_log_uniform(rng, k_perp, decades) for _ in range(2)]
    kt = []
    for kp in kperp:
        # Largest |k_t| the screen accepts after aperture scaling.
        limit = math.sqrt((2.0 * kp / aperture) * (aperture * kpar) ** (dim - 1))
        sign = rng.choice((-1.0, 1.0)) if signed else 1.0
        kt.append(sign * rng.uniform(*cross) * limit)
    return [
        "",
        "[fault]",
        f"p0 = {_fmt(*p0)}",
        f"p1 = {_fmt(*p1)}",
        f"aperture = {_fmt(aperture)}",
        f"k_parallel = {_fmt(kpar)}",
        f"k_perp = {_fmt(*kperp)}",
        f"k_t = {_fmt(*kt)}",
        f"name = {name}",
    ]


def _bc(side, kind, value, box=None) -> list:
    out = ["", "[bc]", f"side = {side}", f"kind = {kind}", f"value = {_fmt(value)}"]
    if box is not None:
        out.append(f"box = {_fmt(*box[0], *box[1])}")
    return out


def _network2d(rng: random.Random, n: int) -> list:
    lines = [
        "[domain]",
        "lo = 0 0",
        "hi = 1 1",
        f"resolution = {n} {n}",
        f"matrix_k = {_fmt(_log_uniform(rng, 1.0, 0.3))}",
        "name = network2d",
    ]
    cond = dict(aperture=0.01, k_parallel=100.0, k_perp=100.0)
    block = dict(aperture=0.01, k_parallel=0.01, k_perp=0.01)
    lines += _fault(rng, (0.0, 0.5), (1.0, 0.5), name="F1", **cond)
    lines += _fault(rng, (0.5, 0.5), (0.5, 1.0), name="F2", **cond)
    lines += _fault(rng, (0.25, 0.75), (0.75, 0.75), name="F3", **block)
    lines += _fault(rng, (0.25, 0.0), (0.25, 0.5), name="F4", **block)
    lines += _fault(rng, (0.25, 0.25), (1.0, 0.25), name="F5", **block)
    lines += _bc("y+", "dirichlet", rng.uniform(0.5, 2.0))
    lines += _bc("y-", "dirichlet", rng.uniform(-0.5, 0.5))
    return lines


def _cube3d(rng: random.Random, n: int) -> list:
    decades = 0.02  # 5%: see the module docstring
    lines = [
        "[domain]",
        "lo = 0 0 0",
        "hi = 1 1 1",
        f"resolution = {n} {n} {n}",
        f"matrix_k = {_fmt(_log_uniform(rng, 1.0, decades))}",
        "name = cube3d",
        "",
        "[region]",
        "box = 0.5 0.5 0.5 1 1 1",
        f"k = {_fmt(_log_uniform(rng, 0.1, decades))}",
    ]
    mat = dict(aperture=1e-4, k_parallel=1e4, k_perp=1e4,
               decades=decades, cross=(0.1, 0.12), signed=False)
    lines += _fault(rng, (0.5, 0, 0), (0.5, 1, 1), name="FX", **mat)
    lines += _fault(rng, (0, 0.5, 0), (1, 0.5, 1), name="FY", **mat)
    lines += _fault(rng, (0, 0, 0.5), (1, 1, 0.5), name="FZ", **mat)
    inlet = ((0.0, 0.0, 0.0), (0.25, 0.25, 0.25))
    outlet = ((0.875, 0.875, 0.875), (1.0, 1.0, 1.0))
    inflow = -rng.uniform(0.5, 2.0)
    head = rng.uniform(0.5, 2.0)
    for side in ("x-", "y-", "z-"):
        lines += _bc(side, "neumann", inflow, inlet)
    for side in ("x+", "y+", "z+"):
        lines += _bc(side, "dirichlet", head, outlet)
    return lines


_GENERATORS = {"network2d": _network2d, "cube3d": _cube3d}


def config_text(workload: Workload, seed: int, size: int = None) -> str:
    """The configuration file of a run workload for one seed.

    ``size`` overrides the resolution (smoke tests); the seeded values do
    not depend on it.
    """
    if workload.kind != "run":
        raise ValueError(f"workload {workload.name} takes no configuration")
    rng = random.Random(f"{workload.name}:{int(seed)}")
    lines = _GENERATORS[workload.case](rng, size or workload.size)
    return "\n".join(lines) + "\n"
