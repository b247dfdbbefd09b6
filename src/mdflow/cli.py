"""Batch front end: solves and convergence studies.

Commands:

- ``mdflow run <cfg>``: solve one configuration; write per-subdomain
  pressure fields (legacy ASCII VTK), a mortar-flux CSV, a fault pressure
  profile CSV, and a mass-balance report.
- ``mdflow converge <case> [--formulation L|SL] [--levels N]``: run one
  built-in convergence study and write its CSV table.
- ``mdflow compare <case> [--levels N]``: run both formulations of a case
  and write a side-by-side error table.

Exit codes: 0 on success, 1 on solver failure, 2 on usage or configuration
errors.
"""

from __future__ import annotations

import argparse
import gc
import logging
import os
import sys

import numpy as np

from .config import BUILTIN_CASES, ConfigError, parse_config
from .discretize import DiscretizationError
from .mdassembly import (
    AssemblyError,
    SolverError,
    assemble_global,
    mass_balance_report,
    solve,
)
from .mdmesh import MeshError, build_cartesian_md_mesh
from .semilocal import InterfaceLawError
from .verify import VerifyError, _error_eoc, run_case
from .vtkio import format_rows, write_vtk

logger = logging.getLogger(__name__)

#: Errors that mean the input was wrong, not that the computation failed.
_CONFIG_ERRORS = (
    ConfigError,
    MeshError,
    AssemblyError,
    InterfaceLawError,
    DiscretizationError,
)
_SOLVE_ERRORS = (SolverError, VerifyError)

_FORMULATIONS = {"l": "local", "sl": "semilocal", "local": "local", "semilocal": "semilocal"}


def _formulation(text: str) -> str:
    try:
        return _FORMULATIONS[text.strip().lower()]
    except KeyError:
        raise argparse.ArgumentTypeError(
            f"unknown formulation {text!r} (choose local, semilocal, L, or SL)"
        ) from None


def _load_config(path: str):
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read configuration {path}: {exc}") from None
    return parse_config(text)


def cmd_run(args) -> int:
    cfg = _load_config(args.config)
    mesh = build_cartesian_md_mesh(
        cfg.domain_lo, cfg.domain_hi, cfg.resolution, cfg.fault_specs()
    )
    system = assemble_global(mesh, cfg.material_set(), cfg.bcs)
    sol = solve(system)
    report = mass_balance_report(sol)
    dim = mesh.dim
    # Made only now, so a run that fails leaves no directory behind.
    outdir = args.output if args.output is not None else cfg.output
    os.makedirs(outdir, exist_ok=True)

    for i, grid in enumerate(mesh.subdomains):
        path = os.path.join(outdir, f"{cfg.name}_sub{i:02d}.vtk")
        write_vtk(
            path,
            grid,
            {"pressure": sol.pressures[i]},
            title=f"{cfg.name} subdomain {i} ({mesh.info[i].kind}, {grid.dim}d)",
        )

    # Mortar exchange fluxes, positive from the lower-dimensional side into
    # the higher one, located at the mortar (= lower grid) cell centers.
    xyz, coords = ",".join("xyz"[:dim]), ",".join(["%.10g"] * dim)
    lines = [f"interface,cell,{xyz},flux"]
    for j, itf in enumerate(mesh.interfaces):
        centers = mesh.subdomains[itf.lower].cell_centers_global()
        cells = np.arange(itf.n_mortar)
        table = np.column_stack([np.full(cells.size, j), cells, centers, sol.lambdas[j]])
        lines += format_rows(f"%d,%d,{coords},%.10g", table)
    with open(os.path.join(outdir, f"{cfg.name}_mortar.csv"), "w") as fh:
        fh.write("\n".join(lines) + "\n")

    lines = [f"subdomain,{xyz},pressure"]
    for i, info in enumerate(mesh.info):
        if info.kind == "fault":
            centers = mesh.subdomains[i].cell_centers_global()
            table = np.column_stack([np.full(len(centers), i), centers, sol.pressures[i]])
            lines += format_rows(f"%d,{coords},%.10g", table)
    with open(os.path.join(outdir, f"{cfg.name}_fault.csv"), "w") as fh:
        fh.write("\n".join(lines) + "\n")

    lines = [f"mass balance for {cfg.name}"]
    lines.append(f"flux scale            {report['scale']:.10g}")
    lines.append(f"max cell residual     {report['max_cell_residual']:.10g}")
    lines.append(f"boundary outflow      {report['boundary_outflow']:.10g}")
    lines.append(f"total source          {report['total_source']:.10g}")
    lines.append(f"global residual       {report['global_residual']:.10g}")
    for sub in report["subdomains"]:
        i = sub["id"]
        lines.append(
            f"subdomain {i} ({mesh.info[i].kind}): max residual {sub['max_residual']:.10g}"
        )
    with open(os.path.join(outdir, f"{cfg.name}_balance.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")

    print(
        f"solved {cfg.name}: {system.n_unknowns} unknowns, "
        f"residual {sol.residual:.3e}, "
        f"max cell imbalance {report['max_cell_residual']:.3e}"
    )
    print(f"wrote fields and tables to {outdir}")
    return 0


def cmd_converge(args) -> int:
    result = run_case(args.case, formulation=args.formulation, levels=args.levels)
    os.makedirs(args.output, exist_ok=True)
    path = os.path.join(args.output, f"{args.case}_{result.formulation}.csv")
    with open(path, "w") as fh:
        fh.write(result.to_csv())
    print(result.to_csv(), end="")
    if len(result.records) >= 2:
        print(
            f"# mean EOC {result.mean_order():.4g} "
            f"(reference {result.reference})"
        )
    print(f"wrote {path}")
    return 0


def cmd_compare(args) -> int:
    local = run_case(args.case, formulation="local", levels=args.levels)
    semi = run_case(args.case, formulation="semilocal", levels=args.levels)
    os.makedirs(args.output, exist_ok=True)
    lines = ["level,h,N,N_f,error_local,eoc_local,error_semilocal,eoc_semilocal,case"]
    for rl, rs in zip(local.records, semi.records):
        lines.append(
            f"{rl.level},{rl.h:.10g},{rl.n_cells},{rl.n_fault_cells},"
            f"{_error_eoc(rl)},{_error_eoc(rs)},{args.case}"
        )
    text = "\n".join(lines) + "\n"
    path = os.path.join(args.output, f"{args.case}_compare.csv")
    with open(path, "w") as fh:
        fh.write(text)
    print(text, end="")
    print(f"wrote {path}")
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mdflow",
        description="Darcy flow in porous media with thin inclusions.",
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="log progress (repeat for debug output)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="solve one configuration and write fields")
    run.add_argument("config", help="configuration file")
    run.add_argument(
        "--output", default=None, help="output directory (default: the config's)"
    )
    run.set_defaults(func=cmd_run)

    conv = sub.add_parser("converge", help="run one built-in convergence study")
    conv.add_argument("case", help=f"one of: {', '.join(BUILTIN_CASES)}")
    conv.add_argument(
        "--formulation",
        type=_formulation,
        default="semilocal",
        help="local or semilocal (aliases L, SL); default semilocal",
    )
    conv.add_argument("--levels", type=int, default=None, help="number of levels")
    conv.add_argument("--output", default=".", help="output directory")
    conv.set_defaults(func=cmd_converge)

    comp = sub.add_parser("compare", help="run both formulations side by side")
    comp.add_argument("case", help=f"one of: {', '.join(BUILTIN_CASES)}")
    comp.add_argument("--levels", type=int, default=None, help="number of levels")
    comp.add_argument("--output", default=".", help="output directory")
    comp.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    """The program entry point: parse ``argv`` (default ``sys.argv[1:]``),
    run the command and return its exit code.

    Objects alive when it starts are no longer traversed by the cycle
    collector. The tests and the benchmark op call it in-process.
    """
    # Importing numpy and scipy leaves tens of thousands of objects tracked
    # by the garbage collector, and interpreter finalization runs several
    # full collections over them: about 0.1 s at every exit. Frozen objects
    # are skipped, so the exit takes about 0.02 s.
    gc.freeze()
    args = make_parser().parse_args(argv)
    level = logging.WARNING - 10 * min(args.verbose, 2)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except _CONFIG_ERRORS as exc:
        print(f"mdflow: error: {exc}", file=sys.stderr)
        return 2
    except _SOLVE_ERRORS as exc:
        print(f"mdflow: solver error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"mdflow: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
