"""Correctness checks on the outputs of one op.

Every check returns a list of failure messages; an empty list means the op
is correct. Comparisons against stored references report ``"passed"``,
``"failed"`` or ``"skipped"`` (no reference for this seed or size), and a
skipped comparison is never counted as passed.
"""

from __future__ import annotations

import os
import re

import numpy as np

REFS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs")

#: Solve residual (relative to the right-hand side) the op must print.
MAX_SOLVE_RESIDUAL = 1e-10
#: Largest per-cell mass-balance residual, as a share of the flux scale.
MAX_CELL_IMBALANCE = 1e-10
#: Relative max-norm agreement with a stored reference.
REF_RTOL = 1e-8
#: The local formulation's error must exceed the semi-local one by this
#: factor at the finest level of the case1 study.
MIN_LOCAL_RATIO = 5.0


def ref_path(workload_name: str) -> str:
    return os.path.join(REFS_DIR, f"{workload_name}.npz")


def read_run_outputs(outdir: str, case: str) -> dict:
    """The fault and mortar tables of ``mdflow run`` as arrays.

    ``fault_keys``/``mortar_keys`` hold the location columns (subdomain or
    interface and cell index, coordinates), ``fault``/``mortar`` the values.
    """
    fault = np.loadtxt(os.path.join(outdir, f"{case}_fault.csv"),
                       delimiter=",", skiprows=1, ndmin=2)
    mortar = np.loadtxt(os.path.join(outdir, f"{case}_mortar.csv"),
                        delimiter=",", skiprows=1, ndmin=2)
    return {
        "fault_keys": fault[:, :-1],
        "fault": fault[:, -1],
        "mortar_keys": mortar[:, :-1],
        "mortar": mortar[:, -1],
    }


def _max_rel(value: np.ndarray, ref: np.ndarray) -> float:
    if ref.size == 0:
        return 0.0
    return float(np.abs(value - ref).max()) / max(float(np.abs(ref).max()), 1e-300)


def _balance(outdir: str, case: str) -> tuple:
    """(flux scale, max cell residual, subdomain count) from the report."""
    with open(os.path.join(outdir, f"{case}_balance.txt")) as fh:
        text = fh.read()
    scale = float(re.search(r"^flux scale\s+(\S+)", text, re.M).group(1))
    worst = float(re.search(r"^max cell residual\s+(\S+)", text, re.M).group(1))
    subdomains = len(re.findall(r"^subdomain \d+ ", text, re.M))
    return scale, worst, subdomains


def check_run(outdir: str, case: str, rc: int, stdout: str, reference) -> tuple:
    """Check one ``mdflow run`` op; returns (failures, reference status).

    ``reference`` is ``None`` or a dict shaped like :func:`read_run_outputs`.
    """
    if rc != 0:
        return [f"exit status {rc}"], "skipped"
    failures = []
    m = re.search(r"residual ([-+0-9.eE]+)", stdout)
    if m is None:
        failures.append("no solve residual printed")
    elif not float(m.group(1)) <= MAX_SOLVE_RESIDUAL:
        failures.append(f"solve residual {m.group(1)} > {MAX_SOLVE_RESIDUAL:g}")
    try:
        scale, worst, subdomains = _balance(outdir, case)
    except (OSError, AttributeError, ValueError) as exc:
        return failures + [f"unreadable balance report: {exc}"], "skipped"
    if not worst <= MAX_CELL_IMBALANCE * scale:
        failures.append(
            f"max cell residual {worst:.3e} > {MAX_CELL_IMBALANCE:g} x scale {scale:.3e}"
        )
    for i in range(subdomains):
        vtk = os.path.join(outdir, f"{case}_sub{i:02d}.vtk")
        if not os.path.isfile(vtk) or os.path.getsize(vtk) == 0:
            failures.append(f"missing field file {os.path.basename(vtk)}")
    try:
        out = read_run_outputs(outdir, case)
    except (OSError, ValueError) as exc:
        return failures + [f"unreadable tables: {exc}"], "skipped"
    if reference is None:
        return failures, "skipped"
    status = "passed"
    for table in ("fault", "mortar"):
        keys, ref_keys = out[f"{table}_keys"], reference[f"{table}_keys"]
        if keys.shape != ref_keys.shape or _max_rel(keys, ref_keys) > 1e-12:
            failures.append(f"{table} table rows differ from the reference")
            status = "failed"
            continue
        err = _max_rel(out[table], reference[table])
        if err > REF_RTOL:
            failures.append(f"{table} values differ from the reference by {err:.3e}")
            status = "failed"
    return failures, status


def load_run_reference(workload_name: str, seed: int, size: int):
    """The stored tables of one seed, or None if none is stored."""
    path = ref_path(workload_name)
    if not os.path.isfile(path):
        return None
    with np.load(path) as ref:
        if int(ref["size"]) != size or f"fault_{seed}" not in ref:
            return None
        return {
            "fault_keys": ref["fault_keys"],
            "fault": ref[f"fault_{seed}"],
            "mortar_keys": ref["mortar_keys"],
            "mortar": ref[f"mortar_{seed}"],
        }


def _read_table(path: str) -> list:
    with open(path) as fh:
        rows = [line.rstrip("\n").split(",") for line in fh if line.strip()]
    return rows


def check_compare(outdir: str, case: str, rc: int, reference_csv: str) -> tuple:
    """Check one ``mdflow compare`` op against the stored error table."""
    if rc != 0:
        return [f"exit status {rc}"], "skipped"
    try:
        rows = _read_table(os.path.join(outdir, f"{case}_compare.csv"))
    except OSError as exc:
        return [f"unreadable table: {exc}"], "skipped"
    ref = _read_table(reference_csv)
    if not rows or rows[0] != ref[0] or len(rows) != len(ref):
        return ["table layout differs from the reference"], "failed"
    col = {name: k for k, name in enumerate(ref[0])}
    try:
        failures = _compare_rows(rows, ref, col)
        last = rows[-1]
        ratio = float(last[col["error_local"]]) / float(last[col["error_semilocal"]])
    except (ValueError, IndexError, ZeroDivisionError) as exc:
        return [f"malformed table: {exc}"], "failed"
    status = "failed" if failures else "passed"
    if not ratio >= MIN_LOCAL_RATIO:
        failures.append(
            f"local/semi-local error ratio {ratio:.3g} < {MIN_LOCAL_RATIO:g} at the finest level"
        )
    return failures, status


def _compare_rows(rows: list, ref: list, col: dict) -> list:
    failures = []
    for r, (got, want) in enumerate(zip(rows[1:], ref[1:]), start=1):
        for name in ("level", "N", "N_f", "case"):
            if got[col[name]] != want[col[name]]:
                failures.append(f"row {r}: {name} {got[col[name]]} != {want[col[name]]}")
        for name in ("h", "error_local", "error_semilocal"):
            g, w = float(got[col[name]]), float(want[col[name]])
            if abs(g - w) > REF_RTOL * abs(w):
                failures.append(f"row {r}: {name} {g!r} != {w!r}")
        # Orders are printed to six digits: compare them at that precision.
        for name in ("eoc_local", "eoc_semilocal"):
            g, w = got[col[name]], want[col[name]]
            if (g == "") != (w == "") or (g and abs(float(g) - float(w)) > 1e-5):
                failures.append(f"row {r}: {name} {g!r} != {w!r}")
    return failures
