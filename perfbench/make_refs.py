"""Regenerate the stored reference outputs the benchmark compares against.

    python3 perfbench/make_refs.py

Run it from the repository root, on the commit whose answers are the
reference. For each ``run`` workload it stores the fault pressure and
mortar flux tables of seeds 0-9 in ``refs/<workload>.npz`` (the
location columns once, since the geometry does not depend on the seed);
for ``compare-case1`` it stores the error table as ``refs/compare-case1.csv``.
Each op must pass every check that needs no reference before its output is
stored.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys

import numpy as np

import checks
from run import Workbench, run_op
from workloads import WORKLOADS

#: Seeds with stored references: the seeds the benchmark is run with.
SEEDS = tuple(range(10))


def _checked_op(bench: Workbench) -> dict:
    shutil.rmtree(bench.out, ignore_errors=True)
    res = run_op(bench.root, bench.work, "plain", bench.argv)
    if res.get("failures"):
        raise SystemExit(f"{bench.workload.name} seed {bench.seed}: {res['failures']}")
    return res


def make_run_reference(root: str, workload) -> None:
    arrays = {"size": np.array(workload.size)}
    for seed in SEEDS:
        bench = Workbench(root, workload, seed)
        try:
            res = _checked_op(bench)
            failures, _ = checks.check_run(
                bench.out, workload.case, res["rc"], res["stdout"], None
            )
            if failures:
                raise SystemExit(f"{workload.name} seed {seed}: {failures}")
            out = checks.read_run_outputs(bench.out, workload.case)
        finally:
            bench.close()
        for table in ("fault", "mortar"):
            keys = arrays.setdefault(f"{table}_keys", out[f"{table}_keys"])
            if not np.array_equal(keys, out[f"{table}_keys"]):
                raise SystemExit(f"{workload.name} seed {seed}: {table} rows moved")
            arrays[f"{table}_{seed}"] = out[table]
        print(f"{workload.name} seed {seed}: stored")
    np.savez_compressed(checks.ref_path(workload.name), **arrays)


def make_compare_reference(root: str, workload) -> None:
    bench = Workbench(root, workload, 0)
    try:
        _checked_op(bench)
        shutil.copyfile(
            os.path.join(bench.out, f"{workload.case}_compare.csv"), bench.reference
        )
    finally:
        bench.close()
    print(f"{workload.name}: stored")


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    root = os.getcwd()
    os.makedirs(checks.REFS_DIR, exist_ok=True)
    for workload in WORKLOADS.values():
        if workload.kind == "run":
            make_run_reference(root, workload)
        else:
            make_compare_reference(root, workload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
