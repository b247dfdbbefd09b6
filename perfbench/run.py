"""mdflow benchmark runner: time to a checked solution, one op at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--size N] [--record PATH]

Run it from the repository root. It generates the workload's input from
the seed, then runs a closed loop with one client: each op is a fresh
``python3`` process that imports ``mdflow.cli`` and calls its ``main`` on
the generated input, and the next op starts when the previous one has
exited and its outputs have been checked. The loop runs for ``--seconds``:
it starts another op only while that op is expected to end in time, and
runs at least one. Every op's outputs are checked; a non-zero exit or a
failed check counts the op as failed.

``--trace 0`` reports the end-to-end metrics of untraced ops.
``--trace 1`` alternates untraced and traced ops and reports the per-layer
metrics of the traced ones (spans around each layer's public function, see
``tracer.py``), the process CPU time of the untraced ones and the tracing
overhead between the two.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give each metric's median with its spread and sample count. ``--size``
overrides the resolution of a run workload (smoke tests); ``--record``
writes every op's samples, the checks and the provenance to a JSON file.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict

import checks
from workloads import WORKLOADS, config_text

HERE = os.path.dirname(os.path.abspath(__file__))
OP_SCRIPT = os.path.join(HERE, "op.py")
WORK_DIR = os.path.join(HERE, "_work")

#: An op running longer than this is killed and counted as failed, so that
#: a run always ends within its time limit.
OP_TIMEOUT_S = 120.0


def _metric_units() -> tuple:
    """(end-to-end, per-layer) metric units by name, from BENCHMARK.json."""
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return tuple({m["name"]: m["unit"] for m in spec[key]}
                 for key in ("end_to_end", "per_layer"))


END_TO_END, PER_LAYER = _metric_units()


#: Removed from the environment of an op. MDFLOW_SOLVER silently overrides
#: the configured solver; without bytecode caching every op would compile
#: the library again, which an installed package never does.
STRIPPED_ENV = ("MDFLOW_SOLVER", "PYTHONDONTWRITEBYTECODE")


def op_env(root: str) -> dict:
    """Environment of an op: the source tree on the path, nothing that
    changes what the library does or how it is loaded."""
    env = {k: v for k, v in os.environ.items() if k not in STRIPPED_ENV}
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def run_op(root: str, work: str, mode: str, argv: list) -> dict:
    """Run one op process and return its timings and resource usage."""
    record = os.path.join(work, "op_record.json")
    if os.path.exists(record):
        os.remove(record)
    out_path = os.path.join(work, "op_stdout.txt")
    err_path = os.path.join(work, "op_stderr.txt")
    cmd = [sys.executable, OP_SCRIPT, record, mode, *argv]
    with open(out_path, "w") as out, open(err_path, "w") as err:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=work, env=op_env(root), stdout=out, stderr=err)
        watchdog = threading.Timer(OP_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            # wait4 reaps the op and returns its own peak RSS and CPU time.
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
            watchdog.join()
        t_exit = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path) as fh:
        stdout = fh.read()
    with open(err_path) as fh:
        stderr = fh.read()
    result = {
        "mode": mode,
        "rc": proc.returncode,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "stdout": stdout,
        "stderr": stderr[-2000:],
    }
    try:
        with open(record) as fh:
            rec = json.load(fh)
    except (OSError, ValueError):
        rec = None
    if rec is None:
        result["failures"] = [f"op wrote no record (exit status {proc.returncode})"]
        return result
    result["setup_s"] = rec["t_ready"] - t_spawn
    result["tts_s"] = t_exit - rec["t_ready"]
    result["spans"] = rec.get("spans")
    result["provenance"] = rec.get("provenance")
    if rec.get("rc") != proc.returncode:
        result["failures"] = [f"exit status {proc.returncode}"]
    return result


def layer_metrics(spans: list) -> dict:
    """Per-layer totals of one traced op. Self time is a span's duration
    minus the durations of its direct children."""
    by_name = defaultdict(list)
    children = defaultdict(float)
    for s in spans:
        by_name[s["name"]].append(s)
        if s["parent"] >= 0:
            children[s["parent"]] += s["duration"]

    def total(name):
        return sum(s["duration"] for s in by_name[name])

    def self_time(name):
        return sum(s["duration"] - children[s["id"]] for s in by_name[name])

    def count(name, key=None):
        if key is None:
            return len(by_name[name])
        return sum(s["counts"].get(key, 0) for s in by_name[name])

    lu_fill = count("solve.factor", "lu_fill")
    factored_nnz = count("solve.factor", "nnz")
    return {
        "mdmesh.build_s": total("mdmesh.build"),
        "mdmesh.cells": count("mdmesh.build", "cells"),
        "mdmesh.subdomains": count("mdmesh.build", "subdomains"),
        "mdmesh.interfaces": count("mdmesh.build", "interfaces"),
        "mdmesh.mortar_cells": count("mdmesh.build", "mortar_cells"),
        "semilocal.problems_s": total("semilocal.problems"),
        "semilocal.blocks_s": total("semilocal.blocks"),
        "semilocal.blocks_calls": count("semilocal.blocks"),
        "discretize.mpfa_s": total("discretize.mpfa"),
        "discretize.mpfa_calls": count("discretize.mpfa"),
        "discretize.tpfa_s": total("discretize.tpfa"),
        "discretize.tpfa_calls": count("discretize.tpfa"),
        "discretize.cells": count("discretize", "cells"),
        "mdassembly.assemble_self_s": self_time("mdassembly.assemble"),
        "mdassembly.unknowns": count("mdassembly.assemble", "unknowns"),
        "mdassembly.nnz": count("mdassembly.assemble", "nnz"),
        "solve.s": total("solve"),
        "solve.factor_s": total("solve.factor"),
        "solve.post_s": total("solve") - total("solve.factor"),
        "solve.calls": count("solve"),
        "solve.lu_fill": lu_fill,
        "solve.fill_ratio": lu_fill / factored_nnz if factored_nnz else 0.0,
        "solve.residual_max": max(
            (s["counts"].get("residual", 0.0) for s in by_name["solve"]), default=0.0
        ),
        "balance.s": total("balance"),
        "vtkio.s": total("vtkio"),
        "vtkio.files": count("vtkio"),
        "vtkio.bytes": count("vtkio", "bytes"),
        "equidim.s": total("equidim"),
        "equidim.calls": count("equidim"),
        "verify.s": total("verify"),
        "verify.self_s": self_time("verify"),
        "verify.levels": count("verify", "levels"),
        "cli.s": total("cli"),
        "cli.self_s": self_time("cli"),
    }


def _git_commit(root: str) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.isfile(ref_file):
            with open(ref_file) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _src_lines(root: str) -> int:
    total = 0
    for path in glob.glob(os.path.join(root, "src", "mdflow", "*.py")):
        with open(path) as fh:
            total += sum(1 for _ in fh)
    return total


class Workbench:
    """One run's generated input, scratch directory and checks."""

    def __init__(self, root: str, workload, seed: int, size: int = None):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.work = os.path.join(WORK_DIR, f"{workload.name}-{seed}-{os.getpid()}")
        self.out = os.path.join(self.work, "out")
        os.makedirs(self.work, exist_ok=True)
        if workload.kind == "run":
            self.cfg = os.path.join(self.work, f"{workload.case}.cfg")
            with open(self.cfg, "w") as fh:
                fh.write(config_text(workload, seed, size))
            self.argv = ["run", self.cfg, "--output", self.out]
            self.reference = checks.load_run_reference(
                workload.name, seed, size or workload.size
            )
        else:
            self.argv = ["compare", workload.case, "--output", self.out]
            self.reference = os.path.join(checks.REFS_DIR, f"{workload.name}.csv")

    def op(self, mode: str) -> dict:
        """Run and check one op, leaving no outputs behind."""
        shutil.rmtree(self.out, ignore_errors=True)
        res = run_op(self.root, self.work, mode, self.argv)
        if "failures" not in res:
            if self.workload.kind == "run":
                failures, ref = checks.check_run(
                    self.out, self.workload.case, res["rc"], res["stdout"], self.reference
                )
            else:
                failures, ref = checks.check_compare(
                    self.out, self.workload.case, res["rc"], self.reference
                )
            res["failures"], res["reference"] = failures, ref
        shutil.rmtree(self.out, ignore_errors=True)
        return res

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            os.rmdir(WORK_DIR)
        except OSError:  # another run is using it
            pass


def _timed(ops: list) -> list:
    """Ops that produced a checked answer, or every timed op if none did."""
    return [o for o in ops if not o["failures"]] or [
        o for o in ops if o.get("tts_s") is not None
    ]


def e2e_samples(ops: list) -> dict:
    """Per-op samples of the untraced ops, keyed by metric name."""
    plain = [o for o in _timed(ops) if o["mode"] == "plain"]
    return {
        "time_to_solution_s": [o["tts_s"] for o in plain],
        "setup_s": [o["setup_s"] for o in plain],
        "peak_rss_mb": [o["rss_mb"] for o in plain],
        "proc.cpu_s": [o["cpu_s"] for o in plain],
    }


def _median(values: list) -> float:
    # A run whose ops all failed has no samples; it reports correct=false.
    return statistics.median(values) if values else 0.0


def measure(root: str, workload, seed: int, seconds: float, trace: bool,
            size: int = None) -> dict:
    """Run the closed loop and return the full run record."""
    bench = Workbench(root, workload, seed, size)
    try:
        # The first op of a run only warms the file cache and bytecode, and
        # reports the library versions; it is not timed.
        probe = run_op(root, bench.work, "probe", [])
        ops = []
        modes = ("plain", "trace") if trace else ("plain",)
        t_end = time.monotonic() + seconds
        while True:
            t_round = time.monotonic()
            for mode in modes:
                ops.append(bench.op(mode))
            now = time.monotonic()
            # Start another round only if it is expected to end in time.
            if now + (now - t_round) > t_end:
                break
    finally:
        bench.close()

    samples = e2e_samples(ops)
    if trace:
        traced = [o for o in _timed(ops) if o["mode"] == "trace"]
        per_op = [layer_metrics(o["spans"]) for o in traced if o.get("spans")]
        metrics = {
            name: _median([m[name] for m in per_op]) for name in PER_LAYER
            if name not in ("proc.cpu_s", "trace.overhead_s")
        }
        metrics["proc.cpu_s"] = _median(samples["proc.cpu_s"])
        # Rounds run an untraced op and then a traced one; comparing each
        # traced op with its own round's untraced op cancels slow drift.
        metrics["trace.overhead_s"] = _median([
            t["tts_s"] - p["tts_s"] for p, t in zip(ops[0::2], ops[1::2])
            if not p["failures"] and not t["failures"]
        ])
        units = PER_LAYER
    else:
        metrics = {name: _median(samples[name]) for name in END_TO_END}
        units = END_TO_END
    refs = sorted({o.get("reference", "skipped") for o in ops})
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "size": size or workload.size or None,
        "attempted": len(ops),
        "failed": sum(1 for o in ops if o["failures"]),
        "reference_check": refs[0] if len(refs) == 1 else "mixed: " + ",".join(refs),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "provenance": {
            "git_commit": _git_commit(root),
            "src_mdflow_lines": _src_lines(root),
            "stripped_env": {k: os.environ[k] for k in STRIPPED_ENV if k in os.environ},
            **(probe.get("provenance") or {}),
        },
        "ops": [
            {k: o.get(k) for k in ("mode", "rc", "setup_s", "tts_s", "rss_mb",
                                   "cpu_s", "failures", "reference")}
            for o in ops
        ],
    }


def summary_lines(rec: dict) -> list:
    """Human-readable report: each metric's median, range and sample count."""
    att, fail = rec["attempted"], rec["failed"]
    lines = [
        f"# {rec['workload']} seed {rec['seed']} trace {rec['trace']}: "
        f"{att} ops, fail_ratio {fail / att:.4g} ({fail}/{att}), "
        f"reference check {rec['reference_check']}",
        "# provenance " + json.dumps(rec["provenance"], sort_keys=True),
    ]
    samples = e2e_samples(rec["ops"])
    for name, m in rec["metrics"].items():
        vals = samples.get(name)
        spread = f"  min {min(vals):.4g} max {max(vals):.4g} n={len(vals)}" if vals else ""
        lines.append(f"# {name:28s} {m['value']:.6g} {m['unit']}{spread}")
    for o in rec["ops"]:
        for f in o["failures"]:
            lines.append(f"# FAILED op ({o['mode']}): {f}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", type=int, default=None,
                        help="cells per axis of a run workload (smoke tests)")
    parser.add_argument("--record", default=None, help="write the full run record here")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "mdflow", "cli.py")):
        print("perfbench: no mdflow source tree at ./src/mdflow; "
              "run from the repository root", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    if args.size is not None and workload.kind != "run":
        print(f"perfbench: --size does not apply to {workload.name}", file=sys.stderr)
        return 2
    rec = measure(root, workload, args.seed, args.seconds, bool(args.trace), args.size)
    if args.record:
        with open(args.record, "w") as fh:
            json.dump(rec, fh, indent=1)
    for line in summary_lines(rec):
        print(line)
    print(json.dumps({
        "correct": rec["failed"] == 0,
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": rec["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
