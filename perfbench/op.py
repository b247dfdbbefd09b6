"""One benchmark op in a fresh interpreter.

    python3 perfbench/op.py RECORD MODE [mdflow arguments...]

MODE is ``plain`` (run ``mdflow.cli.main`` on the arguments), ``trace``
(the same, with every layer wrapped in spans) or ``probe`` (import only and
report the versions the numbers depend on). The op writes a JSON record to
RECORD: the monotonic time at which ``mdflow.cli`` finished importing, the
exit code, and the spans of a traced run. The parent process takes the
spawn time, waits for the exit and reads the resource usage, so set-up
covers interpreter start and every import.
"""

import sys
import time

import mdflow.cli

T_READY = time.monotonic()


def _provenance() -> dict:
    import os
    import platform

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("openblas configuration") or blas.get("name"),
        "thread_env": {
            k: os.environ[k]
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ
        },
        "nproc": len(os.sched_getaffinity(0)),
    }


def main(record_path: str, mode: str, argv: list) -> int:
    out = {"t_ready": T_READY}
    if mode == "probe":
        rc = 0
        out["provenance"] = _provenance()
    elif mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        rc = tracer.span("cli", mdflow.cli.main)(argv)
        out["spans"] = tracer.records()
    elif mode == "plain":
        rc = mdflow.cli.main(argv)
    else:
        raise SystemExit(f"op.py: unknown mode {mode!r}")
    out["rc"] = rc
    import json

    with open(record_path, "w") as fh:
        json.dump(out, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2], sys.argv[3:]))
