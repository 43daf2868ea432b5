"""daanet benchmark: one workload, one run.

    python3 benchmarks/run.py --workload mtdaan_train --seed 1 --seconds 20 --trace 0

Workloads: mtdaan_train, st_bigvocab_train, eval_heldout (see NOTES.md).
With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it reports the per-layer metrics from a traced run.

The inputs are generated from ``--seed`` in a child process, under
``.bench_work/`` in the checkout; the result, stamped with the software
and machine it ran on, goes to ``.bench_results/``. The last line on
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The exit code is 0 only when
every correctness gate held.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
RESULTS = ROOT / ".bench_results"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc():
    return len(os.sched_getaffinity(0))


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    import ctypes

    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit():
    """HEAD of the checkout when it is a git work tree of its own, else None."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment():
    import numpy as np

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "nproc": nproc(),
        "git_commit": git_commit(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description="daanet benchmark (one workload, one run)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "daanet").is_dir():
        print(f"benchmark: no daanet package under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("benchmark: --seconds must be positive", file=sys.stderr)
        return 2

    # BLAS reads its thread count once, when numpy first loads it.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(nproc())
    sys.path.insert(0, str(SRC))
    import harness
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    work = WORK / f"{tag}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        env = dict(os.environ, PYTHONPATH=str(SRC))
        subprocess.run(
            [sys.executable, str(HERE / "workloads.py"), "--workload", workload.name,
             "--seed", str(args.seed), "--out", str(work)],
            check=True, env=env, timeout=150,
        )
        gates, metrics, detail, tracer = harness.run(
            workload, work, args.seed, args.seconds, bool(args.trace)
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {
        "correct": gates.correct,
        "attempted": gates.attempted,
        "failed": gates.failed,
        "metrics": metrics,
    }
    stamp = environment()
    RESULTS.mkdir(exist_ok=True)
    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": stamp, "detail": detail, **result}
    (RESULTS / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.write(RESULTS / f"{tag}-spans.jsonl")
    for message in gates.messages:
        print(f"gate failed: {message}", file=sys.stderr)
    print(json.dumps({"env": stamp, "detail": detail}))
    print(json.dumps(result))
    return 0 if gates.correct else 1


if __name__ == "__main__":
    sys.exit(main())
