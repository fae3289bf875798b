"""natcmd benchmark: one workload, one seed, one process.

    python3 bench/run.py --workload train-eval --seed 1 --seconds 55 --trace 0

Run from the repository root; natcmd is imported from ``src/``. With
``--trace 0`` the last stdout line carries the end-to-end metrics of
BENCHMARK.json, with ``--trace 1`` the per-layer metrics of a separate
traced run (spans go to ``.bench_work/spans-<workload>.ndjson``). The line
before it records the environment, what the seed drew for each kind of
input, and the sample count behind every metric.
The workloads and metrics are described in bench/workloads.py.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        openblas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": openblas,
        "blas_thread_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "machine": platform.machine(),
        "git_commit": _git_commit(),
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    src = ROOT / "src"
    if not (src / "natcmd" / "__init__.py").is_file():
        print(f"bench: natcmd sources not found under {src}", file=sys.stderr)
        return 2
    # A developer's NATCMD_* defaults must not change the workload.
    for name in [k for k in os.environ if k.startswith("NATCMD_")]:
        del os.environ[name]
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(Path(__file__).resolve().parent))

    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        session = workloads.Session(args.workload, args.seed, workdir)
        session.prepare()
        if args.trace:
            metrics = session.measure_traced(
                args.seconds, work_root / f"spans-{args.workload}.ndjson")
        else:
            metrics = session.measure(args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for why in session.problems:
        print(f"bench: check failed: {why}", file=sys.stderr)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": session.rounds,
        "inputs": session.input_counts,
        "samples": session.sample_summary(),
        "environment": _environment(),
    }
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
