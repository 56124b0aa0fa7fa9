"""hardysim benchmark: one workload, end-to-end or per-layer figures.

Usage (from the root of a checkout):

    python3 bench/run.py --workload exact_sweep --seed 1 --seconds 30 --trace 0

Workloads: exact_sweep, float_sweep, cli_session (see bench/README.md), or
all three in turn with --workload all. With --trace 0 the last line of a
workload's output is a JSON object with the end-to-end metrics; with
--trace 1 it holds the per-layer metrics of a separate traced run.
Earlier lines record what was measured: the resolved hardysim file, git
commit, Python version and CPU count.

Each run launches the worker in fresh processes: the measuring one, and
SETUP_PROBES that stop at their first timed operation, to sample set-up
time. Exit status is 0 only when a result was printed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("exact_sweep", "float_sweep", "cli_session")
SETUP_PROBES = 8         # plus the measuring process: 9 set-up samples
WORKER_TIMEOUT_S = 170


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text(encoding="utf-8").strip()
        for line in (root / ".git" / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def launch_worker(args, *extra):
    """Run worker.py once; returns its JSON result or raises SystemExit."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    argv = [sys.executable, str(BENCH / "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    launch = time.monotonic_ns()
    proc = subprocess.run(argv + ["--launch-ns", str(launch), *extra],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values, q):
    """q-th percentile by linear interpolation between closest ranks."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(run, setup_samples_ns):
    best_ms = [ns / 1e6 for ns in run["best_ns"]]
    return {
        "ops_per_s": (len(best_ms) / (sum(best_ms) / 1e3), "1/s"),
        "latency_p50_ms": (statistics.median(best_ms), "ms"),
        "latency_p90_ms": (percentile(best_ms, 90), "ms"),
        "setup_s": (statistics.median(setup_samples_ns) / 1e9, "s"),
        "peak_rss_mb": (run["peak_rss_kb"] / 1024, "MB"),
    }


def measure(args):
    """One workload: print its record, metrics, counts and the JSON result."""
    env_record = {"commit": git_commit(ROOT), "python": platform.python_version(),
                  "nproc": os.cpu_count(), "workload": args.workload,
                  "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    if args.trace:
        run = launch_worker(args)
        metrics = run["metrics"]
        print("bench-trace-sources " + json.dumps(run["sources"], sort_keys=True))
        print("bench-trace-spans " + run["spans_file"])
        if run["absent"]:
            print("bench-absent " + json.dumps(run["absent"]))
    else:
        launch_worker(args, "--setup-only")    # fills bytecode caches; discarded
        # Half the probes before the measuring run and half after, so that
        # the median does not rest on one moment of a shared machine.
        probe = lambda: launch_worker(args, "--setup-only")["setup_ns"]  # noqa: E731
        setup = [probe() for _ in range(SETUP_PROBES // 2)]
        run = launch_worker(args)
        setup.append(run["setup_ns"])
        setup += [probe() for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
        metrics = end_to_end(run, setup)
    env_record["hardysim_file"] = run["hardysim_file"]
    print("bench-env " + json.dumps(env_record, sort_keys=True))
    for line in run["unexpected"][:20]:
        print("bench-failure " + line)
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(f"{args.workload} attempted = {run['attempted']} failed = {run['failed']}")
    print(json.dumps({
        "correct": not run["unexpected"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "hardysim" / "__init__.py").is_file():
        raise SystemExit(f"no hardysim sources under {ROOT / 'src'}; nothing to measure")
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        measure(argparse.Namespace(**{**vars(args), "workload": workload}))


if __name__ == "__main__":
    main()
