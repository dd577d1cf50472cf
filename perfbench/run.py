"""trigint benchmark: one workload, end-to-end or per-layer metrics, one JSON line.

    python3 perfbench/run.py --workload exact-cold --seed 1 --seconds 20 --trace 0

Run from anywhere; the checkout is the directory above this file, and the
program under test is its ``src/trigint``, used in place (nothing to build).
With ``--trace 0`` the workload process is set up several times and then
timed for about ``--seconds`` seconds of requests; the last line of stdout
holds the end-to-end metrics.  With ``--trace 1`` a fixed number of rounds is
replayed untraced and then traced, followed by the reference probes; the last
line holds the per-layer metrics.  The line before it carries run metadata
and lists every failed request by its input.  Exit status is 0 when the run
completed, whether or not requests failed, and 1 when it could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("exact-cold", "branch-sweep", "verify-oracle", "cli-short")
#: set-up-only workers before and after the timed one; the median of all
#: their set-ups is reported as setup_s, sampled on both sides of the run
#: because the machine's speed drifts over tens of seconds
SETUPS_AROUND = 4
#: one run must finish within this many seconds, including every set-up
DEADLINE_S = 170.0


class RunFailed(Exception):
    pass


def worker_env() -> dict:
    """The checkout's sources, one BLAS/OpenMP thread, UTF-8 output, default digits."""
    env = dict(os.environ)
    env.pop("TRIG_ENGINE_DIGITS", None)
    env.update(
        PYTHONPATH=os.path.join(ROOT, "src"), PYTHONIOENCODING="utf-8",
        OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
    )
    return env


def spawn(args, mode: str, deadline: float) -> tuple[float, dict]:
    """Run one worker to completion; returns its start time and its JSON result."""
    argv = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode]
    start = time.perf_counter()
    try:
        done = subprocess.run(argv, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE,
                              timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired as exc:
        raise RunFailed(f"{mode} worker exceeded the run deadline") from exc
    if done.returncode != 0:
        raise RunFailed(f"{mode} worker exited with status {done.returncode}")
    lines = done.stdout.decode().strip().splitlines()
    if not lines:
        raise RunFailed(f"{mode} worker printed no result")
    return start, json.loads(lines[-1])


def unit(name: str) -> str:
    for suffix, label in (("_ms", "ms"), ("_s", "s"), ("_rps", "1/s"), ("_mb", "MB"), ("bits.max", "bits"),
                          ("_rate", "ratio"), ("_ratio", "ratio"), (".share", "ratio")):
        if name.endswith(suffix):
            return label
    return "count"


def metadata(args, result: dict, extra: dict) -> dict:
    meta = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "nproc": os.cpu_count()}
    if os.path.isdir(os.path.join(ROOT, ".git")):
        def git(*cmd):
            return subprocess.run(["git", *cmd], cwd=ROOT, capture_output=True, text=True, timeout=30).stdout.strip()

        meta.update(git_sha=git("rev-parse", "HEAD"), git_dirty=bool(git("status", "--porcelain", "--untracked-files=no")))
    else:
        meta.update(git_sha=None, git_dirty=None)
    src = os.path.join(ROOT, "src", "trigint")
    meta["src_lines"] = sum(sum(1 for _ in open(os.path.join(src, f), encoding="utf-8"))
                            for f in sorted(os.listdir(src)) if f.endswith(".py"))
    meta.update({key: result[key] for key in ("versions", "samples", "measured_s", "traced_s", "reference_defects") if key in result})
    meta.update(extra, failures=result["failures"])
    return meta


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1, help="input seed (default 1; held-out seed 7)")
    parser.add_argument("--seconds", type=int, default=20, help="timed seconds of requests per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.perf_counter() + DEADLINE_S

    try:
        if args.trace:
            _, result = spawn(args, "traced", deadline)
            metrics = result["metrics"]
            extra = {"tracing_overhead": metrics["trace.overhead_ratio"]}
        else:
            setups = []
            for mode in ["setup"] * SETUPS_AROUND + ["timed"] + ["setup"] * SETUPS_AROUND:
                start, outcome = spawn(args, mode, deadline)
                setups.append(outcome["ready"] - start)
                if mode == "timed":
                    result = outcome
            metrics = {"setup_s": statistics.median(setups), **result["metrics"]}
            extra = {"setup_samples_s": setups}
    except RunFailed as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 1

    failed = len(result["failures"])
    print(json.dumps({"meta": metadata(args, result, extra)}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit(name)} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
