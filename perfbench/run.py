"""The detfold benchmark: one command for every workload and metric.

    python3 perfbench/run.py --workload fq-analyze --seed 1 --seconds 15 --trace 0

Runs from the root of a checkout of the repository and uses the program in
src/ as it stands there.  Each process it starts is a fresh interpreter
(worker.py): several that only set up, for a median set-up time, before
and after the one that measures.  The last line of standard output is one JSON object
with `correct`, `attempted`, `failed` and `metrics`; with --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones.  See
README.md for the workloads and what each metric is meant to show.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
# set-up-only processes before and after the measuring one: with its own
# set-up, eleven samples spread over the run, so drift in the machine's
# speed during the run moves their median less
SETUPS_EACH_SIDE = 5
CHILD_TIMEOUT_S = 170


def spawn(role: str, args, trace: bool) -> dict:
    """Run one worker to its end; its result with `setup_s` and `stderr` added."""
    cmd = [sys.executable] + (["-X", "importtime"] if trace else [])
    cmd += [str(WORKER), role, args.workload, str(args.seed), str(args.seconds), str(int(trace))]
    env = dict(os.environ, PYTHONHASHSEED="0")  # string hashing fixed, so call counts repeat
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"perfbench: {role} worker exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - start
    result["stderr"] = proc.stderr
    return result


def import_times(stderr: str) -> tuple:
    """(numpy, detfold without numpy) import seconds from -X importtime lines
    written before the worker finished its set-up."""
    cumulative = {}
    for line in stderr.splitlines():
        if line.startswith("perfbench: setup done"):
            break
        if line.startswith("import time:") and "|" in line:
            _, cum, name = line.split("|")
            if cum.strip().isdigit():
                cumulative.setdefault(name.strip(), int(cum) / 1e6)
    numpy_s = cumulative.get("numpy", 0.0)
    return numpy_s, cumulative.get("detfold.cli", 0.0) - numpy_s


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "detfold" / "cli.py").is_file():
        print(f"perfbench: no program to measure at {ROOT / 'src' / 'detfold'}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    try:
        setups = [spawn("setup", args, trace) for _ in range(SETUPS_EACH_SIDE)]
        run = spawn("measure", args, trace)
        setups += [spawn("setup", args, trace) for _ in range(SETUPS_EACH_SIDE)]
    finally:
        try:
            (HERE / "_work").rmdir()
        except OSError:
            pass
    setups.append(run)
    for problem in run["problems"][:20]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    times = run["times"]
    if trace:
        imports = [import_times(s["stderr"]) for s in setups]
        metrics = {
            "import.numpy_s": (statistics.median(i[0] for i in imports), "s"),
            "import.detfold_s": (statistics.median(i[1] for i in imports), "s"),
        }
        metrics.update({k: tuple(v) for k, v in run["trace"].items()})
    else:
        _min_ops, tail = WORKLOADS[args.workload]
        metrics = {
            "ops_per_s": ((run["attempted"] - run["failed"]) / sum(times), "1/s"),
            "op_p50_s": (statistics.median(times), "s"),
            "op_tail_s": (statistics.quantiles(times, n=100, method="inclusive")[tail - 1], "s"),
            "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
            "peak_rss_mb": (run["rss_mb"], "MB"),
        }
    print(f"perfbench: {args.workload} seed {args.seed}: {run['attempted']} operations in "
          f"{run['rounds']} rounds, {run['failed']} failed, {len(run['problems'])} check failures",
          file=sys.stderr)
    print(json.dumps({
        "correct": not run["problems"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
