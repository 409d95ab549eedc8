"""One process of a perfbench run, started by run.py in a fresh interpreter.

    python3 perfbench/worker.py setup|measure WORKLOAD SEED SECONDS TRACE

Both roles import the program and write the workload's representation files
(the set-up), print the monotonic clock reading at which set-up ended, and
`setup` exits there.  `measure` then runs the closed loop: one client, no
threads, each operation one in-process call of detfold.cli.main(argv, out=buf)
started after the previous one returned.  It repeats whole rounds of the
workload's operation list until SECONDS have passed and at least the
workload's minimum number of operations are done.  A traced run does one
round under cProfile, so its counts are whole-round totals that repeat
exactly.  Every output is checked by checks.py outside the timed region.
"""

from __future__ import annotations

import importlib
import io
import json
import os
import random
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# name -> (minimum operations per run, percentile reported as op_tail_s);
# the percentile keeps at least ten samples beyond it at the minimum.
WORKLOADS = {
    "fq-analyze": (100, 90),
    "qq-elimination": (100, 90),
    "oracle-sweep": (40, 75),
}
# members drawn from each family's pool of 32 per run.  Large samples keep the
# sample's costs, and with them the medians, nearly the same for every seed;
# the eight ex42ii members (at q = 97 in fq-analyze) make the block of
# similar costly operations that fq-analyze's p90 falls inside.
FAMILY_SAMPLE = {"prop44": 16, "ex42ii": 8}


def build_ops(pool: dict, workload: str, seed: int) -> list:
    """The round of (entry, field) operations for a workload and seed."""
    rng = random.Random(seed)
    named = pool["named"]
    family = [e for kind, n in FAMILY_SAMPLE.items() for e in rng.sample(pool[kind], n)]
    if workload == "fq-analyze":
        ops = [(e, f) for e in named for f in e["pinned"]]
        ops += [(e, f"fp:{q}") for e in named if e["rational"] for q in pool["large_primes"]]
        ops += [(e, f"fp:{e['prime']}") for e in family]
    elif workload == "qq-elimination":
        ops = [(e, "rational") for e in named if e["rational"]] + [(e, "rational") for e in family]
    else:
        ops = [(e, f"oracle:{pool['oracle_prime']}") for e in named if e["rational"]]
    rng.shuffle(ops)
    return ops


def write_inputs(ops: list, workdir: Path) -> list:
    """Write each distinct input once; return (argv, entry, field) per op."""
    paths: dict = {}
    out = []
    for entry, field in ops:
        key = id(entry)
        if key not in paths:
            paths[key] = workdir / f"input{len(paths)}.rep"
            paths[key].write_text(entry["rep"])
        path = str(paths[key])
        if field.startswith("oracle:"):
            argv = ["oracle", path, "--prime", field.split(":")[1]]
        elif field == "rational":
            argv = ["analyze", path]
        else:
            argv = ["analyze", path, "--field", field]
        out.append((argv, entry, field))
    return out


def check(text: str, entry: dict, field: str) -> list:
    if field.startswith("oracle:"):
        return checks.check_oracle(text, entry, int(field.split(":")[1]))
    return checks.check_analyze(text, entry, field)


# ---------------------------------------------------------------------------
# Tracing from outside the program
# ---------------------------------------------------------------------------

# metric prefix -> (module, qualified name) of a function whose calls are counted
# ("<prefix>.calls") or whose cumulative time is summed ("<prefix>_s")
TRACE_CALLS = {
    "detrep.derived_equations": ("detfold.detrep", "derived_equations"),
    "detrep.validate_rep": ("detfold.detrep", "validate_rep"),
    "curves.plane_solutions": ("detfold.curves", "plane_solutions"),
    "algebra.fields.fp_mul": ("detfold.algebra.fields", "FpElt.__mul__"),
    "algebra.multipoly.evaluate": ("detfold.algebra.multipoly", "MultiPoly.evaluate"),
    "algebra.multipoly.resultant": ("detfold.algebra.multipoly", "resultant"),
    "algebra.unipoly.rational_roots": ("detfold.algebra.unipoly", "rational_roots"),
    "algebra.multipoly.mul": ("detfold.algebra.multipoly", "MultiPoly.__mul__"),
    "algebra.multipoly.substitute": ("detfold.algebra.multipoly", "MultiPoly.substitute"),
    "algebra.linalg.kernel_rank_det": ("detfold.algebra.linalg", "kernel_rank_det"),
}
TRACE_TIMES = {
    "repfile.parse_rep_file": ("detfold.repfile", "parse_rep_file"),
    "report.analyze": ("detfold.report", "analyze"),
    "curves.plane_solutions": ("detfold.curves", "plane_solutions"),
    "algebra.multipoly.resultant": ("detfold.algebra.multipoly", "resultant"),
    "algebra.unipoly.rational_roots": ("detfold.algebra.unipoly", "rational_roots"),
    "fourfold.couples_and_intersections": ("detfold.fourfold", "couples_and_intersections"),
    "fourfold.brute_force_oracle": ("detfold.fourfold", "brute_force_oracle"),
    "fourfold.assembly_points_mod_q": ("detfold.fourfold", "assembly_points_mod_q"),
    "curves.classify_singularities": ("detfold.curves", "classify_singularities"),
    "fourfold.singular_locus_X": ("detfold.fourfold", "singular_locus_X"),
}
# modules whose self time (Python functions and the C calls they make,
# excluding their Python callees) is summed as "<name>.self_s"
TRACE_SELF = ("detrep", "curves", "fourfold", "algebra.fields", "algebra.multipoly", "algebra.linalg", "algebra.unipoly")


def _code_key(module: str, qualname: str):
    obj = importlib.import_module(module)
    try:
        for part in qualname.split("."):
            obj = getattr(obj, part)
        code = obj.__code__
    except AttributeError:
        print(f"perfbench: {module}.{qualname} not found; its metric reads 0", file=sys.stderr)
        return None
    return (code.co_filename, code.co_firstlineno, code.co_name)


def install_point_counter() -> list:
    """Wrap curves.plane_solutions wherever a detfold module holds it, adding
    q^2+q+1 (the size of P^2(F_q)) per call over a prime field."""
    import detfold.curves as curves

    original = curves.plane_solutions
    scanned = [0]

    def plane_solutions(polys, field):
        q = getattr(field, "q", None)
        if q is not None:
            scanned[0] += q * q + q + 1
        return original(polys, field)

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("detfold") and getattr(module, "plane_solutions", None) is original:
            module.plane_solutions = plane_solutions
    return scanned


def trace_keys() -> dict:
    """cProfile keys of the traced functions, resolved before any wrapping."""
    return {
        table: {prefix: _code_key(*target) for prefix, target in targets.items()}
        for table, targets in (("calls", TRACE_CALLS), ("times", TRACE_TIMES))
    }


def trace_metrics(stats: dict, keys: dict, n_ops: int, scanned: int, op_mean_s: float) -> dict:
    """Per-operation means of the traced counts and times."""
    metrics = {}
    for prefix, key in keys["calls"].items():
        metrics[f"{prefix}.calls"] = (stats[key][1] / n_ops if key in stats else 0, "count/op")
    for prefix, key in keys["times"].items():
        metrics[f"{prefix}_s"] = (stats[key][3] / n_ops if key in stats else 0, "s/op")
    for name in TRACE_SELF:
        path = os.path.realpath(importlib.import_module(f"detfold.{name}").__file__)
        total = sum(v[2] for k, v in stats.items() if os.path.realpath(k[0]) == path)
        metrics[f"{name}.self_s"] = (total / n_ops, "s/op")
    metrics["curves.fq_points_scanned"] = (scanned / n_ops, "count/op")
    metrics["trace.op_mean_s"] = (op_mean_s, "s/op")
    return metrics


# ---------------------------------------------------------------------------
# The run
# ---------------------------------------------------------------------------


def measure(detfold_main, ops: list, workload: str, seconds: float, trace: bool) -> dict:
    min_ops, _tail = WORKLOADS[workload]
    min_rounds = -(-min_ops // len(ops))
    profiler = scanned = None
    if trace:
        import cProfile

        keys = trace_keys()
        profiler = cProfile.Profile(builtins=False)
        scanned = install_point_counter()
    times, failed, problems = [], 0, []
    start = time.perf_counter()
    rounds = 0
    while True:
        for argv, entry, field in ops:
            buf = io.StringIO()
            if profiler:
                profiler.enable()
            t0 = time.perf_counter()
            try:
                rc = detfold_main(argv, out=buf)
            except Exception as exc:  # a crash is a failed operation, not a failed run
                rc = f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
            if profiler:
                profiler.disable()
            times.append(dt)
            if rc != 0:
                failed += 1
                problems.append(f"{' '.join(argv[:1] + argv[2:])} on {entry['name']} failed: {rc}")
                continue
            problems += [f"{entry['name']} over {field}: {p}" for p in check(buf.getvalue(), entry, field)]
        rounds += 1
        if trace or (rounds >= min_rounds and time.perf_counter() - start >= seconds):
            break
    out = {
        "times": times,
        "attempted": len(times),
        "failed": failed,
        "problems": problems,
        "rounds": rounds,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if trace:
        import pstats

        stats = pstats.Stats(profiler).stats
        out["trace"] = trace_metrics(stats, keys, len(times), scanned[0], sum(times) / len(times))
    return out


def main(argv: list) -> int:
    role, workload, seed, seconds, trace = argv
    sys.path.insert(0, str(SRC))
    from detfold.cli import main as detfold_main

    pool = json.loads((HERE / "pool.json").read_text())
    base = HERE / "_work"
    base.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=base))
    try:
        ops = write_inputs(build_ops(pool, workload, int(seed)), workdir)
        ready = time.monotonic()
        print("perfbench: setup done", file=sys.stderr, flush=True)
        result = {"ready": ready}
        if role == "measure":
            result.update(measure(detfold_main, ops, workload, float(seconds), trace == "1"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
