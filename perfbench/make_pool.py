"""Regenerate perfbench/pool.json, the benchmark's screened inputs.

    python3 perfbench/make_pool.py

The pool holds the seven named examples and 32 members each of the
prop44 and ex42ii families, as representation files written by the program,
together with the counts the program reports for each of them over every
field a workload uses.  Those counts are the one check that copies the
program's output; rerun this command when a change is meant to alter them.

Family members are drawn from a fixed generator and screened by hypothesis,
not by output: over Q by the program's own membership test (its `example`
builder), over F_q by the checks in checks.py (prop44_good_at,
ex42ii_good_at).  A screened member on which the program then fails is
reported on stderr and left out.
"""

from __future__ import annotations

import io
import json
import random
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from detfold.cli import main as detfold_main  # noqa: E402
from detfold.errors import ToolError  # noqa: E402
from detfold.examples import EXAMPLE_NAMES, build_example  # noqa: E402
from detfold.repfile import write_rep_file  # noqa: E402

LARGE_PRIMES = (53, 97)  # every rational example keeps good reduction at both
ORACLE_PRIME = 29  # the P^5 scan is over 80% of an untraced call here; see README
# a member runs at the first of its family's primes at which it is good.
# The ex42ii members, alike in structure, run at a large prime so that their
# F_q scans form one block of similar costs at the top of fq-analyze's
# distribution, which its p90 falls inside; prop44 members run at small ones.
FAMILY_PRIMES = {"prop44": (29, 31, 37), "ex42ii": (97, 89, 83)}
FAMILY_SIZE = 32
GENERATOR_SEED = 2004


def _kind(name: str) -> str:
    return name if name in ("ex42i", "ex42ii", "prop44") else "other"


def _run(argv: list) -> tuple:
    buf = io.StringIO()
    return detfold_main(argv, out=buf), buf.getvalue()


def _record(entry: dict, fields: list, workdir: Path) -> bool:
    """Run the program on every field of the entry, check each output and
    store its counts; False when the program fails or a check fails."""
    path = workdir / "input.rep"
    path.write_text(entry["rep"])
    entry["expect"] = {}
    for field in fields:
        if field.startswith("oracle:"):
            q = int(field.split(":")[1])
            rc, text = _run(["oracle", str(path), "--prime", str(q)])
            problems = checks.check_oracle(text, entry, q) if rc == 0 else [f"exit {rc}: {text.strip()}"]
            golden = {"oracle_count": int(checks.parse_report(text).get("oracle_count", -1))}
        else:
            argv = ["analyze", str(path)] + ([] if field == "rational" else ["--field", field])
            rc, text = _run(argv)
            problems = checks.check_analyze(text, entry, field) if rc == 0 else [f"exit {rc}: {text.strip()}"]
            r = checks.parse_report(text)
            golden = {k: int(r.get(k, -1)) for k in (
                "sing_c_count", "s_theta_count", "s_theta_tilde_count", "s_c_count",
                "b_count", "sing_x_count", "couples")}
        if problems:
            print(f"left out {entry['name']} over {field}: {problems}", file=sys.stderr)
            return False
        entry["expect"][field] = golden
    return True


def _named(workdir: Path) -> list:
    out = []
    for name in EXAMPLE_NAMES:
        ex = build_example(name)
        rational = ex.rep.field.name == "rational"
        entry = {
            "name": name,
            "kind": _kind(name),
            "rep": write_rep_file(ex.rep),
            "pinned": sorted(f for f in ex.expected if f.startswith("fp:")),
            "rational": rational,
        }
        if name == "ex42ii":
            entry["lines"] = [_line_coeffs(ex.params[k]) for k in ("l4", "l5", "l6")]
        if name == "prop44":
            entry["identity"] = True
        fields = entry["pinned"] + (
            ["rational"] + [f"fp:{q}" for q in LARGE_PRIMES] + [f"oracle:{ORACLE_PRIME}"] if rational else []
        )
        if not _record(entry, fields, workdir):
            raise SystemExit(f"named example {name} does not pass its checks")
        out.append(entry)
    return out


def _line_coeffs(text: str) -> list:
    poly = checks.parse_poly(text)
    return [int(poly.get(e, 0)) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]


def _line_text(v: list) -> str:
    return " + ".join(f"{c}*{x}" for c, x in zip(v, ("x1", "x2", "x3")) if c).replace("+ -", "- ")


def _family(kind: str, rng: random.Random, workdir: Path) -> list:
    out = []
    while len(out) < FAMILY_SIZE:
        if kind == "prop44":
            a = [rng.randint(-2, 2) for _ in range(9)]
            if not all(a[4 * k] for k in range(3)):
                continue
            params = {"A": ",".join(map(str, a))}
            good = [q for q in FAMILY_PRIMES[kind] if checks.prop44_good_at(a, q)]
            extra = {"A": a}
        else:
            lines = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
            if not checks.ex42ii_good_at(lines, None):
                continue
            params = {k: _line_text(v) for k, v in zip(("l4", "l5", "l6"), lines)}
            good = [q for q in FAMILY_PRIMES[kind] if checks.ex42ii_good_at(lines, q)]
            extra = {"lines": lines}
        if not good:
            continue
        try:
            ex = build_example(kind, params)
        except ToolError:
            continue
        entry = {"name": f"{kind}[{params}]", "kind": kind, "rep": write_rep_file(ex.rep), "prime": good[0]}
        entry.update(extra)
        if _record(entry, ["rational", f"fp:{good[0]}"], workdir):
            out.append(entry)
    return out


def main() -> None:
    rng = random.Random(GENERATOR_SEED)
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        workdir = Path(tmp)
        pool = {
            "large_primes": list(LARGE_PRIMES),
            "oracle_prime": ORACLE_PRIME,
            "named": _named(workdir),
            "prop44": _family("prop44", rng, workdir),
            "ex42ii": _family("ex42ii", rng, workdir),
        }
    (HERE / "pool.json").write_text(json.dumps(pool, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
