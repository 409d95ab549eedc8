"""Command-line front end.

Subcommands: analyze, oracle, example, spin, lattice.  Exit codes:
0 success, 1 mathematical rejection, 2 internal-consistency failure,
3 usage or parse error, 141 output pipe closed by its reader.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

from .algebra import field_from_name
from .algebra.fields import decimal
from .errors import ConsistencyError, InputError, Rejection, ToolError
from .examples import EXAMPLE_NAMES, build_example
from .fourfold import assembly_points_mod_q, brute_force_oracle
from .lattice import ns2_gram
from .points import format_points
from .repfile import parse_rep_file, write_rep_file
from .report import analyze

EXIT_OK = 0
EXIT_REJECTED = 1
EXIT_INCONSISTENT = 2
EXIT_USAGE = 3
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a process the signal ended


def _emit(lines, out):
    for line in lines:
        print(line, file=out)


def _cmd_analyze(args, out) -> int:
    rep = parse_rep_file(Path(args.file).read_text())
    report = analyze(rep, None if args.field is None else field_from_name(args.field))
    if args.json:
        print(json.dumps(report.to_json_dict(), indent=2, sort_keys=True), file=out)
    else:
        _emit(report.flat_lines(), out)
    return EXIT_OK


def _cmd_oracle(args, out) -> int:
    rep = parse_rep_file(Path(args.file).read_text())
    q = args.prime
    oracle = brute_force_oracle(rep, q)
    assembled = assembly_points_mod_q(rep, q)
    match = {p.coords for p in oracle} == {p.coords for p in assembled}
    _emit(
        [
            f"prime = {q}",
            f"oracle_count = {len(oracle)}",
            f"oracle_points = {format_points(oracle)}",
            f"assembly_count = {len(assembled)}",
            f"assembly_points = {format_points(assembled)}",
            f"oracle_matches_assembly = {'true' if match else 'false'}",
        ],
        out,
    )
    if not match:
        raise ConsistencyError("exhaustive enumeration disagrees with the assembled singular locus")
    return EXIT_OK


def _cmd_example(args, out) -> int:
    params = {}
    for spec in args.param or []:
        if "=" not in spec:
            raise InputError(f"--param needs KEY=VALUE, got {spec!r}")
        k, v = spec.split("=", 1)
        params[k.strip()] = v.strip()
    ex = build_example(args.name, params)
    if args.emit:
        Path(args.emit).write_text(write_rep_file(ex.rep))
        print(f"wrote = {args.emit}", file=out)
    _emit([f"example = {ex.name}"] + [f"param {k} = {v}" for k, v in sorted(ex.params.items())], out)
    for note in ex.notes:
        print(f"note = {note}", file=out)
    checks = failures = 0
    for field_name in sorted(ex.expected):
        actual = analyze(ex.rep, field_from_name(field_name)).to_json_dict()
        for key, (want, source) in sorted(ex.expected[field_name].items()):
            got = actual[key]
            ok = got == want
            checks += 1
            failures += not ok
            print(
                f"check {field_name} {key}: expected {want} ({source}), got {got} -> "
                f"{'ok' if ok else 'MISMATCH'}",
                file=out,
            )
    print(f"checks_run = {checks}", file=out)
    if failures:
        raise ConsistencyError(f"{failures} expected highlight(s) did not reproduce")
    if checks:  # a member without pinned highlights reproduced nothing
        print("all_expected_reproduced = true", file=out)
    return EXIT_OK


def _cmd_spin(args, out) -> int:
    from .spin import build_dual_graph, config_predicates, graph_stats, parse_config, spin_subsets, theta_counts

    config = parse_config(args.config)
    graph = build_dual_graph(config)
    is_even, b1 = graph_stats(graph)
    preds = config_predicates(config)
    lines = [
        f"config = {args.config}",
        f"components = {len(config)}",
        f"total_nodes = {graph.total_edges()}",
        f"is_even = {'true' if is_even else 'false'}",
        f"b1 = {b1}",
        f"prop41i = {'true' if preds.satisfies_prop41i else 'false'}",
        f"in_remark41_list = {'true' if preds.in_remark41_list else 'false'}",
        f"all_components_rational = {'true' if preds.all_components_rational else 'false'}",
        f"realizes_max_candidate = {'true' if preds.realizes_max_candidate else 'false'}",
    ]
    total, even, odd = theta_counts(10)
    lines += [f"theta_total = {total}", f"theta_even = {even}", f"theta_odd = {odd}"]
    if args.k is not None:
        if args.k < 0:
            raise InputError(f"--k must be a nonnegative subset size, got {args.k}")
        witnesses = spin_subsets(graph, args.k, enumerate_all=args.all)
        lines.append(f"k = {args.k}")
        lines.append(f"is_even_residual_witness = {'true' if witnesses else 'false'}")
        if args.all:
            lines.append(f"witness_count = {len(witnesses)}")
        if witnesses:
            w = witnesses[0]
            lines.append(f"witness_component_genera = {list(w.component_genera)}")
            lines.append(f"witness_admits_odd_theta = {'true' if w.admits_odd_theta else 'false'}")
    _emit(lines, out)
    return EXIT_OK


def _cmd_lattice(args, out) -> int:
    rep = ns2_gram(args.couples)
    lines = [
        f"couples = {rep.m}",
        f"class_count = {rep.class_count}",
        f"ns2_det = {rep.det}",
        f"ns2_rank = {rep.rank}",
        f"ns2_rank_lower_bound = {rep.rank_lower_bound}",
    ]
    for row in rep.gram:
        lines.append("gram_row = " + " ".join(str(c) for c in row))
    _emit(lines, out)
    return EXIT_OK


def _prime(text: str) -> int:
    """The value of --prime, in ASCII decimal digits alone."""
    try:
        return decimal(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad prime {text!r}") from None


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    ap = argparse.ArgumentParser(
        prog="detfold",
        description="Exact analysis of cubic fourfolds built from symmetric "
        "determinantal representations of plane sextics.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    a = sub.add_parser("analyze", help="full report for a representation file")
    a.add_argument("file")
    a.add_argument("--field", help="rational or fp:Q (defaults to the file's field)")
    a.add_argument("--json", action="store_true")
    a.set_defaults(func=_cmd_analyze)

    o = sub.add_parser("oracle", help="exhaustive finite-field check of the singular locus")
    o.add_argument("file")
    o.add_argument("--prime", type=_prime, required=True)
    o.set_defaults(func=_cmd_oracle)

    e = sub.add_parser("example", help="build a named example and check its expected values")
    e.add_argument("name", choices=EXAMPLE_NAMES)
    e.add_argument("--param", action="append", metavar="K=V")
    e.add_argument("--emit", metavar="PATH", help="write the representation file")
    e.set_defaults(func=_cmd_example)

    s = sub.add_parser("spin", help="dual-graph statistics and node-subset search")
    s.add_argument("--config", required=True, help="e.g. 'lines=6' or 'line=1,quintic=1:nodes=5'")
    s.add_argument("--k", type=int)
    s.add_argument("--all", action="store_true", help="enumerate all witnesses")
    s.set_defaults(func=_cmd_spin)

    l = sub.add_parser("lattice", help="intersection matrix for m couples of planes")
    l.add_argument("--couples", type=int, required=True)
    l.set_defaults(func=_cmd_lattice)
    return ap


def main(argv=None, out=None) -> int:
    out = out or sys.stdout
    try:
        rc = _run(argv, out)
        out.flush()
    except BrokenPipeError:
        # the reader of out has gone (`detfold analyze FILE | head -1`):
        # write nothing more, and point stdout at devnull so that the
        # interpreter's last flush at exit has somewhere to go
        if out is sys.stdout:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    return rc


def _run(argv, out) -> int:
    ap = make_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    try:
        return args.func(args, out)
    except Rejection as e:
        print(f"rejected: {e}", file=out)
        return EXIT_REJECTED
    except ConsistencyError as e:
        print(f"inconsistent: {e}", file=out)
        return EXIT_INCONSISTENT
    except BrokenPipeError:
        raise  # not an input error: `main` ends quietly
    except (InputError, OSError, UnicodeDecodeError) as e:
        # a file that is missing, a directory, unreadable or not UTF-8 is a usage error
        print(f"error: {e}", file=out)
        return EXIT_USAGE
    except ToolError as e:
        print(f"error: {e}", file=out)
        return EXIT_REJECTED


if __name__ == "__main__":
    raise SystemExit(main())
