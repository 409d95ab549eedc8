import io
import json
import os
import subprocess
import sys
import time
from itertools import product
from pathlib import Path

import pytest

from detfold.cli import main
from detfold.errors import InputError
from detfold.examples import EXAMPLE_NAMES, build_example
from detfold.repfile import parse_rep_file, write_rep_file
from reference import dense_rep, rep_entry


# the rows of diag(x1, x2, x3, x1^3 + x2^3 + x3^3), lines 3 to 6 of a file
ROWS = "row 0: x1, 0, 0, 0\nrow 1: 0, x2, 0, 0\nrow 2: 0, 0, x3, 0\nrow 3: 0, 0, 0, x1^3 + x2^3 + x3^3\n"


def run_cli(*args):
    buf = io.StringIO()
    rc = main(list(args), out=buf)
    return rc, buf.getvalue()


class TestRepFile:
    def test_round_trip_all_examples(self):
        for name in ("ex42i", "ex42ii", "prop44", "rmk31", "ex43_quartic_two_lines", "ex43_fermat"):
            ex = build_example(name)
            text = write_rep_file(ex.rep)
            rep2 = parse_rep_file(text)
            assert all(
                rep_entry(rep2, i, j) == rep_entry(ex.rep, i, j) for i in range(4) for j in range(4)
            ), name
            assert write_rep_file(rep2) == text

    def test_comments_and_whitespace(self):
        text = """
# a comment
field rational
vars x1 x2 x3
row 0:  x1 , 0, 0, 0   # trailing comment
row 2: 0, 0, x3, 0
row 1: 0, x2, 0, 0
row 3: 0, 0, 0, x1^3 + x2^3 + 7*x3^3
"""
        rep = parse_rep_file(text)
        assert str(rep_entry(rep, 3, 3)) == "x1^3 + x2^3 + 7*x3^3"

    def test_error_reports_line(self):
        with pytest.raises(InputError, match="line 3"):
            parse_rep_file("field rational\nvars x1 x2 x3\nrow 0: x1, 0, 0\n")

    @pytest.mark.parametrize(
        "text,message",
        [
            ("field rational\nvars x1 x2 x3\nfrob 1\n", "line 3: unrecognized directive 'frob'"),
            ("fieldset rational\nvars x1 x2 x3\n" + ROWS, "line 1: unrecognized directive 'fieldset'"),
            ("field rational\nvars x1 x2 x3\nrowboat " + ROWS[4:], "line 3: unrecognized directive 'rowboat'"),
            ("field rational\nvars x1 x2 x3\n" + ROWS + "field fp 7\n", "line 7: repeated 'field' declaration"),
            ("field rational\nvars x1 x2 x3\nvars x1 x2 x3\n" + ROWS, "line 3: repeated 'vars' declaration"),
        ],
        ids=["frob", "fieldset", "rowboat", "field-after-rows", "vars-twice"],
    )
    def test_unknown_directive(self, text, message, tmp_path):
        # a directive is its line's first word, matched exactly, and field
        # and vars are declared once: anything else is a usage error (exit
        # 3) naming the line, not a prefix match or a rejection of the matrix
        with pytest.raises(InputError, match=message):
            parse_rep_file(text)
        path = tmp_path / "bad.rep"
        path.write_text(text)
        assert run_cli("analyze", str(path)) == (3, f"error: {message}\n")

    def test_missing_rows(self):
        with pytest.raises(InputError, match="missing rows"):
            parse_rep_file("field rational\nvars x1 x2 x3\nrow 0: x1, 0, 0, 0\n")

    def test_finite_field_file(self):
        text = "field fp 13\nvars x1 x2 x3\n" + "\n".join(
            f"row {i}: " + ", ".join("x1" if i == j else "0" for j in range(4))
            for i in range(3)
        ) + "\nrow 3: 0, 0, 0, x1^3 + 5*x2^3 + x3^3\n"
        rep = parse_rep_file(text)
        assert rep.q == 13


class TestCli:
    def test_analyze_round_trip_byte_identical(self, tmp_path):
        rc, _ = run_cli("example", "ex42ii", "--emit", str(tmp_path / "a.rep"))
        assert rc == 0
        rc1, out1 = run_cli("analyze", str(tmp_path / "a.rep"))
        rc2, out2 = run_cli("analyze", str(tmp_path / "a.rep"))
        assert rc1 == rc2 == 0
        assert out1 == out2

    def test_analyze_json(self, tmp_path):
        run_cli("example", "prop44", "--emit", str(tmp_path / "p.rep"))
        rc, out = run_cli("analyze", str(tmp_path / "p.rep"), "--json", "--field", "fp:13")
        assert rc == 0
        data = json.loads(out)
        assert data["smooth"] is True
        assert data["s_theta_count"] == 12
        assert data["ns2_rank_lower_bound"] == 14

    def test_oracle_command(self, tmp_path):
        run_cli("example", "ex42ii", "--emit", str(tmp_path / "a.rep"))
        rc, out = run_cli("oracle", str(tmp_path / "a.rep"), "--prime", "7")
        assert rc == 0
        assert "oracle_matches_assembly = true" in out
        assert "oracle_count = 3" in out

    def test_example_command_checks(self):
        # each named example exits non-zero when a pinned highlight does not reproduce
        for name in EXAMPLE_NAMES:
            rc, out = run_cli("example", name)
            checks = out.count("\ncheck ")
            assert rc == 0 and checks and out.endswith(f"\nchecks_run = {checks}\nall_expected_reproduced = true\n"), name

    @pytest.mark.parametrize(
        "name, param",
        [
            ("ex42i", "f=x1^3 + 2*x2^3 + 3*x3^3 + x1*x2*x3"),
            ("rmk31", "f=x1^3 + 2*x2^3 + 5*x3^3"),
            # general position over Q, but x1, l4 and l6 meet in one point mod 11
            ("ex42ii", "l4=x1 + x2 + 8*x3"),
            ("ex42ii", "l4=2*x1 + 3*x2 + 5*x3"),
            ("prop44", "A=1,1,0,0,1,0,0,0,2"),
            ("rmk31", "f=x1^3 + 2*x2^3 + 3*x3^3 + x1*x2*x3"),
            ("ex43_fermat", "q=41"),
        ],
        ids=["ex42i", "rmk31", "ex42ii", "ex42ii-l4", "prop44", "rmk31-xyz", "ex43_fermat"],
    )
    def test_example_with_a_non_default_cubic(self, name, param):
        # the pinned highlights belong to the default member alone: none is
        # checked, and nothing claims they reproduced
        rc, out = run_cli("example", name, "--param", param)
        assert rc == 0 and out.endswith("\nchecks_run = 0\n") and "all_expected_reproduced" not in out

    def test_spin_command(self):
        rc, out = run_cli("spin", "--config", "lines=6", "--k", "10")
        assert rc == 0
        assert "is_even_residual_witness = true" in out
        assert "b1 = 10" in out

    def test_lattice_command(self):
        rc, out = run_cli("lattice", "--couples", "12")
        assert rc == 0
        assert "class_count = 25" in out
        assert "ns2_rank_lower_bound = 14" in out

    def test_rejection_exit_code(self, tmp_path):
        bad = tmp_path / "bad.rep"
        bad.write_text(
            "field rational\nvars x1 x2 x3\n"
            "row 0: 0, x1, x2, 0\n"
            "row 1: x1, -x3, 0, 0\n"
            "row 2: x2, 0, -x1, 0\n"
            "row 3: 0, 0, 0, x1^3 + 2*x2^3 + 5*x3^3\n"
        )
        rc, out = run_cli("analyze", str(bad))
        assert rc == 1
        assert "rejected" in out and "node" in out

    @pytest.mark.parametrize("args", [("analyze", "--field", "fp:7"), ("oracle", "--prime", "7")], ids=["analyze", "oracle"])
    def test_bad_reduction_exit_code(self, tmp_path, args):
        # q = 7 divides the common denominator 49 of the entries: the first
        # coefficient whose denominator it divides, in row order, is refused
        bad = tmp_path / "sevenths.rep"
        bad.write_text(
            "field rational\nvars x1 x2 x3\n"
            "row 0: 1/7*x1, 0, 0, 0\n"
            "row 1: 0, x2, 0, 0\n"
            "row 2: 0, 0, x3, 0\n"
            "row 3: 0, 0, 0, x1^3 + 1/49*x2^3 + x3^3\n"
        )
        rc, out = run_cli(args[0], str(bad), *args[1:])
        assert rc == 1
        assert out == "rejected: denominator of 1/7 vanishes mod 7\n"

    @pytest.mark.parametrize(
        "args, rc",
        [(("analyze",), 0), (("analyze", "--field", "fp:7"), 1), (("oracle", "--prime", "7"), 1)],
        ids=["analyze", "analyze-fp7", "oracle-7"],
    )
    def test_sextic_vanishing_mod_q_exit_code(self, tmp_path, args, rc):
        # the sextic 7 x1 x2 x3 (x1^3 + x2^3 + x3^3) is a curve over Q and
        # vanishes identically mod 7: the reduction refuses it
        rep = tmp_path / "sevens.rep"
        rep.write_text(
            "field rational\nvars x1 x2 x3\n"
            "row 0: x1, 0, 0, 0\n"
            "row 1: 0, x2, 0, 0\n"
            "row 2: 0, 0, x3, 0\n"
            "row 3: 0, 0, 0, 7*x1^3 + 7*x2^3 + 7*x3^3\n"
        )
        got, out = run_cli(args[0], str(rep), *args[1:])
        assert got == rc
        if rc:
            assert out == "rejected: determinant vanishes identically; the discriminant sextic is not a curve\n"

    def test_asymmetric_exit_code(self, tmp_path):
        bad = tmp_path / "asym.rep"
        bad.write_text(
            "field rational\nvars x1 x2 x3\n"
            "row 0: 0, x1, 0, 0\n"
            "row 1: x2, 0, 0, 0\n"
            "row 2: 0, 0, x3, 0\n"
            "row 3: 0, 0, 0, x1^3\n"
        )
        rc, out = run_cli("analyze", str(bad))
        assert rc == 1
        assert "symmetric" in out

    def test_parse_error_exit_code(self, tmp_path):
        bad = tmp_path / "syntax.rep"
        bad.write_text("field rational\nvars x1 x2 x3\nrow 0: x1 +, 0, 0, 0\n")
        rc, out = run_cli("analyze", str(bad))
        assert rc == 3

    @pytest.mark.parametrize(
        "entry, rc, message",
        [
            ("(" * 330 + "x1^3 + x2^3 + x3^3" + ")" * 330, 3, "error: line 6, entry 4: parentheses nested deeper than 100"),
            ("1" * 5000 + "*x1^3 + x2^3 + x3^3", 3, "error: line 6, entry 4: integer literal longer than 4000 digits"),
            ("-" * 3000 + "x1^3 + x2^3 + x3^3", 0, "field = fp:7\n"),
            # '²' is a digit to str.isdigit, but not a decimal that int() reads
            ("x1^3 + x2^3 + x3^²", 3, "error: line 6, entry 4: unexpected character '²' (at position 17)"),
        ],
        ids=["deep-parentheses", "long-literal", "sign-run", "superscript"],
    )
    def test_parser_limits_exit_code(self, tmp_path, entry, rc, message):
        # entries that once overflowed the interpreter's recursion or
        # int-conversion limits: a parse error naming line and entry, or, for
        # a run of signs, folded to the plain entry's whole report, over Q too
        head = "field rational\nvars x1 x2 x3\nrow 0: x1, 0, 0, 0\nrow 1: 0, x2, 0, 0\nrow 2: 0, 0, x3, 0\nrow 3: 0, 0, 0, "
        rep = tmp_path / "r.rep"
        rep.write_text(head + entry + "\n")
        got = run_cli("analyze", str(rep), "--field", "fp:7")
        assert got[0] == rc and got[1].startswith(message)
        if rc == 0:
            plain = tmp_path / "plain.rep"
            plain.write_text(head + "x1^3 + x2^3 + x3^3\n")
            for field in ("fp:7", "rational"):
                assert run_cli("analyze", str(rep), "--field", field) == run_cli("analyze", str(plain), "--field", field)

    def test_long_product_exits_quickly(self, tmp_path):
        # without the degree limit 200 linear factors are multiplied out,
        # in time about cubic in their number, before the entry is refused;
        # with it the 13th factor is refused at its product
        rep = tmp_path / "r.rep"
        rep.write_text("field rational\nvars x1 x2 x3\nrow 0: x1, 0, 0, 0\nrow 1: 0, x2, 0, 0\n"
                       "row 2: 0, 0, x3, 0\nrow 3: 0, 0, 0, " + "*".join(["(x1+2*x2+3*x3)"] * 200) + "\n")
        start = time.perf_counter()
        rc, out = run_cli("analyze", str(rep))
        assert rc == 3 and out.startswith("error: line 6, entry 4: degree higher than 12 (at position 179)")
        assert time.perf_counter() - start < 1

    def test_usage_error(self):
        rc, _ = run_cli("analyze")
        assert rc == 3
        rc, out = run_cli("spin", "--config", "lines=6", "--k", "-1")
        assert rc == 3 and "--k" in out

    @pytest.mark.parametrize(
        "name,param,accepted",
        [
            ("ex42i", "F=x1^3 + x2^3 + x3^3", "ex42i accepts f"),
            ("ex43_fermat", "q=abc", "ex43_fermat accepts q"),
            ("prop44", "A=a,0,0,0,1,0,0,0,1", "prop44 accepts A"),
            ("prop44", "A=1/0,0,0,0,1,0,0,0,1", "prop44 accepts A"),
        ],
        ids=["unknown-key", "int-value", "rational-value", "zero-denominator"],
    )
    def test_bad_example_param_exit_code(self, name, param, accepted):
        rc, out = run_cli("example", name, "--param", param)
        assert rc == 3 and out.startswith("error: ") and accepted in out

    def test_missing_file(self, tmp_path):
        # a missing file, a directory and a file that is not UTF-8 are usage
        # errors, for every command that reads a file
        latin1 = tmp_path / "latin1.rep"
        latin1.write_bytes("field rational # caf\xe9\n".encode("latin-1"))
        for path in ("/nonexistent/file.rep", str(tmp_path), str(latin1)):
            for args in (("analyze", path), ("oracle", path, "--prime", "7")):
                rc, out = run_cli(*args)
                assert rc == 3 and out.startswith("error: "), (args, out)

    @pytest.mark.parametrize(
        "args",
        [("analyze", "--field", "fp:3"), ("analyze", "--field", "rational"), ("oracle", "--prime", "3")],
        ids=["analyze-fp3", "analyze-rational", "oracle-3"],
    )
    def test_foreign_field_exit_code(self, tmp_path, args):
        rep = str(tmp_path / "f.rep")
        run_cli("example", "ex43_fermat", "--emit", rep)
        rc, out = run_cli(args[0], rep, *args[1:])
        assert rc == 3 and "a representation over fp:17 can only be analysed over fp:17" in out

    def test_scan_budget_exit_code(self, tmp_path, monkeypatch):
        import detfold.curves as curves

        def no_scan(q):
            raise AssertionError(f"P^2(F_{q}) scanned over budget")

        run_cli("example", "prop44", "--emit", str(tmp_path / "p.rep"))
        monkeypatch.setattr(curves, "p2_lines", no_scan)
        rc, out = run_cli("analyze", str(tmp_path / "p.rep"), "--field", "fp:1009")
        assert rc == 3 and "scan budget exceeded" in out

    def test_oracle_budget_exit_code(self, tmp_path, monkeypatch):
        # the strata with x1 = 0 have rank 0 and q^3 candidates each; such a
        # stratum enumerates the q^2 points of its two outer kernel directions
        import detfold.fourfold as fourfold

        def no_plane(*args, repeat=1):
            if repeat == 2:
                raise AssertionError("a rank-0 stratum enumerated over budget")
            return product(*args, repeat=repeat)

        (tmp_path / "r.rep").write_text(
            "field rational\nvars x1 x2 x3\n"
            "row 0: x1, 0, 0, 0\nrow 1: 0, x1, 0, 0\nrow 2: 0, 0, x1, 0\nrow 3: 0, 0, 0, x2^3 + x3^3\n"
        )
        monkeypatch.setattr(fourfold, "product", no_plane)
        rc, out = run_cli("oracle", str(tmp_path / "r.rep"), "--prime", "61")
        assert rc == 3 and "enumeration budget exceeded" in out

    @pytest.mark.parametrize("prime, rc", [(157, 0), (163, 3)])
    def test_oracle_budget_boundary_rmk31(self, tmp_path, prime, rc):
        # a full-rank stratum counts once against the budget, skipped or
        # not; with them rmk31 tests 98,913 points at 157 and passes 10^5 at 163
        run_cli("example", "rmk31", "--emit", str(tmp_path / "r.rep"))
        assert run_cli("oracle", str(tmp_path / "r.rep"), "--prime", str(prime))[0] == rc

    @pytest.mark.parametrize("prime, rc", [(181, 0), (191, 3)])
    def test_oracle_budget_boundary_dense_rep(self, tmp_path, prime, rc):
        (tmp_path / "d.rep").write_text(write_rep_file(dense_rep(1, 3)))
        assert run_cli("oracle", str(tmp_path / "d.rep"), "--prime", str(prime))[0] == rc

    def test_spin_degree_limit_exit_code(self, monkeypatch):
        import detfold.spin as spin

        def no_walk(*args):
            raise AssertionError("node subsets walked for a non-sextic")

        monkeypatch.setattr(spin, "combinations", no_walk)
        rc, out = run_cli("spin", "--config", "lines=20", "--k", "3")
        assert rc == 3 and "total degree 20" in out

    def test_lattice_couples_limit_exit_code(self, monkeypatch):
        import detfold.lattice as lattice

        def no_det(gram, q=0):
            raise AssertionError(f"{len(gram)}x{len(gram)} determinant taken over the limit")

        monkeypatch.setattr(lattice, "int_rank_det", no_det)
        rc, out = run_cli("lattice", "--couples", "16")
        assert rc == 3 and "at most 15" in out

    def test_one_process_prints_what_fresh_processes_print(self, tmp_path, capsys):
        # the parser is built once per process and reused, across a usage
        # error and a repeated --param, with the same output and exit code
        rep = tmp_path / "a.rep"
        rep.write_text(write_rep_file(build_example("ex42ii").rep))
        param = "f=x1^3 + 2*x2^3 + 3*x3^3 + x1*x2*x3"
        calls = [
            ("analyze", str(rep)),
            ("analyze",),
            ("example", "ex42i", "--param", param),
            ("example", "ex42i", "--param", param),
            ("analyze", str(rep)),
        ]
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        codes = []
        for args in calls:
            capsys.readouterr()
            rc, out = run_cli(*args)
            err = capsys.readouterr().err
            fresh = subprocess.run(
                [sys.executable, "-m", "detfold.cli", *args], env=env, capture_output=True, text=True
            )
            assert (rc, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr), args
            codes.append(rc)
        assert codes == [0, 3, 0, 0, 0]

    def test_cli_import_leaves_numpy_out(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        code = "import sys, detfold.cli; print('numpy' in sys.modules)"
        env = dict(os.environ, PYTHONPATH=src)
        res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip() == "False"

    def test_oracle_mismatch_exit_code(self, tmp_path, monkeypatch):
        import detfold.cli as cli_mod

        run_cli("example", "ex42ii", "--emit", str(tmp_path / "a.rep"))
        monkeypatch.setattr(cli_mod, "brute_force_oracle", lambda rep, q: [])
        rc, out = run_cli("oracle", str(tmp_path / "a.rep"), "--prime", "7")
        assert rc == 2
        assert "oracle_matches_assembly = false" in out

    def test_emitted_file_reproduces_highlights(self, tmp_path):
        # ex42ii is rational-complete, so the file-based raw analysis must
        # reproduce the fixture's expected counts key for key
        ex = build_example("ex42ii")
        run_cli("example", "ex42ii", "--emit", str(tmp_path / "a.rep"))
        rc, out = run_cli("analyze", str(tmp_path / "a.rep"))
        assert rc == 0
        flat = dict(line.split(" = ", 1) for line in out.splitlines() if " = " in line)
        for key, (want, _src) in ex.expected["rational"].items():
            shown = flat[key]
            if isinstance(want, bool):
                want_s = "true" if want else "false"
            else:
                want_s = str(want)
            assert shown == want_s, key
