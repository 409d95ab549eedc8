"""Acceptance suite: one test per criterion, exact expectations throughout.

Each test prints a single PASS line (with elapsed time) when its criterion
holds; any assertion failure marks the criterion failed.
"""

import io
import random
import time
from itertools import combinations

from detfold.algebra import VARS_X
from detfold.cli import main as cli_main
from detfold.detrep import reduce_rep
from detfold.errors import Rejection, ToolError
from detfold.examples import EXAMPLE_NAMES, build_example
from detfold.fourfold import (
    couples_and_intersections,
    oracle_matches_assembly,
    singular_locus_X,
)
from detfold.lattice import ns2_gram
from detfold.points import ProjPoint
from detfold.report import analyze
from detfold.spin import build_dual_graph, graph_stats, spin_subsets, theta_counts
from reference import evaluate, matrix_rank, plane_forms, plane_span, rep_sextic
from test_examples import _assert_golden


def _passline(n, label, t0):
    print(f"criterion {n} ({label}): PASS ({time.time() - t0:.2f}s)")


def test_criterion_1_ex42i_base_locus():
    t0 = time.time()
    ex = build_example("ex42i")
    locus = singular_locus_X(ex.rep)
    expected_b = {
        ProjPoint(0, t, "p5").coords
        for t in ((0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 1))
    }
    assert {p.coords for p in locus.base_points} == expected_b
    assert locus.base_complete
    assert ex.rep.classification.s_c_certified
    assert len(locus.points) == len(ex.rep.classification.s_c) + 3
    _passline(1, "ex42i base locus and count identity", t0)


def test_criterion_2_ex42ii_cone_vertices():
    t0 = time.time()
    ex = build_example("ex42ii")
    locus = singular_locus_X(ex.rep)
    assert locus.base_points == []
    cl = ex.rep.classification
    assert len(cl.s_theta_tilde) == 12 and len(cl.sing_c) == 15
    expected = {
        ProjPoint(0, t, "p5").coords
        for t in ((1, -2, 1, 0, 0, 0), (1, 1, -2, 0, 0, 0), (-5, 1, 1, 0, 0, 0))
    }
    assert {p.coords for p in locus.points} == expected
    assert len(locus.points) == len(cl.s_c) == 3
    _passline(2, "ex42ii singular locus", t0)


def test_criterion_3_prop44_smooth():
    t0 = time.time()
    ex = build_example("prop44")
    locus = singular_locus_X(ex.rep)
    assert locus.smooth and locus.points == []
    for q in (13, 7):
        ok, oracle, assembled = oracle_matches_assembly(ex.rep, q)
        assert ok and oracle == [] and assembled == []
        cl = reduce_rep(ex.rep, q).classification
        assert len(cl.s_theta) == 12
    rpt = ns2_gram(12)
    assert rpt.class_count == 25
    assert len(rpt.gram) == 14 and rpt.det != 0
    assert rpt.rank == rpt.rank_lower_bound == 14
    # a member whose entries and components carry denominators (den = 100):
    # over Q its 9 singular points off the rational ones are certified to
    # lie on D by divisibility, so it is smooth; the report is pinned
    member = build_example("prop44", {"A": "1,-1/2,0,0,1,1/5,0,0,3"}).rep
    assert member.den == 100
    report = analyze(member)
    data = report.to_json_dict()
    assert data["smooth"] and data["s_c_certified"] and (data["sing_c_count"], data["sing_c_unresolved"]) == (3, 9)
    assert "unlisted singular points certified to lie on D by divisibility" in data["notes"]
    _assert_golden(report, "prop44_fractional.rational")
    _passline(3, "prop44 smoothness, oracle, and lattice data", t0)


def test_criterion_4_oracle_equivalence():
    t0 = time.time()
    runs = 0
    for name in EXAMPLE_NAMES:
        ex = build_example(name)
        for q in ex.compatible_primes:
            ok, _oracle, _asm = oracle_matches_assembly(ex.rep, q)
            assert ok, f"{name} mod {q}"
            runs += 1
    assert runs >= 15
    _passline(4, f"oracle equivalence on {runs} runs", t0)


def _random_prop44_members(count, rng):
    out = []
    while len(out) < count:
        spec = ",".join(str(rng.randrange(-3, 4)) for _ in range(9))
        try:
            out.append(build_example("prop44", {"A": spec}))
        except Rejection:
            continue
    return out


def _random_ex42_style(count, rng):
    out = []
    while len(out) < count:
        lines = []
        for _ in range(3):
            coeffs = [rng.randrange(-2, 3) for _ in range(3)]
            if not any(coeffs):
                continue
            lines.append(coeffs)
        if len(lines) < 3:
            continue
        params = {
            key: " + ".join(f"({c})*{v}" for c, v in zip(cs, VARS_X) if c) or "x1"
            for key, cs in zip(("l4", "l5", "l6"), lines)
        }
        try:
            out.append(build_example("ex42ii", params))
        except (Rejection, ToolError):
            continue
    return out


def test_criterion_5_bound_suite():
    t0 = time.time()
    rng = random.Random(2024)
    members = _random_prop44_members(50, rng) + _random_ex42_style(20, rng)
    assert len(members) == 70
    analyzed = 0
    oracle_checked = 0
    for idx, ex in enumerate(members):
        locus = None
        used_q = None
        for q in (7, 11, 13, 17, 19, 23):
            try:
                rep = reduce_rep(ex.rep, q)
                locus = singular_locus_X(rep)
                used_q = q
                break
            except Rejection:
                continue
        assert locus is not None, f"no compatible prime for {ex.params}"
        cl = rep.classification
        n_sc = len(cl.s_c)
        n_sing = len(locus.points)
        assert n_sc <= n_sing <= n_sc + 3
        assert len(locus.base_points) <= 3
        assert locus.all_double
        analyzed += 1
        if idx % 10 == 0:
            ok, _, _ = oracle_matches_assembly(ex.rep, used_q)
            assert ok
            oracle_checked += 1
    assert analyzed == 70 and oracle_checked == 7
    _passline(5, "bound suite on 50 + 20 random members", t0)


def test_criterion_6_couples_suite():
    t0 = time.time()
    ex = build_example("prop44")
    gf = 13
    rpt = couples_and_intersections(reduce_rep(ex.rep, gf))
    assert len(rpt.pairs) == 12
    assert all(not pr.degenerate for pr in rpt.pairs)
    spans = [[plane_span(pr.point, form, gf) for form in plane_forms(pr)] for pr in rpt.pairs]
    for a, b in spans:
        assert matrix_rank(a + b, gf) == 4  # a projective line
    assert rpt.cross_ok
    # all couples split over F_13: each of the 66 * 4 cross plane pairs meets in one point
    assert all(pr.root is not None for pr in rpt.pairs)
    for sa, sb in combinations(spans, 2):
        for a in sa:
            for b in sb:
                assert matrix_rank(a + b, gf) == 5
    _passline(6, "prop44 couples and intersections", t0)


def test_criterion_7_spin_suite():
    t0 = time.time()
    assert theta_counts(10) == (1048576, 524800, 523776)
    admitted = {
        "a": [(1, 0)] * 6,
        "b": [(2, 0)] * 3,
        "c": [(2, 0), (2, 0), (1, 0), (1, 0)],
        "d": [(2, 0)] + [(1, 0)] * 4,
        "e": [(1, 0)] * 3 + [(3, 1)],
        "f5": [(1, 0), (5, 5)],
        "f6": [(1, 0), (5, 6)],
        "g": [(3, 0), (3, 1)],
        "h1": [(4, 1), (1, 0), (1, 0)],
        "h2": [(4, 2), (1, 0), (1, 0)],
    }
    for name, cfg in admitted.items():
        assert spin_subsets(build_dual_graph(cfg), 10), name
    excluded = {
        "a1": [(6, 9)],
        "b1": [(3, 0), (3, 0)],
        "c1": [(1, 0), (5, 4)],
        "d1": [(4, 0), (2, 0)],
    }
    for name, cfg in excluded.items():
        assert spin_subsets(build_dual_graph(cfg), 10) == [], name
    is_even, b1 = graph_stats(build_dual_graph([(2, 0)] * 3))
    assert is_even and b1 == 10
    _passline(7, "spin suite", t0)


def test_criterion_8_lattice_suite():
    t0 = time.time()
    for m in range(1, 13):
        assert ns2_gram(m).det != 0
    assert ns2_gram(1).det == 16
    _passline(8, "lattice determinants", t0)


def test_criterion_9_rank_stratification():
    t0 = time.time()
    from detfold.curves import singular_points
    from detfold.detrep import gram_rank_kernel

    checked = 0
    for name in EXAMPLE_NAMES:
        ex = build_example(name)
        for q in ex.compatible_primes:
            rep = reduce_rep(ex.rep, q)
            sing = {p.coords for p in singular_points(rep.sextic_terms, q).points}
            reps = [(1, b, c) for b in range(q) for c in range(q)]
            reps += [(0, 1, c) for c in range(q)]
            reps.append((0, 0, 1))
            for coords in reps:
                pt = ProjPoint(q, coords, "x")
                _, rank, _ = gram_rank_kernel(rep, pt)
                assert rank >= 2
                if evaluate(rep_sextic(rep), pt.coords):
                    assert rank == 4
                elif pt.coords in sing:
                    assert rank in (2, 3)
                else:
                    assert rank == 3
            checked += 1
    assert checked >= 15
    _passline(9, f"rank stratification over {checked} (rep, prime) pairs", t0)


def test_criterion_10_rejections(tmp_path):
    t0 = time.time()

    def run(*args):
        buf = io.StringIO()
        rc = cli_main(list(args), out=buf)
        return rc, buf.getvalue()

    cusp = tmp_path / "cusp.rep"
    cusp.write_text(
        "field rational\nvars x1 x2 x3\n"
        "row 0: 0, x1, x2, 0\n"
        "row 1: x1, -x3, 0, 0\n"
        "row 2: x2, 0, -x1, 0\n"
        "row 3: 0, 0, 0, x1^3 + 2*x2^3 + 5*x3^3\n"
    )
    rc, out = run("analyze", str(cusp))
    assert rc == 1 and "node" in out and "sing_x" not in out

    nonreduced = tmp_path / "nonreduced.rep"
    nonreduced.write_text(
        "field rational\nvars x1 x2 x3\n"
        "row 0: x1, 0, 0, 0\n"
        "row 1: 0, x1, 0, 0\n"
        "row 2: 0, 0, x2, 0\n"
        "row 3: 0, 0, 0, x1*x2*x3\n"
    )
    rc, out = run("analyze", str(nonreduced))
    assert rc == 1 and "reduced" in out and "sing_x" not in out

    asym = tmp_path / "asym.rep"
    asym.write_text(
        "field rational\nvars x1 x2 x3\n"
        "row 0: 0, x1, 0, 0\n"
        "row 1: x2, 0, 0, 0\n"
        "row 2: 0, 0, x3, 0\n"
        "row 3: 0, 0, 0, x1^3\n"
    )
    rc, out = run("analyze", str(asym))
    assert rc == 1 and "symmetric" in out and "sing_x" not in out

    malformed = tmp_path / "bad.rep"
    malformed.write_text("field rational\nvars x1 x2 x3\nrow 0: x1 + , 0, 0, 0\n")
    rc, out = run("analyze", str(malformed))
    assert rc == 3
    _passline(10, "rejection diagnostics", t0)
