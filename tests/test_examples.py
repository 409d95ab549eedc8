import json
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from detfold.algebra import VARS_X, field_from_name
from detfold.algebra.fields import is_prime
from detfold.curves import singular_points
from detfold.errors import InputError, Rejection, ToolError
from detfold.examples import EXAMPLE_NAMES, build_example
from detfold.repfile import parse_rep_file, write_rep_file
from detfold.report import analyze
from reference import coeffs_in, degree_in, dense_rep, diff, evaluate, ints, involves, map_field, poly_resultant, rep_d_cubic, rep_entry

GOLDEN = Path(__file__).parent / "golden"


def _smoothness_certificate(fa):
    """Integer whose prime non-divisors q keep the cubic smooth mod q.

    Combines the binary resultant of the two x1-eliminants of the partials,
    leading coefficients guarding degree drops, and a witness value at the
    point the eliminants cannot see.  None when the construction degenerates.
    """
    g = [diff(fa, v) for v in VARS_X]
    if any(p.is_zero or not involves(p, "x1") for p in g):
        return None
    cert = 1
    for p in g:
        lead = coeffs_in(p, "x1")[degree_in(p, "x1")]
        if len(lead.terms) != 1 or (0, 0, 0) not in lead.terms:
            return None
        cert *= int(lead.terms[(0, 0, 0)])
    try:
        r1 = poly_resultant(g[0], g[1], "x1")
        r2 = poly_resultant(g[0], g[2], "x1")
    except ToolError:
        return None
    for r in (r1, r2):
        if r.is_zero or not involves(r, "x2"):
            return None
        lead = coeffs_in(r, "x2")[degree_in(r, "x2")]
        if len(lead.terms) != 1:
            return None
        cert *= int(Fraction(next(iter(lead.terms.values()))))
    final = poly_resultant(r1, r2, "x2")
    if final.is_zero or len(final.terms) != 1:
        return None
    cert *= int(Fraction(next(iter(final.terms.values()))))
    corner = next((int(Fraction(evaluate(p, (1, 0, 0)))) for p in g if evaluate(p, (1, 0, 0))), None)
    if corner is None:
        return None
    cert *= corner
    return cert if cert else None


def _assert_golden(report, stem):
    """Byte comparison with tests/golden/<stem>.{flat,json}, the flat and
    --json forms the CLI prints, plus key parity between the two forms."""
    flat = report.flat_lines()
    data = report.to_json_dict()
    assert "\n".join(flat) + "\n" == (GOLDEN / f"{stem}.flat").read_text(), stem
    text = json.dumps(data, indent=2, sort_keys=True) + "\n"
    assert text == (GOLDEN / f"{stem}.json").read_text(), stem
    flat_keys = [line.split(" = ", 1)[0] for line in flat]
    assert [k for k in flat_keys if k != "note"] == [k for k in data if k != "notes"]
    assert flat_keys.count("note") == len(data["notes"])


@pytest.mark.parametrize("name", EXAMPLE_NAMES)
def test_expected_highlights_reproduce(name):
    ex = build_example(name)
    file_rep = parse_rep_file(write_rep_file(ex.rep))
    for field_name, table in ex.expected.items():
        field = field_from_name(field_name)
        report = analyze(ex.rep, field)
        actual = report.to_json_dict()
        for key, (want, _source) in table.items():
            assert actual[key] == want, f"{name} over {field_name}: {key}"
        stem = f"{name}.{field_name.replace(':', '')}"
        _assert_golden(report, stem)
        if field:  # the scan needs no factorization, so the emitted file reads the same
            _assert_golden(analyze(file_rep, field), stem)
    # the emitted file over its own field, without a factorization: the CLI path
    _assert_golden(analyze(file_rep), f"{name}.file")


def test_emitted_file_at_a_prime_with_64_bit_lanes():
    # at q = 997 the scan packs a sextic's values on a line in 64-bit lanes
    # (32 bits serve up to q = 443); the report is pinned byte for byte
    rep = parse_rep_file(write_rep_file(build_example("ex42ii").rep))
    _assert_golden(analyze(rep, 997), "ex42ii.fp997")


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_dense_rational_rep_within_five_seconds(seed):
    # every coefficient uniform in [-1000, 1000]: each resultant and gcd of
    # the rational elimination meets coefficients of many digits; seed 0 is
    # the committed file and its goldens
    text = write_rep_file(dense_rep(seed, 1000))
    start = time.perf_counter()
    report = analyze(parse_rep_file(text))
    assert time.perf_counter() - start < 5.0
    if seed == 0:
        assert text == (GOLDEN / "dense_h1000.rep").read_text()
        _assert_golden(report, "dense_h1000.rational")


def test_big_coefficient_rep_matches_goldens():
    # diag(c x1, c x2, c x3, c x1^3 + x2^3 + x3^3) with c = 10^300: the
    # resultants pack t at 2^k with k near 30,000 bits
    c = 10**300
    text = (GOLDEN / "diag_c300.rep").read_text()
    assert f"row 3: 0, 0, 0, {c}*x1^3 + x2^3 + x3^3" in text
    start = time.perf_counter()
    report = analyze(parse_rep_file(text))
    assert time.perf_counter() - start < 30.0
    _assert_golden(report, "diag_c300.rational")


def test_wide_denominators_rep_matches_goldens():
    # ex42ii with l4 = 2 x1 + 3 x2 + 5 x3, l5 = 3 x1 - 7 x2 + 2 x3 and
    # l6 = 5 x1 + x2 - 4 x3: its three nodes off D lie in the chart x3 = 1
    # over the roots x1 = 17/13, 13/19 and -41/23, so their fibres are
    # scaled by powers of d = 13, 19 and 23
    text = (GOLDEN / "ex42ii_wide.rep").read_text()
    assert "row 3: 0, 0, 0, 30*x1^3 - 19*x1^2*x2 - 110*x1*x2^2" in text
    start = time.perf_counter()
    report = analyze(parse_rep_file(text))
    assert time.perf_counter() - start < 30.0
    flat = (GOLDEN / "ex42ii_wide.rational.flat").read_text()
    assert "(1:11/13:19/13)" in flat and "(1:11/41:-23/41)" in flat and "s_c_count = 3\n" in flat
    _assert_golden(report, "ex42ii_wide.rational")


def test_wide_denominators_rep_matches_fp29_goldens():
    # the same rep over F_29, where the nodes' denominators become residues:
    # 15 nodes, 12 couples, 3 of them off D
    start = time.perf_counter()
    report = analyze(parse_rep_file((GOLDEN / "ex42ii_wide.rep").read_text()), 29)
    assert time.perf_counter() - start < 30.0
    flat = (GOLDEN / "ex42ii_wide.fp29.flat").read_text()
    assert "sing_c_count = 15\n" in flat and "couples = 12\n" in flat and "s_c_count = 3\n" in flat
    _assert_golden(report, "ex42ii_wide.fp29")


@pytest.mark.parametrize("name", EXAMPLE_NAMES)
def test_default_params_echo_the_defaults(name):
    # rebuilding from the echoed parameters keeps the pinned highlights
    ex = build_example(name)
    assert ex.expected
    assert build_example(name, ex.params).expected == ex.expected


def test_unknown_example_rejected():
    with pytest.raises(InputError):
        build_example("nope")


class TestProp44Membership:
    def test_identity_accepted(self):
        ex = build_example("prop44")
        assert ex.params["A"] == "1,0,0,0,1,0,0,0,1"
        assert ex.extra["ns2_couples"] == 12 and ex.extra["ns2_classes"] == 25

    def test_zero_matrix_rejected(self):
        with pytest.raises(Rejection, match="vanishes"):
            build_example("prop44", {"A": "0,0,0,0,0,0,0,0,0"})

    def test_singular_cubic_rejected(self):
        # one zero row: the cubic misses one squared form and degenerates
        with pytest.raises(Rejection):
            build_example("prop44", {"A": "0,0,0,0,1,0,0,0,1"})

    def test_membership_stable_mod_prime(self):
        # accepted members stay visibly smooth mod q whenever q does not
        # divide the discriminant certificate extracted from the eliminants
        rng = random.Random(42)
        checked = 0
        tried = 0
        valid_prime_checks = 0
        while checked < 50 and tried < 400:
            tried += 1
            entries = [rng.randrange(-3, 4) for _ in range(9)]
            spec = ",".join(str(c) for c in entries)
            try:
                ex = build_example("prop44", {"A": spec})
            except Rejection:
                continue
            checked += 1
            fa = (-1) * rep_entry(ex.rep, 3, 3)
            cert = _smoothness_certificate(fa)
            if cert is None:
                continue
            for q in (11, 13, 17, 19):
                if cert % q == 0:
                    continue
                scan = singular_points(ints(map_field(fa, q)), q)
                assert scan.points == [], f"A={spec} mod {q}"
                valid_prime_checks += 1
        assert checked == 50
        assert valid_prime_checks > 100

    def test_section_plane_recorded(self):
        ex = build_example("prop44")
        forms = ex.extra["section_plane_forms"]
        assert len(forms) == 3
        assert forms[0] == (-1, 0, 0, 1, 0, 0)


class TestEx42iValidation:
    def test_default_accepted(self):
        ex = build_example("ex42i")
        assert len(ex.rep.components) == 4

    def test_cubic_through_node_rejected(self):
        # x1^3 + x2^3 vanishes at the coordinate point (0:0:1)
        with pytest.raises(Rejection, match="coordinate point"):
            build_example("ex42i", {"f": "x1^3 + x2^3"})

    def test_tangent_cubic_rejected(self):
        # restricted to x1=0 the cubic is (x2 - x3)^2 (x2 + x3): a double root
        # away from the coordinate points, i.e. a tangency
        with pytest.raises(Rejection, match="tangent"):
            build_example("ex42i", {"f": "x1^3 + x2^3 - x2^2*x3 - x2*x3^2 + x3^3"})

    def test_sing_x_count_is_s_c_plus_three(self):
        # holds for any accepted cubic, singular or not
        for f in ("x1^3 + x2^3 + x3^3", "x1^3 + 2*x2^3 + 3*x3^3 + x1*x2*x3"):
            ex = build_example("ex42i", {"f": f})
            rpt = analyze(ex.rep, 0).to_json_dict()
            if rpt["s_c_certified"]:
                assert rpt["sing_x_count"] == rpt["s_c_count"] + 3


# x1, x2 and x1 + x2 meet at (0:0:1); l6 = l4 + l5 passes through the meet of l4 and l5
@pytest.mark.parametrize("params", [{"l4": "x1 + x2"}, {"l6": "2*x1 + 3*x2 + 4*x3"}])
def test_ex42ii_concurrent_lines_rejected(params):
    with pytest.raises(Rejection, match="concurrent; not in general position"):
        build_example("ex42ii", params)


class TestEx43Fermat:
    def test_default_q17(self):
        ex = build_example("ex43_fermat")
        assert ex.params["q"] == "17"
        omega, i = ex.extra["omega"], ex.extra["i"]
        assert (omega * omega) % 17 == i
        assert (i * i) % 17 == 16  # i^2 = -1

    def test_wrong_residue_class_rejected(self):
        with pytest.raises(Rejection, match="mod 8"):
            build_example("ex43_fermat", {"q": "7"})

    def test_alternative_prime(self):
        ex = build_example("ex43_fermat", {"q": "41"})
        assert ex.compatible_primes == (41,)

    @pytest.mark.parametrize("q", [q for q in range(17, 2000, 8) if is_prime(q)])
    def test_omega_is_the_least_eighth_root(self, q):
        ex = build_example("ex43_fermat", {"q": str(q)})
        assert ex.extra["omega"] == next(c for c in range(2, q) if pow(c, 4, q) == q - 1)

    def test_prime_near_the_field_limit_builds_quickly(self):
        q = 2147483497  # a prime below 2^31 with q = 1 (mod 8)
        t0 = time.perf_counter()
        ex = build_example("ex43_fermat", {"q": str(q)})
        assert time.perf_counter() - t0 < 1.0
        assert pow(ex.extra["omega"], 4, q) == q - 1


class TestRmk31:
    def test_matrix_as_printed(self):
        ex = build_example("rmk31")
        # derived determinant recorded; differs from the named cubic by a sign
        d = rep_d_cubic(ex.rep)
        assert str(d) == "-x1^3 - x1^2*x3 + x2^2*x3"
