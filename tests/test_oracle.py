"""The finite-field oracle against a plain exhaustive scan of P^5(F_q).

`reference_scan` tests every canonical representative of P^5(F_q) against F
and its six partials, stratum by stratum in the x-part, without solving
anything.  `brute_force_oracle` solves the u-partials instead: where their
determinant is nonzero from the forms Delta, N and Phi that it builds once per
call, where it is zero stratum by stratum, cutting each coset of solutions
by the gcd of the x-partials along a line; the two must return the same
points.  On random reps the oracle must also agree with the singular locus
assembled from the structure theory.
"""

import io
import sys
from itertools import product
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

import detfold.fourfold as fourfold
from detfold.algebra import VARS_X, VARS_XU, is_prime
from detfold.cli import main
from detfold.detrep import SymDetRep, reduce_rep, validate_rep
from detfold.errors import ConsistencyError, InputError, Rejection
from detfold.examples import EXAMPLE_NAMES, build_example
from detfold.fourfold import brute_force_oracle, oracle_matches_assembly
from detfold.points import ProjPoint, sorted_points
from reference import Poly, coerce, diff, evaluate, gcd_poly, p2_reps, parse, rep_fourfold

GOLDEN = Path(__file__).parent / "golden"
RATIONAL_EXAMPLES = ["ex42i", "ex42ii", "ex43_quartic_two_lines", "ex43_quintic_line", "rmk31", "prop44"]


def reference_scan(rep, q):
    """Every point of P^5(F_q) where F and its six partials vanish, found by
    evaluating them at all (q^6-1)/(q-1) canonical representatives."""
    F = rep_fourfold(reduce_rep(rep, q))
    # fewest terms first: the cheapest filters shrink the candidates soonest
    polys = sorted([F] + [diff(F, v) for v in VARS_XU], key=lambda p: len(p.terms))
    cube = list(product(range(q), repeat=3))
    found = []
    for x in [(0, 0, 0)] + list(p2_reps(q)):
        us = list(p2_reps(q)) if x == (0, 0, 0) else cube
        for p in polys:
            at_x: dict = {}  # u-exponent -> coefficient once x is substituted
            for e, c in p.terms.items():
                key = e[3:]
                at_x[key] = at_x.get(key, 0) + c * x[0] ** e[0] * x[1] ** e[1] * x[2] ** e[2]
            vals = [0] * len(us)
            for (a, b, d), c in at_x.items():
                if c % q:
                    vals = [v + c * u1**a * u2**b * u3**d for v, (u1, u2, u3) in zip(vals, us)]
            us = [u for u, v in zip(us, vals) if v % q == 0]
        found += [x + u for u in us]
    return sorted_points(ProjPoint(q, [coerce(q, c) for c in pt], "p5") for pt in found)


def test_named_examples_match_reference():
    for name in EXAMPLE_NAMES:
        ex = build_example(name)
        for q in ex.compatible_primes:
            assert brute_force_oracle(ex.rep, q) == reference_scan(ex.rep, q), f"{name} mod {q}"


def test_low_rank_strata_match_reference(monkeypatch):
    # conic block diag(x1, x2, x3): rank 1 over the coordinate points, rank 2
    # on the coordinate lines, so the u-systems have q and q^2 solutions
    gf = 7
    entries = [
        ["x1", "0", "0", "0"],
        ["0", "x2", "0", "x2*x3"],
        ["0", "0", "x3", "x1^2"],
        ["0", "x2*x3", "x1^2", "x1*x2*x3"],
    ]
    rep = validate_rep([[parse(s, gf) for s in row] for row in entries], gf)
    # per x-stratum: None for an inconsistent system, else its kernel
    # dimension.  Full-rank strata, Delta(x) != 0, never reach
    # _solve_singular_mod, nor do the strata with Delta(x) = 0 and
    # Phi(x) != 0, which hold no solution, so the Delta and Phi forms the
    # oracle builds are recorded too
    sizes, pencils = [], []
    cramer, solve = fourfold._cramer_forms, fourfold._solve_singular_mod

    def recording_cramer(rows, f, q):
        out = cramer(rows, f, q)
        pencils.append([Poly(gf, VARS_X, t) for t in out[:2]])
        return out

    def recording_solve(rows, q):
        out = solve(rows, q)
        sizes.append(None if out is None else len(out[1]))
        return out

    monkeypatch.setattr(fourfold, "_cramer_forms", recording_cramer)
    monkeypatch.setattr(fourfold, "_solve_singular_mod", recording_solve)
    got = brute_force_oracle(rep, 7)
    ((delta, phi),) = pencils  # built once per call
    sizes += [0 for x in p2_reps(7) if evaluate(delta, x)]
    unsolvable = [x for x in p2_reps(7) if not evaluate(delta, x) and evaluate(phi, x)]
    assert len(sizes) + len(unsolvable) == 7 * 7 + 7 + 1  # each stratum x != 0 exactly once
    assert {None, 0, 1, 2} <= set(sizes)
    assert got == reference_scan(rep, 7)
    assert got  # the scan finds singular points, not just agreement on none


# reps with singular strata of every kernel dimension: on diag(x1, x1, x1)
# every stratum with x1 = 0 has rank 0, kernel dimension 3; the rank-1 block
# [[x1, 0, x2], [0, x3, 0], [x2, 0, 0]] has rank 2 on the lines x2 = 0 and
# x3 = 0 of strata, kernel dimension 1, and rank 1 at (1:0:0) and (0:0:1),
# kernel dimension 2
LOW_RANK_REPS = {
    "rank-0": [["x1", "0", "0", "0"], ["0", "x1", "0", "0"], ["0", "0", "x1", "0"], ["0", "0", "0", "x2^3 + x3^3"]],
    "rank-1-block": [["x1", "0", "x2", "-x1*x3"], ["0", "x3", "0", "0"], ["x2", "0", "0", "0"], ["-x1*x3", "0", "0", "x1^3"]],
}


@pytest.mark.parametrize("q", [3, 5, 7])
def test_coset_gcd_matches_reference(q, monkeypatch):
    # each line u0 + s v of a surviving coset keeps the common roots in s of
    # the three x-partials, quadratics given by their values at s = 0, 1, -1
    # (at q = 3 the whole field).  Their gcd is constant (the line is
    # skipped), linear, or zero (every s is a candidate), and each outcome
    # occurs here, as does each kernel dimension
    kernels, degrees = set(), set()
    solve, roots = fourfold._solve_singular_mod, fourfold._coset_roots
    half = pow(2, -1, q)

    def recording_solve(rows, q):
        out = solve(rows, q)
        if out is not None:
            kernels.add(len(out[1]))
        return out

    def recording_roots(quadratics, q):
        values = [list(v) for v in quadratics]
        coeffs = [[g0, (g1 - gm) * half % q, ((g1 + gm) * half - g0) % q] for g0, g1, gm in values]
        g = []
        for c in coeffs:
            g = gcd_poly(g, c, q)
        degrees.add(len(g) - 1)  # -1 for the zero gcd
        out = roots(values, q)
        assert out == [s for s in range(q) if not any(sum(k * s**i for i, k in enumerate(c)) % q for c in coeffs)]
        return out

    monkeypatch.setattr(fourfold, "_solve_singular_mod", recording_solve)
    monkeypatch.setattr(fourfold, "_coset_roots", recording_roots)
    for rows in LOW_RANK_REPS.values():
        rep = validate_rep([[parse(s) for s in row] for row in rows], 0)
        assert brute_force_oracle(rep, q) == reference_scan(rep, q)
    assert {1, 2, 3} <= kernels
    assert {-1, 0, 1} <= degrees


def test_solver_solutions():
    q = 7
    # u1 + 2 u2 + 3 = 0 twice, u3 free: a plane of solutions
    u0, kernel = fourfold._solve_singular_mod([[1, 2, 0, 3], [2, 4, 0, 6], [0, 0, 0, 0]], q)
    assert len(kernel) == 2
    for t1, t2 in product(range(q), repeat=2):
        u = [(a + t1 * b + t2 * c) % q for a, b, c in zip(u0, *kernel)]
        assert (u[0] + 2 * u[1] + 3) % q == 0
    # the same A with b off its image, and A = 0 with b = 0 and b != 0
    assert fourfold._solve_singular_mod([[1, 2, 0, 1], [2, 4, 0, 1], [0, 0, 0, 0]], q) is None
    u0, kernel = fourfold._solve_singular_mod([[0, 0, 0, 0]] * 3, q)
    assert u0 == [0, 0, 0] and kernel == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert fourfold._solve_singular_mod([[0, 0, 0, 0]] * 2 + [[0, 0, 0, 1]], q) is None
    # 2 u3 + 4 = 0, the first two diagonal entries zero: u3 = -2, u1 and u2 free
    u0, kernel = fourfold._solve_singular_mod([[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 2, 4]], q)
    assert u0 == [0, 0, 5] and kernel == [[1, 0, 0], [0, 1, 0]]


def assert_solves(solved, rows, q):
    # u0 + span(kernel) is the solution set of [A | b], met once per point,
    # and None stands exactly for an empty one
    solutions = {
        u
        for u in product(range(q), repeat=3)
        if all((sum(a * x for a, x in zip(row, u)) + row[3]) % q == 0 for row in rows)
    }
    if solved is None:
        assert not solutions
        return
    u0, kernel = solved
    spanned = [
        tuple((u0[i] + sum(t * v[i] for t, v in zip(ts, kernel))) % q for i in range(3))
        for ts in product(range(q), repeat=len(kernel))
    ]
    assert len(set(spanned)) == len(spanned) and set(spanned) == solutions


@pytest.mark.parametrize("rank2", [True, False])
@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(q=st.sampled_from([3, 5, 7]), data=st.data())
def test_singular_solver_matches_enumeration(rank2, q, data):
    # A symmetric and singular, a sum of terms c w w^T: two of them and rank
    # 2 (the Cramer solve of a nonzero principal minor), or at most one and
    # rank 0 or 1 (a nonzero diagonal entry, or A = 0).  b = A y is
    # consistent until one entry is redrawn
    residues = st.integers(0, q - 1)
    A = [[0] * 3 for _ in range(3)]
    for _ in range(2 if rank2 else data.draw(st.integers(0, 1))):
        c, w = data.draw(residues), data.draw(st.lists(residues, min_size=3, max_size=3))
        A = [[(A[i][j] + c * w[i] * w[j]) % q for j in range(3)] for i in range(3)]
    y = data.draw(st.lists(residues, min_size=3, max_size=3))
    rows = [row + [sum(a * x for a, x in zip(row, y)) % q] for row in A]
    if data.draw(st.booleans()):
        rows[data.draw(st.integers(0, 2))][3] = data.draw(residues)
    # the kernel of A has q^(3 - rank) points
    kernel_points = sum(1 for u in product(range(q), repeat=3) if not any(sum(a * x for a, x in zip(r, u)) % q for r in A))
    if rank2:
        assume(kernel_points == q)
    solved = fourfold._solve_singular_mod(rows, q)
    assert_solves(solved, rows, q)
    if solved is not None:
        assert q ** len(solved[1]) == kernel_points


# the conic block G of a rep is read on P as the three conics u^T G(e_k) u
P_CONICS = {
    # u1^2, 2 u1 u2, 2 u1 u3: every point of the line u1 = 0 of P
    "shared-line": [["x1", "x2", "x3", "x1^2"], ["x2", "0", "0", "x2^2"], ["x3", "0", "0", "x3^2"]],
    # u1^2 - u2^2, u3^2 - (u1 - u2)^2, 2 u1 u3 + 2 u2 u3: the three points
    # (1:1:0) and (1:-1:+-2)
    "isolated": [["x1 - x2", "x2", "x3", "x2*x3"], ["x2", "-x1 - x2", "x3", "x1^2"], ["x3", "x3", "x2", "x1*x2"]],
}


@pytest.mark.parametrize("q", [5, 7])
@pytest.mark.parametrize("kind", sorted(P_CONICS))
def test_plane_scan_matches_reference(kind, q):
    # the gcd of the conics on a line of P is zero on the shared line and
    # nonconstant on the line (1 : 1 : t) through an isolated base point
    rows = P_CONICS[kind] + [[row[3] for row in P_CONICS[kind]] + ["x1^3 + x2^3 + x3^3"]]
    rep = validate_rep([[parse(s) for s in row] for row in rows], 0)
    got = brute_force_oracle(rep, q)
    assert got == reference_scan(rep, q)
    on_p = {p.coords[3:] for p in got if not any(p.coords[:3])}
    if kind == "shared-line":
        assert len(on_p) == q + 1
    else:
        assert on_p == {tuple(coerce(q, c) for c in u) for u in [(1, 1, 0), (1, -1, 2), (1, -1, -2)]}


def test_nonlinear_u_partial_rejected(monkeypatch):
    # the oracle reads F as given: a u-partial of u-degree 2 is refused
    rep = build_example("ex42i").rep
    terms_of = SymDetRep.fourfold_terms.func

    def with_u1_cubed(rep):
        return {**terms_of(rep), (0, 0, 0, 3, 0, 0): 1}

    monkeypatch.setattr(SymDetRep, "fourfold_terms", property(with_u1_cubed))
    with pytest.raises(ConsistencyError, match="affine-linear"):
        brute_force_oracle(rep, 7)
    # mod 3 the u-partials of u1^3 vanish and stay affine-linear, but F would
    # no longer be constant on the solved strata: the term itself is refused
    with pytest.raises(ConsistencyError, match="u-degree above 2"):
        brute_force_oracle(rep, 3)


def _forms(draw, field, degree):
    mons = [e for e in product(range(degree + 1), repeat=3) if sum(e) == degree]
    coeffs = draw(st.lists(st.integers(0, field - 1), min_size=len(mons), max_size=len(mons)))
    return Poly(field, VARS_X, {e: coerce(field, c) for e, c in zip(mons, coeffs)})


@st.composite
def random_reps(draw, field):
    """A symmetric 4x4 matrix over field with the (1,1,1;2;3) degree profile;
    matrices validate_rep rejects are dropped."""
    m = [[None] * 4 for _ in range(4)]
    for i in range(4):
        for j in range(i, 4):
            degree = 3 if i == j == 3 else 2 if j == 3 else 1
            m[i][j] = m[j][i] = _forms(draw, field, degree)
    try:
        return validate_rep(m, field)
    except Rejection:
        assume(False)


@pytest.mark.parametrize("q", [3, 5, 7])
@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(data=st.data())
def test_random_reps_match_reference(q, data):
    rep = data.draw(random_reps(q))
    assert brute_force_oracle(rep, q) == reference_scan(rep, q)


@pytest.mark.parametrize("q", [3, 5, 7])
@settings(derandomize=True, database=None, max_examples=15, deadline=None)
@given(data=st.data())
def test_pencil_matches_each_stratum(q, data):
    # the forms the oracle builds once per call: at every stratum x, Delta(x)
    # is det A of the stratum's rows [A | b], read off F by evaluation alone,
    # and where it is nonzero Phi(x) = 2 Delta(x) F(x, u0) and N(x) = Delta(x)
    # u0, u0 the solution
    rep = data.draw(random_reps(q))
    F = rep_fourfold(rep)
    grads = [diff(F, v) for v in VARS_XU[3:]]
    units = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    built, cramer = [], fourfold._cramer_forms
    with mock.patch.object(fourfold, "_cramer_forms", lambda *args: built.append(cramer(*args)) or built[-1]):
        brute_force_oracle(rep, q)
    ((delta, phi, num),) = built
    delta, phi, *num = (Poly(rep.q, VARS_X, t) for t in [delta, phi] + num)
    for x in p2_reps(q):
        at0 = [evaluate(g, x + (0, 0, 0)) for g in grads]
        A = [[evaluate(g, x + e) - c for e in units] for g, c in zip(grads, at0)]
        det = sum(A[0][i] * A[1][(i + 1) % 3] * A[2][(i + 2) % 3] for i in range(3))
        det -= sum(A[0][i] * A[1][(i + 2) % 3] * A[2][(i + 1) % 3] for i in range(3))
        assert evaluate(delta, x) == det % q
        if det % q:
            u0 = next(
                u for u in product(range(q), repeat=3)
                if not any((sum(a * ui for a, ui in zip(row, u)) + c) % q for row, c in zip(A, at0))
            )
            assert evaluate(phi, x) == 2 * det * evaluate(F, x + tuple(u0)) % q
            assert [evaluate(n, x) for n in num] == [det * u % q for u in u0]


@pytest.mark.parametrize("q", [5, 7, 11, 13, 17, 19, 23, 29, 31])
@settings(derandomize=True, database=None, max_examples=20, deadline=None)
@given(data=st.data())
def test_random_reps_oracle_matches_assembly(q, data):
    # the paper's description of Sing(X) (a cone vertex over each point of
    # s_c, plus the base points of the net) against the exhaustive oracle.
    # analyze rejects a rep exactly when the assembly does: the stages after
    # it (couples, lattice) raise no Rejection
    rep = data.draw(random_reps(q))
    try:
        ok, oracle, assembled = oracle_matches_assembly(rep, q)
    except Rejection:
        assume(False)
    assert ok, (oracle, assembled)


def test_oracle_calls_nothing_from_curves():
    # the oracle stays a code path apart from the scans of the assembly it checks
    import detfold.curves as curves

    called = []

    def watch(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == curves.__file__:
            called.append(frame.f_code.co_name)

    rep = build_example("ex42ii").rep
    sys.setprofile(watch)
    try:
        brute_force_oracle(rep, 13)
    finally:
        sys.setprofile(None)
    assert called == []


def test_assembly_rejection_raised_before_the_oracle(monkeypatch):
    # ex42ii mod 5 has a singular point that is not a node; the assembly
    # rejects it, so the oracle's scan must not be paid for
    def oracle_not_expected(rep, q):
        raise AssertionError("oracle ran before the assembly rejected")

    monkeypatch.setattr(fourfold, "brute_force_oracle", oracle_not_expected)
    with pytest.raises(Rejection, match="not a node"):
        oracle_matches_assembly(build_example("ex42ii").rep, 5)


@pytest.mark.parametrize("name", RATIONAL_EXAMPLES)
def test_oracle_cli_matches_golden(name, tmp_path):
    # `oracle FILE --prime 29` on the emitted file, byte for byte
    rep = tmp_path / f"{name}.rep"
    assert main(["example", name, "--emit", str(rep)], out=io.StringIO()) == 0
    out = io.StringIO()
    assert main(["oracle", str(rep), "--prime", "29"], out=out) == 0
    assert out.getvalue() == (GOLDEN / f"{name}.oracle29.flat").read_text()


def test_oracle_cli_matches_golden_with_quadric_column():
    # the named examples' columns of quadrics are zero at q = 29, so b = 0 on
    # every stratum; this rep's is not, and its point (1:0:0:0:-1:0) has u != 0
    out = io.StringIO()
    assert main(["oracle", str(GOLDEN / "quadric_column.rep"), "--prime", "29"], out=out) == 0
    assert out.getvalue() == (GOLDEN / "quadric_column.oracle29.flat").read_text()


# the (example, prime) pairs up to 103 whose reduction the assembly rejects
REJECTED_UP_TO_103 = {
    ("ex42i", 3),
    ("ex42ii", 3), ("ex42ii", 5),
    ("ex43_quartic_two_lines", 3), ("ex43_quartic_two_lines", 23), ("ex43_quartic_two_lines", 59),
    ("ex43_quintic_line", 3), ("ex43_quintic_line", 5), ("ex43_quintic_line", 41), ("ex43_quintic_line", 71),
    ("rmk31", 3), ("rmk31", 101),
    ("prop44", 3),
}


def test_rational_examples_within_budget_up_to_103():
    # README, "Scan budgets": the oracle stays within ORACLE_BUDGET for every
    # rational named example at each prime up to 103, and agrees there with
    # the assembled Sing(X) unless the assembly rejects the reduction (the
    # oracle's scan still runs for those pairs); ex42ii and prop44 pass the
    # budget at 107, ex43_quartic_two_lines at 113
    rejected = set()
    for name in RATIONAL_EXAMPLES:
        rep = build_example(name).rep
        for q in filter(is_prime, range(3, 104)):
            try:
                same, oracle, assembled = oracle_matches_assembly(rep, q)
            except Rejection:
                rejected.add((name, q))
                brute_force_oracle(rep, q)
                continue
            assert same, (name, q, oracle, assembled)
    assert rejected == REJECTED_UP_TO_103
    for name, q in [("ex42ii", 107), ("prop44", 107), ("ex43_quartic_two_lines", 113)]:
        with pytest.raises(InputError, match="enumeration budget exceeded"):
            brute_force_oracle(build_example(name).rep, q)


def test_rmk31_refused_by_the_assembly_at_101(tmp_path):
    # within the oracle's budget, but (1:32:70) is not a node of the sextic mod 101
    rep = tmp_path / "rmk31.rep"
    assert main(["example", "rmk31", "--emit", str(rep)], out=io.StringIO()) == 0
    out = io.StringIO()
    assert main(["oracle", str(rep), "--prime", "101"], out=out) == 1
    assert "(1:32:70) is not a node" in out.getvalue()
