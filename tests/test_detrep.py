import random
from pathlib import Path

import pytest

import detfold.curves as curves
import detfold.detrep as detrep
from detfold.algebra import VARS_X, VARS_XU, parse_poly
from detfold.detrep import (
    embed_fiber_vector,
    gram_rank_kernel,
    reduce_rep,
    validate_rep,
    vanishes_on_plane,
)
from detfold.errors import Rejection
from detfold.examples import build_example
from detfold.fourfold import brute_force_oracle, couples_and_intersections, oracle_matches_assembly
from detfold.points import ProjPoint
from detfold.repfile import parse_rep_file, write_rep_file
from detfold.report import analyze
from reference import Poly, coerce, elt, evaluate, ints, kernel_rank_det, map_field, p2_reps, parse, plane_forms, plane_span, rep_d_cubic, rep_entry, rep_fourfold, rep_sextic


def _p(s, f=0):
    return parse(s, f)


def _z(f=0):
    return Poly.zero(f, VARS_X)


def _diag(*entries):
    z = _z()
    m = [[z] * 4 for _ in range(4)]
    for i, e in enumerate(entries):
        m[i] = list(m[i])
        m[i][i] = e
    return [list(r) for r in m]


class TestValidate:
    def test_diagonal_line_product_valid(self):
        rep = build_example("ex42ii").rep
        assert rep_entry(rep, 3, 3).degree() == 3

    def test_asymmetry_rejected(self):
        z = _z()
        m = [[z, _p("x1"), z, z], [_p("x2"), z, z, z], [z, z, _p("x3"), z], [z, z, z, _p("x1^3")]]
        with pytest.raises(Rejection, match="symmetric"):
            validate_rep(m, 0)

    def test_zero_determinant_rejected(self):
        with pytest.raises(Rejection, match="determinant"):
            validate_rep(_diag(_p("x1"), _p("x2"), _p("x3"), _z()), 0)

    def test_degree_profile_rejected(self):
        bad = _diag(_p("x1^2"), _p("x2"), _p("x3"), _p("x1^3"))
        with pytest.raises(Rejection, match="degree"):
            validate_rep(bad, 0)
        bad2 = _diag(_p("x1"), _p("x2"), _p("x3"), _p("x1"))
        with pytest.raises(Rejection, match="degree"):
            validate_rep(bad2, 0)

    @pytest.mark.parametrize(
        "components,message",
        [
            (["x1", "x2", "x3"], "component product does not equal the curve equation"),
            (["x1", "-2*x1", "x2", "x3", "x2^2 + x3^2"], "repeated component; curve is not reduced"),
        ],
        ids=["wrong-product", "repeated-line"],
    )
    def test_factorization_rejected(self, components, message):
        # the sextic is x1^2 x2 x3 (x2^2 + x3^2)
        m = _diag(_p("x1"), _p("x2"), _p("x3"), _p("x1*x2^2 + x1*x3^2"))
        with pytest.raises(Rejection, match=message):
            validate_rep(m, 0, [_p(c) for c in components])


class TestDerived:
    def test_ex42ii_equations(self):
        ex = build_example("ex42ii")
        l4, l5, l6 = (_p(t) for t in ("x1 + x2 + x3", "x1 + 2*x2 + 3*x3", "x1 + 3*x2 + 2*x3"))
        assert rep_sextic(ex.rep) == _p("x1") * _p("x2") * _p("x3") * l4 * l5 * l6
        assert rep_d_cubic(ex.rep) == _p("x1*x2*x3")
        from detfold.algebra import VARS_XU

        F = parse("x1*u1^2 + x2*u2^2 + x3*u3^2", 0, VARS_XU)
        corner = l4 * l5 * l6
        lifted = Poly(0, VARS_XU, {e + (0, 0, 0): c for e, c in corner.terms.items()})
        assert rep_fourfold(ex.rep) == F + lifted

    def test_ex42i_equations(self):
        ex = build_example("ex42i")
        f = _p("x1^3 + x2^3 + x3^3")
        assert rep_sextic(ex.rep) == (_p("x1*x2*x3") * f).scale(2)
        assert rep_d_cubic(ex.rep) == _p("2*x1*x2*x3")
        from detfold.algebra import VARS_XU

        expected = parse_poly(
            "2*x1*u1*u2 + 2*x2*u1*u3 + 2*x3*u2*u3 + x1^3 + x2^3 + x3^3", VARS_XU, 0
        )
        assert rep_fourfold(ex.rep) == expected

    def test_prop44_equations(self):
        ex = build_example("prop44")
        f = _p("x1^3 + x2^3 + x3^3")
        assert rep_sextic(ex.rep) == -(_p("x1*x2*x3") * f)
        assert rep_d_cubic(ex.rep) == _p("x1*x2*x3")
        from detfold.algebra import VARS_XU

        expected = parse_poly(
            "x1*u1^2 + x2*u2^2 + x3*u3^2 - x1^3 - x2^3 - x3^3", VARS_XU, 0
        )
        assert rep_fourfold(ex.rep) == expected

    def test_plane_and_corner_restrictions(self):
        for name in ("ex42i", "ex42ii", "prop44", "rmk31"):
            ex = build_example(name)
            for e in rep_fourfold(ex.rep).terms:
                assert e[0] + e[1] + e[2] > 0  # vanishes on the plane x=0
            corner = {e[:3]: c for e, c in rep_fourfold(ex.rep).terms.items() if sum(e[3:]) == 0}
            assert corner == rep_entry(ex.rep, 3, 3).terms


class TestDeterminantOnce:
    """Each rep and field expands its 4x4 determinant once, at validation,
    and keeps it; D is a 3x3 determinant, built only when read."""

    @pytest.fixture
    def sizes(self, monkeypatch):
        sizes = []
        det = detrep.det_terms

        def counting(rows, q):
            sizes.append(len(rows))
            return det(rows, q)

        monkeypatch.setattr(detrep, "det_terms", counting)
        return sizes

    def test_analyze_own_field(self, sizes):
        text = write_rep_file(build_example("ex42ii").rep)
        sizes.clear()
        analyze(parse_rep_file(text))
        assert sizes.count(4) == 1

    def test_analyze_reduced_field(self, sizes):
        rep = build_example("ex42ii").rep
        sizes.clear()
        analyze(rep, 13)
        assert sizes.count(4) == 1

    def test_oracle_builds_no_d(self, sizes):
        rep = build_example("ex42ii").rep
        sizes.clear()
        brute_force_oracle(rep, 13)
        assert sizes == [4]

    def test_oracle_and_assembly_share_one_reduction(self, sizes):
        rep = build_example("ex42ii").rep
        sizes.clear()
        assert oracle_matches_assembly(rep, 13)[0]
        assert sizes.count(4) == 1
        assert reduce_rep(rep, 13) is reduce_rep(rep, 13)


class TestClearedOnce:
    """A rep clears its entries of denominators once, when it is validated;
    its reduction mod q takes those integer terms mod q and clears nothing,
    and every consumer reads the integer terms.  `clear_denominators` has
    two callers: the rep's validation, which clears a factorization apart
    from the entries, and `curves.curve_terms`, which a named example's
    builder uses.  The oracle clears nothing.  Each call is recorded by
    the characteristic it clears in."""

    @pytest.fixture
    def fields(self, monkeypatch):
        fields = []
        for module in (detrep, curves):
            def counting(polys, q=0, clear=module.clear_denominators):
                fields.append(q)
                return clear(polys, q)

            monkeypatch.setattr(module, "clear_denominators", counting)
        return fields

    @pytest.mark.parametrize("name", ["ex42i", "ex42ii", "ex43_quartic_two_lines", "ex43_quintic_line", "rmk31", "prop44"])
    def test_once_per_field_for_an_emitted_file(self, name, fields):
        text = write_rep_file(build_example(name).rep)
        fields.clear()
        analyze(parse_rep_file(text))
        assert fields == [0]
        fields.clear()
        analyze(parse_rep_file(text), 7)
        assert fields == [0]
        rep = parse_rep_file(text)
        fields.clear()
        brute_force_oracle(rep, 29)
        assert fields == []


def _gram_at(rep, p):
    """The Gram matrix at p in the base field, with its rank and det: the
    integer matrix of `gram_rank_kernel`, c den S G S at n = den p, divided
    back by c den S_ii S_jj."""
    gram = gram_rank_kernel(rep, p)[0]
    den = p.ints()[1]
    c = rep.den * den
    s = (1, 1, 1, den)
    g = [[elt(rep.q, gram[i][j]) / (c * s[i] * s[j]) for j in range(4)] for i in range(4)]
    rank, det, _ = kernel_rank_det(g, rep.q)
    return g, rank, det


class TestFiberGram:
    def test_prop44_rank2_point(self):
        ex = build_example("prop44")
        g = _gram_at(ex.rep, ProjPoint(0, (0, 0, 1), "x"))[0]
        assert g == [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]]

    def test_prop44_off_curve(self):
        ex = build_example("prop44")
        _, rank, det = _gram_at(ex.rep, ProjPoint(0, (1, 1, 1), "x"))
        assert rank == 4 and det == -3

    def test_ex42ii_rank3_point(self):
        ex = build_example("ex42ii")
        g, rank, kernel = gram_rank_kernel(ex.rep, ProjPoint(0, (1, -2, 1), "x"))
        assert rank == 3
        assert [list(kernel)] == [[0, 0, 0, 1]]

    def test_integer_gram_is_scaled_at_points_with_denominators(self):
        # ex42ii_wide has nodes such as (1 : 11/13 : 19/13), with den = 13:
        # the integer matrix there is c den S G(p) S, so its rank is G(p)'s
        # and the rank-3 kernel of G(p) is S v for v its own kernel
        rep = parse_rep_file((Path(__file__).parent / "golden" / "ex42ii_wide.rep").read_text())
        points = [p for p in rep.classification.sing_c if p.ints()[1] > 1]
        assert points
        for p in points:
            g, rank, _ = _gram_at(rep, p)
            gram, rank_n, kernel = gram_rank_kernel(rep, p)
            assert rank == rank_n
            assert (kernel is None) == (rank == 2)
            if kernel is not None:
                assert all(not sum(a * b for a, b in zip(row, kernel)) for row in g)

    def test_det_commutes_with_evaluation(self):
        rng = random.Random(2)
        gf = 11
        for name in ("ex42ii", "prop44"):
            ex = build_example(name)
            sext = map_field(rep_sextic(ex.rep), gf)
            for _ in range(100):
                coords = tuple(coerce(gf, rng.randrange(11)) for _ in range(3))
                if not any(coords):
                    continue
                p = ProjPoint(gf, coords, "x")
                _, _, det = _gram_at(reduce_rep(ex.rep, gf), p)
                assert det == evaluate(sext, p.coords)

    def test_conic_block_matches_d_cubic(self):
        ex = build_example("ex42ii")
        rng = random.Random(8)
        for _ in range(20):
            coords = tuple(rng.randrange(-5, 6) for _ in range(3))
            if not any(coords):
                continue
            p = ProjPoint(0, coords, "x")
            g = _gram_at(ex.rep, p)[0]
            block = [row[:3] for row in g[:3]]
            det3 = (
                block[0][0] * (block[1][1] * block[2][2] - block[1][2] * block[2][1])
                - block[0][1] * (block[1][0] * block[2][2] - block[1][2] * block[2][0])
                + block[0][2] * (block[1][0] * block[2][1] - block[1][1] * block[2][0])
            )
            assert det3 == evaluate(rep_d_cubic(ex.rep), p.coords)

    def test_embed_fiber_vector(self):
        p = ProjPoint(0, (1, -2, 1), "x")
        v = ProjPoint(0, embed_fiber_vector(p, (0, 0, 0, 1)), "p5")
        assert v == ProjPoint(0, (1, -2, 1, 0, 0, 0), "p5")
        # over (2 : 1 : 3), n = (2, 1, 3), den = 2: (t p, u) = (t/2) (n, 2u / t)
        p = ProjPoint(0, (2, 1, 3), "x")
        assert ProjPoint(0, embed_fiber_vector(p, (1, 0, 0, 2)), "p5") == ProjPoint(0, (2, 1, 3, 1, 0, 0), "p5")


class TestVanishesOnPlane:
    # the prop44 section plane u = x, spanned by e_xj + e_uj
    SECTION = [[1, 0, 0, 1, 0, 0], [0, 1, 0, 0, 1, 0], [0, 0, 1, 0, 0, 1]]

    def test_agrees_with_exhaustive_scan(self):
        # over F_13 a nonzero plane cubic has at most 3*13 + 1 of the 183
        # points of its plane, so testing every point is exact
        gf = 13
        ex = build_example("prop44")
        rep = reduce_rep(ex.rep, gf)
        F = rep.fourfold_terms
        on_x = [self.SECTION, [[0, 0, 0] + row for row in ([1, 0, 0], [0, 1, 0], [0, 0, 1])]]
        for pair in couples_and_intersections(rep).pairs:
            if pair.root is not None:
                on_x += [plane_span(pair.point, form, gf) for form in plane_forms(pair)]
        rng = random.Random(11)
        planes = list(on_x)
        for basis in on_x:
            moved = [list(v) for v in basis]
            moved[rng.randrange(3)][rng.randrange(6)] += rng.randrange(1, 13)
            planes.append(moved)
        verdicts = []
        for basis in planes:
            basis = [[coerce(gf, c) for c in v] for v in basis]
            exhaustive = all(
                not evaluate(rep_fourfold(rep), [sum(k * v[i] for k, v in zip(c, basis)) for i in range(6)]) for c in p2_reps(13)
            )
            assert vanishes_on_plane(F, basis, 13) == exhaustive
            verdicts.append(exhaustive)
        assert verdicts[: len(on_x)] == [True] * len(on_x) and False in verdicts

    def test_each_of_the_ten_points_counts(self):
        # on the plane x-space, spanned by e_x1, e_x2, e_x3, the cubic
        # prod_{a < i0} (3 x1 - a s) prod_{b < j0} (3 x2 - b s) prod_{c < k0} (3 x3 - c s),
        # s = x1 + x2 + x3, vanishes at every point i + j + k = 3 but (i0, j0, k0)
        xs = [Poly.variable(0, VARS_XU, v) for v in VARS_X]
        s = xs[0] + xs[1] + xs[2]
        basis = [[1 if i == j else 0 for i in range(6)] for j in range(3)]
        for point in ((i, j, 3 - i - j) for i in range(4) for j in range(4 - i)):
            F = Poly.constant(0, VARS_XU, 1)
            for x, top in zip(xs, point):
                for a in range(top):
                    F = F * (x.scale(3) - s.scale(a))
            assert not vanishes_on_plane(ints(F), basis), point

    def test_section_plane_over_q(self):
        F = build_example("prop44").rep.fourfold_terms
        assert vanishes_on_plane(F, self.SECTION)
        moved = [row[:] for row in self.SECTION]
        moved[2][3] = 1  # u1 = x1 + x3 on the third vector
        assert not vanishes_on_plane(F, moved)
