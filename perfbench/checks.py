"""Output checks for detfold reports, computed with this benchmark's own
arithmetic and never with the program's.

A representation file is read back into a 4x4 matrix M of polynomials in
x1, x2, x3 (dicts from exponent triples to Fractions).  The fourfold is
F(x, u) = v^T M(x) v with v = (u1, u2, u3, 1), so

    dF/du_m = 2 (M(x) v)_m        dF/dx_t = v^T (dM/dx_t)(x) v.

Every check returns a list of problems; an empty list means the output
passed.  Over F_q all values are ints reduced mod q, over Q Fractions.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

# ---------------------------------------------------------------------------
# Polynomials in x1, x2, x3
# ---------------------------------------------------------------------------

_VARS = ("x1", "x2", "x3")


def parse_poly(text: str) -> dict:
    """A sum of monomials such as '-2*x1^3 + 3/2*x1*x2 - x3' (the form the
    program writes); returns {(a, b, c): Fraction}."""
    poly: dict = {}
    text = text.replace(" ", "")
    if text == "0":
        return poly
    terms = text.replace("-", "+-").split("+")
    for term in terms:
        if not term:
            continue
        sign = 1
        if term.startswith("-"):
            sign, term = -1, term[1:]
        coeff = Fraction(1)
        exps = [0, 0, 0]
        for factor in term.split("*"):
            name, _, power = factor.partition("^")
            if name in _VARS:
                exps[_VARS.index(name)] += int(power or 1)
            elif not power:
                coeff *= Fraction(name)
            else:
                raise ValueError(f"cannot read factor {factor!r} in {text!r}")
        key = tuple(exps)
        poly[key] = poly.get(key, 0) + sign * coeff
    return {e: c for e, c in poly.items() if c}


def poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(i + j for i, j in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def poly_diff(p: dict, t: int) -> dict:
    out = {}
    for e, c in p.items():
        if e[t]:
            ne = list(e)
            ne[t] -= 1
            out[tuple(ne)] = c * e[t]
    return out


def reduce(value, q):
    """A Fraction (or int) as an element of F_q, or unchanged when q is None."""
    if q is None:
        return Fraction(value)
    value = Fraction(value)
    return value.numerator * pow(value.denominator, -1, q) % q


def evaluate(p: dict, x, q) -> object:
    total = 0
    for e, c in p.items():
        term = reduce(c, q)
        for xi, k in zip(x, e):
            term = term * xi**k
        total += term
    return total % q if q is not None else total


def parse_rep(text: str) -> tuple:
    """(q or None, M) from a representation file."""
    q = None
    rows: dict = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line.startswith("field"):
            parts = line.split()
            q = int(parts[2]) if parts[1] == "fp" else None
        elif line.startswith("row"):
            head, _, body = line.partition(":")
            rows[int(head.split()[1])] = [parse_poly(e) for e in body.split(",")]
    return q, [rows[i] for i in range(4)]


def matrix_at(m: list, x, q) -> list:
    return [[evaluate(e, x, q) for e in row] for row in m]


def det(a: list, q) -> object:
    """Determinant by cofactor expansion along the first row."""
    if len(a) == 1:
        return a[0][0]
    total = 0
    for j, c in enumerate(a[0]):
        if c:
            minor = [row[:j] + row[j + 1 :] for row in a[1:]]
            total += (-1) ** j * c * det(minor, q)
    return total % q if q is not None else total


def fourfold_and_partials(m: list, point, q) -> list:
    """[F, dF/dx1, dF/dx2, dF/dx3, dF/du1, dF/du2, dF/du3] at a point of P^5."""
    x, v = point[:3], list(point[3:]) + [1]

    def form(mat):
        total = sum(mat[i][j] * v[i] * v[j] for i in range(4) for j in range(4))
        return total % q if q is not None else total

    mx = matrix_at(m, x, q)
    values = [form(mx)]
    for t in range(3):
        values.append(form(matrix_at([[poly_diff(e, t) for e in row] for row in m], x, q)))
    for k in range(3):
        s = 2 * sum(mx[k][j] * v[j] for j in range(4))
        values.append(s % q if q is not None else s)
    return values


# ---------------------------------------------------------------------------
# Points and reports
# ---------------------------------------------------------------------------


def normalize(coords, q) -> tuple:
    coords = [reduce(c, q) for c in coords]
    lead = next(c for c in coords if c)
    if q is None:
        return tuple(c / lead for c in coords)
    inv = pow(lead, -1, q)
    return tuple(c * inv % q for c in coords)


def parse_points(text: str, q) -> set:
    if text == "-":
        return set()
    return {normalize([Fraction(c) for c in p.strip()[1:-1].split(":")], q) for p in text.split(";")}


def parse_report(text: str) -> dict:
    out: dict = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep and key not in out:
            out[key] = value
    return out


def cross(a, b) -> tuple:
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def expected_sing_x(entry: dict, q) -> set | None:
    """Sing X as the paper gives it for ex42i, ex42ii and prop44 members."""
    kind = entry["kind"]
    if kind == "ex42i":
        return {normalize(e, q) for e in ((0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 1))}
    if kind == "ex42ii":
        lines = entry["lines"]
        meets = [cross(a, b) for a, b in itertools.combinations(lines, 2)]
        return {normalize(tuple(p) + (0, 0, 0), q) for p in meets}
    if kind == "prop44":
        return set()
    return None


def _check_paper_matrix(entry: dict, m: list) -> list:
    """ex42ii: the corner cubic is the product of the three listed lines."""
    if entry["kind"] != "ex42ii":
        return []
    prod = {(0, 0, 0): Fraction(1)}
    for a, b, c in entry["lines"]:
        lin = {e: Fraction(k) for e, k in zip(((1, 0, 0), (0, 1, 0), (0, 0, 1)), (a, b, c)) if k}
        prod = poly_mul(prod, lin)
    return [] if prod == m[3][3] else ["corner entry is not the product of the listed lines"]


def check_analyze(text: str, entry: dict, field: str) -> list:
    """Problems in the flat report of `analyze` for `entry` over `field`."""
    _, m = parse_rep(entry["rep"])
    q = None if field == "rational" else int(field.split(":")[1])
    r = parse_report(text)
    problems = []
    try:
        pts = {k: parse_points(r[k], q) for k in ("sing_c", "s_theta", "s_theta_tilde", "s_c", "b_points", "sing_x")}
        counts = {k: int(r[k + "_count"]) for k in ("sing_c", "s_theta", "s_theta_tilde", "s_c", "sing_x")}
        counts["b_points"] = int(r["b_count"])
        couples, ns2_m = int(r["couples"]), int(r["ns2_m"])
    except (KeyError, ValueError, ZeroDivisionError, StopIteration) as exc:
        return [f"unreadable report: {exc!r}"]
    if r.get("field") != field:
        problems.append(f"report field {r.get('field')} != {field}")
    for k, n in counts.items():
        if len(pts[k]) != n:
            problems.append(f"{k}: {len(pts[k])} points listed, count says {n}")
    for p in pts["sing_c"]:
        if det(matrix_at(m, p, q), q):
            problems.append(f"sing_c point {p} is not on det M = 0")
    for p in pts["sing_x"]:
        if any(fourfold_and_partials(m, p, q)):
            problems.append(f"sing_x point {p} is not a singular point of F")
    n_sc, n_x, n_b = counts["s_c"], counts["sing_x"], counts["b_points"]
    if not n_sc <= n_x <= n_sc + 3:
        problems.append(f"bound |s_c| <= |Sing X| <= |s_c|+3 fails: {n_sc}, {n_x}")
    if n_b > 3:
        problems.append(f"|B| = {n_b} > 3")
    if not pts["s_theta"] <= pts["s_theta_tilde"]:
        problems.append("s_theta is not contained in s_theta_tilde")
    if ns2_m != counts["s_theta"]:
        problems.append(f"ns2_m = {ns2_m} != s_theta_count = {counts['s_theta']}")
    want = expected_sing_x(entry, q)
    if want is not None and pts["sing_x"] != want:
        problems.append(f"sing_x differs from the paper's {sorted(want)}")
    if entry["kind"] == "ex42i" and pts["b_points"] != want:
        problems.append("ex42i base points are not the three coordinate points of P")
    if entry["kind"] == "prop44" and q is not None and r.get("smooth") != "true":
        problems.append("prop44 member is not reported smooth over F_q")
    if entry.get("identity") and q is not None and q % 3 == 1 and couples != 12:
        problems.append(f"prop44 has {couples} couples over F_{q}, the paper gives 12")
    problems += _check_paper_matrix(entry, m)
    golden = entry["expect"].get(field)
    if golden is not None:
        got = {
            "sing_c_count": counts["sing_c"],
            "s_theta_count": counts["s_theta"],
            "s_theta_tilde_count": counts["s_theta_tilde"],
            "s_c_count": counts["s_c"],
            "b_count": counts["b_points"],
            "sing_x_count": counts["sing_x"],
            "couples": couples,
        }
        if got != golden:
            problems.append(f"counts {got} differ from the recorded {golden}")
    return problems


def check_oracle(text: str, entry: dict, q: int) -> list:
    """Problems in the output of `oracle --prime q` for `entry`."""
    _, m = parse_rep(entry["rep"])
    r = parse_report(text)
    try:
        oracle = parse_points(r["oracle_points"], q)
        assembly = parse_points(r["assembly_points"], q)
        n_oracle = int(r["oracle_count"])
    except (KeyError, ValueError, ZeroDivisionError, StopIteration) as exc:
        return [f"unreadable oracle output: {exc!r}"]
    problems = []
    if r.get("prime") != str(q):
        problems.append(f"oracle ran at {r.get('prime')}, not {q}")
    if len(oracle) != n_oracle:
        problems.append(f"{len(oracle)} oracle points listed, count says {n_oracle}")
    if oracle != assembly or r.get("oracle_matches_assembly") != "true":
        problems.append("oracle and assembly disagree")
    for p in oracle:
        if any(fourfold_and_partials(m, p, q)):
            problems.append(f"oracle point {p} is not a singular point of F")
    want = expected_sing_x(entry, q)
    if want is not None and oracle != want:
        problems.append(f"oracle points differ from the paper's {sorted(want)}")
    golden = entry["expect"].get(f"oracle:{q}")
    if golden is not None and golden != {"oracle_count": n_oracle}:
        problems.append(f"oracle count {n_oracle} differs from the recorded {golden}")
    return problems


# ---------------------------------------------------------------------------
# Family hypotheses mod q (used to screen the input pool)
# ---------------------------------------------------------------------------


def prop44_cubic(a: list) -> dict:
    """f_A = sum_i (sum_j a_ij x_j)^2 x_i for a 3x3 matrix given row by row."""
    f: dict = {}
    for i in range(3):
        row = {tuple(int(t == j) for t in range(3)): Fraction(a[3 * i + j]) for j in range(3) if a[3 * i + j]}
        xi = {tuple(int(t == i) for t in range(3)): Fraction(1)}
        for e, c in poly_mul(poly_mul(row, row), xi).items():
            f[e] = f.get(e, 0) + c
    return {e: c for e, c in f.items() if c}


def _binary_cubic_disc(a, b, c, d):
    return b * b * c * c - 4 * a * c**3 - 4 * b**3 * d - 27 * a * a * d * d + 18 * a * b * c * d


def prop44_good_at(a: list, q: int) -> bool:
    """The hypotheses of the prop44 family over F_q, as the F_q analysis sees
    them: f_A has no F_q-rational singular point, avoids the vertices of the
    coordinate triangle, and meets each side in three distinct points."""
    if q <= 3:
        return False
    f = prop44_cubic(a)
    if any(reduce(a[4 * k], q) == 0 for k in range(3)):
        return False
    for i in range(3):
        j, k = [t for t in range(3) if t != i]
        coeffs = []
        for pj in (3, 2, 1, 0):
            e = [0, 0, 0]
            e[j], e[k] = pj, 3 - pj
            coeffs.append(reduce(f.get(tuple(e), 0), q))
        if _binary_cubic_disc(*coeffs) % q == 0:
            return False
    grads = [poly_diff(f, t) for t in range(3)]
    for x in p2_points(q):
        if all(evaluate(g, x, q) == 0 for g in grads):
            return False
    return True


def ex42ii_good_at(lines: list, q) -> bool:
    """No three of x1, x2, x3, l4, l5, l6 are concurrent (over Q or F_q)."""
    six = [(1, 0, 0), (0, 1, 0), (0, 0, 1)] + [tuple(v) for v in lines]
    for a, b, c in itertools.combinations(six, 3):
        d = sum(x * y for x, y in zip(a, cross(b, c)))
        if (d if q is None else d % q) == 0:
            return False
    return True


def p2_points(q: int):
    for b in range(q):
        for c in range(q):
            yield (1, b, c)
    for c in range(q):
        yield (0, 1, c)
    yield (0, 0, 1)
