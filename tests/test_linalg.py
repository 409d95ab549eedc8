import random
from fractions import Fraction

from detfold.algebra import int_rank_det
from reference import coerce, kernel_rank_det, matrix_rank, nullspace


def test_kernel_examples():
    rank, det, basis = kernel_rank_det(
        [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]], 0
    )
    assert rank == 2 and det == 0
    assert basis == [
        [1, 0, 0, 0],
        [0, 1, 0, 0],
    ]

    rank, det, basis = kernel_rank_det(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], 0
    )
    assert (rank, det, basis) == (4, 1, [])

    rank, det, basis = kernel_rank_det(
        [[1, 0, 0, 0], [0, -2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0]], 0
    )
    assert rank == 3 and det == 0
    assert basis == [[0, 0, 0, 1]]


def test_kernel_properties_random():
    rng = random.Random(9)
    gf = 13
    for _ in range(60):
        n = rng.choice((3, 4))
        m = [[coerce(gf, rng.randrange(13)) for _ in range(n)] for _ in range(n)]
        rank, det, basis = kernel_rank_det(m, gf)
        assert rank + len(basis) == n
        assert (rank == n) == bool(det)
        for v in basis:
            for row in m:
                s = coerce(gf, 0)
                for a, b in zip(row, v):
                    s = s + a * b
                assert not s


def test_det_sign_convention():
    rank, det, _ = kernel_rank_det([[0, 1], [1, 0]], 0)
    assert det == -1
    rank, det, _ = kernel_rank_det([[2, 1], [1, 1]], 0)
    assert det == 1


def test_matrix_rank_rectangular():
    assert matrix_rank([[1, 2, 3], [2, 4, 6]], 0) == 1
    assert matrix_rank([[1, 0, 0], [0, 1, 0]], 0) == 2


def test_nullspace():
    ns = nullspace([[1, 0, 0, -1], [0, 1, -1, 0]], 4, 0)
    assert len(ns) == 2
    for v in ns:
        assert v[0] == v[3] and v[1] == v[2]


def test_int_det_bareiss_matches_fraction_elimination():
    rng = random.Random(21)
    for _ in range(40):
        n = rng.choice((2, 3, 4, 5))
        m = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(n)]
        d1 = int_rank_det(m)[1]
        _, d2, _ = kernel_rank_det([[Fraction(c) for c in row] for row in m], 0)
        assert Fraction(d1) == d2


def test_int_rank_det_matches_field_elimination():
    # products of random n x r and r x m integer matrices, so that low ranks
    # and columns without a pivot occur, over Q and mod 7 and 13: the same
    # rank, and for a square matrix the same determinant
    rng = random.Random(5)
    for q in (0, 7, 13):
        for _ in range(80):
            n, m, r = rng.randint(1, 5), rng.randint(1, 5), rng.randint(0, 4)
            a = [[rng.randint(-20, 20) for _ in range(r)] for _ in range(n)]
            b = [[rng.randint(-20, 20) for _ in range(m)] for _ in range(r)]
            rows = [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] if r else [0] * m for row in a]
            rank, det = int_rank_det(rows, q)
            assert rank == matrix_rank([[coerce(q, c) for c in row] for row in rows], q)
            if n == m:
                assert coerce(q, det) == kernel_rank_det([[coerce(q, c) for c in row] for row in rows], q)[1]
