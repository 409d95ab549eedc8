import pytest

from detfold.errors import InputError, Rejection
from detfold.lattice import ns2_gram


def test_one_couple():
    rpt = ns2_gram(1)
    assert rpt.gram == ((3, -1, -1), (-1, 3, -1), (-1, -1, 3))
    assert rpt.det == 16
    assert rpt.rank == 3 and rpt.rank_lower_bound == 3
    assert rpt.class_count == 3


def test_twelve_couples():
    rpt = ns2_gram(12)
    assert rpt.det != 0
    assert rpt.rank == 14
    assert rpt.class_count == 25
    assert rpt.rank_lower_bound == 14


def test_ten_couples():
    rpt = ns2_gram(10)
    assert rpt.class_count == 21 and rpt.rank_lower_bound == 12
    assert rpt.det != 0


def test_nonzero_dets_through_twelve():
    for m in range(1, 13):
        rpt = ns2_gram(m)
        assert rpt.det != 0
        assert rpt.rank == m + 2


def test_pattern():
    rpt = ns2_gram(5)
    g = rpt.gram
    n = len(g)
    for i in range(n):
        assert g[i][i] == 3
        for j in range(n):
            assert g[i][j] == g[j][i]
            if i == j:
                continue
            if i == 0 or j == 0 or {i, j} == {1, 2}:
                assert g[i][j] == -1
            else:
                assert g[i][j] == 1


def test_m_below_one_rejected():
    with pytest.raises(Rejection):
        ns2_gram(0)


def test_m_above_fifteen_rejected():
    assert ns2_gram(15).rank == 17
    with pytest.raises(InputError, match="at most 15"):
        ns2_gram(16)
