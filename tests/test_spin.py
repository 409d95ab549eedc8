import io
import random

import pytest

from detfold.cli import main
from detfold.errors import InputError, Rejection
from detfold.spin import (
    DualGraph,
    build_dual_graph,
    config_predicates,
    geometric_genus,
    graph_stats,
    parse_config,
    spin_subsets,
    theta_counts,
)

TEN_COUPLE_CONFIGS = {
    "six lines": [(1, 0)] * 6,
    "three conics": [(2, 0)] * 3,
    "two conics two lines": [(2, 0), (2, 0), (1, 0), (1, 0)],
    "conic four lines": [(2, 0)] + [(1, 0)] * 4,
    "three lines one-node cubic": [(1, 0)] * 3 + [(3, 1)],
    "line quintic-5": [(1, 0), (5, 5)],
    "line quintic-6": [(1, 0), (5, 6)],
    "smooth cubic one-node cubic": [(3, 0), (3, 1)],
    "one-node quartic two lines": [(4, 1), (1, 0), (1, 0)],
    "two-node quartic two lines": [(4, 2), (1, 0), (1, 0)],
}

EXCLUDED_CONFIGS = {
    "irreducible nine nodes": [(6, 9)],
    "two smooth cubics": [(3, 0), (3, 0)],
    "line quintic-4": [(1, 0), (5, 4)],
    "smooth quartic conic": [(4, 0), (2, 0)],
}


class TestThetaCounts:
    def test_genus_ten(self):
        assert theta_counts(10) == (1048576, 524800, 523776)

    def test_small(self):
        assert theta_counts(0) == (1, 1, 0)
        assert theta_counts(1) == (4, 3, 1)

    def test_sum_property(self):
        for g in range(13):
            total, even, odd = theta_counts(g)
            assert even + odd == total == 4**g


class TestDualGraph:
    def test_six_lines_k6(self):
        g = build_dual_graph([(1, 0)] * 6)
        assert g.total_edges() == 15
        assert g.degrees() == [5] * 6

    def test_three_conics(self):
        g = build_dual_graph([(2, 0)] * 3)
        assert g.total_edges() == 12
        assert all(m == 4 for _, m in g.cross_edges)
        is_even, b1 = graph_stats(g)
        assert is_even and b1 == 10

    def test_line_quintic_bookkeeping(self):
        g = build_dual_graph([(1, 0), (5, 5)])
        # 5 cross nodes, 5 internal nodes; genus bookkeeping 1 + 10 - 1 = 10
        assert g.total_edges() == 10
        assert g.loops == (0, 5)

    def test_bad_bookkeeping_rejected(self):
        with pytest.raises(Rejection):
            build_dual_graph([(1, 0), (5, 7)])  # quintic cannot have 7 nodes
        with pytest.raises(Rejection):
            build_dual_graph([(3, 2), (3, 0)])  # cubic cannot have 2 nodes

    def test_non_sextic_rejected(self):
        with pytest.raises(InputError, match="total degree 5"):
            build_dual_graph([(1, 0)] * 5)
        with pytest.raises(InputError, match="total degree 20"):
            build_dual_graph([(1, 0)] * 20)

    def test_genus_bookkeeping_identity(self):
        # for general-position sextic configurations the bookkeeping gives 10
        for cfg in TEN_COUPLE_CONFIGS.values():
            g = build_dual_graph(cfg)
            pa = sum(geometric_genus(d, n) for d, n in cfg) + g.total_edges() - (len(cfg) - 1)
            assert pa == 10

    def test_k6_stats(self):
        is_even, b1 = graph_stats(build_dual_graph([(1, 0)] * 6))
        assert not is_even and b1 == 10

    def test_single_vertex(self):
        g = DualGraph(vertices=((6, 0),), cross_edges=(), loops=(0,))
        is_even, b1 = graph_stats(g)
        assert is_even and b1 == 0


class TestSpinSubsets:
    def test_k6_witness(self):
        g = build_dual_graph([(1, 0)] * 6)
        out = spin_subsets(g, 10)
        assert out and out[0].residual_even

    def test_line_quintic_all_removed(self):
        g = build_dual_graph([(1, 0), (5, 5)])
        out = spin_subsets(g, 10)
        assert out
        assert out[0].vertex_genera == (0, 1)  # normalized quintic keeps genus 1

    def test_two_cubics_k10_empty(self):
        g = build_dual_graph([(3, 0), (3, 0)])
        assert spin_subsets(g, 10) == []

    def test_all_ten_couple_shapes_admit_witness(self):
        for name, cfg in TEN_COUPLE_CONFIGS.items():
            g = build_dual_graph(cfg)
            assert spin_subsets(g, 10), name

    def test_excluded_families_have_none(self):
        for name, cfg in EXCLUDED_CONFIGS.items():
            g = build_dual_graph(cfg)
            assert spin_subsets(g, 10) == [], name

    def test_loop_removal_preserves_other_parity(self):
        rng = random.Random(6)
        g = build_dual_graph([(1, 0), (5, 5)])
        for report in spin_subsets(g, 3, enumerate_all=True):
            degs = list(g.degrees())
            for kind, i, j, _k in report.removed:
                if kind == "loop":
                    degs[i] -= 2
                else:
                    degs[i] -= 1
                    degs[j] -= 1
            assert all(d % 2 == 0 for d in degs) == report.residual_even

    def test_enumerate_all_counts(self):
        g = build_dual_graph([(3, 0), (3, 0)])  # 9 cross edges
        all_k8 = spin_subsets(g, 8, enumerate_all=True)
        # removing 8 of 9 edges leaves one edge: both vertices odd; never even
        assert all_k8 == []
        all_k9 = spin_subsets(g, 9, enumerate_all=True)
        assert len(all_k9) == 1  # empty residual graph


class TestPredicates:
    def test_six_lines(self):
        p = config_predicates([(1, 0)] * 6)
        assert not p.satisfies_prop41i
        assert p.in_remark41_list
        assert p.all_components_rational

    def test_irreducible_ten_nodes(self):
        p = config_predicates([(6, 10)])
        assert p.satisfies_prop41i
        assert not p.in_remark41_list
        assert p.all_components_rational

    def test_conic_quartic(self):
        p = config_predicates([(2, 0), (4, 1)])
        assert not p.all_components_rational
        assert p.realizes_max_candidate
        assert not p.satisfies_prop41i

    def test_forcing_configs_have_no_odd_theta_with_all_nodes_removed(self):
        # when prop41i holds, removing every node leaves only rational pieces
        for cfg in ([(6, 10)], [(1, 0), (1, 0), (2, 0), (2, 0)]):
            g = build_dual_graph(cfg)
            full = spin_subsets(g, g.total_edges(), enumerate_all=True)
            if config_predicates(cfg).all_components_rational:
                for rpt in full:
                    assert not rpt.admits_odd_theta


class TestConfigLanguage:
    def test_parse_examples(self):
        assert parse_config("lines=6") == [(1, 0)] * 6
        assert parse_config("conics=3") == [(2, 0)] * 3
        assert parse_config("line=1,quintic=1:nodes=5") == [(1, 0), (5, 5)]
        assert parse_config("cubic:nodes=1,lines=3") == [(3, 1), (1, 0), (1, 0), (1, 0)]

    def test_parse_errors(self):
        with pytest.raises(InputError):
            parse_config("frobnitz=2")
        with pytest.raises(InputError):
            parse_config("lines=0")
        with pytest.raises(InputError):
            parse_config("line:knots=2")

    def test_negative_node_count_refused(self):
        # a sextic with -1 nodes would report total_nodes = -1 and b1 = -1
        with pytest.raises(InputError):
            geometric_genus(6, -1)
        with pytest.raises(InputError):
            build_dual_graph(parse_config("sextic=1:nodes=-1"))
        out = io.StringIO()
        assert main(["spin", "--config", "sextic=1:nodes=-1"], out=out) == 3
        assert out.getvalue().startswith("error: ")

    def test_huge_count_refused_before_the_list_is_built(self):
        # a list of 10^18 components cannot be allocated; the total degree
        # is checked first
        with pytest.raises(InputError, match="total degree 1000000000000000000;"):
            parse_config("lines=1000000000000000000")
        out = io.StringIO()
        assert main(["spin", "--config", "lines=1000000000000000000"], out=out) == 3
        assert "configuration has total degree" in out.getvalue()
