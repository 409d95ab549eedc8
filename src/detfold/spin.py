"""Dual-graph combinatorics for stable spin structures on nodal plane sextics.

A configuration is a list of (degree, internal node count) pairs, one per
irreducible component.  Vertices of the dual graph are components; cross
edges are intersection nodes (Bezout counts in general position); loops are
internal nodes.  Evenness and first Betti numbers of residual graphs after
removing node subsets govern which theta-characteristics exist.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import InputError, Rejection

Config = list[tuple[int, int]]


@dataclass(frozen=True)
class DualGraph:
    vertices: tuple  # (degree, internal node count) per component
    cross_edges: tuple  # ((i, j), multiplicity) with i < j
    loops: tuple  # loop count per vertex

    def edge_instances(self) -> list:
        """Every node as a removable instance: ('cross', i, j, k) or ('loop', i, k)."""
        out = []
        for (i, j), mult in self.cross_edges:
            out.extend(("cross", i, j, k) for k in range(mult))
        for i, n in enumerate(self.loops):
            out.extend(("loop", i, i, k) for k in range(n))
        return out

    def total_edges(self) -> int:
        return sum(m for _, m in self.cross_edges) + sum(self.loops)

    def degrees(self) -> list[int]:
        deg = [2 * n for n in self.loops]
        for (i, j), mult in self.cross_edges:
            deg[i] += mult
            deg[j] += mult
        return deg


def geometric_genus(d: int, nodes: int) -> int:
    if nodes < 0:
        raise InputError(f"a component cannot have {nodes} nodes; node counts are nonnegative")
    g = (d - 1) * (d - 2) // 2 - nodes
    if g < 0:
        raise Rejection(f"degree-{d} component cannot have {nodes} nodes")
    return g


def build_dual_graph(config: Config) -> DualGraph:
    """Dual graph of a nodal plane sextic in general position: cross
    multiplicities are Bezout numbers.  Genus bookkeeping
    sum(geometric genera) + total nodes - (components - 1) must give the
    arithmetic genus 10 of a sextic; other total degrees raise InputError
    before any work, since subset searches grow as C(nodes, k)."""
    if not config:
        raise Rejection("empty configuration")
    _check_sextic(sum(d for d, _ in config))
    for d, n in config:
        geometric_genus(d, n)  # validates the node count
    cross = []
    for i in range(len(config)):
        for j in range(i + 1, len(config)):
            cross.append(((i, j), config[i][0] * config[j][0]))
    g = DualGraph(
        vertices=tuple(config),
        cross_edges=tuple(cross),
        loops=tuple(n for _, n in config),
    )
    pa = sum(geometric_genus(d, n) for d, n in config) + g.total_edges() - (len(config) - 1)
    if pa != 10:
        raise Rejection(f"genus bookkeeping failed: expected arithmetic genus 10, got {pa}")
    return g


def _check_sextic(total_degree: int) -> None:
    if total_degree != 6:
        raise InputError(f"configuration has total degree {total_degree}; only plane sextics are supported")


def graph_stats(g: DualGraph) -> tuple[bool, int]:
    """(every vertex has even degree, first Betti number E - V + #components)."""
    degs = g.degrees()
    is_even = all(d % 2 == 0 for d in degs)
    b1 = g.total_edges() - len(g.vertices) + len(_residual_pieces(g, frozenset()))
    return is_even, b1


def _residual_pieces(g: DualGraph, removed: frozenset) -> list[list[int]]:
    """Vertex lists of the connected pieces that the cross edges not in
    removed leave, ordered by their first vertex (union-find)."""
    parent = list(range(len(g.vertices)))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for inst in g.edge_instances():
        kind, i, j, _k = inst
        if kind == "cross" and inst not in removed:
            parent[find(i)] = find(j)
    pieces: dict = {}
    for v in range(len(g.vertices)):
        pieces.setdefault(find(v), []).append(v)
    return list(pieces.values())


def theta_counts(genus: int) -> tuple[int, int, int]:
    """(total, even, odd) theta-characteristic counts for arithmetic genus g."""
    if genus < 0:
        raise Rejection("genus must be nonnegative")
    total = 2 ** (2 * genus)
    even = (2**genus * (2**genus + 1)) // 2
    odd = (2**genus * (2**genus - 1)) // 2
    return total, even, odd


@dataclass(frozen=True)
class SpinSubsetReport:
    removed: tuple  # edge instances in S
    residual_even: bool
    vertex_genera: tuple  # arithmetic genus of each component curve after blow-ups
    component_genera: tuple  # arithmetic genus of each connected residual piece
    admits_odd_theta: bool


def _analyze_subset(g: DualGraph, subset: tuple) -> SpinSubsetReport:
    removed = frozenset(subset)
    degs = g.degrees()
    removed_loops = [0] * len(g.vertices)
    for kind, i, j, _k in subset:
        if kind == "loop":
            degs[i] -= 2
            removed_loops[i] += 1
        else:
            degs[i] -= 1
            degs[j] -= 1
    residual_even = all(d % 2 == 0 for d in degs)
    vertex_genera = tuple(
        (d - 1) * (d - 2) // 2 - removed_loops[i] for i, (d, _n) in enumerate(g.vertices)
    )
    # connected pieces of the residual graph and their arithmetic genera
    kept = [inst[1] for inst in g.edge_instances() if inst[0] == "cross" and inst not in removed]
    comp_genera = []
    odd_choices = []
    for verts in _residual_pieces(g, removed):
        edges = sum(1 for i in kept if i in verts)
        pa = sum(vertex_genera[v] for v in verts) + edges - len(verts) + 1
        comp_genera.append(pa)
        odd_choices.append(theta_counts(pa)[2] if pa >= 0 else 0)
    admits = any(c > 0 for c in odd_choices)
    return SpinSubsetReport(
        removed=tuple(subset),
        residual_even=residual_even,
        vertex_genera=vertex_genera,
        component_genera=tuple(comp_genera),
        admits_odd_theta=admits,
    )


def spin_subsets(g: DualGraph, k: int, enumerate_all: bool = False) -> list[SpinSubsetReport]:
    """Subsets of exactly k nodes whose removal leaves an even dual graph.

    Stops at the first witness unless enumerate_all is set; the empty list
    means no witness exists.
    """
    instances = g.edge_instances()
    if k > len(instances) or k < 0:
        return []
    out = []
    for subset in combinations(instances, k):
        report = _analyze_subset(g, subset)
        if report.residual_even:
            out.append(report)
            if not enumerate_all:
                break
    return out


# ---------------------------------------------------------------------------
# Configuration predicates
# ---------------------------------------------------------------------------


def in_ten_couples_list(config: Config) -> bool:
    """The eight sextic shapes that can carry ten couples of planes."""
    shape = sorted((d, n) for d, n in config)
    if shape == [(1, 0)] * 6:
        return True  # six lines
    if shape == [(2, 0)] * 3:
        return True  # three conics
    if shape == [(1, 0), (1, 0), (2, 0), (2, 0)]:
        return True  # two conics and two lines
    if shape == [(1, 0)] * 4 + [(2, 0)]:
        return True  # a conic and four lines
    if shape == [(1, 0), (1, 0), (1, 0), (3, 1)]:
        return True  # three lines and a one-node cubic
    if len(shape) == 2 and shape[0] == (1, 0) and shape[1][0] == 5 and shape[1][1] in (5, 6):
        return True  # a line and a quintic with 5 or 6 nodes
    if len(shape) == 2 and shape[0] == (3, 0) and shape[1] == (3, 1):
        return True  # a smooth cubic and a one-node cubic
    if (
        len(shape) == 3
        and shape[0] == (1, 0)
        and shape[1] == (1, 0)
        and shape[2][0] == 4
        and shape[2][1] in (1, 2)
    ):
        return True  # a quartic with 1 or 2 nodes and two lines
    return False


def realizes_max_candidate(config: Config) -> bool:
    """Shapes allowed for curves realizing the maximal number of singular
    points: irreducible nodal, three smooth conics, or a smooth conic plus a
    (possibly nodal) quartic."""
    shape = sorted((d, n) for d, n in config)
    if len(shape) == 1 and shape[0][0] == 6:
        return True
    if shape == [(2, 0)] * 3:
        return True
    if len(shape) == 2 and shape[0] == (2, 0) and shape[1][0] == 4:
        return True
    return False


def forces_singular_fourfolds(config: Config) -> bool:
    """Sufficient condition making every associated fourfold singular:
    irreducible with 10 nodes, or reducible containing no smooth cubic, no
    quartic with at most 2 nodes, no quintic with at most 5 nodes, and not
    of one of the eight ten-couple shapes."""
    if len(config) == 1:
        d, n = config[0]
        return d == 6 and n == 10
    for d, n in config:
        if d == 3 and n == 0:
            return False
        if d == 4 and n <= 2:
            return False
        if d == 5 and n <= 5:
            return False
    return not in_ten_couples_list(config)


@dataclass(frozen=True)
class ConfigPredicates:
    satisfies_prop41i: bool
    in_remark41_list: bool
    all_components_rational: bool
    realizes_max_candidate: bool


def config_predicates(config: Config) -> ConfigPredicates:
    for d, n in config:
        geometric_genus(d, n)
    return ConfigPredicates(
        satisfies_prop41i=forces_singular_fourfolds(config),
        in_remark41_list=in_ten_couples_list(config),
        all_components_rational=all(geometric_genus(d, n) == 0 for d, n in config),
        realizes_max_candidate=realizes_max_candidate(config),
    )


# ---------------------------------------------------------------------------
# Configuration mini-language:  "lines=6", "conics=3", "line=1,quintic=1:nodes=5"
# ---------------------------------------------------------------------------

_KIND_DEGREES = {
    "line": 1,
    "conic": 2,
    "cubic": 3,
    "quartic": 4,
    "quintic": 5,
    "sextic": 6,
}


def parse_config(text: str) -> Config:
    """The configuration of `text`; its total degree is checked before the
    list is built, so a huge component count is refused, not allocated."""
    parts = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            raise InputError("empty component in configuration")
        nodes = 0
        if ":" in chunk:
            chunk, opt = chunk.split(":", 1)
            opt = opt.strip()
            if not opt.startswith("nodes="):
                raise InputError(f"unknown component option {opt!r}")
            try:
                nodes = int(opt[6:])
            except ValueError:
                raise InputError(f"bad node count in {opt!r}") from None
        count = 1
        name = chunk.strip()
        if "=" in name:
            name, cnt = name.split("=", 1)
            try:
                count = int(cnt)
            except ValueError:
                raise InputError(f"bad component count {cnt!r}") from None
        name = name.strip().lower()
        singular = name[:-1] if name.endswith("s") else name
        if singular not in _KIND_DEGREES:
            raise InputError(f"unknown component kind {name!r}")
        if count < 1:
            raise InputError("component count must be positive")
        parts.append((_KIND_DEGREES[singular], nodes, count))
    _check_sextic(sum(d * count for d, _, count in parts))
    return [(d, nodes) for d, nodes, count in parts for _ in range(count)]
