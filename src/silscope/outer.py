"""Partial conjugations and the four-way classification of Out(W).

Each star cut point v acts in one partial conjugation per connected
component of the graph minus St(v).  The generating set built here keeps,
for every star cut point, all components except the one holding the
smallest-numbered vertex; the group those generators present is a finite
index subgroup of Out(W), so its shape decides whether Out(W) is finite,
virtually cyclic, virtually abelian, or large.

Classification itself never looks at generators: it is a pure census of
separating pairs and triples.  The commutation presentation is a candidate
shape — exact in every case computed here, but only proven exact for
disconnected graphs without flexible or triple separations.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Sequence

from .graphs import LabelledGraph, vertex_names
from .sils import Census, vertex_mask

DINF = "D∞"  # D-infinity, the infinite dihedral group
_TIMES = " × "


def _cyclic(order: int) -> str:
    return f"ℤ/{order}ℤ"


@dataclass(frozen=True)
class PartialConjugation:
    """chi_{v,C}: conjugate the component C of the graph minus St(v) by v."""

    vertex: int
    component: frozenset

    def label(self, g: LabelledGraph) -> str:
        names = ",".join(vertex_names(g, self.component))
        return f"chi {g.names[self.vertex]} {{{names}}}"


def partial_conjugations(census: Census, v: int) -> list[PartialConjugation]:
    """All partial conjugations with acting vertex v, in component order."""
    census.graph.check_vertex(v)
    return [PartialConjugation(v, comp) for comp in census.star_components(v)]


def validate_partial_conjugation(g: LabelledGraph, v: int,
                                 component: frozenset) -> PartialConjugation:
    for pc in partial_conjugations(Census(g), v):
        if pc.component == component:
            return pc
    raise ValueError(
        f"{sorted(component)} is not a connected component of the graph minus "
        f"St({g.names[v]})")


def build_p0(census: Census, ordering: Sequence[int] | None = None
             ) -> tuple[PartialConjugation, ...]:
    """The generating set for the given vertex numbering, as a tuple.

    For each star cut point, the components of the punctured graph are
    ranked by their smallest-numbered vertex and the first is dropped
    (keeping it would let the generators compose to an inner conjugation).
    Default numbering is input order.
    """
    g = census.graph
    if ordering is None:
        ordering = tuple(range(g.n))
    ordering = tuple(ordering)
    if sorted(ordering) != list(range(g.n)):
        raise ValueError("ordering must be a permutation of all vertex indices")
    rank = {v: i for i, v in enumerate(ordering)}
    gens = []
    for v in range(g.n):
        pcs = partial_conjugations(census, v)
        if len(pcs) < 2:
            continue  # not a star cut point
        pcs.sort(key=lambda pc: min(rank[u] for u in pc.component))
        gens.extend(pcs[1:])
    return tuple(gens)


def commutes(census: Census, x: PartialConjugation, y: PartialConjugation) -> bool:
    """Whether two partial conjugations commute as outer automorphisms.

    Equal acting vertices commute exactly (disjoint supports).  Distinct
    vertices fail to commute iff some Sil {x, y | z} exists with one of:
    z in C = D;  x in D and z in C;  y in C and z in D;  x in D and y in C.
    """
    return _commute_rule(census.witness_mask(x.vertex, y.vertex),
                         x.vertex, vertex_mask(x.component),
                         y.vertex, vertex_mask(y.component))


def _commute_rule(witnesses: int, x: int, c: int, y: int, d: int) -> bool:
    """The rule of :func:`commutes` on masks: ``witnesses`` is the union of
    the separated components of the Sils on {x, y}, and ``c`` and ``d`` are
    the component masks of the generators acting by x and y."""
    if x == y or not witnesses:
        return True
    x_in_d = d >> x & 1
    y_in_c = c >> y & 1
    if witnesses & c and (c == d or x_in_d):
        return False
    return not (y_in_c and (witnesses & d or x_in_d))


class OutKind(enum.Enum):
    FINITE = "Finite"
    VIRTUALLY_Z = "VirtuallyZ"
    VIRTUALLY_ABELIAN_NOT_Z = "VirtuallyAbelianNotZ"
    LARGE = "Large"


@dataclass(frozen=True)
class OutClass:
    """Classification of Out(W) plus the census that decided it."""

    kind: OutKind
    coxeter_sils: int
    non_coxeter_sils: int
    stils: int
    fsils: int


def classify(census: Census) -> OutClass:
    """Large if any non-Coxeter Sil, Stil, or Fsil exists; otherwise finite
    with no Sil, virtually cyclic with exactly one, virtually abelian with
    more.  Uses no vertex numbering: the census alone decides."""
    sils, stils, fsils = census.sils, census.stils, census.fsils
    coxeter = sum(1 for s in sils if s.coxeter)
    non_coxeter = len(sils) - coxeter
    if non_coxeter or stils or fsils:
        kind = OutKind.LARGE
    elif not sils:
        kind = OutKind.FINITE
    elif len(sils) == 1:
        kind = OutKind.VIRTUALLY_Z
    else:
        kind = OutKind.VIRTUALLY_ABELIAN_NOT_Z
    return OutClass(kind, coxeter, non_coxeter, len(stils), len(fsils))


@dataclass(frozen=True)
class CommutationPresentation:
    """Generators with their orders, pairwise commutation, and a factored
    summary of the graph product they present."""

    generators: tuple[PartialConjugation, ...]
    orders: tuple[int, ...]
    commuting_edges: frozenset  # frozenset[tuple[int, int]], i < j generator indices
    summary: str


def presentation(census: Census,
                 ordering: Sequence[int] | None = None) -> CommutationPresentation:
    gens = build_p0(census, ordering)
    orders = tuple(census.graph.orders[pc.vertex] for pc in gens)
    masks = [vertex_mask(pc.component) for pc in gens]
    edges = set()
    commute = [[True] * len(gens) for _ in gens]
    for i, j in itertools.combinations(range(len(gens)), 2):
        x, y = gens[i].vertex, gens[j].vertex
        c = _commute_rule(census.witness_mask(x, y), x, masks[i], y, masks[j])
        commute[i][j] = commute[j][i] = c
        if c:
            edges.add((i, j))
    summary = factor_summary(orders, lambda i, j: commute[i][j], len(gens))
    return CommutationPresentation(gens, orders, frozenset(edges), summary)


def factor_summary(orders: Sequence[int], commute, n: int) -> str:
    """Factor a commutation graph on n generators into a product string.

    Components of the non-commutation graph always split off as direct
    factors.  A lone generator contributes a cyclic factor; a non-commuting
    pair of order-2 generators contributes D-infinity; any larger component
    is not a shape computed here and yields "unfactored graph product".
    Empty input is the trivial group "1".
    """
    if n == 0:
        return "1"
    seen = [False] * n
    dinf = 0
    cyclic: list[int] = []
    for start in range(n):
        if seen[start]:
            continue
        comp = [start]
        seen[start] = True
        frontier = [start]
        while frontier:
            i = frontier.pop()
            for j in range(n):
                if not seen[j] and not commute(i, j):
                    seen[j] = True
                    comp.append(j)
                    frontier.append(j)
        if len(comp) == 1:
            cyclic.append(orders[comp[0]])
        elif len(comp) == 2 and orders[comp[0]] == 2 and orders[comp[1]] == 2:
            dinf += 1
        else:
            return "unfactored graph product"
    factors = [DINF] * dinf + [_cyclic(m) for m in sorted(cyclic)]
    return _TIMES.join(factors)


@dataclass(frozen=True)
class DisconnectedStructure:
    """Structure report for a disconnected defining graph."""

    components: tuple[frozenset, ...]
    status: str  # "product" or "large"
    reason: str
    quotients: tuple[frozenset, ...] | None
    summary: str


def disconnected_structure(census: Census) -> DisconnectedStructure | None:
    """Quotient-product structure of the outer automorphism group when the
    graph is disconnected; None for connected graphs.

    Three or more components always force a flexible separating triple, so
    the group is large.  With exactly two components and no Stil, Fsil, or
    non-Coxeter Sil, the group is the direct product of the vertex-group
    products on each component minus its own center.
    """
    g = census.graph
    comps = census.components()
    if len(comps) <= 1:
        return None
    if len(comps) >= 3:
        return DisconnectedStructure(
            comps, "large",
            "three or more components force a flexible separating triple",
            None, "large")
    blockers = []
    if any(not s.coxeter for s in census.sils):
        blockers.append("a non-Coxeter separating pair")
    if census.stils:
        blockers.append("a separating triple")
    if census.fsils:
        blockers.append("a flexible separating triple")
    if blockers:
        return DisconnectedStructure(
            comps, "large", " and ".join(blockers) + " make the group large",
            None, "large")
    quotients = tuple(_minus_local_center(g, comp) for comp in comps)
    verts = sorted(quotients[0]) + sorted(quotients[1])
    in_first = quotients[0]

    def commute(i: int, j: int) -> bool:
        u, w = verts[i], verts[j]
        if (u in in_first) != (w in in_first):
            return True  # factors of a direct product commute
        return g.adjacent(u, w)

    summary = factor_summary([g.orders[v] for v in verts], commute, len(verts))
    return DisconnectedStructure(
        comps, "product",
        "two components, every separation is a Coxeter pair",
        quotients, summary)


def _minus_local_center(g: LabelledGraph, comp: frozenset) -> frozenset:
    """Vertices of comp not adjacent to every other vertex of comp."""
    return frozenset(v for v in comp
                     if any(u != v and not g.adjacent(u, v) for u in comp))
