"""Partial conjugations and the four-way classification of Out(W).

Each star cut point v acts in one partial conjugation per connected
component of the graph minus St(v).  The generating set,
``Census.generators``, drops for every star cut point the component that
holds the smallest-numbered vertex; the group those generators present is
a finite index subgroup of Out(W).  The numbering is the input order of
the vertices; there is no other.

Classification itself never looks at generators: it is a pure census of
separating pairs and triples.  The commutation presentation is a candidate
shape, proven exact only for disconnected graphs without flexible or
triple separations, and its summary depends on the input numbering: 8 of
the 1,252 classes of dedup n <= 7 {2} get "unfactored graph product"
under input numbering although none is ``Large``.  No choice of dropped
components mends that: three ``VirtuallyAbelianNotZ`` classes of dedup
n <= 8 {2} (edges v1v4 v1v6 v1v8 v2v4 v2v5 v2v7 v3v4 v3v5 v3v6, alone or
plus v1v3, or plus v1v3 and v2v3) get "unfactored graph product" under
all 32 choices (ROADMAP open item 1).
"""

from __future__ import annotations

import enum
import json
from typing import NamedTuple, Sequence

from .graphs import (GraphError, LabelledGraph, _bits_to_set, component_masks,
                     vertex_names)
from .sils import Census, _fsil_triples, _stil_count

DINF = "D∞"  # D-infinity, the infinite dihedral group
_TIMES = " × "


def _cyclic(order: int) -> str:
    return f"ℤ/{order}ℤ"


class PartialConjugation(NamedTuple):
    """chi_{v,C}: conjugate the component C of the graph minus St(v) by v."""

    vertex: int
    component: frozenset

    def label(self, g: LabelledGraph) -> str:
        names = ",".join(vertex_names(g, self.component))
        return f"chi {g.names[self.vertex]} {{{names}}}"


def validate_partial_conjugation(census: Census, v: int,
                                 component: frozenset) -> PartialConjugation:
    """chi_{v,C} if C is a component of G - St(v), else GraphError."""
    g = census.graph
    g.check_vertex(v)
    if sum(1 << g.check_vertex(u) for u in component) in census.star_splits[v]:
        return PartialConjugation(v, component)
    names = json.dumps(vertex_names(g, component), ensure_ascii=False)
    raise GraphError(
        f"{names} is not a connected component of the graph minus "
        f"St({g.names[v]})")


def build_p0(census: Census) -> tuple[PartialConjugation, ...]:
    """The generating set, as a tuple.

    For each star cut point, the components of the punctured graph are
    ranked by their smallest-numbered vertex and the first is dropped
    (keeping it would let the generators compose to an inner conjugation).
    The numbering is the graph's own, the input order; to renumber, relabel
    the graph (:meth:`LabelledGraph.relabelled`).
    """
    return tuple(PartialConjugation(v, _bits_to_set(c))
                 for v, c in census.generators)


class OutKind(enum.Enum):
    FINITE = "Finite"
    VIRTUALLY_Z = "VirtuallyZ"
    VIRTUALLY_ABELIAN_NOT_Z = "VirtuallyAbelianNotZ"
    LARGE = "Large"


class OutClass(NamedTuple):
    """Classification of Out(W) plus the census that decided it."""

    kind: OutKind
    coxeter_sils: int
    non_coxeter_sils: int
    stils: int
    fsils: int


def classify(census: Census) -> OutClass:
    """Large if any non-Coxeter Sil, Stil, or Fsil exists; otherwise finite
    with no Sil, virtually cyclic with exactly one, virtually abelian with
    more.  Uses no vertex numbering: the census alone decides.  Counts on
    the census's masks, building no Sil, Stil or Fsil object, and counts
    the Stils in closed form (``_stil_count``)."""
    sils, two = census._sil_masks, census._order_two
    coxeter = sum(two >> a & two >> b & 1 for a, b, _, _ in sils)
    non_coxeter = len(sils) - coxeter
    stils = _stil_count(census)
    fsils = sum(1 for _ in _fsil_triples(census))
    if non_coxeter or stils or fsils:
        kind = OutKind.LARGE
    elif not sils:
        kind = OutKind.FINITE
    elif len(sils) == 1:
        kind = OutKind.VIRTUALLY_Z
    else:
        kind = OutKind.VIRTUALLY_ABELIAN_NOT_Z
    return OutClass(kind, coxeter, non_coxeter, stils, fsils)


class CommutationPresentation(NamedTuple):
    """Generators with their orders, pairwise commutation, and a factored
    summary of the graph product they present."""

    generators: tuple[PartialConjugation, ...]
    orders: tuple[int, ...]
    commuting_edges: frozenset  # frozenset[tuple[int, int]], i < j generator indices
    summary: str


def presentation(census: Census) -> CommutationPresentation:
    gens, rows = census.generators, census.non_commuting
    orders = tuple(census.graph.orders[v] for v, _ in gens)
    edges = frozenset((i, j) for i, row in enumerate(rows)
                      for j in range(i + 1, len(rows)) if not row >> j & 1)
    return CommutationPresentation(build_p0(census), orders, edges,
                                   factor_summary(orders, rows))


def factor_summary(orders: Sequence[int], rows: Sequence[int]) -> str:
    """Factor a commutation graph into a product string; ``rows[i]`` masks
    the generators that generator i does not commute with.

    Components of the non-commutation graph always split off as direct
    factors.  A lone generator contributes a cyclic factor; a non-commuting
    pair of order-2 generators contributes D-infinity; any larger component
    is not a shape computed here and yields "unfactored graph product".
    Empty input is the trivial group "1".
    """
    dinf = 0
    cyclic: list[int] = []
    for comp in component_masks(rows, (1 << len(rows)) - 1):
        first, last = (comp & -comp).bit_length() - 1, comp.bit_length() - 1
        if first == last:
            cyclic.append(orders[first])
        elif comp.bit_count() == 2 and orders[first] == orders[last] == 2:
            dinf += 1
        else:
            return "unfactored graph product"
    factors = [DINF] * dinf + [_cyclic(m) for m in sorted(cyclic)]
    return _TIMES.join(factors) or "1"


class DisconnectedStructure(NamedTuple):
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
    the group is large.  With exactly two components, :func:`classify`
    decides largeness, and its counts name what makes the group large;
    otherwise the group is the direct product of the vertex-group
    products on each component minus its own center.
    """
    if len(census.split) <= 1:
        return None
    g = census.graph
    comps = census.components()
    if len(comps) >= 3:
        return DisconnectedStructure(
            comps, "large",
            "three or more components force a flexible separating triple",
            None, "large")
    out = classify(census)
    if out.kind is OutKind.LARGE:
        blockers = [why for count, why in (
            (out.non_coxeter_sils, "a non-Coxeter separating pair"),
            (out.stils, "a separating triple"),
            (out.fsils, "a flexible separating triple")) if count]
        verb = "makes" if len(blockers) == 1 else "make"
        return DisconnectedStructure(
            comps, "large", f"{' and '.join(blockers)} {verb} the group large",
            None, "large")
    quotients = tuple(_minus_local_center(g, comp) for comp in comps)
    verts = sorted(quotients[0]) + sorted(quotients[1])
    first = quotients[0]
    # factors of a direct product commute; within one, non-adjacent
    # vertices do not
    rows = [sum(1 << j for j, u in enumerate(verts)
                if u != v and (u in first) == (v in first)
                and not g.adjacent(u, v))
            for v in verts]
    summary = factor_summary([g.orders[v] for v in verts], rows)
    return DisconnectedStructure(
        comps, "product",
        "two components, every separation is a Coxeter pair",
        quotients, summary)


def _minus_local_center(g: LabelledGraph, comp: frozenset) -> frozenset:
    """Vertices of comp not adjacent to every other vertex of comp."""
    return frozenset(v for v in comp
                     if any(u != v and not g.adjacent(u, v) for u in comp))
