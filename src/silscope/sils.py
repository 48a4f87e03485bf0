"""Detection of separating intersections of links and their variants.

A separating pair (Sil) is two non-adjacent vertices whose common link,
once removed, leaves a connected component containing neither vertex.
Stil extends this to triples spanning at most one edge; Fsil is a triple
in which every pair is separated with the third vertex as witness.

Every one of these, and every star cut, is a connected component of the
graph minus some vertex set S: a common link of two or three vertices, or
a star.  A :class:`Census` holds one graph and a memo from the bitmask of
S to the component bitmasks of G - S, so each distinct S costs one BFS
however many pairs, triples and stars share it.  The census computes the
Sils, Stils and Fsils on first use and keeps them; every consumer of one
graph reads the same census.

Cost: O(n^2 + sum over pairs {a, b} of |N(L_ab)|) mask operations and
memo lookups, where L_ab is the common link of a and b and N(L_ab) its
neighbourhood, plus one BFS per distinct removed set.  A third vertex c
outside N(L_ab) has an empty triple link, and G - {} = G strands no
component avoiding a, b and c unless G already strands one avoiding a
and b; only then are all c scanned, so the scan is O(n^3) at worst on
disconnected graphs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

from .graphs import LabelledGraph, _bits_to_set, component_masks


class SharedComponentError(RuntimeError):
    """Internal consistency violation: a separating pair whose separated
    component is not a common component of both punctured graphs."""


@dataclass(frozen=True)
class Sil:
    """A separating intersection of links {v1, v2 | C}."""

    pair: tuple[int, int]  # sorted, non-adjacent
    component: frozenset
    coxeter: bool


@dataclass(frozen=True)
class Stil:
    """A separating triple intersection of links {v1, v2, v3 | C}."""

    triple: tuple[int, int, int]  # sorted; spans at most one edge
    component: frozenset


@dataclass(frozen=True)
class Fsil:
    """A flexible triple: each pair is separated with the third as witness.

    ``sils`` holds one witnessing Sil per pair, ordered like the pairs
    (v1,v2), (v1,v3), (v2,v3).
    """

    triple: tuple[int, int, int]
    sils: tuple[Sil, Sil, Sil]


def vertex_mask(vertices) -> int:
    """The bitmask with bit v set for every vertex v."""
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


@dataclass(frozen=True, eq=False)
class Census:
    """The separation census of one graph, computed lazily and once.

    The memo maps each removed-vertex bitmask to the component bitmasks
    of the rest; ``components(removed)`` turns them into frozensets on
    first request and keeps those too.  The Sil, Stil and Fsil lists and
    the per-pair witness index are computed on first access.  Nothing is
    shared between instances.
    """

    graph: LabelledGraph
    _masks: dict = field(default_factory=dict, init=False, repr=False)
    _sets: dict = field(default_factory=dict, init=False, repr=False)

    def _split(self, removed: int) -> tuple:
        """Component bitmasks of G - removed, ordered by lowest bit."""
        try:
            return self._masks[removed]
        except KeyError:
            g = self.graph
            masks = self._masks[removed] = component_masks(
                g.adj, ((1 << g.n) - 1) & ~removed)
            return masks

    def components(self, removed: int = 0) -> tuple:
        """Components of the graph minus the vertex bitmask ``removed``, as
        ``frozenset`` vertex sets ordered by smallest contained vertex."""
        try:
            return self._sets[removed]
        except KeyError:
            sets = self._sets[removed] = tuple(
                _bits_to_set(m) for m in self._split(removed))
            return sets

    def star_components(self, v: int) -> tuple:
        """Components of the graph minus St(v)."""
        return self.components(self.graph.adj[v] | 1 << v)

    @cached_property
    def sils(self) -> tuple:
        return tuple(enumerate_sils(self))

    @cached_property
    def stils(self) -> tuple:
        return tuple(enumerate_stils(self))

    @cached_property
    def fsils(self) -> tuple:
        return tuple(enumerate_fsils(self))

    @cached_property
    def _by_pair(self) -> dict:
        by_pair: dict = {}
        for sil in self.sils:
            by_pair.setdefault(sil.pair, []).append(sil)
        return by_pair

    @cached_property
    def _witness_masks(self) -> dict:
        return {pair: vertex_mask(v for s in sils for v in s.component)
                for pair, sils in self._by_pair.items()}

    def sils_on(self, a: int, b: int) -> list:
        """The Sils on the pair {a, b}, in component order."""
        return self._by_pair.get((a, b) if a < b else (b, a), [])

    def witness_mask(self, a: int, b: int) -> int:
        """Union of the separated components of all Sils on {a, b}."""
        return self._witness_masks.get((a, b) if a < b else (b, a), 0)


def enumerate_sils(census: Census) -> list[Sil]:
    """All Sils, one per (unordered pair, separated component).

    Pairs are visited in lexicographic order and components in order of
    smallest contained index, so the output order is deterministic.
    """
    g = census.graph
    adj = g.adj
    out = []
    for v1, v2 in itertools.combinations(range(g.n), 2):
        if adj[v1] >> v2 & 1:
            continue
        pair = 1 << v1 | 1 << v2
        coxeter = g.orders[v1] == 2 and g.orders[v2] == 2
        for mask in census._split(adj[v1] & adj[v2]):
            if not mask & pair:
                out.append(Sil((v1, v2), _bits_to_set(mask), coxeter))
    return out


def is_sil(g: LabelledGraph, v1: int, v2: int, z: int) -> Sil | None:
    """The Sil {v1, v2 | C} whose component C contains z, if any."""
    g.check_vertex(z)
    g.check_vertex(v1)
    g.check_vertex(v2)
    return next((s for s in Census(g).sils_on(v1, v2) if z in s.component),
                None)


def enumerate_stils(census: Census) -> list[Stil]:
    """All Stils, one per (triple spanning <= 1 edge, separated component).

    Triples come out in lexicographic order, components in order of
    smallest contained vertex.  For a pair {a, b} with common link L, only
    third vertices c in N(L) are scanned unless G itself has a component
    avoiding a and b (see the module docstring).  The common link of a
    triple is the memo key, so triples sharing a common link share one BFS.
    """
    adj = census.graph.adj
    n = census.graph.n
    full = (1 << n) - 1
    whole = census._split(0)
    out = []
    for a in range(n):
        for b in range(a + 1, n):
            pair = 1 << a | 1 << b
            link = adj[a] & adj[b]
            if len(whole) > 1 and any(not mask & pair for mask in whole):
                thirds = full  # G strands a component avoiding a and b
            else:
                thirds = 0  # N(link): the c whose triple link is non-empty
                rest = link
                while rest:
                    low = rest & -rest
                    rest ^= low
                    thirds |= adj[low.bit_length() - 1]
            # at most one spanned edge: c is adjacent to neither a nor b if
            # ab is an edge, and not to both otherwise
            thirds &= ~(adj[a] | adj[b]) if adj[a] >> b & 1 else ~link
            thirds = thirds >> (b + 1) << (b + 1)
            while thirds:
                low = thirds & -thirds
                thirds ^= low
                c = low.bit_length() - 1
                triple = pair | low
                for mask in census._split(link & adj[c]):
                    if not mask & triple:
                        out.append(Stil((a, b, c), _bits_to_set(mask)))
    return out


def enumerate_fsils(census: Census) -> list[Fsil]:
    """All triples in which every pair forms a Sil witnessed by the third.

    Reads the census's per-pair witness masks: c witnesses {a, b} iff bit
    c is set in the union of that pair's separated components.  Triples
    come out in lexicographic order.
    """
    wit = census._witness_masks
    out = []
    for (v1, v2), mask in sorted(wit.items()):
        rest = mask >> (v2 + 1) << (v2 + 1)  # witnesses v3 > v2
        while rest:
            low = rest & -rest
            rest ^= low
            v3 = low.bit_length() - 1
            if (wit.get((v1, v3), 0) >> v2 & 1
                    and wit.get((v2, v3), 0) >> v1 & 1):
                out.append(Fsil((v1, v2, v3),
                                (_witnessed(census, v1, v2, v3),
                                 _witnessed(census, v1, v3, v2),
                                 _witnessed(census, v2, v3, v1))))
    return out


def _witnessed(census: Census, a: int, b: int, c: int) -> Sil:
    return next(s for s in census.sils_on(a, b) if c in s.component)


def shared_sil_component(census: Census, sil: Sil) -> frozenset:
    """The common connected component of both punctured graphs.

    For a Sil {v1, v2 | C}, C is simultaneously a connected component of
    the graph minus St(v1) and of the graph minus St(v2); this returns it
    after verifying both memberships.  A mismatch would contradict the
    correspondence between Sils and pairs of partial conjugations and is
    raised as :class:`SharedComponentError`.
    """
    g = census.graph
    v1, v2 = sil.pair
    z = min(sil.component)
    sides = []
    for v in (v1, v2):
        for comp in census.star_components(v):
            if z in comp:
                sides.append(comp)
                break
        else:
            raise SharedComponentError(
                f"witness {g.names[z]} vanished from the graph minus St({g.names[v]})")
    if sides[0] != sides[1] or not sil.component <= sides[0]:
        raise SharedComponentError(
            f"separated component of pair ({g.names[v1]}, {g.names[v2]}) is not shared: "
            f"{sorted(sides[0])} vs {sorted(sides[1])}")
    return sides[0]
