"""Detection of separating intersections of links and their variants.

A separating pair (Sil) is two non-adjacent vertices whose common link,
once removed, leaves a connected component containing neither vertex.
Stil extends this to triples spanning at most one edge; Fsil is a triple
in which every pair is separated with the third vertex as witness.

Every one of these, and every star cut, is a connected component of the
graph minus some vertex set S: a common link of two or three vertices, or
a star.  A :class:`Census` holds one graph and the n + 1 splits it reads,
as component bitmasks: G minus each star, and G itself.  When it is built
it computes from them every bitmask fact: the generators, the Sil masks,
one witness index from each separated pair to the union of its separated
components, and the non-commutation rows.  Only the Sil, Stil and Fsil
objects are built on first use and kept; every consumer of one graph
reads the same census.

The Sils and Stils are read off the star splits alone.  For vertices a, b
(and c) outside a vertex set C, spanning at most one edge, C is a
component of G minus their common link iff C is a component of G - St(v)
for each of them (Lemma 2.2 and its converse): no such v has a neighbour
in C, else v would join C's component, and the neighbourhood of C lies in
every star, so in the common link.  So the census maps each component C
of some G - St(v) to the set V_C of the v it belongs to; the Sils on C are
the non-adjacent pairs in V_C and the Stils the triples in V_C spanning
at most one edge.

Cost: n + 1 BFS, one per star and one of G, plus O(sum over C of |V_C|^2)
mask operations and the output, which is O(n^3) at worst.
"""

from __future__ import annotations

from dataclasses import dataclass
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


class Census:
    """The separation census of one graph.

    The constructor computes every bitmask fact the census holds.  It
    stores the n + 1 splits it reads, as component masks ordered by lowest
    bit: ``star_splits[v]`` of G - St(v) for each vertex v, and ``split`` of
    G.  It stores ``generators``, one ``(v, C)`` per partial conjugation
    chi_{v,C} of the generating set (Gutierrez, Piggott and Ruane, Groups
    Geom. Dyn. 2012): for each star cut point v in turn, every component
    mask C of G - St(v) but the first.  From one sorted pass over the star
    splits (see the module docstring) it stores the Sil masks and the one
    witness index, ``witnesses``; and ``non_commuting``, per generator the
    mask of those it does not commute with (Sale and Susse, Trans. AMS
    2019), from g^2 / 2 witness lookups for g generators.  Only the object
    views ``sils``, ``stils`` and ``fsils`` are computed on first access,
    and each mask becomes a frozenset once, on first request, shared by
    every reader.  ``inner_verdicts`` starts empty; the oracle check of
    :mod:`silscope.harness` stores in it, per pair of generators and pair
    of acting orders, whether their commutator is inner.  Nothing is
    shared between instances, but for those made by :meth:`with_orders_of`.
    """

    def __init__(self, graph: LabelledGraph) -> None:
        self.graph = graph
        adj = graph.adj
        full = (1 << graph.n) - 1
        self.split = component_masks(adj, full)
        self.star_splits = tuple(component_masks(adj, full & ~(a | 1 << v))
                                 for v, a in enumerate(adj))
        gens = self.generators = tuple(
            (v, c) for v, split in enumerate(self.star_splits) for c in split[1:])
        owners = self._star_owners = {}  # star component C -> V_C
        for v, split in enumerate(self.star_splits):
            for mask in split:
                owners[mask] = owners.get(mask, 0) | 1 << v
        self._sets: dict = {}
        self._order_two = _order_two(graph.orders)
        self.inner_verdicts: dict = {}

        # one (a, b, lowest bit, mask) per Sil {a, b | C}, sorted: one per
        # non-adjacent pair a < b of V_C for each star component C
        found = self._sil_masks = []
        for comp, vs in owners.items():
            low_c = comp & -comp
            while vs:
                low = vs & -vs
                vs ^= low
                a = low.bit_length() - 1
                rest = vs & ~adj[a]
                while rest:
                    low = rest & -rest
                    rest ^= low
                    found.append((a, low.bit_length() - 1, low_c, comp))
        found.sort()
        # each Sil pair (a, b), a < b, to the union of its components
        wit = self.witnesses = {}
        for a, b, _, comp in found:
            wit[a, b] = wit.get((a, b), 0) | comp
        rows = [0] * len(gens)
        for i, (x, c) in enumerate(gens):
            for j, (y, d) in enumerate(gens[:i]):  # generators ascend by v
                witnesses = wit.get((y, x))
                if witnesses and not commute_rule(witnesses, x, c, y, d):
                    rows[i] |= 1 << j
                    rows[j] |= 1 << i
        self.non_commuting = tuple(rows)

    def with_orders_of(self, graph: LabelledGraph) -> Census:
        """The census of ``graph``, which has this census's names and
        adjacency but other vertex orders, built without a component
        search.  The graph, the mask of order-2 vertices and the ``sils``
        and ``fsils`` objects read orders, so they are the new graph's own.
        All else is read off the adjacency and shared: the splits, the
        generators, the Sil masks, the witness index, the non-commutation
        rows, the vertex sets, the ``stils`` if built, and
        ``inner_verdicts``, whose keys name the orders they depend on."""
        other = object.__new__(Census)
        state = vars(other)
        state.update(vars(self))
        state.pop("sils", None)
        state.pop("fsils", None)
        other.graph = graph
        other._order_two = _order_two(graph.orders)
        return other

    def components(self) -> tuple:
        """Components of the graph, as ``frozenset`` vertex sets ordered by
        smallest contained vertex."""
        return tuple(map(self._vertex_set, self.split))

    def _vertex_set(self, mask: int) -> frozenset:
        """The vertices of ``mask``, as one frozenset per distinct mask."""
        try:
            return self._sets[mask]
        except KeyError:
            vertices = self._sets[mask] = _bits_to_set(mask)
            return vertices

    def star_components(self, v: int) -> tuple:
        """Components of the graph minus St(v)."""
        return tuple(map(self._vertex_set, self.star_splits[v]))

    @cached_property
    def sils(self) -> tuple:
        return tuple(enumerate_sils(self))

    @cached_property
    def stils(self) -> tuple:
        return tuple(enumerate_stils(self))

    @cached_property
    def fsils(self) -> tuple:
        return tuple(enumerate_fsils(self))

    def sil_at(self, a: int, b: int, z: int) -> Sil | None:
        """The Sil {a, b | C} with z in C, if any: C is the component of
        G - St(a) holding z, if also one of G - St(b), and a, b non-adjacent."""
        if a == b or self.graph.adj[a] >> b & 1:
            return None
        comp = next((c for c in self.star_splits[a] if c >> z & 1), 0)
        if not self._star_owners.get(comp, 0) >> b & 1:
            return None
        two = self._order_two
        return Sil((a, b) if a < b else (b, a), self._vertex_set(comp),
                   two >> a & two >> b & 1 == 1)


def _order_two(orders: tuple) -> int:
    """The mask of the vertices of order 2."""
    return sum(1 << v for v, m in enumerate(orders) if m == 2)


def commute_rule(witnesses: int, x: int, c: int, y: int, d: int) -> bool:
    """Whether chi_{x,C} and chi_{y,D} commute in Out(W), on masks:
    ``witnesses`` is the union of the separated components of the Sils on
    {x, y}, and ``c`` and ``d`` are the masks of C and D.  Equal acting
    vertices commute; distinct ones do not iff some Sil {x, y | z} has
    z in C = D, or x in D and z in C, or y in C and z in D, or x in D and
    y in C.  The rule is symmetric in (x, C) and (y, D)."""
    if x == y or not witnesses:
        return True
    x_in_d = d >> x & 1
    y_in_c = c >> y & 1
    if witnesses & c and (c == d or x_in_d):
        return False
    return not (y_in_c and (witnesses & d or x_in_d))


def enumerate_sils(census: Census) -> list[Sil]:
    """All Sils, one per (unordered pair, separated component).

    Each star component C gives a Sil for every non-adjacent pair of V_C.
    They are sorted by pair, then by smallest contained vertex, so the
    output order is deterministic.
    """
    two = census._order_two
    return [Sil((a, b), census._vertex_set(comp), two >> a & two >> b & 1 == 1)
            for a, b, _, comp in census._sil_masks]


def is_sil(census: Census, v1: int, v2: int, z: int) -> Sil | None:
    """The Sil {v1, v2 | C} whose component C contains z, if any."""
    g = census.graph
    g.check_vertex(z)
    g.check_vertex(v1)
    g.check_vertex(v2)
    return census.sil_at(v1, v2, z)


def enumerate_stils(census: Census) -> list[Stil]:
    """All Stils, one per (triple spanning <= 1 edge, separated component).

    Each star component C gives a Stil for every triple of V_C spanning at
    most one edge.  Triples come out in lexicographic order, components in
    order of smallest contained vertex.
    """
    adj = census.graph.adj
    found = []
    for comp, owners in census._star_owners.items():
        low_c = comp & -comp
        while owners:
            low = owners & -owners
            owners ^= low
            a = low.bit_length() - 1
            rest = owners
            while rest:
                low = rest & -rest
                rest ^= low
                b = low.bit_length() - 1
                # at most one spanned edge: c is adjacent to neither a nor b
                # if ab is an edge, and not to both otherwise
                thirds = rest & ~(adj[a] | adj[b] if adj[a] & low
                                  else adj[a] & adj[b])
                while thirds:
                    low = thirds & -thirds
                    thirds ^= low
                    found.append((a, b, low.bit_length() - 1, low_c, comp))
    found.sort()
    return [Stil((a, b, c), census._vertex_set(comp))
            for a, b, c, _, comp in found]


def enumerate_fsils(census: Census) -> list[Fsil]:
    """All triples in which every pair forms a Sil witnessed by the third.

    Reads the census's witness index: c witnesses {a, b} iff bit c is set
    in the union of that pair's separated components.  The index is filled
    in pair order, so triples come out in lexicographic order.
    """
    wit = census.witnesses
    out = []
    for (v1, v2), mask in wit.items():
        rest = mask >> (v2 + 1) << (v2 + 1)  # witnesses v3 > v2
        while rest:
            low = rest & -rest
            rest ^= low
            v3 = low.bit_length() - 1
            if (wit.get((v1, v3), 0) >> v2 & 1
                    and wit.get((v2, v3), 0) >> v1 & 1):
                out.append(Fsil((v1, v2, v3),
                                (census.sil_at(v1, v2, v3),
                                 census.sil_at(v1, v3, v2),
                                 census.sil_at(v2, v3, v1))))
    return out


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
        side = next((c for c in census.star_splits[v] if c >> z & 1), 0)
        if not side:
            raise SharedComponentError(
                f"witness {g.names[z]} vanished from the graph minus St({g.names[v]})")
        sides.append(side)
    shared = census._vertex_set(sides[0])
    if sides[0] != sides[1] or not sil.component <= shared:
        raise SharedComponentError(
            f"separated component of pair ({g.names[v1]}, {g.names[v2]}) is not shared: "
            f"{sorted(shared)} vs {sorted(census._vertex_set(sides[1]))}")
    return shared
