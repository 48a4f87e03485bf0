"""Detection of separating intersections of links and their variants.

A separating pair (Sil) is two non-adjacent vertices whose common link,
once removed, leaves a connected component containing neither vertex.
Stil extends this to triples spanning at most one edge; Fsil is a triple
in which every pair is separated with the third vertex as witness.

Every one of these, and every star cut, is a connected component of the
graph minus some vertex set S: a common link of two or three vertices, or
a star.  A :class:`Census` holds one graph and the n + 1 splits it reads,
as component bitmasks: G minus each star, and G itself.  When it is built
it computes from them the generators, the Sil masks and one witness index
from each separated pair to the union of its separated components.  The
non-commutation rows it builds on first read: only the commutation
presentation, the classification report and the Lemma 1.4 oracle read
them, and the ``finite_equiv`` check asks only whether some two
generators fail to commute, which a scan answers at the first such pair.
It holds masks only, and every consumer of one graph reads the same
census: the classifier counts on the masks, the classification report and
the ``silscope sils`` listing are written from them, and the checks of
:mod:`silscope.harness` decide on them and word a failing verdict from
them.  No Sil, Stil or Fsil is ever built as an object.

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
mask operations and the output, which is O(n^3) at worst.  Two
generators can fail to commute only if their acting vertices form a Sil
pair, so the non-commutation rows, when read, cost one rule test per pair
of generators at the two vertices of each Sil pair, not per pair of all g
generators; a census whose rows are never read pays none of it.  The
Stils are counted in closed form per star component, without walking
them.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterator

from .graphs import LabelledGraph, _bits_to_set, component_masks


class Census:
    """The separation census of one graph.

    The constructor computes every bitmask fact the census holds but the
    non-commutation rows.  It stores the n + 1 splits it reads, as
    component masks ordered by lowest bit: ``star_splits[v]`` of G - St(v)
    for each vertex v, and ``split`` of G.  It stores ``generators``, one
    ``(v, C)`` per partial conjugation chi_{v,C} of the generating set
    (Gutierrez, Piggott and Ruane, Groups Geom. Dyn. 2012): for each star
    cut point v in turn, every component mask C of G - St(v) but the
    first.  One loop over the vertices builds the splits, the generators
    and each star component's owner set V_C.  From one sorted pass over the
    owner sets (see the module docstring) it stores the Sil masks and the
    one witness index, ``witnesses``.  ``non_commuting``, per generator the
    mask of those it does not commute with (Sale and Susse, Trans. AMS
    2019), is built from the witness index on first read, testing for each
    Sil pair only the generators at its two vertices; the commutation
    presentation, the classification report and the Lemma 1.4 oracle read
    it.  ``_all_commute`` reads the rows if they are built, else scans the
    same pairs up to the first that fails to commute.  The mask of the
    vertices of order 2 is computed on first read; only the Coxeter flag
    of a Sil, which the classifier, the report and the ``sils`` listing
    read, depends on vertex orders.  Nothing is shared between instances.
    """

    def __init__(self, graph: LabelledGraph) -> None:
        self.graph = graph
        adj = graph.adj
        full = (1 << graph.n) - 1
        self.split = component_masks(adj, full)
        splits, gens, first = [], [], []  # first[v]: v's first generator
        owners = self._star_owners = {}  # star component C -> V_C
        for v, a in enumerate(adj):
            split = component_masks(adj, full & ~(a | 1 << v))
            splits.append(split)
            first.append(len(gens))
            bit = 1 << v
            for mask in split:
                owners[mask] = owners.get(mask, 0) | bit
            for c in split[1:]:
                gens.append((v, c))
        self.star_splits = tuple(splits)
        self.generators = tuple(gens)

        # one (a, b, lowest bit, mask) per Sil {a, b | C}, sorted: one per
        # non-adjacent pair a < b of V_C for each star component C
        found = self._sil_masks = []
        for comp, vs in owners.items():
            if not vs & vs - 1:
                continue  # one owner: no pair
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
        self._first = first
        # the non-commutation rows, built on first read by a plain
        # property over this attribute: the oracle reads the rows of every
        # census, and in 3.11 ``cached_property`` takes a lock per census,
        # while a class ``__getattr__`` stops the specialising of every
        # attribute read on a census
        self._rows = None

    @property
    def non_commuting(self) -> tuple:
        """Per generator, the mask of the generators it does not commute
        with, built on first read."""
        rows = self._rows
        if rows is None:
            rows = [0] * len(self.generators)
            self._scan_commutation(rows)
            rows = self._rows = tuple(rows)
        return rows

    def _all_commute(self) -> bool:
        """Whether every two generators commute: read off the rows if they
        are built, else by a scan that stops at the first pair that does
        not."""
        rows = self._rows
        if rows is not None:
            return not any(rows)
        return not self._scan_commutation(None)

    def _scan_commutation(self, rows: list | None) -> bool:
        """Whether some two generators fail to commute.  Only the
        generators at the two vertices of a Sil pair can: those at x are
        tested against those at y for each pair (y, x) of the witness
        index.  With a list ``rows`` of zeros, one per generator, it sets
        in each the bits of the generators that one fails to commute with;
        with None it returns at the first such pair."""
        splits, first = self.star_splits, self._first
        found = False
        for (y, x), witnesses in self.witnesses.items():
            at_y = splits[y][1:]
            for i, c in enumerate(splits[x][1:], first[x]):
                for j, d in enumerate(at_y, first[y]):
                    if not commute_rule(witnesses, x, c, y, d):
                        if rows is None:
                            return True
                        rows[i] |= 1 << j
                        rows[j] |= 1 << i
                        found = True
        return found

    @cached_property
    def _order_two(self) -> int:
        """The mask of the vertices of order 2, computed on first read."""
        return sum(1 << v for v, m in enumerate(self.graph.orders) if m == 2)

    def components(self) -> tuple:
        """Components of the graph, as ``frozenset`` vertex sets ordered by
        smallest contained vertex."""
        return tuple(map(_bits_to_set, self.split))


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


def _stil_masks(census: Census) -> Iterator[tuple]:
    """One (a, b, c, lowest bit, mask) per Stil {a, b, c | C}, a < b < c,
    unsorted: for each star component C, the triples of V_C spanning at
    most one edge.  A check that words a Stil takes the least."""
    adj = census.graph.adj
    for comp, owners in census._star_owners.items():
        if owners.bit_count() < 3:
            continue
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
                    yield a, b, low.bit_length() - 1, low_c, comp


def _stil_count(census: Census) -> int:
    """The number of Stils, in closed form per star component C: of the
    C(k, 3) triples of V_C, k = |V_C|, those spanning two or more edges
    number sum over v of C(d_v, 2), less 2T, where d_v is v's degree in
    G[V_C] and T the number of triangles of G[V_C]: a triangle holds three
    paths of length 2, and each other such triple one."""
    adj = census.graph.adj
    count = 0
    for owners in census._star_owners.values():
        k = owners.bit_count()
        if k < 3:
            continue
        count += k * (k - 1) * (k - 2) // 6
        rest = owners
        while rest:
            low = rest & -rest
            rest ^= low
            near = adj[low.bit_length() - 1] & owners
            d = near.bit_count()
            count -= d * (d - 1) // 2
            later = near & rest  # each triangle once, from its lowest two
            while later:
                low = later & -later
                later ^= low
                count += 2 * (adj[low.bit_length() - 1] & later).bit_count()
    return count


def _fsil_triples(census: Census) -> Iterator[tuple]:
    """Each triple (v1, v2, v3), v1 < v2 < v3, in which every pair forms a
    Sil witnessed by the third, in lexicographic order.

    Reads the census's witness index: c witnesses {a, b} iff bit c is set
    in the union of that pair's separated components.  The index is filled
    in pair order, so the triples come out sorted.
    """
    wit = census.witnesses
    for (v1, v2), mask in wit.items():
        rest = mask >> (v2 + 1) << (v2 + 1)  # witnesses v3 > v2
        while rest:
            low = rest & -rest
            rest ^= low
            v3 = low.bit_length() - 1
            if (wit.get((v1, v3), 0) >> v2 & 1
                    and wit.get((v2, v3), 0) >> v1 & 1):
                yield v1, v2, v3
