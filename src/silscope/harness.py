"""Exhaustive small-graph enumeration and the property suite run over it.

Every check encodes a structural fact that must hold for all labelled
graphs (shared separated components, separation counts versus triple
separations, the commutation predicate versus exact innerness, ...).
The suite enumerates all graphs up to a vertex bound, optionally one
representative per isomorphism class, runs each requested check, and
reports counterexamples; an empty report is the expected outcome.

Checks are pure functions of the graph's census that return a verdict:
``None`` when the check holds, else ``(witness, message)``.  Only the suite
driver turns a verdict into a :class:`CounterexampleReport`, naming the
check and the graph.  A check reads only the adjacency, never a vertex
order (the contract stated beside ``CHECKS``), so the enumeration yields
mask records, one per edge mask: the mask's first graph, the number of its
kept order tuples, and with dedup one automorphism per coset of the group
that permutes each twin class, over which Burnside's lemma counts them.
Each mask extends a smaller one by the row of a new vertex, and with dedup
one minimality search per smaller graph decides every row at once.  One
:class:`Census` of a record's graph serves every check, once for the whole
mask, and each verdict stands for every kept order tuple, none of which
is listed: a failing verdict is one report per (mask, check), on the
mask's first graph, whose ``order_tuples`` is the record's count.  The
census checks decide on the census's bitmasks, and word a failing verdict
from them too.  So does the Lemma 1.4 oracle: whether the commutator of
two generators is inner has a closed form on their masks, which reads no
vertex order (see ``_is_inner``).  The tests check that form against the
word engine of :mod:`silscope.words` on every syntactic case, and the
suite loads no word engine.  The suite streams: the records are cut into
chunks of ``CHUNK_SIZE`` records, each chunk is checked in this process or
by a worker process, and the results are joined in chunk order.  Reports
therefore come out in enumeration order, and in check-id order per mask,
whatever the number of workers.
"""

from __future__ import annotations

import itertools
import json
import os
from collections import deque
from dataclasses import dataclass
from math import comb, prod
from typing import Iterator, Optional

from .graphs import (MAX_ORDER, GraphError, LabelledGraph, _bits_to_set,
                     component_masks, is_vertex_order, to_json_dict,
                     vertex_names)
from .outer import PartialConjugation
from .sils import Census, _fsil_triples, _stil_masks

MAX_ENUMERATION_VERTICES = 9
# without dedup, n = 7 has 2^21 edge masks, 73 s of all nine checks in one
# process (Python 3.11.7, 2 CPUs), and n = 8 has 2^28, hours
MAX_LABELLED_VERTICES = 7
# mask records per task: enough checks to outweigh a round trip through
# the pool, few enough that the chunks in flight hold little memory
CHUNK_SIZE = 256


@dataclass(frozen=True)
class CounterexampleReport:
    """A check that failed on an edge mask, with enough data to replay it:
    ``CHECKS[report.check](Census(from_json_dict(report.graph)))`` returns
    ``(report.witness, report.message)``.  ``graph`` is the mask's graph
    under its all-smallest order tuple, and ``order_tuples`` the number of
    the mask's kept order tuples: a check reads no vertex order, so the
    verdict stands for the graph under each of them."""

    check: str
    graph: dict
    witness: dict
    message: str
    order_tuples: int

    def to_json_line(self) -> str:
        return json.dumps({"check": self.check, "graph": self.graph,
                           "witness": self.witness, "message": self.message,
                           "order_tuples": self.order_tuples},
                          sort_keys=True, ensure_ascii=False)


# ---------------------------------------------------------------------------
# Enumeration


def _row_sets(m: int) -> tuple:
    """The row sets of a level whose parents have ``m`` vertices, each a
    set of rows of a new vertex 0 given as the bits of one int (bit r for
    row r): all 2^m rows, and for each vertex c of the child the rows that
    make it adjacent to vertex 0, those with bit c-1 set (entry 0 is
    unused)."""
    rows = range(1 << m)
    adjacent = [0] + [sum(1 << r for r in rows if r >> i & 1)
                      for i in range(m)]
    return (1 << len(rows)) - 1, tuple(adjacent)


class _RowSearch:
    """What one ``_minimal_rows`` search reads and builds.  ``adj`` is the
    child's adjacency without vertex 0 (vertex c is parent vertex c-1),
    ``rows[d]`` the child's row at position n-1-d, d < n-1, which is the
    parent's and so the same on every row of vertex 0, and ``full`` and
    ``adjacent`` the row sets of ``_row_sets``.  ``twins[v]`` lists the
    pairs (w, rows), w > v, of the rows on which v and w are twins of the
    child.  The search adds to ``dead`` the rows whose child it proves not
    minimal, and to ``found`` each automorphism with the rows whose search
    lists it."""

    __slots__ = ("adj", "rows", "full", "adjacent", "twins", "dead", "found")


def _minimal_rows(padj: tuple, sets: tuple) -> dict:
    """Every row of a new vertex 0 over the minimal graph ``padj`` whose
    child's edge mask no relabelling lowers, ascending, each with the
    automorphisms (position -> vertex) of its child that the child's
    minimality search lists, in the search's order.  ``sets`` is
    ``_row_sets(len(padj))``.

    The child's mask has row n-2 as its top bits, then n-3, ..., row p
    holding the edges from p to p+1.. (p+1 lowest).  The search fills
    positions n-1, n-2, ...: a free vertex whose row against the placed
    ones is below the child's disproves minimality, one above ends its
    branch.  Free twins tie together, and only the highest is tried, so
    one automorphism is listed per coset of the group that permutes each
    twin class (see ``_orbit_count``): the one increasing on every class.
    The child's own numbering is tried first, so the identity comes first.

    One search serves all 2^(n-1) rows at once: each node carries the set
    of rows whose own search reaches it.  In every child, rows 1..n-1 are
    the parent's, and only vertex 0's adjacency depends on the row: to
    vertex c on the rows with bit c-1 set.  Parent vertices i and j that
    are twins stay twins on the rows where bits i and j agree, and vertex 0
    is a twin of parent vertex j on the rows ``padj[j]`` and
    ``padj[j] | 1 << j`` only.  So each row's search visits the same nodes
    in the same order as a search of its child alone."""
    full, adjacent = sets
    n = len(padj) + 1
    search = _RowSearch()
    search.adj = (0,) + tuple(a << 1 for a in padj)
    search.rows = [padj[p - 1] >> p for p in range(n - 1, 0, -1)]
    search.full, search.adjacent = full, adjacent
    search.dead, search.found = 0, []
    search.twins = [[(j + 1, 1 << a | 1 << (a | 1 << j))
                     for j, a in enumerate(padj)]] + [[] for _ in padj]
    for i, j in itertools.combinations(range(n - 1), 2):
        if padj[i] & ~(1 << j) == padj[j] & ~(1 << i):
            search.twins[i + 1].append(
                (j + 1, full & ~(adjacent[i + 1] ^ adjacent[j + 1])))
    _fill_rows(search, [], (1 << n) - 1, full)
    alive = full & ~search.dead
    auts: dict = {}
    while alive:
        low = alive & -alive
        auts[low.bit_length() - 1] = []
        alive ^= low
    for rows, perm in search.found:
        rows &= ~search.dead
        while rows:
            low = rows & -rows
            auts[low.bit_length() - 1].append(perm)
            rows ^= low
    return auts


def _fill_rows(search: _RowSearch, placed: list, free: int, live: int) -> None:
    """One step of ``_minimal_rows`` for the rows ``live``: place one of the
    vertices of the mask ``free`` at the highest empty position p, after
    ``placed``, the vertices of positions n-1, n-2, ..., p+1.  Bit k of
    row p stands for position p+1+k, so ``placed`` meets the row's bits
    from the highest down.  While vertex 0 is free, the parent vertices'
    rows against the placed ones are the same on every row of vertex 0:
    one AND per placed vertex narrows those that tie with the row, as in a
    search of one child, and a tie below the row disproves all of
    ``live``.  Vertex 0's own row is met by one AND per placed vertex on
    row sets.  Once vertex 0 is placed, its bit splits each parent vertex's
    row into two row sets.  The ties left are tried from the highest
    vertex down, each on the rows it ties on.  Not a closure, so that no
    call leaves a cycle."""
    bit = len(placed)
    if not free & free - 1:
        _fill_last(search, placed, free.bit_length() - 1, live)
        return
    adj, adjacent = search.adj, search.adjacent
    row = search.rows[bit]
    ties = {}  # vertex: the rows it ties on, highest vertex first
    if free & 1:
        tie = free ^ 1
        eq0, lt0 = live, 0
        for u in placed:
            bit -= 1
            a, x = adj[u], adjacent[u]
            if row >> bit & 1:
                if tie & ~a:
                    search.dead |= live
                    return
                tie &= a
                lt0 |= eq0 & ~x
                eq0 &= x
            else:
                tie &= ~a
                eq0 &= ~x
        if lt0:
            search.dead |= lt0
            live &= ~lt0
        while tie:
            v = tie.bit_length() - 1
            ties[v] = live
            tie ^= 1 << v
        if eq0:
            ties[0] = eq0
    else:
        # before vertex 0's position a tie below the row disproves all of
        # live; after it, only the rows on which that vertex still ties
        tie, lt, split = free, 0, -1  # split: the row's bit at vertex 0
        for u in placed:
            bit -= 1
            if not u:
                split, pre = row >> bit & 1, tie
                continue
            a = adj[u]
            if row >> bit & 1:
                if tie & ~a:
                    if split < 0:
                        search.dead |= live
                        return
                    lt |= tie & ~a
                tie &= a
            else:
                tie &= ~a
        dead = 0
        while pre:
            v = pre.bit_length() - 1
            pre ^= 1 << v
            x = adjacent[v]
            if split:
                dead |= live & ~x
                x &= live
            else:
                x = live & ~x
            if lt >> v & 1:
                dead |= x
            elif tie >> v & 1 and x:
                ties[v] = x
        if dead:
            search.dead |= dead
    twins = search.twins
    for v, rows in ties.items():
        rows &= ~search.dead
        for w, on in twins[v]:  # w > v, so w was tried first
            if w in ties:
                rows &= ~(ties[w] & on)
        if rows:
            placed.append(v)
            _fill_rows(search, placed, free ^ 1 << v, rows)
            placed.pop()


def _fill_last(search: _RowSearch, placed: list, v: int, live: int) -> None:
    """The last step of ``_minimal_rows``: vertex ``v`` at position 0, whose
    row is the row r of vertex 0 itself, so it differs from row to row."""
    adjacent = search.adjacent
    bit = len(placed)
    if v:
        # v's row is fixed but for its bit at vertex 0's position, which
        # is set on the rows adjacent to v: w0 without it, w1 with it
        w0 = 0
        for u in placed:
            bit -= 1
            if not u:
                k0 = bit
            elif search.adj[u] >> v & 1:
                w0 |= 1 << bit
        w1 = w0 | 1 << k0
        x, full = adjacent[v], search.full
        lt = live & (x & full >> w1 + 1 << w1 + 1
                     | ~x & full >> w0 + 1 << w0 + 1)
        eq = live & (x & 1 << w1 | ~x & 1 << w0)
    else:
        # bit k of vertex 0's row is bit u-1 of r, for u at position k+1
        eq, lt = live, 0
        for u in placed:
            bit -= 1
            if u != bit + 1:
                a, b = adjacent[u], adjacent[bit + 1]
                lt |= eq & b & ~a
                eq &= ~(a ^ b)
    if lt:
        search.dead |= lt
    if eq:
        search.found.append((eq, (v,) + tuple(reversed(placed))))


def enumerate_graphs(spec: EnumSpec) -> Iterator[tuple]:
    """All labelled graphs up to the vertex bound, in ascending (n, edge
    mask, order tuple), as one mask record per edge mask; bit k of the mask
    is the k-th pair (i, j), i < j.  A mask record is a triple ``(first,
    count, auts)``: the mask's graph under the all-smallest order tuple,
    the number of its kept order tuples, and, with dedup over two or more
    orders, one automorphism (position -> vertex) per twin-class coset,
    identity left out (see ``_orbit_count``), else ``()``.  No kept tuple
    is listed.

    The pairs without vertex 0 are the high bits, so mask(G) = mask(G - v0)
    << n-1 | row(v0): each mask on n-1 vertices, ascending, is extended by
    the rows of v0, ascending.  Without dedup every row is kept, and all
    k^n order tuples over k orders.  With dedup, each class comes once, as
    its minimal encoding, by orderly generation (Read, Ann. Discrete Math.
    2, 1978; McKay, J. Algorithms 26, 1998): G - v0 is minimal when G is,
    and one search per minimal parent keeps the rows whose child is
    minimal (see ``_minimal_rows``).  An order tuple is kept iff no
    automorphism makes it lexicographically smaller, so one per orbit.
    """
    k, dedup = len(spec.orders), spec.dedup_isomorphic
    # C(t + k - 1, k - 1), the multisets over k orders on a twin class of
    # t vertices (see ``_orbit_count``)
    weight = tuple(comb(t + k - 1, k - 1)
                   for t in range(spec.max_vertices + 1))
    level: list = [()]  # each graph on n-1 vertices, minimal with dedup
    for n in range(1, spec.max_vertices + 1):
        names = tuple(f"v{i + 1}" for i in range(n))
        first = spec.orders[:1] * n
        if dedup:
            sets = _row_sets(n - 1)
        else:
            every_row = dict.fromkeys(range(1 << n - 1), ())
        children = []
        for padj in level:
            found = _minimal_rows(padj, sets) if dedup else every_row
            for row, auts in found.items():
                adj = (row << 1,) + tuple(a << 1 | row >> i & 1
                                          for i, a in enumerate(padj))
                if n < spec.max_vertices:  # the next level's parents
                    children.append(adj)
                if dedup and k > 1:
                    auts = tuple(auts[1:])  # auts[0] is the identity
                    yield (LabelledGraph(names, first, adj),
                           _orbit_count(weight, adj, auts), auts)
                else:
                    yield LabelledGraph(names, first, adj), k ** n, ()
        level = children


def _twin_lows(adj: tuple) -> tuple:
    """The lowest twin of each vertex of ``adj``, which names its twin
    class, and the size of each class keyed by that name, ascending.  Twins
    u, v have N(u) - v = N(v) - u, an equivalence: N(u) = N(v) if they are
    not adjacent, N[u] = N[v] if they are, and no vertex has twins of both
    kinds: for a non-adjacent twin w of v and an adjacent twin u, u is in
    N(v) = N(w), so w is in N[u] = N[v] and adjacent to v.  So one pass
    finds each class by two keys: the first vertex seen with the open
    neighbourhood ``adj[v]``, and the first with the closed one
    ``adj[v] | 1 << v``; the lower of the two is v's lowest twin, v itself
    if it has none."""
    apart, together = {}, {}  # neighbourhood: its lowest vertex
    low, size = [], {}
    for v, a in enumerate(adj):
        u = apart.setdefault(a, v)
        w = together.setdefault(a | 1 << v, v)
        if w < u:
            u = w
        low.append(u)
        size[u] = size.get(u, 0) + 1
    return low, size


def _orbit_count(weight: tuple, adj: tuple, auts: tuple) -> int:
    """The number of orbits of the automorphisms of ``adj`` on the tuples
    over k orders, by Burnside's lemma over the cosets of the normal
    subgroup S that permutes each twin class: R, the identity and
    ``auts``, holds one r per coset.  An orbit of S is a multiset on each
    class, ``weight[t]`` = C(t + k - 1, k - 1) on t vertices, and rS fixes
    it iff it is constant on each cycle of r on the classes, walked from
    its lowest.  With no r but the identity, the count is the product of
    the weights."""
    low, size = _twin_lows(adj)
    total = prod(map(weight.__getitem__, size.values()))
    if not auts:
        return total
    for perm in auts:
        fixed, seen = 1, 0
        for u, t in size.items():
            if not seen >> u & 1:
                fixed *= weight[t]
                v = low[perm[u]]
                while v != u:
                    seen |= 1 << v
                    v = low[perm[v]]
        total += fixed
    return total // (len(auts) + 1)


# ---------------------------------------------------------------------------
# Checks: each takes the census and returns None or (witness, message)


def check_lemma_2_2(census: Census) -> Optional[tuple]:
    """Every separating pair shares its separated component on both sides.

    The census reads each Sil off a component shared by both star splits,
    so that holds by construction.  As evidence of its own, a search here
    checks that C of {a, b | C} is a component of G minus lk(a) & lk(b):
    one search per pair, as the Sils come sorted by pair.  Only a Sil that
    fails that test is looked at again, by ``_lemma_2_2_verdict``.
    """
    g = census.graph
    full = (1 << g.n) - 1
    owners = census._star_owners
    pair = None
    for a, b, _, mask in census._sil_masks:
        if (a, b) != pair:
            pair = a, b
            split = component_masks(g.adj, full & ~(g.adj[a] & g.adj[b]))
        ends = 1 << a | 1 << b
        if (owners.get(mask, 0) & ends != ends or mask & ends
                or mask not in split):
            verdict = _lemma_2_2_verdict(census, a, b, mask, split)
            if verdict:
                return verdict
    return None


def _lemma_2_2_verdict(census: Census, a: int, b: int, mask: int,
                       split: tuple) -> Optional[tuple]:
    """``check_lemma_2_2`` on the Sil {a, b | C} of component mask ``mask``,
    with ``split`` the components of G minus the common link of a and b.
    The message names the first failure: the lowest vertex z of C is in
    no component of G - St(v), for v = a and then b; the components of
    G - St(a) and G - St(b) holding z differ, or the first misses part of
    C; or C is no component of ``split``, or holds a or b."""
    g = census.graph
    names = g.names
    z = (mask & -mask).bit_length() - 1
    sides = [next((c for c in census.star_splits[v] if c >> z & 1), 0)
             for v in (a, b)]
    if not all(sides):
        v = b if sides[0] else a
        message = (f"witness {names[z]} vanished from the graph minus "
                   f"St({names[v]})")
    elif sides[0] != sides[1] or mask & ~sides[0]:
        first, second = (sorted(_bits_to_set(side)) for side in sides)
        message = (f"separated component of pair ({names[a]}, {names[b]}) "
                   f"is not shared: {first} vs {second}")
    elif mask & (1 << a | 1 << b) or mask not in split:
        message = (f"separated component of pair ({names[a]}, {names[b]}) "
                   "is not a component of the graph minus their common link")
    else:
        return None
    return ({"pair": vertex_names(g, (a, b)),
             "component": vertex_names(g, _bits_to_set(mask))}, message)


def check_lemma_4(census: Census) -> Optional[tuple]:
    """A graph with exactly one separating pair has no separating triple."""
    if len(census._sil_masks) != 1:
        return None
    stil = min(_stil_masks(census), default=None)  # the first in sorted order
    if stil is None:
        return None
    g = census.graph
    a, b, c, _, mask = stil
    return ({"triple": vertex_names(g, (a, b, c)),
             "component": vertex_names(g, _bits_to_set(mask))},
            "unique separating pair coexists with a separating triple")


def check_stil_two_sils(census: Census) -> Optional[tuple]:
    """Any separating triple forces at least two distinct separating pairs."""
    count = len(census._sil_masks)
    if count >= 2:
        return None
    stil = min(_stil_masks(census), default=None)
    if stil is None:
        return None
    return ({"triple": vertex_names(census.graph, stil[:3]),
             "sil_count": count},
            "separating triple with fewer than two separating pairs")


def check_lemma_7(census: Census) -> Optional[tuple]:
    """Connected with a unique separating pair: both punctured graphs have
    exactly two components."""
    if len(census.split) > 1 or len(census._sil_masks) != 1:
        return None
    for v in census._sil_masks[0][:2]:
        ncomp = len(census.star_splits[v])
        if ncomp != 2:
            return ({"vertex": census.graph.names[v], "components": ncomp},
                    "puncturing a unique-pair vertex left "
                    f"{ncomp} components instead of 2")
    return None


def check_lemma_1_7(census: Census) -> Optional[tuple]:
    """Two separating pairs sharing one vertex and a witness give a
    separating triple on the three vertices at that witness."""
    if len(census.split) > 1:
        return None
    g = census.graph
    adj = g.adj
    full = (1 << g.n) - 1
    for (a1, b1, _, c1), (a2, b2, _, c2) in itertools.combinations(
            census._sil_masks, 2):
        witnesses = c1 & c2
        p1, p2 = 1 << a1 | 1 << b1, 1 << a2 | 1 << b2
        common = p1 & p2
        if not witnesses or not common or common & common - 1:
            continue
        triple = p1 | p2
        x1, x2, x3 = (m.bit_length() - 1 for m in (common, p1 ^ common,
                                                    p2 ^ common))
        split = component_masks(adj, full & ~(adj[x1] & adj[x2] & adj[x3]))
        # a witness fails if its component of the split meets the triple
        failed = witnesses & sum(c for c in split if c & triple)
        if failed:
            z = (failed & -failed).bit_length() - 1
            return ({"triple": vertex_names(g, (x1, x2, x3)),
                     "witness": g.names[z]},
                    "shared witness of two separating pairs does "
                    "not separate the triple")
    return None


def check_finite_equiv(census: Census) -> Optional[tuple]:
    """No separating pair iff all generator pairs commute."""
    count = len(census._sil_masks)
    all_commute = not any(census.non_commuting)
    if (not count) != all_commute:
        return ({"sil_count": count, "all_commute": all_commute},
                "separating-pair census disagrees with generator commutation")
    return None


def check_three_components_fsil(census: Census) -> Optional[tuple]:
    """Three or more connected components force a flexible triple."""
    if len(census.split) < 3 or next(_fsil_triples(census), None):
        return None
    comps = [vertex_names(census.graph, c) for c in census.components()]
    return ({"components": comps},
            f"{len(comps)} components but no flexible separating triple")


def check_fsil_three_sils(census: Census) -> Optional[tuple]:
    """Every flexible triple induces separating pairs on all three pairs."""
    pairs = None
    for v1, v2, v3 in _fsil_triples(census):
        if pairs is None:
            pairs = {(a, b) for a, b, _, _ in census._sil_masks}
        found = [[x, y] for x, y in ((v1, v2), (v1, v3), (v2, v3))
                 if (x, y) in pairs]
        if len(found) < 3:
            return ({"triple": vertex_names(census.graph, (v1, v2, v3)),
                     "pairs": found},
                    "flexible triple with fewer than three distinct pairs")
    return None


def _is_inner(adj: tuple, full: int, a: int, c: int, b: int, d: int) -> bool:
    """Whether [chi_{a,C}, chi_{b,D}] is inner, on the graph of adjacency
    ``adj`` with vertex mask ``full``, for the masks ``c`` of C and ``d``
    of D, with a outside C and b outside D.  No vertex order is read.

    The commutator conjugates each vertex u by a word W(u) in a and b
    alone (:func:`silscope.words.commutator`), and it is inner iff the
    cosets W(u) <St(u)> have a common element, since the centraliser of u
    is <St(u)>.  Deleting every vertex but a and b is a retraction r of the
    group onto <a, b>; it fixes each W(u) and sends <St(u)> onto
    <St(u) & {a, b}>.  So r maps a common element of the cosets
    W(u) <St(u)> into every W(u) <St(u) & {a, b}>, and these lie in the
    former: the cosets meet exactly when these do.  And a is in St(u) iff
    u is in St(a), and so for b.

    If a and b are equal or adjacent, every W(u) reduces to 1, and the
    commutator is the identity.  Otherwise <a, b> is the free product
    Z/m(a) * Z/m(b), and W(u) is 1 or one word V of four alternating
    syllables with exponents +-1, which depends on p = [a in D] and
    q = [b in C] only; V sits on the mask ``at_v``:

        (p, q) = (0, 0): V = b^-1 a^-1 b a, on C & D;
        (0, 1): V = b^-1 a b a^-1, on D - C;
        (1, 0): V = b a^-1 b^-1 a, on C - D;
        (1, 1): V = a b a^-1 b^-1, on C | D.

    Let A be the intersection of St(u) & {a, b} over the vertices u whose
    conjugator is 1, and B the same over ``at_v``, each {a, b} over no
    vertex.  The cosets meet iff <A> and V <B> do, that is iff V is in
    <A><B>.  If A or B is {a, b}, <A><B> is all of <a, b>.  Otherwise every
    element of <A><B> has a normal form of at most two syllables, and V
    has four whatever m(a), m(b) >= 2 are, since +-1 is never 0 mod m.  So
    the commutator is inner iff a and b are equal or adjacent, or every
    vertex outside ``at_v``, or every vertex of ``at_v``, lies in
    St(a) & St(b), which is the common link of a and b when they are not
    adjacent.  Among the vertices u, a and b need no special case: W(a) is
    read off a's own bits of C and D, (0, p), and W(b) off (q, 0), and
    neither is in the common link.  The tests compare this with :func:`silscope.words.search_inner`
    on every syntactic case.
    """
    if a == b or adj[a] >> b & 1:
        return True
    common = adj[a] & adj[b]
    at_v = (c & d, d & ~c, c & ~d, c | d)[(d >> a & 1) << 1 | c >> b & 1]
    return not at_v & ~common or not full & ~at_v & ~common


def check_lemma_1_4_oracle(census: Census) -> Optional[tuple]:
    """Commutation predicate agrees with the exact innerness of every
    commutator of two generators.

    The innerness of [chi_{a,C}, chi_{b,D}] is decided on the masks of C
    and D by ``_is_inner``, and the prediction read from
    ``census.non_commuting``; the pairs are scanned in order, so the first
    failing pair is the one a fresh search on each pair finds first.
    Neither reads a vertex order, so the verdict holds for every order
    tuple of the adjacency.
    """
    g = census.graph
    adj, full = g.adj, (1 << g.n) - 1
    rows = census.non_commuting
    gens = census.generators
    for i, j in itertools.combinations(range(len(gens)), 2):
        (a, c), (b, d) = gens[i], gens[j]
        found = _is_inner(adj, full, a, c, b, d)
        predicted = not rows[i] >> j & 1
        if found != predicted:
            x, y = (PartialConjugation(v, _bits_to_set(m))
                    for v, m in (gens[i], gens[j]))
            return ({"x": x.label(g), "y": y.label(g),
                     "predicted_commutes": predicted,
                     "inner_witness_found": found},
                    "commutation predicate disagrees with the word oracle")
    return None


# The contract of every check, one registered here at run time included:
# it reads only the adjacency, never a vertex order, so the suite runs it
# once per edge mask and its verdict stands for every order tuple of the
# mask.  It runs on the census of the mask's first order tuple; a check
# that read orders would see only that tuple.
CHECKS: dict = {
    "lemma_2_2": check_lemma_2_2,
    "lemma_4": check_lemma_4,
    "stil_two_sils": check_stil_two_sils,
    "lemma_7": check_lemma_7,
    "lemma_1_7": check_lemma_1_7,
    "finite_equiv": check_finite_equiv,
    "three_components_fsil": check_three_components_fsil,
    "fsil_three_sils": check_fsil_three_sils,
    "lemma_1_4_oracle": check_lemma_1_4_oracle,
}
DEFAULT_CHECKS = tuple(CHECKS)


@dataclass(frozen=True)
class EnumSpec:
    """What to enumerate and which checks to run.  ``orders`` and ``checks``
    are any iterables but a str, read once, and must be non-empty; they
    are stored sorted and without repeats.
    ``max_vertices`` is at most ``MAX_ENUMERATION_VERTICES`` with dedup,
    and at most ``MAX_LABELLED_VERTICES`` too without: every labelled graph
    on 7 vertices is one of 2^21 edge masks, on 8 one of 2^28.  With
    ``dedup_isomorphic``, one graph per order-preserving isomorphism class
    is generated (see ``enumerate_graphs``): 288,266 for n <= 9 and orders
    (2,), all nine checks on them in 25-28 s and 18.7 MiB in one process
    (Python 3.11.7, 2 CPUs).  With (2, 3) there are 2,208,612 classes on
    8 vertices (OEIS A000666) but only 12,346 edge masks.  Every check
    runs once per mask (see ``CHECKS``), ``lemma_1_4_oracle`` decides each
    commutator on masks, and a mask's kept order tuples are counted, never
    listed: a check that fails on a mask is one report, whose
    ``order_tuples`` is that count."""

    max_vertices: int
    orders: tuple = (2,)
    dedup_isomorphic: bool = False
    checks: tuple = DEFAULT_CHECKS
    workers: int = 1

    def __post_init__(self) -> None:
        # one pass over each, so that a one-shot iterable is validated and
        # stored, not used up by the validation
        for name in ("orders", "checks"):
            value = getattr(self, name)
            if isinstance(value, str):
                raise GraphError(f"{name} must be a sequence, not a str")
            try:
                object.__setattr__(self, name, tuple(value))
            except TypeError:
                raise GraphError(f"{name} must be a sequence, not "
                                 f"{type(value).__name__} {value!r}") from None
        for name in ("max_vertices", "workers"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise GraphError(f"{name} must be an int, not "
                                 f"{type(value).__name__} {value!r}")
        dedup = self.dedup_isomorphic
        if not isinstance(dedup, bool):
            raise GraphError("dedup_isomorphic must be a bool, not "
                             f"{type(dedup).__name__} {dedup!r}")
        bound = (MAX_ENUMERATION_VERTICES if self.dedup_isomorphic
                 else min(MAX_ENUMERATION_VERTICES, MAX_LABELLED_VERTICES))
        if not 1 <= self.max_vertices <= bound:
            raise GraphError(f"max_vertices must be in 1..{bound}"
                             + ("" if self.dedup_isomorphic else
                                " without dedup"))
        if not self.orders:
            raise GraphError("the order alphabet is empty")
        for m in self.orders:
            if not is_vertex_order(m):
                raise GraphError(f"order alphabet entry {m} is not a prime power "
                                 f"in 2..{MAX_ORDER}")
        if self.workers < 1:
            raise GraphError("workers must be >= 1")
        if not self.checks:
            raise GraphError("no check ids given")
        for c in self.checks:
            if not isinstance(c, str):
                raise GraphError(f"checks must be str ids, not "
                                 f"{type(c).__name__} {c!r}")
        unknown = [c for c in self.checks if c not in CHECKS]
        if unknown:
            raise GraphError(f"unknown check ids: {unknown}; "
                             f"known: {sorted(CHECKS)}")
        object.__setattr__(self, "orders", tuple(sorted(set(self.orders))))
        object.__setattr__(self, "checks", tuple(sorted(set(self.checks))))


# ---------------------------------------------------------------------------
# Suite driver


def _run_checks(records: list, checks: tuple) -> tuple:
    """Check one chunk of mask records with ``checks``, ``(id, function)``
    pairs: (number of graphs, their reports in order).  Each check runs
    once per record, on one census of the record's first graph.  A failing
    verdict is one report on that graph, whose JSON form is built once per
    record, and counts the record's kept order tuples, each of which the
    verdict stands for."""
    checked, out = 0, []
    for first, count, _ in records:
        checked += count
        census = Census(first)
        failed = [(c, verdict) for c, check in checks
                  if (verdict := check(census)) is not None]
        if failed:
            graph = to_json_dict(first)
            out += (CounterexampleReport(check_id, graph, *verdict, count)
                    for check_id, verdict in failed)
    return checked, out


def checked_chunks(spec: EnumSpec) -> Iterator[tuple]:
    """``(number of graphs, reports)`` for each chunk of the enumeration, in
    chunk order: checked in this process for one worker, else in a pool
    with at most 2 * workers + 1 chunks in flight, since a chunk is
    submitted before the oldest pending result is awaited.  Joining the
    reports of every chunk gives ``run_suite``'s; reading them chunk by
    chunk keeps the reports of only the chunks in flight in memory.  The
    check ids are resolved in
    this process, and workers get the functions, so a check registered in
    ``CHECKS`` at run time reaches workers that import the package afresh
    (the ``spawn`` and ``forkserver`` start methods).  No check keeps
    state between chunks or runs."""
    checks = tuple((c, CHECKS[c]) for c in spec.checks)
    records = enumerate_graphs(spec)
    chunks = iter(lambda: list(itertools.islice(records, CHUNK_SIZE)), [])
    workers = spec.workers
    if workers > 1:
        workers = min(workers, os.cpu_count() or 1)
    if workers == 1:
        yield from (_run_checks(chunk, checks) for chunk in chunks)
        return
    # imported here: a one-process run loads no pool or multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as pool:
        pending: deque = deque()
        for chunk in chunks:
            pending.append(pool.submit(_run_checks, chunk, checks))
            if len(pending) > 2 * workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()


def run_suite(spec: EnumSpec) -> tuple:
    """Run every check of ``spec`` on each enumerated graph.

    Returns ``(checked_graphs, reports)``, the reports in enumeration order
    and by check id per graph; no report means every check passed.  Unknown
    check ids are refused when the spec is built, so a typo cannot silently
    skip coverage.  The pool never has more processes than there are CPUs.
    """
    checked, reports = 0, []
    for n, part in checked_chunks(spec):
        checked += n
        reports.extend(part)
    return checked, reports
