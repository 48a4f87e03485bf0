"""Independent brute-force oracles the tests check the library against.

Everything here recomputes from first principles over plain edge lists:
union-find components instead of bitmask BFS, per-definition separation
scans instead of the library's census, an exhaustive rewriting
closure instead of the normal-form algorithm, a breadth-first search
over conjugating words instead of the coset fold that decides innerness,
and isomorph rejection by marking whole orbits under all n! vertex
permutations instead of orderly generation.
Slow on purpose and kept free of silscope internals beyond the graph data
fields; the exceptions are the word oracles and the former library code
kept below.  The word search compares
words in the library's normal form (itself checked against the rewriting
closure), and the commutator and innerness fold that the closed forms in
``silscope.words`` replaced are kept here as they were: a commutator built
from three generic compositions, and a coset fold taken one vertex at a
time.  So are the enumerator and the suite driver that mask records
replaced: the enumerator yields one graph per order tuple and tries every
row of a new vertex, where the library yields one record per edge mask,
and the driver runs the library's checks on a census of every enumerated
graph, where the library runs the order-free checks once per edge mask.
Its oracle check decides every commutator of every graph afresh, where
the library decides it by a closed form on the masks of C and D.  So is
the per-shape verdict that closed form replaced: ``commutator_shape``,
its model graph ``_model`` and ``commutator_is_inner``, which searched
each numbering-free shape once per process and now check the closed form
against the word engine on every syntactic shape.  The
minimality search of orderly generation is kept in both its former
shapes, where the library runs one search per parent for all the rows of
a new vertex at once: one search per child, which keeps the free vertices
as a mask and meets a row with one AND per placed vertex, with the record
enumerator that ran it on the rows an automorphism of the parent does not
lower; and before it, a dict of per-vertex words copied at every node.
That record enumerator lists each mask's kept order tuples by filtering
all of them with every automorphism, where the library lists one
automorphism per coset of the group that permutes each twin class and
counts the tuples by Burnside's lemma over those cosets;
``automorphisms_per_child`` with ``every`` lists the whole group the
cosets must cover.  The library lists no tuple at all: it writes one
report per failing mask, with the count of the tuples it stands for,
where the suite driver once listed them with ``_kept_tuples`` and wrote a
report per tuple, in the format of ``TupleReport``; ``expand_reports``
lists them again, and ``run_suite_per_graph`` writes that format.
Its ``_twin_lows`` tests each vertex against every lower one, where the
library keys every vertex by its open and closed neighbourhoods in one
pass.
Labelled graphs are built here from their edge masks pair by pair
(``graph_from_bits``), where the library extends each mask on one vertex
fewer by the rows of a new vertex, as the dedup enumeration does.
So are the census's non-commutation rows, which tested every pair of
generators where the census tests only those at the two vertices of a
Sil pair.  So is the census read as Sil, Stil and Fsil objects, which the
library no longer builds: ``enumerate_sils``, ``enumerate_stils``,
``enumerate_fsils``, ``sil_at``, ``is_sil``, ``shared_sil_component``,
``star_components`` and ``partial_conjugations`` read the census's
internals ``_sil_masks``, ``_order_two``, ``_star_owners``,
``star_splits`` and ``witnesses`` (the last two through the library's
``_stil_masks`` and ``_fsil_triples``), never the graph, so that a census
changed on purpose reads as its own objects.  So are the eight
order-free checks and the report dict, which read those objects where the
library reads the census's masks, and ``commutes``, ``star_cut_points``,
``to_json`` and the commutator power probe, which no library code
calls.  So is the
graph JSON loader, ``from_json_dict`` with its ``make_graph``, which
copied every edge into a tuple, built a key set per vertex entry, tested
every vertex's order and kept a set of the edges seen, where the library
validates in one pass over the adjacency masks.  The innerness test
by definition lives here too, with the vertex images it compares:
``is_inner_with`` checks a candidate word on every vertex through
``conjugate`` and ``image_of_vertex``, and the breadth-first search
compares the same images.
"""

import json
from functools import cache, lru_cache
from itertools import combinations, groupby, permutations, product
from operator import attrgetter, itemgetter
from typing import NamedTuple

from silscope import outer
from silscope.cli import REPORT_VERSION, _presentation_dict
from silscope.graphs import (GRAPH_JSON_KEYS, MAX_ORDER, VERTEX_JSON_KEYS,
                             GraphError, LabelledGraph, UnknownVertexError,
                             _bits_to_set, component_masks, is_vertex_order,
                             to_json_dict, vertex_names)
from silscope.harness import CHECKS, enumerate_graphs
from silscope.outer import PartialConjugation, validate_partial_conjugation
from silscope.sils import Census, _fsil_triples, _stil_masks, commute_rule
from silscope.words import (EPSILON, Automorphism0, _inverse, _peel_left,
                            _strip_right, commutator, compose,
                            pc_automorphism, reduce, search_inner)


def make_graph(vertices, edges):
    """Build a validated graph from (name, order) pairs and name edges."""
    vertices = list(vertices)
    if not vertices:
        raise GraphError("a graph needs at least one vertex")
    for name, _ in vertices:
        if not isinstance(name, str) or not name:
            raise GraphError(f"vertex name {name!r} is not a non-empty string")
    names = tuple(name for name, _ in vertices)
    if len(set(names)) != len(names):
        dupes = sorted({x for x in names if names.count(x) > 1})
        raise GraphError(f"duplicate vertex names: {dupes}")
    orders = tuple(order for _, order in vertices)
    for name, order in vertices:
        if not is_vertex_order(order):
            raise GraphError(
                f"vertex {name!r} has order {order!r}; orders must be prime "
                f"powers in 2..{MAX_ORDER}")
    idx = {name: i for i, name in enumerate(names)}
    adj = [0] * len(names)
    seen = set()
    for a, b in edges:
        if a not in idx:
            raise UnknownVertexError(f"edge endpoint {a!r} is not a declared vertex")
        if b not in idx:
            raise UnknownVertexError(f"edge endpoint {b!r} is not a declared vertex")
        i, j = idx[a], idx[b]
        if i == j:
            raise GraphError(f"self-loop at vertex {a!r}")
        key = (min(i, j), max(i, j))
        if key in seen:
            raise GraphError(f"duplicate edge {a!r} -- {b!r}")
        seen.add(key)
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    return LabelledGraph(names, orders, tuple(adj))


def from_json_dict(data):
    if not isinstance(data, dict):
        raise GraphError("graph JSON must be an object")
    extra = set(data) - set(GRAPH_JSON_KEYS)
    if extra:
        raise GraphError(f"unexpected keys in graph JSON: {sorted(extra)}")
    try:
        raw_vertices = data["vertices"]
    except KeyError:
        raise GraphError("graph JSON is missing the 'vertices' key") from None
    raw_edges = data.get("edges", [])
    if not isinstance(raw_vertices, list) or not isinstance(raw_edges, list):
        raise GraphError("'vertices' and 'edges' must be JSON arrays")
    vertices = []
    for entry in raw_vertices:
        if not isinstance(entry, dict) or "name" not in entry:
            raise GraphError(f"bad vertex entry: {entry!r}")
        extra = set(entry) - set(VERTEX_JSON_KEYS)
        if extra:
            raise GraphError(f"unexpected keys in vertex entry {entry!r}: "
                             f"{sorted(extra)}")
        vertices.append((entry["name"], entry.get("order", 2)))
    for e in raw_edges:
        if not (isinstance(e, list) and len(e) == 2
                and all(isinstance(name, str) for name in e)):
            raise GraphError(f"bad edge entry: {e!r}; expected an array of two "
                             "vertex names")
    return make_graph(vertices, [tuple(e) for e in raw_edges])

def edge_list(g):
    return [(u, v) for u in range(g.n) for v in range(u + 1, g.n)
            if g.adj[u] >> v & 1]


def neighbors_scan(g, v):
    """Neighbours of v by scanning the full edge list."""
    out = set()
    for a, b in edge_list(g):
        if a == v:
            out.add(b)
        if b == v:
            out.add(a)
    return out


def components_uf(g, keep):
    """Connected components of the induced subgraph, via union-find."""
    keep = set(keep)
    parent = {v: v for v in keep}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edge_list(g):
        if a in keep and b in keep:
            parent[find(a)] = find(b)
    comps = {}
    for v in keep:
        comps.setdefault(find(v), set()).add(v)
    return sorted((frozenset(c) for c in comps.values()), key=min)


def sil_census(g):
    """All separating pairs, straight from the definition.

    Returns a set of (pair, component, coxeter) triples.
    """
    out = set()
    for v1, v2 in combinations(range(g.n), 2):
        if v2 in neighbors_scan(g, v1):
            continue
        removed = neighbors_scan(g, v1) & neighbors_scan(g, v2)
        keep = set(range(g.n)) - removed
        for comp in components_uf(g, keep):
            if v1 not in comp and v2 not in comp:
                out.add(((v1, v2), comp,
                         g.orders[v1] == 2 and g.orders[v2] == 2))
    return out


def stil_census(g):
    """All separating triples (at most one spanned edge), per definition."""
    out = set()
    for triple in combinations(range(g.n), 3):
        spanned = sum(1 for a, b in combinations(triple, 2)
                      if b in neighbors_scan(g, a))
        if spanned > 1:
            continue
        removed = (neighbors_scan(g, triple[0]) & neighbors_scan(g, triple[1])
                   & neighbors_scan(g, triple[2]))
        for comp in components_uf(g, set(range(g.n)) - removed):
            if not comp & set(triple):
                out.add((triple, comp))
    return out


def fsil_census(g):
    """All flexible triples, checking each pair/witness per definition."""

    def pair_separates_with(a, b, z):
        if b in neighbors_scan(g, a):
            return False
        removed = neighbors_scan(g, a) & neighbors_scan(g, b)
        if z in removed:
            return False
        for comp in components_uf(g, set(range(g.n)) - removed):
            if z in comp:
                return a not in comp and b not in comp
        return False

    out = set()
    for v1, v2, v3 in combinations(range(g.n), 3):
        if (pair_separates_with(v1, v2, v3) and pair_separates_with(v1, v3, v2)
                and pair_separates_with(v2, v3, v1)):
            out.add((v1, v2, v3))
    return out


def rewrite_closure(g, word, cap=200000):
    """All words reachable by length-nonincreasing relation moves.

    Moves: swap adjacent commuting syllables; merge adjacent same-vertex
    syllables mod the vertex order (dropping a zero).  For a reduced word
    the closure is exactly its shuffle class.
    """
    word = tuple(tuple(s) for s in word)
    seen = {word}
    frontier = [word]
    while frontier:
        w = frontier.pop()
        for i in range(len(w) - 1):
            (u, a), (v, b) = w[i], w[i + 1]
            if u == v:
                e = (a + b) % g.orders[u]
                nw = w[:i] + ((u, e),) + w[i + 2:] if e else w[:i] + w[i + 2:]
            elif g.adj[u] >> v & 1:
                nw = w[:i] + (w[i + 1], w[i]) + w[i + 2:]
            else:
                continue
            if nw not in seen:
                if len(seen) >= cap:
                    raise RuntimeError("rewrite closure exceeded cap")
                seen.add(nw)
                frontier.append(nw)
    return seen


def is_reduced_by_rewriting(g, word):
    """A word is reduced iff no rewrite move ever shortens it."""
    n = len(tuple(word))
    return all(len(w) == n for w in rewrite_closure(g, word))


def equal_by_rewriting(g, w1, w2):
    """Group equality decided by closing both words under rewrite moves."""
    c1 = rewrite_closure(g, w1)
    shortest1 = min(len(w) for w in c1)
    c2 = rewrite_closure(g, w2)
    shortest2 = min(len(w) for w in c2)
    if shortest1 != shortest2:
        return False
    reduced1 = {w for w in c1 if len(w) == shortest1}
    reduced2 = {w for w in c2 if len(w) == shortest2}
    return bool(reduced1 & reduced2)


def generators_by_rank(g):
    """The generating set as first written, as (vertex, component) pairs:
    for each vertex v in turn whose star leaves two or more union-find
    components, those components ranked by their smallest vertex, minus
    the first."""
    gens = []
    for v in range(g.n):
        keep = set(range(g.n)) - neighbors_scan(g, v) - {v}
        comps = components_uf(g, keep)
        if len(comps) < 2:
            continue  # not a star cut point
        comps.sort(key=min)
        gens.extend((v, comp) for comp in comps[1:])
    return gens


def commutes_by_sil_scan(g, x, y, sils):
    """The commutation rule for two partial conjugations as first written:
    scan every Sil in ``sils`` (``sil_census`` output) for the pair of
    acting vertices and test the four non-commuting cases on the union of
    their separated components.  ``x`` and ``y`` need only ``vertex`` and
    ``component`` attributes."""
    if x.vertex == y.vertex:
        return True
    pair = tuple(sorted((x.vertex, y.vertex)))
    ws = set()
    for sil_pair, comp, _ in sils:
        if sil_pair == pair:
            ws |= comp
    if not ws:
        return True
    c, d = x.component, y.component
    x_in_d = x.vertex in d
    y_in_c = y.vertex in c
    if c == d and ws & c:
        return False
    if x_in_d and ws & c:
        return False
    if y_in_c and ws & d:
        return False
    return not (x_in_d and y_in_c)


def non_commuting_by_pair_scan(census):
    """The census's non-commutation rows as it first computed them: one
    witness lookup and one rule test for each of the g^2 / 2 pairs of its
    g generators, where the census tests only the generators at the two
    vertices of each Sil pair."""
    gens, wit = census.generators, census.witnesses
    rows = [0] * len(gens)
    for i, (x, c) in enumerate(gens):
        for j, (y, d) in enumerate(gens[:i]):  # generators ascend by v
            witnesses = wit.get((y, x))
            if witnesses and not commute_rule(witnesses, x, c, y, d):
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return tuple(rows)


def commutator_by_compose(g, x, y):
    """[x, y] = x . y . x^-1 . y^-1 as three generic compositions of the
    four partial-conjugation automorphisms."""
    xa = pc_automorphism(g, x)
    ya = pc_automorphism(g, y)
    xi = pc_automorphism(g, x, -1)
    yi = pc_automorphism(g, y, -1)
    return compose(g, compose(g, compose(g, xa, ya), xi), yi)


def search_inner_by_vertex(g, phi):
    """The shortest word u such that phi is conjugation by u, or None, by
    folding the cosets w_v <St(v)> one vertex at a time: c <A> meets
    w_v <St(v)> iff c^-1 w_v is a . b with a in <A> and b in <St(v)>, and
    the shortest element of the last coset is c with <A> peeled off its
    right."""
    n = g.n
    if not n:
        return ()
    adj = g.adj
    conj = phi.conjugators
    c = reduce(g, conj[0])
    allowed = adj[0] | 1 << 0
    for v in range(1, n):
        x = reduce(g, _inverse(g, c) + tuple(conj[v]))
        star_v = adj[v] | 1 << v
        a, rest = _peel_left(g, x, allowed)
        if _strip_right(g, rest, star_v):
            return None
        if a:
            c = reduce(g, c + a)
        allowed &= star_v
    return _strip_right(g, c, allowed)


def conjugate(g, gword, w):
    """reduce(gword . w . gword^-1)."""
    return reduce(g, tuple(gword) + tuple(w) + _inverse(g, gword))


def image_of_vertex(g, phi, v):
    """phi(v) = w_v . v . w_v^-1, reduced."""
    return conjugate(g, phi.conjugators[v], ((v, 1),))


def is_inner_with(g, phi, gword):
    """True iff phi agrees with conjugation by gword on every vertex: the
    definition of innerness, tested vertex by vertex."""
    gword = reduce(g, gword)
    return all(conjugate(g, gword, ((v, 1),)) == image_of_vertex(g, phi, v)
               for v in range(g.n))


@lru_cache(maxsize=16)
def _canonical_words_by_length(g, depth):
    """Canonical words of each length 0..depth with their support masks.

    Enumerated in lex order over (vertex, exponent) syllables; a word that
    merges its last syllable, or is not its own normal form, is dropped, so
    each group element of that length appears exactly once.
    """
    adj = g.adj
    alphabet = [(v, e) for v in range(g.n) for e in range(1, g.orders[v])]
    by_length = [[((), 0)]]
    for _ in range(depth):
        nxt = []
        for word, support in by_length[-1]:
            for v, e in alphabet:
                j = len(word) - 1
                while j >= 0:
                    u = word[j][0]
                    if u == v or not adj[u] >> v & 1:
                        break
                    j -= 1
                if j >= 0 and word[j][0] == v:
                    continue  # would merge: not reduced at this length
                extended = word + ((v, e),)
                if reduce(g, extended) == extended:
                    nxt.append((extended, support | 1 << v))
        by_length.append(nxt)
    return tuple(by_length)


def bfs_inner_witness(g, phi, depth):
    """First conjugating word realising ``phi`` in length-then-lex order
    among canonical words of length <= depth, or None.

    Candidates that are provably too short, or miss a vertex that some
    image requires, are skipped; this cannot change which witness is found
    first.
    """
    n = g.n
    targets = [image_of_vertex(g, phi, v) for v in range(n)]
    moved = [v for v in range(n) if targets[v] != ((v, 1),)]
    if not moved:
        return ()
    # |phi(v)| <= 2|gword| + 1, and every vertex phi introduces must occur
    # in gword: both bounds are necessary conditions on any witness.
    min_length = max(len(targets[v]) for v in moved) // 2
    required = 0
    for v in moved:
        for u, _ in targets[v]:
            if u != v:
                required |= 1 << u
    check_order = moved + [v for v in range(n) if v not in moved]
    groups = _canonical_words_by_length(g, depth)
    for length in range(min_length, depth + 1):
        for cand, support in groups[length]:
            if required & ~support:
                continue
            ginv = tuple((v, g.orders[v] - e) for v, e in reversed(cand))
            if all(reduce(g, cand + ((v, 1),) + ginv) == targets[v]
                   for v in check_order):
                return cand
    return None


def commutator_shape(g: LabelledGraph, a: int, c: int, b: int,
                     d: int) -> tuple:
    """What decides whether [chi_{a,C}, chi_{b,D}] is inner, read off the
    masks ``c`` and ``d`` of C and D.  It reads no order and no numbering:
    whether a and b are adjacent, whether a = b, p = [a in D],
    q = [b in C], and the sorted (s, t, class in St(a), class in St(b)) of
    each non-empty class (s, t) = ([u in C], [u in D]) of vertices u.
    Like :func:`commutator`, it never reads
    :func:`silscope.sils.commute_rule`.

    The commutator is inner iff the cosets W(s, t) <S(s, t)> meet, one per
    class, with W(s, t) its conjugator and S(s, t) the vertices whose star
    holds the class (see :func:`search_inner`).  Deleting every vertex but
    a and b is a retraction r of W onto <a, b>; it fixes each W(s, t) and
    sends <S> onto <S & {a, b}>.  So r maps a common element of the cosets
    W(s, t) <S(s, t)> into every W(s, t) <S(s, t) & {a, b}>, and these lie
    in the former: the cosets meet exactly when these do.  And a is in
    S(s, t) iff the class lies in St(a), and so for b.

    Nor does the verdict read m(a) or m(b).  If a and b are adjacent or
    equal, every W(s, t) reduces to 1, and the commutator is inner.
    Otherwise <a, b> is the free product Z/m(a) * Z/m(b), and each W(s, t)
    is 1 or one word V that depends only on (p, q), of four alternating
    syllables with exponents +-1:

        (p, q) = (0, 0): V = b^-1 a^-1 b a, at (s, t) = (1, 1) only;
        (0, 1): V = b^-1 a b a^-1, at (0, 1) only;
        (1, 0): V = b a^-1 b^-1 a, at (1, 0) only;
        (1, 1): V = a b a^-1 b^-1, at every (s, t) but (0, 0).

    Let A be the intersection of S & {a, b} over the vertices whose
    conjugator is 1, and B the same over those whose conjugator is V, a
    and b among them; over no vertex it is {a, b}.  The cosets meet iff
    <A> and V <B> do, that is iff V is in <A><B>.  If A or B is {a, b},
    <A><B> is all of <a, b>.  Otherwise every element of <A><B> has a
    normal form of at most two syllables, and V has one of four whatever
    m(a), m(b) >= 2 are, since +-1 is never 0 mod m.  So the commutator is
    inner iff a and b are adjacent or equal, or A or B is {a, b}, and no
    step reads an order.
    """
    adj = g.adj
    star_a = adj[a] | 1 << a
    star_b = adj[b] | 1 << b
    outside = (1 << g.n) - 1 & ~(c | d)
    return (adj[a] >> b & 1, a == b, d >> a & 1, c >> b & 1,
            tuple(sorted((s, t, not m & ~star_a, not m & ~star_b)
                         for m, s, t in ((outside, 0, 0), (c & ~d, 1, 0),
                                         (d & ~c, 0, 1), (c & d, 1, 1))
                         if m)))


def _model(shape: tuple) -> tuple:
    """``(g, x, y)``: a graph g of a, b and one vertex per class of
    ``shape``, every vertex of order 2, and x = chi_{a,C}, y = chi_{b,D}
    with the shape's commutator.  Each class vertex is joined to a and b
    by its star bits and is in C and D by (s, t); b is in C iff q, and a
    in D iff p.  ``commutator`` and ``search_inner`` read only words and
    masks, so C and D need not be components of the model."""
    adjacent, same, p, q, classes = shape
    b = 0 if same else 1
    adj = [adjacent << 1, adjacent][:b + 1]
    c, d = q << b, p
    for k, (s, t, in_a, in_b) in enumerate(classes, b + 1):
        adj.append(in_a | in_b << b)
        adj[0] |= in_a << k
        adj[b] |= in_b << k
        c |= s << k
        d |= t << k
    g = LabelledGraph(tuple(f"v{v + 1}" for v in range(len(adj))),
                      (2,) * len(adj), tuple(adj))
    return (g, PartialConjugation(0, _bits_to_set(c)),
            PartialConjugation(b, _bits_to_set(d)))


@cache
def commutator_is_inner(shape: tuple) -> bool:
    """Whether a commutator of ``shape`` is inner, under any vertex
    orders, by :func:`search_inner` on the shape's :func:`_model`; the
    :func:`commutator_shape` docstring proves that no order changes it."""
    g, x, y = _model(shape)
    return search_inner(g, commutator(g, x, y)) is not None


def dedup_by_orbit_marking(spec):
    """One graph per order-preserving isomorphism class, as the minimal
    (edge mask, order tuple) encoding, in ascending (n, mask, orders).

    Walks every labelled graph in ascending encoding order; the first one
    not yet marked is its class's representative, and it marks its whole
    orbit by applying all n! vertex permutations.  Builds the graphs from
    plain edge bits, without the library's enumeration code.
    """
    for n in range(1, spec.max_vertices + 1):
        pairs = list(combinations(range(n), 2))
        index = {p: k for k, p in enumerate(pairs)}
        tables = [(perm, [index[tuple(sorted((perm[i], perm[j])))]
                          for i, j in pairs])
                  for perm in permutations(range(n))]
        seen = set()
        for mask in range(1 << len(pairs)):
            adj = [0] * n
            for k, (i, j) in enumerate(pairs):
                if mask >> k & 1:
                    adj[i] |= 1 << j
                    adj[j] |= 1 << i
            for orders in product(spec.orders, repeat=n):
                if (mask, orders) in seen:
                    continue
                for perm, table in tables:
                    pmask = sum(1 << table[k] for k in range(len(pairs))
                                if mask >> k & 1)
                    porders = [0] * n
                    for i in range(n):
                        porders[perm[i]] = orders[i]
                    seen.add((pmask, tuple(porders)))
                yield LabelledGraph(tuple(f"v{i + 1}" for i in range(n)),
                                    orders, tuple(adj))


def graph_from_bits(n, mask, orders):
    """The labelled graph on v1..vn with the given orders whose edge mask
    is ``mask``, bit k for the k-th pair (i, j), i < j: the encoding that
    the enumeration walks, built pair by pair."""
    adj = [0] * n
    for k, (i, j) in enumerate(combinations(range(n), 2)):
        if mask >> k & 1:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    names = tuple(f"v{i + 1}" for i in range(n))
    return LabelledGraph(names, tuple(orders), tuple(adj))


def _twin_lows(adj: tuple) -> list:
    """The lowest twin of each vertex of ``adj``, which names its twin
    class.  Twins u, v have N(u) - v = N(v) - u, an equivalence: N(u) =
    N(v) if they are not adjacent, N[u] = N[v] if they are, and no vertex
    has twins of both kinds."""
    return [next(u for u in range(v + 1)
                 if adj[u] & ~(1 << v) == a & ~(1 << u))
            for v, a in enumerate(adj)]


def _kept_tuples(alphabet: tuple, adj: tuple, auts: tuple) -> list:
    """The kept order tuples of a dedup mask record, ascending: those over
    ``alphabet`` that no automorphism lowers.  Under a coset rS the least
    image of x is x[r[0]], ..., x[r[n-1]] sorted within each twin class
    (see ``harness._orbit_count``), so x is kept iff no r of R sorts below
    it."""
    low = _twin_lows(adj)
    classes = [[v for v, w in enumerate(low) if w == u]
               for u in set(low) if low.count(u) > 1]

    def least(x):  # x sorted within each class
        y = list(x)
        for c in classes:
            for p, m in zip(c, sorted([x[p] for p in c])):
                y[p] = m
        return tuple(y)
    images = [itemgetter(*a) for a in auts]
    return [x for x in product(alphabet, repeat=len(adj))
            if least(x) == x and all(least(image(x)) >= x for image in images)]


def kept_tuples(spec, first, auts):
    """The kept order tuples of the mask record ``(first, _, auts)`` of
    ``spec``, as the suite driver once listed them: every one without
    dedup."""
    if spec.dedup_isomorphic:
        return _kept_tuples(spec.orders, first.adj, auts)
    return list(product(spec.orders, repeat=first.n))


class TupleReport(NamedTuple):
    """A report as the suite driver wrote it before one report per failing
    mask: one for each kept order tuple of the mask, with the graph under
    that tuple, and no ``order_tuples``."""

    check: str
    graph: dict
    witness: dict
    message: str

    def to_json_line(self):
        return json.dumps({"check": self.check, "graph": self.graph,
                           "witness": self.witness, "message": self.message},
                          sort_keys=True, ensure_ascii=False)


def expand_reports(spec, reports):
    """The per-tuple reports that ``reports``, the suite's reports of
    ``spec``, stand for, in the order the driver once wrote them: for each
    mask with reports, each of its kept order tuples, ascending, and for
    each tuple the mask's reports, in check-id order, on the graph under
    that tuple.  The records are enumerated again for their
    automorphisms."""
    records = {first.adj: (first, auts)
               for first, _, auts in enumerate_graphs(spec)}
    out = []
    for graph, group in groupby(reports, key=attrgetter("graph")):
        first, auts = records[from_json_dict(graph).adj]
        group = list(group)
        for orders in kept_tuples(spec, first, auts):
            g = to_json_dict(LabelledGraph(first.names, orders, first.adj))
            out += (TupleReport(r.check, g, r.witness, r.message)
                    for r in group)
    return out


def graphs_of(spec):
    """Every graph of ``enumerate_graphs(spec)``: each mask record's graph
    with each of its kept order tuples, listed by ``kept_tuples``, in
    order."""
    for first, _, auts in enumerate_graphs(spec):
        for orders in kept_tuples(spec, first, auts):
            yield LabelledGraph(first.names, orders, first.adj)


def enumerate_graphs_per_graph(spec):
    """``harness.enumerate_graphs`` as it was before mask records: one
    graph per kept order tuple, and with dedup every row of vertex 0 tried
    on every minimal parent by its own ``automorphisms_per_child``
    search."""
    if not spec.dedup_isomorphic:
        for n in range(1, spec.max_vertices + 1):
            tuples = list(product(spec.orders, repeat=n))
            for mask in range(1 << n * (n - 1) // 2):
                g = graph_from_bits(n, mask, tuples[0])
                for orders in tuples:
                    yield LabelledGraph(g.names, orders, g.adj)
        return
    level = [()]  # adjacency of each minimal graph on n-1 vertices
    for n in range(1, spec.max_vertices + 1):
        names = tuple(f"v{i + 1}" for i in range(n))
        minimal = []
        for padj, row in product(level, range(1 << n - 1)):
            adj = child_adjacency(padj, row)
            auts = automorphisms_per_child(adj, len(spec.orders) > 1)
            if auts is not None:
                minimal.append(adj)
                for orders in product(spec.orders, repeat=n):
                    if all(tuple(orders[v] for v in a) >= orders for a in auts):
                        yield LabelledGraph(names, orders, adj)
        level = minimal


def enumerate_graphs_per_child(spec):
    """``harness.enumerate_graphs`` with dedup as it was before one search
    per parent and before counting order tuples: each row of vertex 0 that
    ``child_rows`` leaves is searched on its own by
    ``automorphisms_per_child``, and each mask record is a pair, the mask's
    first graph and the list of its kept order tuples, which every
    automorphism of the search filters in turn."""
    every = len(spec.orders) > 1
    level = [((), [()])]  # each minimal graph on n-1 vertices, its auts
    for n in range(1, spec.max_vertices + 1):
        names = tuple(f"v{i + 1}" for i in range(n))
        tuples = list(product(spec.orders, repeat=n))
        ones = [[i for i in range(n - 1) if row >> i & 1]
                for row in range(1 << n - 1)]
        minimal = []
        for padj, pauts in level:
            for row in child_rows(padj, pauts, ones):
                adj = child_adjacency(padj, row)
                auts = automorphisms_per_child(adj, every)
                if auts is None:
                    continue
                if n < spec.max_vertices:  # the next level's parents
                    minimal.append((adj, auts))
                kept = tuples
                for a in auts[1:]:  # auts[0] is the identity
                    image = itemgetter(*a)
                    kept = [orders for orders in kept
                            if image(orders) >= orders]
                yield LabelledGraph(names, kept[0], adj), kept
        level = minimal


def child_adjacency(padj, row):
    """The graph ``padj`` with a new vertex 0 of neighbourhood ``row``,
    bit i for vertex i of ``padj``, which becomes vertex i+1."""
    return (row << 1,) + tuple(a << 1 | row >> i & 1
                               for i, a in enumerate(padj))


def automorphisms_per_child(adj, every):
    """The automorphisms (position -> vertex) of a graph whose edge mask no
    relabelling lowers, else None.  The mask's top bits are row n-2, then
    n-3, ..., row p holding the edges from p to p+1.. (p+1 lowest).  The
    search fills positions n-1, n-2, ...: a free vertex whose row against
    the placed ones is below the graph's disproves minimality, one above
    ends its branch.  Unless ``every``, one of two twins is tried (swapping
    them fixes the placed vertices), so not every automorphism is listed.
    The search tries the graph's own numbering first, so the identity comes
    first."""
    n = len(adj)
    rows = [a >> p + 1 for p, a in enumerate(adj)]
    # skip[v]: the vertices not to try after v, v itself and unless every
    # its twins, those with v's open or closed neighbourhood (no vertex's
    # open neighbourhood is another's closed one)
    if every:
        skip = [1 << v for v in range(n)]
    else:
        twins = {}
        for v, a in enumerate(adj):
            for nbhd in (a, a | 1 << v):
                twins[nbhd] = twins.get(nbhd, 0) | 1 << v
        skip = [twins[a] | twins[a | 1 << v] for v, a in enumerate(adj)]
    found = []
    return (found if _fill_per_child(adj, rows, skip, found, [], (1 << n) - 1)
            else None)


def _fill_per_child(adj, rows, skip, found, placed, free):
    """One step of ``automorphisms_per_child``: place one of the vertices
    of the mask ``free`` at the highest empty position p, after
    ``placed``, the vertices of positions n-1, n-2, ..., p+1.  Bit k of
    row p stands for position p+1+k, so ``placed`` meets the row's bits
    from the highest down: one AND per placed vertex narrows the free
    vertices that tie with the row so far, and a tie with a 0 where the
    row has a 1 is below the row, which disproves minimality.  The ties
    left are tried from the highest vertex down.  Not a closure, so that
    no call leaves a cycle."""
    if not free:
        found.append(tuple(reversed(placed)))
        return True
    bit = len(placed)
    row = rows[-1 - bit]
    tie = free
    for u in placed:
        bit -= 1
        if row >> bit & 1:
            if tie & ~adj[u]:
                return False
            tie &= adj[u]
        else:
            tie &= ~adj[u]
    while tie:
        v = tie.bit_length() - 1
        tie &= ~skip[v]
        placed.append(v)
        kept = _fill_per_child(adj, rows, skip, found, placed, free ^ 1 << v)
        placed.pop()
        if not kept:
            return False
    return True


def child_rows(padj, auts, ones):
    """The rows of a new vertex 0 over the minimal graph ``padj``, but for
    those that one of ``auts``, the automorphisms its own search listed,
    or a swap of two twins of ``padj`` maps to a smaller row.  The parent
    prefix of the mask stays, so the smaller row gives a smaller mask of
    the same graph, and the child is not minimal.  ``ones[row]`` lists the
    set bits of ``row``."""
    swaps = [(1 << i | 1 << j, 1 << j)
             for i, j in combinations(range(len(padj)), 2)
             if padj[i] & ~(1 << j) == padj[j] & ~(1 << i)]
    images = [[1 << v for v in a] for a in auts[1:]]  # auts[0] is the identity
    for row in range(1 << len(padj)):
        if any(row & pair == high for pair, high in swaps):
            continue
        bits = ones[row]
        if not any(sum([image[i] for i in bits]) < row for image in images):
            yield row




def run_suite_per_graph(spec):
    """``harness.run_suite`` as it was before mask groups: one census per
    enumerated graph and every check of ``spec`` run on it, in this
    process, each failing verdict made a ``TupleReport`` of its own; the
    oracle check is ``lemma_1_4_oracle_per_graph``, which stores nothing.
    Returns ``(checked_graphs, reports)``."""
    checked, reports = 0, []
    for g in enumerate_graphs_per_graph(spec):
        checked += 1
        census = Census(g)
        for check_id in spec.checks:
            check = (lemma_1_4_oracle_per_graph if check_id == "lemma_1_4_oracle"
                     else CHECKS[check_id])
            verdict = check(census)
            if verdict is not None:
                reports.append(TupleReport(check_id, to_json_dict(g),
                                           *verdict))
    return checked, reports


def lemma_1_4_oracle_per_graph(census):
    """``harness.check_lemma_1_4_oracle`` as it was before its store of
    verdicts: every pair of generators of the census's graph decided
    afresh, by the innerness search on their commutator."""
    g = census.graph
    p0 = outer.build_p0(census)
    for i, j in combinations(range(len(p0)), 2):
        found = search_inner(g, commutator(g, p0[i], p0[j])) is not None
        predicted = not census.non_commuting[i] >> j & 1
        if predicted != found:
            return ({"x": p0[i].label(g), "y": p0[j].label(g),
                     "predicted_commutes": predicted,
                     "inner_witness_found": found},
                    "commutation predicate disagrees with the word oracle")
    return None


def automorphisms_by_words(adj, every):
    """``automorphisms_per_child`` as it was before the bit-parallel search:
    each free vertex carries its word, its row against the placed vertices,
    in a dict copied at every node.  The automorphisms (position -> vertex)
    of a graph whose edge mask no relabelling lowers, else None.  The
    search fills positions n-1, n-2, ...: a free vertex whose word is below
    the graph's row disproves minimality, one above ends its branch.
    Unless ``every``, one of two twins is tried.  The graph's own numbering
    is tried first, so the identity comes first."""
    rows = [a >> p + 1 for p, a in enumerate(adj)]
    found = []
    start = dict.fromkeys(reversed(range(len(adj))), 0)
    return found if _fill_by_words(adj, rows, every, found, start, ()) else None


def _fill_by_words(adj, rows, every, found, words, perm):
    """One step of ``automorphisms_by_words``: place a vertex at position
    len(words) - 1."""
    if not words:
        found.append(perm)
        return True
    row = rows[len(words) - 1]
    if min(words.values()) < row:
        return False
    tried = set()
    for v, w in words.items():
        if w == row and not {adj[v], adj[v] | 1 << v} & tried:
            if not every:
                tried |= {adj[v], adj[v] | 1 << v}
            if not _fill_by_words(adj, rows, every, found,
                                  {u: x << 1 | adj[u] >> v & 1
                                   for u, x in words.items() if u != v},
                                  (v,) + perm):
                return False
    return True


# The census read as objects, as the package read it before it held its
# separations as masks only.  Each reading builds its objects afresh from
# the census's own fields, never from the graph: the Sils from
# ``_sil_masks`` and the order-2 mask ``_order_two``, the Stils from
# ``_star_owners`` (through ``_stil_masks``), the Fsils from ``witnesses``
# (through ``_fsil_triples``) and each of their Sils, like ``sil_at`` and
# ``shared_sil_component``, from ``star_splits`` and ``_star_owners``.  So
# a census changed on purpose is read as the objects of that census.


class SharedComponentError(RuntimeError):
    """A separating pair whose separated component is not a common
    component of both punctured graphs."""


class Sil(NamedTuple):
    """A separating intersection of links {v1, v2 | C}."""

    pair: tuple  # sorted, non-adjacent
    component: frozenset
    coxeter: bool


class Stil(NamedTuple):
    """A separating triple intersection of links {v1, v2, v3 | C}."""

    triple: tuple  # sorted; spans at most one edge
    component: frozenset


class Fsil(NamedTuple):
    """A flexible triple, with one witnessing Sil per pair, ordered like
    the pairs (v1,v2), (v1,v3), (v2,v3)."""

    triple: tuple
    sils: tuple


def star_components(census, v):
    """Components of the graph minus St(v), as vertex sets."""
    return tuple(map(_bits_to_set, census.star_splits[v]))


def sil_at(census, a, b, z):
    """The Sil {a, b | C} with z in C, if any: C is the component of
    G - St(a) holding z, if also one of G - St(b), and a, b non-adjacent."""
    if a == b or census.graph.adj[a] >> b & 1:
        return None
    comp = next((c for c in census.star_splits[a] if c >> z & 1), 0)
    if not census._star_owners.get(comp, 0) >> b & 1:
        return None
    two = census._order_two
    return Sil((a, b) if a < b else (b, a), _bits_to_set(comp),
               two >> a & two >> b & 1 == 1)


def is_sil(census, v1, v2, z):
    """The Sil {v1, v2 | C} whose component C contains z, if any."""
    g = census.graph
    g.check_vertex(z)
    g.check_vertex(v1)
    g.check_vertex(v2)
    return sil_at(census, v1, v2, z)


def enumerate_sils(census):
    """All Sils, sorted by pair, then by smallest component vertex."""
    two = census._order_two
    return [Sil((a, b), _bits_to_set(comp), two >> a & two >> b & 1 == 1)
            for a, b, _, comp in census._sil_masks]


def enumerate_stils(census):
    """All Stils, triples in lexicographic order, components in order of
    smallest contained vertex."""
    return [Stil((a, b, c), _bits_to_set(comp))
            for a, b, c, _, comp in sorted(_stil_masks(census))]


def enumerate_fsils(census):
    """All flexible triples, in lexicographic order."""
    return [Fsil((v1, v2, v3), (sil_at(census, v1, v2, v3),
                                sil_at(census, v1, v3, v2),
                                sil_at(census, v2, v3, v1)))
            for v1, v2, v3 in _fsil_triples(census)]


def shared_sil_component(census, sil):
    """The component of both G - St(v1) and G - St(v2) that holds the
    Sil's lowest component vertex, after checking that it is one
    component, holding the whole of C; else SharedComponentError."""
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
    shared = _bits_to_set(sides[0])
    if sides[0] != sides[1] or not sil.component <= shared:
        raise SharedComponentError(
            f"separated component of pair ({g.names[v1]}, {g.names[v2]}) is not shared: "
            f"{sorted(shared)} vs {sorted(_bits_to_set(sides[1]))}")
    return shared


def partial_conjugations(census, v):
    """All partial conjugations with acting vertex v, in component order."""
    census.graph.check_vertex(v)
    return [PartialConjugation(v, comp) for comp in star_components(census, v)]


def star_cut_points(census):
    """The vertices acting in ``census.generators``, ascending."""
    return list(dict.fromkeys(v for v, _ in census.generators))


def commutes(census, x, y):
    """Whether two partial conjugations commute in Out(W), by
    ``commute_rule``; ``ValueError`` if they may not and a component is
    not one of G minus the star of its vertex."""
    pair = (x.vertex, y.vertex) if x.vertex < y.vertex else (y.vertex, x.vertex)
    witnesses = census.witnesses.get(pair)
    if not witnesses:
        return True
    for pc in (x, y):
        validate_partial_conjugation(census, pc.vertex, pc.component)
    return commute_rule(witnesses, x.vertex, sum(1 << u for u in x.component),
                        y.vertex, sum(1 << u for u in y.component))


def to_json(g):
    """The graph JSON text of ``g``, as a graph file holds it."""
    return json.dumps(to_json_dict(g), ensure_ascii=False, indent=2) + "\n"


def identity_automorphism(g):
    return Automorphism0((EPSILON,) * g.n)


def commutator_power_probe(g, x, y, max_power):
    """Largest N <= max_power such that none of [x, y]^1 .. [x, y]^N is
    inner.  Each power's innerness is decided exactly, so N < max_power
    means [x, y]^(N+1) is inner: the commutator has finite order in
    Out(W), dividing N + 1.  N = max_power only bounds that order from
    below; it is evidence, not proof, that the order is infinite."""
    if max_power < 1:
        raise ValueError("max_power must be >= 1")
    k = commutator(g, x, y)
    power = identity_automorphism(g)
    for p in range(1, max_power + 1):
        power = compose(g, k, power)
        if search_inner(g, power) is not None:
            return p - 1
    return max_power


# The eight order-free checks as they were before they read the census's
# masks: each reads the Sil, Stil and Fsil objects.


def lemma_2_2_on_objects(census):
    g = census.graph
    full = (1 << g.n) - 1
    pair = None
    for sil in enumerate_sils(census):
        a, b = sil.pair
        if sil.pair != pair:
            pair = sil.pair
            split = component_masks(g.adj, full & ~(g.adj[a] & g.adj[b]))
        mask = sum(1 << v for v in sil.component)
        try:
            shared_sil_component(census, sil)
            if mask & (1 << a | 1 << b) or mask not in split:
                raise SharedComponentError(
                    f"separated component of pair ({g.names[a]}, {g.names[b]}) "
                    "is not a component of the graph minus their common link")
        except SharedComponentError as exc:
            return ({"pair": vertex_names(g, sil.pair),
                     "component": vertex_names(g, sil.component)}, str(exc))
    return None


def lemma_4_on_objects(census):
    if len(enumerate_sils(census)) != 1:
        return None
    stils = enumerate_stils(census)
    if stils:
        g = census.graph
        return ({"triple": vertex_names(g, stils[0].triple),
                 "component": vertex_names(g, stils[0].component)},
                "unique separating pair coexists with a separating triple")
    return None


def stil_two_sils_on_objects(census):
    stils = enumerate_stils(census)
    if not stils:
        return None
    sils = enumerate_sils(census)
    if len(sils) < 2:
        return ({"triple": vertex_names(census.graph, stils[0].triple),
                 "sil_count": len(sils)},
                "separating triple with fewer than two separating pairs")
    return None


def lemma_7_on_objects(census):
    if len(census.split) > 1:
        return None
    sils = enumerate_sils(census)
    if len(sils) != 1:
        return None
    for v in sils[0].pair:
        ncomp = len(census.star_splits[v])
        if ncomp != 2:
            return ({"vertex": census.graph.names[v], "components": ncomp},
                    "puncturing a unique-pair vertex left "
                    f"{ncomp} components instead of 2")
    return None


def lemma_1_7_on_objects(census):
    if len(census.split) > 1:
        return None
    g = census.graph
    full = (1 << g.n) - 1
    for s1, s2 in combinations(enumerate_sils(census), 2):
        common = set(s1.pair) & set(s2.pair)
        witnesses = sorted(s1.component & s2.component)
        if len(common) != 1 or not witnesses:
            continue
        x1 = common.pop()
        x2 = next(v for v in s1.pair if v != x1)
        x3 = next(v for v in s2.pair if v != x1)
        split = component_masks(g.adj, full & ~(g.adj[x1] & g.adj[x2] & g.adj[x3]))
        for z in witnesses:
            for comp in split:
                if comp >> z & 1:
                    if comp & (1 << x1 | 1 << x2 | 1 << x3):
                        return ({"triple": vertex_names(g, (x1, x2, x3)),
                                 "witness": g.names[z]},
                                "shared witness of two separating pairs does "
                                "not separate the triple")
                    break
    return None


def finite_equiv_on_objects(census):
    sils = enumerate_sils(census)
    all_commute = not any(census.non_commuting)
    if (not sils) != all_commute:
        return ({"sil_count": len(sils), "all_commute": all_commute},
                "separating-pair census disagrees with generator commutation")
    return None


def three_components_fsil_on_objects(census):
    if len(census.split) < 3:
        return None
    if not enumerate_fsils(census):
        comps = [vertex_names(census.graph, c) for c in census.components()]
        return ({"components": comps},
                f"{len(comps)} components but no flexible separating triple")
    return None


def fsil_three_sils_on_objects(census):
    sils = enumerate_sils(census)
    for fsil in enumerate_fsils(census):
        triple = set(fsil.triple)
        pairs = {sil.pair for sil in sils if set(sil.pair) <= triple}
        if len(pairs) < 3:
            return ({"triple": vertex_names(census.graph, fsil.triple),
                     "pairs": sorted(map(list, pairs))},
                    "flexible triple with fewer than three distinct pairs")
    return None


ORDER_FREE_ON_OBJECTS = {
    "lemma_2_2": lemma_2_2_on_objects,
    "lemma_4": lemma_4_on_objects,
    "stil_two_sils": stil_two_sils_on_objects,
    "lemma_7": lemma_7_on_objects,
    "lemma_1_7": lemma_1_7_on_objects,
    "finite_equiv": finite_equiv_on_objects,
    "three_components_fsil": three_components_fsil_on_objects,
    "fsil_three_sils": fsil_three_sils_on_objects,
}


def _sil_dict(g, s):
    return {"pair": [g.names[v] for v in s.pair],
            "component": vertex_names(g, s.component), "coxeter": s.coxeter}


def build_report(g):
    """The full classification report as a JSON-ready dict, read from one
    census of ``g`` as objects."""
    census = Census(g)
    out_class = outer.classify(census)
    pres = outer.presentation(census)
    disc = outer.disconnected_structure(census)

    warnings = []
    if (out_class.kind is outer.OutKind.LARGE and out_class.fsils
            and not out_class.stils and not out_class.non_coxeter_sils):
        warnings.append(
            "largeness rests solely on a flexible separating triple: every "
            "separating pair here is a Coxeter pair and there is no separating "
            "triple, so a census that ignored flexible triples would report "
            "VirtuallyAbelianNotZ instead of Large")

    return {
        "version": REPORT_VERSION,
        "graph": to_json_dict(g),
        "class": out_class.kind.value,
        "evidence": {
            "coxeter_sils": out_class.coxeter_sils,
            "non_coxeter_sils": out_class.non_coxeter_sils,
            "stils": out_class.stils,
            "fsils": out_class.fsils,
        },
        "sils": [_sil_dict(g, s) for s in enumerate_sils(census)],
        "stils": [{"triple": [g.names[v] for v in s.triple],
                   "component": vertex_names(g, s.component)}
                  for s in enumerate_stils(census)],
        "fsils": [{"triple": [g.names[v] for v in f.triple],
                   "witnesses": [_sil_dict(g, s) for s in f.sils]}
                  for f in enumerate_fsils(census)],
        "presentation": _presentation_dict(g, pres),
        "disconnected": None if disc is None else {
            "components": [vertex_names(g, c) for c in disc.components],
            "status": disc.status,
            "reason": disc.reason,
            "quotients": (None if disc.quotients is None
                          else [vertex_names(g, q) for q in disc.quotients]),
            "summary": disc.summary,
        },
        "warnings": warnings,
    }
