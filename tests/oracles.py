"""Independent brute-force oracles the tests check the library against.

Everything here recomputes from first principles over plain edge lists:
union-find components instead of bitmask BFS, per-definition separation
scans instead of the library's enumerators, an exhaustive rewriting
closure instead of the normal-form algorithm, a breadth-first search
over conjugating words instead of the coset fold that decides innerness,
and isomorph rejection by marking whole orbits under all n! vertex
permutations instead of orderly generation.
Slow on purpose and kept free of silscope internals beyond the graph data
fields; the exceptions are the word oracles.  The word search compares
words in the library's normal form (itself checked against the rewriting
closure), and the commutator and innerness fold that the closed forms in
``silscope.words`` replaced are kept here as they were: a commutator built
from three generic compositions, and a coset fold taken one vertex at a
time.  So is the suite driver that mask groups replaced: it runs the
library's checks on a census of every enumerated graph, where the library
runs the order-free checks once per edge mask.  The innerness test by
definition lives here too, with the vertex images it compares:
``is_inner_with`` checks a candidate word on every vertex through
``conjugate`` and ``image_of_vertex``, and the breadth-first search
compares the same images.
"""

from functools import lru_cache
from itertools import combinations, permutations, product

from silscope.graphs import LabelledGraph
from silscope.harness import CHECKS, enumerate_graphs
from silscope.sils import Census
from silscope.words import (_inverse, _peel_left, _strip_right, compose,
                            pc_automorphism, reduce)


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


def run_suite_per_graph(spec):
    """``harness.run_suite`` as it was before mask groups: one census per
    enumerated graph and every check of ``spec`` run on it, in this
    process.  Returns ``(checked_graphs, reports)``."""
    checked, reports = 0, []
    for g in enumerate_graphs(spec):
        checked += 1
        census = Census(g)
        for check_id in spec.checks:
            report = CHECKS[check_id](census)
            if report is not None:
                reports.append(report)
    return checked, reports
