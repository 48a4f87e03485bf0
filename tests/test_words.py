import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from silscope import (EPSILON, PartialConjugation, WordError, apply,
                      apply_automorphism, commutator, commutator_power_probe,
                      compose, identity_automorphism, make_word,
                      parse_word_literal, partial_conjugations,
                      pc_automorphism, reduce, search_inner)
from silscope.graphs import LabelledGraph
from silscope.harness import EnumSpec
from silscope.outer import build_p0
from silscope.sils import Census
from silscope.words import (Automorphism0, _model, commutator_is_inner,
                            commutator_shape, format_word)

import oracles
from oracles import graph_from_bits, image_of_vertex, is_inner_with
from conftest import (path_mixed_orders, path_plus_isolated,
                      pentagon_fork, pentagon_triangle, vset)

G1 = pentagon_triangle()
P3 = path_mixed_orders()
D1 = path_plus_isolated()
FORK = pentagon_fork()

SIL_COMPONENT = vset(G1, "d", "e", "f")
CHI_V1 = PartialConjugation(G1.index("v1"), SIL_COMPONENT)
CHI_V2 = PartialConjugation(G1.index("v2"), SIL_COMPONENT)
CHI_C = PartialConjugation(G1.index("c"), vset(G1, "e", "f"))


def lit(g, text):
    return parse_word_literal(g, text)


def words_for(g, max_len=6):
    syllable = st.tuples(st.integers(0, g.n - 1), st.integers(1, 5))
    return st.lists(syllable, max_size=max_len).map(lambda s: make_word(g, s))


# ---------------------------------------------------------------------------
# Normal form


def test_reduce_examples():
    assert reduce(G1, lit(G1, "v1 v1")) == EPSILON
    assert reduce(P3, lit(P3, "v3 v3 v3")) == EPSILON
    assert reduce(G1, lit(G1, "v1 a")) == reduce(G1, lit(G1, "a v1"))
    alternating = lit(G1, "v1 v2 v1 v2")
    assert len(reduce(G1, alternating)) == 4
    assert oracles.is_reduced_by_rewriting(G1, alternating)


def test_reduce_merges_across_commuting_syllables():
    # d and f commute with e's neighbours? no: build a direct case in P3:
    # v2 commutes with v1, so v2 v1 v2 collapses to v1
    w = lit(P3, "v2 v1 v2")
    assert reduce(P3, w) == lit(P3, "v1")
    # order-3 exponent arithmetic across a commuting vertex
    w = lit(P3, "v3 v1 v3^2")
    assert reduce(P3, w) == lit(P3, "v1")


def test_canonical_form_is_lex_least_shuffle():
    w = reduce(G1, lit(G1, "f d e"))  # pairwise adjacent: fully commuting
    assert w == lit(G1, "d e f")


@given(words_for(G1))
def test_reduce_idempotent_and_never_longer(w):
    r = reduce(G1, w)
    assert reduce(G1, r) == r
    assert len(r) <= len(w)


@given(words_for(P3))
def test_reduce_idempotent_mixed_orders(w):
    r = reduce(P3, w)
    assert reduce(P3, r) == r
    for v, e in r:
        assert 1 <= e < P3.orders[v]


@given(words_for(G1, max_len=5))
@settings(max_examples=60, deadline=None)
def test_reduce_agrees_with_rewriting_oracle(w):
    r = reduce(G1, w)
    closure = oracles.rewrite_closure(G1, w)
    shortest = min(len(x) for x in closure)
    assert len(r) == shortest
    reduced_class = {x for x in closure if len(x) == shortest}
    assert r in reduced_class
    assert r == min(reduced_class)  # canonical = lex-least representative


@given(words_for(G1), st.integers(0, 6))
def test_reduce_confluent_under_splitting(w, k):
    k = min(k, len(w))
    assert reduce(G1, reduce(G1, w[:k]) + reduce(G1, w[k:])) == reduce(G1, w)


# ---------------------------------------------------------------------------
# Group operations


@given(words_for(G1))
def test_word_times_inverse_is_identity(w):
    inverse = tuple((v, -e) for v, e in reversed(w))
    assert reduce(G1, w + inverse) == EPSILON
    assert reduce(G1, inverse + w) == EPSILON


@given(words_for(P3, max_len=4), words_for(P3, max_len=4))
@settings(max_examples=40, deadline=None)
def test_equals_agrees_with_rewriting_oracle(w1, w2):
    """Equal normal forms exactly when the words are equal in the group."""
    assert (reduce(P3, w1) == reduce(P3, w2)) == \
        oracles.equal_by_rewriting(P3, w1, w2)


# ---------------------------------------------------------------------------
# Partial conjugations acting on words


def test_apply_examples():
    d = lit(G1, "d")
    assert apply(G1, CHI_V1, d) == lit(G1, "v1 d v1")
    assert apply(G1, CHI_V1, lit(G1, "a")) == lit(G1, "a")
    assert apply(G1, CHI_V1, apply(G1, CHI_V1, d)) == d


@given(words_for(G1), words_for(G1))
def test_apply_is_a_homomorphism(w1, w2):
    assert apply(G1, CHI_V1, w1 + w2) == \
        reduce(G1, apply(G1, CHI_V1, w1) + apply(G1, CHI_V1, w2))


def all_partial_conjugations(g):
    census = Census(g)
    return [pc for v in range(g.n) for pc in partial_conjugations(census, v)]


@pytest.mark.parametrize("g", [G1, D1, P3], ids=["pentagon", "path+point", "path3"])
def test_generator_order_matches_vertex_order(g):
    for pc in all_partial_conjugations(g):
        phi = pc_automorphism(g, pc)
        power = identity_automorphism(g)
        m = g.orders[pc.vertex]
        for step in range(1, m + 1):
            power = compose(g, phi, power)
            moved = any(image_of_vertex(g, power, v) != ((v, 1),)
                        for v in range(g.n))
            if step < m and pc.component:
                assert moved
        assert power == identity_automorphism(g)


def test_order_three_actor():
    g = path_mixed_orders()
    # rewire: make v3 a star cut point by isolating it
    from silscope import make_graph
    h = make_graph([("u", 3), ("k", 2), ("w", 2), ("t", 2)],
                   [("u", "k"), ("k", "w")])
    pc = next(pc for pc in partial_conjugations(Census(h), 0) if pc.component == {3})
    phi = pc_automorphism(h, pc)
    sq = compose(h, phi, phi)
    cube = compose(h, sq, phi)
    assert sq != identity_automorphism(h)
    assert cube == identity_automorphism(h)
    assert g.orders[2] == 3  # the original fixture keeps its order map


# ---------------------------------------------------------------------------
# Composition and innerness


def test_compose_examples():
    ident = identity_automorphism(G1)
    phi = pc_automorphism(G1, CHI_V1)
    assert compose(G1, ident, phi) == phi
    assert compose(G1, phi, ident) == phi
    assert compose(G1, phi, phi) == ident  # order 2
    both = compose(G1, phi, pc_automorphism(G1, CHI_V2))
    d = G1.index("d")
    # (phi1 o phi2)(d) = phi1(phi2(d)) = phi1(v2 d v2) = v2 (v1 d v1) v2
    assert image_of_vertex(G1, both, d) == reduce(G1, lit(G1, "v2 v1 d v1 v2"))
    assert image_of_vertex(G1, both, d) == apply_automorphism(
        G1, phi, image_of_vertex(G1, pc_automorphism(G1, CHI_V2), d))


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_compose_expansion_property(data):
    pcs = all_partial_conjugations(G1)
    p1 = data.draw(st.sampled_from(pcs))
    p2 = data.draw(st.sampled_from(pcs))
    phi1, phi2 = pc_automorphism(G1, p1), pc_automorphism(G1, p2)
    comp = compose(G1, phi1, phi2)
    for v in range(G1.n):
        assert image_of_vertex(G1, comp, v) == \
            apply_automorphism(G1, phi1, image_of_vertex(G1, phi2, v))


def inner_by_v1():
    comps = partial_conjugations(Census(G1), G1.index("v1"))
    assert len(comps) == 2
    return compose(G1, pc_automorphism(G1, comps[0]),
                   pc_automorphism(G1, comps[1]))


def test_is_inner_with_examples():
    v1_word = lit(G1, "v1")
    assert is_inner_with(G1, inner_by_v1(), v1_word)
    assert is_inner_with(G1, identity_automorphism(G1), EPSILON)
    assert not is_inner_with(G1, pc_automorphism(G1, CHI_V1), v1_word)


def test_search_inner_examples():
    assert search_inner(G1, inner_by_v1()) == lit(G1, "v1")
    assert search_inner(G1, identity_automorphism(G1)) == EPSILON
    k = commutator(G1, CHI_V1, CHI_V2)
    assert search_inner(G1, k) is None
    # the commutator moves the separated component by an alternating word
    d = G1.index("d")
    assert image_of_vertex(G1, k, d) == reduce(G1, lit(G1, "v2 v1 v2 v1 d v1 v2 v1 v2"))


def test_search_inner_on_the_empty_graph():
    empty = LabelledGraph((), (), ())
    assert search_inner(empty, Automorphism0(())) == EPSILON


def within_four(w):
    """w, or None when it is longer than the BFS oracle's depth of 4."""
    return w if w is None or len(w) <= 4 else None


def p0_commutators(spec):
    for g in oracles.graphs_of(spec):
        gens = build_p0(Census(g))
        for x, y in itertools.combinations(gens, 2):
            yield g, commutator(g, x, y)


@pytest.mark.parametrize("spec, expected", [
    (EnumSpec(4, orders=(2, 3), dedup_isomorphic=True), 242),
    (EnumSpec(5, orders=(2,)), 3196),
], ids=["dedup_n4_orders23", "labelled_n5_orders2"])
def test_search_inner_matches_bfs_on_every_commutator(spec, expected):
    count = 0
    for g, k in p0_commutators(spec):
        assert within_four(search_inner(g, k)) == oracles.bfs_inner_witness(g, k, 4)
        count += 1
    assert count == expected


ORDERS = (2, 3, 4, 5, 7, 8, 9)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_commutator_innerness_reads_no_orders(data):
    """Two arbitrary order maps give [chi_{a,C}, chi_{b,D}] the same
    innerness verdict for every P0 pair, the one ``commutator_is_inner``
    gives its shape.  Only the verdict agrees, not the witness: a^-1 is
    the word a^2 when m(a) = 3 and a^3 when m(a) = 4."""
    n = data.draw(st.integers(2, 7))
    mask = data.draw(st.integers(0, (1 << n * (n - 1) // 2) - 1))
    order_map = st.lists(st.sampled_from(ORDERS), min_size=n, max_size=n)
    g = graph_from_bits(n, mask, data.draw(order_map))
    h = LabelledGraph(g.names, tuple(data.draw(order_map)), g.adj)
    census = Census(g)
    for ((a, c), x), ((b, d), y) in itertools.combinations(
            zip(census.generators, build_p0(census)), 2):
        found = search_inner(g, commutator(g, x, y)) is not None
        assert (search_inner(h, commutator(h, x, y)) is not None) == found
        assert commutator_is_inner(commutator_shape(g, a, c, b, d)) == found



def partial_conjugation_masks(g):
    """(v, C) for every component mask C of G - St(v), v a star cut point:
    the generators and the component each one's P0 drops."""
    return [(v, c) for v, split in enumerate(Census(g).star_splits)
            if len(split) > 1 for c in split]


def fresh_innerness(g, a, c, b, d, m_a, m_b):
    """Whether [chi_{a,C}, chi_{b,D}] is inner in g with m(a) = m_a and
    m(b) = m_b, by a search on that graph."""
    orders = list(g.orders)
    orders[a], orders[b] = m_a, m_b
    h = LabelledGraph(g.names, tuple(orders), g.adj)
    x, y = (PartialConjugation(v, frozenset(u for u in range(g.n)
                                            if mask >> u & 1))
            for v, mask in ((a, c), (b, d)))
    return search_inner(h, commutator(h, x, y)) is not None


def random_graph(rng):
    """A graph on 9 to 14 vertices, sparse enough to have star cut points,
    with orders from ORDERS but 7."""
    n = rng.randint(9, 14)
    density = rng.choice((0.15, 0.25, 0.4))
    mask = sum(1 << k for k in range(n * (n - 1) // 2)
               if rng.random() < density)
    return graph_from_bits(n, mask, [rng.choice((2, 3, 4, 5, 8, 9))
                                      for _ in range(n)])


def acting_order_pairs(a, b):
    """(m(a), m(b)) from ORDERS, equal ones when a = b."""
    return (zip(ORDERS, ORDERS) if a == b
            else itertools.product(ORDERS, repeat=2))


def test_model_verdict_equals_a_fresh_search_on_every_pair():
    """``commutator_is_inner`` searches a model graph of the shape.  On
    each ordered pair of partial conjugations of dedup n <= 5 {2}, the
    dropped components included, its one verdict equals a search on the
    pair's own graph under every pair of acting orders from ORDERS."""
    cases = 0
    for g in oracles.graphs_of(EnumSpec(5, dedup_isomorphic=True)):
        for (a, c), (b, d) in itertools.permutations(
                partial_conjugation_masks(g), 2):
            found = commutator_is_inner(commutator_shape(g, a, c, b, d))
            for m_a, m_b in acting_order_pairs(a, b):
                assert found == fresh_innerness(g, a, c, b, d, m_a, m_b), \
                    (g, a, c, b, d, m_a, m_b)
                cases += 1
    assert cases == 71582


def syntactic_shapes():
    """Every value of :func:`commutator_shape`'s form, realisable or not:
    a, b adjacent or not and p, q free for a != b, or a = b with none of
    them, and any non-empty set of classes (s, t), each with either star
    bit.  9 * (5^4 - 1) = 5,616 keys."""
    heads = [(adjacent, False, p, q)
             for adjacent, p, q in itertools.product((0, 1), repeat=3)]
    options = [None] + list(itertools.product((False, True), repeat=2))
    for head in heads + [(0, True, 0, 0)]:
        for picks in itertools.product(options, repeat=4):
            classes = tuple((s, t) + bits for (s, t), bits in zip(
                ((0, 0), (0, 1), (1, 0), (1, 1)), picks) if bits)
            if classes:
                yield head + (classes,)


def closed_form_innerness(shape):
    """The :func:`commutator_shape` docstring's verdict: inner iff a and b
    are adjacent or equal, or the vertices whose conjugator is 1, or those
    whose conjugator is V, all have both a and b in their stars.  The
    class vertices count, and so do a, in class (0, p), and b, in class
    (q, 0)."""
    adjacent, same, p, q, classes = shape
    if adjacent or same:
        return True
    at_v = {(0, 0): {(1, 1)}, (0, 1): {(0, 1)}, (1, 0): {(1, 0)},
            (1, 1): {(0, 1), (1, 0), (1, 1)}}[p, q]
    members = classes + ((0, p, True, False), (q, 0, False, True))
    return any(all(in_a and in_b for s, t, in_a, in_b in members
                   if ((s, t) in at_v) == side) for side in (False, True))


def test_every_syntactic_shape_has_one_verdict_under_all_orders():
    """On the model graph of every syntactic shape, a fresh search under
    each pair of acting orders from ORDERS gives ``commutator_is_inner``'s
    verdict, and so does the docstring's closed form: no vertex order
    changes whether a commutator is inner."""
    shapes = list(syntactic_shapes())
    assert len(shapes) == len(set(shapes)) == 5616
    cases = inner = 0
    for shape in shapes:
        found = commutator_is_inner(shape)
        assert closed_form_innerness(shape) == found, shape
        g, x, y = _model(shape)
        a, b = x.vertex, y.vertex
        for m_a, m_b in acting_order_pairs(a, b):
            orders = list(g.orders)
            orders[a], orders[b] = m_a, m_b
            h = LabelledGraph(g.names, tuple(orders), g.adj)
            assert (search_inner(h, commutator(h, x, y)) is not None) == \
                found, (shape, m_a, m_b)
            cases += 1
        inner += found
    assert cases == 248976
    assert 0 < inner < len(shapes)


def test_model_verdict_equals_a_fresh_search_on_random_graphs():
    """As above, on sampled pairs of seeded random graphs on 9 to 14
    vertices, under their own orders."""
    rng = random.Random(20261019)
    cases = 0
    for _ in range(300):
        g = random_graph(rng)
        pcs = partial_conjugation_masks(g)
        for _ in range(20 if pcs else 0):
            (a, c), (b, d) = rng.sample(pcs, 2)
            assert commutator_is_inner(commutator_shape(g, a, c, b, d)) == \
                fresh_innerness(g, a, c, b, d, g.orders[a], g.orders[b]), \
                (g, a, c, b, d)
            cases += 1
    assert cases > 5000


def test_commutator_shape_reads_no_numbering():
    """The shape of each ordered pair of partial conjugations is the same
    after a relabelling of the graph."""
    rng = random.Random(26)
    graphs = list(oracles.graphs_of(EnumSpec(5, dedup_isomorphic=True)))
    pairs = 0
    for g in graphs + [random_graph(rng) for _ in range(30)]:
        for _ in range(3):
            perm = list(range(g.n))
            rng.shuffle(perm)
            h = g.relabelled(perm)

            def moved(mask):
                return sum(1 << perm[u] for u in range(g.n) if mask >> u & 1)

            for (a, c), (b, d) in itertools.permutations(
                    partial_conjugation_masks(g), 2):
                assert commutator_shape(g, a, c, b, d) == commutator_shape(
                    h, perm[a], moved(c), perm[b], moved(d)), (g, perm)
                pairs += 1
    assert pairs > 1000

def test_search_inner_matches_bfs_on_random_automorphisms():
    """Random conjugators make mostly non-inner automorphisms: a witness
    must be sound, and the answer must equal the BFS at depth 4."""
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randint(2, 5)
        mask = rng.getrandbits(n * (n - 1) // 2)
        g = graph_from_bits(n, mask, [rng.choice((2, 3)) for _ in range(n)])
        phi = Automorphism0(tuple(
            reduce(g, [(rng.randrange(n), rng.randint(1, 2))
                       for _ in range(rng.randint(0, 3))])
            for _ in range(n)))
        w = search_inner(g, phi)
        assert w is None or is_inner_with(g, phi, w)
        assert w == oracles.search_inner_by_vertex(g, phi)
        assert within_four(w) == oracles.bfs_inner_witness(g, phi, 4)


def test_search_inner_finds_random_inner_automorphisms():
    """phi with conjugators u . z_v, z_v in the centraliser <St(v)> of v, is
    conjugation by u; the decider must find a witness no longer than u."""
    rng = random.Random(20261018)
    longer_than_four = 0
    for _ in range(400):
        n = rng.randint(2, 8)
        mask = rng.getrandbits(n * (n - 1) // 2)
        g = graph_from_bits(n, mask, [rng.choice((2, 3, 4)) for _ in range(n)])
        u = reduce(g, [(rng.randrange(n), rng.randint(1, 3))
                       for _ in range(rng.randint(0, 12))])
        conj = []
        for v in range(n):
            star = [x for x in range(n) if x == v or g.adjacent(x, v)]
            z = [(rng.choice(star), rng.randint(1, 3))
                 for _ in range(rng.randint(0, 4))]
            conj.append(reduce(g, u + tuple(z)))
        phi = Automorphism0(tuple(conj))
        w = search_inner(g, phi)
        assert w is not None and is_inner_with(g, phi, w)
        assert w == oracles.search_inner_by_vertex(g, phi)
        assert len(w) <= len(u)
        longer_than_four += len(w) > 4
    assert longer_than_four >= 50  # beyond the reach of a depth-4 search


@pytest.mark.parametrize("spec, expected", [
    (EnumSpec(5, orders=(2, 3, 4), dedup_isomorphic=True), 15531),
    (EnumSpec(7, orders=(2,), dedup_isomorphic=True), 16639),
], ids=["dedup_n5_orders234", "dedup_n7_orders2"])
def test_closed_forms_match_the_compose_path(spec, expected):
    """The closed-form commutator equals three generic compositions, and
    the fold by conjugator class equals the fold by vertex, on every pair
    of generators."""
    count = 0
    for g in oracles.graphs_of(spec):
        for x, y in itertools.combinations(build_p0(Census(g)), 2):
            k = commutator(g, x, y)
            assert k == oracles.commutator_by_compose(g, x, y)
            assert search_inner(g, k) == oracles.search_inner_by_vertex(g, k)
            count += 1
    assert count == expected


def test_search_inner_matches_the_vertex_fold_on_random_products():
    """Products of several partial conjugations and their inverses share
    conjugators between vertices in more patterns than one commutator."""
    rng = random.Random(11)
    inner = 0
    for _ in range(300):
        n = rng.randint(3, 7)
        g = graph_from_bits(n, rng.getrandbits(n * (n - 1) // 2),
                            [rng.choice((2, 3, 4)) for _ in range(n)])
        gens = build_p0(Census(g))
        if not gens:
            continue
        phi = identity_automorphism(g)
        for _ in range(rng.randint(1, 6)):
            step = pc_automorphism(g, rng.choice(gens), rng.choice((1, -1)))
            phi = compose(g, step, phi)
        w = search_inner(g, phi)
        assert w == oracles.search_inner_by_vertex(g, phi)
        assert w is None or is_inner_with(g, phi, w)
        inner += w is not None
    assert inner > 0


def test_commutator_refuses_an_actor_inside_its_component():
    v1, d = G1.index("v1"), G1.index("d")
    bad = PartialConjugation(v1, frozenset({v1, d}))
    with pytest.raises(ValueError):
        commutator(G1, bad, CHI_V2)
    with pytest.raises(ValueError):
        commutator(G1, CHI_V2, bad)


def test_commutator_power_probe_examples():
    assert commutator_power_probe(G1, CHI_V1, CHI_V2, 4) == 4
    assert commutator_power_probe(G1, CHI_C, CHI_V1, 4) == 0
    assert commutator_power_probe(G1, CHI_V1, CHI_V1, 4) == 0
    with pytest.raises(ValueError):
        commutator_power_probe(G1, CHI_V1, CHI_V2, 0)


def test_disjoint_sil_generators_fix_other_support():
    """Words in one separating pair's conjugations act trivially on the
    other pair's separated component when the components are disjoint."""
    g = FORK
    C = vset(g, "d", "e", "f")
    D = vset(g, "a", "b", "c", "v1", "v2")
    a1 = pc_automorphism(g, PartialConjugation(g.index("v1"), C))
    a2 = pc_automorphism(g, PartialConjugation(g.index("v2"), C))
    for picks in itertools.product([a1, a2], repeat=4):
        phi = identity_automorphism(g)
        for step in picks:
            phi = compose(g, step, phi)
        for u in D:
            assert image_of_vertex(g, phi, u) == ((u, 1),)


# ---------------------------------------------------------------------------
# Word literals


def test_parse_and_format_round_trip():
    w = lit(G1, "v1 d^1 v1")
    assert w == ((G1.index("v1"), 1), (G1.index("d"), 1), (G1.index("v1"), 1))
    assert format_word(G1, w) == "v1 d v1"
    assert lit(P3, "v3^-1") == ((P3.index("v3"), 2),)
    assert lit(G1, "v1^2") == EPSILON  # exponent reduces to zero mod 2
    assert format_word(P3, lit(P3, "v3^2")) == "v3^2"
    assert format_word(G1, EPSILON) == ""


def test_parse_rejects_bad_tokens():
    with pytest.raises(WordError):
        lit(G1, "nope")
    with pytest.raises(WordError):
        lit(G1, "v1^x")


@pytest.mark.parametrize("token", ["v1^1_0", "v1^\u0661", "v1^\uff11",
                                   "v1^1.0", "v1^--1", "v1^"])
def test_parse_takes_only_ascii_decimal_exponents(token):
    # int() reads "1_0" as 10 and the Arabic-Indic digit one as 1
    with pytest.raises(WordError) as exc:
        lit(G1, token)
    assert str(exc.value) == f"bad exponent in word token {token!r}"


def test_parse_takes_a_signed_exponent():
    assert lit(P3, "v3^+1") == lit(P3, "v3") == ((P3.index("v3"), 1),)
    assert lit(P3, "v3^-1") == lit(P3, "v3^2")
    with pytest.raises(Exception):
        make_word(G1, [(99, 1)])
