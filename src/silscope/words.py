"""Exact arithmetic in the graph product and its vertex-conjugating
automorphisms.

Words are tuples of (vertex, exponent) syllables with exponents in
[1, m(v)-1].  ``reduce`` computes a canonical normal form: syllables are
merged leftward across commuting neighbours until no merge applies, then
the shuffle class is linearised greedily by smallest vertex index, which
is its lexicographically least representative.  Two words are equal in the
group iff their canonical forms coincide, so everything downstream —
automorphism images, innerness tests, commutator order probes — compares
tuples.

Innerness is decided exactly.  A vertex-conjugating automorphism sends
each vertex v to w_v v w_v^-1; since the centraliser of a vertex generator
v in a graph product of cyclic groups is the parabolic subgroup <St(v)>
(Green, *Graph products of groups*, thesis, Leeds 1990), it is conjugation
by g exactly when g lies in every coset w_v <St(v)>.  Parabolic cosets
meet in parabolic cosets, and parabolic double cosets have unique shortest
representatives (Antolín and Minasyan, *Tits alternatives for graph
products*, J. reine angew. Math. 2015), so :func:`search_inner` folds the
cosets on normal forms and returns the shortest witness, or None when the
cosets have no common element.  Vertices that share a conjugator w share
one coset w <St(v1) & St(v2) & ...>, so the fold takes one step per
distinct conjugator, not one per vertex.

The commutator [chi_{a,C}, chi_{b,D}] of two partial conjugations is
built in closed form.  Its conjugator at u is the reduced word
a^q b^p a^-q b^-t a^(q-s) b^(t-p) a^(s-q), with p = [a in D],
q = [b in C], s = [u in C] and t = [u in D]; it holds because a is not
in C and b is not in D, so each factor fixes its own acting vertex.  The
word depends on u only through (s, t), so :func:`commutator` reduces at
most three words.  It is derived from the definition of the
automorphisms alone and never reads :func:`silscope.sils.commute_rule`:
the oracle check compares that rule against these commutators, and a
commutator built from the rule could not disagree with it.  Whether such
a commutator is inner depends only on the numbering-free
:func:`commutator_shape` of the pair, not on any vertex order, so
:func:`commutator_is_inner` decides it once per shape, on a model graph
of at most six vertices.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import Iterable, Sequence

from .graphs import LabelledGraph, UnknownVertexError, _bits_to_set
from .outer import PartialConjugation

Word = tuple  # tuple[tuple[int, int], ...]
EPSILON: Word = ()


class WordError(ValueError):
    """Malformed word input (bad vertex, bad literal syntax)."""


def make_word(g: LabelledGraph, syllables: Iterable[tuple[int, int]]) -> Word:
    """Validate syllables and normalise exponents mod m(v), dropping zeros.

    Does not reduce; use :func:`reduce` for the canonical form.
    """
    out = []
    for v, e in syllables:
        g.check_vertex(v)
        e %= g.orders[v]
        if e:
            out.append((v, e))
    return tuple(out)


def reduce(g: LabelledGraph, word: Sequence[tuple[int, int]]) -> Word:
    """Canonical normal form of a word; idempotent, never longer."""
    adj = g.adj
    orders = g.orders
    out: list[list[int]] = []
    for v, e in word:
        e %= orders[v]
        if not e:
            continue
        j = len(out) - 1
        while j >= 0:
            u = out[j][0]
            if u == v:
                e2 = (out[j][1] + e) % orders[v]
                if e2:
                    out[j][1] = e2
                else:
                    del out[j]
                break
            if not adj[u] >> v & 1:
                out.append([v, e])
                break
            j -= 1
        else:
            out.append([v, e])
    return _canonical_order(g, out)


def _canonical_order(g: LabelledGraph, syls: list) -> Word:
    """Lex-least linearisation of a reduced word's shuffle class.

    Repeatedly emits the smallest-vertex syllable among those that commute
    with everything before them.  At most one syllable per vertex is ever
    available, so choosing by vertex index is unambiguous.
    """
    if len(syls) <= 1:
        return tuple(tuple(s) for s in syls)
    adj = g.adj
    full = (1 << g.n) - 1
    remaining = [list(s) for s in syls]
    out = []
    while remaining:
        blocked = 0
        best = -1
        best_v = full + 1
        for i, (v, _) in enumerate(remaining):
            if not blocked >> v & 1 and v < best_v:
                best, best_v = i, v
            blocked |= full & ~adj[v]  # v blocks itself and its non-neighbours
            if blocked == full:
                break
        out.append(tuple(remaining[best]))
        del remaining[best]
    return tuple(out)


def _inverse(g: LabelledGraph, w: Word) -> Word:
    """The syllables of w^-1, unreduced."""
    orders = g.orders
    return tuple((v, orders[v] - e) for v, e in reversed(w))


# ---------------------------------------------------------------------------
# Vertex-conjugating automorphisms


@dataclass(frozen=True)
class Automorphism0:
    """An automorphism sending each vertex v to w_v . v . w_v^-1."""

    conjugators: tuple  # tuple[Word, ...], one canonical word per vertex


def identity_automorphism(g: LabelledGraph) -> Automorphism0:
    return Automorphism0((EPSILON,) * g.n)


def pc_automorphism(g: LabelledGraph, pc: PartialConjugation,
                    exponent: int = 1) -> Automorphism0:
    """chi_{v,C}^exponent as an automorphism (conjugator v^exponent on C)."""
    v = pc.vertex
    e = exponent % g.orders[v]
    conj = ((v, e),) if e else EPSILON
    return Automorphism0(tuple(conj if u in pc.component else EPSILON
                               for u in range(g.n)))


def apply(g: LabelledGraph, pc: PartialConjugation, w: Word) -> Word:
    """Image of a word under a partial conjugation, reduced."""
    return apply_automorphism(g, pc_automorphism(g, pc), w)


def apply_automorphism(g: LabelledGraph, phi: Automorphism0, w: Word) -> Word:
    """Image of a word under a general automorphism, reduced."""
    conj = phi.conjugators
    parts = []
    for u, e in w:
        cw = conj[u]
        parts.extend(cw)
        parts.append((u, e))
        parts.extend(_inverse(g, cw))
    return reduce(g, parts)


def compose(g: LabelledGraph, phi1: Automorphism0,
            phi2: Automorphism0) -> Automorphism0:
    """phi1 after phi2: the composite sends v to phi1(phi2(v))."""
    conj = tuple(
        reduce(g, apply_automorphism(g, phi1, phi2.conjugators[v]) + phi1.conjugators[v])
        for v in range(g.n))
    return Automorphism0(conj)


def commutator(g: LabelledGraph, x: PartialConjugation,
               y: PartialConjugation) -> Automorphism0:
    """[x, y] = x . y . x^-1 . y^-1 as an automorphism, in closed form.

    With x = chi_{a,C} and y = chi_{b,D}, chi^{+-1} conjugates only by
    a^{+-1} or b^{+-1}, and a and b stay fixed because a is not in C and b
    is not in D.  So the conjugator at a vertex u is the reduced word

        a^q . b^p . a^-q . b^-t . a^(q-s) . b^(t-p) . a^(s-q)

    with p = [a in D], q = [b in C], s = [u in C] and t = [u in D].  It is
    reduced once per (s, t) class, at most three times, since (0, 0) gives
    the empty word.  The word is computed from the two automorphisms, not
    from a prediction of whether x and y commute: the commutation rule of
    :mod:`silscope.sils` is never read, because the oracle check exists to
    test that rule against these words.  ``ValueError`` if a is in C or b
    is in D, where the formula does not hold.
    """
    a, c = x.vertex, x.component
    b, d = y.vertex, y.component
    if a in c or b in d:
        raise ValueError("a partial conjugation chi_{v,C} needs v outside C")
    p = a in d
    q = b in c
    by_class = {(False, False): EPSILON}
    conj = []
    for u in range(g.n):
        key = (u in c, u in d)
        w = by_class.get(key)
        if w is None:
            s, t = key
            w = by_class[key] = reduce(g, ((a, q), (b, p), (a, -q), (b, -t),
                                           (a, q - s), (b, t - p), (a, s - q)))
        conj.append(w)
    return Automorphism0(tuple(conj))


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


@functools.cache
def commutator_is_inner(shape: tuple) -> bool:
    """Whether a commutator of ``shape`` is inner, under any vertex
    orders, by :func:`search_inner` on the shape's :func:`_model`; the
    :func:`commutator_shape` docstring proves that no order changes it."""
    g, x, y = _model(shape)
    return search_inner(g, commutator(g, x, y)) is not None


def _peel_left(g: LabelledGraph, w: Word, allowed: int) -> tuple:
    """Split a reduced word as w = a . rest, with a the syllables on
    ``allowed`` vertices that shuffle to the front of w.

    A syllable is peeled when its vertex is in the ``allowed`` mask and it
    commutes with every syllable kept before it; ``a`` is then the longest
    prefix of w in the parabolic subgroup <allowed>.  Both parts keep the
    order the syllables have in w.
    """
    adj = g.adj
    full = (1 << g.n) - 1
    peeled, kept = [], []
    blocked = 0  # vertices that do not commute with some kept syllable
    for v, e in w:
        if allowed >> v & 1 and not blocked >> v & 1:
            peeled.append((v, e))
        else:
            kept.append((v, e))
            blocked |= full & ~adj[v]  # includes v itself
    return tuple(peeled), tuple(kept)


def _strip_right(g: LabelledGraph, w: Word, allowed: int) -> Word:
    """w without its longest suffix in <allowed>; mirror of
    :func:`_peel_left`."""
    return _peel_left(g, w[::-1], allowed)[1][::-1]


def search_inner(g: LabelledGraph, phi: Automorphism0) -> Word | None:
    """The shortest word u such that phi is conjugation by u, or None.

    phi sends v to w_v v w_v^-1, and the centraliser of v is <St(v)>, so
    the words u form the intersection of the cosets w_v <St(v)>.  Vertices
    with the same conjugator w contribute w <St(v1)> & w <St(v2)> =
    w <St(v1) & St(v2)>, so the vertices are first grouped by conjugator
    tuple, in order of first appearance, with their star masks ANDed: one
    coset per distinct conjugator.  The fold keeps the intersection as
    c <A>: it starts at the first group's (w, B), and c <A> meets w <B>
    iff x = c^-1 w splits as a . b with a in <A> and b in <B>, when the
    intersection is c a <A & B>.  Peeling <A> off the left of x and <B>
    off its right leaves nothing exactly when x splits.  At the end,
    peeling <A> off the right of c leaves the unique shortest element of
    the final coset, already canonical because every deleted syllable
    commutes with all kept syllables after it.  The final coset is the
    intersection whatever the grouping, so the witness is too.
    """
    n = g.n
    if not n:
        return EPSILON
    adj = g.adj
    stars: dict = {}
    for v, w in enumerate(phi.conjugators):
        star = adj[v] | 1 << v
        stars[w] = stars.get(w, star) & star
    cosets = iter(stars.items())
    c, allowed = next(cosets)
    c = reduce(g, c)
    for w, star in cosets:
        x = reduce(g, _inverse(g, c) + w)
        a, rest = _peel_left(g, x, allowed)
        if _strip_right(g, rest, star):
            return None
        if a:
            c = reduce(g, c + a)
        allowed &= star
    return _strip_right(g, c, allowed)


def commutator_power_probe(g: LabelledGraph, x: PartialConjugation,
                           y: PartialConjugation, max_power: int) -> int:
    """Largest N <= max_power such that none of [x, y]^1 .. [x, y]^N is
    inner.

    Each power's innerness is decided exactly, so N < max_power means
    [x, y]^(N+1) is inner: the commutator has finite order in Out(W),
    dividing N + 1.  N = max_power only bounds that order from below; it
    is evidence, not proof, that the order is infinite.
    """
    if max_power < 1:
        raise ValueError("max_power must be >= 1")
    k = commutator(g, x, y)
    power = identity_automorphism(g)
    for p in range(1, max_power + 1):
        power = compose(g, k, power)
        if search_inner(g, power) is not None:
            return p - 1
    return max_power


# ---------------------------------------------------------------------------
# CLI word literals: space-separated name^k tokens, k omitted means 1


def parse_word_literal(g: LabelledGraph, text: str) -> Word:
    syllables = []
    for token in text.split():
        if token in g.names:
            name, exponent = token, 1
        else:
            name, sep, raw = token.rpartition("^")
            if not sep or name not in g.names:
                raise WordError(f"cannot parse word token {token!r}")
            # ASCII digits only: int() would also read "1_0" and "\u0661"
            if not re.fullmatch("[+-]?[0-9]+", raw):
                raise WordError(f"bad exponent in word token {token!r}")
            try:
                exponent = int(raw)
            except ValueError:  # more digits than int() converts
                raise WordError(f"bad exponent in word token {token!r}") from None
        syllables.append((g.index(name), exponent))
    try:
        return make_word(g, syllables)
    except UnknownVertexError as exc:  # pragma: no cover - names checked above
        raise WordError(str(exc)) from exc


def format_word(g: LabelledGraph, w: Word) -> str:
    """Inverse of parse_word_literal; the empty word renders as ''."""
    return " ".join(g.names[v] if e == 1 else f"{g.names[v]}^{e}" for v, e in w)
