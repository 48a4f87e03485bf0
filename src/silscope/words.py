"""Exact arithmetic in the graph product and its vertex-conjugating
automorphisms.

Words are tuples of (vertex, exponent) syllables with exponents in
[1, m(v)-1].  ``reduce`` computes a canonical normal form: syllables are
merged leftward across commuting neighbours until no merge applies, then
the shuffle class is linearised greedily by smallest vertex index, which
is its lexicographically least representative.  Two words are equal in the
group iff their canonical forms coincide, so everything downstream —
automorphism images and innerness tests — compares tuples.

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
automorphisms alone and never reads :func:`silscope.sils.commute_rule`.
The suite's oracle decides the innerness of such a commutator by a closed
form on masks (:mod:`silscope.harness`) and compares it with that rule;
the tests check the closed form against :func:`search_inner` on these
words, which a commutator built from the rule could not do.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Sequence

from .graphs import GraphError, LabelledGraph
from .outer import PartialConjugation

Word = tuple  # tuple[tuple[int, int], ...]
EPSILON: Word = ()


class WordError(GraphError):
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
    :mod:`silscope.sils` is never read, because the tests check the
    oracle's closed form, which tests that rule, against these words.
    ``ValueError`` if a is in C or b is in D, where the formula does not
    hold.
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
    return make_word(g, syllables)


def format_word(g: LabelledGraph, w: Word) -> str:
    """Inverse of parse_word_literal; the empty word renders as ''."""
    return " ".join(g.names[v] if e == 1 else f"{g.names[v]}^{e}" for v, e in w)
