"""Exhaustive small-graph enumeration and the property suite run over it.

Every check encodes a structural fact that must hold for all labelled
graphs (shared separated components, separation counts versus triple
separations, the commutation predicate versus the word-engine oracle, ...).
The suite enumerates all graphs up to a vertex bound, optionally one
representative per isomorphism class, runs each requested check, and
reports counterexamples; an empty report is the expected outcome.

Checks are pure functions of the graph's census that return a verdict:
``None`` when the check holds, else ``(witness, message)``.  Only the suite
driver turns a verdict into a :class:`CounterexampleReport`, naming the
check and the graph.  Most checks read only the adjacency (``ORDER_FREE``),
so the enumeration yields mask records, one per edge mask: the mask's
first graph and the list of its kept order tuples.  With dedup, the rows
of a new vertex that an automorphism of the smaller graph lowers are
pruned before any search.  One :class:`Census` of a record's graph serves
every order-free check, once for the whole mask, and its verdict stands
for every order tuple.  Only for the checks that read orders does each
further order tuple get a census, copied from the mask's without a
component search (:meth:`Census.with_orders_of`).  The copies share one
store of word-oracle verdicts, so the oracle decides each commutator once
per edge mask and pair of acting orders, not once per graph; the store
is dropped with the record.  A graph is built for each report.  The
suite streams: the records are cut into chunks of whole masks, each chunk
is checked in this process or by a worker process, and the results are
joined in chunk order.  Reports therefore come out in enumeration order,
and in check-id order per graph, whatever the number of workers.
"""

from __future__ import annotations

import itertools
import json
import os
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterator, Optional, Sequence

from .graphs import (MAX_ORDER, LabelledGraph, component_masks,
                     is_vertex_order, to_json_dict, vertex_names)
from .outer import build_p0
from .sils import Census, SharedComponentError, shared_sil_component
from .words import commutator, search_inner

MAX_ENUMERATION_VERTICES = 8
CHUNK_SIZE = 256  # order tuples per task: bounds memory, amortises pickling


@dataclass(frozen=True)
class CounterexampleReport:
    """A failed check, with enough data to replay it:
    ``CHECKS[report.check](Census(from_json_dict(report.graph)))`` returns
    ``(report.witness, report.message)``."""

    check: str
    graph: dict
    witness: dict
    message: str

    def to_json_line(self) -> str:
        return json.dumps({"check": self.check, "graph": self.graph,
                           "witness": self.witness, "message": self.message},
                          sort_keys=True, ensure_ascii=False)


# ---------------------------------------------------------------------------
# Enumeration


def graph_from_bits(n: int, mask: int, orders: Sequence[int]) -> LabelledGraph:
    adj = [0] * n
    for k, (i, j) in enumerate(itertools.combinations(range(n), 2)):
        if mask >> k & 1:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    names = tuple(f"v{i + 1}" for i in range(n))
    return LabelledGraph(names, tuple(orders), tuple(adj))


def _automorphisms(adj: tuple, every: bool) -> Optional[list]:
    """The automorphisms (position -> vertex) of a graph whose edge mask no
    relabelling lowers, else None.  The mask's top bits are row n-2, then
    n-3, ..., row p holding the edges from p to p+1.. (p+1 lowest).  The
    search fills positions n-1, n-2, ...: a free vertex whose row against
    the placed ones is below the graph's disproves minimality, one above
    ends its branch.  Unless ``every``, one of two twins is tried (swapping
    them fixes the placed vertices), so not every automorphism is listed.
    The search tries the graph's own numbering first, so the identity comes
    first."""
    rows = [a >> p + 1 for p, a in enumerate(adj)]
    found: list = []
    # starting from the graph's own numbering halves the time of n <= 7 {2}
    start = dict.fromkeys(reversed(range(len(adj))), 0)
    return found if _fill(adj, rows, every, found, start, ()) else None


def _fill(adj: tuple, rows: list, every: bool, found: list, words: dict,
          perm: tuple) -> bool:
    """One step of ``_automorphisms``: place a vertex at position
    len(words) - 1.  Not a closure, so that no call leaves a cycle."""
    if not words:
        found.append(perm)
        return True
    row = rows[len(words) - 1]
    if min(words.values()) < row:
        return False
    tried: set = set()
    for v, w in words.items():
        if w == row and not {adj[v], adj[v] | 1 << v} & tried:
            if not every:
                tried |= {adj[v], adj[v] | 1 << v}
            if not _fill(adj, rows, every, found,
                         {u: x << 1 | adj[u] >> v & 1
                          for u, x in words.items() if u != v}, (v,) + perm):
                return False
    return True


def _child_rows(padj: tuple, auts: list, ones: list) -> Iterator[int]:
    """The rows of a new vertex 0 over the minimal graph ``padj``, but for
    those that one of ``auts``, the automorphisms its own search listed,
    or a swap of two twins of ``padj`` maps to a smaller row.  The parent
    prefix of the mask stays, so the smaller row gives a smaller mask of
    the same graph, and the child is not minimal.  ``ones[row]`` lists the
    set bits of ``row``."""
    swaps = [(1 << i | 1 << j, 1 << j)
             for i, j in itertools.combinations(range(len(padj)), 2)
             if padj[i] & ~(1 << j) == padj[j] & ~(1 << i)]
    images = [[1 << v for v in a] for a in auts[1:]]  # auts[0] is the identity
    for row in range(1 << len(padj)):
        if any(row & pair == high for pair, high in swaps):
            continue
        bits = ones[row]
        if not any(sum([image[i] for i in bits]) < row for image in images):
            yield row


def enumerate_graphs(spec: EnumSpec) -> Iterator[tuple]:
    """All labelled graphs up to the vertex bound, in ascending (n, edge
    mask, order tuple), as one mask record per edge mask; bit k of the mask
    is the k-th pair (i, j), i < j.  A mask record is a pair: the mask's
    first graph and the list of its kept order tuples, that graph's first.
    Without dedup every mask on n vertices shares one list of all order
    tuples.  The suite driver builds a graph per order tuple only for a
    report and for a check that reads orders.

    With dedup, each class comes once, as its minimal encoding, by orderly
    generation (Read, Ann. Discrete Math. 2, 1978; McKay, J. Algorithms 26,
    1998).  The pairs without vertex 0 are the high bits, so mask(G) =
    mask(G - v0) << n-1 | row(v0), and G - v0 is minimal when G is.  So each
    minimal (n-1)-mask, ascending, is extended by each row of v0 in turn
    and kept if still minimal; rows that an automorphism of the parent
    lowers are not tried (see ``_child_rows``).  An order tuple is kept iff
    no automorphism of the mask makes it lexicographically smaller; a mask
    whose search lists only the identity keeps the shared list of them all.
    """
    if not spec.dedup_isomorphic:
        for n in range(1, spec.max_vertices + 1):
            tuples = list(itertools.product(spec.orders, repeat=n))
            for mask in range(1 << n * (n - 1) // 2):
                yield graph_from_bits(n, mask, tuples[0]), tuples
        return
    every = len(spec.orders) > 1
    level: list = [((), [()])]  # each minimal graph on n-1 vertices, its auts
    for n in range(1, spec.max_vertices + 1):
        names = tuple(f"v{i + 1}" for i in range(n))
        tuples = list(itertools.product(spec.orders, repeat=n))
        ones = [[i for i in range(n - 1) if row >> i & 1]
                for row in range(1 << n - 1)]
        minimal = []
        for padj, pauts in level:
            for row in _child_rows(padj, pauts, ones):
                adj = (row << 1,) + tuple(a << 1 | row >> i & 1
                                          for i, a in enumerate(padj))
                auts = _automorphisms(adj, every)
                if auts is None:
                    continue
                if n < spec.max_vertices:  # the next level's parents
                    minimal.append((adj, auts))
                kept = tuples
                for a in auts[1:]:  # auts[0] is the identity
                    image = itemgetter(*a)
                    kept = [orders for orders in kept if image(orders) >= orders]
                yield LabelledGraph(names, kept[0], adj), kept
        level = minimal


# ---------------------------------------------------------------------------
# Checks: each takes the census and returns None or (witness, message)


def check_lemma_2_2(census: Census) -> Optional[tuple]:
    """Every separating pair shares its separated component on both sides.

    The census reads each Sil off a component shared by both star splits,
    so that holds by construction.  As evidence of its own, a search here
    checks that C of {a, b | C} is a component of G minus lk(a) & lk(b):
    one search per pair, as the Sils come sorted by pair.
    """
    g = census.graph
    full = (1 << g.n) - 1
    pair = None
    for sil in census.sils:
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


def check_lemma_4(census: Census) -> Optional[tuple]:
    """A graph with exactly one separating pair has no separating triple."""
    if len(census.sils) != 1:
        return None
    stils = census.stils
    if stils:
        g = census.graph
        return ({"triple": vertex_names(g, stils[0].triple),
                 "component": vertex_names(g, stils[0].component)},
                "unique separating pair coexists with a separating triple")
    return None


def check_stil_two_sils(census: Census) -> Optional[tuple]:
    """Any separating triple forces at least two distinct separating pairs."""
    stils = census.stils
    if not stils:
        return None
    sils = census.sils
    if len(sils) < 2:
        return ({"triple": vertex_names(census.graph, stils[0].triple),
                 "sil_count": len(sils)},
                "separating triple with fewer than two separating pairs")
    return None


def check_lemma_7(census: Census) -> Optional[tuple]:
    """Connected with a unique separating pair: both punctured graphs have
    exactly two components."""
    if len(census.split) > 1:
        return None
    sils = census.sils
    if len(sils) != 1:
        return None
    for v in sils[0].pair:
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
    full = (1 << g.n) - 1
    for s1, s2 in itertools.combinations(census.sils, 2):
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


def check_finite_equiv(census: Census) -> Optional[tuple]:
    """No separating pair iff all generator pairs commute."""
    sils = census.sils
    all_commute = not any(census.non_commuting)
    if (not sils) != all_commute:
        return ({"sil_count": len(sils), "all_commute": all_commute},
                "separating-pair census disagrees with generator commutation")
    return None


def check_three_components_fsil(census: Census) -> Optional[tuple]:
    """Three or more connected components force a flexible triple."""
    if len(census.split) < 3:
        return None
    if not census.fsils:
        comps = [vertex_names(census.graph, c) for c in census.components()]
        return ({"components": comps},
                f"{len(comps)} components but no flexible separating triple")
    return None


def check_fsil_three_sils(census: Census) -> Optional[tuple]:
    """Every flexible triple induces separating pairs on all three pairs."""
    for fsil in census.fsils:
        triple = set(fsil.triple)
        pairs = {sil.pair for sil in census.sils if set(sil.pair) <= triple}
        if len(pairs) < 3:
            return ({"triple": vertex_names(census.graph, fsil.triple),
                     "pairs": sorted(map(list, pairs))},
                    "flexible triple with fewer than three distinct pairs")
    return None


def check_lemma_1_4_oracle(census: Census) -> Optional[tuple]:
    """Commutation predicate agrees with the word engine's exact innerness
    decision for every commutator of two generators.

    With x = chi_{a,C} and y = chi_{b,D}, every conjugator of [x, y] is a
    word in a and b alone (see :func:`silscope.words.commutator`).
    ``reduce``, ``_inverse`` and ``search_inner`` read the order of a
    vertex only where it occurs in a word, and otherwise only the
    adjacency.  So on one adjacency, whether [x, y] is inner depends only
    on the pair and on (m(a), m(b)).  The decision is stored in
    ``census.inner_verdicts`` under (i, j, m(a), m(b)), i and j the
    indices of x and y among the generators, and every census of the same
    adjacency made by :meth:`Census.with_orders_of` reads it there.  The
    prediction is read afresh from ``census.non_commuting``, and the pairs
    are scanned in the same order on every census, so the first failing
    pair is the same as without the store.
    """
    g = census.graph
    rows = census.non_commuting
    inner = census.inner_verdicts
    acting = [g.orders[v] for v, _ in census.generators]
    p0 = None
    for i, j in itertools.combinations(range(len(acting)), 2):
        key = (i, j, acting[i], acting[j])
        found = inner.get(key)
        if found is None:
            p0 = p0 or build_p0(census)
            found = inner[key] = search_inner(
                g, commutator(g, p0[i], p0[j])) is not None
        predicted = not rows[i] >> j & 1
        if predicted != found:
            p0 = p0 or build_p0(census)
            return ({"x": p0[i].label(g), "y": p0[j].label(g),
                     "predicted_commutes": predicted,
                     "inner_witness_found": found},
                    "commutation predicate disagrees with the word oracle")
    return None


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

# The checks that read only the adjacency, never a vertex order, so they
# give one verdict per edge mask; the oracle runs per graph.
ORDER_FREE = frozenset(CHECKS) - {"lemma_1_4_oracle"}


@dataclass(frozen=True)
class EnumSpec:
    """What to enumerate and which checks to run.  ``orders`` and ``checks``
    must be non-empty; they are stored sorted and without repeats.  With
    ``dedup_isomorphic``, one graph per order-preserving isomorphism class
    is generated (see ``enumerate_graphs``): 13,598 for n <= 8 and orders
    (2,).  With (2, 3) there are 2,208,612 classes on 8 vertices (OEIS
    A000666) but only 12,346 edge masks: the order-free checks, run once
    per mask, take about 25 s for n <= 8 in one process, and
    ``lemma_1_4_oracle`` decides each commutator once per mask and pair of
    acting orders, so all nine checks take about 50 s with two workers
    and about 65 s with one (Python 3.11, 2 CPUs)."""

    max_vertices: int
    orders: tuple = (2,)
    dedup_isomorphic: bool = False
    checks: tuple = DEFAULT_CHECKS
    workers: int = 1

    def __post_init__(self) -> None:
        if not 1 <= self.max_vertices <= MAX_ENUMERATION_VERTICES:
            raise ValueError(
                f"max_vertices must be in 1..{MAX_ENUMERATION_VERTICES}")
        if not self.orders:
            raise ValueError("the order alphabet is empty")
        for m in self.orders:
            if not is_vertex_order(m):
                raise ValueError(f"order alphabet entry {m} is not a prime power "
                                 f"in 2..{MAX_ORDER}")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if not self.checks:
            raise ValueError("no check ids given")
        unknown = [c for c in self.checks if c not in CHECKS]
        if unknown:
            raise ValueError(f"unknown check ids: {unknown}; "
                             f"known: {sorted(CHECKS)}")
        object.__setattr__(self, "orders", tuple(sorted(set(self.orders))))
        object.__setattr__(self, "checks", tuple(sorted(set(self.checks))))


# ---------------------------------------------------------------------------
# Suite driver


def _run_checks(records: list, checks: tuple) -> tuple:
    """Check one chunk of mask records with ``checks``, ``(id, function)``
    pairs: (number of graphs, their reports in order).  The order-free
    checks run once, on a record's graph, and their verdicts stand for
    every order tuple of the record; a graph per order tuple is built only
    when a check reads orders, and to report when a verdict fails.  A
    check that reads orders gets a census per order tuple, made from the
    mask's by :meth:`Census.with_orders_of`: it shares the mask's
    ``inner_verdicts``, so the oracle decides each commutator once per
    pair of acting orders, and the store is dropped with the record.
    Every report is built here, one per graph that a failing verdict
    holds for."""
    per_graph = any(c not in ORDER_FREE for c, _ in checks)
    checked, out = 0, []
    for first, tuples in records:
        checked += len(tuples)
        census = Census(first)
        shared = {c: check(census) for c, check in checks if c in ORDER_FREE}
        if not (per_graph or any(shared.values())):
            continue
        for k, orders in enumerate(tuples):
            g = LabelledGraph(first.names, orders, first.adj) if k else first
            if k and per_graph:
                census = census.with_orders_of(g)
            for check_id, check in checks:
                verdict = (shared[check_id] if check_id in shared
                           else check(census))
                if verdict is not None:
                    out.append(CounterexampleReport(check_id, to_json_dict(g),
                                                    *verdict))
    return checked, out


def _chunks(records: Iterator[tuple]) -> Iterator[list]:
    """Whole mask records, gathered into chunks of about ``CHUNK_SIZE``
    order tuples each."""
    chunk, size = [], 0
    for record in records:
        chunk.append(record)
        size += len(record[1])
        if size >= CHUNK_SIZE:
            yield chunk
            chunk, size = [], 0
    if chunk:
        yield chunk


def checked_chunks(spec: EnumSpec) -> Iterator[tuple]:
    """``(number of graphs, reports)`` for each chunk of the enumeration, in
    chunk order: checked in this process for one worker, else in a pool
    with at most two chunks per process pending.  Joining the reports of
    every chunk gives ``run_suite``'s; reading them chunk by chunk keeps
    only one chunk's reports in memory.  The check ids are resolved in
    this process, and workers get the functions, so a check registered in
    ``CHECKS`` at run time reaches workers that import the package afresh
    (the ``spawn`` and ``forkserver`` start methods)."""
    checks = tuple((c, CHECKS[c]) for c in spec.checks)
    chunks = _chunks(enumerate_graphs(spec))
    workers = min(spec.workers, os.cpu_count() or 1)
    if workers == 1:
        yield from (_run_checks(chunk, checks) for chunk in chunks)
        return
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
