"""Exhaustive small-graph enumeration and the property suite run over it.

Every check encodes a structural fact that must hold for all labelled
graphs (shared separated components, separation counts versus triple
separations, the commutation predicate versus the word-engine oracle, ...).
The suite enumerates all graphs up to a vertex bound, optionally one
representative per isomorphism class, runs each requested check, and
reports counterexamples; an empty report is the expected outcome.

Checks are pure functions of the graph's census.  Most read only the
adjacency (``ORDER_FREE``), and the enumeration yields all order tuples of
one edge mask in a row, so the suite checks one mask group at a time: one
:class:`Census` of the group's first graph serves every order-free check,
once for the whole group.  A census per graph is built only for the checks
that read orders, and to re-run an order-free check that failed, so that
each graph gets its own report.  The suite streams: the enumeration is cut
into chunks of whole mask groups, each chunk is checked in this process or
by a worker process, and the results are joined in chunk order.  Reports
therefore come out in enumeration order, and in check-id order per graph,
whatever the number of workers.
"""

from __future__ import annotations

import itertools
import json
import os
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .graphs import (MAX_ORDER, LabelledGraph, component_masks,
                     is_vertex_order, to_json_dict, vertex_names)
from .outer import build_p0
from .sils import Census, SharedComponentError, shared_sil_component
from .words import commutator, search_inner

MAX_ENUMERATION_VERTICES = 8
CHUNK_SIZE = 256  # graphs per task: bounds memory, amortises pickling

DEFAULT_CHECKS = (
    "lemma_2_2",
    "lemma_4",
    "stil_two_sils",
    "lemma_7",
    "lemma_1_7",
    "finite_equiv",
    "three_components_fsil",
    "fsil_three_sils",
    "lemma_1_4_oracle",
)


@dataclass(frozen=True)
class EnumSpec:
    """What to enumerate and which checks to run.  ``orders`` and ``checks``
    must be non-empty; they are stored sorted and without repeats.  With
    ``dedup_isomorphic``, one graph per order-preserving isomorphism class
    is generated (see ``enumerate_graphs``): 13,598 for n <= 8 and orders
    (2,).  With (2, 3) there are 2,208,612 classes on 8 vertices (OEIS
    A000666) but only 12,346 edge masks: the order-free checks, run once
    per mask, take under a minute for n <= 8, while ``lemma_1_4_oracle``
    runs per graph and would take over an hour."""

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


@dataclass(frozen=True)
class CounterexampleReport:
    """A failed check, with enough data to replay it:
    ``CHECKS[report.check](Census(from_json_dict(report.graph)))``."""

    check: str
    graph: dict
    witness: dict
    message: str

    def to_json_dict(self) -> dict:
        return {"check": self.check, "graph": self.graph,
                "witness": self.witness, "message": self.message}

    def to_json_line(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, ensure_ascii=False)


def _report(check: str, g: LabelledGraph, witness: dict,
            message: str) -> CounterexampleReport:
    return CounterexampleReport(check, to_json_dict(g), witness, message)


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
    them fixes the placed vertices), so not every automorphism is listed."""
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


def enumerate_graphs(spec: EnumSpec) -> Iterator[LabelledGraph]:
    """All labelled graphs up to the vertex bound, in ascending (n, edge
    mask, order tuple); bit k of the mask is the k-th pair (i, j), i < j.

    With dedup, each class comes once, as its minimal encoding, by orderly
    generation (Read, Ann. Discrete Math. 2, 1978; McKay, J. Algorithms 26,
    1998).  The pairs without vertex 0 are the high bits, so mask(G) =
    mask(G - v0) << n-1 | row(v0), and G - v0 is minimal when G is.  So each
    minimal (n-1)-mask, ascending, is extended by every row of v0 in turn
    and kept if still minimal; an order tuple is kept iff no automorphism
    of the mask makes it lexicographically smaller.
    """
    if not spec.dedup_isomorphic:
        for n in range(1, spec.max_vertices + 1):
            tuples = list(itertools.product(spec.orders, repeat=n))
            for mask in range(1 << n * (n - 1) // 2):
                g = graph_from_bits(n, mask, tuples[0])
                for orders in tuples:
                    yield LabelledGraph(g.names, orders, g.adj)
        return
    level: list = [()]  # adjacency of each minimal graph on n-1 vertices
    for n in range(1, spec.max_vertices + 1):
        names = tuple(f"v{i + 1}" for i in range(n))
        minimal = []
        for padj, row in itertools.product(level, range(1 << n - 1)):
            adj = (row << 1,) + tuple(a << 1 | row >> i & 1
                                      for i, a in enumerate(padj))
            auts = _automorphisms(adj, len(spec.orders) > 1)
            if auts is not None:
                minimal.append(adj)
                for orders in itertools.product(spec.orders, repeat=n):
                    if all(tuple(orders[v] for v in a) >= orders for a in auts):
                        yield LabelledGraph(names, orders, adj)
        level = minimal


# ---------------------------------------------------------------------------
# Checks: each takes the census and returns a report or None


def check_lemma_2_2(census: Census) -> Optional[CounterexampleReport]:
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
            return _report("lemma_2_2", g,
                           {"pair": vertex_names(g, sil.pair),
                            "component": vertex_names(g, sil.component)},
                           str(exc))
    return None


def check_lemma_4(census: Census) -> Optional[CounterexampleReport]:
    """A graph with exactly one separating pair has no separating triple."""
    if len(census.sils) != 1:
        return None
    stils = census.stils
    if stils:
        g = census.graph
        return _report("lemma_4", g,
                       {"triple": vertex_names(g, stils[0].triple),
                        "component": vertex_names(g, stils[0].component)},
                       "unique separating pair coexists with a separating triple")
    return None


def check_stil_two_sils(census: Census) -> Optional[CounterexampleReport]:
    """Any separating triple forces at least two distinct separating pairs."""
    stils = census.stils
    if not stils:
        return None
    sils = census.sils
    if len(sils) < 2:
        g = census.graph
        return _report("stil_two_sils", g,
                       {"triple": vertex_names(g, stils[0].triple),
                        "sil_count": len(sils)},
                       "separating triple with fewer than two separating pairs")
    return None


def check_lemma_7(census: Census) -> Optional[CounterexampleReport]:
    """Connected with a unique separating pair: both punctured graphs have
    exactly two components."""
    if len(census.split) > 1:
        return None
    sils = census.sils
    if len(sils) != 1:
        return None
    g = census.graph
    for v in sils[0].pair:
        ncomp = len(census.star_splits[v])
        if ncomp != 2:
            return _report("lemma_7", g,
                           {"vertex": g.names[v], "components": ncomp},
                           "puncturing a unique-pair vertex left "
                           f"{ncomp} components instead of 2")
    return None


def check_lemma_1_7(census: Census) -> Optional[CounterexampleReport]:
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
                        return _report(
                            "lemma_1_7", g,
                            {"triple": vertex_names(g, (x1, x2, x3)),
                             "witness": g.names[z]},
                            "shared witness of two separating pairs does not "
                            "separate the triple")
                    break
    return None


def check_finite_equiv(census: Census) -> Optional[CounterexampleReport]:
    """No separating pair iff all generator pairs commute."""
    sils = census.sils
    all_commute = not any(census.non_commuting)
    if (not sils) != all_commute:
        return _report("finite_equiv", census.graph,
                       {"sil_count": len(sils), "all_commute": all_commute},
                       "separating-pair census disagrees with generator commutation")
    return None


def check_three_components_fsil(census: Census) -> Optional[CounterexampleReport]:
    """Three or more connected components force a flexible triple."""
    if len(census.split) < 3:
        return None
    if not census.fsils:
        g = census.graph
        comps = [vertex_names(g, c) for c in census.components()]
        return _report("three_components_fsil", g, {"components": comps},
                       f"{len(comps)} components but no flexible separating triple")
    return None


def check_fsil_three_sils(census: Census) -> Optional[CounterexampleReport]:
    """Every flexible triple induces separating pairs on all three pairs."""
    for fsil in census.fsils:
        triple = set(fsil.triple)
        pairs = {sil.pair for sil in census.sils if set(sil.pair) <= triple}
        if len(pairs) < 3:
            g = census.graph
            return _report("fsil_three_sils", g,
                           {"triple": vertex_names(g, fsil.triple),
                            "pairs": sorted(map(list, pairs))},
                           "flexible triple with fewer than three distinct pairs")
    return None


def check_lemma_1_4_oracle(census: Census) -> Optional[CounterexampleReport]:
    """Commutation predicate agrees with the word engine's exact innerness
    decision for every commutator of two generators."""
    g = census.graph
    rows = census.non_commuting
    for (i, x), (j, y) in itertools.combinations(enumerate(build_p0(census)), 2):
        predicted = not rows[i] >> j & 1
        witness = search_inner(g, commutator(g, x, y))
        if predicted != (witness is not None):
            return _report("lemma_1_4_oracle", g,
                           {"x": x.label(g), "y": y.label(g),
                            "predicted_commutes": predicted,
                            "inner_witness_found": witness is not None},
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

# The checks that read only the adjacency, never a vertex order, so they
# give one verdict per edge mask; every other check runs per graph.
ORDER_FREE = frozenset({
    "lemma_2_2", "lemma_4", "stil_two_sils", "lemma_7", "lemma_1_7",
    "finite_equiv", "three_components_fsil", "fsil_three_sils",
})


# ---------------------------------------------------------------------------
# Suite driver


def _run_checks(groups: list, checks: tuple) -> tuple:
    """Check one chunk of mask groups with ``checks``, ``(id, function)``
    pairs: (number of graphs, their reports in order).  The order-free
    checks run once on a group's first graph; only those that fail there,
    and the checks that read orders, run on each graph, so that every
    report names its own graph."""
    checked, out = 0, []
    for group in groups:
        checked += len(group)
        census = Census(group[0])
        first = {c: check(census) for c, check in checks if c in ORDER_FREE}
        per_graph = [(c, check) for c, check in checks
                     if c not in ORDER_FREE or first[c] is not None]
        if not per_graph:
            continue
        for k, g in enumerate(group):
            if k:
                census, first = Census(g), {}
            for check_id, check in per_graph:
                report = (first[check_id] if check_id in first
                          else check(census))
                if report is not None:
                    out.append(report)
    return checked, out


def _mask_chunks(graphs: Iterator[LabelledGraph]) -> Iterator[list]:
    """Runs of graphs with one adjacency (mask groups), gathered into
    chunks of whole groups of about ``CHUNK_SIZE`` graphs each."""
    chunk, size = [], 0
    for _, group in itertools.groupby(graphs, key=lambda g: g.adj):
        chunk.append(list(group))
        size += len(chunk[-1])
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
    chunks = _mask_chunks(enumerate_graphs(spec))
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
