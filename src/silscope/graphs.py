"""Labelled graphs, their two primitive queries, and graph JSON.

A labelled graph is a finite simple graph together with an order map
assigning each vertex a prime power >= 2 (the order of its cyclic vertex
group).  Vertices are identified externally by unique string names and
internally by dense indices 0..n-1 in input order.

Adjacency is stored as one bitmask per vertex, which keeps the exhaustive
enumeration and word-rewriting layers cheap without any dependencies.
The link of v is the mask ``adj[v]`` and its star ``adj[v] | 1 << v``.
The primitive queries are :func:`vertex_names`, which turns vertex
indices back into names, :func:`component_masks`, the connected
components of an induced subgraph as bitmasks, and :func:`reached_mask`,
the union of those components that meet a set of seeds; the census in
:mod:`silscope.sils` reads every separation off the second, and checks
that test one component, or the few that meet some vertices, search with
the third.
"""

from __future__ import annotations

import json
from typing import Iterable, NamedTuple, Sequence

MAX_ORDER = 2**31 - 1  # largest accepted vertex order


class GraphError(ValueError):
    """Malformed input: a graph file, a word, a generator spec or an
    enumeration spec."""


class UnknownVertexError(GraphError):
    """A vertex name or index that is not part of the graph."""


def is_prime_power(n: int) -> bool:
    """True iff n = p**k for a prime p and k >= 1, by trial factorization."""
    if n < 2:
        return False
    m = n
    d = 2
    while d * d <= m:
        if m % d == 0:
            while m % d == 0:
                m //= d
            return m == 1  # fully divided by the single prime d
        d += 1 if d == 2 else 2
    return True  # n itself is prime


def is_vertex_order(m: object) -> bool:
    """True iff m is an int prime power in 2..MAX_ORDER.

    The bound is tested first, so trial division never passes 46,341.
    """
    return isinstance(m, int) and 2 <= m <= MAX_ORDER and is_prime_power(m)


class LabelledGraph(NamedTuple):
    """A finite simple graph with a prime-power order on each vertex.

    Immutable; safe to share and to use as a dict key.  ``adj[v]`` is a
    bitmask with bit u set iff u and v are adjacent.  ``index`` looks up a
    vertex name, not a field.
    """

    names: tuple[str, ...]
    orders: tuple[int, ...]
    adj: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise UnknownVertexError(f"unknown vertex name: {name!r}") from None

    def check_vertex(self, v: int) -> int:
        if not 0 <= v < self.n:
            raise UnknownVertexError(f"vertex index out of range: {v}")
        return v

    def adjacent(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def edges(self) -> list[tuple[int, int]]:
        """The edges (u, v), u < v, ascending, read off the set bits of
        each adjacency mask above u."""
        out = []
        for u, a in enumerate(self.adj):
            higher = a >> u + 1 << u + 1
            while higher:
                low = higher & -higher
                higher ^= low
                out.append((u, low.bit_length() - 1))
        return out

    def relabelled(self, perm: Sequence[int]) -> "LabelledGraph":
        """Image under the vertex permutation sending old index i to perm[i]."""
        n = self.n
        if sorted(perm) != list(range(n)):
            raise GraphError("relabelling must be a permutation of the vertex indices")
        names = [""] * n
        orders = [0] * n
        adj = [0] * n
        for i in range(n):
            names[perm[i]] = self.names[i]
            orders[perm[i]] = self.orders[i]
            adj[perm[i]] = sum(1 << perm[u] for u in _bits_to_set(self.adj[i]))
        return LabelledGraph(tuple(names), tuple(orders), tuple(adj))


def make_graph(vertices: Iterable[tuple[str, int]],
               edges: Iterable[tuple[str, str]]) -> LabelledGraph:
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
    valid = set()  # the orders found valid; only an int is looked up
    for name, order in vertices:
        if type(order) is int and order in valid:
            continue
        if not is_vertex_order(order):
            raise GraphError(
                f"vertex {name!r} has order {order!r}; orders must be prime "
                f"powers in 2..{MAX_ORDER}")
        valid.add(order)
    idx = {name: i for i, name in enumerate(names)}
    adj = [0] * len(names)
    for a, b in edges:
        if a not in idx:
            raise UnknownVertexError(f"edge endpoint {a!r} is not a declared vertex")
        if b not in idx:
            raise UnknownVertexError(f"edge endpoint {b!r} is not a declared vertex")
        i, j = idx[a], idx[b]
        if i == j:
            raise GraphError(f"self-loop at vertex {a!r}")
        if adj[i] >> j & 1:
            raise GraphError(f"duplicate edge {a!r} -- {b!r}")
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    return LabelledGraph(names, orders, tuple(adj))


# ---------------------------------------------------------------------------
# Primitive queries


def vertex_names(g: LabelledGraph, vertices: Iterable[int]) -> list[str]:
    """The names of ``vertices``, in index order."""
    return [g.names[v] for v in sorted(vertices)]


def component_masks(adj: Sequence[int], keep_mask: int) -> tuple[int, ...]:
    """Connected components of the subgraph induced on the bitmask
    ``keep_mask``, as bitmasks ordered by lowest set bit.

    ``adj`` is a graph's adjacency bitmask tuple, and every bit set in
    ``keep_mask`` must index it; nothing is checked.
    """
    out = []
    rest = keep_mask
    while rest:
        comp = frontier = rest & -rest
        rest ^= comp
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            new = adj[low.bit_length() - 1] & rest
            rest ^= new
            comp |= new
            frontier |= new
        out.append(comp)
    return tuple(out)


def reached_mask(adj: Sequence[int], seeds: int, keep_mask: int) -> int:
    """The vertices of the subgraph induced on the bitmask ``keep_mask``
    reached from its vertices in ``seeds``: the union of the components
    of ``component_masks(adj, keep_mask)`` that meet ``seeds``.  A seed
    outside ``keep_mask`` reaches nothing.  Only the reached vertices'
    adjacency is read; nothing is checked, as in ``component_masks``."""
    comp = frontier = seeds & keep_mask
    rest = keep_mask ^ comp
    while frontier:
        low = frontier & -frontier
        frontier ^= low
        new = adj[low.bit_length() - 1] & rest
        rest ^= new
        comp |= new
        frontier |= new
    return comp


def _bits_to_set(mask: int) -> frozenset:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return frozenset(out)


# ---------------------------------------------------------------------------
# Serialization: graph JSON (the DOT dialect is in :mod:`silscope.dot`)

GRAPH_JSON_KEYS = ("vertices", "edges")
VERTEX_JSON_KEYS = ("name", "order")
_VERTEX_KEYS = frozenset(VERTEX_JSON_KEYS)


def to_json_dict(g: LabelledGraph) -> dict:
    return {
        "vertices": [{"name": name, "order": order}
                     for name, order in zip(g.names, g.orders)],
        "edges": [[g.names[u], g.names[v]] for u, v in g.edges()],
    }


def from_json_dict(data: object) -> LabelledGraph:
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
        if not entry.keys() <= _VERTEX_KEYS:
            raise GraphError(f"unexpected keys in vertex entry {entry!r}: "
                             f"{sorted(set(entry) - _VERTEX_KEYS)}")
        vertices.append((entry["name"], entry.get("order", 2)))
    for e in raw_edges:
        if not (isinstance(e, list) and len(e) == 2 and isinstance(e[0], str)
                and isinstance(e[1], str)):
            raise GraphError(f"bad edge entry: {e!r}; expected an array of two "
                             "vertex names")
    return make_graph(vertices, raw_edges)


def _unique_keys(pairs: list) -> dict:
    """``object_pairs_hook`` for ``json.loads``: the object as a dict, but a
    key given twice raises GraphError, where ``dict`` keeps the last value."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen: set = set()
        for key, _ in pairs:
            if key in seen:
                raise GraphError(f"duplicate key {key!r} in a JSON object")
            seen.add(key)
    return obj


def from_json(text: str) -> LabelledGraph:
    try:
        data = json.loads(text, object_pairs_hook=_unique_keys)
    except (json.JSONDecodeError, GraphError):
        raise  # the CLI reports a decode error's line and column
    except (ValueError, RecursionError) as exc:  # an overlong number, deep nesting
        raise GraphError(f"cannot read JSON: {exc}") from None
    return from_json_dict(data)


def load_graph(path: str) -> LabelledGraph:
    """Load a graph file, dispatching on extension (.dot/.gv vs JSON)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise GraphError(f"{path}: not UTF-8 text (byte {exc.start}: "
                         f"{exc.reason})") from None
    if path.endswith((".dot", ".gv")):
        from .dot import from_dot  # that module builds on this one
        return from_dot(text)
    return from_json(text)
