"""Seeded random inputs for the ``classify_random`` workload.

A graph is connected: a random spanning tree plus extra random edges up to
a mean degree drawn from ``MEAN_DEGREES``.  The vertex count is uniform in
``N_RANGE`` and each vertex order is drawn from ``ORDERS`` with weights
``ORDER_WEIGHTS``.  Graphs are plain dicts in silscope's graph JSON format,
so this module needs nothing from silscope.

The population every run classifies is the pool built from ``POOL_SEED``;
its reference census is stored in ``reference.json``.  A run's own seed
only relabels: it shuffles the vertex list, the edge list and the end
points of each edge, which changes every vertex index the program sees
but not the mathematics of the report.
"""

from __future__ import annotations

import hashlib
import json
import random

N_RANGE = (12, 36)
MEAN_DEGREES = (2.2, 3, 5, 8)
ORDERS = (2, 3, 4)
ORDER_WEIGHTS = (6, 2, 1)
POOL_SEED = 7
POOL_SIZE = 100


def random_graph(rng: random.Random) -> dict:
    n = rng.randint(*N_RANGE)
    mean_degree = rng.choice(MEAN_DEGREES)
    orders = rng.choices(ORDERS, weights=ORDER_WEIGHTS, k=n)
    order = list(range(n))
    rng.shuffle(order)
    edges = set()
    for k in range(1, n):
        u, v = order[k], order[rng.randrange(k)]
        edges.add((min(u, v), max(u, v)))
    target = min(round(mean_degree * n / 2), n * (n - 1) // 2)
    while len(edges) < target:
        u, v = rng.sample(range(n), 2)
        edges.add((min(u, v), max(u, v)))
    names = [f"v{i + 1}" for i in range(n)]
    return {
        "vertices": [{"name": names[i], "order": orders[i]} for i in range(n)],
        "edges": [[names[u], names[v]] for u, v in sorted(edges)],
    }


def pool(seed: int = POOL_SEED, size: int = POOL_SIZE) -> list:
    rng = random.Random(seed)
    return [random_graph(rng) for _ in range(size)]


def pool_digest(graphs: list) -> str:
    text = json.dumps(graphs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def relabel(graph: dict, rng: random.Random) -> dict:
    """The same labelled graph with its vertices and edges listed in a
    random order; names and orders stay attached to their vertices."""
    vertices = list(graph["vertices"])
    rng.shuffle(vertices)
    edges = [e if rng.random() < 0.5 else [e[1], e[0]] for e in graph["edges"]]
    rng.shuffle(edges)
    return {"vertices": vertices, "edges": edges}
