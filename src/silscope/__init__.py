"""Separating-intersection analysis for graph products of primary cyclic
groups: detect separating pairs and triples in a labelled graph, build the
partial-conjugation generating set, classify the outer automorphism group,
verify the paper's lemmas exhaustively on small graphs, and compute in the
group with an exact word engine.

Every question about one graph is read from its :class:`Census`, built
once per graph with ``Census(g)``; the census holds its separations as
bitmasks (``census.witnesses`` maps each separated pair to the union of
its separated components).  The readers exported here are the functions
of ``outer`` themselves, and each takes the census: ``build_p0(census)``,
``classify(census)``, ``presentation(census)`` and
``disconnected_structure(census)``.  Besides them the package exports
the graph model and its file formats, the verification suite and the
word engine, and nothing that only tests call: the readings of the
census as Sil, Stil and Fsil objects, the commutator power probe and the
brute-force innerness test live with the tests' oracles.

Importing the package loads ``graphs``, ``sils`` and ``outer``, which
every command reads.  The names of ``dot``, ``harness`` and ``words`` are
resolved on first access (PEP 562), so that a classification loads no
DOT writer, verification suite, word engine or process pool.  The suite
decides its oracle on masks, so a verification loads no word engine
either.
"""

import importlib

from .graphs import (GraphError, LabelledGraph, UnknownVertexError, from_json,
                     from_json_dict, load_graph, make_graph, to_json_dict)
from .outer import (CommutationPresentation, DisconnectedStructure, OutClass,
                    OutKind, PartialConjugation, build_p0, classify,
                    disconnected_structure, presentation)
from .sils import Census

# each lazily exported name -> the submodule that defines it
_LAZY = {name: module for module, names in (
    ("dot", ("from_dot", "to_dot")),
    ("harness", ("CounterexampleReport", "EnumSpec", "enumerate_graphs",
                 "run_suite")),
    ("words", ("EPSILON", "Automorphism0", "WordError", "apply",
               "apply_automorphism", "commutator", "compose", "make_word",
               "parse_word_literal", "pc_automorphism", "reduce",
               "search_inner")),
) for name in names}

__all__ = [
    "GraphError", "LabelledGraph", "UnknownVertexError", "from_json",
    "from_json_dict", "load_graph", "make_graph", "to_json_dict",
    "CommutationPresentation", "DisconnectedStructure", "OutClass", "OutKind",
    "PartialConjugation", "build_p0", "classify", "disconnected_structure",
    "presentation",
    "Census",
    *_LAZY,
]

__version__ = "0.1.0"


def __getattr__(name: str):
    """A lazily exported name, its submodule imported on first access."""
    try:
        module = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(
        importlib.import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list:
    return sorted({*globals(), *_LAZY})
