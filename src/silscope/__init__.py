"""Separating-intersection analysis for graph products of primary cyclic
groups: detect separating pairs and triples in a labelled graph, build the
partial-conjugation generating set, classify the outer automorphism group,
and cross-check everything against an exact word-rewriting oracle.

The functions of ``sils`` and ``outer`` read a :class:`Census`, built once
per graph.  The graph-taking functions exported here are thin reads of a
fresh ``Census(g)``; code that asks several questions of one graph should
build the census itself and pass it to those modules.
"""

from __future__ import annotations

from . import outer as _outer
from . import sils as _sils
from .dot import from_dot, to_dot
from .graphs import (GraphError, LabelledGraph, UnknownVertexError, center,
                     components, from_json, from_json_dict, is_connected,
                     link, load_graph, make_graph, star, to_json,
                     to_json_dict)
from .harness import CounterexampleReport, EnumSpec, enumerate_graphs, run_suite
from .outer import (CommutationPresentation, DisconnectedStructure, OutClass,
                    OutKind, PartialConjugation)
from .sils import Census, Fsil, SharedComponentError, Sil, Stil, is_sil
from .words import (EPSILON, Automorphism0, WordError, apply,
                    apply_automorphism, commutator, commutator_power_probe,
                    compose, equals, identity_automorphism, invert,
                    is_inner_with, make_word, multiply, parse_word_literal,
                    pc_automorphism, reduce, search_inner)

__version__ = "0.1.0"


def star_cut_points(g: LabelledGraph) -> list[int]:
    """The vertices v acting in ``Census(g).generators``, ascending: those
    for which removing St(v) leaves >= 2 connected components."""
    return list(dict.fromkeys(v for v, _ in Census(g).generators))


def enumerate_sils(g: LabelledGraph) -> list[Sil]:
    """All Sils of g; see :func:`silscope.sils.enumerate_sils`."""
    return list(Census(g).sils)


def enumerate_stils(g: LabelledGraph) -> list[Stil]:
    """All Stils of g; see :func:`silscope.sils.enumerate_stils`."""
    return list(Census(g).stils)


def enumerate_fsils(g: LabelledGraph) -> list[Fsil]:
    """All Fsils of g; see :func:`silscope.sils.enumerate_fsils`."""
    return list(Census(g).fsils)


def shared_sil_component(g: LabelledGraph, sil: Sil) -> frozenset:
    """See :func:`silscope.sils.shared_sil_component`."""
    return _sils.shared_sil_component(Census(g), sil)


def partial_conjugations(g: LabelledGraph, v: int) -> list[PartialConjugation]:
    """See :func:`silscope.outer.partial_conjugations`."""
    return _outer.partial_conjugations(Census(g), v)


def build_p0(g: LabelledGraph) -> tuple[PartialConjugation, ...]:
    """See :func:`silscope.outer.build_p0`."""
    return _outer.build_p0(Census(g))


def commutes(g: LabelledGraph, x: PartialConjugation,
             y: PartialConjugation) -> bool:
    """See :func:`silscope.outer.commutes`."""
    return _outer.commutes(Census(g), x, y)


def classify(g: LabelledGraph) -> OutClass:
    """See :func:`silscope.outer.classify`."""
    return _outer.classify(Census(g))


def presentation(g: LabelledGraph) -> CommutationPresentation:
    """See :func:`silscope.outer.presentation`."""
    return _outer.presentation(Census(g))


def disconnected_structure(g: LabelledGraph) -> DisconnectedStructure | None:
    """See :func:`silscope.outer.disconnected_structure`."""
    return _outer.disconnected_structure(Census(g))
