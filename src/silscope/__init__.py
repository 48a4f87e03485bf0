"""Separating-intersection analysis for graph products of primary cyclic
groups: detect separating pairs and triples in a labelled graph, build the
partial-conjugation generating set, classify the outer automorphism group,
and cross-check everything against an exact word-rewriting oracle.

Every question about one graph is read from its :class:`Census`, built
once per graph with ``Census(g)``.  The readers exported here are the
functions of ``sils`` and ``outer`` themselves, and each takes the census:
``classify(census)``, ``presentation(census)``, ``enumerate_sils(census)``
and so on.  Besides them the package exports the graph model and its
file formats, the verification suite and the word engine.  Helpers that
only tests use, such as the brute-force innerness test, live with the
tests' oracles.
"""

from .dot import from_dot, to_dot
from .graphs import (GraphError, LabelledGraph, UnknownVertexError, from_json,
                     from_json_dict, load_graph, make_graph, to_json,
                     to_json_dict)
from .harness import CounterexampleReport, EnumSpec, enumerate_graphs, run_suite
from .outer import (CommutationPresentation, DisconnectedStructure, OutClass,
                    OutKind, PartialConjugation, build_p0, classify, commutes,
                    disconnected_structure, partial_conjugations,
                    presentation, star_cut_points)
from .sils import (Census, Fsil, SharedComponentError, Sil, Stil,
                   enumerate_fsils, enumerate_sils, enumerate_stils, is_sil,
                   shared_sil_component)
from .words import (EPSILON, Automorphism0, WordError, apply,
                    apply_automorphism, commutator, commutator_power_probe,
                    compose, identity_automorphism, make_word,
                    parse_word_literal, pc_automorphism, reduce, search_inner)

__version__ = "0.1.0"
