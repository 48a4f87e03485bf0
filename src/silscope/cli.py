"""Command-line surface: classification reports, generator listings, the
verification suite, and word-engine access.

Subcommands: classify | sils | gens | presentation | verify | reduce | act.
Graphs are read from JSON ({"vertices": [{"name", "order"}], "edges": [...]})
or DOT files with an ``order`` vertex attribute.  Exit codes: 0 success,
1 verification found counterexamples, 2 malformed input.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from json.encoder import encode_basestring

from . import harness, outer, sils, words
from .dot import to_dot
from .graphs import (MAX_ORDER, GraphError, LabelledGraph, _unique_keys,
                     load_graph, to_json_dict, vertex_names)

REPORT_VERSION = 2


def _sil_dict(g: LabelledGraph, s: sils.Sil) -> dict:
    return {"pair": [g.names[s.pair[0]], g.names[s.pair[1]]],
            "component": vertex_names(g, s.component),
            "coxeter": s.coxeter}


def _pc_dict(g: LabelledGraph, pc: outer.PartialConjugation) -> dict:
    return {"vertex": g.names[pc.vertex],
            "component": vertex_names(g, pc.component),
            "order": g.orders[pc.vertex]}


def _presentation_dict(g: LabelledGraph,
                       pres: outer.CommutationPresentation) -> dict:
    return {"generators": [_pc_dict(g, pc) for pc in pres.generators],
            "commuting_edges": sorted(map(list, pres.commuting_edges)),
            "summary": pres.summary}


def _indented(obj, pad: str = "\n") -> str:
    """``json.dumps(obj, indent=2, ensure_ascii=False)``, byte for byte, for
    JSON values with string keys.  ``indent`` makes ``json`` fall back to
    its pure-Python encoder, about half as fast as this on a classify
    report; strings, the bulk of a report, skip the recursive call."""
    if type(obj) is str:
        return encode_basestring(obj)
    if type(obj) is int:
        return int.__repr__(obj)
    if obj is None:
        return "null"
    if obj is True or obj is False:
        return "true" if obj else "false"
    inner = pad + "  "
    if isinstance(obj, dict) and obj:
        return "{" + inner + ("," + inner).join([
            encode_basestring(k) + ": " + _indented(v, inner)
            for k, v in obj.items()]) + pad + "}"
    if isinstance(obj, (list, tuple)) and obj:
        return "[" + inner + ("," + inner).join([
            encode_basestring(v) if type(v) is str else _indented(v, inner)
            for v in obj]) + pad + "]"
    return json.dumps(obj, ensure_ascii=False)


def build_report(g: LabelledGraph) -> dict:
    """The full classification report as a JSON-ready dict, read from one
    census of ``g``."""
    census = sils.Census(g)
    out_class = outer.classify(census)
    pres = outer.presentation(census)
    disc = outer.disconnected_structure(census)

    warnings = []
    if (out_class.kind is outer.OutKind.LARGE and out_class.fsils
            and not out_class.stils and not out_class.non_coxeter_sils):
        warnings.append(
            "largeness rests solely on a flexible separating triple: every "
            "separating pair here is a Coxeter pair and there is no separating "
            "triple, so a census that ignored flexible triples would report "
            "VirtuallyAbelianNotZ instead of Large")

    report = {
        "version": REPORT_VERSION,
        "graph": to_json_dict(g),
        "class": out_class.kind.value,
        "evidence": {
            "coxeter_sils": out_class.coxeter_sils,
            "non_coxeter_sils": out_class.non_coxeter_sils,
            "stils": out_class.stils,
            "fsils": out_class.fsils,
        },
        "sils": [_sil_dict(g, s) for s in census.sils],
        "stils": [{"triple": [g.names[v] for v in s.triple],
                   "component": vertex_names(g, s.component)}
                  for s in census.stils],
        "fsils": [{"triple": [g.names[v] for v in f.triple],
                   "witnesses": [_sil_dict(g, s) for s in f.sils]}
                  for f in census.fsils],
        "presentation": _presentation_dict(g, pres),
        "disconnected": None if disc is None else {
            "components": [vertex_names(g, c) for c in disc.components],
            "status": disc.status,
            "reason": disc.reason,
            "quotients": (None if disc.quotients is None
                          else [vertex_names(g, q) for q in disc.quotients]),
            "summary": disc.summary,
        },
        "warnings": warnings,
    }
    return report


_GENSPEC_RE = re.compile(r"^\s*chi\s+(\S+)\s*\{([^{}]*)\}\s*$")


def _parse_genspec(g: LabelledGraph, text: str) -> outer.PartialConjugation:
    """Parse 'chi VERTEX {a,b,c}', or a JSON object as ``gens`` prints it,
    into a validated partial conjugation."""
    if text.lstrip().startswith("{"):
        vertex, comp_names = _genspec_object(g, text)
    else:
        m = _GENSPEC_RE.match(text)
        if not m:
            raise GraphError(f"cannot parse generator spec {text!r}; expected "
                             "'chi VERTEX {a,b,c}' or a line of 'gens'")
        vertex = g.index(m.group(1))
        comp_names = [t.strip() for t in m.group(2).split(",") if t.strip()]
    comp = frozenset(g.index(name) for name in comp_names)
    try:
        return outer.validate_partial_conjugation(sils.Census(g), vertex, comp)
    except ValueError as exc:
        raise GraphError(str(exc)) from exc


def _genspec_object(g: LabelledGraph, text: str) -> tuple[int, list]:
    """The acting vertex and component names of a ``gens`` line
    ``{"vertex": V, "component": [...], "order": m}``; ``order`` may be
    left out, and must otherwise be the order of V."""
    try:
        spec = json.loads(text, object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as exc:  # bad JSON or keys, deep nesting
        raise GraphError(f"cannot read generator spec as JSON: {exc}") from None
    if (not isinstance(spec, dict) or not {"vertex", "component"} <= spec.keys()
            or not spec.keys() <= {"vertex", "component", "order"}):
        raise GraphError(f"generator spec {text!r} must be an object with the "
                         "keys 'vertex' and 'component', and optionally 'order'")
    name, comp_names = spec["vertex"], spec["component"]
    if not (isinstance(name, str) and isinstance(comp_names, list)
            and all(isinstance(t, str) for t in comp_names)):
        raise GraphError(f"generator spec {text!r} needs a vertex name and a "
                         "list of component vertex names")
    vertex = g.index(name)
    order = spec.get("order", g.orders[vertex])
    if type(order) is not int or order != g.orders[vertex]:
        raise GraphError(f"generator spec order {order!r} is not the order "
                         f"{g.orders[vertex]} of vertex {name!r}")
    return vertex, comp_names


def _word_json(g: LabelledGraph, w) -> dict:
    return {"literal": words.format_word(g, w),
            "syllables": [[g.names[v], e] for v, e in w]}


# ---------------------------------------------------------------------------
# Subcommands


def cmd_classify(args) -> int:
    g = load_graph(args.graph)
    report = build_report(g)
    if args.dot:
        # the report's Sils are the census's; read them back, not recompute.
        # The file is written first, so a failed write prints no report.
        acting = {g.index(name) for s in report["sils"] for name in s["pair"]}
        separated = {g.index(name) for s in report["sils"]
                     for name in s["component"]} - acting
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(to_dot(g, acting, separated))
    print(_indented(report))
    return 0


def cmd_sils(args) -> int:
    g = load_graph(args.graph)
    for s in sils.Census(g).sils:
        print(json.dumps(_sil_dict(g, s), ensure_ascii=False))
    return 0


def cmd_gens(args) -> int:
    g = load_graph(args.graph)
    for pc in outer.build_p0(sils.Census(g)):
        print(json.dumps(_pc_dict(g, pc), ensure_ascii=False))
    return 0


def cmd_presentation(args) -> int:
    g = load_graph(args.graph)
    pres = outer.presentation(sils.Census(g))
    print(json.dumps(_presentation_dict(g, pres), ensure_ascii=False))
    return 0


def _ascii_decimal(token: str, what: str, limit: str) -> int:
    """``token`` read as ASCII decimal digits, as the DOT reader reads
    ``order``, so that ``1_1`` or a non-ASCII digit is no number.  ``what``
    names the value in messages, and ``limit`` says how large it may be
    when it has more digits than ``int()`` converts."""
    token = token.strip()
    if not re.fullmatch("[0-9]+", token):
        raise ValueError(f"{what} {token!r} is not a decimal integer")
    try:
        return int(token)
    except ValueError:  # more digits than int() converts
        raise ValueError(f"{what} has {len(token)} digits; {limit}") from None


def cmd_verify(args) -> int:
    checks = (harness.DEFAULT_CHECKS if args.checks is None else
              tuple(t.strip() for t in args.checks.split(",") if t.strip()))
    try:
        max_vertices = _ascii_decimal(
            args.max_vertices, "--max-vertices",
            f"it is at most {harness.MAX_ENUMERATION_VERTICES}")
        workers = _ascii_decimal(args.workers, "--workers",
                                 "the pool has at most one process per CPU")
        orders = tuple(_ascii_decimal(t, "order",
                                      f"orders are at most {MAX_ORDER}")
                       for t in args.orders.split(",") if t.strip())
        spec = harness.EnumSpec(
            max_vertices=max_vertices,
            orders=orders,
            dedup_isomorphic=args.dedup,
            checks=checks,
            workers=workers,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    checked = failed = 0
    for n, reports in harness.checked_chunks(spec):  # print as they come
        checked += n
        failed += len(reports)
        for report in reports:
            print(report.to_json_line())
    print(json.dumps({
        "checked_graphs": checked,
        "checks": list(spec.checks),
        "counterexamples": failed,
        "dedup": spec.dedup_isomorphic,
        "max_vertices": spec.max_vertices,
        "orders": list(spec.orders),
    }, sort_keys=True))
    return 1 if failed else 0


def cmd_reduce(args) -> int:
    g = load_graph(args.graph)
    w = words.parse_word_literal(g, args.word)
    reduced = words.reduce(g, w)
    print(json.dumps({"input": args.word, "reduced": _word_json(g, reduced)},
                     ensure_ascii=False))
    return 0


def cmd_act(args) -> int:
    g = load_graph(args.graph)
    pc = _parse_genspec(g, args.generator)
    w = words.parse_word_literal(g, args.word)
    image = words.apply(g, pc, w)
    print(json.dumps({"generator": pc.label(g), "input": args.word,
                      "image": _word_json(g, image)}, ensure_ascii=False))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="silscope",
        description="Separating-intersection analysis of labelled graphs: "
                    "detect separating pairs/triples, build the partial-"
                    "conjugation generators, and classify the outer "
                    "automorphism group of the associated graph product.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_graph_cmd(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("graph", help="path to a graph JSON or DOT file")
        p.set_defaults(func=func)
        return p

    p = add_graph_cmd("classify", cmd_classify,
                      "full classification report as JSON")
    p.add_argument("--dot", default=None, metavar="PATH",
                   help="also write a DOT rendering with separating pairs "
                        "and components highlighted")
    add_graph_cmd("sils", cmd_sils, "list separating pairs, one JSON line each")
    add_graph_cmd("gens", cmd_gens, "list the generating set, one JSON line each")
    add_graph_cmd("presentation", cmd_presentation,
                  "commutation presentation and factored summary")

    p = sub.add_parser("verify", help="run the exhaustive small-graph property suite")
    p.add_argument("--max-vertices", default="5",
                   help="largest number of vertices, a decimal in "
                        f"1..{harness.MAX_ENUMERATION_VERTICES} (default: 5)")
    p.add_argument("--orders", default="2",
                   help="comma-separated prime-power vertex orders (default: 2)")
    p.add_argument("--dedup", action="store_true",
                   help="one representative per isomorphism class")
    p.add_argument("--checks", default=None,
                   help=f"comma-separated check ids (default: all: "
                        f"{','.join(harness.DEFAULT_CHECKS)})")
    p.add_argument("--workers", default="1",
                   help="worker processes, a decimal >= 1 (default: 1)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("reduce", help="canonical normal form of a word")
    p.add_argument("graph")
    p.add_argument("word", help="space-separated name^k tokens, e.g. 'v1 d v1'")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("act", help="apply a partial conjugation to a word")
    p.add_argument("graph")
    p.add_argument("generator", help="generator spec, e.g. 'chi v1 {d,e,f}' "
                   "or a line printed by 'gens'")
    p.add_argument("word")
    p.set_defaults(func=cmd_act)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # argparse before Python 3.12 reads `--opt=--` as an empty list
    for key, value in vars(args).items():
        if isinstance(value, list):
            print(f"error: argument --{key.replace('_', '-')}: expected one "
                  "value", file=sys.stderr)
            return 2
    try:
        return args.func(args)
    except json.JSONDecodeError as exc:
        print(f"error: invalid JSON at line {exc.lineno} column {exc.colno}: "
              f"{exc.msg}", file=sys.stderr)
        return 2
    except (GraphError, words.WordError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
