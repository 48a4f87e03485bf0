"""Command-line surface: classification reports, generator listings, the
verification suite, and word-engine access.

Subcommands: classify | sils | gens | presentation | verify | reduce | act.
Graphs are read from JSON ({"vertices": [{"name", "order"}], "edges": [...]})
or DOT files with an ``order`` vertex attribute.  ``classify`` writes the
text ``json.dumps(indent=2, ensure_ascii=False)`` makes of its report, from
one ``%`` template per section item, and ``sils`` one JSON line per Sil;
both write from the census's masks, as the checks of ``verify`` decide on
them.  Exit codes: 0 success, 1 verification found counterexamples, 2
malformed input, 141 stdout was closed before the output was written (as
by ``| head``).

The arguments are read off the ``_COMMANDS`` table.  A plain argv, a
subcommand followed by its exact flags, their values and its positionals,
none of which starts with ``-`` unless it is a flag, is read straight into
the namespace argparse would build, and argparse is never imported.  Any
other argv (``-h``, ``--``, ``--flag=value``, an abbreviated or unknown
flag, a value starting with ``-``, a wrong number of positionals) goes to
the argparse parser of ``build_parser``, which alone writes help, usage
and error messages.

Each subcommand imports only the modules it runs.  ``classify``, ``sils``,
``gens`` and ``presentation`` load ``graphs``, ``sils``, ``outer`` and this
module, and none of them ``dataclasses``; ``classify --dot`` adds ``dot``.
``verify`` adds ``harness`` only, whose oracle check decides innerness on
masks, and the process pool only with more than one worker.  ``reduce``
and ``act`` add the word engine ``words``.  The argparse path adds
``argparse`` and ``harness``, since the help of ``verify`` quotes the
suite's limits.
"""

from __future__ import annotations

import json
import os
import re
import sys
from json.encoder import encode_basestring
from types import SimpleNamespace
from typing import TYPE_CHECKING

from . import outer, sils
from .graphs import (MAX_ORDER, GraphError, LabelledGraph, _bits_to_set,
                     _unique_keys, load_graph, vertex_names)

if TYPE_CHECKING:
    import argparse

REPORT_VERSION = 2


def _pc_dict(g: LabelledGraph, pc: outer.PartialConjugation) -> dict:
    return {"vertex": g.names[pc.vertex],
            "component": vertex_names(g, pc.component),
            "order": g.orders[pc.vertex]}


def _presentation_dict(g: LabelledGraph,
                       pres: outer.CommutationPresentation) -> dict:
    return {"generators": [_pc_dict(g, pc) for pc in pres.generators],
            "commuting_edges": sorted(map(list, pres.commuting_edges)),
            "summary": pres.summary}


def _template(shape, pad: str) -> str:
    """``json.dumps(shape, indent=2)`` closed at ``pad``, its "%s" strings
    unquoted: a ``%`` template for one item of the report."""
    return json.dumps(shape, indent=2).replace("\n", pad).replace('"%s"', "%s")


_REPORT = _template({
    "version": REPORT_VERSION, "graph": {"vertices": "%s", "edges": "%s"},
    "class": "%s", "evidence": dict.fromkeys(
        ("coxeter_sils", "non_coxeter_sils", "stils", "fsils"), "%s"),
    "sils": "%s", "stils": "%s", "fsils": "%s", "presentation": dict.fromkeys(
        ("generators", "commuting_edges", "summary"), "%s"),
    "disconnected": "%s", "warnings": "%s"}, "\n")
_VERTEX = _template(dict(name="%s", order="%s"), "\n      ")
_EDGE = _template(["%s"] * 2, "\n      ")
_SIL = _template(dict(pair=["%s"] * 2, component="%s", coxeter="%s"), "\n    ")
_STIL = _template(dict(triple=["%s"] * 3, component="%s"), "\n    ")
_FSIL = _template(dict(triple=["%s"] * 3, witnesses=["%s"] * 3), "\n    ")
_GENERATOR = _template(dict(vertex="%s", component="%s", order="%s"), "\n      ")
_FSIL_ONLY_WARNING = json.dumps([
    "largeness rests solely on a flexible separating triple: every "
    "separating pair here is a Coxeter pair and there is no separating "
    "triple, so a census that ignored flexible triples would report "
    "VirtuallyAbelianNotZ instead of Large"], indent=2).replace("\n", "\n  ")


def _listed(items: list, pad: str) -> str:
    """A JSON list of the written ``items``, closed at ``pad``."""
    inner = pad + "  "
    return f"[{inner}{(',' + inner).join(items)}{pad}]" if items else "[]"


def build_report(census: sils.Census) -> str:
    """The version-2 report of the census's graph, equal to the text of
    ``json.dumps(report, indent=2, ensure_ascii=False)`` for the dict that
    ``tests/oracles.py`` builds: one ``%`` template per section item, each
    vertex name encoded once, each component's name list once per depth.
    It builds no vertex set: every item is written from the census's
    masks, a component's names by walking its mask's bits upwards, and the
    counts are ``outer.classify``'s."""
    g, rows, out = census.graph, census.non_commuting, outer.classify(census)
    names = [encode_basestring(name) for name in g.names]
    disc = outer.disconnected_structure(census)
    lists: dict = {}

    def component(mask: int, pad: str) -> str:
        try:
            return lists[mask, pad]
        except KeyError:
            items, rest = [], mask
            while rest:
                low = rest & -rest
                rest ^= low
                items.append(names[low.bit_length() - 1])
            text = lists[mask, pad] = _listed(items, pad)
            return text

    pad = "\n    "  # two levels deep: a Sil item, the list in "graph"
    two = census._order_two
    sil_items = {(a, b, comp): _SIL % (
        names[a], names[b], component(comp, pad + "  "),
        "true" if two >> a & two >> b & 1 else "false")
        for a, b, _, comp in census._sil_masks}
    splits = census.star_splits

    def witness(x: int, y: int, z: int) -> str:
        """The item of the Sil {x, y | C} with z in C, two levels down; no
        name holds a newline."""
        c = next(c for c in splits[x] if c >> z & 1)
        return sil_items[x, y, c].replace("\n", pad)

    # a commuting pair i < j is the head of row i and the tail of j
    tails = ["%d\n      ]" % j for j in range(len(rows))]
    edges = [head + tails[j] for i, row in enumerate(rows)
             for head in ["[\n        %d,\n        " % i]
             for j in range(i + 1, len(rows)) if not row >> j & 1]
    large_on_fsils_alone = out.fsils and not (out.stils or out.non_coxeter_sils)
    return _REPORT % (
        _listed([_VERTEX % item for item in zip(names, g.orders)], pad),
        _listed([_EDGE % (names[u], names[v]) for u, v in g.edges()], pad),
        encode_basestring(out.kind.value), out.coxeter_sils,
        out.non_coxeter_sils, out.stils, out.fsils,
        _listed(list(sil_items.values()), "\n  "),
        _listed([_STIL % (names[a], names[b], names[c],
                          component(comp, pad + "  "))
                 for a, b, c, _, comp in sorted(sils._stil_masks(census))],
                "\n  "),
        _listed([_FSIL % (names[x], names[y], names[z], witness(x, y, z),
                          witness(x, z, y), witness(y, z, x))
                 for x, y, z in sils._fsil_triples(census)], "\n  "),
        _listed([_GENERATOR % (names[v], component(c, pad + "    "),
                               g.orders[v])
                 for v, c in census.generators], pad),
        _listed(edges, pad),
        encode_basestring(outer.factor_summary(
            [g.orders[v] for v, _ in census.generators], rows)),
        "null" if disc is None else json.dumps(dict(
            disc._asdict(), components=[vertex_names(g, c) for c in disc.components],
            quotients=disc.quotients and [
                vertex_names(g, q) for q in disc.quotients]),
            indent=2, ensure_ascii=False).replace("\n", "\n  "),
        _FSIL_ONLY_WARNING if large_on_fsils_alone else "[]")


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
    return outer.validate_partial_conjugation(sils.Census(g), vertex, comp)


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
    from .words import format_word

    return {"literal": format_word(g, w),
            "syllables": [[g.names[v], e] for v, e in w]}


# ---------------------------------------------------------------------------
# Subcommands


def cmd_classify(args) -> int:
    g = load_graph(args.graph)
    census = sils.Census(g)
    if args.dot:
        from .dot import to_dot

        # the file is written first, so a failed write prints no report
        acting = covered = 0
        for a, b, _, comp in census._sil_masks:
            acting |= 1 << a | 1 << b
            covered |= comp
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(to_dot(g, _bits_to_set(acting),
                            _bits_to_set(covered & ~acting)))
    print(build_report(census))
    return 0


def cmd_sils(args) -> int:
    g = load_graph(args.graph)
    census = sils.Census(g)
    two = census._order_two
    for a, b, _, comp in census._sil_masks:
        print(json.dumps({"pair": [g.names[a], g.names[b]],
                          "component": vertex_names(g, _bits_to_set(comp)),
                          "coxeter": two >> a & two >> b & 1 == 1},
                         ensure_ascii=False))
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
        raise GraphError(f"{what} {token!r} is not a decimal integer")
    try:
        return int(token)
    except ValueError:  # more digits than int() converts
        raise GraphError(f"{what} has {len(token)} digits; {limit}") from None


def cmd_verify(args) -> int:
    from . import harness

    checks = (harness.DEFAULT_CHECKS if args.checks is None else
              tuple(t.strip() for t in args.checks.split(",") if t.strip()))
    max_vertices = _ascii_decimal(
        args.max_vertices, "--max-vertices",
        f"it is at most {harness.MAX_ENUMERATION_VERTICES}")
    workers = _ascii_decimal(args.workers, "--workers",
                             "the pool has at most one process per CPU")
    orders = tuple(_ascii_decimal(t, "order", f"orders are at most {MAX_ORDER}")
                   for t in args.orders.split(",") if t.strip())
    spec = harness.EnumSpec(
        max_vertices=max_vertices,
        orders=orders,
        dedup_isomorphic=args.dedup,
        checks=checks,
        workers=workers,
    )
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
        "version": 2,  # one report per (edge mask, check), with order_tuples
    }, sort_keys=True))
    return 1 if failed else 0


def cmd_reduce(args) -> int:
    from . import words

    g = load_graph(args.graph)
    w = words.parse_word_literal(g, args.word)
    reduced = words.reduce(g, w)
    print(json.dumps({"input": args.word, "reduced": _word_json(g, reduced)},
                     ensure_ascii=False))
    return 0


def cmd_act(args) -> int:
    from . import words

    g = load_graph(args.graph)
    pc = _parse_genspec(g, args.generator)
    w = words.parse_word_literal(g, args.word)
    image = words.apply(g, pc, w)
    print(json.dumps({"generator": pc.label(g), "input": args.word,
                      "image": _word_json(g, image)}, ensure_ascii=False))
    return 0


_GRAPH = ("graph", {"help": "path to a graph JSON or DOT file"})

# Every subcommand: name, help, handler, and the (flag, options) of each
# argument.  ``build_parser`` and ``_read_plain`` walk this table.  Each
# argument's help is a ``str.format`` template over the suite's limits,
# filled in by ``build_parser``, so that only argparse loads the suite.
_COMMANDS = (
    ("classify", "full classification report as JSON", cmd_classify, (
        _GRAPH,
        ("--dot", {"default": None, "metavar": "PATH",
                   "help": "also write a DOT rendering with separating pairs "
                           "and components highlighted"}))),
    ("sils", "list separating pairs, one JSON line each", cmd_sils, (_GRAPH,)),
    ("gens", "list the generating set, one JSON line each", cmd_gens,
     (_GRAPH,)),
    ("presentation", "commutation presentation and factored summary",
     cmd_presentation, (_GRAPH,)),
    ("verify", "run the exhaustive small-graph property suite", cmd_verify, (
        ("--max-vertices", {
            "default": "5",
            "help": "largest number of vertices, a decimal in "
                    "1..{MAX_ENUMERATION_VERTICES} with --dedup, "
                    "else in 1..{MAX_LABELLED_VERTICES} (default: 5)"}),
        ("--orders", {"default": "2", "help": "comma-separated prime-power "
                                              "vertex orders (default: 2)"}),
        ("--dedup", {"action": "store_true",
                     "help": "one representative per isomorphism class"}),
        ("--checks", {"default": None,
                      "help": "comma-separated check ids (default: all: "
                              "{DEFAULT_CHECKS})"}),
        ("--workers", {"default": "1",
                       "help": "worker processes, a decimal >= 1 "
                               "(default: 1)"}))),
    ("reduce", "canonical normal form of a word", cmd_reduce, (
        ("graph", {}),
        ("word", {"help": "space-separated name^k tokens, e.g. 'v1 d v1'"}))),
    ("act", "apply a partial conjugation to a word", cmd_act, (
        ("graph", {}),
        ("generator", {"help": "generator spec, e.g. 'chi v1 {{d,e,f}}' or a "
                               "line printed by 'gens'"}),
        ("word", {}))),
)


def _plain_reading(arguments: tuple) -> tuple:
    """How argparse fills the namespace of a subcommand with ``arguments``:
    each dest's default, a map from each option's flag to its dest and
    whether it takes a value, and the positionals' dests in order."""
    defaults, options, positionals = {}, {}, []
    for flag, spec in arguments:
        if not flag.startswith("-"):
            positionals.append(flag)
            continue
        dest = flag.lstrip("-").replace("-", "_")
        takes_value = spec.get("action") != "store_true"
        defaults[dest] = spec.get("default") if takes_value else False
        options[flag] = dest, takes_value
    return defaults, options, positionals


_PLAIN = {name: (func, *_plain_reading(arguments))
          for name, _, func, arguments in _COMMANDS}


def _read_plain(argv: list) -> SimpleNamespace | None:
    """The namespace ``build_parser().parse_args(argv)`` returns, read off
    ``_COMMANDS`` without argparse, or None unless ``argv`` is plain: a
    subcommand, then tokens that each equal one of its flags (followed, for
    a flag that takes a value, by a value that does not start with ``-``)
    or are a positional that does not start with ``-``, with exactly as
    many positionals as the subcommand declares.  On such an argv argparse
    has nothing to abbreviate, split or report."""
    if not argv or argv[0] not in _PLAIN:
        return None
    func, defaults, options, positionals = _PLAIN[argv[0]]
    values = dict(defaults, command=argv[0], func=func)
    given = []
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            given.append(token)
            continue
        if token not in options:
            return None
        dest, takes_value = options[token]
        if not takes_value:
            values[dest] = True
            continue
        value = next(tokens, None)
        if value is None or value.startswith("-"):
            return None
        values[dest] = value
    if len(given) != len(positionals):
        return None
    values.update(zip(positionals, given))
    return SimpleNamespace(**values)


def build_parser() -> argparse.ArgumentParser:
    """The command-line parser: the only source of help, usage and error
    messages.  argparse is imported here, so that a plain call, read by
    ``_read_plain``, never loads it, and so is the suite, whose limits the
    help of ``verify`` quotes; the suite loads no word engine."""
    import argparse

    from . import harness

    limits = {"MAX_ENUMERATION_VERTICES": harness.MAX_ENUMERATION_VERTICES,
              "MAX_LABELLED_VERTICES": harness.MAX_LABELLED_VERTICES,
              "DEFAULT_CHECKS": ",".join(harness.DEFAULT_CHECKS)}

    parser = argparse.ArgumentParser(
        prog="silscope",
        description="Separating-intersection analysis of labelled graphs: "
                    "detect separating pairs/triples, build the partial-"
                    "conjugation generators, and classify the outer "
                    "automorphism group of the associated graph product.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, func, arguments in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        for flag, options in arguments:
            if "help" in options:
                options = dict(options, help=options["help"].format_map(limits))
            p.add_argument(flag, **options)
        p.set_defaults(func=func)
    return parser


def _stdout_to_devnull() -> None:
    """Point the file descriptor under ``sys.stdout`` at the null device,
    so that flushing what is left of the output cannot fail again."""
    try:
        fd = sys.stdout.fileno()
    except OSError:  # not backed by a file descriptor
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(devnull, fd)
    finally:
        os.close(devnull)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _read_plain(argv) or build_parser().parse_args(argv)
    # argparse before Python 3.12 reads `--opt=--` as an empty list
    for key, value in vars(args).items():
        if isinstance(value, list):
            print(f"error: argument --{key.replace('_', '-')}: expected one "
                  "value", file=sys.stderr)
            return 2
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except json.JSONDecodeError as exc:
        print(f"error: invalid JSON at line {exc.lineno} column {exc.colno}: "
              f"{exc.msg}", file=sys.stderr)
        return 2
    except GraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader of stdout is gone, as with `| head`: exit with the
        # status a shell shows for SIGPIPE
        _stdout_to_devnull()
        return 141
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
