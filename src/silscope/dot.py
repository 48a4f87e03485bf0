"""The DOT dialect: a writer for figures and a strict reader.

:func:`to_dot` renders a labelled graph, optionally highlighting a
separating pair and its component.  :func:`from_dot` reads the undirected
subset it writes back into exactly that graph, and refuses with a
GraphError and a line number whatever it does not read, so no input can
silently become a different graph.
"""

from __future__ import annotations

from typing import Iterable

from .graphs import MAX_ORDER, GraphError, LabelledGraph, make_graph


def _dot_quote(name: str) -> str:
    """A DOT quoted ID for ``name``; :func:`from_dot` reads it back exactly."""
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(g: LabelledGraph,
           highlight_vertices: Iterable[int] = (),
           highlight_component: Iterable[int] = ()) -> str:
    """Render as DOT.  Optional highlights mark a separating pair (red) and
    its separated component (blue) so figures can be reproduced directly."""
    red = set(highlight_vertices)
    blue = set(highlight_component)
    lines = ["graph G {"]
    for v in range(g.n):
        attrs = [f"order={g.orders[v]}"]
        if v in red:
            attrs.append('color=red, style=filled, fillcolor="#ffcccc"')
        elif v in blue:
            attrs.append('color=blue, style=filled, fillcolor="#cce0ff"')
        lines.append(f'  {_dot_quote(g.names[v])} [{", ".join(attrs)}];')
    for u, v in g.edges():
        lines.append(f"  {_dot_quote(g.names[u])} -- {_dot_quote(g.names[v])};")
    lines.append("}")
    return "\n".join(lines) + "\n"


_DOT_PUNCTUATION = "{}[];,="
_DOT_KEYWORDS = ("node", "edge", "graph", "digraph", "subgraph", "strict")


def _is_dot_id_char(ch: str) -> bool:
    return ch.isalnum() or ch in "_." or (ord(ch) >= 128 and not ch.isspace())


def _dot_tokens(text: str) -> list:
    """Split DOT text into (kind, value, line) tokens.

    ``kind`` is "id" for a bare or quoted ID (``value`` is its text, with
    ``\\"`` and ``\\\\`` unescaped in quoted ones), "keyword" for a bare
    DOT keyword (``value`` lower-cased), or the operator or punctuation
    itself.  Comments are dropped.
    """
    tokens = []
    i, line, n = 0, 1, len(text)
    line_start = True  # only white space so far on this line
    while i < n:
        ch = text[i]
        if ch == "\n":
            i, line, line_start = i + 1, line + 1, True
            continue
        if ch.isspace():
            i += 1
            continue
        if ch == "#" and line_start:  # a preprocessor line
            i = text.find("\n", i)
            i = n if i < 0 else i
            continue
        line_start = False
        if text.startswith("//", i):
            i = text.find("\n", i)
            i = n if i < 0 else i
        elif ch == '"':
            start_line = line
            out = []
            i += 1
            while True:
                if i >= n:
                    raise GraphError(f"line {start_line}: unterminated quoted name")
                ch = text[i]
                if ch == '"':
                    break
                if ch == "\\" and i + 1 < n and text[i + 1] in '"\\':
                    i += 1
                    ch = text[i]
                elif ch == "\n":
                    line += 1
                out.append(ch)
                i += 1
            tokens.append(("id", "".join(out), start_line))
            i += 1
        elif text.startswith(("--", "->"), i):
            tokens.append((text[i:i + 2], text[i:i + 2], line))
            i += 2
        elif ch in _DOT_PUNCTUATION:
            tokens.append((ch, ch, line))
            i += 1
        elif _is_dot_id_char(ch):
            start = i
            while i < n and _is_dot_id_char(text[i]):
                i += 1
            word = text[start:i]
            if word.lower() in _DOT_KEYWORDS:
                tokens.append(("keyword", word.lower(), line))
            else:
                tokens.append(("id", word, line))
        else:
            raise GraphError(f"line {line}: unexpected character {ch!r}; "
                             "quote vertex names that contain it")
    return tokens


def _misspells_order(key: str) -> bool:
    """Whether ``key`` is not ``order`` but its lower-case form is, or is
    one edit from it: one insertion, deletion, substitution or swap of
    adjacent letters (``Order``, ``ordr``, ``orders``, ``oder``)."""
    word, target = key.lower(), "order"
    if key == target:
        return False
    if len(word) == len(target):
        diff = [i for i, (a, b) in enumerate(zip(word, target)) if a != b]
        return len(diff) <= 1 or (len(diff) == 2 and diff[1] == diff[0] + 1
                                  and word[diff[0]] == target[diff[1]]
                                  and word[diff[1]] == target[diff[0]])
    longer, shorter = sorted((word, target), key=len, reverse=True)
    return len(longer) == len(shorter) + 1 and any(
        longer[:i] + longer[i + 1:] == shorter for i in range(len(longer)))


def from_dot(text: str) -> LabelledGraph:
    """Parse the undirected DOT subset emitted by :func:`to_dot`.

    The input is one ``graph`` or ``strict graph`` header, an optional
    graph name and a braced body of statements: node statements
    ``name [order=K, ...]`` and edge chains ``a -- b -- c [...]``.  A
    statement ends at ``;`` or where the next one begins, so statements
    may share a line or take one line each.  Names are bare IDs (letters,
    digits, ``_``, ``.``, non-ASCII) or double-quoted strings with ``\\"``
    and ``\\\\`` escapes.  ``//`` and ``#``-line comments are skipped.
    The ``order`` attribute must be a decimal integer and defaults to 2.
    A node attribute that misspells it, as ``order`` up to case and one
    edit, raises GraphError; other attributes (``color``, ``ordering``,
    ...), and every attribute of an edge, are ignored.
    Anything else, including attribute statements, subgraphs and directed
    graphs, raises GraphError with a line number.
    """
    tokens = _dot_tokens(text)
    tokens.append(("end", "end of input", tokens[-1][2] if tokens else 1))
    pos = 0

    def fail(message: str):
        raise GraphError(f"line {tokens[pos][2]}: {message}")

    def take(kind: str) -> str:
        nonlocal pos
        if tokens[pos][0] != kind:
            wanted = "a name" if kind == "id" else repr(kind)
            fail(f"expected {wanted}, found {tokens[pos][1]!r}")
        pos += 1
        return tokens[pos - 1][1]

    def attributes() -> list:
        nonlocal pos
        out = []
        while tokens[pos][0] == "[":
            pos += 1
            while tokens[pos][0] != "]":
                key = take("id")
                take("=")
                out.append((key, take("id"), tokens[pos - 1][2]))
                if tokens[pos][0] in ",;":
                    pos += 1
            pos += 1
        return out

    if tokens[pos][:2] == ("keyword", "strict"):
        pos += 1
    if tokens[pos][:2] == ("keyword", "digraph"):
        fail("directed graphs are not supported")
    if tokens[pos][:2] != ("keyword", "graph"):
        fail("expected a 'graph' header")
    pos += 1
    if tokens[pos][0] == "id":
        pos += 1
    take("{")

    order_of: dict[str, int] = {}  # insertion order is vertex order
    edges: list[tuple[str, str]] = []
    while tokens[pos][0] != "}":
        kind, value, _ = tokens[pos]
        if kind == ";":
            pos += 1
            continue
        if kind == "keyword":
            fail(f"{value!r} statements are not supported")
        if kind == "end":
            fail("missing closing '}'")
        name = take("id")
        chain = [name]
        while tokens[pos][0] in ("--", "->"):
            if tokens[pos][0] == "->":
                fail("directed edges are not supported")
            pos += 1
            chain.append(take("id"))
        attrs = attributes()
        for v in chain:
            order_of.setdefault(v, 2)
        edges.extend(zip(chain, chain[1:]))
        if len(chain) == 1:
            for key, value, line in attrs:
                if _misspells_order(key):
                    raise GraphError(f"line {line}: attribute {key!r} is not "
                                     "'order'; write order=K")
                if key != "order":
                    continue
                if not (value.isascii() and value.isdigit()):
                    raise GraphError(f"line {line}: order attribute must be "
                                     f"an integer, got {value!r}")
                try:
                    order_of[name] = int(value)
                except ValueError:  # more digits than int() converts
                    raise GraphError(f"line {line}: order attribute has "
                                     f"{len(value)} digits; orders are at "
                                     f"most {MAX_ORDER}") from None
    pos += 1
    if tokens[pos][0] != "end":
        fail(f"unexpected {tokens[pos][1]!r} after the closing '}}'")
    if not order_of:
        raise GraphError("DOT input declares no vertices")
    return make_graph(order_of.items(), edges)
