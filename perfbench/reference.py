"""The mathematical content of a classification report, in a form that
ignores vertex order, key order, ``version`` and the duplicated ``p0``
list.

Vertices are named, so a Sil is compared as (sorted pair names, sorted
component names, coxeter), a Stil as (sorted triple, sorted component) and
an Fsil by its sorted triple.  Each set is stored as a SHA-256 digest of
its sorted canonical JSON, which keeps the committed reference small.
"""

from __future__ import annotations

import hashlib
import json

EVIDENCE_KEYS = ("coxeter_sils", "non_coxeter_sils", "stils", "fsils")


def set_digest(items) -> str:
    text = json.dumps(sorted(items), separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def classify_rule(coxeter_sils: int, non_coxeter_sils: int, stils: int,
                  fsils: int) -> str:
    """The paper's classification of Out(W) from the separation census."""
    if non_coxeter_sils or stils or fsils:
        return "Large"
    if coxeter_sils == 0:
        return "Finite"
    if coxeter_sils == 1:
        return "VirtuallyZ"
    return "VirtuallyAbelianNotZ"


def content(klass: str, evidence: dict, generators: int, sils, stils,
            fsils) -> dict:
    """Build the comparable content from name-based census sets.

    ``sils`` holds (pair, component, coxeter) triples, ``stils`` holds
    (triple, component) pairs and ``fsils`` holds triples, all of names.
    """
    return {
        "class": klass,
        "evidence": {k: evidence[k] for k in EVIDENCE_KEYS},
        "generators": generators,
        "sils": set_digest([sorted(p), sorted(c), bool(x)] for p, c, x in sils),
        "stils": set_digest([sorted(t), sorted(c)] for t, c in stils),
        "fsils": set_digest(sorted(t) for t in fsils),
    }


def report_content(report: dict) -> dict:
    """Content of a ``silscope classify`` report.  Raises KeyError,
    TypeError or ValueError when the report lacks a field."""
    presentation = report.get("presentation") or {}
    generators = presentation.get("generators", report.get("p0"))
    if generators is None:
        raise KeyError("report lists no generators")
    return content(
        report["class"], report["evidence"], len(generators),
        [(s["pair"], s["component"], s["coxeter"]) for s in report["sils"]],
        [(s["triple"], s["component"]) for s in report["stils"]],
        [f["triple"] for f in report["fsils"]],
    )
