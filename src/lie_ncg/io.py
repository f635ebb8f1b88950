"""Algebra-spec ingestion and graph serialization.

The spec file format is JSON only, with a fixed key set; unknown keys are
rejected so malformed files fail loudly and identically everywhere.  Exports
(DOT, GraphML, JSON) are byte-deterministic: vertex order follows element
index order and each edge is listed once with the lexicographically smaller
endpoint label first.
"""

from __future__ import annotations

import json
from xml.sax.saxutils import escape

from .errors import ParseError
from .liealg import AlgebraSpec

SPEC_KEYS = {"q", "dim", "basis", "brackets"}
BRACKET_KEYS = {"left", "right", "value"}


def _is_int(value):
    # JSON true/false decode to bool, which is a subclass of int
    return isinstance(value, int) and not isinstance(value, bool)


def parse_spec_dict(data):
    """Build an AlgebraSpec from a decoded JSON object."""
    if not isinstance(data, dict):
        raise ParseError("spec must be a JSON object")
    unknown = set(data) - SPEC_KEYS
    if unknown:
        raise ParseError(f"unknown spec keys: {sorted(unknown)}")
    missing = SPEC_KEYS - set(data)
    if missing:
        raise ParseError(f"missing spec keys: {sorted(missing)}")
    q, dim, basis, brackets = data["q"], data["dim"], data["basis"], data["brackets"]
    if not _is_int(q) or not _is_int(dim):
        raise ParseError("q and dim must be integers")
    if not isinstance(basis, list) or not all(isinstance(b, str) for b in basis):
        raise ParseError("basis must be a list of names")
    if not isinstance(brackets, list):
        raise ParseError("brackets must be a list")
    parsed = []
    for rec in brackets:
        if not isinstance(rec, dict) or set(rec) != BRACKET_KEYS:
            raise ParseError("each bracket needs exactly the keys left, right, value")
        if not isinstance(rec["left"], str) or not isinstance(rec["right"], str):
            raise ParseError("bracket left and right must be basis names")
        value = rec["value"]
        if not isinstance(value, dict) or not all(
            isinstance(k, str) and _is_int(v) for k, v in value.items()
        ):
            raise ParseError("bracket value must map names to integer coefficients")
        parsed.append((rec["left"], rec["right"], dict(value)))
    return AlgebraSpec(q=q, dim=dim, basis=tuple(basis), brackets=tuple(parsed))


def load_spec(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        # RecursionError: arrays or objects nested past the interpreter's depth
        raise ParseError(f"invalid JSON: {exc}") from exc
    return parse_spec_dict(data)


# -- graph export --------------------------------------------------------------


def _sorted_label_edges(g):
    edges = []
    for u, v in g.edges():
        a, b = g.labels[u], g.labels[v]
        if b < a:
            a, b = b, a
        edges.append((a, b))
    return sorted(edges)


def export_dot(g):
    lines = ["graph ncg {"]
    for label in g.labels:
        lines.append(f'  "{label}";')
    for a, b in _sorted_label_edges(g):
        lines.append(f'  "{a}" -- "{b}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_graphml(g):
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">',
        '  <graph id="ncg" edgedefault="undirected">',
    ]
    for label in g.labels:
        lines.append(f'    <node id="{escape(label, {chr(34): "&quot;"})}"/>')
    for a, b in _sorted_label_edges(g):
        lines.append(
            f'    <edge source="{escape(a, {chr(34): "&quot;"})}" '
            f'target="{escape(b, {chr(34): "&quot;"})}"/>'
        )
    lines.extend(["  </graph>", "</graphml>"])
    return "\n".join(lines) + "\n"


def export_json(g):
    payload = {
        "vertex_count": g.n,
        "vertices": list(g.labels),
        "edges": [[a, b] for a, b in _sorted_label_edges(g)],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
