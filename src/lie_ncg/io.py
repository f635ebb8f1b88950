"""Algebra-spec ingestion and graph serialization.

The spec file format is JSON only, with a fixed key set; unknown keys are
rejected so malformed files fail loudly and identically everywhere.  Exports
of an ``NcGraph`` (DOT, GraphML, JSON), named by its ``labels``, are
byte-deterministic: vertices are listed in element index order, then each
edge once as (smaller label, larger label), the edges sorted by that pair.
Each export is one ``"".join`` over pieces.  The edges are written per
vertex in label order: a vertex whose row no other vertex shares picks its
neighbours of higher label from its own row, and a twin class, the
vertices of one shared row, reads that row once for all its members.
"""

import json
from bisect import bisect
from itertools import compress
from json.encoder import encode_basestring_ascii
from operator import itemgetter

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
    if dim < 0:
        raise ParseError(f"dim must not be negative, got {dim}")
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
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except (ValueError, RecursionError) as exc:
            # ValueError: JSONDecodeError, UnicodeDecodeError, or an integer
            # literal past the interpreter's int-string digit limit;
            # RecursionError: arrays or objects nested past its depth
            raise ParseError(f"invalid JSON: {exc}") from exc
    return parse_spec_dict(data)


# -- graph export --------------------------------------------------------------


def _edge_text(g, names, before, between, after, sep):
    """Every edge of ``g`` as ``before + names[a] + between + names[b] + after``,
    each led by ``sep``, with label a < label b and the edges sorted by
    (a, b), as a list of pieces for one ``"".join``.

    The vertices are ranked by label once.  The bits of a row, reordered by
    rank, pick the vertex's neighbours in rank order, so each vertex's edges
    come out sorted and are written with one join.  A row shared by two or
    more vertices, a twin class of ``g``, is read once: its first member in
    rank order keeps the class's neighbours of higher rank and their ranks,
    and each member takes the ones above its own rank with one ``bisect``
    (twins are not adjacent, so no member is among them).  The entry goes
    once the class's last member is written.  A vertex whose row is its
    own reads its row's bits above its rank, and nothing is kept.  The
    labels must be distinct, as they are for every ``NcGraph``.
    """
    n = g.n
    if n < 2:  # no edges; and itemgetter returns a tuple only for two or more indices
        return []
    order = sorted(range(n), key=g.labels.__getitem__)
    ranked = [names[v] for v in order]
    by_rank = itemgetter(*order)
    twins_of = {}
    for twins in g.twin_classes:
        if len(twins) > 1:
            twins_of.update(dict.fromkeys(twins, twins))
    pieces, shared = [], {}
    for i, v in enumerate(order):
        twins = twins_of.get(v)
        if twins is None:
            higher = list(compress(ranked[i + 1:], by_rank(g.row_bytes(v))[i + 1:]))
        else:
            key = twins[0]
            entry = shared.get(key)
            if entry is None:
                bits = by_rank(g.row_bytes(v))[i + 1:]
                entry = shared[key] = [
                    list(compress(range(i + 1, n), bits)),
                    list(compress(ranked[i + 1:], bits)),
                    len(twins),
                ]
            ranks, neighbours, _ = entry
            higher = neighbours[bisect(ranks, i):]
            entry[2] -= 1
            if not entry[2]:
                del shared[key]
        if higher:
            head = before + ranked[i] + between
            pieces += (sep, head, (after + sep + head).join(higher), after)
    return pieces


def export_dot(g):
    return "".join([
        "graph ncg {",
        *[f'\n  "{label}";' for label in g.labels],
        *_edge_text(g, g.labels, '  "', '" -- "', '";', "\n"),
        "\n}\n",
    ])


def export_graphml(g):
    refs = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;"})
    names = [label.translate(refs) for label in g.labels]
    return "".join([
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">\n'
        '  <graph id="ncg" edgedefault="undirected">',
        *[f'\n    <node id="{name}"/>' for name in names],
        *_edge_text(g, names, '    <edge source="', '" target="', '"/>', "\n"),
        "\n  </graph>\n</graphml>\n",
    ])


def _json_list(pieces):
    """A JSON array laid out as ``json.dumps(..., indent=2)`` lays out the
    value of a top-level key, as pieces for one join; each item of
    ``pieces`` is led by a comma, a newline and four spaces, and the first
    lead gives way to the opening bracket."""
    return ["[\n    ", *pieces[1:], "\n  ]"] if pieces else ["[]"]


def export_json(g):
    """The text of ``json.dumps(payload, indent=2, sort_keys=True)`` for the
    keys edges, vertex_count and vertices, written directly."""
    names = [encode_basestring_ascii(label) for label in g.labels]
    lead = ",\n    "
    return "".join([
        '{\n  "edges": ',
        *_json_list(_edge_text(g, names, "[\n      ", ",\n      ", "\n    ]", lead)),
        ',\n  "vertex_count": ',
        str(g.n),
        ',\n  "vertices": ',
        *_json_list([piece for name in names for piece in (lead, name)]),
        "\n}\n",
    ])
