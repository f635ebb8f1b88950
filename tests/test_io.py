"""Spec parsing and deterministic graph exports."""

import json
import os
import random
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

from lie_ncg.catalog import builtin_catalog
from lie_ncg.errors import ParseError
from lie_ncg.graphs import Graph
from lie_ncg.io import (
    export_dot,
    export_graphml,
    export_json,
    load_spec,
    parse_spec_dict,
)
from lie_ncg.liealg import AlgebraSpec, algebra_from_spec
from lie_ncg.ncg import build_graph
from oracles import (
    LabeledGraph,
    catalog_entry,
    dot_by_sorting,
    edges,
    graphml_by_sorting,
    has_edge,
    json_by_sorting,
)

SPECS = Path(__file__).resolve().parent.parent / "specs"

GOOD = {
    "q": 2,
    "dim": 3,
    "basis": ["x", "y", "z"],
    "brackets": [{"left": "x", "right": "y", "value": {"z": 1}}],
}


def test_parse_round_trip():
    spec = parse_spec_dict(GOOD)
    assert spec.q == 2 and spec.dim == 3
    assert spec.brackets == (("x", "y", {"z": 1}),)
    for path in sorted(SPECS.glob("*.json")):
        data = json.loads(path.read_text())
        spec = parse_spec_dict(data)
        assert (spec.q, spec.dim, spec.basis) == (data["q"], data["dim"], tuple(data["basis"]))
        assert spec.brackets == tuple(
            (rec["left"], rec["right"], rec["value"]) for rec in data["brackets"]
        )


def test_parse_rejects_malformed_payloads():
    with pytest.raises(ParseError):
        parse_spec_dict([1, 2])
    with pytest.raises(ParseError):
        parse_spec_dict({**GOOD, "extra": 1})
    with pytest.raises(ParseError):
        parse_spec_dict({k: v for k, v in GOOD.items() if k != "dim"})
    with pytest.raises(ParseError):
        parse_spec_dict({**GOOD, "q": "2"})
    # JSON true decodes to bool, a subclass of int
    for key in ("q", "dim"):
        with pytest.raises(ParseError):
            parse_spec_dict({**GOOD, key: True})
    with pytest.raises(ParseError):
        parse_spec_dict(
            {**GOOD, "brackets": [{"left": "x", "right": "y", "value": {"z": True}}]}
        )
    with pytest.raises(ParseError):
        parse_spec_dict({**GOOD, "basis": [1, 2, 3]})
    with pytest.raises(ParseError):
        parse_spec_dict({**GOOD, "dim": -1})
    with pytest.raises(ParseError):
        parse_spec_dict({**GOOD, "brackets": [{"left": "x", "right": "y"}]})
    # a list is not a basis name (and is unhashable in the name lookup)
    for side in ("left", "right"):
        rec = {"left": "x", "right": "y", "value": {"z": 1}, side: ["x"]}
        with pytest.raises(ParseError):
            parse_spec_dict({**GOOD, "brackets": [rec]})
    with pytest.raises(ParseError):
        parse_spec_dict(
            {**GOOD, "brackets": [{"left": "x", "right": "y", "value": {"z": "1"}}]}
        )


def test_load_spec_from_file(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(GOOD))
    L = algebra_from_spec(load_spec(path))
    assert L.dim == 3

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ParseError):
        load_spec(bad)
    # a basis name written in Latin-1: byte 0xe9 does not decode as UTF-8
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"q": 2, "dim": 1, "basis": ["\xe9"], "brackets": []}')
    with pytest.raises(ParseError):
        load_spec(latin1)
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    with pytest.raises(ParseError):
        load_spec(deep)


def test_catalog_entries_match_their_spec_files():
    # ``verify`` reads the built-in catalog, while ``analyze``, ``compare``
    # and ``export`` read the spec files: the two copies must agree
    for entry in builtin_catalog():
        assert load_spec(SPECS / f"{entry.name}.json") == entry.spec, entry.name


def test_exports_are_byte_deterministic():
    g = build_graph(catalog_entry("heisenberg_f2").algebra())
    for render in (export_dot, export_graphml, export_json):
        assert render(g) == render(g)
    g2 = build_graph(catalog_entry("heisenberg_f2").algebra())
    assert export_dot(g) == export_dot(g2)


def test_export_dot_shape():
    g = build_graph(catalog_entry("aff1_f2").algebra())
    text = export_dot(g)
    assert text.startswith("graph ncg {")
    assert '"x" -- "x+y";' in text
    assert '"x" -- "y";' in text
    assert '"x+y" -- "y";' in text
    assert text.endswith("}\n")


def test_export_graphml_shape():
    g = build_graph(catalog_entry("aff1_f2").algebra())
    text = export_graphml(g)
    assert text.startswith('<?xml version="1.0"')
    assert '<node id="x+y"/>' in text
    assert text.count("<edge ") == 3


def test_export_json_round_trip():
    g = build_graph(catalog_entry("heisenberg_f3").algebra())
    data = json.loads(export_json(g))
    assert data["vertex_count"] == g.n
    assert data["vertices"] == list(g.labels)
    assert len(data["edges"]) == g.edge_count()
    index = {lab: i for i, lab in enumerate(g.labels)}
    for a, b in data["edges"]:
        assert a < b and has_edge(g, index[a], index[b])


# the five families of the analyze-large benchmark, in their original bases
LARGE_FAMILIES = [
    (3, "abcd", (("a", "b", {"a": 1}), ("c", "d", {"c": 1}))),
    (5, "xyz", (("x", "y", {"z": 1}),)),
    (5, "xyz", (("x", "y", {"z": 1}), ("y", "z", {"x": 1}), ("z", "x", {"y": 1}))),
    (3, "abcdz", (("a", "b", {"z": 1}), ("c", "d", {"z": 1}))),
    (4, "abcd", (("a", "b", {"a": 1}), ("c", "d", {"c": 1}))),
]


ALPHABET = ["a", "b", "x", "<", ">", "&", "'", '"', "\u00e9", "\u2200"]


def _labels(rng, n):
    """n distinct labels that XML and JSON must escape, in shuffled order."""
    labels = set()
    while len(labels) < n:
        labels.add("".join(rng.choices(ALPHABET, k=rng.randint(1, 3))))
    labels = sorted(labels)
    rng.shuffle(labels)
    return labels


def _random_graphs():
    """Seeded random graphs with n = 0..5, 20 and 40, each labeled once by
    its vertex indices and once with distinct labels that XML and JSON must
    escape."""
    rng = random.Random(20)
    graphs = []
    for n in [0, 1, 2, 3, 4, 5, 20, 40]:
        for _ in range(4):
            labels = _labels(rng, n)
            p = rng.random()
            edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
            rows = Graph.from_edges(n, edges).rows
            graphs += [LabeledGraph(n, rows, map(str, range(n))), LabeledGraph(n, rows, labels)]
    return graphs


def _blow_up(rng, sizes, base_edges):
    """The graph with base vertex b replaced by ``sizes[b]`` pairwise
    non-adjacent twins, each adjacent to every twin of b's neighbours; the
    vertices numbered in shuffled order and labeled with shuffled labels, so
    a class's members interleave with other vertices in index and label
    order."""
    n = sum(sizes)
    vertices = list(range(n))
    rng.shuffle(vertices)
    classes = []
    for size in sizes:
        classes.append(vertices[:size])
        del vertices[:size]
    edges = [(u, v) for a, b in base_edges for u in classes[a] for v in classes[b]]
    return LabeledGraph(n, Graph.from_edges(n, edges).rows, _labels(rng, n))


def _twin_graphs():
    """Seeded blow-ups of random graphs on up to 20 vertices into classes of
    1-5 twins (n up to about 60), a complete multipartite graph, where every
    vertex has a twin, and one graph with twin classes and singletons
    mixed."""
    rng = random.Random(37)
    graphs = []
    for k in [1, 2, 3, 5, 8, 12, 16, 20]:
        for _ in range(4):
            sizes = [rng.randint(1, 5) for _ in range(k)]
            p = rng.random()
            base = [(a, b) for a in range(k) for b in range(a + 1, k) if rng.random() < p]
            graphs.append(_blow_up(rng, sizes, base))
    parts = [2, 3, 4, 5, 6]
    graphs.append(_blow_up(rng, parts, list(combinations(range(len(parts)), 2))))
    # a path, whose vertices have distinct neighbourhoods, keeps each class
    sizes = [1, 4, 1, 1, 3, 1, 2, 1, 5, 1]
    graphs.append(_blow_up(rng, sizes, [(a, a + 1) for a in range(len(sizes) - 1)]))
    return graphs


def test_exports_match_the_sorting_oracle():
    algebras = [algebra_from_spec(load_spec(path)) for path in sorted(SPECS.glob("*.json"))]
    algebras += [entry.algebra() for entry in builtin_catalog()]
    # the large families, and one with basis names that GraphML escapes
    families = LARGE_FAMILIES + [(3, ("a&b", "<x>", "y>"), (("a&b", "<x>", {"y>": 1}),))]
    algebras += [
        algebra_from_spec(AlgebraSpec(q=q, dim=len(basis), basis=tuple(basis), brackets=brackets))
        for q, basis, brackets in families
    ]
    twins = _twin_graphs()
    # most blow-ups have a twin class of two or more, the complete
    # multipartite one has nothing else, and the path one mixes both
    assert sum(any(len(c) > 1 for c in g.twin_classes) for g in twins) > len(twins) // 2
    assert all(len(c) > 1 for c in twins[-2].twin_classes)
    assert sorted(map(len, twins[-1].twin_classes)) == [1] * 6 + [2, 3, 4, 5]
    graphs = [build_graph(L) for L in algebras] + _random_graphs() + twins
    assert any(g.n == 0 for g in graphs) and any(g.n > 200 for g in graphs)
    for g in graphs:
        pairs = [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if has_edge(g, u, v)]
        assert edges(g) == pairs
        assert export_dot(g) == dot_by_sorting(g)
        assert export_graphml(g) == graphml_by_sorting(g)
        assert export_json(g) == json_by_sorting(g)


def test_cli_import_loads_no_network_modules():
    # xml.sax.saxutils, once used to escape GraphML, imports urllib.request,
    # which imports http.client and email
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    code = (
        "import sys, lie_ncg.cli; "
        "print(sorted({'urllib.request', 'http.client', 'email', 'xml.sax'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
