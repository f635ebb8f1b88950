"""End-to-end CLI behavior through main(argv)."""

import json
import os
import re
import subprocess
import sys
import tempfile
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from lie_ncg import verifier
from lie_ncg.cli import main

SPECS = str(Path(__file__).resolve().parent.parent / "specs")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def bad_spec(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"q": 2, "dim": 1, "basis": ["x"], "brackets": [], "oops": 1}))
    return str(path)


def test_validate_ok(capsys):
    code, out, _ = run(capsys, "validate", f"{SPECS}/heisenberg_f2.json")
    assert code == 0 and out.strip() == "ok"
    code, out, _ = run(capsys, "validate", f"{SPECS}/heisenberg_f2.json", "--format", "json")
    assert code == 0 and json.loads(out) == {"ok": True}


def test_validate_rejects_bad_spec(capsys, bad_spec):
    code, out, err = run(capsys, "validate", bad_spec)
    assert code == 1 and "ParseError" in err
    code, out, _ = run(capsys, "validate", bad_spec, "--format", "json")
    assert code == 1 and json.loads(out)["error"] == "ParseError"


def test_validate_missing_file(capsys):
    code, _, err = run(capsys, "validate", "no/such/file.json")
    assert code == 1 and err


def test_analyze_json(capsys):
    code, out, _ = run(capsys, "analyze", f"{SPECS}/heisenberg_f2.json", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["algebra"]["order"] == 8
    assert payload["algebra"]["center_order"] == 2
    assert payload["algebra"]["is_nilpotent"] is True
    assert payload["graph"]["vertex_count"] == 6
    assert payload["graph"]["degree_sequence"] == [4] * 6
    assert payload["graph"]["is_planar"] is True
    assert payload["graph"]["domination_number"] == 2


@pytest.mark.parametrize("cap", ["abc", "0", "-5", "1.5"])
def test_bad_element_cap_env_is_a_one_line_error(capsys, monkeypatch, cap):
    monkeypatch.setenv("LIE_NCG_CAP", cap)
    code, out, err = run(capsys, "analyze", f"{SPECS}/aff1_f2.json")
    assert code == 1 and out == ""
    assert err == f"LieNcgError: LIE_NCG_CAP must be a positive integer, got {cap!r}\n"


def test_analyze_text(capsys):
    code, out, _ = run(capsys, "analyze", f"{SPECS}/aff1_f2.json")
    assert code == 0
    assert "[algebra]" in out and "[graph]" in out
    assert "vertex_count: 3" in out


def test_export_formats_deterministic(capsys, tmp_path):
    outputs = {}
    for fmt in ("dot", "graphml", "json"):
        code, out1, _ = run(capsys, "export", f"{SPECS}/heisenberg_f2.json", "--out", fmt)
        code2, out2, _ = run(capsys, "export", f"{SPECS}/heisenberg_f2.json", "--out", fmt)
        assert code == code2 == 0
        assert out1 == out2
        outputs[fmt] = out1
    assert outputs["dot"].startswith("graph ncg {")
    assert json.loads(outputs["json"])["vertex_count"] == 6
    # --output writes the same bytes to a file
    target = tmp_path / "g.dot"
    code, out, _ = run(capsys, "export", f"{SPECS}/heisenberg_f2.json", "--output", str(target))
    assert code == 0 and out == ""
    assert target.read_text() == outputs["dot"]


def test_verify_catalog_text(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("PASS")]
    assert len(lines) == 22
    assert "FAIL" not in out


def test_verify_single_statement_json(capsys):
    code, out, _ = run(capsys, "verify", "--statement", "Prop2.4", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["statement_id"] == "Prop2.4"
    assert report["status"] == "pass"
    assert report["instances_checked"] == 9


def test_verify_unknown_statement(capsys):
    code, _, err = run(capsys, "verify", "--statement", "Nope1.1")
    assert code == 1 and "UnknownStatement" in err


def test_verify_enumerate_scope(capsys):
    code, out, _ = run(capsys, "verify", "--scope", "enumerate", "--n", "2", "--q", "2")
    assert code == 0
    assert all(l.startswith("PASS") for l in out.splitlines() if l.strip())


def test_compare_identical_specs(capsys):
    code, out, _ = run(
        capsys, "compare", f"{SPECS}/heisenberg_f2.json", f"{SPECS}/heisenberg_f2.json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["isomorphic"] is True
    assert payload["orders"] == [8, 8]
    assert payload["consequence_failures"] == []
    assert sorted(payload["witness"]) == sorted(payload["witness"].values())


def test_compare_builds_each_graph_once(capsys, monkeypatch):
    # the consequence checks reuse compare's two graphs and its witness
    import lie_ncg.cli
    import lie_ncg.verifier

    calls = Counter()

    def counted(name, fn):
        def call(*args):
            calls[name] += 1
            return fn(*args)

        return call

    # every name either module could call them by
    for mod, name in ((lie_ncg.cli, "build_graph"), (lie_ncg.cli, "isomorphism"),
                      (lie_ncg.verifier, "build_graph"), (lie_ncg.verifier, "isomorphism")):
        monkeypatch.setattr(mod, name, counted(name, getattr(mod, name)))
    spec = f"{SPECS}/heisenberg_f4.json"
    code, out, _ = run(capsys, "compare", spec, spec)
    assert code == 0 and json.loads(out)["isomorphic"] is True
    assert calls == {"build_graph": 2, "isomorphism": 1}


def test_compare_different_specs(capsys):
    code, out, _ = run(capsys, "compare", f"{SPECS}/aff1_f2.json", f"{SPECS}/heisenberg_f2.json")
    assert code == 0
    payload = json.loads(out)
    assert payload["isomorphic"] is False
    assert payload["witness"] is None


def test_enumerate_defaults(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["instances"] == 3
    assert payload["cells"]["iso/equal"] == 3


def test_enumerate_repeated_q_counts_once(capsys):
    # a q given twice adds no copy of its algebras to the table
    _, once, _ = run(capsys, "enumerate", "--n", "2", "--q", "2")
    code, twice, _ = run(capsys, "enumerate", "--n", "2", "--q", "2", "--q", "2")
    assert code == 0 and twice == once
    assert json.loads(once)["instances"] == 3 and json.loads(once)["pairs"] == 3
    _, mixed, _ = run(capsys, "enumerate", "--n", "2", "--q", "3", "--q", "2", "--q", "3")
    assert mixed == run(capsys, "enumerate", "--n", "2", "--q", "3", "--q", "2")[1]


def test_enumerate_twice_in_one_process_prints_the_same(capsys):
    # the parser is built once per process, so no --q value may carry over
    first = run(capsys, "enumerate", "--q", "2")
    assert run(capsys, "enumerate", "--q", "2") == first
    assert first[0] == 0 and json.loads(first[1])["instances"] > 0


def test_enumerate_q2_q3(capsys):
    # every dim <= 3 graph is complete multipartite, so this table needs no
    # exhaustive certificate search; the cells agree with sorted part sizes
    # of the bracket-oracle graphs (tests/oracles.py::graph_by_brackets)
    code, out, _ = run(capsys, "enumerate", "--n", "3", "--q", "2", "--q", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["instances"] == 1560
    assert payload["pairs"] == 1216020
    assert payload["cells"] == {
        "iso/equal": 363053,
        "iso/unequal": 0,
        "non-iso/equal": 665734,
        "non-iso/unequal": 187233,
    }


def _spec_file(tmp_path, **overrides):
    spec = {"q": 2, "dim": 2, "basis": ["x", "y"], "brackets": [], **overrides}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    return str(path)


@pytest.mark.parametrize(
    "case, error",
    [
        ("unwritable output", "FileNotFoundError"),
        ("not UTF-8", "ParseError"),
        ("list as bracket name", "ParseError"),
        ("q = 2^61 - 1", "UnsupportedField"),
        ("200-dim spec", "CapExceeded"),
        # past the interpreter's int-string digit limit (4300 by default)
        ("5000-digit q", "ParseError"),
        ("5000-digit coefficient", "ParseError"),
    ],
)
def test_bad_input_is_a_one_line_error(capsys, tmp_path, case, error):
    if case == "unwritable output":
        argv = ["export", f"{SPECS}/aff1_f2.json", "--output", str(tmp_path / "no" / "x.dot")]
    elif case == "not UTF-8":
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"q": 2, "dim": 1, "basis": ["\xe9"], "brackets": []}')
        argv = ["validate", str(path)]
    elif case == "list as bracket name":
        bracket = {"left": ["x"], "right": "y", "value": {"x": 1}}
        argv = ["validate", _spec_file(tmp_path, brackets=[bracket])]
    elif case == "q = 2^61 - 1":
        argv = ["validate", _spec_file(tmp_path, q=2**61 - 1)]
    elif case.startswith("5000-digit"):
        digits = "7" * 5000
        if case.endswith("q"):
            text = f'{{"q": {digits}, "dim": 1, "basis": ["x"], "brackets": []}}'
        else:
            bracket = f'{{"left": "x", "right": "y", "value": {{"x": {digits}}}}}'
            text = f'{{"q": 2, "dim": 2, "basis": ["x", "y"], "brackets": [{bracket}]}}'
        path = tmp_path / "spec.json"
        path.write_text(text)
        argv = ["validate", str(path)]
    else:
        basis = [f"e{i}" for i in range(200)]
        argv = ["validate", _spec_file(tmp_path, dim=200, basis=basis)]
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 1 and out == ""
    assert err.startswith(f"{error}: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "name", ["", "2x", "0", "x+y", 'a"b', "a\\b", "a\x01", "a\x00", "a\t", "a\n", "a\x1f",
             "a\ufffe", "a\uffff", "\ud800", "a\udfff"],
)
def test_ambiguous_basis_name_is_a_one_line_error(capsys, tmp_path, name):
    # with "x+y" as a name, the element x + y and the basis element x+y
    # would both be labeled "x+y"
    bracket = {"left": "x", "right": name, "value": {"x": 1}}
    spec = _spec_file(tmp_path, basis=["x", name], brackets=[bracket])
    code, out, err = run(capsys, "export", spec)
    assert code == 1 and out == ""
    assert err.startswith("UnknownBasisName: ") and err.count("\n") == 1


def test_iso_cap_applies_only_past_the_screen(capsys, tmp_path):
    # aff1 + aff1 over F_3: 80 vertices, not complete multipartite, so past
    # ISO_CAP; a 6-vertex graph is told apart by the screen, while the
    # graph against itself needs the canonical search
    brackets = [
        {"left": "a", "right": "b", "value": {"a": 1}},
        {"left": "c", "right": "d", "value": {"c": 1}},
    ]
    spec = _spec_file(tmp_path, q=3, dim=4, basis=list("abcd"), brackets=brackets)
    code, out, _ = run(capsys, "compare", spec, f"{SPECS}/heisenberg_f2.json")
    assert code == 0 and json.loads(out)["isomorphic"] is False
    code, out, _ = run(capsys, "compare", spec, spec)
    assert code == 1 and json.loads(out)["error"] == "CapExceeded"


@pytest.mark.parametrize("out", ["dot", "graphml"])
def test_label_that_stdout_cannot_encode_is_a_one_line_error(tmp_path, out):
    bracket = {"left": "\u03b1", "right": "y", "value": {"\u03b1": 1}}
    spec = _spec_file(tmp_path, basis=["\u03b1", "y"], brackets=[bracket])
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONIOENCODING": "ascii", "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-m", "lie_ncg.cli", "export", spec, "--out", out],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("UnicodeEncodeError: ") and proc.stderr.count("\n") == 1


class _ClosedPipe:
    """A stdout whose reader has gone: every write and flush raises."""

    def __init__(self, fileno):
        self._fileno = fileno

    def write(self, *text):
        raise BrokenPipeError(32, "Broken pipe")

    flush = write

    def fileno(self):
        return self._fileno


@pytest.mark.parametrize("argv", [["analyze", "--format", "json"], ["export", "--out", "json"]])
def test_closed_stdout_exits_1_without_raising(capsys, monkeypatch, tmp_path, argv):
    with open(tmp_path / "stdout", "w") as fh:
        monkeypatch.setattr("sys.stdout", _ClosedPipe(fh.fileno()))
        assert main([argv[0], f"{SPECS}/aff1_f2.json", *argv[1:]]) == 1
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "argv, stream",
    [
        (["enumerate", "--n", "-3"], "out"),
        (["verify", "--scope", "enumerate", "--n", "0"], "err"),
        (["enumerate", "--n", "4", "--q", "3"], "out"),
        (["enumerate", "--n", "1"], "out"),
        (["verify", "--scope", "enumerate", "--n", "1", "--format", "json"], "out"),
        (["verify", "--scope", "enumerate", "--n", "4", "--q", "2"], "err"),
        (["verify", "--scope", "enumerate", "--n", "3", "--q", "4"], "err"),
    ],
)
def test_empty_or_impossible_scope_is_refused_before_any_work(capsys, monkeypatch, argv, stream):
    # no candidate tensor is generated: n = 4 is refused before n = 2 and 3
    # are enumerated
    def no_candidates(*args):
        raise AssertionError("candidate tensors generated before the refusal")

    monkeypatch.setattr("lie_ncg.enumeration.LieAlgebra", no_candidates)
    code, out, err = run(capsys, *argv)
    assert code == 1
    line, other = (out, err) if stream == "out" else (err, out)
    assert "CapExceeded" in line and line.count("\n") == 1 and other == ""
    if stream == "out":
        assert json.loads(line)["error"] == "CapExceeded"


@pytest.mark.parametrize(
    "argv, stream",
    [
        (["verify", "--n", "99", "--q", "1000", "--statement", "Lem2.3"], "err"),
        (["verify", "--scope", "catalog", "--q", "2", "--format", "json"], "out"),
    ],
)
def test_catalog_scope_refuses_a_shape(capsys, monkeypatch, argv, stream):
    # the catalog has no dimension or field order, so a given --n or --q is
    # refused before any instance is built, not ignored
    def no_instances():
        raise AssertionError("catalog instances built before the refusal")

    monkeypatch.setattr(verifier, "catalog_instances", no_instances)
    code, out, err = run(capsys, *argv)
    assert code == 1
    line, other = (out, err) if stream == "out" else (err, out)
    assert "--n or --q" in line and line.count("\n") == 1 and other == ""
    if stream == "out":
        assert json.loads(line)["error"] == "LieNcgError"


def test_every_scope_is_a_verify_choice_and_runs(capsys):
    # an argument outside ``--scope``'s choices would exit 2 from the parser
    for name in verifier.SCOPES:
        code, out, err = run(capsys, "verify", "--scope", name, "--statement", "Lem2.3")
        assert code == 0 and out.startswith("PASS Lem2.3") and err == ""


NAMES = ["x", "y", "z", "w"]
ODD = st.sampled_from([None, 1.5, "1", [], {}, True])
BAD_NAMES = st.sampled_from(
    ["", "2x", "x+y", 'a"b', "a\\b", "a\x01", "a\t", "a\ufffe", "a\uffff", "\ud800", "v", "x"]
)
FAULTS = ["q", "dim", "basis", "name", "coefficient", "brackets", "bracket", "key"]


@st.composite
def spec_json(draw):
    """A spec object of a small shape (dim <= 4, q <= 5, under the element
    cap); half of them carry one fault: a wrong-typed or impossible q or
    dim, a bad, repeated or undeclared name, an out-of-range or wrong-typed
    coefficient, a malformed bracket list or bracket, or a missing or
    unknown key."""
    q = draw(st.sampled_from([2, 3, 4, 5]))
    dim = draw(st.integers(1, 4))
    name = st.sampled_from(NAMES[:dim])
    value = st.dictionaries(name, st.integers(0, q - 1), min_size=1, max_size=2)
    bracket = st.builds(
        lambda pair, value: {"left": pair[0], "right": pair[1], "value": value},
        st.permutations(NAMES[:max(dim, 2)]).map(lambda names: names[:2]), value,
    )
    # distinct pairs: a repeated pair is a DuplicateBracket
    brackets = st.lists(
        bracket, max_size=3 if dim > 1 else 0,
        unique_by=lambda b: frozenset((b["left"], b["right"])),
    )
    spec = {"q": q, "dim": dim, "basis": NAMES[:dim], "brackets": draw(brackets)}
    if draw(st.booleans()):
        return spec
    fault = draw(st.sampled_from(FAULTS))
    if fault in ("name", "coefficient"):
        if not spec["brackets"]:
            spec["brackets"].append(draw(bracket))
        target = draw(st.sampled_from(spec["brackets"]))
    if fault == "q":
        spec["q"] = draw(ODD | st.sampled_from([0, 1, 6, 2**61 - 1]))
    elif fault == "dim":
        spec["dim"] = draw(ODD | st.sampled_from([0, -1, dim + 1, 200]))
    elif fault == "basis":
        spec["basis"][draw(st.integers(0, dim - 1))] = draw(BAD_NAMES | ODD)
    elif fault == "name":
        if draw(st.booleans()):
            target["value"][draw(BAD_NAMES)] = 1
        else:
            target[draw(st.sampled_from(["left", "right"]))] = draw(BAD_NAMES | ODD)
    elif fault == "coefficient":
        target["value"][draw(name)] = draw(ODD | st.sampled_from([-1, q, 2**70]))
    elif fault == "brackets":
        spec["brackets"] = draw(ODD)
    elif fault == "bracket":
        spec["brackets"].append(draw(ODD | st.just({"left": "x", "right": "x"})))
    elif draw(st.booleans()):
        del spec[draw(st.sampled_from(sorted(spec)))]
    else:
        spec["oops"] = 1
    return spec


def _run_quiet(argv):
    """(exit code, stdout, stderr) of one command, captured without capsys,
    which Hypothesis cannot reset between examples."""
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=200, deadline=None)
@given(spec_json())
def test_generated_specs_end_in_output_or_one_error_line(spec):
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "spec.json")
        Path(path).write_text(json.dumps(spec), encoding="utf-8")
        for argv in (
            ["validate", path],
            ["analyze", path],
            ["export", path, "--out", "dot"],
            ["export", path, "--out", "graphml"],
            ["export", path, "--out", "json"],
            ["compare", path, path],
        ):
            code, out, err = _run_quiet(argv)
            if code == 0:
                assert out and err == "", argv
                continue
            assert code == 1, argv
            if out:
                # a JSON-format command reports its error on stdout
                assert err == "" and out.count("\n") == 1, argv
                assert set(json.loads(out)) == {"error", "message"}, argv
            else:
                assert err.count("\n") == 1 and re.match(r"[A-Za-z]+: ", err), argv


# Run in a fresh interpreter: a sys.meta_path finder makes every networkx
# import fail, as if it were not installed, then each command runs in-process
# and its exit code is printed.
_WITHOUT_NETWORKX = """
import contextlib, io, json, sys

class BlockNetworkx:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "networkx":
            raise ImportError(f"{name} is blocked")

sys.meta_path.insert(0, BlockNetworkx())
try:
    import networkx
except ImportError:
    pass
else:
    sys.exit("networkx was imported through the block")
from lie_ncg.cli import main

codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(argv))
assert "networkx" not in sys.modules
print(json.dumps(codes))
"""


def test_cli_runs_without_networkx():
    # networkx is a test oracle only: no command may need it
    argvs = [
        ["verify"],
        ["verify", "--scope", "enumerate", "--n", "3", "--q", "3"],
        ["enumerate", "--n", "3", "--q", "2", "--q", "3"],
    ]
    for path in sorted(Path(SPECS).glob("*.json")):
        path = str(path)
        argvs += [
            ["validate", path],
            ["analyze", path],
            ["analyze", path, "--format", "json"],
            ["export", path, "--out", "dot"],
            ["export", path, "--out", "graphml"],
            ["export", path, "--out", "json"],
            ["compare", path, path],
        ]
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", _WITHOUT_NETWORKX, json.dumps(argvs)],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert dict(zip(map(tuple, argvs), json.loads(proc.stdout))) == {
        tuple(argv): 0 for argv in argvs
    }
