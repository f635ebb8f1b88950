"""Every function in ``src/lie_ncg`` runs under some command, or is on a short
allowlist that says what else reaches it.

A fresh interpreter runs the CLI matrix under ``sys.setprofile`` (a fresh one,
so that no ``@cache``d body already ran in another test) and reports each code
object it entered as (file, first line).  The functions are read from the
source with ``ast``: a function's code starts at its first decorator, else at
its ``def``.  Every name a module imports must be read in it too
(``__init__.py`` imports to re-export).
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "lie_ncg"

# reached by the perfbench workloads, or wrapped by name by its tracer
PERFBENCH = {
    "graphs.hamiltonian_cycle": "a tracer target; no command asks for a cycle yet",
    "verifier.check_figures": "verify-pool checks the paper's figure data with it",
}
# reached only on input the matrix does not give
BAD_INPUT = {
    "errors.JacobiViolation.__init__": "raised only on a spec that breaks the Jacobi identity",
}
# not scanned: a repr runs only in a message; every other dunder, constructors
# included, is scanned like any function
EXEMPT = {"__repr__"}

TRACE = r"""
import contextlib, io, json, sys
from pathlib import Path

root, src = Path(sys.argv[1]), sys.argv[2]
reached = set()


def profile(frame, event, arg):
    code = frame.f_code
    if event == "call" and code.co_filename.startswith(src):
        reached.add((code.co_filename, code.co_firstlineno))


sys.setprofile(profile)
from lie_ncg.cli import main

specs = sorted(str(p) for p in (root / "specs").glob("*.json"))
verify = ["verify", "--format", "json"]
matrix = [verify, verify + ["--scope", "enumerate"], ["enumerate"]]
for spec in specs:
    matrix += [["validate", spec], ["analyze", spec]]
    matrix += [["export", spec, "--out", fmt] for fmt in ("dot", "graphml", "json")]
    matrix += [["compare", spec, other] for other in specs]
for argv in matrix:
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    assert code == 0, argv
sys.setprofile(None)
print(json.dumps(sorted(reached)))
"""


def source_functions():
    """Qualified name -> (file, first line) of every function in the package,
    nested ones included."""
    found = {}

    def visit(node, prefix, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if not isinstance(child, ast.ClassDef):
                    lines = [d.lineno for d in child.decorator_list] + [child.lineno]
                    found[name] = (path, min(lines))
                visit(child, name, path)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, str(path))
    return found


def traced_cli_matrix():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    env.pop("LIE_NCG_CAP", None)
    out = subprocess.run(
        [sys.executable, "-c", TRACE, str(ROOT), str(SRC)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    return {tuple(key) for key in json.loads(out)}


def test_every_function_runs_under_a_command_or_is_allowlisted():
    functions = source_functions()
    reached = traced_cli_matrix()
    never = set()
    for name, key in functions.items():
        if key not in reached and name.rsplit(".", 1)[1] not in EXEMPT:
            never.add(name)
    allowed = PERFBENCH.keys() | BAD_INPUT.keys()
    assert never - allowed == set(), "functions no command runs"
    assert allowed - never == set(), (
        "allowlisted functions that a command runs or are gone"
    )


def test_every_imported_name_is_read():
    unread = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.partition(".")[0]
                    if name not in read:
                        unread.append(f"{path.name}:{node.lineno} {name}")
    assert unread == [], "imported names never read"
