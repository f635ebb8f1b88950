"""Default CLI output, byte for byte, against files recorded under golden/.

Covers ``analyze`` (JSON and text), ``compare <spec> <spec>`` and
``export --out dot|graphml|json`` for every spec, ``compare heisenberg_f2
l2_f2``, ``compare aff1_f3 heisenberg_f2`` (two non-isomorphic graphs),
``compare split_pairs_f2 split_pairs_f2_basis`` (a basis change, so the
second graph is labeled by the search and not read from the cache),
``verify --format json``,
``verify --scope enumerate --n 3 --q 2 --format json``,
``verify --scope enumerate --n 2 --q 2 --format json``,
``verify --scope enumerate --n 2 --q 3 --format json``,
``verify --scope enumerate --n 3 --q 3 --format json``,
``enumerate --n 3 --q 2`` and ``enumerate --n 3 --q 2 --q 3``.  The
enumeration outputs name instances by their enumeration index, so they also
pin the order in which the structure tensors are listed.  After a deliberate
output change, rewrite the files with
``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""

import os
import sys
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from lie_ncg.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
SPECS = sorted((ROOT / "specs").glob("*.json"))


def _cases():
    """(golden file name, argv) for every recorded output; paths are relative
    to the repository root."""
    cases = []
    for spec in SPECS:
        path = f"specs/{spec.name}"
        cases.append((f"analyze_{spec.stem}.json", ["analyze", path, "--format", "json"]))
        cases.append((f"analyze_{spec.stem}.txt", ["analyze", path]))
        cases.append((f"compare_{spec.stem}.json", ["compare", path, path]))
        for fmt in ("dot", "graphml", "json"):
            cases.append((f"export_{spec.stem}.{fmt}", ["export", path, "--out", fmt]))
    cases.append(
        ("compare_heisenberg_f2_l2_f2.json",
         ["compare", "specs/heisenberg_f2.json", "specs/l2_f2.json"])
    )
    cases.append(
        ("compare_aff1_f3_heisenberg_f2.json",
         ["compare", "specs/aff1_f3.json", "specs/heisenberg_f2.json"])
    )
    cases.append(
        ("compare_split_pairs_f2_split_pairs_f2_basis.json",
         ["compare", "specs/split_pairs_f2.json", "specs/split_pairs_f2_basis.json"])
    )
    cases.append(("verify.jsonl", ["verify", "--format", "json"]))
    for n, q in ((3, 2), (2, 2), (2, 3), (3, 3)):
        cases.append(
            (f"verify_enumerate_n{n}_q{q}.jsonl",
             ["verify", "--scope", "enumerate", "--n", str(n), "--q", str(q),
              "--format", "json"])
        )
    cases.append(("enumerate_n3_q2.json", ["enumerate", "--n", "3", "--q", "2"]))
    cases.append(
        ("enumerate_n3_q2_q3.json", ["enumerate", "--n", "3", "--q", "2", "--q", "3"])
    )
    return cases


CASES = _cases()


def _run(argv):
    """(exit code, stdout) of one command."""
    buf = StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


@pytest.mark.parametrize("name, argv", CASES, ids=[name for name, _ in CASES])
def test_default_output_is_unchanged(monkeypatch, name, argv):
    monkeypatch.chdir(ROOT)
    assert _run(argv) == (0, (GOLDEN / name).read_text(encoding="utf-8"))


if __name__ == "__main__":
    os.chdir(ROOT)
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES:
        code, out = _run(argv)
        if code != 0:
            sys.exit(f"{' '.join(argv)} exited {code}")
        (GOLDEN / name).write_text(out, encoding="utf-8")
    print(f"wrote {len(CASES)} files to {GOLDEN}")
