"""Rewrite expected.json, the recorded outputs the benchmark checks against.

    python3 perfbench/record_expected.py

Records, from the lie_ncg sources beside this directory:
- verify-pool: the sha256 of each statement's ``verify --format json`` line
  over the criterion-1 pool, of the figures report, and of all lines joined;
- analyze-large: the ``analyze --format json`` output of each family in its
  original basis (every field is invariant under a change of basis);
- iso-relabel: the number of GL-orbits of each enumerated shape.
Run it only when a change to the program is meant to change these outputs.
"""

import contextlib
import io
import json
import sys
from hashlib import sha256
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import lie_ncg  # noqa: E402
from lie_ncg import cli, verifier  # noqa: E402

import workloads  # noqa: E402


def main():
    pool = verifier.catalog_instances()
    for shape in workloads.SHAPES:
        pool += verifier.enumeration_instances(*shape)
    reports = verifier.check_all_statements(pool) + [verifier.check_figures()]
    lines = [workloads.report_line(r) for r in reports]
    expected = {
        "verify_pool": {
            "instances": len(pool),
            "digest": sha256("\n".join(lines).encode()).hexdigest(),
            "lines": {r.statement_id: sha256(line.encode()).hexdigest()
                      for r, line in zip(reports, lines)},
        },
        "analyze": {},
        "iso_relabel": {"orbits": {
            f"{n},{q}": len(lie_ncg.enumeration.orbit_partition(n, lie_ncg.field_new(q)))
            for n, q in workloads.SHAPES}},
    }
    tmp = HERE.parent / ".perfbench"
    tmp.mkdir(exist_ok=True)
    for fam, *_ in workloads.FAMILIES:
        path = tmp / f"{fam}.json"
        path.write_text(json.dumps(workloads.family_spec(fam)), encoding="utf-8")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli.main(["analyze", str(path), "--format", "json"])
        path.unlink()
        expected["analyze"][fam] = json.loads(out.getvalue())
    with open(HERE / "expected.json", "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
