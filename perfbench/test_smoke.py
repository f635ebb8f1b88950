"""Smoke test of the benchmark's output checks.

    python3 -m pytest perfbench/test_smoke.py -q

Most tests corrupt one output of the program and require the pass to count
it as a failed op (and so in ok_ratio).  test_missing_sources_fail_without_result
requires run.py to fail without a result where the lie_ncg sources are
missing; test_scale_factor_follows_reference_times checks how speed.py
scales a time by the reference times around it.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import lie_ncg  # noqa: E402
import lie_ncg.cli  # noqa: E402,F401

import workloads  # noqa: E402

with open(HERE / "expected.json", encoding="utf-8") as fh:
    EXPECTED = json.load(fh)


def _run(p, check):
    check()
    return p.summary()


def test_unchanged_analyze_output_passes(tmp_path):
    specs = [s for s in workloads.write_specs(0, tmp_path) if s[0] == "aff2_q3"][:1]
    p = workloads.Pass()
    out = _run(p, workloads.analyze_large(lie_ncg, 0, p, EXPECTED, specs))
    assert out["ops"] == 5 and out["wrong"] == 0


def test_wrong_girth_fails_analyze(tmp_path, monkeypatch):
    specs = [s for s in workloads.write_specs(0, tmp_path) if s[0] == "aff2_q3"][:1]
    monkeypatch.setattr(lie_ncg.graphs, "girth", lambda g: 4)
    p = workloads.Pass()
    out = _run(p, workloads.analyze_large(lie_ncg, 0, p, EXPECTED, specs))
    assert out["wrong"] == 1 and "analyze" in out["wrong_detail"][0]


def test_dropped_export_edge_fails_export(tmp_path, monkeypatch):
    specs = [s for s in workloads.write_specs(0, tmp_path) if s[0] == "aff2_q3"][:1]
    real = lie_ncg.io.export_json

    def drop_edge(g):
        data = json.loads(real(g))
        data["edges"].pop()
        return json.dumps(data)

    monkeypatch.setattr(lie_ncg.io, "export_json", drop_edge)
    p = workloads.Pass()
    out = _run(p, workloads.analyze_large(lie_ncg, 0, p, EXPECTED, specs))
    assert out["wrong"] == 1 and "export json" in out["wrong_detail"][0]


def test_bad_witness_and_overruns_are_counted(monkeypatch):
    real = lie_ncg.iso.isomorphism

    def shifted(g1, g2):
        w = real(g1, g2)
        return None if w is None else {v: w[(v + 1) % g1.n] for v in w}

    monkeypatch.setattr(lie_ncg.iso, "isomorphism", shifted)
    p = workloads.Pass()
    out = _run(p, workloads.iso_relabel(lie_ncg, 0, p, EXPECTED, budget=0.05))
    assert out["overruns"] >= 22
    assert out["wrong"] > 0
    assert all("isomorphism" in line for line in out["wrong_detail"])


def test_missing_sources_fail_without_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "iso-relabel", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_wrong_girth_fails_verify(monkeypatch):
    monkeypatch.setattr(lie_ncg.graphs, "girth", lambda g: 4)
    p = workloads.Pass()
    out = _run(p, workloads.verify_pool(lie_ncg, 0, p, EXPECTED))
    assert out["wrong"] == EXPECTED["verify_pool"]["instances"]
    assert all("Prop2.5" in line for line in out["wrong_detail"])


def test_scale_factor_follows_reference_times():
    import speed

    pacer = speed.Pacer()
    for k in range(20):
        pacer.readings.extend((float(k), speed.NOMINAL_S * (1 if k < 10 else 2)))
    short_fast, short_slow, long_mixed = pacer.factors([(2.0, 0.5), (15.0, 0.1), (0.0, 19.0)])
    assert short_fast == 1.0 and short_slow == 0.5 and 0.5 < long_mixed < 1.0
