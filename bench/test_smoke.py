"""Smoke test of the benchmark itself: python3 -m pytest -q bench/test_smoke.py

Runs every workload at --tiny size, checks that two traced runs count the
same, that times are scaled by the reference timings around them, and that
a wrong oracle value or a wrong pinned digest fails a run.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_run_reports_every_end_to_end_metric(name):
    proc = _bench("--workload", name, "--seed", "3", "--seconds", "1", "--trace", "0", "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert result["correct"] is True
    assert result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_two_traced_runs_count_the_same():
    digests = []
    for _ in range(2):
        proc = _bench("--workload", "extension_deep", "--seed", "4", "--trace", "1", "--tiny")
        assert proc.returncode == 0, proc.stderr
        metrics = _last_json(proc.stdout)["metrics"]
        assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
        assert all(metrics[f"{layer}.calls"]["value"] > 0 for layer in run.spans.LAYERS)
        path = os.path.join(ROOT, ".bench_build", "results", "extension_deep-seed4-trace1-tiny.json")
        with open(path) as fh:
            digests.append(json.load(fh)["counts_digest"])
    assert digests[0] == digests[1]


def test_times_are_scaled_by_the_reference_timings_around_them(monkeypatch):
    ref = worker.REF_NS
    timings = iter([ref, ref, 3 * ref])
    monkeypatch.setattr(worker, "time_reference",
                        lambda ref_ns, count: ref_ns.extend(next(timings) for _ in range(count)))
    monkeypatch.setattr(worker, "REF_EVERY_NS", 0)     # a reference timing after every call
    log = []
    timer = worker.Pass(log)
    assert [timer.time(pow, 3, k) for k in (2, 3)] == [9, 27]
    scaled = timer.close()
    assert log == [ref, ref, 3 * ref]
    assert scaled == [timer.ns[0] * 1.0, timer.ns[1] * 0.5]

    plain = worker.Pass(None)
    plain.time(pow, 3, 2)
    assert plain.close() == [float(plain.ns[0])]


@pytest.mark.parametrize("name, target", [
    ("sweep_f1", "symbols"),          # crosscheck's own direct route
    ("extension_deep", "package"),    # the oracle of the rank-one symbols
])
def test_wrong_oracle_value_fails_the_run(monkeypatch, name, target):
    rf = worker.import_resforge(ROOT)
    right = rf.power_residue_symbol

    def wrong(lf, a, b, n):
        return rf.MuScalar(n, right(lf, a, b, n).exp + 1)

    monkeypatch.setattr(rf.symbols if target == "symbols" else rf, "power_residue_symbol", wrong)
    out = worker.run({"root": ROOT, "mode": "measure", "workload": name, "seed": 3,
                      "tiny": True, "budget_s": 0.1})
    assert out["correct"] is False
    assert out["errors"]


def test_wrong_pinned_digest_fails_the_run(monkeypatch, tmp_path):
    pinned = {name: {"0": "0" * 16, "3": "0" * 16} for name in workloads.WORKLOADS}
    path = tmp_path / "digests.json"
    path.write_text(json.dumps(pinned))
    monkeypatch.setattr(run, "DIGESTS", str(path))
    sample = {"digest": "1" * 16, "reference_digest": "1" * 16}
    assert len(run._check_digests("sweep_f1", 3, False, [sample])) == 2
    assert run._check_digests("sweep_f1", 0, False, [{"digest": "0" * 16}]) == []


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _bench("--workload", "sweep_f1", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
