"""Smoke test of the end-to-end benchmark (not part of the tier-1 suite).

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_smoke.py

Runs ``run.py --smoke`` once (200 objects, 1 s phases) and checks the
shape of what it prints against ``BENCHMARK.json``: every name, once
per workload, finite; nothing reported that the tables do not name.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    SPEC = json.load(_f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(*argv, cwd=ROOT):
    return subprocess.run(
        [sys.executable, RUN, *argv], cwd=cwd, capture_output=True,
        text=True, timeout=300,
    )


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "smoke.json"
    proc = run("--smoke", "--out", str(out))
    assert proc.returncode == 0, proc.stderr[-2000:]
    with open(out, encoding="utf-8") as f:
        return str(out), json.load(f)


def test_every_workload_ran_clean(smoke):
    _path, doc = smoke
    assert list(doc["workloads"]) == WORKLOADS
    for name, runs in doc["workloads"].items():
        for mode in ("end_to_end", "per_layer"):
            got = runs[0][mode]
            assert got["correct"] and got["failed"] == 0, (name, got["errors"])
            assert got["attempted"] >= 1


@pytest.mark.parametrize("mode", ["end_to_end", "per_layer"])
def test_every_name_once_with_its_unit(smoke, mode):
    _path, doc = smoke
    want = {m["name"]: m["unit"] for m in SPEC[mode]}
    for name, runs in doc["workloads"].items():
        metrics = runs[0][mode]["metrics"]
        assert sorted(metrics) == sorted(want), name
        for metric, got in metrics.items():
            assert got["unit"] == want[metric]
            assert math.isfinite(got["value"]), (name, metric)


def test_end_to_end_metrics_are_never_zero(smoke):
    _path, doc = smoke
    for name, runs in doc["workloads"].items():
        for metric, got in runs[0]["end_to_end"]["metrics"].items():
            assert got["value"] > 0, (name, metric)


def test_layers_a_workload_bypasses_read_zero(smoke):
    """The contract has every run print every per-layer name; a workload
    reports a measurement only for the layers it enters, and 0 — calls
    made, time spent — for the rest.  Every name is measured somewhere."""
    _path, doc = smoke
    measured = set()
    for name, runs in doc["workloads"].items():
        exercised = set(runs[0]["exercised"])
        measured |= exercised
        for metric, got in runs[0]["per_layer"]["metrics"].items():
            if metric not in exercised:
                assert got["value"] == 0, (name, metric)
    assert measured == {m["name"] for m in SPEC["per_layer"]}


def test_a_slow_host_is_divided_out():
    """Half the reads taken while the calibration ran twice as slowly
    and took twice as long: the reported latency and rate are those of
    the usual stretch."""
    sys.path.insert(0, HERE)
    try:
        import lib
    finally:
        sys.path.remove(HERE)

    class Host(lib.HostSpeed):
        def samples(self):
            return ([(t + 0.5, lib.CAL_REF_MS) for t in range(10)]
                    + [(t + 0.5, 2 * lib.CAL_REF_MS) for t in range(10, 30)])

    usual = [(0.01 * (k + 1), 10.0) for k in range(1000)]        # 0-10 s
    slow = [(10.0 + 0.02 * (k + 1), 20.0) for k in range(1000)]  # 10-30 s
    got = lib.steady(0.0, usual + slow, Host())
    assert got["read_p50_ms"] == pytest.approx(10.0)
    assert got["read_p95_ms"] == pytest.approx(10.0)
    assert got["reads_per_s"] == pytest.approx(100.0)
    assert got["raw_read_p50_ms"] == pytest.approx(15.0)


def test_contract_line():
    proc = run("--workload", "api_scan_warm", "--seed", "7", "--seconds", "1",
               "--trace", "0", "--smoke")
    assert proc.returncode == 0, proc.stderr[-2000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(last) == ["attempted", "correct", "failed", "metrics"]
    assert sorted(last["metrics"]) == sorted(
        m["name"] for m in SPEC["end_to_end"]
    )


def test_compare_same_document_is_ok(smoke):
    path, _doc = smoke
    proc = run("--compare", path, path)
    assert proc.returncode == 0, proc.stdout
    assert "worse" not in proc.stdout and "unresolved" not in proc.stdout


def test_nothing_to_measure_exits_nonzero_without_a_result(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's
    own files there is no program: no result line, exit code not 0."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload",
         "wire_snapshot_full", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
