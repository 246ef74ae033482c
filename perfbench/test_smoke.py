"""Smoke test of the benchmark itself, at tiny sizes (n <= 200).

    python3 -m pytest perfbench/test_smoke.py

Every workload must pass its reference checks and emit exactly the metrics
that BENCHMARK.json names, with their units, in both modes; and the
benchmark must refuse to run where the package is missing.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=180,
    )


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_every_metric(workload, trace, kind):
    proc = _run(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1",
                "--trace", str(trace), "--scale", "smoke")
    assert proc.returncode == 0, proc.stderr
    report, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, report["mismatches"]
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    if kind == "end_to_end":
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert report["error_ratio"] == 0


def test_same_seed_same_inputs():
    sys.path.insert(0, HERE)
    from worker import import_finitekey

    import_finitekey(ROOT)
    import random
    import workloads

    for cls in workloads.WORKLOADS.values():
        wl = cls("smoke", HERE)
        assert wl.passes(random.Random(5)) == wl.passes(random.Random(5))


def _workload(name):
    sys.path.insert(0, HERE)
    from worker import REFS, import_finitekey

    import_finitekey(ROOT)
    import workloads

    with open(REFS, encoding="utf-8") as fh:
        refs = json.load(fh)["smoke"][name]
    return workloads.WORKLOADS[name]("smoke", HERE), refs


def test_mismatch_counts_as_failure():
    from worker import check

    refs = {"a": {"x": "1", "y": "2"}, "b": {"x": "3"}, "d": {"x": "6"}}
    got = {"a": {"x": "1", "y": "2"}, "b": {"x": "4"}, "c": {"x": "5"}}
    assert check(got, refs, ["a", "b", "d"], True) == (4, 3, ["b", "c", "d"])
    # an untraced pass need not carry the traced-only fields, and no others
    refs = {"a": {"x": "1", "path": "p"}}
    assert check({"a": {"x": "1"}}, refs, ["a"], False) == (1, 0, [])
    assert check({"a": {"x": "1"}}, refs, ["a"], True) == (1, 1, ["a"])


def test_dropped_sweep_row_counts_as_failure():
    from worker import check

    wl, refs = _workload("sweep")
    n = wl.base
    got = {k: v for k, v in refs.items() if k.split("/")[0] == str(n)}
    assert check(got, refs, wl.expected(n, refs), False) == (len(got), 0, [])
    del got[f"{n}/5"]
    assert check(got, refs, wl.expected(n, refs), False) == (len(got) + 1, 1, [f"{n}/5"])


def test_eps_scan_scans_fresh_spectra_every_pass():
    wl, refs = _workload("eps-scan")
    item = wl.reference_passes()[0]
    wl.prepare(item)
    first = wl.spectra
    wl.run(item, None, 1)
    wl.prepare(item)
    assert all(new[kind] is not old[kind]
               for new, old in zip(wl.spectra, first) for kind in new)


def test_refuses_without_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run(str(tmp_path), "--workload", "ladder", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
