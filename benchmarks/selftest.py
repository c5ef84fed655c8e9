"""The benchmark's own tests. They are not part of the repository's test suite
(timing must not fail it); run them explicitly:

    python3 -m pytest -q benchmarks/selftest.py

Each workload runs for one second, traced and untraced, in a fresh process.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import checks
import run
import spans

SECONDS = "1"
COUNT_UNITS = {"count", "bytes", "calls/median"}


def _spec():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


def _bench(workload: str, trace: int, seed: int = 3) -> dict:
    """The JSON result of one run, with its "# size" comment line (traced
    runs) added under the key "size" and every comment line under "comments"."""
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", SECONDS, "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    sizes = [line.split()[2:] for line in lines if line.startswith("# size ")]
    return {"size": dict(zip(sizes[0][::2], sizes[0][1::2])) if sizes else None, "result": result,
            "comments": [line for line in lines if line.startswith("# ")]}


@pytest.fixture(scope="module")
def smoke():
    return {(w, t): _bench(w, t) for w in run.WORKLOADS for t in (0, 1)}


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_present_with_its_unit(smoke, workload, trace, section):
    result = smoke[(workload, trace)]["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in _spec()[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        if section == "end_to_end":
            assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_time_metrics_are_the_raw_figures_over_the_slowdown(smoke, workload):
    comments = smoke[(workload, 0)]["comments"]
    slowdown = float(next(c for c in comments if c.startswith("# host slowdown ")).split()[3])
    raw_wall = float(next(c for c in comments if c.startswith("# raw wall_s ")).split()[3])
    raw_rate = float(next(c for c in comments if c.startswith("# raw updates_per_s ")).split()[3])
    metrics = smoke[(workload, 0)]["result"]["metrics"]
    assert slowdown > 0
    assert metrics["wall_s"]["value"] == pytest.approx(raw_wall / slowdown, rel=1e-4)
    assert metrics["updates_per_s"]["value"] == pytest.approx(raw_rate * slowdown, rel=1e-4)


def test_workloads_match_the_spec():
    assert [w["name"] for w in _spec()["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", ["mf-presets", "mc-windows"])
def test_traced_counts_repeat(smoke, workload):
    again = _bench(workload, 1)
    first = smoke[(workload, 1)]
    counts = {k: v["value"] for k, v in first["result"]["metrics"].items() if v["unit"] in COUNT_UNITS}
    assert counts and counts == {k: again["result"]["metrics"][k]["value"] for k in counts}
    assert set(first["size"]) == set(spans.SIZE_COUNTS) and first["size"] == again["size"]


def _set_cell(path: str, row: int, column: str, value: str) -> None:
    header, rows = checks.read_csv(path)
    rows[row][column] = value
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for r in rows:
            fh.write(",".join(r[c] for c in header) + "\n")


def _nudge_sinr(out):
    path = os.path.join(out, "fig5-sinr-kappa8", "metrics.csv")
    _, rows = checks.read_csv(path)
    _set_cell(path, 7, "su_sinr_db_mean", repr(float(rows[7]["su_sinr_db_mean"]) + 1e-3))


def _flip_cell(out):
    path = os.path.join(out, "fig6-region", "region.csv")
    _, rows = checks.read_csv(path)
    label = "robust" if rows[0]["classification"] == "fragile" else "fragile"
    _set_cell(path, 0, "classification", label)


def _leave_simplex(out):
    _set_cell(os.path.join(out, "mc", "metrics.csv"), 3, "share_s1", "0.5")


def _drop_event(out):
    path = os.path.join(out, "mc", "phase_events.csv")
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines[:1] + lines[2:])


@pytest.mark.parametrize("workload,corrupt", [
    ("mf-presets", _nudge_sinr),
    ("mf-sweep", _flip_cell),
    ("mc-windows", _leave_simplex),
    ("mc-windows", _drop_event),
])
def test_corrupted_output_raises_fail_ratio(workload, corrupt):
    sg = run.load_specgame()
    res = run.measure(sg, workload, seed=0, seconds=0.1, trace=False, corrupt=corrupt)
    assert res["attempted"] >= 1
    assert res["failed"] == res["attempted"], res["failures"]


def test_su_success_bias_fails_the_run():
    calibration = checks.load_tolerance("mc-windows")
    unbiased = calibration["deviations"][:60]
    assert checks.check_su_success_mean(unbiased, calibration) == []
    # a shift of 0.02 passes every per-iteration check (tolerance 0.071)
    biased = [d + 0.02 for d in unbiased]
    assert all(abs(d) <= calibration["tolerance"] for d in biased)
    assert checks.check_su_success_mean(biased, calibration)
