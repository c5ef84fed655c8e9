"""Presets and Monte Carlo runs against pinned reference outputs.

benchmarks/reference/ pins the fig3, fig5 and fig6 outputs; the tolerances
are those benchmarks/README.md states for the benchmark's output checks, so
mean-field drift fails here as well as there. fig4 runs fig3's configuration
and is checked against fig3's files.

tests/reference/ pins six seeded Monte Carlo runs; the 1500 m one is a grid
of blocks with an interference cutoff and a mean tail, the 70-slot window
packs its perception into two 64-bit words, the last one partly padding, and
the ephemeral one samples no MU, so its attackers are drawn per slot and
half-perceived. It also pins fig5 and a 600 m Monte Carlo run played on
three strategies, checked the same way. Their phase events, shares,
payoffs, densities and success columns must match to the written digit.
Only the SINR dB columns may differ, by the presets' SINR_DB: the
near-field interference is a float32 product, summed in the order the BLAS
kernel chooses, and the pinned files were written by the float64 product
(the largest shift seen is ~2e-6 dB). Every success test near its threshold
is decided on exact sums, so no kernel moves the other columns.

tests/reference/ also pins every `plotdata` series of fig3 and of fig5,
byte for byte.
"""
import csv
import math
from pathlib import Path

import pytest

from specgame.cli import main

REFERENCE = Path(__file__).resolve().parents[1] / "benchmarks" / "reference"
MC_REFERENCE = Path(__file__).resolve().parent / "reference"
EXACT = ("t_update", "t_slot", "mu_phase")
SINR = ("pr_sinr_db_mean", "pr_sinr_db_median", "su_sinr_db_mean", "su_sinr_db_median")
SINR_DB = 1e-5  # absolute, dB
REL, ABS = 1e-9, 1e-12  # every other column, and phase-event triggers


def _rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _close(got, ref, rel, abs_tol):
    a, b = float(got), float(ref)
    return math.isnan(a) and math.isnan(b) or math.isclose(a, b, rel_tol=rel, abs_tol=abs_tol)


def _check_bundle(out, reference):
    assert _rows(out / "phase_events.csv") == _rows(reference / "phase_events.csv")
    got, ref = _rows(out / "metrics.csv"), _rows(reference / "metrics.csv")
    assert len(got) == len(ref)
    for i, (row, expected) in enumerate(zip(got, ref)):
        assert list(row) == list(expected)
        for col, want in expected.items():
            ok = _close(row[col], want, 0.0, SINR_DB) if col in SINR else row[col] == want
            assert ok, f"row {i} {col}: {row[col]} != reference {want}"


@pytest.mark.parametrize("preset, reference", [
    ("fig3-population", "fig3-population"),
    ("fig4-sinr-kappa0", "fig3-population"),
    ("fig5-sinr-kappa8", "fig5-sinr-kappa8"),
])
def test_run_preset_matches_reference(tmp_path, preset, reference):
    assert main(["run", preset, "--out", str(tmp_path)]) == 0
    got, ref = _rows(tmp_path / "metrics.csv"), _rows(REFERENCE / reference / "metrics.csv")
    assert len(got) == len(ref)
    for i, (row, expected) in enumerate(zip(got, ref)):
        for col, want in expected.items():
            if col in EXACT:
                ok = row[col] == want
            elif col in SINR:
                ok = _close(row[col], want, 0.0, SINR_DB)
            else:
                ok = _close(row[col], want, REL, ABS)
            assert ok, f"row {i} {col}: {row[col]} != reference {want}"
    events, ref_events = _rows(tmp_path / "phase_events.csv"), _rows(REFERENCE / reference / "phase_events.csv")
    key = ("slot", "old_phase", "new_phase")
    assert [[e[k] for k in key] for e in events] == [[e[k] for k in key] for e in ref_events]
    for e, want in zip(events, ref_events):
        assert _close(e["trigger"], want["trigger"], REL, ABS)


def test_region_sweep_matches_reference(tmp_path):
    assert main(["run", "fig6-region", "--out", str(tmp_path)]) == 0
    rows, ref_rows = _rows(tmp_path / "region.csv"), _rows(REFERENCE / "fig6-region" / "region.csv")
    key = ("delta", "nu", "kappa", "classification")
    got = [[r[k] for k in key] for r in rows]
    ref = [[r[k] for k in key] for r in ref_rows]
    assert got == ref
    assert len(got) == 72 and sum(r[3] == "fragile" for r in got) == 36
    for i, (row, expected) in enumerate(zip(rows, ref_rows)):
        got_share, want = row["terminal_mutant_share"], expected["terminal_mutant_share"]
        assert _close(got_share, want, REL, ABS), f"row {i} terminal_mutant_share: {got_share} != reference {want}"


MC = ["fig3-population", "--mode", "montecarlo"]


@pytest.mark.parametrize("reference, extra", [
    ("mc-600m", ["--set", "region_side=600", "--set", "steps=20", "--seed", "3"]),
    ("mc-800m-mimic-resample", ["--set", "region_side=800", "--set", "steps=20", "--set",
                                "inactive_mu_behavior=mimic-su", "--set", "resample_topology=true",
                                "--set", "lambda_mu=1e-5", "--seed", "7"]),
    ("mc-800m-always-freeze", ["--set", "region_side=800", "--set", "steps=20", "--set",
                               "launch_policy=always", "--set", "freeze_shares=true", "--seed", "4"]),
    ("mc-1500m", ["--set", "region_side=1500", "--set", "steps=20", "--seed", "4"]),
    ("mc-800m-window70", ["--set", "region_side=800", "--set", "window=70", "--set", "steps=20", "--seed", "9"]),
    ("mc-600m-ephemeral", ["--set", "region_side=600", "--set", "lambda_mu=3e-6", "--set", "inducing_perception=0.5",
                           "--set", "launch_policy=always", "--set", "steps=30", "--seed", "7"]),
])
def test_montecarlo_run_matches_reference(tmp_path, reference, extra):
    assert main(["run", *MC, *extra, "--out", str(tmp_path)]) == 0
    _check_bundle(tmp_path, MC_REFERENCE / reference)


THREE = ["--set", "access_probs=[0.0,0.5,1.0]", "--set", "x0=[0.98,0.01,0.01]"]


@pytest.mark.parametrize("reference, argv", [
    ("fig5-kappa8-3strategies", ["fig5-sinr-kappa8", *THREE]),
    ("mc-600m-3strategies", [*MC, "--set", "region_side=600", "--set", "steps=20", *THREE, "--seed", "3"]),
])
def test_three_strategy_run_matches_reference(tmp_path, reference, argv):
    # a third strategy steps its replicator rows through the array kernel
    assert main(["run", *argv, "--out", str(tmp_path)]) == 0
    _check_bundle(tmp_path, MC_REFERENCE / reference)



@pytest.mark.parametrize("preset, reference", [("fig3-population", "plotdata-fig3"),
                                               ("fig5-sinr-kappa8", "plotdata-fig5")])
def test_plotdata_series_match_reference(tmp_path, preset, reference):
    # mean field, whose SINR digits no BLAS kernel moves, on two strategies,
    # so that each share series is one column, with no sum to round
    assert main(["run", preset, "--out", str(tmp_path / "run")]) == 0
    assert main(["plotdata", str(tmp_path / "run" / "metrics.csv"), "--out", str(tmp_path / "plot")]) == 0
    written = {path.name: path.read_bytes() for path in (tmp_path / "plot").iterdir()}
    assert len(written) == 9
    assert written == {path.name: path.read_bytes() for path in (MC_REFERENCE / reference).iterdir()}
