"""Acceptance suite: one test per release criterion, and criteria 3 and 5 again on
a Monte Carlo seed ensemble, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. Statistical checks use fixed
seeds so the suite is deterministic.
"""
import csv
import math
import time
from collections import defaultdict
from dataclasses import replace

import numpy as np
import pytest

from oracles import empirical_success_prob
from specgame.attack import AttackPhase
from specgame.channel import ChannelParams, InterfererField, max_allowable_su_density, success_prob
from specgame.cli import build_presets, main, run_preset
from specgame.engine import ScenarioConfig, run, run_meanfield, sweep_region
from specgame.game import replicator_step
from specgame.geometry import Region, attach_receivers, sample_ppp

PARAMS = ChannelParams()
CAP = max_allowable_su_density(PARAMS)
THRESHOLD_DB = 10.0 * math.log10(3.0)


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"\n[{criterion}] {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"{criterion}: {detail}"


def _read_metrics(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def test_criterion_1_closed_form_vs_monte_carlo_outage():
    start = time.time()
    rng = np.random.default_rng(1001)
    worst = 0.0
    for frac in (0.25, 0.5, 1.0, 2.0):
        for eta in (1.0, 3.0, 10.0):
            fields = [InterfererField(frac * CAP, PARAMS.su_power)]
            closed = success_prob(PARAMS.pt_link_distance, PARAMS.pt_power, eta, fields, PARAMS)
            emp = empirical_success_prob(
                PARAMS.pt_link_distance, PARAMS.pt_power, eta, fields, PARAMS,
                region_side=1000.0, n_topologies=10_000, n_fading=100, rng=rng,
            )
            worst = max(worst, abs(closed - emp))
    elapsed = time.time() - start
    _report(
        "criterion 1", worst <= 0.01 and elapsed <= 300.0,
        f"max |closed-form - empirical| = {worst:.4f} over 12-point grid (tol 0.01), {elapsed:.0f}s",
    )


def test_criterion_2_density_cap_self_consistency():
    start = time.time()
    round_trip = abs(
        success_prob(PARAMS.pt_link_distance, PARAMS.pt_power, PARAMS.pr_sinr_threshold,
                     [InterfererField(CAP, PARAMS.su_power)], PARAMS)
        - (1.0 - PARAMS.pr_outage_constraint)
    )
    near_expected = abs(CAP - 4.57e-5) / 4.57e-5 < 0.01

    # independent recovery: bisection on the empirical outage
    rng = np.random.default_rng(2002)
    target = 1.0 - PARAMS.pr_outage_constraint

    def emp(density: float) -> float:
        return empirical_success_prob(
            PARAMS.pt_link_distance, PARAMS.pt_power, PARAMS.pr_sinr_threshold,
            [InterfererField(density, PARAMS.su_power)], PARAMS,
            region_side=1000.0, n_topologies=20_000, n_fading=25, rng=rng,
        )

    lo, hi = CAP / 3.0, CAP * 3.0
    for _ in range(12):
        mid = 0.5 * (lo + hi)
        if emp(mid) > target:
            lo = mid
        else:
            hi = mid
    recovered = 0.5 * (lo + hi)
    rel_err = abs(recovered - CAP) / CAP
    elapsed = time.time() - start
    _report(
        "criterion 2",
        round_trip <= 1e-12 and near_expected and rel_err <= 0.10 and elapsed <= 300.0,
        f"round-trip {round_trip:.2e} (tol 1e-12), cap {CAP:.4e}, "
        f"Monte Carlo bisection off by {rel_err * 100:.1f}% (tol 10%), {elapsed:.0f}s",
    )


@pytest.fixture(scope="module")
def kappa0_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("fig3")
    start = time.time()
    run_preset("fig3-population", [], str(out))
    elapsed = time.time() - start
    rows = _read_metrics(out / "metrics.csv")
    with open(out / "phase_events.csv") as fh:
        events = list(csv.DictReader(fh))
    return rows, events, elapsed


def test_criterion_3_population_takeover(kappa0_run):
    rows, events, elapsed = kappa0_run
    shares = [float(r["share_s2"]) for r in rows]
    launch = [int(e["slot"]) for e in events if e["new_phase"] == "inducing"]
    monotone = bool(launch) and all(
        b >= a - 1e-12 for a, b in zip(shares[launch[0]:], shares[launch[0] + 1:])
    )
    cap_share = CAP / 1e-3
    crossing = next((i for i, s in enumerate(shares) if s >= cap_share), None)
    withdrawals = [int(e["slot"]) for e in events if e["new_phase"] == "inactive"]
    hysteresis = 5
    transition_near_crossing = (
        crossing is not None and len(withdrawals) == 1 and abs(withdrawals[0] - crossing) <= hysteresis
    )
    terminal = shares[-1]
    ok = monotone and transition_near_crossing and terminal >= 0.99 and elapsed <= 10.0
    _report(
        "criterion 3", ok,
        f"monotone={monotone}, crossing at record {crossing}, withdrawal at slot "
        f"{withdrawals[0] if withdrawals else None} (|gap| <= H={hysteresis}), "
        f"terminal share {terminal:.4f} (>= 0.99), {elapsed:.1f}s",
    )


def test_criterion_4_primary_sinr_collapse(kappa0_run):
    rows, events, _ = kappa0_run
    withdrawal = [int(e["slot"]) for e in events if e["new_phase"] == "inactive"][0]
    after = [r for r in rows if int(r["t_update"]) > withdrawal]
    sinr_ok = all(float(r["pr_sinr_db_mean"]) < THRESHOLD_DB for r in after)
    worst = max(float(r["pr_sinr_db_mean"]) for r in after)
    terminal_success = float(rows[-1]["pr_success"])
    ok = bool(after) and sinr_ok and terminal_success <= 0.05
    _report(
        "criterion 4", ok,
        f"max mean PR SINR after withdrawal {worst:.2f} dB (< {THRESHOLD_DB:.2f} dB), "
        f"terminal PR success {terminal_success} (<= 0.05)",
    )


def test_criterion_5_reward_restores_compliance(tmp_path):
    start = time.time()
    run_preset("fig5-sinr-kappa8", [], str(tmp_path))
    elapsed = time.time() - start
    rows = _read_metrics(tmp_path / "metrics.csv")
    shares = [float(r["share_s2"]) for r in rows]
    peak = max(shares)
    rises = peak > shares[0]
    declines = shares[-1] < peak
    terminal_success = float(rows[-1]["pr_success"])
    terminal_median_db = float(rows[-1]["pr_sinr_db_median"])
    ok = (rises and declines and terminal_success >= 0.95
          and terminal_median_db >= THRESHOLD_DB and elapsed <= 10.0)
    _report(
        "criterion 5", ok,
        f"peak {peak:.4f} (> x0 {shares[0]}), terminal {shares[-1]:.2e} (< peak), "
        f"terminal PR success {terminal_success} (>= 0.95), terminal median PR SINR "
        f"{terminal_median_db:.1f} dB (>= {THRESHOLD_DB:.2f}), {elapsed:.1f}s",
    )


def _montecarlo_ensemble(preset):
    """The preset's 800 m Monte Carlo run on each of seeds 1-10."""
    config = build_presets()[preset]
    return [run(replace(config, mode="montecarlo", region_side=800.0, seed=seed)) for seed in range(1, 11)]


# Criteria 3 and 5 on Monte Carlo seed ensembles, each run read at its end:
# the launch lags mean field's by a window (window 0 is played unlaunched),
# which moves the crossing and the withdrawal but not where the shares end.
# Criterion 4 is not held here: read on the median column, seed 3's PR SINR
# peaks at 4.78 dB after the withdrawal, and seed 8 ends at PR success 0.125.
def test_criterion_3_terminal_takeover_on_a_montecarlo_seed_ensemble():
    readings = [(sum(e.new_phase is AttackPhase.INACTIVE for e in result.events),
                 float(result.columns["share_s2"][-1])) for result in _montecarlo_ensemble("fig3-population")]
    ok = all(withdrawals == 1 and share >= 0.99 for withdrawals, share in readings)
    _report(
        "criterion 3, Monte Carlo seeds 1-10", ok,
        "(withdrawals, terminal share) " + ", ".join(f"({n}, {share:.4f})" for n, share in readings)
        + " (exactly 1, >= 0.99)",
    )


def test_criterion_5_recovery_on_a_montecarlo_seed_ensemble():
    readings = []
    for result in _montecarlo_ensemble("fig5-sinr-kappa8"):
        shares = result.columns["share_s2"]
        readings.append((float(shares.max()), float(shares[0]), float(shares[-1]),
                         float(result.columns["pr_success"][-1]), float(result.columns["pr_sinr_db_median"][-1])))
    ok = all(peak > x0 and terminal < peak and success >= 0.95 and median_db >= THRESHOLD_DB
             for peak, x0, terminal, success, median_db in readings)
    _report(
        "criterion 5, Monte Carlo seeds 1-10", ok,
        "(peak, terminal share, terminal PR success, terminal median PR SINR) "
        + ", ".join(f"({peak:.4f}, {terminal:.2e}, {success}, {median_db:.1f} dB)"
                    for peak, _, terminal, success, median_db in readings)
        + f" (peak > x0, terminal < peak, >= 0.95, >= {THRESHOLD_DB:.2f} dB)",
    )


def test_criterion_6_robust_fragile_region():
    start = time.time()
    config = ScenarioConfig.from_dict({"launch_policy": "always", "steps": 400})
    cells = sweep_region([2.0, 5.0, 10.0, 20.0], [0.5, 1.0, 2.0],
                         [0.0, 2.0, 4.0, 6.0, 8.0, 10.0], config)
    elapsed = time.time() - start
    table = {(c.delta, c.nu, c.kappa): c.classification for c in cells}
    anchors = table[(10.0, 1.0, 0.0)] == "fragile" and table[(10.0, 1.0, 8.0)] == "robust"
    columns = defaultdict(list)
    for c in cells:
        columns[(c.delta, c.nu)].append((c.kappa, c.classification))
    monotone = True
    for vals in columns.values():
        seen_robust = False
        for _, label in sorted(vals):
            if label == "robust":
                seen_robust = True
            elif seen_robust:
                monotone = False
    no_errors = all(c.classification in ("robust", "fragile") for c in cells)
    ok = anchors and monotone and no_errors and elapsed <= 120.0
    _report(
        "criterion 6", ok,
        f"(10,1,0)={table[(10.0, 1.0, 0.0)]}, (10,1,8)={table[(10.0, 1.0, 8.0)]}, "
        f"kappa-monotone frontier in all {len(columns)} columns: {monotone}, {elapsed:.0f}s",
    )


def test_criterion_7_replicator_property_suite():
    start = time.time()
    rng = np.random.default_rng(7007)

    worst_drift = 0.0
    nonneg = True
    for _ in range(100_000):
        m = int(rng.integers(2, 5))
        x = rng.dirichlet(np.ones(m))
        pi = rng.normal(0.0, 5.0, size=m)
        x = replicator_step(x, pi, 0.1)
        worst_drift = max(worst_drift, abs(float(x.sum()) - 1.0))
        if np.any(x < 0.0):
            nonneg = False
    simplex_ok = nonneg and worst_drift <= 1e-9

    shift_ok = True
    for _ in range(500):
        m = int(rng.integers(2, 5))
        x = rng.dirichlet(np.ones(m))
        pi = rng.integers(-64, 64, size=m).astype(float) / 16.0
        c = float(rng.integers(-8, 8))
        if replicator_step(x, pi, 0.1).tobytes() != replicator_step(x, pi + c, 0.1).tobytes():
            shift_ok = False

    extinction_ok = True
    x = np.array([0.7, 0.0, 0.3])
    for _ in range(2000):
        x = replicator_step(x, rng.normal(0.0, 3.0, size=3), 0.1)
        if x[1] != 0.0:
            extinction_ok = False

    fixation_ok = True
    for start_share in (0.01, 0.25, 0.5):
        x = np.array([1.0 - start_share, start_share])
        steps_needed = None
        for n in range(1000):
            x = replicator_step(x, np.array([0.0, 0.1]), 0.1)
            if x[1] >= 0.99:
                steps_needed = n + 1
                break
        if steps_needed is None:
            fixation_ok = False

    elapsed = time.time() - start
    ok = simplex_ok and shift_ok and extinction_ok and fixation_ok and elapsed <= 60.0
    _report(
        "criterion 7", ok,
        f"simplex drift {worst_drift:.2e} over 1e5 steps (tol 1e-9), shift-invariance "
        f"bit-exact={shift_ok}, extinction absorbing={extinction_ok}, dominance fixation "
        f"within 1e3 steps={fixation_ok}, {elapsed:.0f}s",
    )


def test_criterion_8_geometry_statistics():
    scipy_stats = pytest.importorskip("scipy.stats")
    start = time.time()
    region = Region(1000.0)
    rng = np.random.default_rng(5)
    lam = 1e-3 * region.area
    counts = np.array([len(sample_ppp(1e-3, region, rng)) for _ in range(10_000)])
    lo, hi = int(lam - 5 * math.sqrt(lam)), int(lam + 5 * math.sqrt(lam))
    edges = np.arange(lo, hi + 2)
    observed, _ = np.histogram(counts, bins=edges)
    probs = scipy_stats.poisson.pmf(edges[:-1], lam)
    probs[0] = scipy_stats.poisson.cdf(lo, lam)
    probs[-1] = scipy_stats.poisson.sf(hi - 1, lam)
    observed[0] += np.sum(counts < lo)
    observed[-1] += np.sum(counts > hi)
    expected = probs * counts.size
    keep = expected >= 5
    obs = np.append(observed[keep], observed[~keep].sum())
    exp = np.append(expected[keep], expected[~keep].sum())
    _, p_poisson = scipy_stats.chisquare(obs, exp * obs.sum() / exp.sum())

    pos = rng.uniform(300.0, 700.0, size=(10_000, 2))
    rx = attach_receivers(pos, 15.0, region, rng)
    delta = rx - pos
    bearings = np.mod(np.arctan2(delta[:, 1], delta[:, 0]), 2 * np.pi)
    hist, _ = np.histogram(bearings, bins=36, range=(0.0, 2 * np.pi))
    _, p_bearing = scipy_stats.chisquare(hist)

    elapsed = time.time() - start
    ok = p_poisson > 0.01 and p_bearing > 0.01 and elapsed <= 60.0
    _report(
        "criterion 8", ok,
        f"Poisson GOF p = {p_poisson:.3f}, bearing uniformity p = {p_bearing:.3f} "
        f"(both > 0.01, 1e4 samples), {elapsed:.0f}s",
    )


def test_criterion_9_determinism(tmp_path):
    start = time.time()
    mf_args = ["run", "fig3-population", "--set", "steps=40"]
    assert main(mf_args + ["--out", str(tmp_path / "mf1")]) == 0
    assert main(mf_args + ["--out", str(tmp_path / "mf2")]) == 0
    mf_ok = (tmp_path / "mf1" / "metrics.csv").read_bytes() == (tmp_path / "mf2" / "metrics.csv").read_bytes()

    mc_args = ["run", "fig3-population", "--mode", "montecarlo", "--seed", "7",
               "--set", "region_side=700", "--set", "steps=4", "--set", "window=5"]
    assert main(mc_args + ["--out", str(tmp_path / "mc1")]) == 0
    assert main(mc_args + ["--out", str(tmp_path / "mc2")]) == 0
    mc_ok = (tmp_path / "mc1" / "metrics.csv").read_bytes() == (tmp_path / "mc2" / "metrics.csv").read_bytes()

    sweep_args = ["run", "fig6-region"]
    assert main(sweep_args + ["--out", str(tmp_path / "s1")]) == 0
    assert main(sweep_args + ["--out", str(tmp_path / "s2")]) == 0
    sweep_ok = (tmp_path / "s1" / "region.csv").read_bytes() == (tmp_path / "s2" / "region.csv").read_bytes()

    elapsed = time.time() - start
    ok = mf_ok and mc_ok and sweep_ok and elapsed <= 60.0
    _report(
        "criterion 9", ok,
        f"mean-field byte-identical={mf_ok}, Monte Carlo byte-identical={mc_ok}, "
        f"sweep rerun byte-identical={sweep_ok}, {elapsed:.0f}s",
    )
