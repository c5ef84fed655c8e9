import math

import numpy as np
import pytest

from specgame.channel import ChannelParams, InterfererField, max_allowable_su_density, success_prob
from specgame.engine import (
    ConfigError,
    ScenarioConfig,
    SimulationError,
    metrics_columns,
    record_row,
    run,
    run_meanfield,
    run_montecarlo,
    sweep_region,
)

CAP = max_allowable_su_density(ChannelParams())


def mf_config(**kw):
    data = {"payoffs": {"delta": 10.0, "nu": 1.0, "kappa": 0.0}}
    data.update(kw)
    return ScenarioConfig.from_dict(data)


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict({"mode": "exact"})
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict({"steps": 0})
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict({"channel": {"alpha": 2.0}})
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict({"payoffs": {"kappa": -1.0}})
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict({"x0": [0.5, 0.6]})
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict({"unknown_field": 1})
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict({"channel": {"bogus": 1}})


def test_config_round_trip():
    cfg = mf_config(seed=9, mode="montecarlo", region_side=1200.0,
                    channel={"alpha": 4.5}, access_probs=[0.0, 0.3, 1.0], x0=[0.9, 0.05, 0.05])
    again = ScenarioConfig.from_dict(cfg.to_dict())
    assert again == cfg


def test_meanfield_no_attacker_flat_and_aborted():
    cfg = mf_config(lambda_mu=0.0, x0=[1.0, 0.0], payoffs={"kappa": 2.0}, steps=40)
    result = run_meanfield(cfg)
    assert all(rec.shares == (1.0, 0.0) for rec in result.records)
    assert result.records[-1].mu_phase == "aborted"
    assert [e.new_phase.value for e in result.events] == ["aborted"]


def test_meanfield_kappa0_population_collapse():
    result = run_meanfield(mf_config(steps=150))
    shares = [rec.shares[1] for rec in result.records]
    assert shares[-1] >= 0.99
    crossing = CAP / result.config.lambda_su
    assert any(s >= crossing for s in shares)
    assert result.records[-1].pr_success == 0.0
    # within-run sanity: success indicator flips exactly when the closed-form
    # constraint is violated
    for rec in result.records:
        expected = 1.0 if rec.pr_success_raw >= 0.95 else 0.0
        assert rec.pr_success == expected


def test_meanfield_kappa8_recovers():
    cfg = mf_config(payoffs={"delta": 10.0, "nu": 1.0, "kappa": 8.0}, launch_policy="always", steps=150)
    result = run_meanfield(cfg)
    shares = [rec.shares[1] for rec in result.records]
    peak = max(shares)
    assert peak > shares[0]
    assert shares[-1] < peak
    assert result.records[-1].pr_success == 1.0
    assert result.records[-1].pr_sinr_db_median >= 10 * math.log10(3.0)


def test_meanfield_wires_inducing_mu_density_exactly():
    # with all SUs silent the only interferers at an SU receiver are the MU
    # field (lambda_mu * mu_access_prob, exactly) and the primaries; the
    # recorded raw SU success must therefore equal this closed form bit-for-bit
    cfg = mf_config(
        lambda_mu=2e-4, mu_access_prob=0.5, launch_policy="always",
        x0=[1.0, 0.0], payoffs={"kappa": 5.0}, steps=1,
    )
    rec = run_meanfield(cfg).records[0]
    assert rec.mu_phase == "inducing"
    ch = cfg.channel
    expected = success_prob(
        ch.su_link_distance, ch.su_power, ch.su_sinr_threshold,
        [InterfererField(2e-4 * 0.5, ch.mu_power), InterfererField(cfg.lambda_pt, ch.pt_power)],
        ch,
    )
    assert rec.su_success_raw == expected


def test_meanfield_deterministic():
    a = run_meanfield(mf_config(steps=50))
    b = run_meanfield(mf_config(steps=50))
    assert [record_row(r) for r in a.records] == [record_row(r) for r in b.records]


def test_meanfield_emits_update_and_slot_axes():
    result = run_meanfield(mf_config(steps=5, window=20))
    assert [rec.t_update for rec in result.records] == list(range(5))
    assert [rec.t_slot for rec in result.records] == [0, 20, 40, 60, 80]


def test_montecarlo_degenerate_population():
    cfg = mf_config(mode="montecarlo", lambda_su=1e-9, region_side=300.0, steps=2, window=2, seed=1)
    with pytest.raises(SimulationError, match="degenerate"):
        run_montecarlo(cfg)


def test_montecarlo_all_silent_matches_channel_oracle():
    # nobody transmits: PR success rate equals the noise-only fading law
    cfg = mf_config(
        mode="montecarlo", region_side=1000.0, x0=[1.0, 0.0], lambda_mu=0.0,
        payoffs={"kappa": 5.0}, launch_policy="never", steps=10, window=20, seed=3,
    )
    result = run_montecarlo(cfg)
    raw = [rec.pr_success_raw for rec in result.records]
    expected = math.exp(-3.0 * 1e-9 * 15.0 ** 4 / 0.3)
    assert abs(np.mean(raw) - expected) <= 0.002
    assert all(rec.shares == (1.0, 0.0) for rec in result.records)


def test_montecarlo_meanfield_success_consistency():
    # frozen shares, fixed MU schedule: empirical per-slot success rates match
    # the closed-form probabilities across topologies
    shares = [0.95, 0.05]
    cfg = mf_config(
        mode="montecarlo", region_side=1000.0, x0=shares, launch_policy="never",
        freeze_shares=True, steps=5, window=10,
    )
    active = cfg.lambda_su * 0.05
    ch = cfg.channel
    closed_pr = success_prob(ch.pt_link_distance, ch.pt_power, ch.pr_sinr_threshold,
                             [InterfererField(active, ch.su_power)], ch)
    closed_su = success_prob(ch.su_link_distance, ch.su_power, ch.su_sinr_threshold,
                             [InterfererField(active, ch.su_power), InterfererField(cfg.lambda_pt, ch.pt_power)],
                             ch)
    pr_rates, su_rates = [], []
    for seed in range(40):  # 40 topologies x 5 windows x 10 slots
        result = run_montecarlo(ScenarioConfig.from_dict({**cfg.to_dict(), "seed": seed}))
        pr_rates.extend(rec.pr_success_raw for rec in result.records)
        su_rates.extend(rec.su_success_raw for rec in result.records)
    assert abs(np.nanmean(pr_rates) - closed_pr) <= 0.02
    assert abs(np.mean(su_rates) - closed_su) <= 0.02


def test_montecarlo_payoff_sample_conservation():
    cfg = mf_config(mode="montecarlo", region_side=800.0, steps=6, window=8, seed=11)
    result = run_montecarlo(cfg)
    n_su = sum(result.records[0].strategy_counts)
    assert n_su > 0
    for rec in result.records:
        assert sum(rec.strategy_counts) == n_su


def test_montecarlo_attack_log_respects_hysteresis():
    cfg = mf_config(mode="montecarlo", region_side=1000.0, steps=25, window=10, seed=5, hysteresis=3)
    result = run_montecarlo(cfg)
    withdrawals = [e for e in result.events if e.new_phase.value == "inactive"]
    if withdrawals:
        slot = withdrawals[0].slot
        densities = [rec.active_su_density for rec in result.records]
        # the H observations before the transition all exceeded the cap
        window = densities[slot - 3:slot]
        assert len(window) == 3
        assert all(d > CAP for d in window)


def test_montecarlo_deterministic_given_seed():
    cfg = mf_config(mode="montecarlo", region_side=800.0, steps=4, window=6, seed=21)
    a = run_montecarlo(cfg)
    b = run_montecarlo(cfg)
    assert [record_row(r) for r in a.records] == [record_row(r) for r in b.records]


def test_montecarlo_with_discrete_attackers():
    # a dense-enough MU field samples actual points, exercising the discrete
    # jamming/adjacency paths; Aloha draws keep the run deterministic
    cfg = mf_config(mode="montecarlo", region_side=800.0, lambda_mu=2e-5,
                    launch_policy="always", steps=4, window=6, seed=8)
    a = run_montecarlo(cfg)
    b = run_montecarlo(cfg)
    assert [record_row(r) for r in a.records] == [record_row(r) for r in b.records]
    assert a.records[0].mu_phase in ("initial", "inducing")


def test_montecarlo_resampled_topology_and_three_strategies():
    cfg = mf_config(
        mode="montecarlo", region_side=700.0, steps=3, window=5, seed=13,
        resample_topology=True, access_probs=[0.0, 0.5, 1.0], x0=[0.9, 0.05, 0.05],
    )
    result = run_montecarlo(cfg)
    assert len(result.records) == 3
    for rec in result.records:
        assert len(rec.shares) == 3 and len(rec.payoffs) == 3
        assert abs(sum(rec.shares) - 1.0) <= 1e-9


def test_run_dispatches_on_mode():
    mf = run(mf_config(steps=3))
    assert len(mf.records) == 3
    mc = run(mf_config(mode="montecarlo", region_side=600.0, steps=2, window=4, seed=2))
    assert len(mc.records) == 2


def test_metrics_columns_schema():
    cols = metrics_columns(2)
    assert cols == [
        "t_update", "t_slot", "share_s1", "share_s2", "active_su_density", "mu_phase",
        "pr_success", "su_success", "pr_sinr_db_mean", "pr_sinr_db_median",
        "su_sinr_db_mean", "su_sinr_db_median", "payoff_s1", "payoff_s2",
    ]
    rec = run_meanfield(mf_config(steps=1)).records[0]
    assert len(record_row(rec)) == len(cols)


def test_sweep_region_anchors_and_order_insensitivity():
    cfg = mf_config(launch_policy="always", steps=400)
    cells = sweep_region([10.0], [1.0], [0.0, 8.0], cfg)
    by_kappa = {c.kappa: c.classification for c in cells}
    assert by_kappa[0.0] == "fragile"
    assert by_kappa[8.0] == "robust"
    one_by_one = [sweep_region([10.0], [1.0], [kappa], cfg)[0] for kappa in (0.0, 8.0)]
    assert [(c.delta, c.nu, c.kappa, c.classification) for c in one_by_one] == [
        (c.delta, c.nu, c.kappa, c.classification) for c in cells
    ]


def test_sweep_region_failed_cell_leaves_the_others_unchanged():
    # delta = 1e308 drives the replicator step negative for every halving
    cfg = mf_config(launch_policy="always", steps=400)
    clean = sweep_region([2.0, 10.0], [1.0], [0.0, 8.0], cfg)
    mixed = sweep_region([2.0, 1e308, 10.0], [1.0], [0.0, 8.0], cfg)
    kept = mixed[:2] + mixed[4:]
    assert [(c.delta, c.kappa, c.classification, c.terminal_mutant_share, c.error) for c in kept] == [
        (c.delta, c.kappa, c.classification, c.terminal_mutant_share, c.error) for c in clean
    ]
    for c in mixed[2:4]:
        assert c.classification == "error" and math.isnan(c.terminal_mutant_share)
        assert c.error.startswith("replicator step could not keep shares nonnegative")


def test_sweep_region_rejects_invalid_grid_values():
    with pytest.raises(ConfigError, match="delta"):
        sweep_region([10.0, -1.0], [1.0], [0.0], mf_config())
    with pytest.raises(ConfigError, match="nu"):
        sweep_region([10.0], [math.nan], [0.0], mf_config())


def test_config_rejects_non_finite_and_non_integer_numbers():
    for bad in ({"lambda_su": math.nan}, {"region_side": math.inf}, {"steps": 2.5}, {"hysteresis": True},
                {"seed": -1}, {"seed": 1.0}, {"channel": {"alpha": math.nan}},
                {"payoffs": {"delta": math.inf}}, {"x0": [math.nan, 1.0]}, {"channel": {"noise": "loud"}}):
        with pytest.raises(ConfigError):
            ScenarioConfig.from_dict(bad)


def test_sweep_region_empty_grid_rejected():
    with pytest.raises(ConfigError):
        sweep_region([], [1.0], [0.0], mf_config())
