import itertools
import math
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from specgame.attack import PHASES, AttackPhase
from specgame.channel import ChannelParams, InterfererField, max_allowable_su_density, success_prob
from specgame.cli import PRESET_GRID, build_presets
from specgame.engine import (
    ConfigError,
    _median,
    _outage_met,
    _payoff_table,
    _slot_payoffs,
    ScenarioConfig,
    SimulationError,
    metrics_columns,
    run,
    run_meanfield,
    run_montecarlo,
    sweep_region,
)
from specgame.game import MuDrive, PayoffParams, payoff_vector, run_dynamics
from specgame.geometry import Region

from oracles import rest_point_fragile, toroidal_distance

CAP = max_allowable_su_density(ChannelParams())


def mf_config(**kw):
    data = {"payoffs": {"delta": 10.0, "nu": 1.0, "kappa": 0.0}}
    data.update(kw)
    return ScenarioConfig.from_dict(data)


def phases(result):
    return [PHASES[code].value for code in result.columns["mu_phase"].tolist()]


def same_columns(a, b):
    return a.columns.keys() == b.columns.keys() and all(a.columns[k].tobytes() == b.columns[k].tobytes()
                                                        for k in a.columns)


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
    assert result.columns["share_s1"].tolist() == [1.0] * 40 and result.columns["share_s2"].tolist() == [0.0] * 40
    assert phases(result)[-1] == "aborted"
    assert [e.new_phase.value for e in result.events] == ["aborted"]


def test_meanfield_kappa0_population_collapse():
    result = run_meanfield(mf_config(steps=150))
    shares = result.columns["share_s2"].tolist()
    assert shares[-1] >= 0.99
    crossing = CAP / result.config.lambda_su
    assert any(s >= crossing for s in shares)
    assert result.columns["pr_success"][-1] == 0.0
    # within-run sanity: success indicator flips exactly when the closed-form
    # constraint is violated
    for raw, success in zip(result.columns["pr_success_raw"].tolist(), result.columns["pr_success"].tolist()):
        expected = 1.0 if raw >= 0.95 else 0.0
        assert success == expected


def test_meanfield_kappa8_recovers():
    cfg = mf_config(payoffs={"delta": 10.0, "nu": 1.0, "kappa": 8.0}, launch_policy="always", steps=150)
    result = run_meanfield(cfg)
    shares = result.columns["share_s2"].tolist()
    peak = max(shares)
    assert peak > shares[0]
    assert shares[-1] < peak
    assert result.columns["pr_success"][-1] == 1.0
    assert result.columns["pr_sinr_db_median"][-1] >= 10 * math.log10(3.0)


def test_meanfield_wires_inducing_mu_density_exactly():
    # with all SUs silent the only interferers at an SU receiver are the MU
    # field (lambda_mu * mu_access_prob, exactly) and the primaries; the
    # recorded raw SU success must therefore equal this closed form bit-for-bit
    cfg = mf_config(
        lambda_mu=2e-4, mu_access_prob=0.5, launch_policy="always",
        x0=[1.0, 0.0], payoffs={"kappa": 5.0}, steps=1,
    )
    result = run_meanfield(cfg)
    assert phases(result) == ["inducing"]
    ch = cfg.channel
    expected = success_prob(
        ch.su_link_distance, ch.su_power, ch.su_sinr_threshold,
        [InterfererField(2e-4 * 0.5, ch.mu_power), InterfererField(cfg.lambda_pt, ch.pt_power)],
        ch,
    )
    assert result.columns["su_success_raw"][0] == expected


def test_meanfield_deterministic():
    a = run_meanfield(mf_config(steps=50))
    b = run_meanfield(mf_config(steps=50))
    assert same_columns(a, b)


def count_dynamics_passes(monkeypatch):
    """Wrap run_dynamics in every specgame module that imports it; the returned
    list grows by one per pass."""
    import specgame.game

    real, calls = specgame.game.run_dynamics, []

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("specgame") and getattr(module, "run_dynamics", None) is real:
            monkeypatch.setattr(module, "run_dynamics", counted)
    return calls


FIG3 = build_presets()["fig3-population"]
KAPPA8 = replace(FIG3, payoffs=PayoffParams(10.0, 1.0, 8.0))
FIG3_MC = replace(FIG3, mode="montecarlo", region_side=600.0, steps=5)


@pytest.mark.parametrize("config, passes", [
    (FIG3, 1),  # the forecast says launch, so the launched forecast is the run
    (build_presets()["fig4-sinr-kappa0"], 1),
    (KAPPA8, 2),  # a robust forecast, then the unlaunched run
    (replace(FIG3, inactive_mu_behavior="mimic-su"), 2),  # the run's controller is not the forecast's
    (replace(FIG3, freeze_shares=True), 2),  # nor are its dynamics
    (replace(FIG3, launch_policy="always"), 1),
    (replace(FIG3, launch_policy="never"), 1),
    (replace(FIG3, lambda_su=0.5 * CAP), 1),  # below the cap nothing is forecast
    (replace(FIG3_MC, launch_policy="always"), 0),  # a Monte Carlo run steps its own windows
    (FIG3_MC, 1),  # above the cap: only its launch forecast
])
def test_meanfield_dynamics_passes(monkeypatch, config, passes):
    calls = count_dynamics_passes(monkeypatch)
    run(config)
    assert len(calls) == passes


def test_failed_montecarlo_draws_no_window_after_the_failing_one(monkeypatch):
    from specgame.engine import _Topology

    real, windows = _Topology.sinr, []

    def counted(self, *args):
        windows.append(1)
        return real(self, *args)

    monkeypatch.setattr(_Topology, "sinr", counted)
    # the first inducing window, window 1, pays 1e300 and fails the step
    with pytest.raises(ValueError, match=r"nonnegative \(step 1\)$"):
        run(replace(FIG3_MC, payoffs=PayoffParams(1e300, 1.0, 8.0), launch_policy="always"))
    assert len(windows) == 2


@pytest.mark.parametrize("config, fixed", [
    (FIG3, "always"),  # the launched forecast, kept
    (KAPPA8, "never"),  # a robust forecast, then the unlaunched run
    (replace(FIG3, inactive_mu_behavior="mimic-su"), "always"),  # forecast apart from the run
    (replace(FIG3, freeze_shares=True), "always"),
    (replace(FIG3, lambda_su=1e-5), "never"),  # below the cap nothing is forecast
    (replace(KAPPA8, inactive_mu_behavior="mimic-su"), "never"),
])
def test_meanfield_forecast_run_equals_its_fixed_launch(config, fixed):
    forecast, pinned = run_meanfield(config), run_meanfield(replace(config, launch_policy=fixed))
    assert same_columns(forecast, pinned)
    assert forecast.events == pinned.events


def test_meanfield_emits_update_and_slot_axes():
    result = run_meanfield(mf_config(steps=5, window=20))
    assert result.columns["t_update"].tolist() == list(range(5))
    assert result.columns["t_slot"].tolist() == [0, 20, 40, 60, 80]


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
    raw = result.columns["pr_success_raw"]
    expected = math.exp(-3.0 * 1e-9 * 15.0 ** 4 / 0.3)
    assert abs(np.mean(raw) - expected) <= 0.002
    assert result.columns["share_s1"].tolist() == [1.0] * 10 and result.columns["share_s2"].tolist() == [0.0] * 10


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
        pr_rates.extend(result.columns["pr_success_raw"].tolist())
        su_rates.extend(result.columns["su_success_raw"].tolist())
    assert abs(np.nanmean(pr_rates) - closed_pr) <= 0.02
    assert abs(np.mean(su_rates) - closed_su) <= 0.02


@pytest.mark.parametrize("share, sd", [(0.01, 0.047), (0.03, 0.088)])
def test_montecarlo_payoffs_under_attack_match_meanfield(share, sd):
    # fig5 (kappa = 8) at frozen shares, launched at once: from window 1 on the
    # attackers induce at every window, and the transmitters' mean payoff over
    # windows 1-39 and 5 topologies lies within 3 standard errors of the
    # closed-form payoff under the inducing drive; `sd` is that mean's spread
    # over the 5 seeds, measured. At 1500 m, not 800 m, where the near field
    # is one exact block and the means read about 1.2 standard errors low.
    fig5 = build_presets()["fig5-sinr-kappa8"]
    cfg = replace(fig5, mode="montecarlo", region_side=1500.0, launch_policy="always", freeze_shares=True, steps=40,
                  x0=(1.0 - share, share))
    means = []
    for seed in range(1, 6):
        result = run_montecarlo(replace(cfg, seed=seed))
        assert phases(result)[1:] == ["inducing"] * 39
        assert result.columns["payoff_s1"][1:].tolist() == [cfg.payoffs.kappa] * 39
        means.append(result.columns["payoff_s2"][1:].mean())
    drive = MuDrive(cfg.lambda_mu * cfg.mu_access_prob, cfg.inducing_perception)
    meanfield = payoff_vector(list(cfg.x0), cfg.env, drive)[0]
    assert meanfield[0] == cfg.payoffs.kappa
    assert abs(np.mean(means) - meanfield[1]) <= 3 * sd / math.sqrt(5)


def test_montecarlo_payoff_sample_conservation():
    cfg = mf_config(mode="montecarlo", region_side=800.0, steps=6, window=8, seed=11)
    result = run_montecarlo(cfg)
    totals = result.columns["strategy_counts"].sum(axis=1).tolist()
    assert len(totals) == 6 and totals[0] > 0
    assert totals == [totals[0]] * 6


def test_montecarlo_attack_log_respects_hysteresis():
    cfg = mf_config(mode="montecarlo", region_side=1000.0, steps=25, window=10, seed=5, hysteresis=3)
    result = run_montecarlo(cfg)
    withdrawals = [e for e in result.events if e.new_phase.value == "inactive"]
    if withdrawals:
        slot = withdrawals[0].slot
        densities = result.columns["active_su_density"].tolist()
        # the H observations before the transition all exceeded the cap
        window = densities[slot - 3:slot]
        assert len(window) == 3
        assert all(d > CAP for d in window)


def test_montecarlo_deterministic_given_seed():
    cfg = mf_config(mode="montecarlo", region_side=800.0, steps=4, window=6, seed=21)
    a = run_montecarlo(cfg)
    b = run_montecarlo(cfg)
    assert same_columns(a, b)


def test_montecarlo_with_discrete_attackers():
    # a dense-enough MU field samples actual points, exercising the discrete
    # jamming/adjacency paths; Aloha draws keep the run deterministic
    cfg = mf_config(mode="montecarlo", region_side=800.0, lambda_mu=2e-5,
                    launch_policy="always", steps=4, window=6, seed=8)
    a = run_montecarlo(cfg)
    b = run_montecarlo(cfg)
    assert same_columns(a, b)
    assert phases(a)[0] in ("initial", "inducing")


def test_ephemeral_attackers_are_perceived_within_the_sensing_radius(monkeypatch):
    # no MU is sampled at this density, so each slot may draw a fresh attacker
    # field; below a saturating inducement, every SU within the sensing radius
    # of a drawn attacker must perceive an accomplice in that slot
    import specgame.engine as engine

    cfg = mf_config(mode="montecarlo", region_side=600.0, lambda_mu=3e-6, inducing_perception=0.5,
                    launch_policy="always", steps=12, seed=7)
    calls, windows = [], []  # the distance calls of the window under way; per window (field, attackers, perceived)
    real_pairwise, real_sinr, real_payoffs = engine.pairwise_toroidal, engine._Topology.sinr, engine._slot_payoffs

    def pairwise(a, b, region):
        calls.append((a, b))
        return real_pairwise(a, b, region)

    def sinr(self, load, signals, noise, thresholds, extra=None):
        # the attackers' distances to the SUs, not to the receivers or those the topology builds
        windows.append([extra, [(b, a) for a, b in calls if b is self.world.sus]])
        calls.clear()
        return real_sinr(self, load, signals, noise, thresholds, extra)

    def slot_payoffs(table, access, perceived, su_ok):
        windows[-1].append(perceived.copy())
        return real_payoffs(table, access, perceived, su_ok)

    monkeypatch.setattr(engine, "pairwise_toroidal", pairwise)
    monkeypatch.setattr(engine._Topology, "sinr", sinr)
    monkeypatch.setattr(engine, "_slot_payoffs", slot_payoffs)
    result = run_montecarlo(cfg)
    assert result.topology["n_mu"] == 0 and len(windows) == cfg.steps

    region = Region(cfg.region_side)
    field_slots = within = 0
    for field, window_calls, perceived in windows:
        slots = np.flatnonzero(field.any(axis=0)).tolist() if field is not None else []
        assert len(slots) == len(window_calls)
        field_slots += len(slots)
        for s, (sus, attackers) in zip(slots, window_calls):
            for i, su in enumerate(sus):
                if any(toroidal_distance(su, pos, region) <= cfg.sensing_radius for pos in attackers):
                    within += 1
                    assert perceived[i, s], (i, s)
    assert field_slots == 90 and within > 0


def test_montecarlo_resampled_topology_and_three_strategies():
    cfg = mf_config(
        mode="montecarlo", region_side=700.0, steps=3, window=5, seed=13,
        resample_topology=True, access_probs=[0.0, 0.5, 1.0], x0=[0.9, 0.05, 0.05],
    )
    result = run_montecarlo(cfg)
    shares = np.stack([result.columns[f"share_s{i}"] for i in (1, 2, 3)], axis=1)
    assert shares.shape == (3, 3) and "payoff_s3" in result.columns and "share_s4" not in result.columns
    assert np.all(np.abs(shares.sum(axis=1) - 1.0) <= 1e-9)


def test_run_dispatches_on_mode():
    mf = run(mf_config(steps=3))
    assert len(mf.columns["t_update"]) == 3 and "strategy_counts" not in mf.columns
    mc = run(mf_config(mode="montecarlo", region_side=600.0, steps=2, window=4, seed=2))
    assert len(mc.columns["t_update"]) == 2 and mc.columns["strategy_counts"].shape == (2, 2)
    # each path refuses the other mode's config, a small one, so that a path that ran it anyway ends fast
    with pytest.raises(ConfigError, match="run_meanfield requires mode='meanfield'"):
        run_meanfield(mc.config)
    with pytest.raises(ConfigError, match="run_montecarlo requires mode='montecarlo'"):
        run_montecarlo(replace(mc.config, mode="meanfield"))


def test_metrics_columns_schema():
    cols = metrics_columns(2)
    assert cols == [
        "t_update", "t_slot", "share_s1", "share_s2", "active_su_density", "mu_phase",
        "pr_success", "su_success", "pr_sinr_db_mean", "pr_sinr_db_median",
        "su_sinr_db_mean", "su_sinr_db_median", "payoff_s1", "payoff_s2",
    ]
    for result in (run_meanfield(mf_config(steps=1)), run(FIG3_MC)):
        assert set(cols) <= set(result.columns)
        assert all(len(result.columns[c]) == result.config.steps for c in cols)


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


def test_sweep_region_memory_does_not_grow_with_steps():
    # a sweep reads only the end of each cell's run, so it keeps no step history
    config = build_presets()["fig6-region"]

    def peak(steps):
        tracemalloc.start()
        try:
            sweep_region(PRESET_GRID["deltas"], PRESET_GRID["nus"], PRESET_GRID["kappas"], replace(config, steps=steps))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(50)  # first calls allocate numpy's own caches
    assert peak(1600) <= 2 * peak(50)


def test_the_fragile_region_converges_with_the_dwell_held_in_replicator_time():
    # hysteresis counts steps, so the attacker's dwell above the cap is
    # hysteresis * step_size in replicator time: held at 0.5 over 40 time
    # units, the labels agree as the step shrinks
    fig6 = build_presets()["fig6-region"]

    def labels(step_size, hysteresis, steps):
        config = replace(fig6, step_size=step_size, hysteresis=hysteresis, steps=steps)
        return {(c.delta, c.nu, c.kappa): c.classification for c in sweep_region(*PRESET_GRID.values(), config)}

    limit = labels(0.05, 10, 800)
    assert labels(0.025, 20, 1600) == limit == labels(0.0125, 40, 3200)
    assert sum(label == "fragile" for label in limit.values()) == 38
    # the default step (0.1, 5, 400) sits just off that limit, where the
    # withdrawal share lies near the unstable rest point
    default = labels(fig6.step_size, fig6.hysteresis, fig6.steps)
    assert [cell for cell in limit if limit[cell] != default[cell]] == [(10.0, 0.5, 6.0), (10.0, 1.0, 6.0)]


@pytest.mark.parametrize("grid, agree", [
    (PRESET_GRID.values(), 72),
    ((range(1, 26), [1.0], [k / 2 for k in range(25)]), 621),  # delta 1-25, kappa 0-12
])
def test_the_fragile_region_agrees_with_the_rest_point_rule(grid, agree):
    # the m = 2 rest-point rule of the game the attackers leave behind,
    # started at each cell's share at its first INACTIVE step, labels every
    # cell but those whose attackers never withdraw, which it calls robust
    # and the terminal drift rule may call fragile
    fig6 = build_presets()["fig6-region"]
    cells = sweep_region(*grid, fig6)
    incentives = [(c.delta, c.nu, c.kappa) for c in cells]
    env = replace(fig6.env, payoffs=PayoffParams(*(np.array(column) for column in zip(*incentives))))
    controller = fig6.controller(launch=True)  # the sweep's, run with its history
    traj = run_dynamics(np.asarray(fig6.x0), env, controller, fig6.steps, fig6.step_size)
    withdrawn = {}
    for ev in controller.events:
        if ev.new_phase is AttackPhase.INACTIVE:
            withdrawn.setdefault(ev.cell, float(traj.shares[ev.slot, ev.cell, 1]))
    fragile = [c.classification == "fragile" for c in cells]
    oracle = [rest_point_fragile(fig6, PayoffParams(*cell), withdrawn.get(i)) for i, cell in enumerate(incentives)]
    assert {cells[i].classification for i in withdrawn} == {"robust", "fragile"}
    misses = [i for i in range(len(cells)) if oracle[i] != fragile[i]]
    assert misses == [i for i in range(len(cells)) if i not in withdrawn and fragile[i]]
    assert len(cells) - len(misses) == agree


def test_sweep_region_rejects_invalid_grid_values():
    with pytest.raises(ConfigError, match="delta"):
        sweep_region([10.0, -1.0], [1.0], [0.0], mf_config())
    with pytest.raises(ConfigError, match="nu"):
        sweep_region([10.0], [math.nan], [0.0], mf_config())


def test_config_rejects_non_finite_and_non_integer_numbers():
    for bad in ({"lambda_su": math.nan}, {"region_side": math.inf}, {"steps": 2.5}, {"hysteresis": True},
                {"seed": -1}, {"seed": 1.0}, {"channel": {"alpha": math.nan}},
                {"payoffs": {"delta": math.inf}}, {"x0": [math.nan, 1.0]}, {"channel": {"noise": "loud"}},
                # booleans and numbers do not stand in for each other
                {"freeze_shares": "no"}, {"include_pt_interference_at_su": 2}, {"region_side": True},
                {"lambda_su": True}, {"payoffs": {"delta": True}}, {"channel": {"noise": True}},
                {"x0": [True, False]},
                # null and non-iterable parts
                {"channel": None}, {"payoffs": None}, {"access_probs": 5}, {"x0": 5}, {"access_probs": None}):
        with pytest.raises(ConfigError):
            ScenarioConfig.from_dict(bad)


def test_sweep_region_empty_grid_rejected():
    with pytest.raises(ConfigError):
        sweep_region([], [1.0], [0.0], mf_config())


# values with ties, both zeros, both infinities and a sum that overflows
MEDIAN_PALETTE = np.array([-np.inf, -1e308, -2.5, -0.0, 0.0, 1.0, 3.0, 1e308, np.inf])


@settings(max_examples=200, deadline=None)
@given(rows=st.integers(1, 70), cols=st.integers(1, 72), values=st.sampled_from(["palette", "continuous", "mixed"]),
       nans=st.integers(0, 2), seed=st.integers(0, 2 ** 32 - 1))
@example(rows=1, cols=1, values="continuous", nans=0, seed=0)
@example(rows=1, cols=2, values="continuous", nans=0, seed=0)
@example(rows=1, cols=2, values="palette", nans=0, seed=1)
@example(rows=1, cols=1, values="palette", nans=1, seed=0)
def test_median_helper_equals_numpy_median(rows, cols, values, nans, seed):
    # sizes up to 5,040, odd and even, as a window's (links, slots) SINRs or flattened
    rng = np.random.default_rng(seed)
    x = rng.lognormal(0.0, 3.0, size=rows * cols)
    if values != "continuous":
        ties = rng.choice(MEDIAN_PALETTE, size=x.size)
        x = ties if values == "palette" else np.where(rng.random(x.size) < 0.5, ties, x)
    x[rng.integers(0, x.size, size=nans)] = np.nan
    for shaped in (x, x.reshape(rows, cols)):
        with np.errstate(invalid="ignore", over="ignore"):  # inf - inf and 1e308 + 1e308, in both
            got, want = _median(shaped), float(np.median(shaped))
        assert type(got) is float
        assert got == want or math.isnan(got) and math.isnan(want), (got, want)


@pytest.mark.parametrize("n_su, n_pt, slots", [(7, 3, 20), (5, 0, 20), (1, 1, 1), (40, 2, 70)])
def test_one_fading_fill_continues_the_four_draw_stream(n_su, n_pt, slots):
    # a window draws its four fading arrays as one standard_exponential fill;
    # four exponential(1.0) draws in this order give the same values and
    # leave the generator in the same state
    four, one = np.random.default_rng(5), np.random.default_rng(5)
    draws = [four.exponential(1.0, size=(n, slots)) for n in (n_su, n_pt, n_pt, n_su)]
    fill = np.split(one.standard_exponential((2 * (n_su + n_pt), slots)), np.cumsum([n_su, n_pt, n_pt]))
    for got, want in zip(fill, draws):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert one.random() == four.random()


@pytest.mark.parametrize("delta, nu, kappa", [(10.0, 1.0, 0.0), (10.0, 0.0, 8.0), (2.5, 0.5, 0.3)])
def test_payoff_table_lookup_equals_the_nested_where(delta, nu, kappa):
    # every (access, perceived, su_ok) combination, down to the sign of zero at nu = 0
    access, perceived, su_ok = (np.array(flags).reshape(2, 4)
                                for flags in zip(*itertools.product([False, True], repeat=3)))
    got = _slot_payoffs(_payoff_table(PayoffParams(delta, nu, kappa)), access, perceived, su_ok)
    want = np.where(access, np.where(perceived, delta * su_ok - nu * (~su_ok), 0.0), kappa)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@settings(max_examples=60, deadline=None)
@given(links=st.integers(1, 700), slots=st.integers(1, 80), rate=st.floats(0.0, 1.0),
       constraint=st.sampled_from([0.0, 0.05, 0.1, 0.5, 1.0]), seed=st.integers(0, 2 ** 32 - 1))
def test_outage_share_equals_the_mean_of_means(links, slots, rate, constraint, seed):
    ok = np.random.default_rng(seed).random((links, slots)) < rate
    assert _outage_met(ok, constraint) == float((ok.mean(axis=1) >= 1.0 - constraint).mean())
