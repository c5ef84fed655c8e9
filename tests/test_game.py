import math
from dataclasses import replace

import numpy as np
import pytest

from specgame.attack import InducingTemplate, make_template_schedule
from specgame.channel import ChannelParams, max_allowable_su_density
from specgame.game import (
    DynamicsParams,
    GameEnv,
    MuDrive,
    PayoffParams,
    StrategySet,
    access_payoff,
    active_su_density,
    classify_operating_point,
    find_rest_points,
    perception_prob,
    payoff_vector,
    replicator_step,
    run_dynamics,
    transmitting_share,
)

CH = ChannelParams()
CAP = max_allowable_su_density(CH)


def env_with(kappa=0.0, delta=10.0, nu=1.0, mu=MuDrive(0.0, 0.0), **kw):
    return GameEnv(channel=CH, payoffs=PayoffParams(delta=delta, nu=nu, kappa=kappa), mu=mu, **kw)


def idle_schedule(t, density):
    return MuDrive(0.0, 0.0)


def test_strategy_set_invariants():
    assert len(StrategySet()) == 2
    StrategySet((0.0, 0.4, 1.0))
    with pytest.raises(ValueError):
        StrategySet((0.5,))
    with pytest.raises(ValueError):
        StrategySet((0.5, 0.5))
    with pytest.raises(ValueError):
        StrategySet((0.2, 1.2))


def test_payoff_params_invariants():
    with pytest.raises(ValueError):
        PayoffParams(delta=0.0)
    with pytest.raises(ValueError):
        PayoffParams(nu=-0.1)
    with pytest.raises(ValueError):
        PayoffParams(kappa=-1.0)


def test_perception_prob_basics():
    assert perception_prob(0.0, 50.0) == 0.0
    assert perception_prob(1e3, 50.0) == pytest.approx(1.0, abs=1e-12)
    expected = 1.0 - math.exp(-1e-3 * math.pi * 2500.0)
    assert perception_prob(1e-3, 50.0) == pytest.approx(expected, rel=1e-12)
    with pytest.raises(ValueError):
        perception_prob(-1e-6, 50.0)


def test_perception_prob_against_sampled_disks():
    # empirical fraction of PPP realizations with a point inside the sensing disk
    rng = np.random.default_rng(23)
    density, radius, side = 1e-3, 50.0, 400.0
    hits = 0
    n = 10_000
    for _ in range(n):
        k = rng.poisson(density * side * side)
        if k == 0:
            continue
        pts = rng.uniform(-side / 2, side / 2, size=(k, 2))
        if np.any(np.hypot(pts[:, 0], pts[:, 1]) <= radius):
            hits += 1
    assert abs(hits / n - perception_prob(density, radius)) <= 0.005


def test_silent_strategy_earns_compliance_reward():
    env = env_with(kappa=3.5)
    assert payoff_vector(np.array([0.9, 0.1]), env)[0][0] == pytest.approx(3.5, abs=1e-15)


def test_transmit_alone_earns_nothing():
    # nothing active anywhere, no inducement: perception gate closed
    env = env_with(kappa=0.0)
    assert payoff_vector(np.array([1.0, 0.0]), env)[0][1] == 0.0


def test_forced_failure_costs_nu():
    pay = PayoffParams(delta=10.0, nu=1.7, kappa=0.0)
    assert access_payoff(1.0, 1.0, 0.0, pay) == pytest.approx(-1.7, rel=1e-15)


def test_payoff_interpolates_in_access_probability():
    env = replace(env_with(kappa=2.0, mu=MuDrive(1e-5, 0.5)), strategies=StrategySet((0.0, 0.5, 1.0)))
    x = np.array([0.5, 0.2, 0.3])
    pi, q, s_su, _ = payoff_vector(x, env)
    assert pi[1] == pytest.approx(0.5 * pi[0] + 0.5 * pi[2], rel=1e-12)
    assert 0.0 < q < 1.0 and 0.0 < s_su < 1.0


def test_replicator_hand_step():
    x = replicator_step(np.array([0.5, 0.5]), np.array([1.0, 0.0]), 0.1)
    assert x == pytest.approx([0.525, 0.475], abs=1e-12)


def test_replicator_equal_payoffs_fixed_point():
    x0 = np.array([0.3, 0.45, 0.25])
    x = replicator_step(x0, np.array([2.0, 2.0, 2.0]), 0.1)
    assert x == pytest.approx(x0, abs=1e-15)


def test_replicator_monomorphic_absorbing():
    x = replicator_step(np.array([1.0, 0.0]), np.array([-5.0, 100.0]), 0.1)
    assert x[0] == 1.0 and x[1] == 0.0


def test_replicator_simplex_preservation():
    rng = np.random.default_rng(31)
    for _ in range(1000):
        m = rng.integers(2, 5)
        x = rng.dirichlet(np.ones(m))
        pi = rng.normal(0.0, 5.0, size=m)
        x = replicator_step(x, pi, 0.1)
        assert np.all(x >= 0.0)
        assert abs(x.sum() - 1.0) <= 1e-9


def test_replicator_step_halving_keeps_simplex():
    # payoff gap large enough that a full step would overshoot below zero
    x = replicator_step(np.array([0.5, 0.5]), np.array([0.0, -1e6]), 0.1)
    assert np.all(x >= 0.0)
    assert abs(x.sum() - 1.0) <= 1e-9
    with pytest.raises(ValueError):
        replicator_step(np.array([0.5, 0.5]), np.array([0.0, -math.inf]), 0.1)


def test_replicator_shift_invariance_bit_exact():
    # dyadic payoffs and shifts are exact in binary floating point, so the
    # anchored update must produce bit-identical trajectories
    rng = np.random.default_rng(13)
    for _ in range(200):
        m = int(rng.integers(2, 5))
        x = rng.dirichlet(np.ones(m))
        pi = rng.integers(-64, 64, size=m).astype(float) / 16.0
        c = float(rng.integers(-8, 8))
        a = replicator_step(x, pi, 0.1)
        b = replicator_step(x, pi + c, 0.1)
        assert a.tobytes() == b.tobytes()


def test_replicator_extinction_absorbing_along_trajectory():
    rng = np.random.default_rng(41)
    x = np.array([0.6, 0.0, 0.4])
    for _ in range(500):
        x = replicator_step(x, rng.normal(0.0, 3.0, size=3), 0.1)
        assert x[1] == 0.0


def test_dominance_fixation_within_budget():
    # constant margin 0.1: interior starts must fixate within 1e3 steps
    for start in (0.01, 0.5):
        x = np.array([1.0 - start, start])
        pi = np.array([0.0, 0.1])
        for _ in range(1000):
            x = replicator_step(x, pi, 0.1)
        assert x[1] >= 0.99


def test_run_dynamics_silent_rest_point():
    env = env_with(kappa=2.0)
    traj = run_dynamics(np.array([1.0, 0.0]), env, idle_schedule, steps=50, h=0.1)
    assert np.all(traj.shares[:, 0] == 1.0) and np.all(traj.shares[:, 1] == 0.0)
    assert traj.final_shares[0] == 1.0


def test_run_dynamics_kappa0_fixation_with_template():
    env = env_with(kappa=0.0)
    factory = make_template_schedule(1e-7, InducingTemplate(), CAP, lambda_su=env.lambda_su)
    traj = run_dynamics(np.array([0.99, 0.01]), env, factory(), steps=120, h=0.1, compute_sinr=False)
    shares = traj.shares[:, 1].tolist()
    assert all(b >= a - 1e-15 for a, b in zip(shares, shares[1:]))  # monotone rise
    assert max(shares) > CAP / env.lambda_su  # crosses the admissible share
    assert traj.final_shares[1] >= 0.99


def test_run_dynamics_kappa8_rise_then_decline():
    env = env_with(kappa=8.0)
    factory = make_template_schedule(1e-7, InducingTemplate(), CAP, lambda_su=env.lambda_su)
    traj = run_dynamics(np.array([0.99, 0.01]), env, factory(), steps=120, h=0.1, compute_sinr=False)
    shares = traj.shares[:, 1].tolist() + [traj.final_shares[1]]
    peak = max(shares)
    assert peak > shares[0]
    assert shares[-1] < peak
    assert shares[-1] < 1e-3


def test_run_dynamics_records_sinr_metrics():
    env = env_with(kappa=0.0)
    traj = run_dynamics(np.array([0.99, 0.01]), env, idle_schedule, steps=3, h=0.1)
    assert np.all(np.isfinite(traj.pr_median_sinr)) and traj.pr_median_sinr.shape == (3,)
    assert np.all(np.isfinite(traj.su_median_sinr)) and traj.su_median_sinr.shape == (3,)


def test_find_rest_points_kappa0_origin_neutral():
    env = env_with(kappa=0.0)
    points = find_rest_points(env)
    origin = [tag for x, tag in points if x == 0.0][0]
    assert origin == "neutral"  # perception gate closed, payoff tie at zero


def test_find_rest_points_kappa_positive_origin_stable():
    env = env_with(kappa=2.0)
    points = find_rest_points(env)
    origin = [tag for x, tag in points if x == 0.0][0]
    assert origin == "stable"


def test_find_rest_points_interior_root_and_scan_oracle():
    env = env_with(kappa=4.0)
    points = find_rest_points(env)
    interior = [(x, tag) for x, tag in points if 0.0 < x < 1.0]
    assert len(interior) == 2  # unstable entry gate, stable congestion point

    def gap(x):
        pi, _, _, _ = payoff_vector(np.array([1.0 - x, x]), env)
        return pi[1] - pi[0]

    # residual at reported roots
    for x, _ in interior:
        assert abs(gap(x)) <= 1e-8
    # dense sign-scan oracle agrees on the count and on the stability pattern
    xs = np.linspace(0.0, 1.0, 10_001)
    gs = np.array([gap(x) for x in xs])
    flips = np.nonzero(np.sign(gs[:-1]) * np.sign(gs[1:]) < 0)[0]
    assert len(flips) == 2
    tags = [tag for _, tag in interior]
    assert tags == ["unstable", "stable"]


def test_find_rest_points_kappa8_silence_dominates_everywhere():
    # with the production sensing radius the transmit payoff never reaches 8,
    # so no interior rest point exists: exactly why the reward restores order
    env = env_with(kappa=8.0)
    points = find_rest_points(env)
    assert [(x, tag) for x, tag in points if 0.0 < x < 1.0] == []
    origin = [tag for x, tag in points if x == 0.0][0]
    assert origin == "stable"


def test_find_rest_points_multistart_for_three_strategies():
    env = replace(env_with(kappa=8.0), strategies=StrategySet((0.0, 0.5, 1.0)))
    points = find_rest_points(env)
    assert points  # silence dominates: every start collapses to the silent corner
    assert all(tag == "stable" for _, tag in points)
    assert min(x for x, _ in points) <= 1e-3


def test_classify_baseline_anchors():
    dynamics = DynamicsParams(steps=400)
    for kappa, label in ((0.0, "fragile"), (8.0, "robust")):
        env = env_with(kappa=kappa)
        factory = make_template_schedule(1e-7, InducingTemplate(), CAP, lambda_su=env.lambda_su)
        cls = classify_operating_point(env, factory, dynamics, density_cap=CAP)
        assert cls.label == label, (kappa, cls)


def test_classify_kappa8_forecast_shows_initial_rise():
    env = env_with(kappa=8.0)
    factory = make_template_schedule(1e-7, InducingTemplate(), CAP, lambda_su=env.lambda_su)
    cls = classify_operating_point(env, factory, DynamicsParams(steps=400), density_cap=CAP)
    assert cls.label == "robust"
    assert cls.peak_mutant_share > 0.01  # transient outbreak before collapse


def test_kappa_above_delta_always_robust():
    # pointwise dominance: transmit payoff <= q*delta <= delta < kappa
    pay = PayoffParams(delta=5.0, nu=0.7, kappa=6.0)
    for q in np.linspace(0.0, 1.0, 21):
        for s in np.linspace(0.0, 1.0, 21):
            assert access_payoff(1.0, q, s, pay) < pay.kappa
    env = env_with(kappa=6.0, delta=5.0, nu=0.7)
    factory = make_template_schedule(1e-7, InducingTemplate(), CAP, lambda_su=env.lambda_su)
    cls = classify_operating_point(env, factory, DynamicsParams(steps=300), density_cap=CAP)
    assert cls.label == "robust"


def test_transmitting_share_and_density_helpers():
    env = replace(env_with(), strategies=StrategySet((0.0, 0.5, 1.0)))
    x = np.array([0.5, 0.2, 0.3])
    assert transmitting_share(x, env) == pytest.approx(0.5)
    assert active_su_density(x, env) == pytest.approx(env.lambda_su * (0.2 * 0.5 + 0.3 * 1.0))
