import math
from dataclasses import replace

import numpy as np
import pytest

from specgame.attack import AttackController
from specgame.channel import ChannelParams, max_allowable_su_density
from specgame.engine import ConfigError, ScenarioConfig
from specgame.game import (
    GameEnv,
    MuDrive,
    PayoffParams,
    active_su_density,
    classify_operating_point,
    payoff_vector,
    replicator_step,
    run_dynamics,
    step_failure,
    transmitting_share,
)

from oracles import access_payoff, perception_prob

CH = ChannelParams()
CAP = max_allowable_su_density(CH)
IDLE = MuDrive(0.0, 0.0)


def env_with(kappa=0.0, delta=10.0, nu=1.0, **kw):
    return GameEnv(channel=CH, payoffs=PayoffParams(delta=delta, nu=nu, kappa=kappa), **kw)


def idle_schedule(t, density):
    return IDLE


def template_controller(env):
    """The default inducing knobs, launched at once."""
    return AttackController(1e-7, CAP, launch=True, lambda_su=env.lambda_su)


def template_run(env, config):
    """The default inducing knobs, launched at once, run from config.x0."""
    return run_dynamics(np.asarray(config.x0), env, template_controller(env), config.steps, config.step_size)


def test_strategy_set_invariants():
    assert env_with().access_probs == (0.0, 1.0)
    assert env_with(access_probs=[0, 0.4, 1]).probs.tolist() == [0.0, 0.4, 1.0]
    assert not env_with().probs.flags.writeable
    for probs in ((0.5,), (0.5, 0.5), (0.2, 1.2)):
        with pytest.raises(ValueError, match="access_probs"):
            env_with(access_probs=probs)


@pytest.mark.parametrize("key", ["include_pt_interference_at_su", "include_pt_interference_at_pr"])
@pytest.mark.parametrize("value", [2, "no"])
def test_a_pt_flag_that_is_no_bool_names_the_key(key, value):
    # 2 would scale the PT field's coefficient, "no" fail in numpy on first use
    with pytest.raises(ConfigError, match=rf"^{key} must be true or false, got {value!r}$"):
        env_with(**{key: value})


def test_payoff_params_invariants():
    with pytest.raises(ValueError):
        PayoffParams(delta=0.0)
    with pytest.raises(ValueError):
        PayoffParams(nu=-0.1)
    with pytest.raises(ValueError):
        PayoffParams(kappa=-1.0)


def test_a_per_cell_array_of_the_wrong_dtype_names_the_key_and_the_dtype():
    with pytest.raises(ConfigError, match=r"^payoffs\.delta must hold numbers, got bool$"):
        PayoffParams(delta=np.array([True]))
    with pytest.raises(ConfigError, match=r"^hysteresis must hold integers, got float64$"):
        AttackController(1e-7, CAP, hysteresis=np.array([5.0]))


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
    assert payoff_vector(np.array([0.9, 0.1]), env, IDLE)[0][0] == pytest.approx(3.5, abs=1e-15)


def test_transmit_alone_earns_nothing():
    # nothing active anywhere, no inducement: perception gate closed
    env = env_with(kappa=0.0)
    assert payoff_vector(np.array([1.0, 0.0]), env, IDLE)[0][1] == 0.0


def test_forced_failure_costs_nu():
    pay = PayoffParams(delta=10.0, nu=1.7, kappa=0.0)
    assert access_payoff(1.0, 1.0, 0.0, pay) == pytest.approx(-1.7, rel=1e-15)


def test_payoff_interpolates_in_access_probability():
    env = replace(env_with(kappa=2.0), access_probs=(0.0, 0.5, 1.0))
    x = np.array([0.5, 0.2, 0.3])
    pi, q, s_su, _ = payoff_vector(x, env, MuDrive(1e-5, 0.5))
    assert pi[1] == pytest.approx(0.5 * pi[0] + 0.5 * pi[2], rel=1e-12)
    assert 0.0 < q < 1.0 and 0.0 < s_su < 1.0


def test_payoff_vector_rejects_negative_field_density():
    env = env_with(kappa=0.0)
    x = np.array([0.5, 0.5])
    # each field is checked, not only their sum (which perception sees)
    with pytest.raises(ValueError, match="nonnegative"):
        payoff_vector(x, env, MuDrive(-0.1 * active_su_density(x, env), 0.0))
    # off-simplex shares, act=None: the density computed from them is checked,
    # also with a drive already checked and held
    held = MuDrive(np.array([1e-6, 0.0]), np.array([0.5, 1.0]))
    payoff_vector(x, env, held)
    for drive in (IDLE, held, held):
        with pytest.raises(ValueError, match="nonnegative"):
            payoff_vector(np.array([[0.5, 0.5], [1.5, -0.5]]), env, drive)


def test_a_reused_drive_pays_the_bytes_of_a_fresh_equal_drive():
    env = replace(env_with(kappa=2.0), access_probs=(0.0, 0.5, 1.0))
    x = np.array([[0.5, 0.2, 0.3], [0.1, 0.1, 0.8], [1.0, 0.0, 0.0]])
    density, inducement = np.array([0.0, 1e-6, 3e-5]), np.array([0.25, 1.0, 0.0])
    reused = MuDrive(density, inducement)
    for shares in (x, x[::-1], x[1]):
        got = payoff_vector(shares, env, reused)
        want = payoff_vector(shares, env, MuDrive(density.copy(), inducement.copy()))
        for a, b in zip(got, want):
            assert np.shape(a) == np.shape(b) and np.asarray(a).tobytes() == np.asarray(b).tobytes()


def test_a_per_cell_inducement_alone_gives_per_cell_payoffs():
    # scalar shares and MU density: the links' success stays one float, and
    # each cell's payoffs and q are those of its inducement on its own
    env = env_with(kappa=2.0)
    x, inducement = np.array([0.6, 0.4]), np.array([0.0, 0.3, 1.0])
    pi, q, s_su, s_pr = payoff_vector(x, env, MuDrive(3e-6, inducement))
    assert (pi.shape, q.shape, np.shape(s_su), np.shape(s_pr)) == ((3, 2), (3,), (), ())
    for c, value in enumerate(inducement.tolist()):
        one = payoff_vector(x, env, MuDrive(3e-6, value))
        assert (pi[c].tobytes(), q[c], s_su, s_pr) == (one[0].tobytes(), *one[1:])


def test_a_negative_mu_density_raises_on_every_call():
    env = env_with(kappa=0.0)
    x = np.array([0.5, 0.5])
    for bad in (MuDrive(-1e-9, 0.0), MuDrive(np.array([1e-7, -1e-9]), np.zeros(2))):
        for _ in range(3):  # a failed check holds nothing for the next call
            with pytest.raises(ValueError, match="nonnegative"):
                payoff_vector(x, env, bad)
            with pytest.raises(ValueError, match="nonnegative"):
                run_dynamics(x, env, lambda t, density: bad, 5, 0.1, history=False)

    # a schedule whose one drive turns negative only at step 3: the run raises there
    calls = []

    def late(t, density):
        calls.append(t)
        return IDLE if t < 3 else MuDrive(-1e-9, 0.0)

    with pytest.raises(ValueError, match="nonnegative"):
        run_dynamics(x, env, late, 10, 0.1)
    assert calls == [0, 1, 2, 3]


@pytest.mark.parametrize("inducement", [2.0, -0.5, np.array([0.0, 1.0, 1.5])], ids=["2", "-0.5", "one-cell-1.5"])
def test_an_inducement_outside_the_unit_interval_raises(inducement):
    # no perception probability may come out above 1, nor an inducement below 0;
    # a single run and a batch of three cells each raise, on every call
    env = env_with(kappa=0.0)
    bad = MuDrive(5e-8, inducement)
    for x in (np.array([0.5, 0.5]), np.full((3, 2), 0.5), np.array([0.5, 0.5])):
        with pytest.raises(ValueError, match=r"^inducement must lie in \[0, 1\]$"):
            payoff_vector(x, env, bad)
        with pytest.raises(ValueError, match=r"^inducement must lie in \[0, 1\]$"):
            run_dynamics(x, env, lambda t, density: bad, 5, 0.1)


@pytest.mark.parametrize("freeze_shares", [False, True])
@pytest.mark.parametrize("h", [0.0, -0.1, math.nan])
def test_a_step_size_not_above_zero_is_refused_before_the_first_step(h, freeze_shares):
    calls = []

    def recording(t, density):
        calls.append(t)
        return IDLE

    with pytest.raises(ValueError, match="step size must be positive"):
        run_dynamics(np.array([0.5, 0.5]), env_with(kappa=0.0), recording, 3, h, freeze_shares=freeze_shares)
    assert calls == []
    with pytest.raises(ValueError, match="step size must be positive"):
        replicator_step(np.array([0.5, 0.5]), np.array([1.0, 0.0]), h)


def test_no_step_is_refused_before_the_schedule_runs():
    calls = []

    def recording(t, density):
        calls.append(t)
        return IDLE

    with pytest.raises(ValueError, match="need at least one step"):
        run_dynamics(np.array([0.5, 0.5]), env_with(kappa=0.0), recording, 0, 0.1)
    assert calls == []


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
    # a vector it cannot step comes back NaN, with the reason from step_failure
    pi = np.array([0.0, -math.inf])
    assert np.isnan(replicator_step(np.array([0.5, 0.5]), pi, 0.1)).all()
    assert step_failure(pi).endswith("non-finite payoffs")


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
    assert traj.shares.shape == (50, 1, 2) and traj.final_shares.shape == (1, 2)  # a batch of one cell
    assert np.all(traj.shares[:, 0, 0] == 1.0) and np.all(traj.shares[:, 0, 1] == 0.0)
    assert traj.final_shares[0, 0] == 1.0


def test_run_dynamics_kappa0_fixation_with_template():
    env = env_with(kappa=0.0)
    traj = run_dynamics(np.array([0.99, 0.01]), env, template_controller(env), steps=120, h=0.1)
    shares = traj.shares[:, 0, 1].tolist()
    assert all(b >= a - 1e-15 for a, b in zip(shares, shares[1:]))  # monotone rise
    assert max(shares) > CAP / env.lambda_su  # crosses the admissible share
    assert traj.final_shares[0, 1] >= 0.99


def test_run_dynamics_kappa8_rise_then_decline():
    env = env_with(kappa=8.0)
    traj = run_dynamics(np.array([0.99, 0.01]), env, template_controller(env), steps=120, h=0.1)
    shares = traj.shares[:, 0, 1].tolist() + [traj.final_shares[0, 1]]
    peak = max(shares)
    assert peak > shares[0]
    assert shares[-1] < peak
    assert shares[-1] < 1e-3


def test_run_dynamics_records_sinr_metrics():
    # a trajectory holds the field densities its SINR medians are solved from
    env = env_with(kappa=0.0)
    traj = run_dynamics(np.array([0.99, 0.01]), env, idle_schedule, steps=3, h=0.1)
    medians = env.link_budget.median((traj.active_su_density[..., None], traj.mu_density[..., None], env.lambda_pt))
    assert np.all(np.isfinite(medians)) and medians.shape == (3, 1, 2)


def find_rest_points(env, mu=IDLE, grid=2001, tol=1e-9):
    """Oracle: rest points of the two-strategy dynamics under the constant
    attacker drive `mu`, as (mutant share, stability tag).

    Scans the payoff gap g(x) = pi_transmit - pi_silent for sign changes and
    refines each by bisection; endpoints are tagged from the adjacent gap sign.
    For more than two strategies, falls back to multi-start dynamics and
    reports the distinct limits reached.
    """
    probs = env.probs
    if len(probs) != 2:
        return _rest_points_multistart(env, mu)

    def g(x):
        shares = np.array([1.0 - x, x])
        pi, _, _, _ = payoff_vector(shares, env, mu)
        return float(pi[1] - pi[0])

    xs = np.linspace(0.0, 1.0, grid)
    gs = np.diff(payoff_vector(np.stack([1.0 - xs, xs], axis=1), env, mu)[0], axis=1)[:, 0]
    out = []

    g0, g1 = gs[0], gs[-1]
    out.append((0.0, "stable" if g0 < -tol else ("unstable" if g0 > tol else "neutral")))
    for i in range(grid - 1):
        a, b = gs[i], gs[i + 1]
        if a == 0.0 and 0 < i:  # grid point exactly on a root
            out.append((float(xs[i]), "neutral"))
            continue
        if a * b < 0:
            lo, hi = float(xs[i]), float(xs[i + 1])
            glo = a
            while hi - lo > tol:
                mid = 0.5 * (lo + hi)
                gm = g(mid)
                if glo * gm <= 0:
                    hi = mid
                else:
                    lo, glo = mid, gm
            root = 0.5 * (lo + hi)
            out.append((root, "stable" if a > 0 else "unstable"))
    out.append((1.0, "stable" if g1 > tol else ("unstable" if g1 < -tol else "neutral")))
    return out


def _rest_points_multistart(env, mu, starts=8, steps=4000, h=0.1):
    x0 = np.random.default_rng(0).dirichlet(np.ones(len(env.access_probs)), size=starts)
    traj = run_dynamics(x0, env, lambda t, observed: mu, steps, h)
    limits, seen = [], []
    for x in traj.final_shares:
        if not any(np.allclose(x, s, atol=1e-4) for s in seen):
            seen.append(x)
            limits.append((float(transmitting_share(x, env.probs)), "stable"))
    return limits


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
        pi, _, _, _ = payoff_vector(np.array([1.0 - x, x]), env, IDLE)
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
    env = replace(env_with(kappa=8.0), access_probs=(0.0, 0.5, 1.0))
    points = find_rest_points(env)
    assert points  # silence dominates: every start collapses to the silent corner
    assert all(tag == "stable" for _, tag in points)
    assert min(x for x, _ in points) <= 1e-3


def test_classify_baseline_anchors():
    config = ScenarioConfig(steps=400)
    for kappa, label in ((0.0, "fragile"), (8.0, "robust")):
        env = env_with(kappa=kappa)
        [cls] = classify_operating_point(env, template_run(env, config), config.extinction_tolerance)
        assert cls.classification == label, (kappa, cls)


def test_classify_kappa8_forecast_shows_initial_rise():
    env, config = env_with(kappa=8.0), ScenarioConfig(steps=400)
    traj = template_run(env, config)
    [cls] = classify_operating_point(env, traj, config.extinction_tolerance)
    assert cls.classification == "robust"
    # transient outbreak before collapse
    assert transmitting_share(traj.shares[:, 0], env.probs).max() > 0.01 > cls.terminal_mutant_share


def test_kappa_above_delta_always_robust():
    # pointwise dominance: transmit payoff <= q*delta <= delta < kappa
    pay = PayoffParams(delta=5.0, nu=0.7, kappa=6.0)
    for q in np.linspace(0.0, 1.0, 21):
        for s in np.linspace(0.0, 1.0, 21):
            assert access_payoff(1.0, q, s, pay) < pay.kappa
    env = env_with(kappa=6.0, delta=5.0, nu=0.7)
    config = ScenarioConfig(steps=300)
    [cls] = classify_operating_point(env, template_run(env, config), config.extinction_tolerance)
    assert cls.classification == "robust"


def test_transmitting_share_and_density_helpers():
    env = replace(env_with(), access_probs=(0.0, 0.5, 1.0))
    x = np.array([0.5, 0.2, 0.3])
    assert transmitting_share(x, env.probs) == pytest.approx(0.5)
    assert active_su_density(x, env) == pytest.approx(env.lambda_su * (0.2 * 0.5 + 0.3 * 1.0))


def test_fig6_converged_cells_rest_on_a_stable_rest_point():
    """The ESS analysis as an oracle for the simulated classification: every
    fig6 cell whose last step moved its shares by less than 1e-6 ends within
    1e-4 of a stable rest point of the game in force at that step, and is
    fragile exactly when that rest point's active density exceeds the cap."""
    from specgame.cli import PRESET_GRID, build_presets
    from specgame.engine import sweep_region

    config = build_presets()["fig6-region"]
    grid = [(d, n, k) for d in PRESET_GRID["deltas"] for n in PRESET_GRID["nus"] for k in PRESET_GRID["kappas"]]
    labels = [c.classification for c in sweep_region(PRESET_GRID["deltas"], PRESET_GRID["nus"],
                                                     PRESET_GRID["kappas"], config)]
    env = config.env
    controller = config.controller(launch=True)
    payoffs = PayoffParams(*(np.array(column) for column in zip(*grid)))
    traj = run_dynamics(np.array(config.x0), replace(env, payoffs=payoffs), controller, config.steps,
                        config.step_size)
    converged = np.flatnonzero(np.abs(traj.final_shares - traj.shares[-1]).max(axis=1) < 1e-6)
    assert len(converged) == 66  # of 72
    for c in converged:
        mu = MuDrive(float(traj.mu_density[-1, c]), float(traj.inducement[-1, c]))
        stable = [x for x, tag in find_rest_points(replace(env, payoffs=PayoffParams(*grid[c])), mu)
                  if tag == "stable"]
        terminal = float(transmitting_share(traj.final_shares[c], env.probs))
        point = min(stable, key=lambda x: abs(x - terminal))
        assert abs(point - terminal) <= 1e-4, (grid[c], terminal, stable)
        assert (env.lambda_su * point > CAP) == (labels[c] == "fragile"), (grid[c], point, labels[c])
