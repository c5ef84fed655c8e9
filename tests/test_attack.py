import itertools
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from specgame import attack, engine

from specgame.attack import (
    ABORTED,
    INACTIVE,
    INDUCING,
    INITIAL,
    PHASES,
    AttackController,
    AttackPhase,
    PhaseEvent,
    advance_phases,
    phase_history,
)
from specgame.channel import ChannelParams, max_allowable_su_density
from specgame.cli import PRESET_GRID, build_presets
from specgame.engine import ScenarioConfig, decide_launch
from specgame.game import GameEnv, PayoffParams, run_dynamics, transmitting_share
from specgame.geometry import Region, sample_world

CH = ChannelParams()
CAP = max_allowable_su_density(CH)


def baseline_env(kappa=0.0, lambda_su=1e-3):
    return GameEnv(channel=CH, payoffs=PayoffParams(delta=10.0, nu=1.0, kappa=kappa), lambda_su=lambda_su)


def test_count_over_area_estimates_are_unbiased_over_sampled_worlds():
    region = Region(1500.0)
    rng = np.random.default_rng(3)
    estimates = []
    for _ in range(1000):
        world = sample_world(region, 1e-5, 1e-4, 0.0, 15.0, 10.0, rng=rng)
        estimates.append(len(world.pts) / region.area)
    mean = np.mean(estimates)
    stderr = np.std(estimates) / np.sqrt(len(estimates))
    assert abs(mean - 1e-5) <= 2 * stderr + 1e-12


def test_initial_phase_transitions():
    for launch, expected in ((None, INITIAL), (True, INDUCING), (False, ABORTED)):
        phase, run = advance_phases(np.asarray(INITIAL), 0, 0.0, CAP, 5, launch)
        assert (phase, run) == (expected, 0)


def test_inducing_requires_consecutive_run():
    phase, run = np.asarray(INDUCING), 0
    high, low = CAP * 1.1, CAP * 0.5
    # two highs, a reset, then three highs
    for density, expected, expected_run in ((high, INDUCING, 1), (high, INDUCING, 2), (low, INDUCING, 0),
                                            (high, INDUCING, 1), (high, INDUCING, 2), (high, INACTIVE, 3)):
        phase, run = advance_phases(phase, run, density, CAP, 3, None)
        assert (phase, run) == (expected, expected_run)


def test_inducing_below_threshold_keeps_phase_and_zero_run():
    phase, run = advance_phases(np.asarray(INDUCING), 0, CAP * 0.9, CAP, 5, None)
    assert (phase, run) == (INDUCING, 0)
    # a launch decision only moves cells still in INITIAL
    phase, run = advance_phases(np.asarray(INDUCING), 2, CAP * 0.9, CAP, 5, False)
    assert (phase, run) == (INDUCING, 0)


def test_terminal_phases_stay_put():
    for terminal in (INACTIVE, ABORTED):
        for density in (0.0, CAP * 2.0):
            for launch in (None, True, False):
                phase, run = advance_phases(np.asarray(terminal), 4, density, CAP, 1, launch)
                assert (phase, run) == (terminal, 0)


def test_phase_graph_exhaustive_small_sequences():
    # enumerate every launch decision and density pattern up to length 6 and
    # confirm only the allowed transitions ever occur
    allowed = {
        (INITIAL, INITIAL),
        (INITIAL, INDUCING),
        (INITIAL, ABORTED),
        (INDUCING, INDUCING),
        (INDUCING, INACTIVE),
        (INACTIVE, INACTIVE),
        (ABORTED, ABORTED),
    }
    high, low = CAP * 2.0, CAP * 0.5
    for launch in (None, True, False):
        for pattern in itertools.product((high, low), repeat=6):
            phase, run = np.asarray(INITIAL), 0
            for density in pattern:
                old = int(phase)
                phase, run = advance_phases(phase, run, density, CAP, 2, launch if old == INITIAL else None)
                assert (old, int(phase)) in allowed
                assert run == 0 or old == INDUCING


def test_controller_emits_template_density_while_inducing():
    ctl = AttackController(1e-7, CAP, launch=True, lambda_su=1e-3, mu_access_prob=0.5, hysteresis=5, inducement=1.0)
    drive = ctl(0, 0.0)
    assert PHASES[int(ctl.phases)] is AttackPhase.INDUCING
    assert drive.active_density == pytest.approx(1e-7 * 0.5, rel=1e-15)
    assert drive.inducement == 1.0


def test_controller_withdraws_and_goes_silent():
    ctl = AttackController(1e-7, CAP, launch=True, lambda_su=1e-3, hysteresis=2)
    ctl(0, 0.0)
    ctl(1, CAP * 2)
    drive = ctl(2, CAP * 2)
    assert PHASES[int(ctl.phases)] is AttackPhase.INACTIVE
    assert drive.active_density == 0.0 and drive.inducement == 0.0
    assert [(e.old_phase, e.new_phase) for e in ctl.events] == [
        (AttackPhase.INITIAL, AttackPhase.INDUCING),
        (AttackPhase.INDUCING, AttackPhase.INACTIVE),
    ]


def test_controller_mimic_behavior_after_withdrawal():
    ctl = AttackController(1e-6, CAP, launch=True, inactive_behavior="mimic-su", lambda_su=1e-3, hysteresis=1)
    ctl(0, 0.0)
    drive = ctl(1, CAP * 2)
    assert PHASES[int(ctl.phases)] is AttackPhase.INACTIVE
    observed = 4e-4
    drive = ctl(2, observed)
    assert drive.active_density == pytest.approx(1e-6 * observed / 1e-3, rel=1e-12)
    assert drive.inducement == 0.0


# observed active SU densities, as multiples of the cap; one at the cap is not above it
LEVELS = (0.0, 0.5, 1.0, 1.5, 3.0)


@st.composite
def observation_runs(draw):
    """Per-cell hysteresis, per-step densities over the cap, the launch given
    at construction and, for a deferred one, the step at which resolve_launch
    is called (past the end: never) and its value."""
    cells = draw(st.integers(1, 4))
    hysteresis = draw(st.lists(st.integers(1, 4), min_size=cells, max_size=cells))
    steps = draw(st.integers(1, 24))
    levels = draw(st.lists(st.lists(st.sampled_from(LEVELS), min_size=cells, max_size=cells),
                           min_size=steps, max_size=steps))
    launch = draw(st.sampled_from([True, False, None]))
    resolve = draw(st.tuples(st.integers(0, steps), st.booleans())) if launch is None else None
    return hysteresis, levels, launch, resolve


# how one cell's density reaches the controller: a (1,) array, a Python float
# as a single mean-field run hands it, or an np.float64 as a Monte Carlo run does
SINGLE_CELL_FORMS = {"array": lambda v: np.array([v]), "float": float, "float64": np.float64}


@settings(max_examples=300, deadline=None)
@given(run=observation_runs(), behavior=st.sampled_from(["silent", "mimic-su"]),
       form=st.sampled_from(sorted(SINGLE_CELL_FORMS)))
# a deferred launch resolved at step 2; cell 0 withdraws at step 5, cell 1 crosses the cap
# three times and never withdraws, cell 2 withdraws at its first observation above the cap
@example(run=([2, 3, 1], [[1.5, 0.0, 3.0], [3.0, 3.0, 0.0], [3.0, 0.5, 3.0], [0.5, 3.0, 3.0], [3.0, 1.0, 0.0],
                          [3.0, 3.0, 0.0], [0.0, 1.5, 0.0], [0.0, 0.5, 0.0], [0.0, 3.0, 0.0]], None, (2, True)),
         behavior="silent", form="array")
# one cell fed floats: a deferred launch resolved after the first call, while the cell is idle
@example(run=([3], [[0.5], [0.5], [0.5]], None, (1, True)), behavior="silent", form="float")
# one cell fed floats: idle at exactly the cap, then a run above it dips to the cap, which resets it
@example(run=([2], [[0.0], [1.0], [1.5], [1.0], [1.5], [1.0], [1.5], [1.5], [0.5]], True, None), behavior="silent",
         form="float")
# every cell inducing, one float cap: calls at the cap are idle, and a dip to it resets a run
@example(run=([2, 2, 2], [[0.5, 0.5, 0.5], [1.0, 1.0, 1.0], [1.5, 0.5, 1.0], [1.0, 1.0, 1.0], [1.5, 1.5, 1.5],
                          [1.5, 1.5, 1.5], [0.0, 0.0, 0.0]], True, None), behavior="silent", form="array")
# INDUCING and INACTIVE cells mixed, a per-cell bound: cell 0 withdraws at step 1, and cell 1's
# run starts at step 4, dips to the cap at step 5 and withdraws at step 8
@example(run=([1, 3], [[0.5, 0.5], [1.5, 0.5], [0.5, 0.5], [3.0, 1.0], [3.0, 1.5], [0.0, 1.0], [0.0, 1.5],
                       [0.0, 1.5], [0.0, 1.5], [3.0, 3.0]], True, None), behavior="silent", form="array")
# no cell inducing, an inf bound: NaN is not above it, and a launch resolved to abort still acts
@example(run=([2], [[0.5], [np.nan], [0.5], [np.nan], [3.0]], None, (2, False)), behavior="silent",
         form="float64")
def test_controller_equals_advance_phases_stepped_by_hand(run, behavior, form):
    # the controller skips advance_phases on calls that would change nothing;
    # every call must still agree with the machine stepped by hand, and the
    # machine is stepped on every call that could change something
    hysteresis, levels, launch, resolve = run
    scalar = form != "array" and len(hysteresis) == 1  # a single cell of 0-d phases
    hyst = hysteresis[0] if scalar else np.array(hysteresis)
    lambda_mu, lambda_su = 1e-4, 1e-3
    ctl = AttackController(lambda_mu, CAP, launch=launch, inactive_behavior=behavior, lambda_su=lambda_su,
                           mu_access_prob=0.5, hysteresis=hyst, inducement=0.75)
    phase, above, pending, events, history = np.asarray(INITIAL), np.asarray(0), launch, [], []
    for t, row in enumerate(levels):
        observed = SINGLE_CELL_FORMS[form](CAP * row[0]) if scalar else CAP * np.array(row)
        if resolve is not None and resolve[0] == t:
            ctl.resolve_launch(resolve[1])
            pending = resolve[1]
        with mock.patch.object(attack, "advance_phases", wraps=advance_phases) as machine:
            drive = ctl(t, observed)
        acts = (t == 0 or behavior == "mimic-su" or pending is not None or np.count_nonzero(above)
                or np.count_nonzero((phase == INDUCING) & (observed > CAP)))
        assert machine.call_count == bool(acts)
        new, above = advance_phases(phase, above, observed, CAP, hyst, pending)
        pending = None
        old, trigger = np.broadcast_to(phase, new.shape), np.broadcast_to(observed, new.shape)
        events += [PhaseEvent(t, PHASES[old.flat[c]], PHASES[new.flat[c]], float(trigger.flat[c]), c)
                   for c in range(new.size) if new.flat[c] != old.flat[c]]
        phase = new
        history.append(phase)
        density = np.where(phase == INDUCING, lambda_mu * 0.5, 0.0)
        if behavior == "mimic-su":
            density = np.where(phase == INACTIVE, lambda_mu * (observed / lambda_su), density)
        inducement = np.where(phase == INDUCING, 0.75, 0.0)
        for got, want in ((ctl.phases, phase), (ctl.above_cap_run, above),
                          (drive.active_density, density), (drive.inducement, inducement)):
            assert np.shape(got) == want.shape and np.asarray(got).tobytes() == want.tobytes()
        assert ctl.events == events
        derived = phase_history(ctl.events, t + 1, len(hysteresis))
        assert np.array_equal(derived, np.reshape(history, derived.shape))


def test_silent_controller_skips_calls_that_change_nothing():
    # two cells, launched at step 2: cell 0 withdraws at step 4, cell 1 stays inducing below the cap
    ctl = AttackController(1e-7, CAP, launch=None, lambda_su=1e-3, hysteresis=2)
    high, low = CAP * 2, CAP * 0.5
    with mock.patch.object(attack, "advance_phases", wraps=advance_phases) as machine:
        ctl(0, np.array([low, low]))  # builds the drive
        ctl(1, np.array([low, low]))  # idle: INITIAL, nothing pending
        ctl.resolve_launch(True)
        ctl(2, np.array([high, low]))  # the launch
        ctl(3, np.array([high, low]))  # a run starts
        ctl(4, np.array([high, low]))  # cell 0 withdraws
        ctl(5, np.array([high, low]))  # its run resets
        for t in range(6, 20):
            ctl(t, np.array([high, low]))  # idle: cell 1 inducing below the cap
        ctl(20, np.array([high, high]))  # cell 1 above the cap: not idle
        assert machine.call_count == 6
    assert PHASES[ctl.phases[0]] is AttackPhase.INACTIVE and PHASES[ctl.phases[1]] is AttackPhase.INDUCING
    assert phase_history(ctl.events, 21, 2).T.tolist() == [[INITIAL] * 2 + [INDUCING] * 2 + [INACTIVE] * 17,
                                                           [INITIAL] * 2 + [INDUCING] * 19]
    assert ctl.above_cap_run.tolist() == [0, 1]


PRESETS = build_presets()


@pytest.mark.parametrize("workload, steps_taken", [
    # a single run's float densities, 150 steps each
    (lambda: engine.run(PRESETS["fig3-population"]), 7),
    (lambda: engine.run(PRESETS["fig4-sinr-kappa0"]), 7),
    (lambda: engine.run(PRESETS["fig5-sinr-kappa8"]), 7),
    # fig6's 72-cell sweep, (72,) arrays
    (lambda: engine.sweep_region(PRESET_GRID["deltas"], PRESET_GRID["nus"], PRESET_GRID["kappas"],
                                 PRESETS["fig6-region"]), 24),
    # a Monte Carlo run's np.float64 densities, 60 updates at 800 m
    (lambda: engine.run(replace(PRESETS["fig3-population"], mode="montecarlo", region_side=800.0, steps=60,
                                seed=5)), 15),
], ids=["fig3", "fig4", "fig5", "fig6-sweep", "mc-800m"])
def test_controller_steps_the_machine_only_when_a_call_can_change_it(workload, steps_taken):
    # idle calls return the held drive, so the machine is stepped only on the
    # first call, to launch, and while a run above the cap starts, counts or ends
    with mock.patch.object(attack, "advance_phases", wraps=advance_phases) as machine:
        workload()
    assert machine.call_count == steps_taken


def test_decide_launch_baseline_payoffs():
    config = ScenarioConfig(steps=400)
    assert decide_launch(config, baseline_env(kappa=0.0), 1e-7)[0] is True
    assert decide_launch(config, baseline_env(kappa=8.0), 1e-7)[0] is False


def test_decide_launch_kappa8_forecast_still_rises_first():
    env, config = baseline_env(kappa=8.0), ScenarioConfig(steps=400)
    assert decide_launch(config, env, 1e-7)[0] is False
    # the dynamics decide_launch forecasts: the config's inducing knobs launched at once on env
    controller = AttackController(1e-7, CAP, launch=True, lambda_su=env.lambda_su, mu_access_prob=config.mu_access_prob,
                                  hysteresis=config.hysteresis, inducement=config.inducing_perception)
    traj = run_dynamics(np.asarray(config.x0), env, controller, config.steps, config.step_size)
    transmitting = transmitting_share(traj.shares[:, 0], env.probs)
    assert transmitting.max() > 0.01  # transient outbreak before collapse
    assert transmitting_share(traj.final_shares[0], env.probs) < config.extinction_tolerance


def test_decide_launch_raises_on_a_failed_forecast():
    env = GameEnv(channel=CH, payoffs=PayoffParams(delta=1e308, nu=1.0, kappa=0.0))
    with pytest.raises(ValueError, match=r"^replicator step could not keep shares nonnegative \(step 0\)$"):
        decide_launch(ScenarioConfig(steps=50), env, 1e-7)


def test_decide_launch_nobody_to_induce():
    env = baseline_env(kappa=0.0, lambda_su=0.0)
    assert decide_launch(ScenarioConfig(steps=100), env, 1e-7)[0] is False


@pytest.mark.parametrize("cap_multiple, launch", [(0.5, False), (1.0, False), (1.1, True)])
def test_decide_launch_below_the_cap_never_launches(cap_multiple, launch):
    # an SU population that stays within the cap even all transmitting cannot break
    # the primary outage constraint, whatever the forecast's drift says
    assert decide_launch(ScenarioConfig(steps=400), baseline_env(kappa=0.0, lambda_su=cap_multiple * CAP),
                         1e-7)[0] is launch


def test_decide_launch_guard_reads_the_most_aggressive_strategy(monkeypatch):
    def forecast(*args, **kwargs):
        raise AssertionError("no forecast runs below the cap")

    monkeypatch.setattr(engine, "run_dynamics", forecast)
    # 1.5x the cap, but at most half of it can transmit
    env = replace(baseline_env(kappa=0.0, lambda_su=1.5 * CAP), access_probs=(0.0, 0.5))
    assert decide_launch(ScenarioConfig(steps=400), env, 1e-7)[0] is False
    # with every user able to transmit, the same density is above the cap, and the forecast runs
    with pytest.raises(AssertionError, match="no forecast runs below the cap"):
        decide_launch(ScenarioConfig(steps=400), replace(env, access_probs=(0.0, 1.0)), 1e-7)


def test_decide_launch_replay_identical():
    args = (ScenarioConfig(steps=200), baseline_env(kappa=0.0), 1e-7)
    assert decide_launch(*args)[0] == decide_launch(*args)[0] == decide_launch(*args)[0]
