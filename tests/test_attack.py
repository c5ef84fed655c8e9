import itertools

import numpy as np
import pytest

from specgame.attack import (
    ABORTED,
    INACTIVE,
    INDUCING,
    INITIAL,
    AttackController,
    AttackPhase,
    DensityEstimates,
    InducingTemplate,
    advance_phases,
    decide_launch,
    forecast_operating_point,
    observe,
)
from specgame.channel import ChannelParams, max_allowable_su_density
from specgame.game import DynamicsParams, GameEnv, PayoffParams
from specgame.geometry import Region, sample_world

CH = ChannelParams()
CAP = max_allowable_su_density(CH)


def baseline_env(kappa=0.0):
    return GameEnv(channel=CH, payoffs=PayoffParams(delta=10.0, nu=1.0, kappa=kappa))


def test_observe_empty_window():
    est = observe({}, 9e6)
    assert est == DensityEstimates(0.0, 0.0, 0.0)


def test_observe_count_over_area():
    est = observe({"pt": 90, "su": 9000, "mu": 1}, 9e6)
    assert est.lambda_pt == pytest.approx(1e-5)
    assert est.lambda_su == pytest.approx(1e-3)
    assert est.lambda_mu == pytest.approx(1.0 / 9e6)


def test_observe_zero_area_rejected():
    with pytest.raises(ValueError):
        observe({"pt": 1}, 0.0)


def test_observe_unbiased_over_sampled_worlds():
    region = Region(1500.0)
    rng = np.random.default_rng(3)
    estimates = []
    for _ in range(1000):
        world = sample_world(region, 1e-5, 1e-4, 0.0, 15.0, 10.0, rng=rng)
        estimates.append(observe({"pt": len(world.pts), "su": len(world.sus)}, region.area).lambda_pt)
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
    template = InducingTemplate(mu_access_prob=0.5, hysteresis=5, inducement=1.0)
    ctl = AttackController(1e-7, template, CAP, launch=True, lambda_su=1e-3)
    drive = ctl(0, 0.0)
    assert ctl.phase is AttackPhase.INDUCING
    assert drive.active_density == pytest.approx(1e-7 * 0.5, rel=1e-15)
    assert drive.inducement == 1.0


def test_controller_withdraws_and_goes_silent():
    template = InducingTemplate(hysteresis=2)
    ctl = AttackController(1e-7, template, CAP, launch=True, lambda_su=1e-3)
    ctl(0, 0.0)
    ctl(1, CAP * 2)
    drive = ctl(2, CAP * 2)
    assert ctl.phase is AttackPhase.INACTIVE
    assert drive.active_density == 0.0 and drive.inducement == 0.0
    assert [(e.old_phase, e.new_phase) for e in ctl.events] == [
        (AttackPhase.INITIAL, AttackPhase.INDUCING),
        (AttackPhase.INDUCING, AttackPhase.INACTIVE),
    ]


def test_controller_mimic_behavior_after_withdrawal():
    template = InducingTemplate(hysteresis=1)
    ctl = AttackController(1e-6, template, CAP, launch=True,
                           inactive_behavior="mimic-su", lambda_su=1e-3)
    ctl(0, 0.0)
    drive = ctl(1, CAP * 2)
    assert ctl.phase is AttackPhase.INACTIVE
    observed = 4e-4
    drive = ctl(2, observed)
    assert drive.active_density == pytest.approx(1e-6 * observed / 1e-3, rel=1e-12)
    assert drive.inducement == 0.0


def test_decide_launch_baseline_payoffs():
    dynamics = DynamicsParams(steps=400)
    template = InducingTemplate()
    est = DensityEstimates(1e-5, 1e-3, 1e-7)
    assert decide_launch(est, baseline_env(kappa=0.0), template, dynamics, CAP) is True
    assert decide_launch(est, baseline_env(kappa=8.0), template, dynamics, CAP) is False


def test_decide_launch_kappa8_forecast_still_rises_first():
    est = DensityEstimates(1e-5, 1e-3, 1e-7)
    forecast = forecast_operating_point(est, baseline_env(kappa=8.0), InducingTemplate(),
                                        DynamicsParams(steps=400), CAP)
    assert forecast.label == "robust"
    assert forecast.peak_mutant_share > 0.01


def test_decide_launch_nobody_to_induce():
    est = DensityEstimates(1e-5, 0.0, 1e-7)
    assert decide_launch(est, baseline_env(kappa=0.0), InducingTemplate(), DynamicsParams(steps=100), CAP) is False


def test_decide_launch_replay_identical():
    est = DensityEstimates(1e-5, 1e-3, 1e-7)
    args = (est, baseline_env(kappa=0.0), InducingTemplate(), DynamicsParams(steps=200), CAP)
    assert decide_launch(*args) == decide_launch(*args) == decide_launch(*args)
