"""The batched dynamics core: a batch equals its cells run one at a time,
replicator rows behave like single vectors, and a failing cell is isolated,
also when it is a batch of one."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specgame.attack import AttackController, InducingTemplate
from specgame.channel import ChannelParams, max_allowable_su_density
from specgame.game import (
    DynamicsParams,
    GameEnv,
    MuDrive,
    PayoffParams,
    classify_operating_point,
    replicator_step,
    run_dynamics,
    step_failure,
)

CH = ChannelParams()
CAP = max_allowable_su_density(CH)
STEPS = 60

cell = st.tuples(
    st.floats(0.5, 30.0),  # delta
    st.floats(0.0, 5.0),  # nu
    st.floats(0.0, 12.0),  # kappa
    st.integers(1, 6),  # hysteresis
    st.floats(0.001, 0.5),  # initial transmitting share
)


def _env(payoffs):
    return GameEnv(channel=CH, payoffs=payoffs)


def _controller(hysteresis):
    return AttackController(1e-6, InducingTemplate(hysteresis=hysteresis), CAP, launch=True, lambda_su=1e-3)


@settings(max_examples=12, deadline=None)
@given(st.lists(cell, min_size=1, max_size=5))
def test_batch_equals_cells_run_one_at_a_time(cells):
    d, n, k, hyst, share = (np.array(col) for col in zip(*cells))
    x0 = np.stack([1.0 - share, share], axis=1)
    batch_ctl = _controller(hyst)
    batch = run_dynamics(x0, _env(PayoffParams(d, n, k)), batch_ctl, STEPS, 0.1)
    assert batch.errors == ("",) * len(cells)
    for c in range(len(cells)):
        ctl = _controller(int(hyst[c]))
        one = run_dynamics(x0[c], _env(PayoffParams(d[c], n[c], k[c])), ctl, STEPS, 0.1)
        np.testing.assert_allclose(batch.shares[:, c], one.shares[:, 0], rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(batch.final_shares[c], one.final_shares[0], rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(batch.su_median_sinr[:, c], one.su_median_sinr[:, 0], rtol=1e-12, atol=0.0)
        assert [int(p[c]) for p in batch_ctl.phase_history] == [int(p.item()) for p in ctl.phase_history]
        assert [(e.slot, e.new_phase) for e in batch_ctl.events if e.cell == c] == [
            (e.slot, e.new_phase) for e in ctl.events
        ]


@settings(max_examples=8, deadline=None)
@given(st.lists(cell, min_size=1, max_size=4))
def test_batched_classification_equals_single_cells(cells):
    d, n, k, _, _ = (np.array(col) for col in zip(*cells))
    dynamics = DynamicsParams(steps=150)

    def classify(env):
        controller = AttackController(1e-7, InducingTemplate(), CAP, launch=True, lambda_su=1e-3)
        traj = run_dynamics(np.asarray(dynamics.x0), env, controller, dynamics.steps, dynamics.h, compute_sinr=False)
        return classify_operating_point(env, traj, dynamics.extinction_tol)

    batched = classify(_env(PayoffParams(d, n, k)))
    singles = [classify(_env(PayoffParams(d[c], n[c], k[c])))[0] for c in range(len(cells))]
    assert [r.label for r in batched] == [r.label for r in singles]
    np.testing.assert_allclose([r.terminal_mutant_share for r in batched],
                               [r.terminal_mutant_share for r in singles], rtol=1e-12, atol=0.0)


dyadic = st.integers(-64, 64).map(lambda v: v / 16.0)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4).flatmap(lambda m: st.tuples(
    st.lists(st.lists(st.integers(0, 50), min_size=m, max_size=m).filter(any), min_size=1, max_size=6),
    st.lists(st.lists(dyadic, min_size=m, max_size=m), min_size=6, max_size=6),
    st.lists(st.integers(-8, 8), min_size=6, max_size=6),
)))
def test_replicator_rows_stay_on_simplex_and_shift_invariant(case):
    weights, payoffs, shifts = case
    x = np.array(weights, dtype=float)
    x /= x.sum(axis=1, keepdims=True)
    pi = np.array(payoffs[:len(x)])
    shift = np.array(shifts[:len(x)], dtype=float)[:, None]
    new = replicator_step(x, pi, 0.1)
    assert np.all(new >= 0.0)
    assert np.all(np.abs(new.sum(axis=1) - 1.0) <= 1e-9)
    assert replicator_step(x, pi + shift, 0.1).tobytes() == new.tobytes()
    for row, p, got in zip(x, pi, new):
        assert replicator_step(row, p, 0.1).tobytes() == got.tobytes()


def test_replicator_batch_marks_unsteppable_rows_nan():
    x = np.array([[0.5, 0.5], [0.5, 0.5], [0.5, 0.5]])
    pi = np.array([[0.0, 1.0], [0.0, math.nan], [0.0, -1e308]])
    new = replicator_step(x, pi, 0.1)
    assert new[0] == pytest.approx(replicator_step(x[0], pi[0], 0.1), abs=0.0)
    assert np.isnan(new[1]).all() and np.isnan(new[2]).all()
    for row in (1, 2):  # a single vector fails the same way as its row
        assert np.isnan(replicator_step(x[row], pi[row], 0.1)).all()
    assert step_failure(pi[0]) == step_failure(pi[2]) == "replicator step could not keep shares nonnegative"
    assert step_failure(pi[1]) == "replicator step could not keep shares nonnegative: non-finite payoffs"


def test_failed_cell_is_frozen_and_the_others_run_on():
    # cell 1's attacker advertises a NaN inducement from step 3 on
    def schedule(t, observed):
        inducement = np.zeros(observed.shape)
        if t >= 3:
            inducement[1] = math.nan
        return MuDrive(np.full(observed.shape, 5e-7), inducement)

    payoffs = PayoffParams(np.array([10.0, 10.0, 10.0]), 1.0, np.array([0.0, 0.0, 8.0]))
    traj = run_dynamics(np.array([0.9, 0.1]), _env(payoffs), schedule, 20, 0.1, compute_sinr=False)
    assert traj.errors[0] == traj.errors[2] == ""
    assert "non-finite payoffs" in traj.errors[1] and "step 3" in traj.errors[1]
    assert np.array_equal(traj.final_shares[1], traj.shares[3, 1])  # frozen at its last good shares
    for c in (0, 2):
        one = run_dynamics(np.array([0.9, 0.1]), _env(PayoffParams(10.0, 1.0, float(payoffs.kappa[c]))),
                           lambda t, observed: MuDrive(5e-7, 0.0), 20, 0.1, compute_sinr=False)
        np.testing.assert_allclose(traj.final_shares[c], one.final_shares[0], rtol=1e-12, atol=0.0)
    one = run_dynamics(np.array([0.9, 0.1]), _env(PayoffParams()),
                       lambda t, observed: MuDrive(5e-7, math.nan if t >= 3 else 0.0), 20, 0.1)
    assert one.errors == (traj.errors[1],)  # a single run reports its failure the same way
    assert np.array_equal(one.final_shares, one.shares[3])
