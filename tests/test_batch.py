"""The batched dynamics core: a batch equals its cells run one at a time,
both loops equal a plain loop over the public steps and a single run's float
loop equals the array loop on a batch of one, replicator rows behave like
single vectors, and a failing cell is isolated, also when it is a batch of
one."""
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from specgame.attack import AttackController, phase_history
from specgame.channel import ChannelParams, max_allowable_su_density
from specgame.cli import build_presets
from specgame.engine import ScenarioConfig
from specgame.game import (
    GameEnv,
    MuDrive,
    PayoffParams,
    _replicate,
    _replicate_row,
    active_su_density,
    classify_operating_point,
    payoff_vector,
    replicator_step,
    run_dynamics,
    step_failure,
)

from oracles import access_payoff, perception_prob

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
    return AttackController(1e-6, CAP, launch=True, lambda_su=1e-3, hysteresis=hysteresis)


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
        assert (phase_history(batch_ctl.events, STEPS, len(cells))[:, c].tolist()
                == phase_history(ctl.events, STEPS)[:, 0].tolist())
        assert [(e.slot, e.new_phase) for e in batch_ctl.events if e.cell == c] == [
            (e.slot, e.new_phase) for e in ctl.events
        ]


@settings(max_examples=8, deadline=None)
@given(st.lists(cell, min_size=1, max_size=4))
def test_batched_classification_equals_single_cells(cells):
    d, n, k, _, _ = (np.array(col) for col in zip(*cells))
    config = ScenarioConfig(steps=150)

    def classify(env):
        controller = AttackController(1e-7, CAP, launch=True, lambda_su=1e-3)
        traj = run_dynamics(np.asarray(config.x0), env, controller, config.steps, config.step_size)
        return classify_operating_point(env, traj, config.extinction_tolerance)

    batched = classify(_env(PayoffParams(d, n, k)))
    singles = [classify(_env(PayoffParams(d[c], n[c], k[c])))[0] for c in range(len(cells))]
    assert [r.classification for r in batched] == [r.classification for r in singles]
    np.testing.assert_allclose([r.terminal_mutant_share for r in batched],
                               [r.terminal_mutant_share for r in singles], rtol=1e-12, atol=0.0)


def _plain_loop(x0, env, schedule, steps, h, freeze_shares):
    """run_dynamics written out over the public steps, one statement each."""
    x = np.array(np.broadcast_to(x0, env.payoffs.batch_shape + np.shape(x0)[-1:]), ndmin=2)
    live = np.ones(len(x), dtype=bool)
    errors = [""] * len(x)
    record = []
    for t in range(steps):
        act = active_su_density(x, env)
        drive = schedule(t, act)
        pi, _, s_su, s_pr = payoff_vector(x, env, drive)
        record.append((x, pi, s_su, s_pr, act, np.broadcast_to(drive.active_density, act.shape),
                       np.broadcast_to(drive.inducement, act.shape)))
        if freeze_shares:
            continue
        new = replicator_step(x, np.where(live[:, None], pi, 0.0), h)
        failed = np.isnan(new[:, 0]) & live
        for c in np.flatnonzero(failed):
            errors[c] = f"{step_failure(pi[c])} (step {t})"
        live &= ~failed
        if not live.any():
            break
        x = np.where(live[:, None], new, x)
    return [np.stack(column) for column in zip(*record)], x, tuple(errors)


def _poisoned(schedule, cells, step):
    """`schedule`, advertising a NaN inducement to `cells` from `step` on;
    a single run's float density counts as one cell."""
    def poisoned(t, observed):
        drive = schedule(t, observed)
        if t < step:
            return drive
        inducement = np.array(np.broadcast_to(drive.inducement, np.shape(observed) or (1,)))
        inducement[cells] = math.nan
        return MuDrive(drive.active_density, inducement)
    return poisoned


NINE = tuple(i / 8 for i in range(9))
loop_case = st.fixed_dictionaries({
    "cells": st.sampled_from([None, 1, 72]),  # None: a 1-D x0 and scalar incentives
    # numpy sums a row of 8 or more in pairwise blocks, fewer in turn
    "probs": st.sampled_from([(0.0, 1.0), (0.0, 0.5, 1.0), (0.2, 0.7), (0.0, 0.3, 0.7, 1.0), NINE]),
    # a delta of 1e13 fails its row after the last halving; a large step needs halvings
    "delta": st.one_of(st.floats(0.5, 50.0), st.just(1e13)),
    "nu": st.floats(0.0, 5.0),
    "kappa": st.floats(0.0, 12.0),
    "h": st.one_of(st.floats(0.01, 0.5), st.floats(0.5, 20.0)),
    "hysteresis": st.integers(1, 6),
    "lambda_mu": st.sampled_from([1e-7, 1e-6, 1e-5]),
    "behavior": st.sampled_from(["silent", "mimic-su"]),
    "launch": st.sampled_from([True, False]),
    "freeze_shares": st.booleans(),
    "poison_step": st.one_of(st.none(), st.integers(0, 30)),
    "seed": st.integers(0, 2 ** 32 - 1),
})


def _loop_example(**overrides):
    case = dict(cells=72, probs=(0.0, 1.0), delta=10.0, nu=1.0, kappa=0.0, h=0.1, hysteresis=5, lambda_mu=1e-7,
                behavior="silent", launch=True, freeze_shares=False, poison_step=None, seed=7)
    return example(case={**case, **overrides})


def _loop_cases(test):
    """`test` over drawn loop cases, and over the examples that always run."""
    for overrides in ({}, dict(delta=1e13, h=3.0, poison_step=4, behavior="mimic-su", lambda_mu=1e-5),
                      dict(cells=None, probs=(0.0, 0.5, 1.0), h=4.0, poison_step=6),
                      dict(cells=None, probs=(0.0, 0.3, 0.7, 1.0), kappa=3.0),
                      dict(cells=None, probs=NINE, kappa=3.0, behavior="mimic-su", lambda_mu=1e-5),
                      dict(cells=1, freeze_shares=True, behavior="mimic-su", launch=False)):
        test = _loop_example(**overrides)(test)
    return settings(max_examples=40, deadline=None)(given(loop_case)(test))


def _loop_inputs(case):
    """The case's start shares and environment, and a factory of fresh schedules."""
    rng = np.random.default_rng(case["seed"])
    m, n = len(case["probs"]), case["cells"] or 1
    # shares with exact zeros and ones among them
    weights = rng.integers(0, 4, size=(n, m)) * rng.random((n, m))
    weights[weights.sum(axis=1) == 0, 0] = 1.0
    x0 = weights / weights.sum(axis=1, keepdims=True)
    if case["cells"] is None:
        x0, payoffs = x0[0], PayoffParams(case["delta"], case["nu"], case["kappa"])
    else:
        # the drawn incentives in the first cell, and drawn around them in the others
        scale = np.concatenate([[1.0], rng.uniform(0.1, 2.0, n - 1)])
        payoffs = PayoffParams(case["delta"] * scale, case["nu"] * scale[::-1], case["kappa"] * rng.random(n))
    env = GameEnv(channel=CH, payoffs=payoffs, access_probs=case["probs"])
    poisoned_cells = rng.permutation(n)[:max(1, n // 3)]

    def schedule():
        controller = AttackController(case["lambda_mu"], CAP, launch=case["launch"], inactive_behavior=case["behavior"],
                                      lambda_su=1e-3, hysteresis=case["hysteresis"])
        if case["poison_step"] is None:
            return controller
        return _poisoned(controller, poisoned_cells, case["poison_step"])

    return x0, env, schedule


LOOP_STEPS = 40
STEP_FIELDS = ("shares", "payoffs", "s_su", "s_pr", "active_su_density", "mu_density", "inducement")


@_loop_cases
def test_run_dynamics_equals_a_plain_loop_over_the_public_steps(case):
    x0, env, schedule = _loop_inputs(case)
    traj = run_dynamics(x0, env, schedule(), LOOP_STEPS, case["h"], freeze_shares=case["freeze_shares"])
    columns, final_shares, errors = _plain_loop(x0, env, schedule(), LOOP_STEPS, case["h"], case["freeze_shares"])
    for name, b in zip(STEP_FIELDS, columns):
        a = getattr(traj, name)
        assert (a.shape, a.tobytes()) == (b.shape, b.tobytes()), name
    assert traj.final_shares.tobytes() == final_shares.tobytes()
    assert traj.errors == errors


@_loop_cases
def test_a_history_free_run_holds_the_full_runs_last_step(case):
    x0, env, schedule = _loop_inputs(case)
    full = run_dynamics(x0, env, schedule(), LOOP_STEPS, case["h"], freeze_shares=case["freeze_shares"])
    last = run_dynamics(x0, env, schedule(), LOOP_STEPS, case["h"], freeze_shares=case["freeze_shares"],
                        history=False)
    for name in STEP_FIELDS:
        a, b = getattr(last, name), getattr(full, name)[-1:]
        assert (a.shape, a.tobytes()) == (b.shape, b.tobytes()), name
    assert last.final_shares.tobytes() == full.final_shares.tobytes()
    assert last.errors == full.errors


@pytest.mark.parametrize("preset", ["fig3-population", "fig4-sinr-kappa0", "fig5-sinr-kappa8"])
@pytest.mark.parametrize("launch", [True, False])
@pytest.mark.parametrize("history", [False, True])  # the history-free forecast, and the kept pass
def test_a_presets_passes_step_alike_on_floats_and_on_a_batch_of_one(preset, launch, history):
    config = build_presets()[preset]
    scalar = config.env
    pay = scalar.payoffs
    batch_of_one = replace(scalar, payoffs=PayoffParams(*(np.array([v]) for v in (pay.delta, pay.nu, pay.kappa))))
    floats, arrays = (run_dynamics(np.asarray(config.x0), env, config.controller(launch), config.steps,
                                   config.step_size, history=history) for env in (scalar, batch_of_one))
    for name in (*STEP_FIELDS, "final_shares"):
        a, b = getattr(floats, name), getattr(arrays, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
    assert floats.errors == arrays.errors == ("",)


@settings(max_examples=60, deadline=None)
@given(st.fixed_dictionaries({
    "cells": st.sampled_from([None, 1, 72]),
    "probs": st.sampled_from([(0.0, 1.0), (0.0, 0.5, 1.0), (0.2, 0.7)]),
    "mu_density": st.one_of(st.just(0.0), st.floats(1e-9, 1e-4)),
    "inducement": st.one_of(st.just(1.0), st.floats(0.0, 1.0)),
    "per_cell_drive": st.booleans(),
    "lambda_pt": st.floats(0.0, 1e-4),
    "pt_at": st.tuples(st.booleans(), st.booleans()),
    "seed": st.integers(0, 2 ** 32 - 1),
}))
def test_payoff_vector_equals_the_public_formulas(case):
    # the step's held terms add up to the bits of link_budget.success,
    # perception_prob and access_payoff evaluated from scratch
    rng = np.random.default_rng(case["seed"])
    m, n = len(case["probs"]), case["cells"] or 1
    x = rng.dirichlet(np.ones(m), n)
    payoffs = PayoffParams(*(rng.uniform(0.5, 20.0, n) for _ in range(3)))
    if case["cells"] is None:
        x, payoffs = x[0], PayoffParams(10.0, 1.0, 2.0)
    density, inducement = case["mu_density"], case["inducement"]
    if case["per_cell_drive"] and case["cells"]:
        density, inducement = density * rng.random(n), inducement * rng.random(n)
    env = GameEnv(channel=CH, payoffs=payoffs, access_probs=case["probs"], lambda_pt=case["lambda_pt"],
                  include_pt_interference_at_su=case["pt_at"][0], include_pt_interference_at_pr=case["pt_at"][1])
    pi, q, s_su, s_pr = payoff_vector(x, env, MuDrive(density, inducement))
    act = active_su_density(x, env)
    want_q = 1.0 - (1.0 - perception_prob(act + density, env.sensing_radius)) * (1.0 - inducement)
    densities = (np.asarray(act)[..., None], np.asarray(density)[..., None], env.lambda_pt)
    want_su, want_pr = np.moveaxis(env.link_budget.success(densities), -1, 0)
    cell_dims = max(np.ndim(want_q), len(payoffs.batch_shape))
    p = env.probs.reshape((-1,) + (1,) * cell_dims)
    want_pi = access_payoff(p, want_q, want_su, payoffs).T
    for got, want in ((pi, want_pi), (q, want_q), (s_su, want_su), (s_pr, want_pr)):
        assert np.shape(got) == np.shape(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


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


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 4).flatmap(lambda m: st.tuples(
    st.lists(st.lists(st.integers(0, 50), min_size=m, max_size=m).filter(any), min_size=1, max_size=6),
    st.lists(st.lists(st.one_of(st.floats(-1e6, 1e6), st.sampled_from([math.inf, -math.inf, math.nan])),
                      min_size=m, max_size=m), min_size=6, max_size=6),
    st.floats(0.01, 20.0),
)))
def test_replicator_nonfinite_rows_come_back_nan_and_spare_the_others(case):
    weights, payoffs, h = case
    x = np.array(weights, dtype=float)
    x /= x.sum(axis=1, keepdims=True)
    pi = np.array(payoffs[:len(x)])
    new = replicator_step(x, pi, h)
    for row, p, got in zip(x, pi, new):
        if np.isfinite(p).all():
            assert got.tobytes() == replicator_step(row, p, h).tobytes()
        else:
            assert np.isnan(got).all()


# payoffs that overflow a step, make it fail or need halvings, and fail it as non-finite
edge_payoff = st.one_of(st.floats(-1e6, 1e6), st.sampled_from([math.inf, -math.inf, math.nan, 1e300, -1e300]))


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 3).flatmap(lambda m: st.tuples(
    # weights with exact zeros, so that shares of exactly 0.0 and 1.0 occur
    st.lists(st.one_of(st.just(0.0), st.floats(0.0, 50.0)), min_size=m, max_size=m).filter(any),
    st.lists(edge_payoff, min_size=m, max_size=m),
)), st.floats(1e-3, 20.0))
@example(([1.0, 1.0], [math.inf, 0.0]), 0.1)
@example(([1.0, 1.0], [0.0, math.inf]), 0.1)
@example(([1.0, 1.0], [math.inf, math.inf]), 0.1)
@example(([1.0, 1.0], [-1e300, 1e300]), 20.0)
@example(([1.0, 1.0], [0.0, 5.0]), 1.0)  # a factor below zero: the step needs halvings
@example(([0.0, 1.0], [0.0, 5.0]), 0.5)  # below zero on a vacant strategy only
def test_a_float_row_steps_as_its_array_row(case, h):
    # _replicate_row, which a single run and a Monte Carlo run step on, gives
    # the bits of _replicate on the same row; NaN where that row failed
    weights, pi = case
    x = [w / sum(weights) for w in weights]
    with np.errstate(over="ignore", invalid="ignore"):
        want = _replicate(np.array([x]), np.array([pi]), h)[0]
        got = np.array(_replicate_row(x, pi, h))
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


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
    traj = run_dynamics(np.array([0.9, 0.1]), _env(payoffs), schedule, 20, 0.1)
    assert traj.errors[0] == traj.errors[2] == ""
    assert "non-finite payoffs" in traj.errors[1] and "step 3" in traj.errors[1]
    assert np.array_equal(traj.final_shares[1], traj.shares[3, 1])  # frozen at its last good shares
    for c in (0, 2):
        one = run_dynamics(np.array([0.9, 0.1]), _env(PayoffParams(10.0, 1.0, float(payoffs.kappa[c]))),
                           lambda t, observed: MuDrive(5e-7, 0.0), 20, 0.1)
        np.testing.assert_allclose(traj.final_shares[c], one.final_shares[0], rtol=1e-12, atol=0.0)
    one = run_dynamics(np.array([0.9, 0.1]), _env(PayoffParams()),
                       lambda t, observed: MuDrive(5e-7, math.nan if t >= 3 else 0.0), 20, 0.1)
    assert one.errors == (traj.errors[1],)  # a single run reports its failure the same way
    assert np.array_equal(one.final_shares, one.shares[3])
