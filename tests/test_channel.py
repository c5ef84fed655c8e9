import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import empirical_success_prob
from specgame.channel import (
    ChannelParams,
    InterfererField,
    LinkBudget,
    max_allowable_su_density,
    path_gain,
    success_prob,
)
from specgame.game import GameEnv, PayoffParams

PARAMS = ChannelParams()  # production parameter set


def median_sinr(link_distance, link_power, fields, params):
    """The SINR level with success_prob 0.5: the link's budget at threshold 1,
    solved for its median."""
    budget = LinkBudget.of(link_distance, link_power, 1.0, [f.power for f in fields], params)
    return budget.median([f.density for f in fields])


def test_channel_params_invariants():
    with pytest.raises(ValueError):
        ChannelParams(alpha=2.0)
    with pytest.raises(ValueError):
        ChannelParams(noise=0.0)
    with pytest.raises(ValueError):
        ChannelParams(pr_outage_constraint=1.0)
    with pytest.raises(ValueError):
        ChannelParams(su_power=-0.1)
    with pytest.raises(ValueError, match="finite"):
        ChannelParams(pt_link_distance=math.inf)


def test_interferer_field_invariants():
    InterfererField(0.0, 0.1)
    InterfererField(np.array([0.0, 1e-5]), 0.1)
    with pytest.raises(ValueError):
        InterfererField(-1e-9, 0.1)
    with pytest.raises(ValueError):
        InterfererField(np.array([1e-5, -1e-9]), 0.1)
    with pytest.raises(ValueError):
        InterfererField(1e-5, 0.0)


def test_path_gain_values():
    assert path_gain(1.0, PARAMS) == 1.0
    assert path_gain(10.0, PARAMS) == pytest.approx(1e-4, rel=1e-12)
    assert path_gain(15.0, PARAMS) == pytest.approx(1.0 / 50625.0, rel=1e-12)
    # distances below min_distance are clamped to it
    clamped = path_gain(np.array([0.0, 0.5, 1.0, 2.0]), ChannelParams(min_distance=2.0))
    assert clamped.tolist() == [2.0 ** -4] * 4


def test_field_constant():
    assert ChannelParams(alpha=4.0).field_const == pytest.approx(math.pi / 2.0, abs=1e-15)
    assert ChannelParams(alpha=2.01).field_const > 100.0
    for alpha in (2.1, 3.0, 4.0, 6.0, 8.0):
        assert math.isfinite(ChannelParams(alpha=alpha).field_const)
    with pytest.raises(ValueError):
        ChannelParams(alpha=2.0)


def test_success_prob_no_interference():
    # noise-only: exp(-eta N r^alpha / P), verified against raw fading draws
    exponent = 3.0 * 1e-9 * 15.0 ** 4 / 0.3
    closed = success_prob(15.0, 0.3, 3.0, [], PARAMS)
    assert closed == pytest.approx(math.exp(-exponent), rel=1e-12)
    draws = np.random.default_rng(2).exponential(1.0, size=1_000_000)
    assert abs(closed - np.mean(draws >= exponent)) <= 0.001


def test_success_prob_limit_one():
    tiny = ChannelParams(noise=1e-30)
    assert success_prob(15.0, 0.3, 1e-6, [], tiny) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("eta", [0.0, -1.0, math.nan])
def test_success_prob_refuses_a_threshold_not_above_zero(eta):
    with pytest.raises(ValueError, match="eta must be positive"):
        success_prob(15.0, 0.3, eta, [InterfererField(4e-5, 0.1)], PARAMS)


def test_success_prob_bounds_and_monotonicity():
    base = success_prob(15.0, 0.3, 3.0, [InterfererField(4e-5, 0.1)], PARAMS)
    assert 0.0 <= base <= 1.0
    assert success_prob(15.0, 0.3, 3.0, [InterfererField(8e-5, 0.1)], PARAMS) < base
    assert success_prob(15.0, 0.3, 6.0, [InterfererField(4e-5, 0.1)], PARAMS) < base
    assert success_prob(20.0, 0.3, 3.0, [InterfererField(4e-5, 0.1)], PARAMS) < base
    assert success_prob(15.0, 0.6, 3.0, [InterfererField(4e-5, 0.1)], PARAMS) > base
    noisy = ChannelParams(noise=1e-6)
    assert success_prob(15.0, 0.3, 3.0, [InterfererField(4e-5, 0.1)], noisy) < base


def test_max_allowable_su_density_closed_form():
    # independent arithmetic for the inversion of the success probability
    expected = (-math.log(1.0 - 0.05) - 3.0 * 1e-9 * 15.0 ** 4 / 0.3) / (
        math.pi * 15.0 ** 2 * (3.0 * 0.1 / 0.3) ** 0.5 * (math.pi / 2.0)
    )
    cap = max_allowable_su_density(PARAMS)
    assert cap == pytest.approx(expected, rel=1e-12)
    assert cap == pytest.approx(4.57e-5, rel=2e-3)


def test_max_allowable_su_density_round_trip():
    cap = max_allowable_su_density(PARAMS)
    s = success_prob(15.0, 0.3, 3.0, [InterfererField(cap, 0.1)], PARAMS)
    assert abs(s - 0.95) <= 1e-12


def test_max_allowable_su_density_noise_limited():
    # outage budget smaller than the pure-noise outage: nothing admissible
    with pytest.raises(ValueError, match="noise-limited"):
        max_allowable_su_density(ChannelParams(pr_outage_constraint=1e-4))


def test_max_allowable_su_density_power_scaling():
    # doubling the interferer power scales the cap by 2^(-2/alpha) = 1/sqrt(2)
    cap = max_allowable_su_density(PARAMS)
    cap2 = max_allowable_su_density(ChannelParams(su_power=0.2))
    assert cap2 / cap == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12)


def test_median_sinr_self_consistency():
    fields = [InterfererField(max_allowable_su_density(PARAMS), 0.1)]
    eta_star = median_sinr(15.0, 0.3, fields, PARAMS)
    assert abs(success_prob(15.0, 0.3, eta_star, fields, PARAMS) - 0.5) <= 1e-6


def test_median_sinr_zero_interference():
    eta_star = median_sinr(15.0, 0.3, [], PARAMS)
    assert eta_star > 1e3
    assert abs(success_prob(15.0, 0.3, eta_star, [], PARAMS) - 0.5) <= 1e-6


def test_median_sinr_decreases_with_fields():
    base = median_sinr(15.0, 0.3, [], PARAMS)
    with_field = median_sinr(15.0, 0.3, [InterfererField(1e-5, 0.1)], PARAMS)
    denser = median_sinr(15.0, 0.3, [InterfererField(1e-4, 0.1)], PARAMS)
    assert with_field < base
    assert denser < with_field


def _bisection_median(link_distance, link_power, fields, params, rel_tol=1e-6):
    """Oracle: success_prob(eta) = 0.5 by bisection on log eta over [1e-6, 1e9]."""
    def s(eta):
        return success_prob(link_distance, link_power, eta, fields, params)

    lo, hi = math.log(1e-6), math.log(1e9)
    assert s(1e-6) >= 0.5 >= s(1e9)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if s(math.exp(mid)) >= 0.5:
            lo = mid
        else:
            hi = mid
        if hi - lo <= rel_tol and abs(s(math.exp(0.5 * (lo + hi))) - 0.5) <= 1e-7:
            break
    return math.exp(0.5 * (lo + hi))


@pytest.mark.parametrize("alpha", [2.5, 3.0, 4.0, 5.0])
def test_median_sinr_matches_bisection_oracle(alpha):
    params = ChannelParams(alpha=alpha)
    densities = np.concatenate([[0.0], np.geomspace(1e-7, 1e-2, 40)])
    fields = [InterfererField(densities, 0.1), InterfererField(1e-5, 0.3)]
    medians = median_sinr(15.0, 0.3, fields, params)
    assert medians.shape == densities.shape
    for d, got in zip(densities, medians):
        oracle = _bisection_median(15.0, 0.3, [InterfererField(d, 0.1), InterfererField(1e-5, 0.3)], params)
        assert got == pytest.approx(oracle, rel=1e-6)
        assert median_sinr(15.0, 0.3, [InterfererField(d, 0.1), InterfererField(1e-5, 0.3)], params) == got


def test_success_prob_broadcasts_and_decreases_in_density():
    densities = np.linspace(0.0, 1e-4, 11)
    probs = success_prob(10.0, 0.1, 3.0, [InterfererField(densities, 0.1)], PARAMS)
    assert probs.shape == densities.shape
    assert np.all(np.diff(probs) < 0)
    assert probs[4] == success_prob(10.0, 0.1, 3.0, [InterfererField(densities[4], 0.1)], PARAMS)


@pytest.mark.parametrize("noise", [PARAMS.noise, 1e-20, 1e-300])
def test_noise_limited_median_sinr(noise):
    # with no field, noise * v = ln 2: however large, the median is solved, not
    # refused; Newton works on ln v, whose last ulp at ln v ~ 680 is ~1e-13 of v
    params = ChannelParams(noise=noise)
    want = math.log(2.0) / (noise * 15.0 ** params.alpha / 0.3)
    assert median_sinr(15.0, 0.3, [], params) == pytest.approx(want, rel=1e-12)
    assert median_sinr(15.0, 0.3, [InterfererField(0.0, 0.1)], params) == pytest.approx(want, rel=1e-12)


def test_median_sinr_that_underflows_is_refused():
    with pytest.raises(ValueError, match="not a positive finite float"):
        median_sinr(15.0, 0.3, [InterfererField(1e300, 0.1)], PARAMS)


def test_empirical_success_prob_matches_closed_form_smoke():
    # compact version of the acceptance grid: one interior point
    fields = [InterfererField(4.574e-5, 0.1)]
    closed = success_prob(15.0, 0.3, 3.0, fields, PARAMS)
    emp = empirical_success_prob(15.0, 0.3, 3.0, fields, PARAMS, region_side=1000.0,
                                 n_topologies=3000, n_fading=40, rng=np.random.default_rng(21))
    assert abs(closed - emp) <= 0.01


@st.composite
def _budget_case(draw):
    """Random valid channel, SU and MU densities (scalars or arrays of one
    shape), and a primary field reaching either receiver or neither."""
    uniform = lambda lo, hi: st.floats(lo, hi, allow_nan=False, allow_infinity=False)
    params = ChannelParams(
        alpha=draw(uniform(2.2, 6.0)),
        noise=10.0 ** draw(uniform(-13.0, -8.0)),
        pt_power=draw(uniform(0.01, 2.0)),
        pt_link_distance=draw(uniform(1.0, 50.0)),
        pr_sinr_threshold=draw(uniform(0.1, 10.0)),
        pr_outage_constraint=draw(uniform(0.01, 0.5)),
        su_power=draw(uniform(0.01, 2.0)),
        su_link_distance=draw(uniform(1.0, 50.0)),
        su_sinr_threshold=draw(uniform(0.1, 10.0)),
        mu_power=draw(uniform(0.01, 2.0)),
    )
    n = draw(st.integers(0, 4))  # 0: scalar densities
    density = uniform(0.0, 1e-3)
    su, mu = (draw(density) if n == 0 else np.array(draw(st.lists(density, min_size=n, max_size=n)))
              for _ in range(2))
    env = GameEnv(params, PayoffParams(), lambda_pt=draw(uniform(0.0, 1e-4)),
                  include_pt_interference_at_su=draw(st.booleans()),
                  include_pt_interference_at_pr=draw(st.booleans()))
    return env, su, mu


def _closed_form(r, power, eta, fields, ch):
    """Oracle: the module docstring's success probability, its exponent added
    term by term in the order the kernel promises (noise, then each field)."""
    k = 2.0 / ch.alpha
    exponent = eta * ch.noise * r ** ch.alpha / power
    for f in fields:
        exponent = exponent + f.density * (math.pi * r ** 2 * (f.power / power) ** k * ch.field_const
                                           * eta ** k)
    return np.exp(-exponent) if np.ndim(exponent) else math.exp(-exponent)


@settings(max_examples=300, deadline=None)
@given(_budget_case())
def test_link_budget_matches_general_kernel(case):
    env, su, mu = case
    ch = env.channel
    links = [(ch.su_link_distance, ch.su_power, ch.su_sinr_threshold, env.include_pt_interference_at_su),
             (ch.pt_link_distance, ch.pt_power, ch.pr_sinr_threshold, env.include_pt_interference_at_pr)]
    shape = np.broadcast(su, mu).shape
    # the SU and PR links side by side on a trailing axis
    densities = (np.asarray(su)[..., None], np.asarray(mu)[..., None], env.lambda_pt)
    budget = env.link_budget
    success = budget.success(densities)
    try:
        medians = budget.median(densities)
    except ValueError:
        medians = None

    def fields(pt_reaches, d_su, d_mu):
        pt = [InterfererField(env.lambda_pt, ch.pt_power)] if pt_reaches else []
        return [InterfererField(d_su, ch.su_power), InterfererField(d_mu, ch.mu_power)] + pt

    for i, (r, power, eta, pt_reaches) in enumerate(links):
        # the same products summed in the same order: bit for bit where both
        # take np.exp, and within an ulp where the general kernel takes
        # math.exp of a scalar
        want = success_prob(r, power, eta, fields(pt_reaches, su, mu), ch)
        np.testing.assert_array_equal(want, _closed_form(r, power, eta, fields(pt_reaches, su, mu), ch))
        np.testing.assert_allclose(success[..., i], want, rtol=0 if shape else 1e-15, atol=0)
        if medians is None:
            continue
        # Newton stops after its first step below 1e-13 * |ln eta| (below 40
        # for these draws), and converges quadratically, so the medians solved
        # at the link threshold and at 1 agree to a few ulps
        np.testing.assert_allclose(medians[..., i], median_sinr(r, power, fields(pt_reaches, su, mu), ch),
                                   rtol=2e-14)
        for j in np.ndindex(shape):
            d_su, d_mu, eta_j = (np.broadcast_to(a, shape)[j] for a in (su, mu, medians[..., i]))
            assert success_prob(r, power, eta_j, fields(pt_reaches, d_su, d_mu), ch) == pytest.approx(0.5, abs=5e-12)
    if medians is None:  # some median is not a positive finite float: the general kernel agrees
        with pytest.raises(ValueError, match="not a positive finite float"):
            for r, power, _, pt_reaches in links:
                median_sinr(r, power, fields(pt_reaches, su, mu), ch)
    try:
        cap = max_allowable_su_density(ch)
    except ValueError as exc:
        assert "noise-limited" in str(exc)
        return
    # the cap sits on the primary outage constraint of the same PR budget
    s_pr = budget.success((cap, 0.0, 0.0))[1]
    assert s_pr == pytest.approx(1.0 - ch.pr_outage_constraint, rel=1e-14)
    assert s_pr == pytest.approx(success_prob(ch.pt_link_distance, ch.pt_power, ch.pr_sinr_threshold,
                                              [InterfererField(cap, ch.su_power)], ch), rel=1e-15)
