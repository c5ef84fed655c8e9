"""The Monte Carlo window's interference gain and sensing matrices."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specgame.channel import ChannelParams, path_gain
from specgame.engine import ScenarioConfig, _Topology
from specgame.geometry import NodeSet, Region, World, pairwise_toroidal


def _world(side, pts, prs, sus, su_rx, mus):
    def nodes(xs, tag):
        return NodeSet(np.asarray(xs, dtype=float).reshape(-1, 2), tag)

    return World(Region(side), nodes(pts, "PT"), nodes(prs, "PR"), nodes(sus, "SU"),
                 nodes(su_rx, "SU_RX"), nodes(mus, "MU"))


def _config(**kwargs):
    return ScenarioConfig(mode="montecarlo", channel=ChannelParams(min_distance=2.0), sensing_radius=50.0, **kwargs)


# every node on the x axis of a 1000 m torus, so each distance is exact:
# the PT at x = 990 serves its receiver at x = 5 (15 m across the seam), SU1
# at 100 serves 110, SU2 at 160 serves 150, and the MU sits at 110.5, 0.5 m
# from SU1's receiver (below min_distance)
HAND = _world(1000.0, [[990, 0]], [[5, 0]], [[100, 0], [160, 0]], [[110, 0], [150, 0]], [[110.5, 0]])


@pytest.mark.parametrize("at_su", [True, False])
@pytest.mark.parametrize("at_pr", [True, False])
def test_hand_placed_gain_and_sense(at_pr, at_su):
    topo = _Topology(HAND, _config(include_pt_interference_at_pr=at_pr, include_pt_interference_at_su=at_su))
    assert (topo.n_pt, topo.n_su, topo.n_mu) == (1, 2, 1)
    pt = 1.0 if at_su else 0.0
    # rows: PR, SU1 rx, SU2 rx; columns: SU1, SU2, MU, PT. The PR's only PT is
    # its own transmitter, so its PT column is 0 under either flag.
    expected = [
        [95.0 ** -4, 155.0 ** -4, 105.5 ** -4, 0.0],
        [0.0, 50.0 ** -4, 2.0 ** -4, pt * 120.0 ** -4],
        [50.0 ** -4, 0.0, 39.5 ** -4, pt * 160.0 ** -4],
    ]
    assert topo.gain.tolist() == expected
    # rows: SU1, SU2; columns: SU1, SU2, MU (SU1-SU2 is 60 m, beyond 50 m)
    assert topo.sense.tolist() == [[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]]


def test_pr_pt_columns_follow_the_flag():
    # two PT/PR pairs: a PR hears the other pair's PT only when the flag is on
    world = _world(1000.0, [[0, 0], [40, 0]], [[15, 0], [25, 0]], [[500, 0]], [[510, 0]], [])
    on = _Topology(world, _config(include_pt_interference_at_pr=True))
    off = _Topology(world, _config(include_pt_interference_at_pr=False))
    assert on.gain[:2, 1:].tolist() == [[0.0, 25.0 ** -4], [25.0 ** -4, 0.0]]
    assert off.gain[:2, 1:].tolist() == [[0.0, 0.0], [0.0, 0.0]]


def _class_sums(world, config, load_su, load_mu, load_pt):
    """Interference at the PRs and the SU receivers, one class pair at a time."""
    ch, region = config.channel, world.region

    def term(rx, tx, load, skip_own=False):
        g = path_gain(pairwise_toroidal(rx.positions, tx.positions, region), ch)
        if skip_own:
            g[np.arange(len(rx)), np.arange(len(rx))] = 0.0
        return g @ load

    i_pr = term(world.prs, world.sus, load_su) + term(world.prs, world.mus, load_mu)
    if config.include_pt_interference_at_pr:
        i_pr += term(world.prs, world.pts, load_pt, skip_own=True)
    i_su = term(world.su_receivers, world.sus, load_su, skip_own=True) + term(world.su_receivers, world.mus, load_mu)
    if config.include_pt_interference_at_su:
        i_su += term(world.su_receivers, world.pts, load_pt)
    return i_pr, i_su


@settings(max_examples=40, deadline=None)
@given(
    n_pt=st.integers(0, 3), n_su=st.integers(1, 6), n_mu=st.integers(0, 3),
    side=st.floats(20.0, 400.0), min_distance=st.floats(0.5, 5.0),
    at_pr=st.booleans(), at_su=st.booleans(), seed=st.integers(0, 2 ** 32 - 1),
)
def test_gain_product_matches_class_sums(n_pt, n_su, n_mu, side, min_distance, at_pr, at_su, seed):
    rng = np.random.default_rng(seed)
    world = _world(side, *(rng.uniform(0.0, side, size=(n, 2)) for n in (n_pt, n_pt, n_su, n_su, n_mu)))
    config = ScenarioConfig(mode="montecarlo", channel=ChannelParams(min_distance=min_distance),
                            include_pt_interference_at_pr=at_pr, include_pt_interference_at_su=at_su)
    topo = _Topology(world, config)
    load_su, load_mu, load_pt = (rng.exponential(size=(n, 3)) * (rng.random((n, 3)) < 0.7)
                                 for n in (n_su, n_mu, n_pt))
    i_pr, i_su = _class_sums(world, config, load_su, load_mu, load_pt)
    got = topo.gain @ np.concatenate([load_su, load_mu, load_pt])
    np.testing.assert_allclose(got, np.concatenate([i_pr, i_su]), rtol=1e-12, atol=0.0)

    d = pairwise_toroidal(world.sus.positions, np.concatenate([world.sus.positions, world.mus.positions]),
                          world.region)
    within = (d <= config.sensing_radius) & ~np.eye(n_su, n_su + n_mu, dtype=bool)
    assert topo.sense.tolist() == within.astype(float).tolist()
