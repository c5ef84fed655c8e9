"""The Monte Carlo window's interference gain matrix and sensing neighbour list."""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specgame.channel import ChannelParams, path_gain
from specgame.engine import TOPOLOGY_BLOCK_ROWS, ScenarioConfig, _sample_topology, _sensing_neighbours, _Topology
from specgame.geometry import NodeSet, Region, World, pairwise_toroidal


def _world(side, pts, prs, sus, su_rx, mus):
    def nodes(xs, tag):
        return NodeSet(np.asarray(xs, dtype=float).reshape(-1, 2), tag)

    return World(Region(side), nodes(pts, "PT"), nodes(prs, "PR"), nodes(sus, "SU"),
                 nodes(su_rx, "SU_RX"), nodes(mus, "MU"))


def _dense_sense(topo):
    """The neighbour list expanded to a float32 SU x (SU + MU) 0/1 matrix."""
    sense = np.zeros((topo.n_su, topo.n_su + topo.n_mu), dtype=np.float32)
    rows = np.repeat(np.arange(topo.n_su), np.diff(topo.sense_indptr))
    sense[rows, topo.sense_indices] = 1.0
    return sense


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
    assert (topo.sense_indptr.tolist(), topo.sense_indices.tolist()) == ([0, 1, 2], [2, 2])
    assert _dense_sense(topo).tolist() == [[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]]


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
    assert _dense_sense(topo).tolist() == within.astype(float).tolist()


def _whole_matrices(world, config):
    """`gain` and `sense` built from one distance call each, zeroed as `_Topology` does."""
    n_pt, n_su, n_mu = len(world.pts), len(world.sus), len(world.mus)
    receivers = np.concatenate([world.prs.positions, world.su_receivers.positions])
    senders = np.concatenate([world.sus.positions, world.mus.positions])
    transmitters = np.concatenate([senders, world.pts.positions])
    gain = path_gain(pairwise_toroidal(receivers, transmitters, world.region), config.channel)
    np.fill_diagonal(gain[n_pt:, :n_su], 0.0)
    pt_cols = slice(n_su + n_mu, None)
    if config.include_pt_interference_at_pr:
        np.fill_diagonal(gain[:n_pt, pt_cols], 0.0)
    else:
        gain[:n_pt, pt_cols] = 0.0
    if not config.include_pt_interference_at_su:
        gain[n_pt:, pt_cols] = 0.0
    sense = (pairwise_toroidal(world.sus.positions, senders, world.region) <= config.sensing_radius).astype(np.float32)
    np.fill_diagonal(sense, 0.0)
    return gain, sense


@pytest.mark.parametrize("at_su", [True, False])
@pytest.mark.parametrize("at_pr", [True, False])
@pytest.mark.parametrize("n_pt,n_mu", [(0, 0), (3, 2)])
@pytest.mark.parametrize("n_su", [1, 63, 64, 65, 129])
def test_blocked_build_matches_whole_matrices(n_su, n_pt, n_mu, at_pr, at_su):
    # row counts on both sides of each block edge, with the PR rows shifting
    # where the SU receivers start
    assert TOPOLOGY_BLOCK_ROWS == 64
    side = 300.0
    rng = np.random.default_rng(1000 * n_su + 10 * n_pt + n_mu)
    world = _world(side, *(rng.uniform(0.0, side, size=(n, 2)) for n in (n_pt, n_pt, n_su, n_su, n_mu)))
    config = _config(include_pt_interference_at_pr=at_pr, include_pt_interference_at_su=at_su)
    topo = _Topology(world, config)
    gain, sense = _whole_matrices(world, config)
    assert (topo.gain.shape, topo.gain.dtype) == (gain.shape, gain.dtype)
    assert topo.gain.tobytes() == gain.tobytes()
    assert _dense_sense(topo).tobytes() == sense.tobytes()


def test_topology_build_holds_no_full_size_distance_temporaries():
    # ~1,023 SUs: a distance temporary the size of a whole matrix would add
    # at least gain.nbytes on top of what the build keeps
    config = ScenarioConfig(mode="montecarlo", region_side=1000.0, seed=4)
    tracemalloc.start()
    try:
        topo = _sample_topology(config, np.random.default_rng(config.seed))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert topo.n_su > 1000
    assert peak <= 1.5 * (topo.gain.nbytes + topo.sense_indptr.nbytes + topo.sense_indices.nbytes)


def test_sensing_build_allocates_no_su_by_su_array():
    # a dense SU x SU array, even one byte per entry, would take n_su ** 2 bytes
    config = ScenarioConfig(mode="montecarlo", region_side=1000.0, seed=4)
    world = _sample_topology(config, np.random.default_rng(config.seed)).world
    senders = np.concatenate([world.sus.positions, world.mus.positions])
    args = (world.sus.positions, senders, config.sensing_radius, world.region)
    _sensing_neighbours(*args)  # first calls allocate numpy's own caches
    tracemalloc.start()
    try:
        indptr, indices = _sensing_neighbours(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(world.sus) > 1000 and len(indices) > 5 * len(world.sus)
    assert peak < len(world.sus) ** 2


@pytest.mark.parametrize("n_mu", [0, 4])
@pytest.mark.parametrize("window", [1, 7, 8, 9, 20, 65])
def test_packed_perception_matches_dense_product(window, n_mu):
    # a crowd of SUs in one corner, so most sense someone, and lone SUs far
    # apart, which sense nobody
    side = 1000.0
    rng = np.random.default_rng(100 * window + n_mu)
    crowd = rng.uniform(0.0, 80.0, size=(30, 2))
    lone = [[300.0, 300.0], [500.0, 700.0], [800.0, 400.0]]
    sus = np.concatenate([crowd, lone])
    world = _world(side, [], [], sus, sus + 10.0, rng.uniform(0.0, 80.0, size=(n_mu, 2)))
    topo = _Topology(world, _config())
    assert (topo.n_su, topo.n_mu) == (33, n_mu)
    assert np.diff(topo.sense_indptr)[-3:].tolist() == [0, 0, 0]
    for density in (0.05, 0.5, 1.0):
        tx = rng.random((33 + n_mu, window)) < density
        got = topo.neighbor_active(tx)
        assert (got.shape, got.dtype) == ((33, window), np.bool_)
        assert got.tolist() == ((_dense_sense(topo) @ tx) > 0).tolist()
