"""The Monte Carlo window's near-field interference blocks, far-field tail and
sensing neighbour list."""
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specgame import engine
from specgame.channel import ChannelParams, path_gain, torus_tail
from specgame.engine import ScenarioConfig, _sample_topology, _sensing_neighbours, _Topology, run_montecarlo
from specgame.geometry import Region, World, pairwise_toroidal

from oracles import exact_interference


def _world(side, pts, prs, sus, su_rx, mus):
    return World(Region(side), *(np.asarray(xs, dtype=float).reshape(-1, 2) for xs in (pts, prs, sus, su_rx, mus)))


def _dense_sense(topo):
    """The neighbour list expanded to a float32 SU x (SU + MU) 0/1 matrix."""
    sense = np.zeros((topo.n_su, topo.n_su + topo.n_mu), dtype=np.float32)
    rows = np.repeat(np.arange(topo.n_su), np.diff(topo.sense_indptr))
    sense[rows, topo.sense_indices] = 1.0
    return sense


def _rtol(topo):
    """The float32 bound for a sum of nonnegative terms: one rounding of each
    gain, load and product, and one per addition of a block column."""
    return (topo.gain.shape[1] + 2) * 2.0 ** -24


def _config(**kwargs):
    return ScenarioConfig(mode="montecarlo", channel=ChannelParams(min_distance=2.0), sensing_radius=50.0, **kwargs)


def _dense_gain(topo):
    """The blocks expanded to a receiver x transmitter (SUs, MUs, PTs) matrix of their dtype."""
    n_tx = topo.n_su + topo.n_mu + topo.n_pt
    dense = np.zeros((len(topo.receivers), n_tx + 1), dtype=topo.gain.dtype)  # the last column collects the padding
    block, row = np.divmod(topo.rx_pos, topo.gain.shape[2])
    np.put_along_axis(dense, topo.cols[block], topo.gain[block, :, row], axis=1)
    assert not dense[:, n_tx].any()
    return dense[:, :n_tx]


# every node on the x axis of a 1000 m torus, so each distance is exact:
# the PT at x = 990 serves its receiver at x = 5 (15 m across the seam), SU1
# at 100 serves 110, SU2 at 160 serves 150, and the MU sits at 110.5, 0.5 m
# from SU1's receiver (below min_distance)
HAND = _world(1000.0, [[990, 0]], [[5, 0]], [[100, 0], [160, 0]], [[110, 0], [150, 0]], [[110.5, 0]])


@pytest.mark.parametrize("at_su", [True, False])
@pytest.mark.parametrize("at_pr", [True, False])
def test_hand_placed_gain_and_sense(at_pr, at_su, monkeypatch):
    # a 1000 m torus has 10 x 10 cells of at least 95 m, 9 x 9 of at least
    # 100 m, and 3 x 3 of at least 300 m, which make one block with no
    # cutoff; the PR is exactly 95 m from SU1
    for cutoff, blocks in ((95.0, 100), (100.0, 81), (300.0, 1)):
        monkeypatch.setattr(engine, "INTERFERENCE_CUTOFF", cutoff)
        topo = _Topology(HAND, _config(include_pt_interference_at_pr=at_pr, include_pt_interference_at_su=at_su))
        assert (topo.n_pt, topo.n_su, topo.n_mu) == (1, 2, 1)
        assert topo.gain.shape[0] == blocks
        assert (topo.far > 0.0) == (blocks > 1)
        near = 1.0 if blocks == 1 else 0.0  # the pairs 100 m or more apart
        pt = 1.0 if at_su else 0.0
        # rows: PR, SU1 rx, SU2 rx; columns: SU1, SU2, MU, PT. The PT column is
        # exact at any distance; the PR's only PT is its own transmitter, so
        # its PT entry is 0 under either flag. The gains are stored rounded once to float32.
        assert _dense_gain(topo).tolist() == np.float32([
            [95.0 ** -4, near * 155.0 ** -4, near * 105.5 ** -4, 0.0],
            [0.0, 50.0 ** -4, 2.0 ** -4, pt * 120.0 ** -4],
            [50.0 ** -4, 0.0, 39.5 ** -4, pt * 160.0 ** -4],
        ]).tolist()
        assert topo.interference_pairs == (7 if blocks == 1 else 5)
        # rows: SU1, SU2; columns: SU1, SU2, MU (SU1-SU2 is 60 m, beyond 50 m)
        assert (topo.sense_indptr.tolist(), topo.sense_indices.tolist()) == ([0, 1, 2], [2, 2])
        assert _dense_sense(topo).tolist() == [[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]]


def test_pr_pt_columns_follow_the_flag():
    # two PT/PR pairs: a PR hears the other pair's PT only when the flag is on
    world = _world(1000.0, [[0, 0], [40, 0]], [[15, 0], [25, 0]], [[500, 0]], [[510, 0]], [])
    on = _Topology(world, _config(include_pt_interference_at_pr=True))
    off = _Topology(world, _config(include_pt_interference_at_pr=False))
    g = float(np.float32(25.0 ** -4))  # a gain is stored in float32
    assert _dense_gain(on)[:2, 1:].tolist() == [[0.0, g], [g, 0.0]]
    assert _dense_gain(off)[:2, 1:].tolist() == [[0.0, 0.0], [0.0, 0.0]]
    load = np.array([[0.0], [1.0], [1.0]])  # the SU silent, both PTs on
    assert on.interference(load)[:2, 0].tolist() == [g, g]
    assert off.interference(load)[:2, 0].tolist() == [0.0, 0.0]


def _class_sums(world, config, load_su, load_mu, load_pt, cutoff=np.inf):
    """Interference at the PRs and the SU receivers, one class pair at a time,
    from SUs and MUs within the cutoff and from every PT."""
    ch, region = config.channel, world.region

    def term(rx, tx, load, skip_own=False, cut=cutoff):
        d = pairwise_toroidal(rx, tx, region)
        g = np.where(d <= cut, path_gain(d, ch), 0.0)
        if skip_own:
            g[np.arange(len(rx)), np.arange(len(rx))] = 0.0
        return g @ load

    i_pr = term(world.prs, world.sus, load_su) + term(world.prs, world.mus, load_mu)
    if config.include_pt_interference_at_pr:
        i_pr += term(world.prs, world.pts, load_pt, skip_own=True, cut=np.inf)
    i_su = term(world.su_receivers, world.sus, load_su, skip_own=True) + term(world.su_receivers, world.mus, load_mu)
    if config.include_pt_interference_at_su:
        i_su += term(world.su_receivers, world.pts, load_pt, cut=np.inf)
    return i_pr, i_su


def _loads(rng, *counts, slots=3):
    return [rng.exponential(size=(n, slots)) * (rng.random((n, slots)) < 0.7) for n in counts]


@settings(max_examples=40, deadline=None)
@given(
    n_pt=st.integers(0, 3), n_su=st.integers(1, 6), n_mu=st.integers(0, 3),
    side=st.floats(20.0, 400.0), min_distance=st.floats(0.5, 5.0),
    at_pr=st.booleans(), at_su=st.booleans(), seed=st.integers(0, 2 ** 32 - 1),
)
def test_gain_product_matches_class_sums(n_pt, n_su, n_mu, side, min_distance, at_pr, at_su, seed):
    # a torus under 4 cutoffs wide is one unpadded block with no cutoff and
    # no tail: the dense float64 product up to float32 rounding
    rng = np.random.default_rng(seed)
    world = _world(side, *(rng.uniform(0.0, side, size=(n, 2)) for n in (n_pt, n_pt, n_su, n_su, n_mu)))
    config = ScenarioConfig(mode="montecarlo", channel=ChannelParams(min_distance=min_distance),
                            include_pt_interference_at_pr=at_pr, include_pt_interference_at_su=at_su)
    with mock.patch.object(engine, "INTERFERENCE_CUTOFF", max(side / 4.0, 16.0)):
        topo = _Topology(world, config)
    assert topo.gain.shape == (1, n_su + n_mu + n_pt, n_pt + n_su) and topo.far == 0.0
    load_su, load_mu, load_pt = _loads(rng, n_su, n_mu, n_pt)
    i_pr, i_su = _class_sums(world, config, load_su, load_mu, load_pt)
    got = topo.interference(np.concatenate([load_su, load_mu, load_pt]))
    assert got.dtype == np.float64
    np.testing.assert_allclose(got, np.concatenate([i_pr, i_su]), rtol=_rtol(topo), atol=0.0)

    d = pairwise_toroidal(world.sus, np.concatenate([world.sus, world.mus]),
                          world.region)
    within = (d <= config.sensing_radius) & ~np.eye(n_su, n_su + n_mu, dtype=bool)
    assert _dense_sense(topo).tolist() == within.astype(float).tolist()


@settings(max_examples=30, deadline=None)
@given(
    n_pt=st.integers(0, 4), n_su=st.integers(1, 80), n_mu=st.integers(0, 5),
    side=st.floats(100.0, 1000.0), cutoff_share=st.floats(0.03, 0.24),
    at_pr=st.booleans(), at_su=st.booleans(), seed=st.integers(0, 2 ** 32 - 1),
)
def test_blocked_product_matches_truncated_sums_plus_tail(n_pt, n_su, n_mu, side, cutoff_share, at_pr, at_su,
                                                          seed):
    # at least 4 x 4 cells: the product equals the pairs within the cutoff,
    # the exact PT columns, and the mean tail of every other sender
    rng = np.random.default_rng(seed)
    world = _world(side, *(rng.uniform(0.0, side, size=(n, 2)) for n in (n_pt, n_pt, n_su, n_su, n_mu)))
    cutoff = max(20.0, cutoff_share * side)
    config = ScenarioConfig(mode="montecarlo", region_side=side,
                            include_pt_interference_at_pr=at_pr, include_pt_interference_at_su=at_su)
    with mock.patch.object(engine, "INTERFERENCE_CUTOFF", cutoff):
        topo = _Topology(world, config)
    assert len(topo.gain) >= 16
    far = torus_tail(cutoff, side, config.channel.alpha) / side ** 2
    assert topo.far == far > 0.0
    load_su, load_mu, load_pt = _loads(rng, n_su, n_mu, n_pt, slots=4)
    i_pr, i_su = _class_sums(world, config, load_su, load_mu, load_pt, cutoff=cutoff)
    total = load_su.sum(axis=0) + load_mu.sum(axis=0)
    want = np.concatenate([i_pr + far * total, i_su + far * (total - load_su)])
    got = topo.interference(np.concatenate([load_su, load_mu, load_pt]))
    np.testing.assert_allclose(got, want, rtol=_rtol(topo), atol=0.0)


def test_sampled_800m_product_matches_class_sums():
    # a real 800 m topology is one block of every pair, several hundred
    # columns wide: far more terms per row than the hypothesis cases
    config = ScenarioConfig(mode="montecarlo", region_side=800.0, seed=11, lambda_mu=1e-5)
    topo = _sample_topology(config, np.random.default_rng(config.seed))
    world = topo.world
    assert topo.gain.shape[0] == 1 and topo.far == 0.0 and topo.gain.shape[2] > 600 and topo.n_mu > 0
    load_su, load_mu, load_pt = _loads(np.random.default_rng(5), topo.n_su, topo.n_mu, topo.n_pt, slots=20)
    i_pr, i_su = _class_sums(world, config, load_su, load_mu, load_pt)
    got = topo.interference(np.concatenate([load_su, load_mu, load_pt]))
    np.testing.assert_allclose(got, np.concatenate([i_pr, i_su]), rtol=_rtol(topo), atol=0.0)


@settings(max_examples=60, deadline=None)
@given(
    n_pt=st.integers(0, 3), n_su=st.integers(1, 40), n_mu=st.integers(0, 3), side=st.floats(100.0, 600.0),
    cutoff_share=st.floats(0.05, 0.5), slots=st.integers(1, 6), sending=st.floats(0.0, 1.0),
    gather=st.sampled_from([0.0, math.inf]), field=st.booleans(), seed=st.integers(0, 2 ** 32 - 1),
)
def test_rechecked_decisions_equal_the_exact_oracle(n_pt, n_su, n_mu, side, cutoff_share, slots, sending, gather,
                                                    field, seed):
    # the float32 product, gathered or whole, stays within its bound of the
    # correctly rounded sums; thresholds drawn from the exact SINRs put
    # entries right on them, and every decision equals the exact one
    rng = np.random.default_rng(seed)
    world = _world(side, *(rng.uniform(0.0, side, size=(n, 2)) for n in (n_pt, n_pt, n_su, n_su, n_mu)))
    config = ScenarioConfig(mode="montecarlo", region_side=side, include_pt_interference_at_pr=True)
    with mock.patch.object(engine, "INTERFERENCE_CUTOFF", max(20.0, cutoff_share * side)), \
            mock.patch.object(engine, "GATHER_SHARE", gather):
        topo = _Topology(world, config)
        load = rng.exponential(size=(n_su + n_mu + n_pt, slots))
        load[:n_su + n_mu] *= (rng.random((n_su + n_mu, 1)) < sending) & (rng.random((n_su + n_mu, slots)) < 0.8)
        extra = rng.exponential(1e-9, size=(n_pt + n_su, slots)) if field else None
        exact = exact_interference(_dense_gain(topo), load, topo.far, n_pt, n_su, extra)
        np.testing.assert_allclose(topo.interference(load, extra), exact, rtol=_rtol(topo), atol=0.0)
        noise = config.channel.noise
        signals = [rng.exponential(1e-7, size=(n, slots)) for n in (n_pt, n_su)]
        exact_sinr = [signal / (noise + part) for signal, part in zip(signals, (exact[:n_pt], exact[n_pt:]))]
        thresholds = tuple(float(rng.choice(s.ravel())) if s.size else 3.0 for s in exact_sinr)
        for (sinr, ok), want, threshold in zip(topo.sinr(load, signals, noise, thresholds, extra), exact_sinr,
                                               thresholds):
            assert ok.tolist() == (want >= threshold).tolist()
            assert ok.tolist() == (sinr >= threshold).tolist()


@settings(max_examples=12, deadline=None)
@given(side=st.floats(250.0, 500.0), cutoff_share=st.floats(0.1, 0.3), steps=st.integers(2, 5),
       window=st.integers(1, 9), p=st.floats(0.05, 1.0), lambda_mu=st.sampled_from([1e-7, 1e-4]),
       seed=st.integers(0, 2 ** 16))
def test_gathered_and_whole_products_decide_alike(side, cutoff_share, steps, window, p, lambda_mu, seed):
    # the gather changes only the float32 summation order, which the
    # recheck takes out of every decision
    with mock.patch.object(engine, "INTERFERENCE_CUTOFF", max(40.0, cutoff_share * side)):
        config = ScenarioConfig(mode="montecarlo", region_side=side, steps=steps, window=window, seed=seed,
                                access_probs=(0.0, p), x0=(0.5, 0.5), lambda_mu=lambda_mu, launch_policy="always")
        runs = []
        for gather in (math.inf, 0.0):
            with mock.patch.object(engine, "GATHER_SHARE", gather):
                runs.append(run_montecarlo(config))
    sinr = {"pr_sinr_db_mean", "pr_sinr_db_median", "su_sinr_db_mean", "su_sinr_db_median"}
    gathered, whole = ({k: v.tolist() for k, v in run.columns.items() if k not in sinr} for run in runs)
    assert repr(gathered) == repr(whole)
    assert runs[0].events == runs[1].events


def _whole_matrices(world, config, cutoff):
    """`gain` (receivers x SUs, MUs, PTs) and `sense` built from one distance
    call each, zeroed as `_Topology` documents."""
    n_pt, n_su, n_mu = len(world.pts), len(world.sus), len(world.mus)
    receivers = np.concatenate([world.prs, world.su_receivers])
    senders = np.concatenate([world.sus, world.mus])
    transmitters = np.concatenate([senders, world.pts])
    d = pairwise_toroidal(receivers, transmitters, world.region)
    gain = path_gain(d, config.channel)
    gain[:, :n_su + n_mu][d[:, :n_su + n_mu] > cutoff] = 0.0
    np.fill_diagonal(gain[n_pt:, :n_su], 0.0)
    pt_cols = slice(n_su + n_mu, None)
    if config.include_pt_interference_at_pr:
        np.fill_diagonal(gain[:n_pt, pt_cols], 0.0)
    else:
        gain[:n_pt, pt_cols] = 0.0
    if not config.include_pt_interference_at_su:
        gain[n_pt:, pt_cols] = 0.0
    sense = (pairwise_toroidal(world.sus, senders, world.region) <= config.sensing_radius).astype(np.float32)
    np.fill_diagonal(sense, 0.0)
    return gain, sense


@pytest.mark.parametrize("at_su", [True, False])
@pytest.mark.parametrize("at_pr", [True, False])
@pytest.mark.parametrize("n_pt,n_mu", [(0, 0), (3, 2)])
@pytest.mark.parametrize("n_su", [1, 63, 64, 65, 129])
def test_blocked_build_matches_whole_matrices(n_su, n_pt, n_mu, at_pr, at_su, monkeypatch):
    # a 300 m torus in 4 x 4 cells of at least 60 m: the blocks expand to
    # the whole float64 matrices rounded once to float32, byte for byte
    side = 300.0
    rng = np.random.default_rng(1000 * n_su + 10 * n_pt + n_mu)
    world = _world(side, *(rng.uniform(0.0, side, size=(n, 2)) for n in (n_pt, n_pt, n_su, n_su, n_mu)))
    monkeypatch.setattr(engine, "INTERFERENCE_CUTOFF", 60.0)
    config = _config(include_pt_interference_at_pr=at_pr, include_pt_interference_at_su=at_su)
    topo = _Topology(world, config)
    gain, sense = _whole_matrices(world, config, 60.0)
    n_blocks, _, rows_per_block = topo.gain.shape
    assert n_blocks == 16
    assert _dense_gain(topo).tobytes() == gain.astype(np.float32).tobytes()
    assert topo.interference_pairs == np.count_nonzero(gain[:, :n_su + n_mu])
    assert _dense_sense(topo).tobytes() == sense.tobytes()
    # each block: every sender at most once, the padding, then every PT; each
    # receiver has a row of its own, and the rows no receiver owns are zero
    n_tx = n_su + n_mu + n_pt
    for cols in topo.cols:
        senders = cols[cols < n_su + n_mu]
        assert len(np.unique(senders)) == len(senders)
        assert cols[len(senders):].tolist() == [n_tx] * (len(cols) - len(senders) - n_pt) + list(range(n_su + n_mu, n_tx))
    assert len(np.unique(topo.rx_pos)) == n_pt + n_su
    padding_rows = np.setdiff1d(np.arange(n_blocks * rows_per_block), topo.rx_pos)
    assert not topo.gain.transpose(0, 2, 1).reshape(n_blocks * rows_per_block, -1)[padding_rows].any()
    # distances are computed a few rows of a block, and of the PT columns,
    # at a time; the rows per call do not change a byte
    monkeypatch.setattr(engine, "BUILD_CHUNK_ENTRIES", 7)
    assert _Topology(world, config).gain.tobytes() == topo.gain.tobytes()


@pytest.mark.parametrize("alpha", [2.5, 3.0, 4.0, 5.0])
@pytest.mark.parametrize("cutoff", [0.2, 0.45, 0.55, 0.6])
def test_torus_tail_matches_midpoint_grid(alpha, cutoff):
    # the integral of r^-alpha over the unit torus square outside the disk,
    # by the midpoint rule on one quadrant (cutoffs on both sides of side/2)
    n = 2000
    h = 0.5 / n
    x = (np.arange(n) + 0.5) * h
    r = np.hypot(x[:, None], x[None, :])
    brute = 4.0 * h * h * float(np.sum(r[r > cutoff] ** -alpha))
    unit = torus_tail(cutoff, 1.0, alpha)
    assert unit == pytest.approx(brute, rel=1e-4)
    # T scales as side^(2 - alpha) at a fixed cutoff / side
    assert torus_tail(cutoff * 300.0, 300.0, alpha) == pytest.approx(unit * 300.0 ** (2.0 - alpha), rel=1e-12)


def test_torus_tail_vanishes_beyond_the_corner():
    assert torus_tail(1.0 / np.sqrt(2.0), 1.0, 4.0) == 0.0
    assert torus_tail(5.0, 1.0, 4.0) == 0.0
    assert 0.0 < torus_tail(0.7, 1.0, 4.0) < torus_tail(0.6, 1.0, 4.0)


def test_topology_build_holds_no_full_size_distance_temporaries():
    # ~1,023 SUs in 16 blocks: a distance temporary the size of a block
    # column, let alone a dense matrix, would exceed the bound; with ~120 PTs
    # (lambda_pt=1e-4), so would their columns built for every receiver at once
    for lambda_pt in (1e-5, 1e-4):
        config = ScenarioConfig(mode="montecarlo", region_side=1000.0, seed=4, lambda_pt=lambda_pt)
        rng = np.random.default_rng(config.seed)  # outside the trace: a first call imports numpy.random
        tracemalloc.start()
        try:
            topo = _sample_topology(config, rng)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert topo.n_su > 1000 and topo.gain.shape[0] == 16
        stored = (topo.gain.nbytes + topo.cols.nbytes + topo.rx_pos.nbytes + topo.sense_indptr.nbytes
                  + topo.sense_indices.nbytes)
        assert peak <= 1.5 * stored, lambda_pt


def test_sensing_build_allocates_no_su_by_su_array():
    # a dense SU x SU array, even one byte per entry, would take n_su ** 2 bytes
    config = ScenarioConfig(mode="montecarlo", region_side=1000.0, seed=4)
    world = _sample_topology(config, np.random.default_rng(config.seed)).world
    senders = np.concatenate([world.sus, world.mus])
    args = (world.sus, senders, config.sensing_radius, world.region)
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
@pytest.mark.parametrize("window", [1, 7, 8, 9, 20, 64, 65, 70, 129])
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
        got = topo.neighbor_active(tx[:33], tx[33:])
        assert (got.shape, got.dtype) == ((33, window), np.bool_)
        assert got.tolist() == ((_dense_sense(topo) @ tx) > 0).tolist()
