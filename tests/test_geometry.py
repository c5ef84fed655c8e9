import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from specgame.geometry import (
    Region,
    attach_receivers,
    pairs_within,
    pairwise_toroidal,
    sample_ppp,
    sample_world,
    toroidal_distance,
)


def test_region_validation():
    assert Region(3000.0).area == 9e6
    with pytest.raises(ValueError):
        Region(0.0)
    with pytest.raises(ValueError):
        Region(-10.0)


def test_zero_density_gives_empty_set():
    region = Region(1000.0)
    ns = sample_ppp(0.0, region, np.random.default_rng(0))
    assert len(ns) == 0


def test_negative_density_rejected():
    with pytest.raises(ValueError):
        sample_ppp(-1e-6, Region(100.0), np.random.default_rng(0))


def test_mean_count_matches_intensity():
    # expectation lambda * A = 1e-5 * 9e6 = 90
    region = Region(3000.0)
    counts = [len(sample_ppp(1e-5, region, np.random.default_rng(seed))) for seed in range(400)]
    assert abs(np.mean(counts) - 90.0) < 2.0  # sd of the mean ~ 0.47


def test_poisson_mean_equals_variance():
    region = Region(1000.0)
    rng = np.random.default_rng(42)
    counts = np.array([len(sample_ppp(1e-3, region, rng)) for _ in range(10_000)])
    # Poisson(1000): sample variance within sampling error of 1000
    assert abs(counts.mean() - 1000.0) < 1.5
    assert abs(counts.var(ddof=1) - 1000.0) < 60.0


def test_poisson_count_gof():
    scipy_stats = pytest.importorskip("scipy.stats")
    region = Region(1000.0)
    rng = np.random.default_rng(7)
    lam = 1e-3 * region.area
    counts = np.array([len(sample_ppp(1e-3, region, rng)) for _ in range(10_000)])
    lo, hi = int(lam - 5 * math.sqrt(lam)), int(lam + 5 * math.sqrt(lam))
    edges = np.arange(lo, hi + 2)
    observed, _ = np.histogram(counts, bins=edges)
    probs = scipy_stats.poisson.pmf(edges[:-1], lam)
    # fold everything outside the window into the edge bins
    probs[0] = scipy_stats.poisson.cdf(lo, lam)
    probs[-1] = scipy_stats.poisson.sf(hi - 1, lam)
    observed[0] += np.sum(counts < lo)
    observed[-1] += np.sum(counts > hi)
    expected = probs * counts.size
    keep = expected >= 5
    obs = np.append(observed[keep], observed[~keep].sum())
    exp = np.append(expected[keep], expected[~keep].sum())
    stat, p = scipy_stats.chisquare(obs, exp * obs.sum() / exp.sum())
    assert p > 0.01


def test_sampling_determinism_bit_exact():
    region = Region(500.0)
    a = sample_ppp(1e-4, region, np.random.default_rng(123))
    b = sample_ppp(1e-4, region, np.random.default_rng(123))
    assert a.positions.tobytes() == b.positions.tobytes()


def test_attach_receivers_empty():
    region = Region(100.0)
    empty = sample_ppp(0.0, region, np.random.default_rng(0))
    rx = attach_receivers(empty, 15.0, region, np.random.default_rng(0))
    assert len(rx) == 0


def test_attach_receivers_exact_distance():
    region = Region(100.0)
    tx = sample_ppp(0.0, region, np.random.default_rng(0))
    tx = type(tx)(positions=np.array([[0.0, 0.0]]), tag="PT")
    rx = attach_receivers(tx, 15.0, region, np.random.default_rng(1))
    assert len(rx) == 1
    assert abs(toroidal_distance(tx.positions[0], rx.positions[0], region) - 15.0) <= 1e-9


def test_attach_receivers_cardinality_and_distances():
    region = Region(2000.0)
    rng = np.random.default_rng(5)
    tx = sample_ppp(5e-5, region, rng)
    rx = attach_receivers(tx, 15.0, region, rng)
    assert len(rx) == len(tx)
    d = np.array([toroidal_distance(p, q, region) for p, q in zip(tx.positions, rx.positions)])
    assert np.max(np.abs(d - 15.0)) <= 1e-9


def test_attach_receivers_bearing_uniformity():
    scipy_stats = pytest.importorskip("scipy.stats")
    region = Region(1000.0)
    rng = np.random.default_rng(11)
    pos = rng.uniform(200.0, 800.0, size=(10_000, 2))
    tx = type(sample_ppp(0.0, region, rng))(positions=pos, tag="PT")
    rx = attach_receivers(tx, 10.0, region, rng)
    delta = rx.positions - tx.positions  # interior points, no wrap
    bearings = np.mod(np.arctan2(delta[:, 1], delta[:, 0]), 2 * np.pi)
    observed, _ = np.histogram(bearings, bins=36, range=(0.0, 2 * np.pi))
    stat, p = scipy_stats.chisquare(observed)
    assert p > 0.01


def test_attach_receivers_link_distance_domain():
    region = Region(100.0)
    tx = type(sample_ppp(0.0, region, np.random.default_rng(0)))(positions=np.zeros((1, 2)), tag="PT")
    for bad in (0.0, -1.0, 50.0, 80.0):
        with pytest.raises(ValueError):
            attach_receivers(tx, bad, region, np.random.default_rng(0))


def test_toroidal_distance_basics():
    region = Region(100.0)
    assert toroidal_distance((3.0, 4.0), (3.0, 4.0), region) == 0.0
    assert toroidal_distance((1.0, 0.0), (99.0, 0.0), region) == pytest.approx(2.0, abs=1e-12)
    assert toroidal_distance((0.0, 0.0), (50.0, 50.0), region) == pytest.approx(50.0 * math.sqrt(2.0), rel=1e-12)


def test_toroidal_distance_is_metric():
    region = Region(100.0)
    rng = np.random.default_rng(3)
    pts = rng.uniform(0.0, 100.0, size=(300, 3, 2))
    bound = 100.0 / math.sqrt(2.0) + 1e-9
    for a, b, c in pts:
        dab = toroidal_distance(a, b, region)
        dba = toroidal_distance(b, a, region)
        dac = toroidal_distance(a, c, region)
        dcb = toroidal_distance(c, b, region)
        assert dab == pytest.approx(dba, abs=1e-12)
        assert dab <= bound
        assert dab <= dac + dcb + 1e-9


def test_vectorized_distances_agree_with_scalar():
    region = Region(77.0)
    rng = np.random.default_rng(9)
    # seam points: coordinates at 0 and at exactly side (which
    # `attach_receivers` can produce), and pairs exactly side / 2 apart
    seams = [[0.0, 0.0], [77.0, 0.0], [0.0, 77.0], [77.0, 77.0], [38.5, 0.0], [77.0, 38.5],
             [10.0, 3.0], [48.5, 3.0], [10.0, 41.5], [48.5, 41.5], [77.0, 3.0]]
    pts = np.concatenate([seams, rng.uniform(0.0, 77.0, size=(40, 2))])
    mat = pairwise_toroidal(pts[:15], pts, region)
    ref = np.array([[toroidal_distance(p, q, region) for q in pts] for p in pts[:15]])
    assert mat.tolist() == ref.tolist()
    assert mat[0, :4].tolist() == [0.0, 0.0, 0.0, 0.0]
    assert mat[6, 7:10].tolist() == [38.5, 38.5, math.hypot(38.5, 38.5)]


@st.composite
def _torus_pairs_case(draw):
    side = draw(st.integers(1, 60))
    radius = draw(st.one_of(st.integers(1, side).map(float), st.floats(0.01, 1.5 * side)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def points(max_size):
        # half on integer coordinates: points at exactly 0 and side, and pairs
        # exactly an integer radius apart along one axis, across the seam too
        n = draw(st.integers(0, max_size))
        pts = rng.uniform(0.0, side, size=(n, 2))
        on_grid = rng.random(n) < 0.5
        pts[on_grid] = rng.integers(0, side + 1, size=(int(on_grid.sum()), 2))
        return pts

    # up to 300 points of b, so that small radii get grids of many cells
    return float(side), points(20), points(300), radius


def _assert_pairs_exact(side, a, b, radius):
    i, j = pairs_within(a, b, radius, Region(side))
    ref_i, ref_j = np.nonzero(pairwise_toroidal(a, b, Region(side)) <= radius)
    assert (i.tolist(), j.tolist()) == (ref_i.tolist(), ref_j.tolist())
    return i, j


SEAM = np.array([[0.0, 0.0], [30.0, 0.0], [10.0, 30.0], [20.0, 5.0], [25.0, 25.0], [15.0, 15.0]])


@settings(max_examples=300, deadline=None)
@given(_torus_pairs_case())
@example((30.0, np.empty((0, 2)), SEAM, 5.0))
@example((30.0, SEAM, np.empty((0, 2)), 5.0))
@example((30.0, SEAM, SEAM, 10.0))  # side / 3: two cells per axis
@example((30.0, SEAM, SEAM, 15.0))  # side / 2: one cell per axis
def test_pairs_within_equals_dense_threshold(case):
    _assert_pairs_exact(*case)


def test_pairs_within_keeps_pairs_exactly_radius_apart():
    side, r = 100.0, 10.0
    a = np.array([[0.0, 50.0], [100.0, 50.0], [95.0, 20.0], [40.0, 0.0]])
    # 10 m along x, 10 m across the x seam, 10 m along y across the y seam,
    # and one point just beyond
    b = np.array([[10.0, 50.0], [90.0, 50.0], [5.0, 20.0], [40.0, 90.0], [40.0, 10.000000001]])
    i, j = _assert_pairs_exact(side, a, b, r)
    assert list(zip(i.tolist(), j.tolist())) == [(0, 0), (0, 1), (1, 0), (1, 1), (2, 2), (3, 3)]


def test_pairs_within_tiny_radius_keeps_the_grid_small():
    # cells wider than 1e-6 m would number ~1e19 on a 3000 m torus; the grid
    # never has more cells than b has points
    rng = np.random.default_rng(2)
    a = np.concatenate([rng.uniform(0.0, 3000.0, size=(40, 2)), [[3000.0, 7.0]]])
    b = np.concatenate([a[:3], [[0.0, 7.0]], rng.uniform(0.0, 3000.0, size=(40, 2))])
    i, j = _assert_pairs_exact(3000.0, a, b, 1e-6)
    assert list(zip(i.tolist(), j.tolist())) == [(0, 0), (1, 1), (2, 2), (40, 3)]


def test_sample_world_structure():
    region = Region(1500.0)
    world = sample_world(region, 1e-5, 1e-3, 1e-7, 15.0, 10.0, seed=4)
    assert len(world.prs) == len(world.pts)
    assert len(world.su_receivers) == len(world.sus)
    assert world.seed == 4
    for cls in (world.pts, world.prs, world.sus, world.su_receivers, world.mus):
        if len(cls):
            assert np.all(cls.positions >= 0.0) and np.all(cls.positions < region.side)
    again = sample_world(region, 1e-5, 1e-3, 1e-7, 15.0, 10.0, seed=4)
    assert again.sus.positions.tobytes() == world.sus.positions.tobytes()
