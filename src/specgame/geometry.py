"""Spatial layout of the network: homogeneous Poisson point processes on a square torus.

All node classes (primary transmitters and their paired receivers, secondary
users and their receivers, malicious users) live on a flat torus so that the
typical-point interference statistics match the infinite-plane analytic
formulas without guard zones or edge corrections.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

PT = "PT"
PR = "PR"
SU = "SU"
SU_RX = "SU_RX"
MU = "MU"


@dataclass(frozen=True)
class Region:
    """Square torus of a given side length in meters (wraps on both axes)."""

    side: float

    def __post_init__(self) -> None:
        if not self.side > 0:
            raise ValueError("region side must be positive")

    @property
    def area(self) -> float:
        return self.side * self.side


@dataclass(frozen=True)
class NodeSet:
    """Positions of one node class, shape (n, 2), coordinates in [0, side)."""

    positions: np.ndarray
    tag: str

    def __len__(self) -> int:
        return int(self.positions.shape[0])


def sample_ppp(density: float, region: Region, rng: np.random.Generator, tag: str = SU) -> NodeSet:
    """Sample a homogeneous PPP: count ~ Poisson(density * area), positions i.i.d. uniform.

    Deterministic for a fixed generator state; density is in nodes/m^2.
    """
    if density < 0:
        raise ValueError("density must be nonnegative")
    count = int(rng.poisson(density * region.area))
    positions = rng.uniform(0.0, region.side, size=(count, 2))
    return NodeSet(positions=positions, tag=tag)


def attach_receivers(
    transmitters: NodeSet, link_distance: float, region: Region, rng: np.random.Generator, tag: str = PR
) -> NodeSet:
    """Place one receiver per transmitter at exact toroidal distance link_distance,
    bearing uniform on [0, 2*pi). Preserves ordering: receiver i pairs with transmitter i.
    """
    if not (0.0 < link_distance < region.side / 2.0):
        raise ValueError("link_distance must lie in (0, side/2)")
    n = len(transmitters)
    bearings = rng.uniform(0.0, 2.0 * np.pi, size=n)
    offsets = link_distance * np.stack([np.cos(bearings), np.sin(bearings)], axis=1)
    positions = np.mod(transmitters.positions + offsets, region.side)
    return NodeSet(positions=positions, tag=tag)


def toroidal_distance(p, q, region: Region) -> float:
    """Minimum wrapped Euclidean distance between two points on the torus."""
    d = np.abs(np.asarray(p, dtype=float) - np.asarray(q, dtype=float)) % region.side
    d = np.minimum(d, region.side - d)
    return float(np.hypot(d[..., 0], d[..., 1]))


def _wrapped_hypot(dx: np.ndarray, dy: np.ndarray, side: float) -> np.ndarray:
    """Wrapped distance from per-axis offsets, overwriting both arrays.

    Each offset must lie in [-side, side]. Its absolute value then needs no
    remainder: an offset of exactly side wraps to 0 through the minimum, as it
    would through `% side`. `pairwise_toroidal` and `pairs_within` both use
    this arithmetic, so their distances agree bit for bit.
    """
    wrapped = np.empty_like(dx)
    for d in (dx, dy):
        np.abs(d, out=d)
        np.subtract(side, d, out=wrapped)
        np.minimum(d, wrapped, out=d)
    return np.hypot(dx, dy, out=dx)


def pairwise_toroidal(a: np.ndarray, b: np.ndarray, region: Region) -> np.ndarray:
    """Wrapped distance matrix of shape (len(a), len(b)).

    Every coordinate must lie in [0, side] (`attach_receivers` can wrap a
    point onto the seam at exactly side). Each axis is one (len(a), len(b))
    array updated in place, so no (len(a), len(b), 2) array exists.
    """
    dx, dy = (np.subtract.outer(a[:, k], b[:, k]) for k in (0, 1))
    return _wrapped_hypot(dx, dy, region.side)


def pairs_within(a: np.ndarray, b: np.ndarray, radius: float, region: Region) -> Tuple[np.ndarray, np.ndarray]:
    """Index arrays (i, j) of every pair with wrapped distance <= radius,
    equal to `np.nonzero(pairwise_toroidal(a, b, region) <= radius)`.

    The points of b are binned into an nc x nc grid of cells wider than the
    radius (and no more cells than points), so a point of a finds every
    partner in the 3 x 3 block of cells around its own, and only those
    candidates get a distance. Every coordinate must lie in [0, side]; one at
    exactly side falls in cell 0.
    """
    side = region.side
    # the margin keeps the cells wider than the radius after rounding
    nc = max(1, min(math.ceil(side / (radius * (1.0 + 1e-9))) - 1, math.isqrt(len(b))))

    def cells(p):
        c = (p * (nc / side)).astype(np.intp) % nc
        return c[:, 0], c[:, 1]

    bx, by = cells(b)
    cell_b = bx * nc + by
    order = np.argsort(cell_b)
    counts = np.bincount(cell_b, minlength=nc * nc)
    starts = np.cumsum(counts) - counts
    ax, ay = cells(a)
    rows = np.arange(len(a))
    found = []
    # one neighbour cell of every point of a at a time; the unique offsets
    # reach each cell once on a grid of one or two cells per axis
    steps = np.unique(np.array([-1, 0, 1]) % nc)
    for ox in steps:
        for oy in steps:
            cell = ((ax + ox) % nc) * nc + (ay + oy) % nc
            sizes = counts[cell]
            ia = rows.repeat(sizes)
            # ragged ranges: candidate k of a cell's run reads order[start + k]
            at = np.repeat(starts[cell] - (np.cumsum(sizes) - sizes), sizes)
            at += np.arange(len(at))
            jb = order[at]
            keep = _wrapped_hypot(a[ia, 0] - b[jb, 0], a[ia, 1] - b[jb, 1], side) <= radius
            found.append((ia[keep], jb[keep]))
    ia, jb = (np.concatenate(part) for part in zip(*found))
    sort = np.lexsort((jb, ia))
    return ia[sort], jb[sort]


@dataclass(frozen=True)
class World:
    """One sampled topology: all node classes plus the seed that produced them."""

    region: Region
    pts: NodeSet
    prs: NodeSet
    sus: NodeSet
    su_receivers: NodeSet
    mus: NodeSet
    seed: Optional[int] = None


def sample_world(
    region: Region,
    lambda_pt: float,
    lambda_su: float,
    lambda_mu: float,
    pt_link_distance: float,
    su_link_distance: float,
    seed: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
) -> World:
    """Sample every node class for one simulation topology.

    Either a seed or an existing generator may be supplied; with a seed the
    result is bit-exact reproducible.
    """
    if rng is None:
        rng = np.random.default_rng(seed)
    pts = sample_ppp(lambda_pt, region, rng, tag=PT)
    prs = attach_receivers(pts, pt_link_distance, region, rng, tag=PR)
    sus = sample_ppp(lambda_su, region, rng, tag=SU)
    su_rx = attach_receivers(sus, su_link_distance, region, rng, tag=SU_RX)
    mus = sample_ppp(lambda_mu, region, rng, tag=MU)
    return World(region=region, pts=pts, prs=prs, sus=sus, su_receivers=su_rx, mus=mus, seed=seed)
