"""Spatial layout of the network: homogeneous Poisson point processes on a square torus.

All node classes (primary transmitters and their paired receivers, secondary
users and their receivers, malicious users) live on a flat torus so that the
typical-point interference statistics match the infinite-plane analytic
formulas without guard zones or edge corrections.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np


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


def sample_ppp(density: float, region: Region, rng: np.random.Generator) -> np.ndarray:
    """Sample a homogeneous PPP: count ~ Poisson(density * area), positions
    i.i.d. uniform, as an (n, 2) array with coordinates in [0, side).

    Deterministic for a fixed generator state; density is in nodes/m^2.
    """
    if density < 0:
        raise ValueError("density must be nonnegative")
    count = int(rng.poisson(density * region.area))
    return rng.uniform(0.0, region.side, size=(count, 2))


def attach_receivers(
    transmitters: np.ndarray, link_distance: float, region: Region, rng: np.random.Generator
) -> np.ndarray:
    """Place one receiver per transmitter at exact toroidal distance link_distance,
    bearing uniform on [0, 2*pi). Preserves ordering: receiver i pairs with transmitter i.
    """
    if not (0.0 < link_distance < region.side / 2.0):
        raise ValueError("link_distance must lie in (0, side/2)")
    n = len(transmitters)
    bearings = rng.uniform(0.0, 2.0 * np.pi, size=n)
    offsets = link_distance * np.stack([np.cos(bearings), np.sin(bearings)], axis=1)
    return np.mod(transmitters + offsets, region.side)


def _wrapped_distance(dx: np.ndarray, dy: np.ndarray, side: float) -> np.ndarray:
    """Wrapped distance from per-axis offsets, overwriting both arrays.

    Each offset must lie in [-side, side]. Its absolute value then needs no
    remainder: an offset of exactly side wraps to 0 through the minimum, as it
    would through `% side`. The distance is the square root of the summed
    squared wrapped offsets, at about a tenth of the cost of `np.hypot` and
    within 1 ulp of it while the squares neither overflow nor underflow
    (offsets between about 1e-154 and 1e154). `pairwise_toroidal` and
    `pairs_within` both use this arithmetic, and so does the scalar test
    oracle `toroidal_distance` in tests/oracles.py, so their distances
    agree bit for bit.
    """
    wrapped = np.empty_like(dx)
    for d in (dx, dy):
        np.abs(d, out=d)
        np.subtract(side, d, out=wrapped)
        np.minimum(d, wrapped, out=d)
        np.multiply(d, d, out=d)
    np.add(dx, dy, out=dx)
    return np.sqrt(dx, out=dx)


def pairwise_toroidal(a: np.ndarray, b: np.ndarray, region: Region) -> np.ndarray:
    """Wrapped distance matrix of shape (len(a), len(b)).

    Every coordinate must lie in [0, side] (`attach_receivers` can wrap a
    point onto the seam at exactly side). Each axis is one (len(a), len(b))
    array updated in place, so no (len(a), len(b), 2) array exists.
    """
    dx, dy = (np.subtract.outer(a[:, k], b[:, k]) for k in (0, 1))
    return _wrapped_distance(dx, dy, region.side)


def cells_per_axis(side: float, width: float) -> int:
    """Cells per axis of the finest square grid over the torus whose cells are
    wider than `width`, so that two points at most `width` apart lie in the
    same or adjacent cells."""
    # the margin keeps the cells wider than width after rounding
    return max(1, math.ceil(side / (width * (1.0 + 1e-9))) - 1)


class CellGrid:
    """Points binned into an nc x nc grid of equal cells over the torus.

    Every coordinate must lie in [0, side]; one at exactly side falls in
    cell 0. Cells are numbered cx * nc + cy.
    """

    def __init__(self, points: np.ndarray, nc: int, side: float):
        self.nc, self.side = nc, side
        cx, cy = self.locate(points)
        cell = cx * nc + cy
        self.order = np.argsort(cell, kind="stable")  # point indices, by cell
        self.counts = np.bincount(cell, minlength=nc * nc)
        self.starts = np.cumsum(self.counts) - self.counts

    def locate(self, points: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Cell coordinates (cx, cy) of every point."""
        c = (points * (self.nc / self.side)).astype(np.intp) % self.nc
        return c[:, 0], c[:, 1]

    def around(self, cx: np.ndarray, cy: np.ndarray) -> np.ndarray:
        """(len(cx), k) cell numbers of the 3 x 3 block around each cell. Each
        cell appears once, also on a grid of one or two cells per axis, where
        fewer than three offsets are distinct (k < 9)."""
        steps = np.arange(-1, min(self.nc, 3) - 1) % self.nc
        near_x = (cx[:, None] + steps) % self.nc
        near_y = (cy[:, None] + steps) % self.nc
        return (near_x[:, :, None] * self.nc + near_y[:, None, :]).reshape(len(cx), len(steps) ** 2)

    def members(self, cells: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """(entry, point): for each entry of `cells` in turn, every point
        binned in that cell, in ascending order."""
        sizes = self.counts[cells]
        entry = np.arange(len(cells)).repeat(sizes)
        # ragged ranges: point k of an entry's run reads order[start + k]
        at = np.repeat(self.starts[cells] - (np.cumsum(sizes) - sizes), sizes)
        at += np.arange(len(at))
        return entry, self.order[at]


def pairs_within(a: np.ndarray, b: np.ndarray, radius: float, region: Region) -> Tuple[np.ndarray, np.ndarray]:
    """Index arrays (i, j) of every pair with wrapped distance <= radius,
    equal to `np.nonzero(pairwise_toroidal(a, b, region) <= radius)`.

    The points of b are binned into a `CellGrid` of cells wider than the
    radius (and no more cells than points), so a point of a finds every
    partner in the 3 x 3 block of cells around its own, and only those
    candidates get a distance. Every coordinate must lie in [0, side].
    """
    side = region.side
    grid = CellGrid(b, min(cells_per_axis(side, radius), max(1, math.isqrt(len(b)))), side)
    found = []
    # one neighbour cell of every point of a at a time
    for cells in grid.around(*grid.locate(a)).T:
        ia, jb = grid.members(cells)
        keep = _wrapped_distance(a[ia, 0] - b[jb, 0], a[ia, 1] - b[jb, 1], side) <= radius
        found.append((ia[keep], jb[keep]))
    ia, jb = (np.concatenate(part) for part in zip(*found))
    # each pair is found once, so sorting one key per pair orders by i, then j
    pair = ia * len(b) + jb
    pair.sort()
    return np.divmod(pair, max(1, len(b)))


@dataclass(frozen=True)
class World:
    """One sampled topology: the (n, 2) positions of every node class.
    Receiver i of `prs` and `su_receivers` pairs with transmitter i of `pts`
    and `sus`."""

    region: Region
    pts: np.ndarray
    prs: np.ndarray
    sus: np.ndarray
    su_receivers: np.ndarray
    mus: np.ndarray


def sample_world(
    region: Region,
    lambda_pt: float,
    lambda_su: float,
    lambda_mu: float,
    pt_link_distance: float,
    su_link_distance: float,
    rng: np.random.Generator,
) -> World:
    """Sample every node class for one simulation topology, bit-exact
    reproducible for a fixed generator state."""
    pts = sample_ppp(lambda_pt, region, rng)
    prs = attach_receivers(pts, pt_link_distance, region, rng)
    sus = sample_ppp(lambda_su, region, rng)
    su_rx = attach_receivers(sus, su_link_distance, region, rng)
    mus = sample_ppp(lambda_mu, region, rng)
    return World(region=region, pts=pts, prs=prs, sus=sus, su_receivers=su_rx, mus=mus)
