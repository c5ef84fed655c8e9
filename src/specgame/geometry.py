"""Spatial layout of the network: homogeneous Poisson point processes on a square torus.

All node classes (primary transmitters and their paired receivers, secondary
users and their receivers, malicious users) live on a flat torus so that the
typical-point interference statistics match the infinite-plane analytic
formulas without guard zones or edge corrections.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

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


def pairwise_toroidal(a: np.ndarray, b: np.ndarray, region: Region) -> np.ndarray:
    """Wrapped distance matrix of shape (len(a), len(b))."""
    d = np.abs(a[:, None, :] - b[None, :, :]) % region.side
    d = np.minimum(d, region.side - d)
    return np.hypot(d[:, :, 0], d[:, :, 1])


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
