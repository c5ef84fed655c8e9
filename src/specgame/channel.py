"""Radio channel model: power-law path loss, Rayleigh fading, and closed-form
link success probabilities over Poisson interferer fields.

Received power over distance d is P * G * d^-alpha with G ~ Exp(1) per link.
A link of distance r, power P and SINR threshold eta facing independent
Poisson fields (density lam_k, power P_k) succeeds with probability

    exp(-eta*N*r^alpha/P) * prod_k exp(-lam_k * pi * r^2 * (eta*P_k/P)^(2/alpha) * C(alpha))

where C(alpha) = (2*pi/alpha) / sin(2*pi/alpha); C(4) = pi/2. This is the
unique closed form consistent with Rayleigh fading over superposed
homogeneous PPPs, and it is cross-checked against Monte Carlo in the tests.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields as dataclass_fields
from functools import cached_property
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class ChannelParams:
    """Path loss, noise and per-class link budgets.

    Powers in watts, distances in meters, thresholds as linear SINR ratios,
    outage constraints as probabilities. alpha must exceed 2 or the aggregate
    Poisson-field interference diverges.
    """

    alpha: float = 4.0
    noise: float = 1e-9
    pt_power: float = 0.3
    pt_link_distance: float = 15.0
    pr_sinr_threshold: float = 3.0
    pr_outage_constraint: float = 0.05
    su_power: float = 0.1
    su_link_distance: float = 10.0
    su_sinr_threshold: float = 3.0
    su_outage_constraint: float = 0.1
    mu_power: float = 0.1
    min_distance: float = 1.0

    def __post_init__(self) -> None:
        for f in dataclass_fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite")
        if not self.alpha > 2:
            raise ValueError("alpha must exceed 2")
        if not self.noise > 0:
            raise ValueError("noise must be positive")
        for name in ("pt_power", "su_power", "mu_power"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        for name in ("pt_link_distance", "su_link_distance", "min_distance"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        for name in ("pr_sinr_threshold", "su_sinr_threshold"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        for name in ("pr_outage_constraint", "su_outage_constraint"):
            if not 0 < getattr(self, name) < 1:
                raise ValueError(f"{name} must lie in (0, 1)")

    @cached_property
    def field_const(self) -> float:
        """C(alpha), computed once per parameter set."""
        return field_constant(self.alpha)


@dataclass(frozen=True)
class InterfererField:
    """A homogeneous field of active transmitters: density (nodes/m^2) and power (W).

    The density may be an array (one field per cell or per step); the closed
    forms below then broadcast over it.
    """

    density: float
    power: float

    def __post_init__(self) -> None:
        if np.count_nonzero(np.asarray(self.density) < 0):
            raise ValueError("field density must be nonnegative")
        if not self.power > 0:
            raise ValueError("field power must be positive")


def path_gain(d, params: ChannelParams):
    """Distance gain max(d, min_distance)^-alpha of every entry of d (fading
    applied separately). The clamp keeps the singular power law inside its
    far-field validity range."""
    g = np.maximum(d, params.min_distance)
    g **= -params.alpha
    return g


def field_constant(alpha: float) -> float:
    """C(alpha) = (2*pi/alpha) / sin(2*pi/alpha); finite for alpha > 2, pi/2 at alpha = 4."""
    if not alpha > 2:
        raise ValueError("alpha must exceed 2 for convergent interference")
    x = 2.0 * math.pi / alpha
    return x / math.sin(x)


def _field_coef(link_distance: float, link_power: float, field_power: float, params: ChannelParams) -> float:
    """Interference exponent per unit field density at unit threshold:
    pi * r^2 * (P_k/P)^(2/alpha) * C(alpha)."""
    return (math.pi * link_distance ** 2 * (field_power / link_power) ** (2.0 / params.alpha)
            * params.field_const)


def success_prob(
    link_distance: float,
    link_power: float,
    eta: float,
    fields: Sequence[InterfererField],
    params: ChannelParams,
):
    """P[SINR >= eta] for a Rayleigh link over independent Poisson interferer fields.

    A float for scalar field densities; an array shaped like the densities otherwise.
    """
    if not eta > 0:
        raise ValueError("eta must be positive")
    exponent = eta * params.noise * link_distance ** params.alpha / link_power
    scale = eta ** (2.0 / params.alpha)
    for f in fields:
        exponent = exponent + f.density * (_field_coef(link_distance, link_power, f.power, params) * scale)
    return np.exp(-exponent) if np.ndim(exponent) else math.exp(-exponent)


def max_allowable_su_density(params: ChannelParams) -> float:
    """Largest active secondary density for which the primary outage constraint
    P[SINR_PR < eta_PR] <= eps_PR still holds; algebraic inversion of success_prob.
    """
    noise_term = (
        params.pr_sinr_threshold * params.noise * params.pt_link_distance ** params.alpha / params.pt_power
    )
    budget = -math.log1p(-params.pr_outage_constraint) - noise_term
    if budget <= 0:
        raise ValueError("noise-limited: no SU density admissible")
    denom = (
        math.pi
        * params.pt_link_distance ** 2
        * (params.pr_sinr_threshold * params.su_power / params.pt_power) ** (2.0 / params.alpha)
        * params.field_const
    )
    return budget / denom


def median_sinr(
    link_distance: float,
    link_power: float,
    fields: Sequence[InterfererField],
    params: ChannelParams,
):
    """SINR level eta* with success_prob(eta*) = 0.5.

    success_prob(eta) = exp(-(a*eta + b*eta^k)) with k = 2/alpha, a the noise
    term and b the summed field term, so eta* solves a*eta + b*eta^k = ln 2.
    The left side is convex and increasing in u = ln eta; Newton's method
    started above the root (at the smaller of the two one-term roots) descends
    onto it monotonically. Broadcasts over array field densities. Serves as the
    analytic stand-in for a time-averaged SINR; strictly decreasing in every
    field density. Raises if no median lies inside [1e-6, 1e9] (e.g. vanishing
    noise and no interference).
    """
    k = 2.0 / params.alpha
    a = params.noise * link_distance ** params.alpha / link_power
    b = 0.0
    for f in fields:
        b = b + f.density * _field_coef(link_distance, link_power, f.power, params)
    b = np.asarray(b, dtype=float)
    ln2 = math.log(2.0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        u = np.minimum(math.log(ln2 / a), np.log(ln2 / b) / k)
        for _ in range(100):
            ta, tb = a * np.exp(u), b * np.exp(k * u)
            du = (ta + tb - ln2) / (ta + k * tb)
            # each entry stops on its own, so its value does not depend on the others
            moving = np.abs(du) > 1e-13 * np.maximum(1.0, np.abs(u))
            if not np.any(moving):
                break
            u = np.where(moving, u - du, u)
        eta = np.exp(u)
    if not np.all((eta >= 1e-6) & (eta <= 1e9)):
        raise ValueError("median SINR outside bracket [1e-6, 1e9]")
    return eta if eta.ndim else float(eta)


def empirical_success_prob(
    link_distance: float,
    link_power: float,
    eta: float,
    fields: Sequence[InterfererField],
    params: ChannelParams,
    region_side: float,
    n_topologies: int,
    n_fading: int,
    rng: np.random.Generator,
    batch: int = 2000,
) -> float:
    """Monte Carlo estimate of success_prob by sampling interferer topologies and fading.

    Independent of the closed form: samples each field as a PPP on a torus
    around the receiver, draws Exp(1) fading per interferer per trial, and
    counts SINR >= eta. Used as the validation oracle for success_prob.
    """
    side = region_side
    half = side / 2.0
    alpha = params.alpha
    thr = eta * params.noise * link_distance ** alpha / link_power  # fading threshold, noise part
    scale = eta * link_distance ** alpha / link_power
    hits = 0
    total = 0
    done = 0
    while done < n_topologies:
        nb = min(batch, n_topologies - done)
        done += nb
        # interference gain sums need per-topology segmentation
        gains_parts = []
        topo_parts = []
        power_parts = []
        for f in fields:
            counts = rng.poisson(f.density * side * side, size=nb)
            npts = int(counts.sum())
            if npts == 0:
                continue
            # receiver at the center of the fundamental domain: wrapped distance
            # equals plain Euclidean distance for every point of the square
            xy = rng.uniform(-half, half, size=(npts, 2))
            gains_parts.append(path_gain(np.hypot(xy[:, 0], xy[:, 1]), params))
            topo_parts.append(np.repeat(np.arange(nb), counts))
            power_parts.append(np.full(npts, f.power))
        if gains_parts:
            g = np.concatenate(gains_parts)
            ti = np.concatenate(topo_parts)
            pw = np.concatenate(power_parts)
            for _ in range(n_fading):
                fade = rng.exponential(1.0, size=g.shape[0])
                interf = np.bincount(ti, weights=pw * fade * g, minlength=nb)
                f0 = rng.exponential(1.0, size=nb)
                hits += int(np.count_nonzero(f0 >= thr + scale * interf))
                total += nb
        else:
            f0 = rng.exponential(1.0, size=nb * n_fading)
            hits += int(np.count_nonzero(f0 >= thr))
            total += nb * n_fading
    return hits / total
