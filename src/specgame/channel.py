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
from typing import NamedTuple, Sequence, Tuple

import numpy as np

from .keys import check


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
        check({"channel." + f.name: getattr(self, f.name) for f in dataclass_fields(self)})

    @cached_property
    def field_const(self) -> float:
        """C(alpha) = x / sin(x) at x = 2*pi/alpha, computed once per parameter
        set: finite for alpha > 2, pi/2 at alpha = 4."""
        x = 2.0 * math.pi / self.alpha
        return x / math.sin(x)


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


def path_gain(d, params: ChannelParams, out=None):
    """Distance gain max(d, min_distance)^-alpha of every entry of d (fading
    applied separately), written to `out` if given (which may be d). The
    clamp keeps the singular power law inside its far-field validity range."""
    g = np.maximum(d, params.min_distance, out=out)
    g **= -params.alpha
    return g


def torus_tail(cutoff: float, side: float, alpha: float) -> float:
    """Integral of r^-alpha over the torus square [-side/2, side/2]^2 outside
    the disk of radius cutoff:

        T = int_cutoff^(side/sqrt2) r^(1-alpha) theta(r) dr,

    where theta(r) = 2*pi for r <= side/2 and 2*pi - 8*arccos(side/2r) beyond
    (the arcs of the circle inside the square). A sender placed uniformly on
    the torus adds, on average, T / side^2 times its load beyond the cutoff.
    The full circle integrates in closed form; the four corner arcs, in
    phi = arccos(side/2r) where the integrand is smooth, by Simpson's rule
    on 257 nodes (within 3e-10 relative of 64-point Gauss-Legendre for alpha
    in [2.1, 6], without importing numpy.polynomial into every run). The law
    is unclamped, so the cutoff must exceed min_distance.
    """
    half, corner = side / 2.0, side / math.sqrt(2.0)
    if cutoff >= corner:
        return 0.0
    k = 2.0 - alpha
    circles = 2.0 * math.pi * (corner ** k - cutoff ** k) / k
    # r = half / cos(phi): r^(1-alpha) * phi * dr = half^k * phi * tan(phi) * cos(phi)^(alpha-2) * dphi
    phi = np.linspace(math.acos(half / max(cutoff, half)), math.pi / 4, 257)
    f = phi * np.tan(phi) * np.cos(phi) ** (alpha - 2)
    arcs = half ** k * (phi[1] - phi[0]) / 3 * float(f[0] + f[-1] + 4 * f[1:-1:2].sum() + 2 * f[2:-1:2].sum())
    return circles - 8.0 * arcs


class LinkBudget(NamedTuple):
    """The success exponent of one link class over independent Poisson fields.

    At SINR threshold v * threshold the link succeeds with probability
    exp(-(noise * v + b * v^k)), k = 2/alpha, where the field term b sums
    density_k * coefs_k over the fields in order. `noise` and `coefs` are
    taken at the threshold itself. `threshold`, `noise` and each coefficient
    may be arrays over several links, which broadcast against the densities.
    The caller checks that the densities are nonnegative.
    """

    threshold: float
    k: float
    noise: float
    coefs: Tuple[float, ...]

    @classmethod
    def of(cls, link_distance: float, link_power: float, eta: float, powers,
           params: ChannelParams) -> "LinkBudget":
        """The budget at threshold eta over fields of the given powers: noise
        eta*N*r^alpha/P, and pi*r^2*(P_k/P)^(2/alpha)*C(alpha)*eta^(2/alpha)
        per unit density of each field."""
        k = 2.0 / params.alpha
        area, scale = math.pi * link_distance ** 2, eta ** k
        return cls(eta, k, eta * params.noise * link_distance ** params.alpha / link_power,
                   tuple(area * (p / link_power) ** k * params.field_const * scale for p in powers))

    def exponent(self, densities, start):
        """start + density_k * coefs_k, added field by field; broadcasts over array densities."""
        for d, c in zip(densities, self.coefs, strict=True):
            start = start + d * c
        return start

    def success(self, densities):
        """P[SINR >= threshold]: a float for scalar densities, else an array."""
        exponent = self.exponent(densities, self.noise)
        return np.exp(-exponent) if np.ndim(exponent) else math.exp(-exponent)

    def median(self, densities):
        """The SINR level with success probability 0.5: threshold * v for the
        root v of noise*v + b*v^k = ln 2, per entry of the field term b.

        The left side is convex and increasing in u = ln v; Newton's method
        started above the root (at the smaller of the two one-term roots)
        descends onto it monotonically, so it needs no bracket, and a
        noise-limited median ln 2 / noise is solved however large. Raises if a
        median is not a positive finite float, as when it underflows.
        """
        a, b, k = self.noise, np.asarray(self.exponent(densities, 0.0), dtype=float), self.k
        ln2 = math.log(2.0)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            u = np.minimum(np.log(ln2 / a), np.log(ln2 / b) / k)
            moving = np.ones(np.shape(u), dtype=bool)
            for _ in range(100):
                ta, tb = a * np.exp(u), b * np.exp(k * u)
                du = (ta + tb - ln2) / (ta + k * tb)
                # each entry takes its first step below tolerance, then stops
                # on its own, so its value does not depend on the others
                above = np.abs(du) > 1e-13 * np.maximum(1.0, np.abs(u))
                u = np.where(moving, u - du, u)
                moving &= above
                if not np.any(moving):
                    break
            eta = self.threshold * np.exp(u)
        if not np.all((eta > 0) & (eta < math.inf)):
            raise ValueError("median SINR is not a positive finite float")
        return eta if eta.ndim else float(eta)


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
    budget = LinkBudget.of(link_distance, link_power, eta, [f.power for f in fields], params)
    return budget.success([f.density for f in fields])


def max_allowable_su_density(params: ChannelParams) -> float:
    """Largest active secondary density for which the primary outage constraint
    P[SINR_PR < eta_PR] <= eps_PR still holds: the PR link budget over the SU
    field alone, inverted for its density.
    """
    pr = LinkBudget.of(params.pt_link_distance, params.pt_power, params.pr_sinr_threshold,
                       (params.su_power,), params)
    budget = -math.log1p(-params.pr_outage_constraint) - pr.noise
    if budget <= 0:
        raise ValueError("noise-limited: no SU density admissible")
    return budget / pr.coefs[0]
