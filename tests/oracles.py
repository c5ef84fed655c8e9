"""Test oracles: independent estimates the closed forms of specgame are held to."""
import math
from typing import Sequence

import numpy as np

from specgame.channel import ChannelParams, InterfererField, max_allowable_su_density, path_gain, success_prob
from specgame.geometry import Region


def toroidal_distance(p, q, region: Region) -> float:
    """Minimum wrapped Euclidean distance between two points on the torus,
    through a remainder, in the arithmetic of specgame's distance kernel."""
    d = np.abs(np.asarray(p, dtype=float) - np.asarray(q, dtype=float)) % region.side
    d = np.minimum(d, region.side - d)
    return float(np.sqrt(d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1]))


def exact_interference(gain, load, far, n_pt, n_su, extra=None):
    """(receivers, slots) interference with every near-field sum correctly
    rounded: the dense float32 gains (receivers x transmitters: SUs, MUs,
    PTs) times the float32-rounded loads, each product exact in float64,
    summed by `math.fsum`. The far field is then added as specgame adds it,
    in float64: `far` times the slot's load summed over the senders (every
    transmitter but the PTs) by numpy, less each SU receiver's own SU's, and
    then `extra`.
    """
    loads = load.astype(np.float32).astype(np.float64)
    terms = gain.astype(np.float64)[:, :, None] * loads[None, :, :]
    out = np.array([[math.fsum(terms[i, :, s]) for s in range(load.shape[1])] for i in range(len(gain))])
    if far:
        out += far * np.add.reduce(load[:load.shape[0] - n_pt], axis=0)
        out[n_pt:] -= far * load[:n_su]
    if extra is not None:
        out += extra
    return out


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


def perception_prob(other_active_density, sensing_radius: float):
    """Probability that at least one active transmitter of a PPP falls inside
    the sensing disk: 1 - exp(-density * pi * R^2). Broadcasts over densities."""
    d = np.asarray(other_active_density, dtype=float)
    if np.count_nonzero(d < 0):
        raise ValueError("density must be nonnegative")
    q = -np.expm1(d * (-math.pi * sensing_radius ** 2))
    return q if q.ndim else float(q)


def access_payoff(p, q, s, payoffs):
    """Expected payoff of access probability p given perception prob q and
    transmission success prob s: (1-p)*kappa + p*q*(delta*s - nu*(1-s))."""
    return (1.0 - p) * payoffs.kappa + p * q * (payoffs.delta * s - payoffs.nu * (1.0 - s))


def post_withdrawal_drift(x, config, payoffs):
    """D(x) = pi_1 - pi_0 of the two-strategy game that silent, withdrawn
    attackers leave behind, at the share x of the second strategy (an
    array): no attacker transmits or is advertised, so only the active SU
    density lambda_SU * (p_0 (1 - x) + p_1 x) is perceived and interferes
    with the SU link, beside the PT field where it reaches the SUs."""
    ch = config.channel
    p0, p1 = config.access_probs
    act = config.lambda_su * (p0 * (1.0 - x) + p1 * x)
    fields = [InterfererField(act, ch.su_power)]
    if config.include_pt_interference_at_su:
        fields.append(InterfererField(config.lambda_pt, ch.pt_power))
    s = success_prob(ch.su_link_distance, ch.su_power, ch.su_sinr_threshold, fields, ch)
    q = perception_prob(act, config.sensing_radius)
    return access_payoff(p1, q, s, payoffs) - access_payoff(p0, q, s, payoffs)


def rest_point_fragile(config, payoffs, withdrawn, points: int = 2001) -> bool:
    """The m = 2 rest-point rule: whether the replicator flow x' = x (1 - x) D(x)
    of `post_withdrawal_drift`, started at the share `withdrawn` the
    attackers left (None if they never withdrew, which is robust), settles
    above the density cap.

    The rest points are the ends and D's sign changes on `points` even
    samples, placed by linear interpolation; one is stable where D falls
    through it (an end: where D points into it). Fragile when some stable
    rest point x* has lambda_SU x* above the cap and `withdrawn` lies above
    the largest unstable rest point below x*.
    """
    if withdrawn is None:
        return False
    x = np.linspace(0.0, 1.0, points)
    d = post_withdrawal_drift(x, config, payoffs)
    x, d = x[d != 0], d[d != 0]
    cross = np.flatnonzero(np.sign(d[:-1]) != np.sign(d[1:]))
    at = x[cross] - d[cross] * (x[cross + 1] - x[cross]) / (d[cross + 1] - d[cross])
    rest = [(0.0, d[0] < 0), *zip(at.tolist(), (d[cross] > 0).tolist()), (1.0, d[-1] > 0)]
    cap = max_allowable_su_density(config.channel)
    p0, p1 = config.access_probs
    for i, (point, stable) in enumerate(rest):
        if stable and config.lambda_su * (p0 * (1.0 - point) + p1 * point) > cap:
            below = [r for r, s in rest[:i] if not s]
            if withdrawn > max(below, default=-math.inf):
                return True
    return False
