"""Evolutionary access game over secondary-user strategies.

Each strategy is an access probability. A silent user collects the compliance
reward kappa; a transmitting user is paid only when it perceives at least one
other active non-primary transmitter (otherwise transgression pays zero), and
then earns delta on a successful transmission or loses nu on a failed one.
Success probabilities come from the closed-form Poisson-field channel model;
population shares evolve under discrete-step replicator dynamics.

The dynamics run a batch of cells at once: shares of shape (cells, m), with
per-cell incentives and per-cell attacker drive. A single run is the batch of
one cell, reported without the cell axis.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, List, Optional, Tuple, Union

import numpy as np

from .channel import ChannelParams, InterfererField, max_allowable_su_density, median_sinr, success_prob

SIMPLEX_TOL = 1e-9
MAX_HALVINGS = 40
NONNEGATIVE_FAILURE = "replicator step could not keep shares nonnegative"
NONFINITE_FAILURE = NONNEGATIVE_FAILURE + ": non-finite payoffs"


@dataclass(frozen=True)
class StrategySet:
    """Strictly increasing access probabilities, at least two of them."""

    access_probs: Tuple[float, ...] = (0.0, 1.0)

    def __post_init__(self) -> None:
        p = tuple(float(v) for v in self.access_probs)
        object.__setattr__(self, "access_probs", p)
        if len(p) < 2:
            raise ValueError("strategy set needs at least two access probabilities")
        if any(not 0.0 <= v <= 1.0 for v in p):
            raise ValueError("access probabilities must lie in [0, 1]")
        if any(b <= a for a, b in zip(p, p[1:])):
            raise ValueError("access probabilities must be strictly increasing")

    def __len__(self) -> int:
        return len(self.access_probs)

    @cached_property
    def probs(self) -> np.ndarray:
        probs = np.asarray(self.access_probs)
        probs.flags.writeable = False
        return probs


@dataclass(frozen=True)
class PayoffParams:
    """Incentive triple: delta rewards success, nu prices failure, kappa pays compliance.

    Each value is a float, or a per-cell array for a batched run.
    """

    delta: float = 10.0
    nu: float = 1.0
    kappa: float = 0.0

    def __post_init__(self) -> None:
        values = {name: np.asarray(getattr(self, name), dtype=float) for name in ("delta", "nu", "kappa")}
        for name, v in values.items():
            if not np.all(np.isfinite(v)):
                raise ValueError(f"{name} must be finite")
        if not np.all(values["delta"] > 0):
            raise ValueError("delta must be positive")
        if np.any(values["nu"] < 0):
            raise ValueError("nu must be nonnegative")
        if np.any(values["kappa"] < 0):
            raise ValueError("kappa must be nonnegative")

    @cached_property
    def batch_shape(self) -> Tuple[int, ...]:
        """() for scalar incentives, (cells,) for per-cell ones."""
        return np.broadcast_shapes(np.shape(self.delta), np.shape(self.nu), np.shape(self.kappa))


@dataclass(frozen=True)
class MuDrive:
    """Malicious-user pressure on the game at one step.

    active_density: transmitting MUs per m^2 (enters interference and
    proximity perception). inducement: probability that a secondary user
    perceives an advertised accomplice regardless of local density -- the
    mechanism by which sparse attackers open the transgression payoff gate.
    Both are floats, or per-cell arrays in a batched run.
    """

    active_density: float = 0.0
    inducement: float = 0.0


IDLE_MU = MuDrive(0.0, 0.0)

# (step index, currently observed active SU density per cell) -> MuDrive
MuSchedule = Callable[[int, np.ndarray], MuDrive]


@dataclass(frozen=True)
class GameEnv:
    """Everything the mean-field payoff needs: channel, densities, sensing, incentives."""

    channel: ChannelParams
    payoffs: PayoffParams
    strategies: StrategySet = StrategySet()
    lambda_su: float = 1e-3
    lambda_pt: float = 1e-5
    sensing_radius: float = 50.0
    mu: MuDrive = IDLE_MU
    include_pt_at_su: bool = True
    include_pt_at_pr: bool = False

    def __post_init__(self) -> None:
        if self.lambda_su < 0 or self.lambda_pt < 0:
            raise ValueError("densities must be nonnegative")
        if not self.sensing_radius > 0:
            raise ValueError("sensing radius must be positive")

    @cached_property
    def _pt_fields(self) -> List[InterfererField]:
        """The primary transmitter field, as a list that is empty without primaries."""
        return [InterfererField(self.lambda_pt, self.channel.pt_power)] if self.lambda_pt > 0 else []


def validate_shares(shares, m: int) -> np.ndarray:
    """Shares as a float array of shape (m,) or (cells, m), every row on the simplex."""
    x = np.asarray(shares, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] != m:
        raise ValueError(f"expected {m} strategy shares, got shape {x.shape}")
    if not np.all(x >= 0) or np.any(np.abs(x.sum(axis=-1) - 1.0) > SIMPLEX_TOL):
        raise ValueError("shares must be a simplex vector")
    return x


def perception_prob(other_active_density, sensing_radius: float):
    """Probability that at least one active transmitter of a PPP falls inside
    the sensing disk: 1 - exp(-density * pi * R^2). Broadcasts over densities."""
    d = np.asarray(other_active_density, dtype=float)
    if np.count_nonzero(d < 0):
        raise ValueError("density must be nonnegative")
    q = -np.expm1(d * (-math.pi * sensing_radius ** 2))
    return q if q.ndim else float(q)


def active_su_density(shares, env: GameEnv):
    """Transmit-weighted secondary density lambda_SU * sum_i x_i p_i (per row)."""
    return env.lambda_su * (np.asarray(shares, dtype=float) @ env.strategies.probs)


def _interferer_fields(active_su, mu_density, env: GameEnv) -> Tuple[List[InterfererField], ...]:
    """(fields at an SU receiver, fields at a PR receiver): the active SU and
    MU fields, plus the PT field where included. An empty field adds exactly
    zero to the success exponent."""
    ch = env.channel
    shared = [InterfererField(active_su, ch.su_power), InterfererField(mu_density, ch.mu_power)]
    pt = env._pt_fields
    return (shared + pt if env.include_pt_at_su else shared), (shared + pt if env.include_pt_at_pr else shared)


def access_payoff(p, q, s, payoffs: PayoffParams):
    """Expected payoff of access probability p given perception prob q and
    transmission success prob s: (1-p)*kappa + p*q*(delta*s - nu*(1-s))."""
    return (1.0 - p) * payoffs.kappa + p * q * (payoffs.delta * s - payoffs.nu * (1.0 - s))


def payoff_vector(shares, env: GameEnv, mu: Optional[MuDrive] = None):
    """Per-strategy mean-field payoffs plus the (q, s_su, s_pr) diagnostics.

    `shares` is (m,) or (cells, m); `mu` (default env.mu) and env.payoffs may
    hold per-cell arrays. The payoffs come back as (m,) or (cells, m), the
    diagnostics as floats or (cells,) arrays.
    """
    mu = env.mu if mu is None else mu
    ch = env.channel
    act = active_su_density(shares, env)
    q_local = perception_prob(act + mu.active_density, env.sensing_radius)
    q = 1.0 - (1.0 - q_local) * (1.0 - mu.inducement)
    at_su, at_pr = _interferer_fields(act, mu.active_density, env)
    s_su = success_prob(ch.su_link_distance, ch.su_power, ch.su_sinr_threshold, at_su, ch)
    s_pr = success_prob(ch.pt_link_distance, ch.pt_power, ch.pr_sinr_threshold, at_pr, ch)
    cell_dims = max(np.ndim(q), len(env.payoffs.batch_shape))
    p = env.strategies.probs.reshape((-1,) + (1,) * cell_dims)
    return access_payoff(p, q, s_su, env.payoffs).T, q, s_su, s_pr


def replicator_step(shares, payoffs, h: float) -> np.ndarray:
    """One Euler step of continuous replicator dynamics, renormalized to the simplex.

    Takes one (m,) share vector or a (cells, m) batch, stepped row by row.
    Payoffs are anchored to the first strategy before averaging so a common
    additive shift cancels structurally, not just in exact arithmetic. Where a
    step would drive a share negative, that row's h is halved (at most 40
    times). A row that cannot be stepped -- non-finite payoffs, or still
    negative after the last halving -- raises ValueError for a single vector
    and comes back as NaN in a batch, so that one bad cell stops no other.
    """
    x = np.asarray(shares, dtype=float)
    pi = np.asarray(payoffs, dtype=float)
    if not h > 0:
        raise ValueError("step size must be positive")
    rows = x.reshape(-1, x.shape[-1])
    pi = pi.reshape(rows.shape)
    finite = np.isfinite(pi)
    all_finite = np.count_nonzero(finite) == finite.size
    if not all_finite:
        if x.ndim == 1:
            raise ValueError(NONFINITE_FAILURE)
        finite = finite.all(axis=1)
        pi = np.where(finite[:, None], pi, 0.0)  # stepped flat, blanked below
    rel = pi - pi[:, :1]
    dev = rel - (rows * rel).sum(axis=1)[:, None]
    factors = 1.0 + h * dev
    if np.count_nonzero(factors >= 0.0) != factors.size:
        vacant = rows <= 0
        step = np.full((len(rows), 1), float(h))
        for _ in range(MAX_HALVINGS + 1):
            factors = 1.0 + step * dev
            pending = ~((factors >= 0.0) | vacant).all(axis=1)
            if not np.count_nonzero(pending):
                break
            step[pending] *= 0.5
        else:
            if x.ndim == 1:
                raise ValueError(NONNEGATIVE_FAILURE)
            factors[pending] = math.nan
    if not all_finite:
        factors[~finite] = math.nan
    new = rows * factors
    new /= new.sum(axis=1)[:, None]
    return new.reshape(x.shape)


@dataclass(frozen=True)
class Trajectory:
    """Pre-update state of every step, stacked along a leading step axis.

    For a batch a cell axis follows the step axis: shares and payoffs are
    (steps, cells, m) and the diagnostics (steps, cells); a single run has no
    cell axis. The SINR medians are NaN unless computed. `errors` holds, per
    cell, why that cell was frozen ("" for cells that ran to the end).
    """

    shares: np.ndarray
    payoffs: np.ndarray
    s_su: np.ndarray
    s_pr: np.ndarray
    active_su_density: np.ndarray
    mu_density: np.ndarray
    inducement: np.ndarray
    pr_median_sinr: np.ndarray
    su_median_sinr: np.ndarray
    final_shares: np.ndarray
    errors: Tuple[str, ...]


def transmitting_share(shares, env: Optional[GameEnv] = None, probs: Optional[np.ndarray] = None):
    """Total share on strategies with positive access probability (per row)."""
    x = np.asarray(shares, dtype=float)
    if probs is None:
        if env is None:
            raise ValueError("need either env or probs")
        probs = env.strategies.probs
    return x[..., np.asarray(probs) > 0].sum(axis=-1)


def run_dynamics(
    x0,
    env: GameEnv,
    mu_schedule: MuSchedule,
    steps: int,
    h: float,
    compute_sinr: bool = True,
    freeze_shares: bool = False,
) -> Trajectory:
    """Iterate payoff evaluation and replicator steps under a malicious-user schedule.

    Every cell runs in the same loop: the cells are the rows of x0 ((m,) or
    (cells, m)) broadcast against per-cell incentives in env.payoffs. The
    schedule is consulted before each step with the currently observed active
    secondary density of every cell, so withdrawal rules react to the
    population the attacker has just seen. The SINR medians of all steps are
    solved in one call after the loop.

    A cell whose payoffs turn non-finite, or whose replicator step fails, is
    frozen at its last shares with the reason in `errors`, and the other cells
    run on; a single run (1-D x0, scalar incentives) raises ValueError instead.
    """
    if steps < 1:
        raise ValueError("need at least one step")
    m = len(env.strategies)
    x0 = validate_shares(x0, m)
    batch = np.broadcast_shapes(x0.shape[:-1], env.payoffs.batch_shape)
    single = batch == ()
    x = np.array(np.broadcast_to(x0, batch + (m,)), ndmin=2)
    cells = len(x)
    shares = np.empty((steps, cells, m))
    payoffs = np.empty((steps, cells, m))
    s_su, s_pr, act, mu_density, inducement = np.empty((5, steps, cells))
    errors = [""] * cells
    live = np.ones(cells, dtype=bool)
    all_live = True
    for t in range(steps):
        act[t] = active_su_density(x, env)
        drive = mu_schedule(t, act[t])
        pi, _, s_su[t], s_pr[t] = payoff_vector(x, env, drive)
        mu_density[t], inducement[t] = drive.active_density, drive.inducement
        shares[t], payoffs[t] = x, pi
        if freeze_shares:
            continue
        new = replicator_step(x, pi if all_live else np.where(live[:, None], pi, 0.0), h)
        failed = np.isnan(new[:, 0]) & live
        if np.count_nonzero(failed):
            for c in np.flatnonzero(failed):
                reason = NONNEGATIVE_FAILURE if np.isfinite(pi[c]).all() else NONFINITE_FAILURE
                if single:
                    raise ValueError(reason)
                errors[c] = f"{reason} (step {t})"
            live &= ~failed
            all_live = False
        x = new if all_live else np.where(live[:, None], new, x)
    if compute_sinr:
        ch = env.channel
        at_su, at_pr = _interferer_fields(act, mu_density, env)
        pr_med = median_sinr(ch.pt_link_distance, ch.pt_power, at_pr, ch)
        su_med = median_sinr(ch.su_link_distance, ch.su_power, at_su, ch)
    else:
        pr_med = su_med = np.full((steps, cells), math.nan)
    per_step = [shares, payoffs, s_su, s_pr, act, mu_density, inducement, pr_med, su_med]
    if single:
        per_step = [a[:, 0] for a in per_step]
        x = x[0]
    return Trajectory(*per_step, final_shares=x, errors=tuple(errors))


@dataclass(frozen=True)
class DynamicsParams:
    """Initial state and integration knobs shared by forecasts and sweeps."""

    x0: Tuple[float, ...] = (0.99, 0.01)
    h: float = 0.1
    steps: int = 400
    extinction_tol: float = 1e-3


@dataclass(frozen=True)
class Classification:
    label: str  # "robust" | "fragile" | "error"
    terminal_mutant_share: float
    peak_mutant_share: float
    boundary: bool = False
    error: str = ""  # why the cell failed, for label "error"


def classify_operating_point(
    env: GameEnv,
    schedule_factory: Callable[[], MuSchedule],
    dynamics: DynamicsParams,
    density_cap: Optional[float] = None,
) -> Union[Classification, List[Classification]]:
    """Run the attack template from the configured start and classify the rest state.

    Fragile if the terminal transmit-weighted density violates the primary
    outage cap; robust if induced transmitters go extinct; otherwise the sign
    of the terminal payoff drift decides, with zero drift counted fragile
    (conservative from the defender's side).

    With per-cell incentives in env.payoffs every cell is classified in one
    batched run and a list comes back, in cell order; a failed cell is
    labelled "error" with its reason. Scalar incentives give one
    Classification, and a failure raises ValueError.
    """
    cap = max_allowable_su_density(env.channel) if density_cap is None else density_cap
    traj = run_dynamics(np.asarray(dynamics.x0), env, schedule_factory(), dynamics.steps, dynamics.h,
                        compute_sinr=False)
    probs = env.strategies.probs
    x_T = np.atleast_2d(traj.final_shares)
    terminal = transmitting_share(x_T, probs=probs)
    peak = np.maximum(transmitting_share(traj.shares, probs=probs).max(axis=0), terminal)
    last_mu = MuDrive(traj.mu_density[-1], traj.inducement[-1])
    weighted = x_T * payoff_vector(x_T, env, last_mu)[0]
    with np.errstate(divide="ignore", invalid="ignore"):
        drift = weighted[:, probs > 0].sum(axis=1) / terminal - weighted.sum(axis=1)
    fragile = active_su_density(x_T, env) > cap
    robust = ~fragile & (terminal < dynamics.extinction_tol)
    out = []
    for c, error in enumerate(traj.errors):
        if error:
            out.append(Classification("error", math.nan, math.nan, error=error))
        elif fragile[c] or (not robust[c] and drift[c] > 0):
            out.append(Classification("fragile", float(terminal[c]), float(peak[c])))
        elif robust[c] or drift[c] < 0:
            out.append(Classification("robust", float(terminal[c]), float(peak[c])))
        else:
            out.append(Classification("fragile", float(terminal[c]), float(peak[c]), boundary=True))
    return out if traj.final_shares.ndim == 2 else out[0]


def find_rest_points(env: GameEnv, grid: int = 2001, tol: float = 1e-9) -> List[Tuple[float, str]]:
    """Rest points of the two-strategy dynamics as (mutant share, stability tag).

    Scans the payoff gap g(x) = pi_transmit - pi_silent for sign changes and
    refines each by bisection; endpoints are tagged from the adjacent gap sign.
    For more than two strategies, falls back to multi-start dynamics and
    reports the distinct limits reached.
    """
    probs = env.strategies.probs
    if len(probs) != 2:
        return _rest_points_multistart(env)

    def g(x: float) -> float:
        shares = np.array([1.0 - x, x])
        pi, _, _, _ = payoff_vector(shares, env)
        return float(pi[1] - pi[0])

    xs = np.linspace(0.0, 1.0, grid)
    gs = np.diff(payoff_vector(np.stack([1.0 - xs, xs], axis=1), env)[0], axis=1)[:, 0]
    out: List[Tuple[float, str]] = []

    g0, g1 = gs[0], gs[-1]
    out.append((0.0, "stable" if g0 < -tol else ("unstable" if g0 > tol else "neutral")))
    for i in range(grid - 1):
        a, b = gs[i], gs[i + 1]
        if a == 0.0 and 0 < i:  # grid point exactly on a root
            out.append((float(xs[i]), "neutral"))
            continue
        if a * b < 0:
            lo, hi = float(xs[i]), float(xs[i + 1])
            glo = a
            while hi - lo > tol:
                mid = 0.5 * (lo + hi)
                gm = g(mid)
                if glo * gm <= 0:
                    hi = mid
                else:
                    lo, glo = mid, gm
            root = 0.5 * (lo + hi)
            out.append((root, "stable" if a > 0 else "unstable"))
    out.append((1.0, "stable" if g1 > tol else ("unstable" if g1 < -tol else "neutral")))
    return out


def _rest_points_multistart(env: GameEnv, starts: int = 8, steps: int = 4000, h: float = 0.1):
    x0 = np.random.default_rng(0).dirichlet(np.ones(len(env.strategies)), size=starts)
    traj = run_dynamics(x0, env, lambda t, observed: env.mu, steps, h, compute_sinr=False)
    limits: List[Tuple[float, str]] = []
    seen: List[np.ndarray] = []
    for x in traj.final_shares:
        if not any(np.allclose(x, s, atol=1e-4) for s in seen):
            seen.append(x)
            limits.append((float(transmitting_share(x, probs=env.strategies.probs)), "stable"))
    return limits
