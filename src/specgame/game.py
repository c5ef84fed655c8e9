"""Evolutionary access game over secondary-user strategies.

Each strategy is an access probability. A silent user collects the compliance
reward kappa; a transmitting user is paid only when it perceives at least one
other active non-primary transmitter (otherwise transgression pays zero), and
then earns delta on a successful transmission or loses nu on a failed one.
Success probabilities come from the closed-form Poisson-field channel model;
population shares evolve under discrete-step replicator dynamics.

The dynamics run a batch of cells at once: shares of shape (cells, m), with
per-cell incentives and per-cell attacker drive. A single run steps on Python
floats, with the arithmetic of the batch of its one cell, and a cell that
cannot be stepped is reported in `errors`, never raised.
"""
from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, List, Tuple, Union

import numpy as np

from .channel import ChannelParams, LinkBudget, max_allowable_su_density
from .keys import ConfigError, check

MAX_HALVINGS = 40
NONNEGATIVE_FAILURE = "replicator step could not keep shares nonnegative"
NONFINITE_FAILURE = NONNEGATIVE_FAILURE + ": non-finite payoffs"
ENV_KEYS = ("access_probs", "lambda_su", "lambda_pt", "sensing_radius", "include_pt_interference_at_su",
            "include_pt_interference_at_pr")  # the config keys a GameEnv holds and checks


@dataclass(frozen=True)
class PayoffParams:
    """Incentive triple: delta rewards success, nu prices failure, kappa pays compliance.

    Each value is a float, or a per-cell array for a batched run.
    """

    delta: float = 10.0
    nu: float = 1.0
    kappa: float = 0.0

    def __post_init__(self) -> None:
        check({"payoffs.delta": self.delta, "payoffs.nu": self.nu, "payoffs.kappa": self.kappa})

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
    Both are floats, or per-cell arrays in a batched run, not changed once
    built: a controller reuses its drive until a phase changes.
    """

    active_density: float = 0.0
    inducement: float = 0.0

    @cached_property
    def _step_terms(self):
        """The active density, checked nonnegative, and 1 - inducement, its
        inducement checked within [0, 1] (a failed check holds nothing: every
        call raises). A NaN passes both checks, to fail the step it drives."""
        if np.count_nonzero(np.less(self.active_density, 0)):
            raise ValueError("field density must be nonnegative")
        if np.count_nonzero(np.less(self.inducement, 0) | np.greater(self.inducement, 1)):
            raise ValueError("inducement must lie in [0, 1]")
        return self.active_density, 1.0 - self.inducement

# (step index, currently observed active SU density) -> MuDrive; the density
# is a Python float in a single run and a (cells,) array in a batch
MuSchedule = Callable[[int, Union[float, np.ndarray]], MuDrive]


@dataclass(frozen=True)
class GameEnv:
    """Everything the mean-field payoff needs: channel, incentives, strategies, densities, sensing."""

    channel: ChannelParams
    payoffs: PayoffParams
    access_probs: Tuple[float, ...] = (0.0, 1.0)
    lambda_su: float = 1e-3
    lambda_pt: float = 1e-5
    sensing_radius: float = 50.0
    include_pt_interference_at_su: bool = True
    include_pt_interference_at_pr: bool = False

    def __post_init__(self) -> None:
        check({name: getattr(self, name) for name in ENV_KEYS})
        p = tuple(float(v) for v in self.access_probs)
        object.__setattr__(self, "access_probs", p)
        if len(p) < 2 or any(b <= a for a, b in zip(p, p[1:])):
            raise ConfigError("access_probs must be at least two strictly increasing values")

    @cached_property
    def probs(self) -> np.ndarray:
        """access_probs as a read-only array."""
        probs = np.asarray(self.access_probs)
        probs.flags.writeable = False
        return probs

    @cached_property
    def link_budget(self) -> LinkBudget:
        """The SU link and the PR link, stacked on a last axis of length 2,
        over the active SU, active MU and PT fields; the PT coefficient is 0
        at a receiver that the PT field does not reach."""
        ch = self.channel
        powers = (ch.su_power, ch.mu_power, ch.pt_power)
        su = LinkBudget.of(ch.su_link_distance, ch.su_power, ch.su_sinr_threshold, powers, ch)
        pr = LinkBudget.of(ch.pt_link_distance, ch.pt_power, ch.pr_sinr_threshold, powers, ch)
        coefs = np.array([su.coefs, pr.coefs])  # (link, field)
        coefs[:, 2] *= [self.include_pt_interference_at_su, self.include_pt_interference_at_pr]
        return LinkBudget(np.array([su.threshold, pr.threshold]), su.k, np.array([su.noise, pr.noise]),
                          tuple(coefs.T))

    @cached_property
    def _step_terms(self):
        """What payoff_vector takes from this environment at every step: the
        strategy column p, the compliance payoffs (1 - p) * kappa of its
        strategies (per cell), link_budget's noise and its SU and MU field
        coefficients as (link, 1) columns (they broadcast against (cells,)
        densities), each link's PT field term lambda_PT * c_PT, which no step
        changes, and the sensing disk's -pi * R^2."""
        p = self.probs[:, None]
        budget = self.link_budget
        noise, c_su, c_mu, c_pt = (c[:, None] for c in (budget.noise, *budget.coefs))
        return (p, (1.0 - p) * self.payoffs.kappa, noise, c_su, c_mu, self.lambda_pt * c_pt,
                -math.pi * self.sensing_radius ** 2)

    @cached_property
    def _weights(self) -> Tuple[Tuple[int, float], ...]:
        """The (index, p) of each strategy that transmits (p > 0), in order."""
        return tuple((i, p) for i, p in enumerate(self.access_probs) if p)


def _active(x, weights, lambda_su):
    """lambda_su * sum_i x_i p_i over the (index, p) `weights`, per row of x.
    The terms are added in order, not by a BLAS dot, whose summation order
    depends on the kernel; a weight of 1.0 adds the share itself, the bits
    of x * 1.0."""
    terms = [x[..., i] if p == 1.0 else x[..., i] * p for i, p in weights]
    return lambda_su * sum(terms[1:], terms[0])


def active_su_density(shares, env: GameEnv):
    """Transmit-weighted secondary density lambda_SU * sum_i x_i p_i (per row)."""
    return _active(np.asarray(shares, dtype=float), env._weights, env.lambda_su)


def _closed_form(terms, payoffs: PayoffParams, act, mu_density, not_induced):
    """The mean-field (pi, q, s_su, s_pr) from an environment's `_step_terms`,
    its incentives and a drive's `_step_terms`, for (cells,) densities
    act + mu_density: pi is (cells, m), the rest (cells,)."""
    p, compliance, noise, c_su, c_mu, pt, neg_area = terms
    density = act + mu_density
    # no active transmitter in the sensing disk: exp(-density * pi * R^2), as 1 + expm1
    q = 1.0 - (1.0 + np.expm1(density * neg_area)) * not_induced
    # link_budget.success, its exponent summed in the budget's own field order:
    # the PT term folded into the noise up front would round differently
    exponent = noise + act * c_su + mu_density * c_mu  # (link, cells)
    exponent += pt
    s_su, s_pr = np.exp(np.negative(exponent, out=exponent), out=exponent)
    pi = (compliance + p * q * (payoffs.delta * s_su - payoffs.nu * (1.0 - s_su))).T
    return pi, q, s_su, s_pr


def payoff_vector(shares, env: GameEnv, mu: MuDrive):
    """Per-strategy mean-field payoffs under the attacker drive `mu`, plus the
    (q, s_su, s_pr) diagnostics.

    `shares` is (m,) or (cells, m); `mu` and env.payoffs may hold per-cell
    arrays. The active SU density of `shares` is computed and checked
    nonnegative on every call. The payoffs come back as (m,) or
    (cells, m), the diagnostics as floats or (cells,) arrays. The terms no
    step changes are held per environment (GameEnv._step_terms) and per
    drive (MuDrive._step_terms); each call adds up the ones that do.
    """
    mu_density, not_induced = mu._step_terms
    act = active_su_density(shares, env)
    if np.count_nonzero(act < 0):
        raise ValueError("field density must be nonnegative")
    if np.ndim(act) or np.ndim(mu_density):
        return _closed_form(env._step_terms, env.payoffs, act, mu_density, not_induced)
    # scalar densities: stepped as a cell axis of length 1, which only a
    # per-cell inducement or per-cell incentives keep
    pi, q, s_su, s_pr = _closed_form(env._step_terms, env.payoffs, np.reshape(act, 1), mu_density, not_induced)
    per_cell_q = np.ndim(not_induced)
    return (pi if per_cell_q or env.payoffs.batch_shape else pi[0]), (q if per_cell_q else q[0]), s_su[0], s_pr[0]


def _replicate(rows, pi, h: float) -> np.ndarray:
    """replicator_step of (cells, m) float `rows` under (cells, m) payoffs
    `pi`, for a step size h > 0."""
    finite = np.isfinite(pi)
    all_finite = np.count_nonzero(finite) == finite.size
    if not all_finite:
        finite = finite.all(axis=1)
        pi = np.where(finite[:, None], pi, 0.0)  # stepped flat, blanked below
    rel = pi - pi[:, :1]
    dev = rel - np.add.reduce(rows * rel, axis=1, keepdims=True)
    factors = h * dev
    factors += 1.0
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
            factors[pending] = math.nan
    if not all_finite:
        factors[~finite] = math.nan
    new = rows * factors
    new /= np.add.reduce(new, axis=1, keepdims=True)
    return new


def replicator_step(shares, payoffs, h: float) -> np.ndarray:
    """One Euler step of continuous replicator dynamics, renormalized to the simplex.

    Takes one (m,) share vector or a (cells, m) batch, stepped row by row.
    Payoffs are anchored to the first strategy before averaging so a common
    additive shift cancels structurally, not just in exact arithmetic. Where a
    step would drive a share negative, that row's h is halved (at most 40
    times). A row that cannot be stepped -- non-finite payoffs, or still
    negative after the last halving -- comes back as NaN, so that one bad
    cell stops no other; `step_failure` says why.
    """
    if not h > 0:
        raise ValueError("step size must be positive")
    x = np.asarray(shares, dtype=float)
    pi = np.asarray(payoffs, dtype=float)
    rows = x if x.ndim == 2 else x.reshape(-1, x.shape[-1])
    if pi.shape != rows.shape:
        pi = pi.reshape(rows.shape)
    new = _replicate(rows, pi, h)
    return new if x.ndim == 2 else new.reshape(x.shape)


def step_failure(payoffs) -> str:
    """Why `replicator_step` returned NaN for a row with these payoffs."""
    return NONNEGATIVE_FAILURE if np.isfinite(payoffs).all() else NONFINITE_FAILURE


@dataclass(frozen=True)
class Trajectory:
    """Pre-update state of every step run, stacked along a leading step axis.

    A cell axis follows the step axis, also for a single run: shares and
    payoffs are (steps, cells, m), the diagnostics (steps, cells) and
    final_shares (cells, m).
    `errors` holds, per cell, why that cell was frozen ("" for cells that ran
    to the end); a batch whose every cell failed ends at the last failure.
    A history-free run (`run_dynamics(..., history=False)`) holds only the
    last step run, as a step axis of length 1, so `[-1]` reads it the same.
    """

    shares: np.ndarray
    payoffs: np.ndarray
    s_su: np.ndarray
    s_pr: np.ndarray
    active_su_density: np.ndarray
    mu_density: np.ndarray
    inducement: np.ndarray
    final_shares: np.ndarray
    errors: Tuple[str, ...]


def transmitting_share(shares, probs) -> np.ndarray:
    """Total share on strategies with positive access probability `probs` (per row)."""
    return np.asarray(shares, dtype=float)[..., np.asarray(probs) > 0].sum(axis=-1)


def _replicate_row(x: List[float], pi: List[float], h: float) -> List[float]:
    """`_replicate` of one row of Python floats, op for op. Two strategies,
    the paper's game, step on scalars; any other width, a step that needs
    halvings or would divide by a zero sum, and a non-finite payoff, whose
    NaN makes the sum NaN, are handed to `_replicate`."""
    if len(x) == 2:
        (a0, a1), pi0 = x, pi[0]
        r0, r1 = pi0 - pi0, pi[1] - pi0
        mean = 0.0 + a0 * r0
        mean += a1 * r1
        f0, f1 = h * (r0 - mean) + 1.0, h * (r1 - mean) + 1.0
        n0, n1 = a0 * f0, a1 * f1
        total = 0.0 + n0
        total += n1
        if f0 >= 0.0 and f1 >= 0.0 and total > 0.0:
            return [n0 / total, n1 / total]
    return _replicate(np.array([x]), np.array([pi]), h)[0].tolist()


def _run_cell(x: List[float], env: GameEnv, mu_schedule: MuSchedule, steps: int, h: float, freeze_shares: bool,
              history: bool) -> Trajectory:
    """run_dynamics of one cell, stepped on Python floats.

    Every value is the array loop's, op for op: the same operands in the
    same order, and the replicator step of `_replicate_row`. expm1 and exp
    stay numpy calls, on buffers laid out as the array loop's operands, so
    they run numpy's own loops. The schedule sees the density as a Python
    float, which a controller holding a float bound answers without numpy
    on calls that change nothing. Each step's (shares, payoffs, s_su, s_pr,
    act, mu_density, inducement) is appended to one float64 buffer, whose
    views the trajectory returns.
    """
    m = len(x)
    weights, lambda_su = env._weights, env.lambda_su
    p, compliance, *links, neg_area = env._step_terms
    probs, compliance = p[:, 0].tolist(), compliance[:, 0].tolist()
    (noise_su, noise_pr), (su_su, su_pr), (mu_su, mu_pr), (pt_su, pt_pr) = (c[:, 0].tolist() for c in links)
    delta, nu = float(env.payoffs.delta), float(env.payoffs.nu)
    area_term, q_term, exponent = np.empty(1), np.empty(1), np.empty(2)
    rows = array("d")
    error, held = "", None
    for t in range(steps):
        terms = [x[i] if w == 1.0 else x[i] * w for i, w in weights]  # as _active adds them
        total = terms[0]
        for term in terms[1:]:
            total += term
        act = lambda_su * total
        drive = mu_schedule(t, act)
        if drive is not held:  # a controller reuses its drive until a phase changes
            held = drive
            mu, not_induced = (np.asarray(v, dtype=float).item() for v in drive._step_terms)
            inducement = np.asarray(drive.inducement, dtype=float).item()
        area_term[0] = (act + mu) * neg_area
        np.expm1(area_term, out=q_term)
        q = 1.0 - (1.0 + q_term.item()) * not_induced
        exponent[0] = -(noise_su + act * su_su + mu * mu_su + pt_su)
        exponent[1] = -(noise_pr + act * su_pr + mu * mu_pr + pt_pr)
        np.exp(exponent, out=exponent)
        s_su, s_pr = exponent.tolist()
        gain = delta * s_su - nu * (1.0 - s_su)
        pi = [c + w * q * gain for c, w in zip(compliance, probs)]
        step = (*x, *pi, s_su, s_pr, act, mu, inducement)
        if history:
            rows.extend(step)
        if freeze_shares:
            continue
        new = _replicate_row(x, pi, h)
        if new[0] != new[0]:  # NaN: the step failed
            error = f"{step_failure(pi)} (step {t})"
            break
        x = new
    if not history:  # the last step run, stored once
        rows = array("d", step)
    table = np.frombuffer(rows).reshape(-1, 1, 2 * m + 5)
    s_su, s_pr, act, mu_density, inducement = np.moveaxis(table[..., 2 * m:], -1, 0)
    return Trajectory(table[..., :m], table[..., m:2 * m], s_su, s_pr, act, mu_density, inducement,
                      final_shares=np.array([x]), errors=(error,))


@np.errstate(over="ignore", invalid="ignore")  # a step that overflows fails its cell, silently
def run_dynamics(
    x0,
    env: GameEnv,
    mu_schedule: MuSchedule,
    steps: int,
    h: float,
    freeze_shares: bool = False,
    history: bool = True,
) -> Trajectory:
    """Iterate payoff evaluation and replicator steps under a malicious-user schedule.

    The cells are the rows of x0 ((m,) or (cells, m), each on the simplex,
    as a config's x0 is checked to be), broadcast against per-cell
    incentives in env.payoffs. Each step the schedule sees every cell's
    current active secondary density (a float in a single run, a (cells,)
    array in a batch), then the payoffs and (q, s_su, s_pr)
    come from the closed form of `payoff_vector` on env. (A Monte Carlo
    run measures its payoffs instead, and steps on them with
    `_replicate_row` in its own window loop.)

    A single run (1-D x0, scalar incentives) steps on Python floats
    (`_run_cell`); a batch steps its (cells, m) arrays. Both do the same
    arithmetic in the same order, so a single run gives the bits of the
    batch of its one cell. Two loops, because a batch step is a few dozen
    numpy calls whatever the cell count, which on one cell is call overhead,
    while floats would pay per cell the Python work numpy does per call.
    A cell whose payoffs turn non-finite, or whose replicator step fails, is
    frozen at its last shares with the reason in `errors`, and the other
    cells run on; once none is left, the trajectory ends at that step.

    With `history=False` the per-step arrays have one row, written once
    when the loop ends, from the last step run: O(cells) memory, for callers
    that read only the end (`sweep_region` and the launch forecast of
    `decide_launch`). The arithmetic is the same, so that row,
    `final_shares` and `errors` equal the full run's, byte for byte.

    The step size is checked once, before the first step, and each batch
    step calls the cores of `active_su_density`, `payoff_vector` and
    `replicator_step` on the loop's own (cells, m) arrays, which convert and
    check nothing. Those public functions are the checked wrappers over the
    same cores, and the tests hold both loops to a plain loop over them.
    """
    if steps < 1:
        raise ValueError("need at least one step")
    if not h > 0:
        raise ValueError("step size must be positive")
    m = len(env.access_probs)
    x0 = np.asarray(x0, dtype=float)
    batch = np.broadcast_shapes(x0.shape[:-1], env.payoffs.batch_shape)
    x = np.array(np.broadcast_to(x0, batch + (m,)), ndmin=2)
    if not batch:
        return _run_cell(x[0].tolist(), env, mu_schedule, steps, h, freeze_shares, history)
    cells = len(x)
    shares, payoffs = np.empty((2, steps if history else 1, cells, m))
    s_su, s_pr, act, mu_density, inducement = np.empty((5, len(shares), cells))
    errors = [""] * cells
    live = np.ones(cells, dtype=bool)
    all_live = True
    weights, lambda_su, terms, incentives = env._weights, env.lambda_su, env._step_terms, env.payoffs
    for t in range(steps):
        density = _active(x, weights, lambda_su)
        drive = mu_schedule(t, density)
        pi, _, su, pr = _closed_form(terms, incentives, density, *drive._step_terms)
        step = x, pi, su, pr, density, drive.active_density, drive.inducement
        if history:
            shares[t], payoffs[t], s_su[t], s_pr[t], act[t], mu_density[t], inducement[t] = step
        if freeze_shares:
            continue
        new = _replicate(x, pi if all_live else np.where(live[:, None], pi, 0.0), h)
        failed = np.isnan(new[:, 0])
        if np.count_nonzero(failed):
            failed &= live
            for c in np.flatnonzero(failed):
                errors[c] = f"{step_failure(pi[c])} (step {t})"
            live &= ~failed
            all_live = False
            if not np.count_nonzero(live):
                break
        x = new if all_live else np.where(live[:, None], new, x)
    if not history:  # the last step run, stored once
        shares[0], payoffs[0], s_su[0], s_pr[0], act[0], mu_density[0], inducement[0] = step
    n = t + 1 if history else 1  # rows filled
    columns = shares, payoffs, s_su, s_pr, act, mu_density, inducement
    return Trajectory(*(column[:n] for column in columns), final_shares=x, errors=tuple(errors))


@dataclass(frozen=True)
class SweepCell:
    """The rest state of one cell under its incentives."""

    delta: float
    nu: float
    kappa: float
    classification: str  # "robust" | "fragile" | "error"
    terminal_mutant_share: float
    error: str = ""  # why the cell failed, for classification "error"


def classify_operating_point(env: GameEnv, traj: Trajectory, extinction_tol: float) -> List[SweepCell]:
    """Classify the rest state of every cell of `traj`, a run of the
    inducing attack on env from the configured start.

    Fragile if the terminal transmit-weighted density violates the primary
    outage cap of env.channel; robust if the transmitting share ends below
    `extinction_tol`; otherwise the sign of the terminal payoff drift decides,
    with zero drift counted fragile (conservative from the defender's side).

    Reads only the final shares and the last step's drive. One SweepCell per
    cell comes back, in cell order, with that cell's incentives from
    env.payoffs: a list of one for a single run. A cell that failed is
    labelled "error" with its reason.
    """
    probs = env.probs
    x_T = traj.final_shares
    terminal = transmitting_share(x_T, probs=probs)
    last_mu = MuDrive(traj.mu_density[-1], traj.inducement[-1])
    weighted = x_T * payoff_vector(x_T, env, last_mu)[0]
    with np.errstate(divide="ignore", invalid="ignore"):
        drift = weighted[:, probs > 0].sum(axis=1) / terminal - weighted.sum(axis=1)
    fragile = active_su_density(x_T, env) > max_allowable_su_density(env.channel)
    labels = np.where(~fragile & ((terminal < extinction_tol) | (drift < 0)), "robust", "fragile").tolist()
    pay = env.payoffs
    incentives = zip(*(np.broadcast_to(v, terminal.shape).tolist() for v in (pay.delta, pay.nu, pay.kappa)))
    return [SweepCell(*cell, "error", math.nan, error) if error else SweepCell(*cell, label, share)
            for cell, label, share, error in zip(incentives, labels, terminal.tolist(), traj.errors)]
