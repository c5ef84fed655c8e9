"""Simulation engine: couples the spatial interference model, the evolutionary
access game and the attack controller into slotted Monte Carlo runs and
deterministic mean-field iterations, and collects per-step metrics.

Time is organized in replicator updates. In mean-field mode one update is one
step of the closed-form iteration; in Monte Carlo mode each update averages
payoffs over a window of fading/access slots on a sampled topology.
"""
from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass, field, replace
from types import SimpleNamespace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .attack import (
    AttackController,
    PHASES,
    AttackPhase,
    PhaseEvent,
    phase_history,
)
from .channel import ChannelParams, max_allowable_su_density, path_gain, torus_tail
from .game import (
    ENV_KEYS,
    GameEnv,
    PayoffParams,
    SweepCell,
    Trajectory,
    _replicate_row,
    classify_operating_point,
    run_dynamics,
    step_failure,
)
from .geometry import CellGrid, Region, cells_per_axis, pairs_within, pairwise_toroidal, sample_world
from .keys import INTERFERENCE_CUTOFF, KEYS, ConfigError, check, check_bounds

BUILD_CHUNK_ENTRIES = 1 << 15  # block entries given distances per call while building
# a window gathers its sending and PT columns while fewer than this share of
# the senders' slots, and of the widest block's columns, are kept; gathered
# and whole products cost the same at 0.4 (3000 m) to 0.55 (800 m) of columns
GATHER_SHARE = 0.45
MAX_RUN_BYTES = 2 << 30  # a config whose run_bytes exceed this is refused at load
CSV_BLOCK_ROWS = 1024  # metrics.csv is formatted and written this many rows at a time
FIXED_BYTES = 1 << 18  # what run_bytes counts for the parts of a run that no key sizes


class SimulationError(RuntimeError):
    """A run could not be carried out (e.g. degenerate population)."""


@dataclass(frozen=True)
class ScenarioConfig:
    """Fully resolved description of one run; every field affects the output."""

    mode: str = "meanfield"
    seed: int = 1
    region_side: float = 3000.0
    lambda_pt: float = 1e-5
    lambda_su: float = 1e-3
    lambda_mu: float = 1e-7
    channel: ChannelParams = field(default_factory=ChannelParams)
    payoffs: PayoffParams = field(default_factory=PayoffParams)
    access_probs: Tuple[float, ...] = (0.0, 1.0)
    x0: Tuple[float, ...] = (0.99, 0.01)
    steps: int = 150
    window: int = 20
    step_size: float = 0.1
    sensing_radius: float = 50.0
    mu_access_prob: float = 0.5
    hysteresis: int = 5
    inducing_perception: float = 1.0
    launch_policy: str = "forecast"
    inactive_mu_behavior: str = "silent"
    include_pt_interference_at_pr: bool = False
    include_pt_interference_at_su: bool = True
    resample_topology: bool = False
    freeze_shares: bool = False
    extinction_tolerance: float = 1e-3

    def __post_init__(self) -> None:
        """Check each key once against keys.KEYS (the channel, payoffs and env theirs as they are built), then in
        Monte Carlo mode every key's MC_BOUNDS, the cross-key rules, and run_bytes against MAX_RUN_BYTES."""
        check({name: getattr(self, name) for name in KEYS if "." not in name and name not in ENV_KEYS})
        object.__setattr__(self, "access_probs", self.env.access_probs)
        if self.mode == "montecarlo":
            check_bounds({name: functools.reduce(getattr, name.split("."), self) for name in KEYS}, self)
        object.__setattr__(self, "x0", tuple(float(v) for v in self.x0))
        if error := _cross_key_error(self):
            raise ConfigError(error)
        parts = run_bytes(self)
        total, part = sum(parts.values()), max(parts, key=parts.get)
        if not total <= MAX_RUN_BYTES:
            key, gib, share = BYTE_PART_KEYS[part], 2 ** 30, parts[part] / total if total < math.inf else 1.0
            raise ConfigError(f"{key}={getattr(self, key)}: the run needs an estimated {total / gib:,.1f} GiB, "
                              f"{share:.0%} of it for {part}, above the {MAX_RUN_BYTES / gib:g} GiB limit")

    @functools.cached_property
    def env(self) -> GameEnv:
        """The game this config plays, built (and its keys checked) once."""
        return GameEnv(self.channel, self.payoffs, **{name: getattr(self, name) for name in ENV_KEYS})

    def controller(self, launch: Optional[bool]) -> AttackController:
        """A fresh controller held to the channel's density cap; launch None defers to resolve_launch."""
        return AttackController(self.lambda_mu, max_allowable_su_density(self.channel), launch=launch,
                                inactive_behavior=self.inactive_mu_behavior, lambda_su=self.lambda_su,
                                mu_access_prob=self.mu_access_prob, hysteresis=self.hysteresis,
                                inducement=self.inducing_perception)

    def to_dict(self) -> Dict:
        """The config as plain data, field by field: the channel and payoffs
        each a fresh dict, which a caller may change, x0 and access_probs lists."""
        data = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        for key in ("channel", "payoffs"):
            data[key] = {f.name: getattr(data[key], f.name) for f in dataclasses.fields(data[key])}
        return {**data, "access_probs": list(self.access_probs), "x0": list(self.x0)}

    @classmethod
    def from_dict(cls, data: Dict) -> "ScenarioConfig":
        kwargs = dict(_known(data, cls, "config"))
        for key, part in (("channel", ChannelParams), ("payoffs", PayoffParams)):
            if key in kwargs:
                kwargs[key] = part(**_known(kwargs[key], part, key))
        return cls(**kwargs)


def _known(data, cls, what: str) -> Dict:
    """`data`, checked to be an object whose keys are all fields of cls."""
    if not isinstance(data, dict):
        raise ConfigError(f"{what} must be an object, got {data!r}")
    unknown = set(data) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise ConfigError(f"unknown {what} keys: {sorted(unknown)}")
    return data


def _cross_key_error(config: ScenarioConfig) -> str:
    """Why the first broken cross-key rule is broken, or "". In order: no link
    budget overflows (at load, not mid-run); noise alone leaves the primary
    outage constraint room for some SU density; x0 has one share per access
    probability, summing to 1; the sensing radius's square is finite."""
    try:
        budget = config.env.link_budget
        if not np.isfinite([budget.noise, *budget.coefs]).all():
            raise OverflowError("a noise term or field coefficient is not finite")
        max_allowable_su_density(config.channel)
    except OverflowError as exc:
        return f"channel: a link budget overflows: {exc.args[-1]}"
    except ValueError as exc:
        return f"channel: {exc}"
    if len(config.x0) != len(config.access_probs):
        return f"x0 invalid: expected {len(config.access_probs)} strategy shares, got {len(config.x0)}"
    if abs(sum(config.x0) - 1.0) > 1e-9:  # as far as x0 may sum from 1
        return "x0 invalid: shares must be a simplex vector"
    if not math.isfinite(float(config.sensing_radius) * config.sensing_radius):
        return "sensing_radius is too large: its square overflows"
    return ""


@dataclass(frozen=True, eq=False)
class RunResult:
    """A run's per-step series: `columns` maps each `metrics_columns` name,
    `pr_success_raw`, `su_success_raw` (per-slot SINR-threshold rates) and in
    Monte Carlo the (steps, m) `strategy_counts` to one entry per step, with
    `mu_phase` as codes into PHASES. `records` builds one row per step from
    them on first access, for readers outside the package. A Monte Carlo
    `topology` counts the first sampled topology's nodes and pairs."""

    config: ScenarioConfig
    columns: Dict[str, np.ndarray]
    events: List[PhaseEvent]
    topology: Optional[Dict[str, int]] = None

    @functools.cached_property
    def records(self) -> List[SimpleNamespace]:
        """One row per step, with an attribute per name in `columns`; `mu_phase` is the phase's name."""
        cols = {name: col.tolist() for name, col in self.columns.items()}
        cols["mu_phase"] = [PHASES[code].value for code in cols["mu_phase"]]
        return [SimpleNamespace(**dict(zip(cols, row))) for row in zip(*cols.values())]


def metrics_columns(m: int) -> List[str]:
    cols = ["t_update", "t_slot"]
    cols += [f"share_s{i + 1}" for i in range(m)]
    cols += ["active_su_density", "mu_phase", "pr_success", "su_success",
             "pr_sinr_db_mean", "pr_sinr_db_median", "su_sinr_db_mean", "su_sinr_db_median"]
    cols += [f"payoff_s{i + 1}" for i in range(m)]
    return cols


def _result(config: ScenarioConfig, slot: int, shares: np.ndarray, payoffs: np.ndarray, events: List[PhaseEvent],
            topology: Optional[Dict[str, int]] = None, **named: np.ndarray) -> RunResult:
    """A run's result: its (steps, m) shares and payoffs, the phases `events`
    set, and `named`; step t ends at slot t * window + slot."""
    n = len(shares)
    columns = {"t_update": np.arange(n), "t_slot": np.array(range(slot, n * config.window, config.window)),
               "mu_phase": phase_history(events, n)[:, 0]}
    for i in range(len(config.access_probs)):
        columns[f"share_s{i + 1}"], columns[f"payoff_s{i + 1}"] = shares[:, i], payoffs[:, i]
    return RunResult(config, columns | named, events, topology)


def _to_db(value: float) -> float:
    return 10.0 * math.log10(value) if value > 0 else math.nan  # NaN is not > 0


def _median(x: np.ndarray) -> float:
    """`np.median` of all of a non-empty x, from one selection instead of two.

    Of an even size, the lower middle is the largest value the selection
    puts below the upper one, and the pair is summed and halved as
    `np.median` does. NaN whenever x holds one: NaN selects as the largest.
    """
    k = x.size // 2
    part = np.partition(x, k, axis=None)
    if np.isnan(part[k:]).any():
        return math.nan
    return float(part[k] if x.size % 2 else (part[:k].max() + part[k]) / 2)


def _outage_met(ok: np.ndarray, constraint: float) -> float:
    """Share of the rows of a (links, slots) bool success array whose share of
    successful slots is at least 1 - constraint. A product with ones counts
    each row exactly, and the counts are divided as a mean divides them."""
    n_slots = ok.shape[1]
    return int(np.count_nonzero(ok @ np.ones(n_slots) / n_slots >= 1.0 - constraint)) / len(ok)


def _payoff_table(payoffs: PayoffParams) -> np.ndarray:
    """A Monte Carlo slot's payoff by code access * (1 + perceived * (1 + su_ok)):
    kappa when idle, 0 for access that perceives no neighbour, then failed and
    successful perceived access as `delta * ok - nu * ~ok` at ok = False, True
    (so nu = 0 gives 0.0, not -0.0)."""
    ok = np.array([False, True])
    return np.concatenate([[payoffs.kappa, 0.0], payoffs.delta * ok - payoffs.nu * ~ok])


def _slot_payoffs(table: np.ndarray, access: np.ndarray, perceived: np.ndarray, su_ok: np.ndarray) -> np.ndarray:
    """Each slot's payoff from `_payoff_table`, read at the uint8 code
    access * (1 + perceived * (1 + su_ok)) of the slot's bool flags."""
    code = np.add(su_ok, 1, dtype=np.uint8)
    code *= perceived
    code += 1
    code *= access
    return np.take(table, code)


def decide_launch(config: ScenarioConfig, env: GameEnv,
                  lambda_mu: float) -> Tuple[bool, Optional[Tuple[AttackController, Trajectory]]]:
    """Whether `lambda_mu` attackers launch under config's launch policy, and
    the launched forecast that a run may keep: a pair (launch, kept).

    "always" and "never" decide alone. A "forecast" does not launch where
    the SU population, every user on its most aggressive strategy, stays
    within the channel's density cap. Elsewhere it launches iff its
    mean-field forecast ends fragile: the config's inducing knobs, launched
    at once and silent, run from its x0 on env, whose SU and PT densities
    are the attackers' estimates. `kept` is that forecast's (controller,
    trajectory), with its step history, where config is a mean-field run
    that is its own forecast (`_forecast_pass`) and it launched; else None.
    Pure in its inputs; raises ValueError, with the reason, if the
    forecast's dynamics failed.
    """
    if config.launch_policy != "forecast":
        return config.launch_policy == "always", None
    cap = max_allowable_su_density(env.channel)
    if not env.lambda_su * max(env.access_probs) > cap:
        return False, None
    keep = _forecast_pass(config)
    controller = AttackController(lambda_mu, cap, launch=True, mu_access_prob=config.mu_access_prob,
                                  hysteresis=config.hysteresis, inducement=config.inducing_perception)
    traj = run_dynamics(np.asarray(config.x0), env, controller, config.steps, config.step_size, history=keep)
    [verdict] = classify_operating_point(env, traj, config.extinction_tolerance)
    if verdict.classification == "error":
        raise ValueError(verdict.error)
    launch = verdict.classification == "fragile"
    return launch, (controller, traj) if launch and keep else None


def _forecast_pass(config: ScenarioConfig) -> bool:
    # run_meanfield's first pass is the launched forecast, and a no takes a second, unlaunched one
    return (config.mode == "meanfield" and config.launch_policy == "forecast"
            and config.inactive_mu_behavior == "silent" and not config.freeze_shares)


def _most(mean: float) -> float:
    """A count that the largest of a few hundred Poisson draws of this mean rarely exceeds."""
    return mean + 4.0 * math.sqrt(mean) + 4.0


# the key that scales each part of run_bytes, which a refusal names
BYTE_PART_KEYS = {"the step history": "steps", "the nodes": "region_side", "the sensing pairs": "sensing_radius",
                  "the PT gains": "lambda_pt", "the near-field blocks": "region_side", "the window arrays": "window"}


def _blocks_per_axis(side: float) -> int:
    """Cells per axis of a topology's block grid: `INTERFERENCE_CUTOFF` wide,
    or one block where the 3 x 3 neighbourhood would cover the grid anyway."""
    nc = cells_per_axis(side, INTERFERENCE_CUTOFF)
    return 1 if nc <= 3 else nc


def run_bytes(config: ScenarioConfig) -> Dict[str, float]:
    """A run's estimated peak bytes, by part (as BYTE_PART_KEYS names them):
    per step, (2m + 5) float64 for each dynamics pass (one in Monte Carlo),
    the metrics columns, and 16 values of SINR-median work or, in Monte
    Carlo, m strategy counts: an upper bound there, where a run keeps 2m
    shares and payoffs, 9 window values and m counts per step. Then a CSV
    block at 72 B per value, and FIXED_BYTES. Monte Carlo adds, at `_most`
    of each mean count, 64 B per node and per sensing pair; 24 B per
    receiver per PT, the PT gains' float64 distances of every receiver at
    once (an upper bound: the build makes them a chunk of rows at a time);
    4 B per near-field block entry (blocks x senders in 3 x 3 cells and the
    PTs x receivers in a cell), 1 + GATHER_SHARE times over while a window
    gathers; and per slot, 64 B per SU and PT and 4 B per block column."""
    m = len(config.access_probs)
    columns = len(metrics_columns(m))
    mc = config.mode == "montecarlo"
    passes = 1 + _forecast_pass(config)
    per_step = 8 * (passes * (2 * m + 5) + columns + (m if mc else 16))
    csv_block = min(config.steps, CSV_BLOCK_ROWS) * columns * 72
    parts = {"the step history": float(config.steps * per_step + csv_block + FIXED_BYTES)}
    if not mc:
        return parts
    side = float(config.region_side)  # float products overflow to inf, not to an error
    area = side * side
    n_pt, n_su, n_mu = (_most(density * area if density else 0.0)  # no nodes of a class of density 0
                        for density in (config.lambda_pt, config.lambda_su, config.lambda_mu))
    parts["the nodes"] = 64 * (n_pt + n_su + n_mu)
    sensing_area = min(math.pi * config.sensing_radius * float(config.sensing_radius), area)
    parts["the sensing pairs"] = 64 * n_su * (config.lambda_su + config.lambda_mu) * sensing_area
    parts["the PT gains"] = 24 * (n_pt + n_su) * n_pt
    nc = _blocks_per_axis(side)
    if nc == 1:
        blocks, width, rows = 1, n_su + n_mu + n_pt, n_pt + n_su
    else:
        cell = (side / nc) ** 2
        blocks, rows = float(nc) * nc, _most((config.lambda_pt + config.lambda_su) * cell)
        width = _most((config.lambda_su + config.lambda_mu) * 9 * cell) + n_pt
    parts["the near-field blocks"] = 4 * blocks * width * rows * (1 + GATHER_SHARE)
    parts["the window arrays"] = config.window * (64 * (n_su + n_pt) + 4 * blocks * width)
    return parts


def run_meanfield(config: ScenarioConfig) -> RunResult:
    """Deterministic closed-form iteration; consumes no randomness.

    The controller is granted oracle density estimates, so the launch decision
    resolves before the first step. With `launch_policy="forecast"`, silent
    withdrawal and moving shares, where the attack can succeed, the
    attackers' forecast is this run launched at once: it is kept when it ends
    fragile, and only a negative forecast takes a second, unlaunched pass.
    The SINR medians are solved for the kept pass only. Success columns
    report whether the closed-form outage constraint of each link class
    currently holds. Raises ValueError, with the reason, if the dynamics fail.
    """
    if config.mode != "meanfield":
        raise ConfigError("run_meanfield requires mode='meanfield'")
    ch, env = config.channel, config.env
    launch, kept = decide_launch(config, env, config.lambda_mu)
    if kept:  # the launched forecast is this run
        controller, traj = kept
    else:
        controller = config.controller(launch)
        traj = run_dynamics(np.asarray(config.x0), env, controller, config.steps, config.step_size,
                            freeze_shares=config.freeze_shares)
    if traj.errors[0]:
        raise ValueError(traj.errors[0])
    su_med, pr_med = np.moveaxis(env.link_budget.median(
        (traj.active_su_density[..., None], traj.mu_density[..., None], env.lambda_pt)), -1, 0)
    pr_db, su_db = (np.array([_to_db(v) for v in med[:, 0].tolist()]) for med in (pr_med, su_med))
    return _result(config, 0, traj.shares[:, 0], traj.payoffs[:, 0], controller.events,
                   pr_success_raw=traj.s_pr[:, 0], su_success_raw=traj.s_su[:, 0],
                   active_su_density=traj.active_su_density[:, 0],
                   pr_success=(traj.s_pr[:, 0] >= 1.0 - ch.pr_outage_constraint).astype(float),
                   su_success=(traj.s_su[:, 0] >= 1.0 - ch.su_outage_constraint).astype(float),
                   pr_sinr_db_mean=pr_db, pr_sinr_db_median=pr_db, su_sinr_db_mean=su_db, su_sinr_db_median=su_db)


def _sensing_neighbours(sus, senders, radius, region):
    """Row pointers and column indices of the SU x sender sensing relation:
    SU i senses `indices[indptr[i]:indptr[i + 1]]`, in ascending order, every
    sender within the radius except itself (the senders start with the SUs)."""
    rows, cols = pairs_within(sus, senders, radius, region)
    off_diagonal = rows != cols
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows[off_diagonal], minlength=len(sus)))])
    return indptr, cols[off_diagonal]


class _Topology:
    """Interference blocks and sensing neighbours of one sampled world.

    Receivers are the PRs, then the SU receivers; transmitters are the
    senders (the SUs, then the MUs), then the PTs. Receivers and senders are
    binned into one nc x nc torus grid of cells at least
    `INTERFERENCE_CUTOFF` wide. `gain` is laid out (blocks, columns, rows).
    Block b's columns are the transmitters `cols[b]`: the senders in the
    3 x 3 cells around cell b, padding (index n_su + n_mu + n_pt), then every
    PT, each stored as one contiguous run of its gains. Its rows are the
    receivers of cell b: receiver i is row `rx_pos[i] % rows` of block
    `rx_pos[i] // rows`. A sender entry is the path gain within the cutoff,
    and 0 beyond it, on a receiver's own link and in the padding; `far` is
    the mean tail beyond the cutoff per unit of sender load. A grid the
    3 x 3 neighbourhood would cover anyway (a side up to 800 m) is one cell,
    whose block holds every pair exactly, with no cutoff and no tail: there
    blocking saves nothing, and the near field is the dense all-pairs
    product's up to float32 rounding. PT entries are exact at
    any distance, and 0 where the config excludes them. Distances and path
    gains are float64, and `gain` stores them rounded once to float32.
    `interference` gathers only the columns of senders that transmit, and
    the PTs, while few transmit; `sinr` decides every SINR within
    `tolerance` of its threshold on exact sums, whatever the product's order.
    SU i senses the senders `sense_indices[sense_indptr[i]:sense_indptr[i + 1]]`.
    """

    def __init__(self, world, config: ScenarioConfig):
        self.world = world
        region, ch, cutoff = world.region, config.channel, INTERFERENCE_CUTOFF
        n_pt, n_su, n_mu = self.n_pt, self.n_su, self.n_mu = len(world.pts), len(world.sus), len(world.mus)
        self.receivers = np.concatenate([world.prs, world.su_receivers])
        senders = np.concatenate([world.sus, world.mus])
        self.sense_indptr, self.sense_indices = _sensing_neighbours(world.sus, senders, config.sensing_radius,
                                                                    region)

        nc = _blocks_per_axis(region.side)
        self.far = torus_tail(cutoff, region.side, ch.alpha) / region.area if nc > 1 else 0.0
        rx_grid, tx_grid = CellGrid(self.receivers, nc, region.side), CellGrid(senders, nc, region.side)
        blocks = np.arange(nc * nc)
        around = tx_grid.around(blocks // nc, blocks % nc)
        col_block, col_of = tx_grid.members(around.ravel())
        col_block //= around.shape[1]
        n_cols = np.bincount(col_block, minlength=len(blocks))
        col_start = np.cumsum(n_cols) - n_cols
        width = n_cols.max()
        self.cols = np.full((len(blocks), width + n_pt), len(senders) + n_pt)
        self.cols[col_block, np.arange(len(col_of)) - col_start[col_block]] = col_of
        self.cols[:, width:] = len(senders) + np.arange(n_pt)
        # receiver i's row in the blocks' products stacked to (blocks * rows per block, slots)
        n_rows, row_start, row_of = rx_grid.counts, rx_grid.starts, rx_grid.order
        self.rx_pos = np.empty(len(self.receivers), dtype=np.intp)
        self.rx_pos[row_of] = np.repeat(blocks * n_rows.max() - row_start, n_rows) + np.arange(len(row_of))
        # a float32 sum of n products of float32 numbers, in any order, is within
        # n * 2**-24 / (1 - n * 2**-24) of the exact sum, relative; two more
        # terms and the doubled denominator also cover its quotient into an
        # SINR, and the float64 roundings around it
        bound = (width + n_pt + 2) * 2.0 ** -24
        self.tolerance = bound / (1.0 - 2.0 * bound)

        self.gain = np.zeros((len(blocks), width + n_pt, n_rows.max()), dtype=np.float32)
        own = np.arange(len(self.receivers)) - n_pt  # each SU receiver's own sender
        self.interference_pairs = 0
        for b in np.flatnonzero(n_rows * n_cols):
            c = col_of[col_start[b]:col_start[b] + n_cols[b]]
            step = max(1, BUILD_CHUNK_ENTRIES // len(c))
            for lo in range(0, n_rows[b], step):
                r = row_of[row_start[b] + lo:row_start[b] + min(lo + step, n_rows[b])]
                d = pairwise_toroidal(senders[c], self.receivers[r], region)
                near = c[:, None] != own[r]
                if nc > 1:
                    near &= d <= cutoff
                # in place, then copied: a mixed-type product into the strided block is slower
                self.gain[b, :len(c), lo:lo + len(r)] = np.multiply(path_gain(d, ch, out=d), near, out=d)
                self.interference_pairs += int(np.count_nonzero(near))

        # the PT columns of the included receivers (PRs first), a chunk of rows at a time
        rx_block, rx_row = np.divmod(self.rx_pos, n_rows.max())
        first = 0 if config.include_pt_interference_at_pr else n_pt
        last = len(self.receivers) if config.include_pt_interference_at_su else n_pt
        step = max(1, BUILD_CHUNK_ENTRIES // max(1, n_pt))
        for lo in range(first, last, step):
            hi = min(lo + step, last)
            pt = pairwise_toroidal(self.receivers[lo:hi], world.pts, region)
            path_gain(pt, ch, out=pt)
            own = np.arange(lo, min(hi, n_pt))
            pt[own - lo, own] = 0.0  # a PR's own PT carries the signal
            self.gain[rx_block[lo:hi], width:, rx_row[lo:hi]] = pt

    def interference(self, load: np.ndarray, extra: Optional[np.ndarray] = None,
                     at: Optional[Tuple[np.ndarray, np.ndarray]] = None) -> np.ndarray:
        """(receivers, slots) interference from the (transmitters, slots)
        loads, plus `extra` of that shape if given; only at the receivers and
        slots `at` = (rx, slot) if given.

        The near field is a float32 product per block, (slots, columns) @
        (columns, rows), widened to float64. Only senders that transmit in
        some slot add to it, and the PTs, so while few transmit
        (`GATHER_SHARE`) each block's kept gain rows and loads are gathered
        into one narrower product. With `at` it is instead the `math.fsum`
        of the float32 gains times the float32-rounded loads, each product
        exact in float64: correctly rounded, in no summation order. Beyond
        the cutoff every receiver gets the mean field, in float64: `far`
        times the slot's sender load, summed by numpy, less its own SU's.
        """
        n_senders = self.n_su + self.n_mu
        if at is None:
            near = self._near_blocks(load.astype(np.float32))
            out = np.array(near.transpose(0, 2, 1), dtype=np.float64, order="C").reshape(-1, load.shape[1])
            if len(near) > 1:  # a single block holds every receiver in order
                out = np.take(out, self.rx_pos, axis=0)
            rx, slot = slice(None), slice(None)
        else:
            rx, slot = at
            out = self._near_exact(load, rx, slot)
        if self.far:
            out += self.far * np.add.reduce(load[:n_senders], axis=0)[slot]
            if at is None:
                out[self.n_pt:] -= self.far * load[:self.n_su]
            else:
                su = rx >= self.n_pt
                out[su] -= self.far * load[rx[su] - self.n_pt, slot[su]]
        if extra is not None:
            out += extra[rx, slot]
        return out

    def _near_blocks(self, loads: np.ndarray) -> np.ndarray:
        """The (blocks, slots, rows) float32 near-field products."""
        n_blocks, n_cols, n_rows = self.gain.shape
        n_senders, n_slots, n_pt = self.n_su + self.n_mu, loads.shape[1], self.n_pt
        sending = loads[:n_senders] > 0.0
        if np.count_nonzero(sending) < GATHER_SHARE * sending.size:
            flags = np.zeros(len(loads) + 1, dtype=bool)  # the PTs and the padding index count apart
            flags[:n_senders] = sending @ np.ones(n_slots, dtype=bool)
            kept = np.take(flags, self.cols)
            count = np.count_nonzero(kept, axis=1)
            width = int(count.max()) + n_pt
            if width < GATHER_SHARE * n_cols:
                # each block's sending columns, then its PTs; the places a
                # block leaves empty read gain row 0 against zero loads
                at = np.flatnonzero(kept)
                rows, tx = np.zeros((2, n_blocks, width), dtype=np.intp)
                place = at // n_cols, np.arange(len(at)) - np.repeat(np.cumsum(count) - count, count)
                rows[place], tx[place] = at, np.take(self.cols, at)
                rows[:, width - n_pt:] = (np.arange(n_blocks) * n_cols)[:, None] + np.arange(n_cols - n_pt, n_cols)
                tx[:, width - n_pt:] = np.arange(n_senders, n_senders + n_pt)
                loads = np.take(loads, tx, axis=0)
                loads[:, :width - n_pt][np.arange(width - n_pt) >= count[:, None]] = 0.0
                return np.matmul(loads.transpose(0, 2, 1), np.take(self.gain.reshape(-1, n_rows), rows, axis=0))
        # the padding index clips to the last transmitter, whose load meets a zero gain
        return np.matmul(np.take(loads, self.cols, axis=0, mode="clip").transpose(0, 2, 1), self.gain)

    def _near_exact(self, load: np.ndarray, rx: np.ndarray, slot: np.ndarray) -> np.ndarray:
        block, row = np.divmod(self.rx_pos[rx], self.gain.shape[2])
        # the padding index clips to the last load, which meets a zero gain
        loads = np.take(load, self.cols[block] * load.shape[1] + slot[:, None], mode="clip").astype(np.float32)
        terms = self.gain[block, :, row].astype(np.float64) * loads
        return np.array([math.fsum(t) for t in terms.tolist()], dtype=np.float64)

    def sinr(self, load: np.ndarray, signals: Tuple[np.ndarray, np.ndarray], noise: float,
             thresholds: Tuple[float, float], extra: Optional[np.ndarray] = None) -> List[Tuple[np.ndarray, np.ndarray]]:
        """The PRs' and the SU receivers' (receivers, slots) SINRs from their
        desired signal powers and the interference of `load` and `extra`,
        each with its decisions `sinr >= threshold`.

        Every entry within `tolerance` (relative) of its threshold is
        recomputed from exact near-field sums and decided on them; the
        float32 product can put no other entry on the wrong side, so no
        decision depends on the order BLAS sums in.
        """
        interference = self.interference(load, extra)
        out = []
        for first, signal, threshold in zip((0, self.n_pt), signals, thresholds):
            sinr = noise + interference[first:first + len(signal)]
            np.divide(signal, sinr, out=sinr)
            # outside the band around the threshold, both edges decide alike
            ok, high = sinr >= threshold * (1.0 - self.tolerance), sinr > threshold * (1.0 + self.tolerance)
            if np.count_nonzero(ok) > np.count_nonzero(high):
                rx, slot = np.divmod(np.flatnonzero(ok ^ high), sinr.shape[1])
                sinr[rx, slot] = signal[rx, slot] / (noise + self.interference(load, extra, (first + rx, slot)))
                ok[rx, slot] = sinr[rx, slot] >= threshold
            out.append((sinr, ok))
        return out

    def neighbor_active(self, su_tx: np.ndarray, mu_tx: np.ndarray) -> np.ndarray:
        """(n_su, slots) bool: whether any sender SU i senses transmits in the
        slot, given the (n_su, slots) and (n_mu, slots) bool transmit flags
        of the SUs and the MUs.

        The slots are packed 64 to a word, the last word padded with zeros,
        and each SU ORs its neighbours' words. `reduceat` gives an empty
        segment the row at its start instead of zero, so SUs with no
        neighbours are left out and stay zero.
        """
        n_slots = su_tx.shape[1]
        padded = np.zeros((len(su_tx) + len(mu_tx), -(-n_slots // 64) * 64), dtype=bool)
        padded[:len(su_tx), :n_slots] = su_tx
        padded[len(su_tx):, :n_slots] = mu_tx
        words = np.packbits(padded, axis=1).view(np.uint64)
        out = np.zeros((self.n_su, words.shape[1]), dtype=np.uint64)
        starts = self.sense_indptr[:-1]
        sensing = starts < self.sense_indptr[1:]
        if sensing.any():
            out[sensing] = np.bitwise_or.reduceat(np.take(words, self.sense_indices, axis=0), starts[sensing], axis=0)
        return np.unpackbits(out.view(np.uint8), axis=1, count=n_slots).view(bool)


def _sample_topology(config: ScenarioConfig, rng: np.random.Generator) -> _Topology:
    region = Region(config.region_side)
    world = sample_world(
        region, config.lambda_pt, config.lambda_su, config.lambda_mu,
        config.channel.pt_link_distance, config.channel.su_link_distance, rng=rng,
    )
    if len(world.sus) == 0:
        raise SimulationError("degenerate population: no secondary users sampled")
    return _Topology(world, config)


# what a Monte Carlo window measures beyond its payoffs and counts, in `_window`'s order
WINDOW_NAMES = ("active_su_density", "pr_success", "su_success", "pr_sinr_db_mean", "pr_sinr_db_median",
                "su_sinr_db_mean", "su_sinr_db_median", "pr_success_raw", "su_success_raw")


def _window(config: ScenarioConfig, topo: _Topology, rng: np.random.Generator, x: List[float], drive,
            phase: AttackPhase) -> Tuple[List[float], np.ndarray, Tuple[float, ...]]:
    """One window of `config.window` slots at shares x, under the attackers'
    drive and phase: strategies are re-assigned per x, access and fading
    drawn per slot (per transmitter, plus per receiver for the desired link,
    which keeps each link's marginal law), and the SINRs at every receiver
    scored into per-strategy mean payoffs. Returns those payoffs as floats,
    a non-finite one included, the (m,) strategy counts and the values that
    WINDOW_NAMES names. A function, not the loop body of `run_montecarlo`,
    so that one window's arrays are freed before the next draws its own."""
    ch, probs, w_slots = config.channel, config.env.probs, config.window
    m, area = len(probs), config.region_side ** 2
    inducing = phase is AttackPhase.INDUCING
    n_su, n_pt, n_mu = topo.n_su, topo.n_pt, topo.n_mu
    assign = rng.choice(m, size=n_su, p=x)
    access = rng.random((n_su, w_slots)) < probs[assign][:, None]
    # one fill of the stream that four exponential(1.0) draws in this
    # order would take: the same values, and the same generator state after
    fade = rng.standard_exponential((2 * (n_su + n_pt), w_slots))
    fade_su_tx, fade_pt_tx = fade[:n_su], fade[n_su:n_su + n_pt]

    if inducing:
        mu_tx = rng.random((n_mu, w_slots)) < config.mu_access_prob
    elif phase is AttackPhase.INACTIVE and config.inactive_mu_behavior == "mimic-su":
        mu_assign = rng.choice(m, size=n_mu, p=x)
        mu_tx = rng.random((n_mu, w_slots)) < probs[mu_assign][:, None]
    else:
        mu_tx = np.zeros((n_mu, w_slots), dtype=bool)
    fade_mu_tx = rng.exponential(1.0, size=(n_mu, w_slots))

    load = np.concatenate([
        access * (ch.su_power * fade_su_tx),
        mu_tx * (ch.mu_power * fade_mu_tx),
        ch.pt_power * fade_pt_tx,  # primaries transmit every slot
    ])
    # a saturating inducement makes every SU perceive an accomplice, whoever it senses
    saturated = inducing and drive.inducement >= 1.0
    neighbor_active = None if saturated else topo.neighbor_active(access, mu_tx)

    # ephemeral attacker field: no discrete attackers were sampled, so the
    # active density enters per slot as a freshly drawn Poisson field
    field_density = drive.active_density if n_mu == 0 else 0.0
    field = None
    if field_density > 0:
        region = topo.world.region
        field = np.zeros((n_pt + n_su, w_slots))
        for s in range(w_slots):
            k = rng.poisson(field_density * area)
            if k == 0:
                continue
            pos = rng.uniform(0.0, config.region_side, size=(k, 2))
            field_gain = path_gain(pairwise_toroidal(pos, topo.receivers, region), ch)
            f = rng.exponential(1.0, size=k)
            # summed over the attackers in order, without BLAS
            field[:, s] = np.add.reduce(np.multiply(field_gain, (ch.mu_power * f)[:, None], out=field_gain), axis=0)
            if not saturated:  # about one attacker: a distance to every SU beats a cell grid over them
                neighbor_active[:, s] |= (pairwise_toroidal(pos, topo.world.sus, region)
                                          <= config.sensing_radius).any(axis=0)

    # desired signal power per unit of fading, of a PR and of an SU receiver,
    # times the desired fading of the PRs, then of the SU receivers
    signals = (ch.pt_power * ch.pt_link_distance ** (-ch.alpha) * fade[n_su + n_pt:n_su + 2 * n_pt],
               ch.su_power * ch.su_link_distance ** (-ch.alpha) * fade[n_su + 2 * n_pt:])
    (sinr_pr, pr_thresh_ok), (sinr_su, su_ok) = topo.sinr(
        load, signals, ch.noise, (ch.pr_sinr_threshold, ch.su_sinr_threshold), field)

    if saturated:
        perceived = np.ones((n_su, w_slots), dtype=bool)
    elif inducing and drive.inducement > 0:
        perceived = neighbor_active | (rng.random((n_su, w_slots)) < drive.inducement)
    else:
        perceived = neighbor_active

    payoff = _slot_payoffs(_payoff_table(config.payoffs), access, perceived, su_ok)

    counts = np.bincount(assign, minlength=m)
    # an empty strategy scores the window's mean, and so does one that holds every SU
    partial = (counts > 0) & (counts < n_su)
    window_mean = math.nan if partial.all() else float(payoff.mean())
    pi = [float(payoff[assign == i].mean()) if partial[i] else window_mean for i in range(m)]

    return pi, counts, (int(np.count_nonzero(access)) / w_slots / area,
                        _outage_met(pr_thresh_ok, ch.pr_outage_constraint) if n_pt else math.nan,
                        _outage_met(su_ok, ch.su_outage_constraint),
                        _to_db(float(sinr_pr.mean())) if n_pt else math.nan,
                        _to_db(_median(sinr_pr)) if n_pt else math.nan,
                        _to_db(float(sinr_su.mean())), _to_db(_median(sinr_su)),
                        int(np.count_nonzero(pr_thresh_ok)) / pr_thresh_ok.size if n_pt else math.nan,
                        int(np.count_nonzero(su_ok)) / su_ok.size)


def run_montecarlo(config: ScenarioConfig) -> RunResult:
    """Slotted Monte Carlo run on a sampled topology (static unless resampling
    is requested), with block fading redrawn every slot.

    Each update is one `_window` at the current shares, then one replicator
    step of the shares on the window's mean payoffs, by the
    `game._replicate_row` that steps a single mean-field run. The
    controller observes the previous window's measured density and resolves
    its launch after window 0, so window 0 is played with the attack off,
    where mean field launches at step 0. A failed step raises ValueError with
    the reason; no window follows.
    """
    if config.mode != "montecarlo":
        raise ConfigError("run_montecarlo requires mode='montecarlo'")
    rng = np.random.default_rng(config.seed)
    topo = _sample_topology(config, rng)
    first_topology = {"n_pt": topo.n_pt, "n_su": topo.n_su, "n_mu": topo.n_mu,
                      "sensing_pairs": len(topo.sense_indices), "interference_pairs": topo.interference_pairs}
    area = config.region_side ** 2
    m = len(config.access_probs)
    controller = config.controller(launch=None)

    # window w's shares, payoffs, strategy counts and values, at index w
    shares, payoffs = np.empty((2, config.steps, m))
    counts = np.empty((config.steps, m), dtype=np.intp)
    values = np.empty((len(WINDOW_NAMES), config.steps))
    x = list(config.x0)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite payoff fails its step, silently
        for w in range(config.steps):
            if w == 1:
                # one observation window has passed; the colluding attackers now
                # estimate each density as its count in the first topology over the area
                n = first_topology
                estimates = replace(config.env, lambda_pt=n["n_pt"] / area, lambda_su=n["n_su"] / area)
                controller.resolve_launch(decide_launch(config, estimates, n["n_mu"] / area)[0])
            drive = controller(w, values[0, w - 1] if w else 0.0)
            if config.resample_topology and w > 0:
                topo = _sample_topology(config, rng)
            pi, counts[w], values[:, w] = _window(config, topo, rng, x, drive, PHASES[int(controller.phases)])
            shares[w], payoffs[w] = x, pi
            if config.freeze_shares:
                continue
            x = _replicate_row(x, pi, config.step_size)
            if x[0] != x[0]:  # NaN: the step failed
                raise ValueError(f"{step_failure(pi)} (step {w})")
    return _result(config, config.window - 1, shares, payoffs, controller.events, first_topology,
                   strategy_counts=counts, **dict(zip(WINDOW_NAMES, values)))


def run(config: ScenarioConfig) -> RunResult:
    return run_meanfield(config) if config.mode == "meanfield" else run_montecarlo(config)


def sweep_region(
    deltas: Sequence[float],
    nus: Sequence[float],
    kappas: Sequence[float],
    config: ScenarioConfig,
) -> List[SweepCell]:
    """Classify every (delta, nu, kappa) cell under the config's inducing knobs, launched at once.

    All cells run as one batch, one row per cell, and come back in grid order.
    A cell whose dynamics fail is labelled "error" with the reason; the other
    cells are unaffected. A sweep runs in mean field on moving shares and
    launches every cell at once, as `launch_policy="always"` would: a Monte
    Carlo config, one that freezes the shares, or one that never launches is
    refused before any work.
    """
    if config.mode != "meanfield":
        raise ConfigError(f"mode must be meanfield for a sweep, got {config.mode!r}")
    if config.freeze_shares:
        raise ConfigError("freeze_shares must be false for a sweep")
    if config.launch_policy == "never":
        raise ConfigError("launch_policy must not be 'never' for a sweep, which launches every cell at once")
    grid = [(float(d), float(n), float(k)) for d in deltas for n in nus for k in kappas]
    if not grid:
        raise ConfigError("sweep grid is empty")
    try:
        payoffs = PayoffParams(*(np.array(column) for column in zip(*grid)))
    except ValueError as exc:
        raise ConfigError(f"sweep grid: {exc}") from exc
    env = replace(config.env, payoffs=payoffs)
    traj = run_dynamics(np.asarray(config.x0), env, config.controller(launch=True), config.steps, config.step_size,
                        history=False)
    return classify_operating_point(env, traj, config.extinction_tolerance)
