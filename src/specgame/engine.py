"""Simulation engine: couples the spatial interference model, the evolutionary
access game and the attack controller into slotted Monte Carlo runs and
deterministic mean-field iterations, and collects per-step metrics.

Time is organized in replicator updates. In mean-field mode one update is one
step of the closed-form iteration; in Monte Carlo mode each update averages
payoffs over a window of fading/access slots on a sampled topology.
"""
from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .attack import (
    AttackController,
    PHASES,
    AttackPhase,
    DensityEstimates,
    InducingTemplate,
    PhaseEvent,
    decide_launch,
    make_template_schedule,
    observe,
)
from .channel import ChannelParams, max_allowable_su_density, path_gain
from .game import (
    DynamicsParams,
    GameEnv,
    PayoffParams,
    StrategySet,
    classify_operating_point,
    replicator_step,
    run_dynamics,
    validate_shares,
)
from .geometry import Region, pairs_within, pairwise_toroidal, sample_world

MODES = ("meanfield", "montecarlo")
LAUNCH_POLICIES = ("forecast", "always", "never")
INACTIVE_BEHAVIORS = ("silent", "mimic-su")
TOPOLOGY_BLOCK_ROWS = 64  # rows of the gain matrix filled per distance call


class ConfigError(ValueError):
    """A scenario configuration violates an invariant."""


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
        for f in dataclasses.fields(self):  # types are the annotation strings
            value = getattr(self, f.name)
            if f.type == "int" and (not isinstance(value, numbers.Integral) or isinstance(value, bool)):
                raise ConfigError(f"{f.name} must be an integer, got {value!r}")
            if f.type == "float" and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}")
        if self.launch_policy not in LAUNCH_POLICIES:
            raise ConfigError(f"launch_policy must be one of {LAUNCH_POLICIES}")
        if self.inactive_mu_behavior not in INACTIVE_BEHAVIORS:
            raise ConfigError(f"inactive_mu_behavior must be one of {INACTIVE_BEHAVIORS}")
        if not self.region_side > 0:
            raise ConfigError("region_side must be positive")
        for name in ("lambda_pt", "lambda_su", "lambda_mu"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be nonnegative")
        if self.steps < 1:
            raise ConfigError("steps must be at least 1")
        if self.window < 1:
            raise ConfigError("window must be at least 1")
        if not self.step_size > 0:
            raise ConfigError("step_size must be positive")
        if not self.sensing_radius > 0:
            raise ConfigError("sensing_radius must be positive")
        if not 0.0 <= self.mu_access_prob <= 1.0:
            raise ConfigError("mu_access_prob must lie in [0, 1]")
        if self.hysteresis < 1:
            raise ConfigError("hysteresis must be at least 1")
        if not 0.0 <= self.inducing_perception <= 1.0:
            raise ConfigError("inducing_perception must lie in [0, 1]")
        if not self.extinction_tolerance > 0:
            raise ConfigError("extinction_tolerance must be positive")
        strategies = StrategySet(self.access_probs)
        x0 = tuple(float(v) for v in self.x0)
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "access_probs", strategies.access_probs)
        try:
            validate_shares(np.asarray(x0), len(strategies))
        except ValueError as exc:
            raise ConfigError(f"x0 invalid: {exc}") from exc

    def strategies(self) -> StrategySet:
        return StrategySet(self.access_probs)

    def game_env(self) -> GameEnv:
        return GameEnv(
            channel=self.channel,
            payoffs=self.payoffs,
            strategies=self.strategies(),
            lambda_su=self.lambda_su,
            lambda_pt=self.lambda_pt,
            sensing_radius=self.sensing_radius,
            include_pt_at_su=self.include_pt_interference_at_su,
            include_pt_at_pr=self.include_pt_interference_at_pr,
        )

    def template(self) -> InducingTemplate:
        return InducingTemplate(self.mu_access_prob, self.hysteresis, self.inducing_perception)

    def dynamics(self) -> DynamicsParams:
        return DynamicsParams(self.x0, self.step_size, self.steps, self.extinction_tolerance)

    def to_dict(self) -> Dict:
        d = dataclasses.asdict(self)
        d["access_probs"] = list(self.access_probs)
        d["x0"] = list(self.x0)
        return d

    @classmethod
    def from_dict(cls, data: Dict) -> "ScenarioConfig":
        if not isinstance(data, dict):
            raise ConfigError("config root must be an object")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        kwargs = dict(data)
        for key, sub_cls in (("channel", ChannelParams), ("payoffs", PayoffParams)):
            if key in kwargs and kwargs[key] is not None:
                sub = kwargs[key]
                if not isinstance(sub, dict):
                    raise ConfigError(f"{key} must be an object")
                sub_known = {f.name for f in dataclasses.fields(sub_cls)}
                sub_unknown = set(sub) - sub_known
                if sub_unknown:
                    raise ConfigError(f"unknown {key} keys: {sorted(sub_unknown)}")
                try:
                    kwargs[key] = sub_cls(**sub)
                except (TypeError, ValueError) as exc:
                    raise ConfigError(f"{key}: {exc}") from exc
        for key in ("access_probs", "x0"):
            if key in kwargs and kwargs[key] is not None:
                kwargs[key] = tuple(kwargs[key])
        try:
            return cls(**kwargs)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc


@dataclass(frozen=True)
class MetricsRecord:
    """Observables of one replicator update.

    pr_success / su_success report the fraction of links of that class whose
    outage constraint is met (a transmission is successful when its outage
    stays within the allowed constraint); the raw per-slot SINR-threshold
    rates are kept alongside for validation. SINR aggregates are in dB; the
    mean-field path carries its analytic median in both mean and median slots.
    """

    t_update: int
    t_slot: int
    shares: Tuple[float, ...]
    active_su_density: float
    mu_phase: str
    pr_success: float
    su_success: float
    pr_sinr_db_mean: float
    pr_sinr_db_median: float
    su_sinr_db_mean: float
    su_sinr_db_median: float
    payoffs: Tuple[float, ...]
    pr_success_raw: float = math.nan
    su_success_raw: float = math.nan
    strategy_counts: Tuple[int, ...] = ()


@dataclass(frozen=True)
class RunResult:
    config: ScenarioConfig
    records: List[MetricsRecord]
    events: List[PhaseEvent]
    density_cap: float
    # Monte Carlo only: node counts and sensing pairs of the first sampled topology
    topology: Optional[Dict[str, int]] = None


def metrics_columns(m: int) -> List[str]:
    cols = ["t_update", "t_slot"]
    cols += [f"share_s{i + 1}" for i in range(m)]
    cols += ["active_su_density", "mu_phase", "pr_success", "su_success",
             "pr_sinr_db_mean", "pr_sinr_db_median", "su_sinr_db_mean", "su_sinr_db_median"]
    cols += [f"payoff_s{i + 1}" for i in range(m)]
    return cols


def record_row(rec: MetricsRecord) -> List:
    row: List = [rec.t_update, rec.t_slot]
    row += list(rec.shares)
    row += [rec.active_su_density, rec.mu_phase, rec.pr_success, rec.su_success,
            rec.pr_sinr_db_mean, rec.pr_sinr_db_median, rec.su_sinr_db_mean, rec.su_sinr_db_median]
    row += list(rec.payoffs)
    return row


def _to_db(value: float) -> float:
    if not value > 0 or math.isnan(value):
        return math.nan
    return 10.0 * math.log10(value)


def _resolve_launch(config: ScenarioConfig, estimates: DensityEstimates, cap: float) -> bool:
    if config.launch_policy == "always":
        return True
    if config.launch_policy == "never":
        return False
    return decide_launch(estimates, config.game_env(), config.template(), config.dynamics(), cap)


def run_meanfield(config: ScenarioConfig) -> RunResult:
    """Deterministic closed-form iteration; consumes no randomness.

    The controller is granted oracle density estimates, so the launch decision
    resolves before the first step. Success columns report whether the
    closed-form outage constraint of each link class currently holds.
    """
    if config.mode != "meanfield":
        raise ConfigError("run_meanfield requires mode='meanfield'")
    ch = config.channel
    cap = max_allowable_su_density(ch)
    estimates = DensityEstimates(config.lambda_pt, config.lambda_su, config.lambda_mu)
    launch = _resolve_launch(config, estimates, cap)
    controller = AttackController(
        config.lambda_mu, config.template(), cap, launch=launch,
        inactive_behavior=config.inactive_mu_behavior, lambda_su=config.lambda_su,
    )
    traj = run_dynamics(
        np.asarray(config.x0), config.game_env(), controller, steps=config.steps, h=config.step_size,
        compute_sinr=True, freeze_shares=config.freeze_shares,
    )
    pr_ok = traj.s_pr >= 1.0 - ch.pr_outage_constraint
    su_ok = traj.s_su >= 1.0 - ch.su_outage_constraint
    records = []
    for t, phase in enumerate(controller.phase_history):
        pr_db = _to_db(float(traj.pr_median_sinr[t]))
        su_db = _to_db(float(traj.su_median_sinr[t]))
        records.append(MetricsRecord(
            t_update=t,
            t_slot=t * config.window,
            shares=tuple(traj.shares[t].tolist()),
            active_su_density=float(traj.active_su_density[t]),
            mu_phase=PHASES[phase.item()].value,
            pr_success=1.0 if pr_ok[t] else 0.0,
            su_success=1.0 if su_ok[t] else 0.0,
            pr_sinr_db_mean=pr_db,
            pr_sinr_db_median=pr_db,
            su_sinr_db_mean=su_db,
            su_sinr_db_median=su_db,
            payoffs=tuple(traj.payoffs[t].tolist()),
            pr_success_raw=float(traj.s_pr[t]),
            su_success_raw=float(traj.s_su[t]),
        ))
    return RunResult(config, records, controller.events, cap)


def _fill_rows(out, rows, cols, region, law):
    """Fill out[i, j] = law(wrapped distance from rows[i] to cols[j]) a block
    of rows at a time, so the distance temporaries stay a few rows tall."""
    for lo in range(0, len(rows), TOPOLOGY_BLOCK_ROWS):
        hi = lo + TOPOLOGY_BLOCK_ROWS
        out[lo:hi] = law(pairwise_toroidal(rows[lo:hi], cols, region))
    return out


def _sensing_neighbours(sus, senders, radius, region):
    """Row pointers and column indices of the SU x sender sensing relation:
    SU i senses `indices[indptr[i]:indptr[i + 1]]`, in ascending order, every
    sender within the radius except itself (the senders start with the SUs)."""
    rows, cols = pairs_within(sus, senders, radius, region)
    off_diagonal = rows != cols
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows[off_diagonal], minlength=len(sus)))])
    return indptr, cols[off_diagonal]


class _Topology:
    """Interference gains and sensing neighbours of one sampled world.

    `gain[r, t]` is the path gain from transmitter t to receiver r. Rows are
    every receiver (the PRs, then the SU receivers); columns are every
    transmitter (the SUs, then the MUs, then the PTs). A receiver's own link
    and the PT columns the config excludes are zero, so one product with the
    stacked transmit loads gives every receiver's interference.
    SU i senses the senders (the SUs, then the MUs)
    `sense_indices[sense_indptr[i]:sense_indptr[i + 1]]`.
    """

    def __init__(self, world, config: ScenarioConfig):
        self.world = world
        n_pt, n_su, n_mu = self.n_pt, self.n_su, self.n_mu = len(world.pts), len(world.sus), len(world.mus)
        self.receivers = np.concatenate([world.prs.positions, world.su_receivers.positions])
        senders = np.concatenate([world.sus.positions, world.mus.positions])
        transmitters = np.concatenate([senders, world.pts.positions])
        self.sense_indptr, self.sense_indices = _sensing_neighbours(world.sus.positions, senders,
                                                                    config.sensing_radius, world.region)
        self.gain = _fill_rows(np.empty((n_pt + n_su, len(transmitters))), self.receivers, transmitters,
                               world.region, lambda d: path_gain(d, config.channel))
        at_pr, at_su, pt_cols = slice(0, n_pt), slice(n_pt, None), slice(n_su + n_mu, None)
        np.fill_diagonal(self.gain[at_su, :n_su], 0.0)  # own links carry the signal
        if config.include_pt_interference_at_pr:
            np.fill_diagonal(self.gain[at_pr, pt_cols], 0.0)
        else:
            self.gain[at_pr, pt_cols] = 0.0
        if not config.include_pt_interference_at_su:
            self.gain[at_su, pt_cols] = 0.0

    def neighbor_active(self, tx: np.ndarray) -> np.ndarray:
        """(n_su, slots) bool: whether any sender SU i senses transmits in the
        slot, given the senders' (n_su + n_mu, slots) bool transmit flags.

        The slots are packed eight to a byte and each SU ORs its neighbours'
        bytes. `reduceat` gives an empty segment the row at its start instead
        of zero, so SUs with no neighbours are left out and stay zero.
        """
        packed = np.packbits(tx, axis=1)
        out = np.zeros((self.n_su, packed.shape[1]), dtype=np.uint8)
        starts = self.sense_indptr[:-1]
        sensing = starts < self.sense_indptr[1:]
        if sensing.any():
            out[sensing] = np.bitwise_or.reduceat(packed[self.sense_indices], starts[sensing], axis=0)
        return np.unpackbits(out, axis=1, count=tx.shape[1]).view(bool)


def _sample_topology(config: ScenarioConfig, rng: np.random.Generator) -> _Topology:
    region = Region(config.region_side)
    world = sample_world(
        region, config.lambda_pt, config.lambda_su, config.lambda_mu,
        config.channel.pt_link_distance, config.channel.su_link_distance, rng=rng,
    )
    if len(world.sus) == 0:
        raise SimulationError("degenerate population: no secondary users sampled")
    return _Topology(world, config)


def run_montecarlo(config: ScenarioConfig) -> RunResult:
    """Slotted Monte Carlo run on a sampled topology (static unless resampling
    is requested), with block fading redrawn every slot.

    Each update window: strategies are re-assigned per current shares, access
    and fading are drawn per slot, SINRs are evaluated at every primary and
    secondary receiver, per-user payoffs are scored, and the replicator then
    consumes per-strategy window means. The attack controller sees windowed
    density estimates. Fading is drawn per transmitter per slot plus per
    receiver for the desired link, which preserves the per-link marginal law.
    """
    if config.mode != "montecarlo":
        raise ConfigError("run_montecarlo requires mode='montecarlo'")
    ch = config.channel
    cap = max_allowable_su_density(ch)
    rng = np.random.default_rng(config.seed)
    topo = _sample_topology(config, rng)
    first_topology = {"n_pt": topo.n_pt, "n_su": topo.n_su, "n_mu": topo.n_mu,
                      "sensing_pairs": len(topo.sense_indices)}
    area = config.region_side ** 2

    strategies = config.strategies()
    probs = strategies.probs
    m = len(strategies)
    shares = validate_shares(np.asarray(config.x0), m)

    controller = AttackController(
        config.lambda_mu, config.template(), cap, launch=None,
        inactive_behavior=config.inactive_mu_behavior, lambda_su=config.lambda_su,
    )
    estimates = observe({"pt": topo.n_pt, "su": topo.n_su, "mu": topo.n_mu}, area)
    launch_resolved = False

    w_slots = config.window
    su_desired_gain = ch.su_link_distance ** (-ch.alpha)
    pr_desired_gain = ch.pt_link_distance ** (-ch.alpha)

    records: List[MetricsRecord] = []
    observed_density = 0.0

    for w in range(config.steps):
        if not launch_resolved and w >= 1:
            # one observation window has passed; the colluding controller now
            # owns its estimates and can evaluate the launch decision
            controller.resolve_launch(_resolve_launch(config, estimates, cap))
            launch_resolved = True
        drive = controller(w, observed_density)
        inducing = controller.phase is AttackPhase.INDUCING
        mimic = controller.phase is AttackPhase.INACTIVE and config.inactive_mu_behavior == "mimic-su"

        if config.resample_topology and w > 0:
            topo = _sample_topology(config, rng)

        n_su, n_pt, n_mu = topo.n_su, topo.n_pt, topo.n_mu
        assign = rng.choice(m, size=n_su, p=shares)
        p_access = probs[assign]

        access = rng.random((n_su, w_slots)) < p_access[:, None]
        fade_su_tx = rng.exponential(1.0, size=(n_su, w_slots))
        fade_pt_tx = rng.exponential(1.0, size=(n_pt, w_slots))
        fade_pr_des = rng.exponential(1.0, size=(n_pt, w_slots))
        fade_su_des = rng.exponential(1.0, size=(n_su, w_slots))

        if inducing:
            mu_tx = rng.random((n_mu, w_slots)) < config.mu_access_prob
        elif mimic:
            mu_assign = rng.choice(m, size=n_mu, p=shares)
            mu_tx = rng.random((n_mu, w_slots)) < probs[mu_assign][:, None]
        else:
            mu_tx = np.zeros((n_mu, w_slots), dtype=bool)
        fade_mu_tx = rng.exponential(1.0, size=(n_mu, w_slots))

        load = np.concatenate([
            access * (ch.su_power * fade_su_tx),
            mu_tx * (ch.mu_power * fade_mu_tx),
            ch.pt_power * fade_pt_tx,  # primaries transmit every slot
        ])
        interference = topo.gain @ load

        # ephemeral attacker field: no discrete attackers were sampled, so the
        # active density enters per slot as a freshly drawn Poisson field
        field_density = drive.active_density if n_mu == 0 else 0.0
        ephem_within = np.zeros((n_su, w_slots), dtype=bool)
        if field_density > 0:
            region = topo.world.region
            for s in range(w_slots):
                k = rng.poisson(field_density * area)
                if k == 0:
                    continue
                pos = rng.uniform(0.0, config.region_side, size=(k, 2))
                field_gain = path_gain(pairwise_toroidal(topo.receivers, pos, region), ch)
                f = rng.exponential(1.0, size=k)
                interference[:, s] += field_gain @ (ch.mu_power * f)
                near, _ = pairs_within(topo.world.sus.positions, pos, config.sensing_radius, region)
                ephem_within[near, s] = True

        sinr_pr = (ch.pt_power * pr_desired_gain * fade_pr_des) / (ch.noise + interference[:n_pt])
        sinr_su = (ch.su_power * su_desired_gain * fade_su_des) / (ch.noise + interference[n_pt:])
        su_ok = sinr_su >= ch.su_sinr_threshold

        neighbor_active = topo.neighbor_active(np.concatenate([access, mu_tx]))
        neighbor_active |= ephem_within
        if inducing and drive.inducement > 0:
            if drive.inducement >= 1.0:
                perceived = np.ones_like(neighbor_active)
            else:
                perceived = neighbor_active | (rng.random((n_su, w_slots)) < drive.inducement)
        else:
            perceived = neighbor_active

        payoff = np.where(
            access,
            np.where(perceived, config.payoffs.delta * su_ok - config.payoffs.nu * (~su_ok), 0.0),
            config.payoffs.kappa,
        )

        strat_counts = np.bincount(assign, minlength=m)
        strat_pay = np.zeros(m)
        window_mean = float(payoff.mean())
        for i in range(m):
            mask = assign == i
            strat_pay[i] = float(payoff[mask].mean()) if strat_counts[i] else window_mean

        active_counts = access.sum(axis=0)
        active_density_win = float(active_counts.mean()) / area

        pr_thresh_ok = sinr_pr >= ch.pr_sinr_threshold
        pr_raw = float(pr_thresh_ok.mean()) if n_pt else math.nan
        su_raw = float(su_ok.mean())
        pr_ok_frac = (
            float((pr_thresh_ok.mean(axis=1) >= 1.0 - ch.pr_outage_constraint).mean()) if n_pt else math.nan
        )
        su_ok_frac = float((su_ok.mean(axis=1) >= 1.0 - ch.su_outage_constraint).mean())

        records.append(MetricsRecord(
            t_update=w,
            t_slot=(w + 1) * w_slots - 1,
            shares=tuple(shares.tolist()),
            active_su_density=active_density_win,
            mu_phase=controller.phase.value,
            pr_success=pr_ok_frac,
            su_success=su_ok_frac,
            pr_sinr_db_mean=_to_db(float(sinr_pr.mean())) if n_pt else math.nan,
            pr_sinr_db_median=_to_db(float(np.median(sinr_pr))) if n_pt else math.nan,
            su_sinr_db_mean=_to_db(float(sinr_su.mean())),
            su_sinr_db_median=_to_db(float(np.median(sinr_su))),
            payoffs=tuple(strat_pay.tolist()),
            pr_success_raw=pr_raw,
            su_success_raw=su_raw,
            strategy_counts=tuple(int(c) for c in strat_counts),
        ))

        if not config.freeze_shares:
            shares = replicator_step(shares, strat_pay, config.step_size)
        observed_density = active_density_win

    return RunResult(config, records, controller.events, cap, first_topology)


def run(config: ScenarioConfig) -> RunResult:
    return run_meanfield(config) if config.mode == "meanfield" else run_montecarlo(config)


@dataclass(frozen=True)
class SweepCell:
    delta: float
    nu: float
    kappa: float
    classification: str
    terminal_mutant_share: float
    error: str = ""  # why the cell failed, for classification "error"


def sweep_region(
    deltas: Sequence[float],
    nus: Sequence[float],
    kappas: Sequence[float],
    config: ScenarioConfig,
) -> List[SweepCell]:
    """Classify every (delta, nu, kappa) cell under the standard inducing template.

    All cells run as one batch, one row per cell, and come back in grid order.
    A cell whose dynamics fail is labelled "error" with the reason; the other
    cells are unaffected.
    """
    grid = [(float(d), float(n), float(k)) for d in deltas for n in nus for k in kappas]
    if not grid:
        raise ConfigError("sweep grid is empty")
    try:
        payoffs = PayoffParams(*(np.array(column) for column in zip(*grid)))
    except ValueError as exc:
        raise ConfigError(f"sweep grid: {exc}") from exc
    cap = max_allowable_su_density(config.channel)
    factory = make_template_schedule(
        config.lambda_mu, config.template(), cap,
        inactive_behavior=config.inactive_mu_behavior, lambda_su=config.lambda_su,
    )
    env = replace(config.game_env(), payoffs=payoffs)
    results = classify_operating_point(env, factory, config.dynamics(), density_cap=cap)
    return [SweepCell(d, n, k, r.label, r.terminal_mutant_share, r.error) for (d, n, k), r in zip(grid, results)]
