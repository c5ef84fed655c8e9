"""Malicious-user controller: estimate the environment, decide whether an
inducement attack pays off, jam-and-advertise while inducing, and withdraw
once the induced population is dense enough to keep the damage self-sustaining.

Attackers collude perfectly, so one controller drives all of them. While
inducing they run slotted-Aloha jamming at a configurable access probability
and make themselves perceived by secondary users; once the observed active
secondary density has exceeded the admissible cap for a run of consecutive
observations, they deactivate (or optionally blend in as ordinary secondary
users) to save power and hide.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, List, Optional

import numpy as np

from .game import (
    Classification,
    DynamicsParams,
    GameEnv,
    MuDrive,
    classify_operating_point,
)


class AttackPhase(Enum):
    INITIAL = "initial"
    INDUCING = "inducing"
    INACTIVE = "inactive"
    ABORTED = "aborted"


@dataclass(frozen=True)
class DensityEstimates:
    """Per-class density estimates (nodes/m^2) gathered during observation."""

    lambda_pt: float = 0.0
    lambda_su: float = 0.0
    lambda_mu: float = 0.0


def observe(counts, area: float) -> DensityEstimates:
    """Unbiased density estimates from class counts over an observation window:
    lambda_hat = count / area. `counts` maps class names ('pt', 'su', 'mu') to counts."""
    if not area > 0:
        raise ValueError("observation window area must be positive")
    return DensityEstimates(
        lambda_pt=counts.get("pt", 0) / area,
        lambda_su=counts.get("su", 0) / area,
        lambda_mu=counts.get("mu", 0) / area,
    )


@dataclass(frozen=True)
class InducingTemplate:
    """Knobs of the inducing phase: Aloha access probability, withdrawal
    hysteresis (consecutive above-cap observations; an int, or per-cell ints
    in a batch), and the perception saturation the jamming advertises to
    secondary users."""

    mu_access_prob: float = 0.5
    hysteresis: int = 5
    inducement: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.mu_access_prob <= 1.0:
            raise ValueError("mu_access_prob must lie in [0, 1]")
        if np.any(np.asarray(self.hysteresis) < 1):
            raise ValueError("hysteresis must be at least 1")
        if not 0.0 <= self.inducement <= 1.0:
            raise ValueError("inducement must lie in [0, 1]")


@dataclass(frozen=True)
class PhaseEvent:
    slot: int
    old_phase: AttackPhase
    new_phase: AttackPhase
    trigger: float
    cell: int = 0


# phase codes of the array machine: index into PHASES
PHASES = tuple(AttackPhase)
INITIAL, INDUCING, INACTIVE, ABORTED = (PHASES.index(p) for p in PHASES)


def advance_phases(phase, above_cap_run, observed, density_cap: float, hysteresis, launch: Optional[bool]):
    """One observation of the phase machine for every cell at once.

    `phase` holds codes into PHASES; the arguments broadcast per cell.
    INITIAL leaves only via a launch decision (True -> INDUCING, False ->
    ABORTED, None -> keep observing). INDUCING moves to INACTIVE after
    `hysteresis` consecutive observations above the density cap. Terminal
    phases stay as they are. Returns the new (phase, above_cap_run); the run
    counts consecutive above-cap observations made while inducing and is 0
    after an observation made in any other phase.
    """
    run = (above_cap_run + 1) * ((phase == INDUCING) & (observed > density_cap))
    new = np.where(run >= hysteresis, INACTIVE, phase)
    if launch is not None:
        new = np.where(phase == INITIAL, INDUCING if launch else ABORTED, new)
    return new, run


class AttackController:
    """Stateful schedule driving the game: call with (step, observed active
    secondary density) to get the MuDrive for that step.

    Drives one cell for a scalar density, or every cell of a batch for an
    array of densities; phase and above-cap run are kept per cell, sized by
    the first call. The launch decision may be resolved at construction
    (mean-field oracle) or later via resolve_launch once estimates exist
    (Monte Carlo observation). Phase transitions are logged to `events`;
    `phase_history` records the phase codes in force at each step.
    """

    def __init__(
        self,
        lambda_mu: float,
        template: InducingTemplate,
        density_cap: float,
        launch: Optional[bool] = None,
        inactive_behavior: str = "silent",
        lambda_su: float = 0.0,
    ) -> None:
        if inactive_behavior not in ("silent", "mimic-su"):
            raise ValueError("inactive_behavior must be 'silent' or 'mimic-su'")
        self.lambda_mu = lambda_mu
        self.template = template
        self.density_cap = density_cap
        self.inactive_behavior = inactive_behavior
        self.lambda_su = lambda_su
        self._launch = launch
        self._awaiting_launch = True  # some cell is still INITIAL
        inactive_density = 0.0 if inactive_behavior == "silent" else math.nan  # mimic: set per call
        # drive per phase code: active MU density and advertised inducement
        self._density = np.array([0.0, lambda_mu * template.mu_access_prob, inactive_density, 0.0])
        self._inducement = np.array([0.0, template.inducement, 0.0, 0.0])
        self.phases = np.asarray(INITIAL)
        self.above_cap_run = np.asarray(0)
        self.events: List[PhaseEvent] = []
        self.phase_history: List[np.ndarray] = []

    @property
    def phase(self) -> AttackPhase:
        """Phase in force for a one-cell controller."""
        if self.phases.size != 1:
            raise ValueError("a batched controller has one phase per cell; read `phases`")
        return PHASES[int(self.phases.flat[0])]

    def resolve_launch(self, launch: bool) -> None:
        self._launch = launch

    def __call__(self, t: int, observed_active_su_density) -> MuDrive:
        observed = np.asarray(observed_active_su_density, dtype=float)
        old = self.phases
        launch = self._launch if self._awaiting_launch else None
        self.phases, self.above_cap_run = advance_phases(
            old, self.above_cap_run, observed, self.density_cap, self.template.hysteresis, launch)
        if launch is not None:
            self._awaiting_launch = False
        changed = self.phases != old
        if np.count_nonzero(changed):
            old, trigger = (np.broadcast_to(a, changed.shape) for a in (old, observed))
            for cell in np.flatnonzero(changed):
                self.events.append(PhaseEvent(t, PHASES[old.flat[cell]], PHASES[self.phases.flat[cell]],
                                              float(trigger.flat[cell]), int(cell)))
        self.phase_history.append(self.phases)
        density = self._density[self.phases]
        if self.inactive_behavior == "mimic-su":
            # blend in: adopt the population's transmit-weighted access rate
            rate = observed / self.lambda_su if self.lambda_su > 0 else 0.0
            density = np.where(self.phases == INACTIVE, self.lambda_mu * rate, density)
        return MuDrive(density[()], self._inducement[self.phases][()])


def make_template_schedule(
    lambda_mu: float,
    template: InducingTemplate,
    density_cap: float,
    inactive_behavior: str = "silent",
    lambda_su: float = 0.0,
) -> Callable[[], AttackController]:
    """Factory of fresh always-launching controllers: the standard inducing
    template used by forecasts and region sweeps."""

    def factory() -> AttackController:
        return AttackController(lambda_mu, template, density_cap, launch=True,
                                inactive_behavior=inactive_behavior, lambda_su=lambda_su)

    return factory


def forecast_operating_point(
    estimates: DensityEstimates,
    env_template: GameEnv,
    template: InducingTemplate,
    dynamics: DynamicsParams,
    density_cap: float,
) -> Classification:
    """Mean-field forecast of the attack outcome from the attacker's estimates."""
    env = replace(env_template, lambda_su=estimates.lambda_su, lambda_pt=estimates.lambda_pt)
    factory = make_template_schedule(estimates.lambda_mu, template, density_cap, lambda_su=estimates.lambda_su)
    return classify_operating_point(env, factory, dynamics, density_cap=density_cap)


def decide_launch(
    estimates: DensityEstimates,
    env_template: GameEnv,
    template: InducingTemplate,
    dynamics: DynamicsParams,
    density_cap: float,
) -> bool:
    """Launch iff the mean-field forecast under the inducing template ends fragile.

    Pure in its inputs; with nobody to induce the answer is immediately no.
    """
    if estimates.lambda_su <= 0:
        return False
    return forecast_operating_point(estimates, env_template, template, dynamics, density_cap).label == "fragile"
