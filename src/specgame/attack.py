"""Malicious-user phase machine and controller: jam-and-advertise while
inducing, and withdraw once the induced population is dense enough to keep
the damage self-sustaining. Whether to launch at all is decided outside, by
engine.decide_launch, and handed to the controller.

Attackers collude perfectly, so one controller drives all of them. While
inducing they run slotted-Aloha jamming at a configurable access probability
and make themselves perceived by secondary users; once the observed active
secondary density has exceeded the admissible cap for a run of consecutive
observations, they deactivate (or optionally blend in as ordinary secondary
users) to save power and hide.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import List, Optional, Sequence

import numpy as np

from .game import MuDrive
from .keys import check


class AttackPhase(Enum):
    INITIAL = "initial"
    INDUCING = "inducing"
    INACTIVE = "inactive"
    ABORTED = "aborted"


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


def phase_history(events: Sequence[PhaseEvent], steps: int, cells: int = 1) -> np.ndarray:
    """(steps, cells) codes of the phase each step's controller call left in
    force: INITIAL, with every event of slot <= t applied, in order."""
    codes = np.full((steps, cells), INITIAL)
    for ev in events:
        codes[ev.slot:, ev.cell] = PHASES.index(ev.new_phase)
    return codes


class AttackController:
    """Stateful schedule driving the game: call with (step, observed active
    secondary density) to get the MuDrive for that step.

    While inducing, the attackers jam at Aloha access probability
    `mu_access_prob` and advertise the perception saturation `inducement`;
    they withdraw after `hysteresis` consecutive observations above the
    density cap (an int, or per-cell ints in a batch).

    Drives one cell for a scalar density, or every cell of a batch for an
    array of densities; phase and above-cap run are kept per cell, sized by
    the first call. The launch decision may be resolved at construction
    (mean-field oracle) or later via resolve_launch once estimates exist
    (Monte Carlo observation). Phase transitions are logged to `events`,
    from which `phase_history` recovers each step's phases; `phases` holds
    the phase codes in force (index into PHASES).

    A silent call that leaves no launch pending and no above-cap run under
    way holds a bound: the cap on INDUCING cells, inf on every other, as a
    float when all cells share it and per cell otherwise. A later call whose
    density is not above it would change nothing, so it returns the held
    drive without stepping the machine; a float density against a float
    bound is compared without numpy, and NaN is not above it, as in
    advance_phases.
    """

    def __init__(
        self,
        lambda_mu: float,
        density_cap: float,
        launch: Optional[bool] = None,
        inactive_behavior: str = "silent",
        lambda_su: float = 0.0,
        mu_access_prob: float = 0.5,
        hysteresis=5,
        inducement: float = 1.0,
    ) -> None:
        check({"mu_access_prob": mu_access_prob, "hysteresis": hysteresis, "inducing_perception": inducement,
               "inactive_mu_behavior": inactive_behavior})
        self.lambda_mu = lambda_mu
        self.density_cap = density_cap
        self.hysteresis = hysteresis
        self.inactive_behavior = inactive_behavior
        self.lambda_su = lambda_su
        self._pending_launch = launch
        inactive_density = 0.0 if inactive_behavior == "silent" else math.nan  # mimic: set per call
        # drive per phase code: active MU density and advertised inducement
        self._density = np.array([0.0, lambda_mu * mu_access_prob, inactive_density, 0.0])
        self._inducement = np.array([0.0, inducement, 0.0, 0.0])
        self.phases = np.asarray(INITIAL)
        self.above_cap_run = np.asarray(0)
        self._drive: Optional[MuDrive] = None  # the silent drive of `phases`, once built
        self._bound = None  # while idle: the density above which a call steps the machine
        self.events: List[PhaseEvent] = []

    def resolve_launch(self, launch: bool) -> None:
        self._pending_launch = launch
        self._bound = None

    def __call__(self, t: int, observed_active_su_density) -> MuDrive:
        bound, observed = self._bound, observed_active_su_density
        if bound is not None:
            if not (observed > bound if isinstance(observed, float) and isinstance(bound, float)
                    else np.count_nonzero(np.greater(observed, bound))):
                return self._drive
            self._bound = None
        observed = np.asarray(observed, dtype=float)
        old = self.phases
        self.phases, self.above_cap_run = advance_phases(
            old, self.above_cap_run, observed, self.density_cap, self.hysteresis, self._pending_launch)
        # a resolved launch moves only INITIAL cells, so once applied it would change nothing
        self._pending_launch = None
        changed = self.phases != old
        if np.count_nonzero(changed):
            old, trigger = (np.broadcast_to(a, changed.shape) for a in (old, observed))
            for cell in np.flatnonzero(changed):
                self.events.append(PhaseEvent(t, PHASES[old.flat[cell]], PHASES[self.phases.flat[cell]],
                                              float(trigger.flat[cell]), int(cell)))
            self._drive = None
        if self.inactive_behavior == "mimic-su":
            # blend in: adopt the population's transmit-weighted access rate
            rate = observed / self.lambda_su if self.lambda_su > 0 else 0.0
            density = np.where(self.phases == INACTIVE, self.lambda_mu * rate, self._density[self.phases])
            return MuDrive(density[()], self._inducement[self.phases][()])
        if self._drive is None:  # a silent drive follows the phases alone
            self._drive = MuDrive(self._density[self.phases][()], self._inducement[self.phases][()])
        if not np.count_nonzero(self.above_cap_run):
            inducing = np.count_nonzero(self.phases == INDUCING)
            self._bound = (math.inf if not inducing else self.density_cap if inducing == self.phases.size
                           else np.where(self.phases == INDUCING, self.density_cap, math.inf))
        return self._drive

