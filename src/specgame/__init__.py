"""Spectrum-sharing attack simulator.

Couples a Poisson-field interference model of a cognitive radio network with
an evolutionary access game over secondary-user strategies and a malicious
controller that baits compliant users into concurrent transmission. Provides
deterministic mean-field iteration, slotted Monte Carlo simulation, and
scenario presets with CSV metrics output.
"""

__version__ = "0.1.0"

from .attack import (
    AttackController,
    AttackPhase,
)
from .channel import (
    ChannelParams,
    max_allowable_su_density,
    path_gain,
)
from .engine import (
    ConfigError,
    RunResult,
    ScenarioConfig,
    SimulationError,
    decide_launch,
    run,
    run_meanfield,
    run_montecarlo,
    sweep_region,
)
from .game import (
    GameEnv,
    MuDrive,
    PayoffParams,
    classify_operating_point,
    replicator_step,
    run_dynamics,
)
from .geometry import (
    Region,
    World,
    attach_receivers,
    sample_ppp,
    sample_world,
)
