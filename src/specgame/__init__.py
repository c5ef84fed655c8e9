"""Spectrum-sharing attack simulator.

Couples a Poisson-field interference model of a cognitive radio network with
an evolutionary access game over secondary-user strategies and a malicious
controller that baits compliant users into concurrent transmission, through
mean-field iteration or slotted Monte Carlo. The root is the run API that the
README's Library use shows; building blocks are imported from their modules.
"""

__version__ = "0.1.0"

from .attack import (
    AttackPhase,
)
from .channel import (
    ChannelParams,
    max_allowable_su_density,
)
from .engine import (
    ConfigError,
    RunResult,
    ScenarioConfig,
    SimulationError,
    run,
    sweep_region,
)
from .game import (
    PayoffParams,
)
