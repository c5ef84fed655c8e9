"""What each config key accepts, as one table, and the checkers that read it.
Every config part checks its own keys here when it is built; the README's
table of keys is this table, and a test holds the two equal."""
from __future__ import annotations

import math
import numbers
from typing import Dict, NamedTuple, Tuple

import numpy as np

INTP_MAX = int(np.iinfo(np.intp).max)
INTERFERENCE_CUTOFF = 200.0  # m: Monte Carlo pairs within are exact, the mean tail covers the rest
# the Monte Carlo near field is a float32 product: each power, each path gain
# (at most min_distance ** -alpha) and their product stay within
# FLOAT32_MAX_TERM, so sums stay finite, and the terms float32 flushes to zero
# (each below 1.2e-38 W) stay under 1e-8 of the noise even at 1e5 transmitters
FLOAT32_MAX_TERM, FLOAT32_MIN_NOISE = 1e30, 1e-25


class ConfigError(ValueError):
    """A scenario configuration violates an invariant."""


class Key(NamedTuple):
    """A kind (bool, int, float, choice, or floats: a list of floats); an
    interval like "(0, inf)" that every number must lie in, or a choice's
    values joined by " | "; and the MC_BOUNDS that hold in Monte Carlo mode."""

    kind: str
    range: str = ""
    mc: Tuple[str, ...] = ()


def _gain_within_term(min_distance: float, config) -> bool:
    ch = config.channel  # in logs: min_distance ** -alpha itself may overflow a float
    largest = -ch.alpha * math.log(min_distance) + math.log(max(1.0, ch.pt_power, ch.su_power, ch.mu_power))
    return largest <= math.log(FLOAT32_MAX_TERM)


MC_BOUNDS = {  # name: (whether a value meets it in a config, what the value must be)
    "positive": (lambda v, c: v > 0, "positive"),
    "half side": (lambda v, c: v < c.region_side / 2, "below region_side / 2"),
    "cutoff": (lambda v, c: v < INTERFERENCE_CUTOFF, f"below the {INTERFERENCE_CUTOFF:g} m interference cutoff"),
    "term": (lambda v, c: v <= FLOAT32_MAX_TERM, f"at most {FLOAT32_MAX_TERM:g} (float32 interference)"),
    "noise": (lambda v, c: v >= FLOAT32_MIN_NOISE, f"at least {FLOAT32_MIN_NOISE:g} (float32 interference)"),
    "gain": (_gain_within_term, f"such that min_distance ** -alpha, also times the largest power, is at most "
                                f"{FLOAT32_MAX_TERM:g}"),
}
POSITIVE, NONNEGATIVE, UNIT = Key("float", "(0, inf)"), Key("float", "[0, inf)"), Key("float", "[0, 1]")
POWER, LINK = Key("float", "(0, inf)", ("term",)), Key("float", "(0, inf)", ("half side", "cutoff"))
SIZE = Key("int", f"[1, {INTP_MAX}]")  # it sizes an array
KEYS: Dict[str, Key] = {
    "mode": Key("choice", "meanfield | montecarlo"), "seed": Key("int", "[0, inf)"), "region_side": POSITIVE,
    "lambda_pt": NONNEGATIVE, "lambda_su": Key("float", "[0, inf)", ("positive",)), "lambda_mu": NONNEGATIVE,
    "channel.alpha": Key("float", "(2, inf)"), "channel.noise": Key("float", "(0, inf)", ("noise",)),
    "channel.pt_power": POWER, "channel.pt_link_distance": LINK, "channel.pr_sinr_threshold": POSITIVE,
    "channel.pr_outage_constraint": Key("float", "(0, 1)"),
    "channel.su_power": POWER, "channel.su_link_distance": LINK, "channel.su_sinr_threshold": POSITIVE,
    "channel.su_outage_constraint": Key("float", "(0, 1)"),
    "channel.mu_power": POWER, "channel.min_distance": Key("float", "(0, inf)", ("cutoff", "gain")),
    "payoffs.delta": POSITIVE, "payoffs.nu": NONNEGATIVE, "payoffs.kappa": NONNEGATIVE,
    "access_probs": Key("floats", "[0, 1]"), "x0": Key("floats", "[0, inf)"), "steps": SIZE, "window": SIZE,
    "step_size": POSITIVE, "sensing_radius": POSITIVE, "mu_access_prob": UNIT,
    "hysteresis": Key("int", "[1, inf)"), "inducing_perception": UNIT,
    "launch_policy": Key("choice", "forecast | always | never"),
    "inactive_mu_behavior": Key("choice", "silent | mimic-su"),
    "include_pt_interference_at_pr": Key("bool"), "include_pt_interference_at_su": Key("bool"),
    "resample_topology": Key("bool"), "freeze_shares": Key("bool"), "extinction_tolerance": POSITIVE,
}


def check(values: Dict[str, object]) -> None:
    """Check each value against the kind and range of its key in KEYS, raising
    ConfigError that names the first that fails. A number may be a per-cell array of its kind."""
    for name, value in values.items():
        kind, interval, _ = KEYS[name]
        if kind == "bool" and not isinstance(value, bool):
            raise ConfigError(f"{name} must be true or false, got {value!r}")
        if kind == "choice" and value not in interval.split(" | "):
            raise ConfigError(f"{name} must be one of {tuple(interval.split(' | '))}")
        if kind == "floats":
            if not isinstance(value, (list, tuple)):
                raise ConfigError(f"{name} must be a list of numbers, got {value!r}")
            for i, entry in enumerate(value):
                _check_number(f"{name}[{i}]", entry, False, interval)
        elif kind in ("int", "float"):
            _check_number(name, value, kind == "int", interval)


def check_bounds(values: Dict[str, object], config) -> None:
    """Check each value, of a kind and range already checked, against the MC_BOUNDS of its key in the Monte
    Carlo `config`, raising ConfigError that names the first that fails."""
    for name, value in values.items():
        for holds, need in (MC_BOUNDS[bound] for bound in KEYS[name].mc):
            if not holds(value, config):
                raise ConfigError(f"{name} must be {need} in Monte Carlo mode")


def _check_number(name: str, value, integer: bool, interval: str) -> None:
    if isinstance(value, np.ndarray):
        if value.dtype.kind not in ("iu" if integer else "iuf"):
            raise ConfigError(f"{name} must hold {'integers' if integer else 'numbers'}, got {value.dtype}")
    elif isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    elif integer and not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    least, most = (value.min(), value.max()) if isinstance(value, np.ndarray) else (value, value)
    try:
        if not (integer or math.isfinite(least) and math.isfinite(most)):  # an array's min and max carry any NaN
            raise ConfigError(f"{name} must be finite")
    except OverflowError:  # a Python int beyond every float
        raise ConfigError(f"{name} must be finite, got an integer too large for a float") from None
    lo, hi = (math.inf if bound == "inf" else int(bound) for bound in interval[1:-1].split(", "))
    if least <= lo if interval[0] == "(" else least < lo:
        if lo == 0:
            raise ConfigError(f"{name} must be {'positive' if interval[0] == '(' else 'nonnegative'}")
        raise ConfigError(f"{name} must {'exceed' if interval[0] == '(' else 'be at least'} {lo}")
    if most >= hi if interval[-1] == ")" else most > hi:
        size = ", numpy's largest array size" if hi == INTP_MAX else ""
        raise ConfigError(f"{name} must be {'below' if interval[-1] == ')' else 'at most'} {hi}{size}")
