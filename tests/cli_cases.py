"""The command-line cases, as one table that tier-1 runs in-process through
`cli.main` and CI runs through the installed `specgame` script.

A row is a Case: the argv, the exit code, a regular expression that the
whole of stderr must match, whether the command writes nothing, and for a
command that writes a CSV, its number of data rows. Each runner appends
`--out <dir>/out` to the argv of a row that gives no `--out`, and puts
`<dir>` where an argument says `{tmp}`. The rows come in groups; each group
feeds one test of tests/test_cli.py, and CASES is every row of every group.
"""
import re
from pathlib import Path
from typing import NamedTuple, Optional, Tuple

import numpy as np

INVALID = r"invalid configuration: [^\n]*\n"


class Case(NamedTuple):
    argv: Tuple[str, ...]
    code: int
    stderr: str
    writes_nothing: bool
    rows: Optional[int] = None


def invalid(*argv: str, message: Optional[str] = None) -> Case:
    """A command that exits 2 with one line, `message` if given, and writes nothing."""
    return Case(argv, 2, INVALID if message is None else re.escape(f"invalid configuration: {message}\n"), True)


# run fig3-population with these extra arguments: each exits 2 with one line
# outside the range of the Monte Carlo near field's float32 product: loads x
# gains would overflow (every power at 1e39 W; or a 1e38 W load itself, at a
# min_distance whose gain keeps the product in range), or terms float32
# flushes to zero would be a visible share of the noise
FLOAT32_OUT_OF_RANGE = [
    ["--set", "channel.pt_power=1e39", "--set", "channel.su_power=1e39", "--set", "channel.mu_power=1e39"],
    ["--set", "channel.min_distance=150", "--set", "channel.pt_power=1e38", "--set", "channel.su_power=1e38",
     "--set", "channel.mu_power=1e38"],
    ["--set", "channel.noise=1e-30"],
]
BAD_NUMBERS = [
    ["--set", "steps=2.5"],
    ["--set", "window=true"],
    ["--set", "lambda_su=NaN"],
    ["--set", "payoffs.nu=NaN"],
    ["--set", "lambda_pt=Infinity"],
    ["--set", "sensing_radius=Infinity"],
    ["--set", "channel.noise=-Infinity"],
    ["--set", "x0=[NaN, 1.0]"],
    ["--set", 'freeze_shares="no"'],  # a truthy string is no bool
    ["--set", "include_pt_interference_at_su=2"],
    ["--set", "region_side=true"],
    ["--set", "lambda_su=true"],
    ["--set", "payoffs.delta=true"],
    ["--set", "channel=null"],
    ["--set", "payoffs=null"],
    ["--set", "access_probs=5"],
    ["--set", "x0=5"],
    ["--set", "region_side=1" + "0" * 400],  # an integer no float holds
    ["--set", "channel.noise=1" + "0" * 400],
    ["--set", "x0=[1" + "0" * 400 + ", 0]"],
    ["--set", "steps=1" + "0" * 400],  # more steps or slots than numpy can index
    ["--set", f"steps={np.iinfo(np.intp).max + 1}"],
    ["--mode", "montecarlo", "--set", "window=1" + "0" * 30],
    ["--mode", "montecarlo", "--set", "seed=-1"],
    ["--mode", "montecarlo", "--set", "region_side=20"],
    ["--mode", "montecarlo", "--set", "channel.su_link_distance=1e6"],
    ["--mode", "montecarlo", "--set", "region_side=300", "--set", "channel.su_link_distance=160"],
    ["--set", "sensing_radius=1e300"],
    ["--mode", "montecarlo", "--set", "channel.su_link_distance=250"],
    ["--mode", "montecarlo", "--set", "channel.pt_link_distance=200"],
    ["--mode", "montecarlo", "--set", "channel.min_distance=300"],
    ["--set", "channel.pt_link_distance=1e100"],  # the link budget's r^alpha overflows
    ["--set", "channel.su_link_distance=1e100"],
    ["--set", "channel.mu_power=1e300", "--set", "channel.su_power=1e-300"],  # the power ratio overflows
    ["--mode", "montecarlo", "--set", "region_side=600", "--set", "channel.mu_power=1e300",
     "--set", "channel.su_power=1e-300"],
    *(["--mode", "montecarlo", "--set", "region_side=600", *extra] for extra in FLOAT32_OUT_OF_RANGE),
]

# a string or bool where a number belongs: the message names the key
NAMED_KEYS = [
    ('region_side="big"', "region_side must be a number, got 'big'"),
    ('x0=["a",1]', "x0[0] must be a number, got 'a'"),
    ('payoffs.kappa="x"', "payoffs.kappa must be a number, got 'x'"),
    # read as 1.0, a bool would fail the alpha > 2 check under the wrong reason
    ("channel.alpha=true", "channel.alpha must be a number, got True"),
]

# a Monte Carlo step or slot count numpy cannot size: (key, digits of 10**digits)
SIZES = [("steps", 400), ("window", 30)]

# noise alone breaks the primary outage constraint, so no SU density is admissible
NOISE_LIMITED = [["run", "fig3-population"], ["run", "fig3-population", "--mode", "montecarlo"], ["sweep"]]

# 10^12 steps x (two passes x (2 m + 5) + 2 m + 10 columns + 16 median values) x 8 B, one 1,024-row CSV
# block of 2 m + 10 values x 72 B and 256 KiB
TOO_MANY_STEPS = invalid("run", "fig3-population", "--set", "steps=1000000000000",
                         message="steps=1000000000000: the run needs an estimated 357,627.9 GiB, 100% of it for "
                                 "the step history, above the 2 GiB limit")

MISSING_METRICS = Case(("plotdata", "{tmp}/nowhere/metrics.csv"), 2,
                       r"invalid configuration: cannot read metrics [^\n]*/nowhere/metrics\.csv: [^\n]*\n", True)


def _too_large(key: str, part: str, *argv: str) -> Case:
    estimate = rf"invalid configuration: {key}=[^:]*: the run needs an estimated ([\d,.]+|inf) GiB, \d+% of it for " \
               rf"{part}, above the 2 GiB limit\n"
    return Case(("run", "fig3-population", *argv), 2, estimate, True)


MC = ("run", "fig3-population", "--mode", "montecarlo")
MC_SWEEP = "mode must be meanfield for a sweep, got 'montecarlo'"
FROZEN_SWEEP = "freeze_shares must be false for a sweep"
NEVER_SWEEP = "launch_policy must not be 'never' for a sweep, which launches every cell at once"
# the rows no older test of tests/test_cli.py runs; tier-1 runs them in test_cli_case
OTHER_CASES = [
    Case(("run", "fig3-population"), 0, "", False, rows=150),
    Case(("run", "fig5-sinr-kappa8"), 0, "", False, rows=150),
    Case(("sweep", "--delta", "2", "10", "--nu", "1", "--kappa", "0", "8", "--set", "steps=1600"), 0, "", False, rows=4),
    Case((*MC, "--set", "region_side=600", "--set", "steps=5", "--seed", "3"), 0, "", False, rows=5),
    # a 70-slot window packs its perception into two 64-bit words
    Case((*MC, "--set", "region_side=800", "--set", "steps=5", "--set", "window=70", "--seed", "3"), 0, "", False,
         rows=5),
    # the float32 range at the default 3000 m Monte Carlo region
    invalid(*MC, "--set", "channel.pt_power=1e39", "--set", "channel.su_power=1e39", "--set", "channel.mu_power=1e39"),
    invalid(*MC, "--set", "channel.noise=1e-30"),
    # ten million mean-field steps, and Monte Carlo runs too large to start at the 3000 m default
    _too_large("steps", "the step history", "--set", "steps=10000000"),
    _too_large("window", "the window arrays", "--mode", "montecarlo", "--set", "window=1000000000"),
    _too_large("lambda_pt", "the PT gains", "--mode", "montecarlo", "--set", "lambda_pt=0.01"),
    _too_large("sensing_radius", "the sensing pairs", "--mode", "montecarlo", "--set", "sensing_radius=2000"),
    # a region whose node count overflows a float, and an integer sensing radius whose square does
    _too_large("region_side", "the nodes", "--mode", "montecarlo", "--set", "region_side=1e300"),
    invalid("run", "fig3-population", "--set", "sensing_radius=1" + "0" * 200,
            message="sensing_radius is too large: its square overflows"),
    # a sweep runs in mean field on moving shares, launched at once, and a Monte Carlo run needs secondary
    # users to sample
    invalid("run", "fig6-region", "--mode", "montecarlo", message=MC_SWEEP),
    invalid("sweep", "--set", "mode=montecarlo", message=MC_SWEEP),
    invalid("run", "fig6-region", "--set", "freeze_shares=true", message=FROZEN_SWEEP),
    invalid("sweep", "--set", "freeze_shares=true", message=FROZEN_SWEEP),
    invalid("run", "fig6-region", "--set", "launch_policy=never", message=NEVER_SWEEP),
    invalid("sweep", "--set", "launch_policy=never", message=NEVER_SWEEP),
    invalid(*MC, "--set", "lambda_su=0", message="lambda_su must be positive in Monte Carlo mode"),
    # a command the parser does not know: its required subparsers refuse it
    Case(("frobnicate",), 1, r"usage error: argument command: invalid choice: [^\n]*\n", True),
    # an override that is no key=value pair, a key no config has, an x0 of the wrong length, a missing config file
    Case(("run", "fig3-population", "--set", "steps"), 1,
         re.escape("usage error: --set expects key=value, got 'steps'\n"), True),
    invalid("run", "fig3-population", "--set", "no_such_key=1", message="unknown config key: no_such_key"),
    invalid("run", "fig3-population", "--set", "x0=[1.0]", message="x0 invalid: expected 2 strategy shares, got 1"),
    Case(("sweep", "--config", "{tmp}/missing.json"), 2,
         r"invalid configuration: cannot read config [^\n]*/missing\.json: [^\n]*\n", True),
    # the launch paths: a negative forecast takes a second pass, mimic-su forecasts
    # apart from the run, and below the cap nothing is forecast
    Case(("run", "fig3-population", "--set", "payoffs.kappa=8"), 0, "", False, rows=150),
    Case(("run", "fig3-population", "--set", 'inactive_mu_behavior="mimic-su"'), 0, "", False, rows=150),
    Case(("run", "fig3-population", "--set", "lambda_su=1e-5"), 0, "", False, rows=150),
    # an --out that is an existing non-directory, or lies under one, is refused before any subcommand runs:
    # before a simulation or sweep, and before plotdata reads its input
    *(Case((*command, "--out", out), 1, re.escape(f"usage error: --out {out}: /dev/null is not a directory\n"), True)
      for command in (MC, ("sweep",), ("plotdata", "{tmp}/nowhere/metrics.csv"))
      for out in ("/dev/null", "/dev/null/x")),
]

CASES = [
    *(invalid("run", "fig3-population", *extra) for extra in BAD_NUMBERS),
    *(invalid("run", "fig3-population", "--set", setting, message=message) for setting, message in NAMED_KEYS),
    *(invalid(*MC, "--set", f"{key}=1" + "0" * digits,
              message=f"{key} must be at most {np.iinfo(np.intp).max}, numpy's largest array size")
      for key, digits in SIZES),
    *(Case((*command, "--set", "channel.noise=1"), 2, r"invalid configuration: [^\n]*noise-limited[^\n]*\n", True)
      for command in NOISE_LIMITED),
    TOO_MANY_STEPS,
    MISSING_METRICS,
    *OTHER_CASES,
]


def check_outputs(case: Case, out: Path) -> None:
    """What the command left in `out`: nothing, or a CSV of the stated rows."""
    if case.writes_nothing:
        assert not out.exists(), case.argv
    if case.rows is not None:
        written = out / ("region.csv" if case.argv[0] == "sweep" else "metrics.csv")
        assert len(written.read_text().splitlines()) == 1 + case.rows, case.argv


def argv(case: Case, tmp: Path):
    out = [] if "--out" in case.argv else ["--out", str(tmp / "out")]
    return [arg.replace("{tmp}", str(tmp)) for arg in case.argv] + out


def run_in_process(case: Case, tmp: Path, capsys) -> None:
    from specgame.cli import main

    assert main(argv(case, tmp)) == case.code, case.argv
    err = capsys.readouterr().err
    assert re.fullmatch(case.stderr, err), err
    check_outputs(case, tmp / "out")
