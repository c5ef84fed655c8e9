"""Command-line front end: scenario presets, config files, sweeps and plot data.

Subcommands:
    run <preset|config.json>   simulate and write metrics/event CSVs + manifest
    sweep                      classify a (delta, nu, kappa) grid
    plotdata <metrics.csv>     split a metrics CSV into gnuplot-ready series

Exit codes: 0 success, 1 usage error, 2 invalid configuration, 3 runtime failure.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import math
import os
import sys
import tempfile
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from . import __version__
from .attack import PHASES
from .channel import max_allowable_su_density
from .engine import (
    CSV_BLOCK_ROWS,
    ConfigError,
    RunResult,
    ScenarioConfig,
    SimulationError,
    metrics_columns,
    run,
    sweep_region,
)
from .game import SweepCell

PRESET_GRID = {
    "deltas": [2.0, 5.0, 10.0, 20.0],
    "nus": [0.5, 1.0, 2.0],
    "kappas": [0.0, 2.0, 4.0, 6.0, 8.0, 10.0],
}


def _preset_config(payoffs: Dict[str, float], **overrides) -> ScenarioConfig:
    base = dict(mode="meanfield", steps=150)
    base.update(overrides)
    return ScenarioConfig.from_dict({"payoffs": payoffs, **base})


def build_presets() -> Dict[str, ScenarioConfig]:
    """The four canned scenarios; all default to the mean-field path. Each
    call hands back a fresh dict over the same frozen configs, which are
    built and validated once per process, on the first call."""
    return dict(_presets())


@functools.cache
def _presets() -> Dict[str, ScenarioConfig]:
    return {
        # population takeover when compliance pays nothing
        "fig3-population": _preset_config({"delta": 10.0, "nu": 1.0, "kappa": 0.0}),
        # same run, read through the SINR columns
        "fig4-sinr-kappa0": _preset_config({"delta": 10.0, "nu": 1.0, "kappa": 0.0}),
        # compliance reward restores the network after the attackers withdraw;
        # the attackers strike even though their own forecast is unfavorable
        "fig5-sinr-kappa8": _preset_config({"delta": 10.0, "nu": 1.0, "kappa": 8.0},
                                           launch_policy="always"),
        # robust/fragile classification over the incentive grid
        "fig6-region": _preset_config({"delta": 10.0, "nu": 1.0, "kappa": 0.0},
                                      launch_policy="always", steps=400),
    }


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures to exit code 1
        raise UsageError(message)


def load_config(path: str) -> ScenarioConfig:
    """Parse and validate a JSON config file; unknown keys are rejected and
    defaults fill every absent field (an empty object yields the default scenario)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        data = json.loads(text) if text.strip() else {}
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    return ScenarioConfig.from_dict(data)


def apply_overrides(config: ScenarioConfig, pairs: Sequence[str]) -> ScenarioConfig:
    """Apply dotted-path key=value overrides (values parsed as JSON, else string)."""
    data = config.to_dict()
    for pair in pairs:
        if "=" not in pair:
            raise UsageError(f"--set expects key=value, got {pair!r}")
        key, raw = pair.split("=", 1)
        node = data
        parts = key.split(".")
        for part in parts[:-1]:
            if part not in node or not isinstance(node[part], dict):
                raise ConfigError(f"unknown config path: {key}")
            node = node[part]
        if parts[-1] not in node:
            raise ConfigError(f"unknown config key: {key}")
        try:
            node[parts[-1]] = json.loads(raw)
        except json.JSONDecodeError:
            node[parts[-1]] = raw
    return ScenarioConfig.from_dict(data)


def _fmt(value) -> str:
    return "%.12g" % value if isinstance(value, float) else str(value)


def _atomic_write(path: str, text: Union[str, Iterable[str]]) -> None:
    """Write `text`, or its pieces in turn, to a temporary file that then replaces `path`."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def metrics_csv_blocks(result: RunResult) -> Iterator[str]:
    """The header, then CSV_BLOCK_ROWS steps at a time, a line each, floats written as _fmt writes them."""
    names = metrics_columns(len(result.config.access_probs))
    line = ",".join("%s" if c == "mu_phase" else "%d" if c.startswith("t_") else "%.12g" for c in names) + "\n"
    yield ",".join(names) + "\n"
    for start in range(0, len(result.columns["t_update"]), CSV_BLOCK_ROWS):
        columns = {c: result.columns[c][start:start + CSV_BLOCK_ROWS].tolist() for c in names}
        columns["mu_phase"] = [PHASES[code].value for code in columns["mu_phase"]]
        yield "".join(line % row for row in zip(*columns.values()))


def events_csv_text(result: RunResult) -> str:
    return "slot,old_phase,new_phase,trigger\n" + "".join(
        "%d,%s,%s,%.12g\n" % (ev.slot, ev.old_phase.value, ev.new_phase.value, ev.trigger) for ev in result.events)


def region_csv_text(cells: Sequence[SweepCell]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    names = [f.name for f in dataclasses.fields(SweepCell)]
    writer.writerow(names)
    writer.writerows([_fmt(getattr(c, name)) for name in names] for c in cells)
    return buf.getvalue()


def manifest_text(config: ScenarioConfig, preset: Optional[str], topology: Optional[Dict[str, int]] = None) -> str:
    cap = max_allowable_su_density(config.channel)
    manifest = {
        "artifact_version": __version__,
        "preset": preset,
        "su_density_cap": cap,
        "config": config.to_dict(),
    }
    if topology is not None:
        manifest["topology"] = topology
    return json.dumps(manifest, indent=2, sort_keys=True) + "\n"


def write_run_outputs(result: RunResult, out_dir: str, preset: Optional[str]) -> None:
    _atomic_write(os.path.join(out_dir, "metrics.csv"), metrics_csv_blocks(result))
    _atomic_write(os.path.join(out_dir, "phase_events.csv"), events_csv_text(result))
    _atomic_write(os.path.join(out_dir, "run-manifest.json"), manifest_text(result.config, preset, result.topology))


def write_sweep_outputs(grid: Iterable[Sequence[float]], config: ScenarioConfig, out_dir: str,
                        preset: Optional[str]) -> None:
    """Sweep the (deltas, nus, kappas) grid under config and write region.csv and the manifest."""
    cells = sweep_region(*grid, config)
    _atomic_write(os.path.join(out_dir, "region.csv"), region_csv_text(cells))
    _atomic_write(os.path.join(out_dir, "run-manifest.json"), manifest_text(config, preset))


def run_preset(name_or_path: str, overrides: Sequence[str], out_dir: str) -> int:
    """Resolve a preset or config file, run it, and write the output bundle."""
    presets = build_presets()
    preset_name = None
    if name_or_path in presets:
        preset_name = name_or_path
        config = presets[name_or_path]
    elif os.path.exists(name_or_path):
        config = load_config(name_or_path)
    else:
        raise UsageError(
            f"unknown preset or missing config file {name_or_path!r}; presets: {', '.join(sorted(presets))}"
        )
    if overrides:
        config = apply_overrides(config, overrides)
    if preset_name == "fig6-region":
        write_sweep_outputs(PRESET_GRID.values(), config, out_dir, preset_name)
    else:
        write_run_outputs(run(config), out_dir, preset_name)
    return 0


def _read_metrics(path: str) -> Tuple[List[str], List[Dict[str, str]]]:
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise ConfigError(f"cannot read metrics {path}: {exc}") from exc
    if not rows:
        raise ConfigError(f"{path}: empty file, expected a header row")
    header = rows[0]
    out = []
    for idx, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise ConfigError(f"{path}: row {idx} has {len(row)} fields, expected {len(header)}")
        out.append(dict(zip(header, row)))
    return header, out


def emit_plotdata(metrics_path: str, out_dir: str, manifest_path: Optional[str] = None) -> int:
    """Split a metrics CSV into two-column (time, value) series files.

    Emits mutant/nonmutant share series, the admissible-share reference line,
    both SINR traces with the threshold reference, plus the success and
    density columns. Needs the run manifest (adjacent by default) for the
    strategy set and reference levels. Both are checked before any file is
    written: a missing key or column, or a value that is no number, exits 2.
    """
    header, rows = _read_metrics(metrics_path)
    if manifest_path is None:
        manifest_path = os.path.join(os.path.dirname(os.path.abspath(metrics_path)), "run-manifest.json")
    try:
        with open(manifest_path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read run manifest {manifest_path}: {exc}") from exc
    if not isinstance(manifest, dict):
        raise ConfigError(f"{manifest_path}: the manifest must be an object")
    try:
        config = ScenarioConfig.from_dict(manifest["config"])
        cap_share = float(manifest["su_density_cap"]) / config.lambda_su if config.lambda_su > 0 else math.nan
    except KeyError as exc:
        raise ConfigError(f"{manifest_path}: no {exc.args[0]!r} key") from None
    except (TypeError, ValueError) as exc:  # ConfigError included
        raise ConfigError(f"{manifest_path}: {exc}") from exc
    thresh_db = 10.0 * math.log10(config.channel.pr_sinr_threshold)

    probs = config.access_probs
    share_cols = [f"share_s{i + 1}" for i in range(len(probs))]
    values = {}
    copied = ("active_su_density", "pr_success", "su_success")
    for name in ["t_update", *share_cols, "pr_sinr_db_mean", "su_sinr_db_mean", *copied]:
        if name not in header:
            raise ConfigError(f"{metrics_path}: no {name!r} column")
        values[name] = []
        for idx, row in enumerate(rows, start=2):
            try:
                values[name].append(float(row[name]))
            except ValueError:
                raise ConfigError(f"{metrics_path}: row {idx} {name} is not a number: {row[name]!r}") from None
    mutant_cols = [c for c, p in zip(share_cols, probs) if p > 0]
    silent_cols = [c for c, p in zip(share_cols, probs) if p == 0]
    series = {
        "mutant_share": [sum(values[c][i] for c in mutant_cols) for i in range(len(rows))],
        "nonmutant_share": [sum(values[c][i] for c in silent_cols) for i in range(len(rows))],
        "lambda_tilde_ref": [cap_share] * len(rows),
        "pr_sinr_db": values["pr_sinr_db_mean"],
        "su_sinr_db": values["su_sinr_db_mean"],
        "threshold_ref": [thresh_db] * len(rows),
        **{name: values[name] for name in copied},
    }
    times = [row["t_update"] for row in rows]
    for name, series_values in series.items():
        lines = [f"{t} {_fmt(v)}" for t, v in zip(times, series_values)]
        _atomic_write(os.path.join(out_dir, f"{name}.dat"), "\n".join(lines) + ("\n" if lines else ""))
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="specgame", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a preset or config file")
    p_run.add_argument("scenario", help="preset name or path to a JSON config")
    p_run.add_argument("--out", default="out", help="output directory")
    p_run.add_argument("--seed", type=int, default=None, help="override the rng seed")
    p_run.add_argument("--mode", choices=["meanfield", "montecarlo"], default=None)
    p_run.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE", help="dotted-path config override")

    p_sweep = sub.add_parser("sweep", help="classify a (delta, nu, kappa) grid")
    p_sweep.add_argument("--config", default=None, help="template config file (defaults apply)")
    p_sweep.add_argument("--delta", type=float, nargs="+", default=PRESET_GRID["deltas"])
    p_sweep.add_argument("--nu", type=float, nargs="+", default=PRESET_GRID["nus"])
    p_sweep.add_argument("--kappa", type=float, nargs="+", default=PRESET_GRID["kappas"])
    p_sweep.add_argument("--out", default="out")
    p_sweep.add_argument("--set", dest="overrides", action="append", default=[], metavar="KEY=VALUE")

    p_plot = sub.add_parser("plotdata", help="emit gnuplot series from a metrics CSV")
    p_plot.add_argument("metrics", help="metrics CSV produced by `run`")
    p_plot.add_argument("--manifest", default=None, help="run manifest (default: adjacent file)")
    p_plot.add_argument("--out", default="plotdata")
    return parser


_parser = functools.cache(build_parser)  # built on the first main call, reused by the next


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "run":
            flags = [f"{key}={value}" for key, value in (("seed", args.seed), ("mode", args.mode)) if value is not None]
            return run_preset(args.scenario, [*args.overrides, *flags], args.out)
        if args.command == "sweep":
            config = load_config(args.config) if args.config else build_presets()["fig6-region"]
            if args.overrides:
                config = apply_overrides(config, args.overrides)
            write_sweep_outputs((args.delta, args.nu, args.kappa), config, args.out, None)
            return 0
        return emit_plotdata(args.metrics, args.out, args.manifest)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2
    except (SimulationError, ValueError, RuntimeError) as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # anything else is a runtime failure too: one line, no traceback
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
