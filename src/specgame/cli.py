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
import io
import json
import math
import os
import sys
import tempfile
from typing import Dict, List, Optional, Sequence, Tuple

from . import __version__
from .channel import max_allowable_su_density
from .engine import (
    ConfigError,
    RunResult,
    ScenarioConfig,
    SimulationError,
    SweepCell,
    metrics_columns,
    record_row,
    run,
    sweep_region,
)

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
    """The four canned scenarios; all default to the mean-field path."""
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
    if not text.strip():
        data: Dict = {}
    else:
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    return ScenarioConfig.from_dict(data)


def write_config(config: ScenarioConfig, path: str) -> None:
    _atomic_write(path, json.dumps(config.to_dict(), indent=2, sort_keys=True) + "\n")


def _parse_set_value(raw: str):
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


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
        node[parts[-1]] = _parse_set_value(raw)
    return ScenarioConfig.from_dict(data)


def _fmt(value) -> str:
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        return format(value, ".12g")
    return str(value)


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def metrics_csv_text(result: RunResult) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(metrics_columns(len(result.config.access_probs)))
    for rec in result.records:
        writer.writerow([_fmt(v) for v in record_row(rec)])
    return buf.getvalue()


def events_csv_text(result: RunResult) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["slot", "old_phase", "new_phase", "trigger"])
    for ev in result.events:
        writer.writerow([ev.slot, ev.old_phase.value, ev.new_phase.value, _fmt(ev.trigger)])
    return buf.getvalue()


def region_csv_text(cells: Sequence[SweepCell]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["delta", "nu", "kappa", "classification", "terminal_mutant_share", "error"])
    for c in cells:
        writer.writerow([_fmt(c.delta), _fmt(c.nu), _fmt(c.kappa), c.classification,
                         _fmt(c.terminal_mutant_share), c.error])
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
    _atomic_write(os.path.join(out_dir, "metrics.csv"), metrics_csv_text(result))
    _atomic_write(os.path.join(out_dir, "phase_events.csv"), events_csv_text(result))
    _atomic_write(os.path.join(out_dir, "run-manifest.json"), manifest_text(result.config, preset, result.topology))


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
        cells = sweep_region(PRESET_GRID["deltas"], PRESET_GRID["nus"], PRESET_GRID["kappas"], config)
        _atomic_write(os.path.join(out_dir, "region.csv"), region_csv_text(cells))
        _atomic_write(os.path.join(out_dir, "run-manifest.json"), manifest_text(config, preset_name))
        return 0
    result = run(config)
    write_run_outputs(result, out_dir, preset_name)
    return 0


def _read_metrics(path: str) -> Tuple[List[str], List[Dict[str, str]]]:
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            rows = list(reader)
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
    strategy set and reference levels.
    """
    if manifest_path is None:
        manifest_path = os.path.join(os.path.dirname(os.path.abspath(metrics_path)), "run-manifest.json")
    try:
        with open(manifest_path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read run manifest {manifest_path}: {exc}") from exc
    config = ScenarioConfig.from_dict(manifest["config"])
    cap_share = manifest["su_density_cap"] / config.lambda_su if config.lambda_su > 0 else math.nan
    thresh_db = 10.0 * math.log10(config.channel.pr_sinr_threshold)
    probs = config.access_probs

    header, rows = _read_metrics(metrics_path)
    share_cols = [c for c in header if c.startswith("share_s")]
    mutant_cols = [c for c, p in zip(share_cols, probs) if p > 0]
    silent_cols = [c for c, p in zip(share_cols, probs) if p == 0]

    def series(name, values):
        lines = [f"{t} {_fmt(v)}" for t, v in values]
        _atomic_write(os.path.join(out_dir, f"{name}.dat"), "\n".join(lines) + ("\n" if lines else ""))

    times = [row["t_update"] for row in rows]

    def col(name):
        return [float(row[name]) for row in rows]

    series("mutant_share", zip(times, (sum(float(r[c]) for c in mutant_cols) for r in rows)))
    series("nonmutant_share", zip(times, (sum(float(r[c]) for c in silent_cols) for r in rows)))
    series("lambda_tilde_ref", zip(times, (cap_share for _ in rows)))
    series("pr_sinr_db", zip(times, col("pr_sinr_db_mean")))
    series("su_sinr_db", zip(times, col("su_sinr_db_mean")))
    series("threshold_ref", zip(times, (thresh_db for _ in rows)))
    series("active_su_density", zip(times, col("active_su_density")))
    series("pr_success", zip(times, col("pr_success")))
    series("su_success", zip(times, col("su_success")))
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


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "run":
            overrides = list(args.overrides)
            if args.seed is not None:
                overrides.append(f"seed={args.seed}")
            if args.mode is not None:
                overrides.append(f"mode={args.mode}")
            return run_preset(args.scenario, overrides, args.out)
        if args.command == "sweep":
            config = load_config(args.config) if args.config else ScenarioConfig.from_dict(
                {"launch_policy": "always", "steps": 400}
            )
            if args.overrides:
                config = apply_overrides(config, args.overrides)
            cells = sweep_region(args.delta, args.nu, args.kappa, config)
            _atomic_write(os.path.join(args.out, "region.csv"), region_csv_text(cells))
            _atomic_write(os.path.join(args.out, "run-manifest.json"), manifest_text(config, None))
            return 0
        if args.command == "plotdata":
            return emit_plotdata(args.metrics, args.out, args.manifest)
        raise UsageError(f"unknown command {args.command!r}")
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
