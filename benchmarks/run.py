#!/usr/bin/env python3
"""specgame benchmark: one workload per process, on a closed loop with one caller.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (README.md says why each exists):

    mf-presets   run fig3-population, fig4-sinr-kappa0, fig5-sinr-kappa8
    mf-sweep     run fig6-region (72 cells x 400 steps)
    mc-topology  run fig3-population --mode montecarlo, region_side=1500, 5 updates
    mc-windows   run fig3-population --mode montecarlo, region_side=800, 150 updates

Every iteration drives ``specgame.cli.main`` with ``--out`` in a scratch
directory inside the checkout, then checks the files it wrote. Monte Carlo
iterations take a fresh seed each, drawn from ``--seed``; the mean-field
workloads use no randomness. One warm-up iteration runs first and is
discarded. With ``--trace 0`` the end-to-end metrics are printed; with
``--trace 1`` traced and untraced iterations alternate and the per-layer
metrics are printed. The last line of stdout is one JSON object. The time
metrics are corrected for the host's speed, measured with a fixed reference
unit timed around each iteration and set-up probe (README, "Host speed").

The program is imported from ``src/`` of the checkout this file sits in;
without it the benchmark exits with code 2 and prints no result.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Callable, Dict, List, Optional, Tuple

import checks
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_work")

WORKLOADS = ("mf-presets", "mf-sweep", "mc-topology", "mc-windows")
PRESETS = ("fig3-population", "fig4-sinr-kappa0", "fig5-sinr-kappa8")
# fig4 runs the fig3 configuration (it is read through other columns), so it
# is checked against fig3's reference outputs
REFERENCE_OF = {"fig3-population": "fig3-population", "fig4-sinr-kappa0": "fig3-population",
                "fig5-sinr-kappa8": "fig5-sinr-kappa8"}
MC_SETTINGS = {"mc-topology": ("region_side=1500", "steps=5"), "mc-windows": ("region_side=800",)}
SETUP_PROBES = 9
# nominal seconds of one reference unit; time metrics are scaled to it
REF_S = 0.010
# reference work timed before and after each iteration, as a share of its time
REF_SHARE = 0.05
PROBE_REF_UNITS = 2

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "updates_per_s": "updates/s", "peak_rss_mb": "MB"}

perf = time.perf_counter


def pin_blas_threads() -> int:
    """Run BLAS and OpenMP on one thread, as the loop has one caller; must run
    before numpy is imported. Returns nproc."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def reference_unit() -> int:
    """One unit of fixed pure-Python work (about 10 ms on a quiet 2-vCPU host).

    The host's speed drifts by up to 1.6x over seconds to minutes, and the
    process CPU time drifts with it. Timing this unit next to each piece of
    measured work tells how fast the host ran at that moment; the time
    metrics are reported at REF_S seconds per unit (README, "Host speed").
    """
    acc, table = 0, {}
    for i in range(60000):
        acc += (i * i) % 7
        table[i & 255] = acc
    return acc


def reference_time(units: int) -> float:
    """Seconds per unit over `units` consecutive reference units."""
    t0 = perf()
    for _ in range(units):
        reference_unit()
    return (perf() - t0) / units


def load_specgame():
    """Import specgame from this checkout's src/ and nowhere else."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "specgame", "__init__.py")):
        raise ImportError(f"no specgame package under {src}")
    sys.path.insert(0, src)
    import specgame
    import specgame.cli

    if not os.path.abspath(specgame.__file__).startswith(src + os.sep):
        raise ImportError(f"specgame imported from {specgame.__file__}, not from {src}")
    return specgame


def config_specs(workload: str) -> List[Tuple[str, List[str]]]:
    """(preset, overrides) of every config the workload runs."""
    if workload == "mf-presets":
        return [(p, []) for p in PRESETS]
    if workload == "mf-sweep":
        return [("fig6-region", [])]
    return [("fig3-population", ["mode=montecarlo", *MC_SETTINGS[workload]])]


def resolve_configs(cli, workload: str) -> List:
    """The workload's presets and configs, resolved through the CLI's public names."""
    presets = cli.build_presets()
    return [cli.apply_overrides(presets[name], overrides) for name, overrides in config_specs(workload)]


def calls(workload: str, out: str, seed: int) -> List[Tuple[str, List[str]]]:
    """(label, argv) of every cli.main call in one iteration."""
    if workload == "mf-presets":
        return [(p, ["run", p, "--out", os.path.join(out, p)]) for p in PRESETS]
    if workload == "mf-sweep":
        return [("fig6-region", ["run", "fig6-region", "--out", os.path.join(out, "fig6-region")])]
    argv = ["run", "fig3-population", "--mode", "montecarlo", "--seed", str(seed)]
    for setting in MC_SETTINGS[workload]:
        argv += ["--set", setting]
    return [("mc", argv + ["--out", os.path.join(out, "mc")])]


# What one set-up probe runs in a fresh interpreter: import specgame from
# src/, resolve the workload's configs through the CLI's public names, and
# print the monotonic clock (system-wide, so comparable with the parent's).
PROBE = """\
import sys, time
sys.path.insert(0, {src!r})
import specgame.cli as cli
presets = cli.build_presets()
for name, overrides in {resolve!r}:
    cli.apply_overrides(presets[name], overrides)
print(time.monotonic())
"""


def setup_probe(workload: str) -> Tuple[float, float]:
    """Seconds from starting a fresh process to having specgame imported and
    the workload's configs resolved (nothing of the benchmark is imported),
    and the seconds per reference unit timed just before and after it."""
    code = PROBE.format(src=os.path.join(ROOT, "src"), resolve=config_specs(workload))
    before = reference_time(PROBE_REF_UNITS)
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
    elapsed = float(proc.stdout.split()[-1]) - t0
    return elapsed, (before + reference_time(PROBE_REF_UNITS)) / 2


class Capture:
    """Keeps what the checks need: every RunResult returned through
    ``specgame.cli.run`` and every world sampled through
    ``specgame.engine.sample_world``. Each is one call per run, so the
    untimed cost is negligible."""

    def __init__(self) -> None:
        self.results: List = []
        self.worlds: List = []
        self._patches = spans.Patches()

    @property
    def absent(self) -> List[str]:
        return self._patches.absent

    def install(self) -> None:
        for binding, sink in (("specgame.cli:run", self.results), ("specgame.engine:sample_world", self.worlds)):

            def make(fn, sink=sink):
                def wrapper(*args, **kwargs):
                    out = fn(*args, **kwargs)
                    sink.append(out)
                    return out
                return wrapper

            self._patches.wrap(binding, make)

    def uninstall(self) -> None:
        self._patches.restore()

    def clear(self) -> None:
        self.results.clear()
        self.worlds.clear()

    def world_counts(self) -> Optional[Tuple[int, int, int]]:
        if not self.worlds:
            return None
        w = self.worlds[0]
        return tuple(len(getattr(w, name, ())) for name in ("pts", "sus", "mus"))


def _files(out: str) -> Dict[str, bytes]:
    found = {}
    for dirpath, _, names in os.walk(out):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                found[os.path.relpath(path, out)] = fh.read()
    return found


def check_iteration(workload: str, out: str, capture: Capture, config, originals: Dict,
                    deviations: List[float]) -> List[str]:
    """Every output check of one iteration; returns the failures. A Monte
    Carlo iteration's SU-success deviation is appended to `deviations`."""
    errors: List[str] = []
    if workload == "mf-presets":
        for preset in PRESETS:
            d = os.path.join(out, preset)
            ref = REFERENCE_OF[preset]
            errors += checks.compare_metrics(os.path.join(d, "metrics.csv"),
                                             checks.reference_path(ref, "metrics.csv"))
            errors += checks.compare_events(os.path.join(d, "phase_events.csv"),
                                            checks.reference_path(ref, "phase_events.csv"))
            _, events = checks.read_csv(os.path.join(d, "phase_events.csv"))
            _, rows = checks.read_csv(os.path.join(d, "metrics.csv"))
            errors += checks.check_phase_sequence(events, rows)
            with open(os.path.join(d, "run-manifest.json"), "r", encoding="utf-8") as fh:
                if json.load(fh).get("preset") != preset:
                    errors.append(f"{preset}: manifest names another preset")
        return errors
    if workload == "mf-sweep":
        return checks.compare_region(os.path.join(out, "fig6-region", "region.csv"),
                                     checks.reference_path("fig6-region", "region.csv"))
    d = os.path.join(out, "mc")
    _, rows = checks.read_csv(os.path.join(d, "metrics.csv"))
    _, events = checks.read_csv(os.path.join(d, "phase_events.csv"))
    if len(rows) != config.steps:
        errors.append(f"metrics.csv has {len(rows)} windows, expected {config.steps}")
    errors += checks.check_simplex(rows)
    errors += checks.check_phase_sequence(events, rows)
    counts = capture.world_counts()
    if capture.results and counts is not None:
        result = capture.results[0]
        errors += checks.check_strategy_counts(result.records, counts[1])
        if "success_prob" in originals:
            tol = checks.load_tolerance(workload)["tolerance"]
            dev = checks.su_success_deviation(result, originals["success_prob"], originals["InterfererField"])
            deviations.append(dev)
            if not abs(dev) <= tol:
                errors.append(f"SU success deviates from the closed form by {dev:.5f} (tolerance {tol})")
    return errors


def measure(sg, workload: str, seed: int, seconds: float, trace: bool, probes: int = 0,
            corrupt: Optional[Callable[[str], None]] = None) -> Dict:
    """Run the closed loop for `seconds` and return timings, counts and check results.

    `probes` set-up probes run between iterations, spread evenly over the
    run, so that they sample the machine's load as the iterations do.
    `corrupt`, when given, is applied to the output directory after every
    measured iteration, before the checks (used by the self-test).
    """
    cli = sg.cli
    config = resolve_configs(cli, workload)[0]
    mc = workload.startswith("mc-")
    # the checks' closed-form oracle, bound before any wrapper is installed
    originals = {name: getattr(sg.channel, name) for name in ("success_prob", "InterfererField")
                 if hasattr(sg.channel, name)}
    seeds = random.Random(seed)
    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK)
    capture = Capture()
    capture.install()
    tracer = spans.Tracer() if trace else None
    out = os.path.join(work, "out")

    def execute(argvs) -> List[str]:
        errors = []
        for label, argv in argvs:
            try:
                rc = cli.main(argv)
            except Exception as exc:  # the run failed; count it and go on
                errors.append(f"{label}: {type(exc).__name__}: {exc}")
                continue
            if rc != 0:
                errors.append(f"{label}: exit code {rc}")
        return errors

    setup: List[Tuple[float, float]] = []
    walls: List[float] = []
    refs: List[float] = []
    untraced_walls: List[float] = []
    updates: List[int] = []
    su_slots: List[int] = []
    failures: List[str] = []
    deviations: List[float] = []
    failed = 0
    first: Optional[Tuple[int, Dict[str, bytes], bool]] = None  # seed, outputs, failed
    realised = None
    try:
        t0 = perf()
        execute(calls(workload, out, seeds.randrange(2 ** 31)))  # warm-up, discarded
        last = perf() - t0
        start = perf()
        i = 0
        while i == 0 or perf() - start < seconds or (trace and i < 2):
            it_seed = seeds.randrange(2 ** 31)
            shutil.rmtree(out, ignore_errors=True)
            capture.clear()
            argvs = calls(workload, out, it_seed)
            traced = trace and i % 2 == 1
            if traced:
                tracer.install()
                iteration = tracer.begin()
            # host speed is sampled in --trace 0 runs only; traced runs report shares and counts
            units = 0 if trace else max(1, round(REF_SHARE * last / REF_S))
            before = reference_time(units) if units else 0.0
            t0 = perf()
            errors = execute(argvs)
            t1 = perf()
            last = t1 - t0
            if units:
                refs.append((before + reference_time(units)) / 2)
            if traced:
                tracer.end()
                tracer.uninstall()
            if corrupt is not None:
                corrupt(out)
            if not errors:
                try:
                    errors = check_iteration(workload, out, capture, config, originals, deviations)
                except (OSError, ValueError, KeyError) as exc:
                    errors = [f"outputs unreadable: {type(exc).__name__}: {exc}"]
            files = _files(out)
            if traced:
                iteration.counts["cli.output_bytes"] = sum(len(b) for b in files.values())
                counts = capture.world_counts()
                iteration.counts["engine.mc.n_su"] = counts[1] if counts else 0
            (untraced_walls if trace and not traced else walls).append(t1 - t0)
            if errors:
                failed += 1
                failures += errors[:3]
            n_updates, n_su = _work_done(workload, out, config, capture)
            updates.append(n_updates)
            su_slots.append(n_su * config.window * n_updates if mc else 0)
            if i == 0:
                realised = capture.world_counts()
                if mc:
                    first = (it_seed, {k: v for k, v in files.items() if k.endswith(".csv")}, bool(errors))
            i += 1
            while len(setup) < probes * min(1.0, (perf() - start) / seconds):
                setup.append(setup_probe(workload))
        while len(setup) < probes:
            setup.append(setup_probe(workload))
        if first is not None:
            # a rerun of the first seed must reproduce its outputs byte for byte
            shutil.rmtree(out, ignore_errors=True)
            errors = execute(calls(workload, out, first[0]))
            rerun = {k: v for k, v in _files(out).items() if k.endswith(".csv")}
            if errors or rerun != first[1]:
                failed += 0 if first[2] else 1  # counted against the first iteration
                failures.append(f"rerun of seed {first[0]} is not byte-identical")
        if deviations:
            # a bias shared by all iterations fails them all
            errors = checks.check_su_success_mean(deviations, checks.load_tolerance(workload))
            if errors:
                failed = i
                failures += errors
    finally:
        if tracer is not None:
            tracer.uninstall()
        capture.uninstall()
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass
    return {
        "setup": setup, "walls": walls, "refs": refs, "untraced_walls": untraced_walls, "updates": updates,
        "su_slots": su_slots,
        "attempted": i, "failed": failed, "failures": failures, "tracer": tracer,
        "realised": realised, "absent": capture.absent + (tracer.absent if tracer else []),
    }


def _work_done(workload: str, out: str, config, capture: Capture) -> Tuple[int, int]:
    """(replicator updates, realised n_SU) of one iteration, read from its outputs."""
    if workload == "mf-sweep":
        path = os.path.join(out, "fig6-region", "region.csv")
        cells = len(checks.read_csv(path)[1]) if os.path.exists(path) else 0
        return cells * config.steps, 0
    total = 0
    for name in os.listdir(out) if os.path.isdir(out) else ():
        path = os.path.join(out, name, "metrics.csv")
        if os.path.exists(path):
            total += len(checks.read_csv(path)[1])
    counts = capture.world_counts()
    return total, counts[1] if counts else 0


def openblas_threads() -> Optional[int]:
    """Thread count reported by the OpenBLAS that numpy bundles, if it is found."""
    import ctypes
    import glob

    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def git_sha() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unavailable (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or "unavailable"


def environment(sg, nproc: int, seed: int, workload: str, configs: List, realised) -> Dict:
    import platform

    import numpy

    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "specgame": getattr(sg, "__version__", "unknown"),
        "nproc": nproc,
        "openblas_threads": openblas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_sha": git_sha(),
        "workload": workload,
        "seed": seed,
        "region_side_m": sorted({c.region_side for c in configs}),
    }
    if workload.startswith("mc-"):
        env["n_pt"], env["n_su"], env["n_mu"] = realised if realised else (None, None, None)
        env["n_from"] = "first measured iteration"
    return env


def wall_tail(walls: List[float]) -> str:
    """Highest percentile with at least ten samples beyond it."""
    n = len(walls)
    if n < 11:
        return f"n/a ({n} samples; needs at least 11)"
    ordered = sorted(walls)
    return f"p{100.0 * (n - 10) / n:.0f} {ordered[n - 11]:.6f} s ({n} samples, 10 beyond)"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = pin_blas_threads()
    try:
        sg = load_specgame()
        configs = resolve_configs(sg.cli, args.workload)
    except (ImportError, AttributeError, KeyError) as exc:
        print(f"benchmark cannot load specgame: {exc}", file=sys.stderr)
        return 2
    res = measure(sg, args.workload, args.seed, args.seconds, bool(args.trace),
                  probes=0 if args.trace else SETUP_PROBES)
    env = environment(sg, nproc, args.seed, args.workload, configs, res["realised"])
    print(f"# specgame benchmark workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} loop=closed callers=1")
    print("# env " + json.dumps(env, sort_keys=True))
    if res["absent"]:
        print("# absent names (not wrapped): " + ", ".join(res["absent"]))
    if args.trace:
        values = spans.layer_metrics(res["tracer"].iterations, res["untraced_walls"])
        units = spans.PER_LAYER_UNITS
        size = spans.iteration_counts(res["tracer"].iterations[0])
        print("# size " + " ".join(f"{name} {size[name]}" for name in spans.SIZE_COUNTS))
    else:
        walls, setup = res["walls"], res["setup"]
        # seconds per reference unit over REF_S: above 1 the host ran slow
        slowdown = statistics.fmean(res["refs"]) / REF_S
        values = {
            "setup_s": REF_S * statistics.median(probe / ref for probe, ref in setup),
            "wall_s": statistics.fmean(walls) / slowdown,
            "updates_per_s": sum(res["updates"]) / sum(walls) * slowdown,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
        print(f"# host slowdown {slowdown:.4f} (reference unit {REF_S * slowdown * 1e3:.3f} ms, "
              f"nominal {REF_S * 1e3:.0f} ms); the figures below are raw")
        print(f"# raw wall_s {statistics.fmean(walls):.6f} s, median {statistics.median(walls):.6f} s "
              f"({len(walls)} samples)")
        print(f"# raw wall_tail_s {wall_tail(walls)}")
        print(f"# raw updates_per_s {sum(res['updates']) / sum(walls):.6g} updates/s")
        if args.workload.startswith("mc-"):
            print(f"# raw su_slots_per_s {sum(res['su_slots']) / sum(walls):.6g} SU*slots/s")
        print(f"# raw setup samples {['%.4f' % probe for probe, _ in setup]} s, "
              f"reference units {['%.2f' % (ref * 1e3) for _, ref in setup]} ms")
    for name, value in values.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(f"# fail_ratio {res['failed']}/{res['attempted']} failed/attempted")
    for failure in res["failures"][:10]:
        print(f"# failure: {failure}")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
