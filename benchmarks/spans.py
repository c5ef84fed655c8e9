"""Layer tracing for the specgame benchmark.

The wrappers live here and are installed from outside the program, on the
names each consuming module imported (``specgame.game.success_prob`` and
``specgame.channel.success_prob`` both, say), so the program itself carries
no instrumentation. A name that a refactor removed is reported as absent.

Two kinds of wrapper:

* span -- records name, start, end and parent; used for calls that happen a
  few times per iteration (runs, sweeps, forecasts, config and output).
* leaf -- hot calls (``success_prob`` runs 27,600 times per preset iteration)
  are aggregated per parent span as (calls, seconds) to bound the overhead.
  Under a timeline span (``run_montecarlo``) the direct leaf calls are also
  kept with their start and end, so that each Monte Carlo window, the gap
  between two controller calls, can be measured.

Spans stay in memory until the run ends; per-layer metrics are derived from
them afterwards by :func:`layer_metrics`.
"""
from __future__ import annotations

import importlib
import statistics
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

perf = time.perf_counter

SPAN, LEAF = "span", "leaf"

# (group, kind, bindings). A binding is "module:attr" or "module:Class.attr";
# every binding of one group gets the same wrapper when it holds the same
# object, so a call passes through one wrapper however it was looked up.
TARGETS: List[Tuple[str, str, Tuple[str, ...]]] = [
    ("channel.median_sinr", LEAF, ("specgame.game:median_sinr", "specgame.channel:median_sinr")),
    ("channel.success_prob", LEAF, ("specgame.game:success_prob", "specgame.channel:success_prob")),
    ("game.run_dynamics", SPAN, ("specgame.engine:run_dynamics", "specgame.game:run_dynamics")),
    ("game.payoff_vector", LEAF, ("specgame.game:payoff_vector",)),
    ("game.replicator_step", LEAF, ("specgame.game:replicator_step", "specgame.engine:replicator_step")),
    ("game.classify", SPAN, ("specgame.engine:classify_operating_point",
                             "specgame.attack:classify_operating_point",
                             "specgame.game:classify_operating_point")),
    ("attack.controller", LEAF, ("specgame.attack:AttackController.__call__",)),
    ("attack.decide_launch", SPAN, ("specgame.engine:decide_launch", "specgame.attack:decide_launch")),
    ("geometry.sample_world", SPAN, ("specgame.engine:sample_world",)),
    ("geometry.pairwise", LEAF, ("specgame.engine:pairwise_toroidal",)),
    ("engine.run", SPAN, ("specgame.cli:run", "specgame.engine:run_meanfield", "specgame.engine:run_montecarlo")),
    ("engine.sweep", SPAN, ("specgame.cli:sweep_region",)),
    ("cli.config", SPAN, ("specgame.cli:build_presets", "specgame.cli:load_config",
                          "specgame.cli:apply_overrides")),
    ("cli.output", SPAN, ("specgame.cli:write_run_outputs", "specgame.cli:region_csv_text",
                          "specgame.cli:manifest_text")),
]

KIND = {group: kind for group, kind, _ in TARGETS}
# bindings whose spans keep their direct leaf calls on a timeline
TIMELINE = {"specgame.engine:run_montecarlo"}


class Span:
    __slots__ = ("group", "parent", "start", "end", "child", "cover", "leaf", "marks")

    def __init__(self, group: str, parent: Optional["Span"], start: float, timeline: bool = False):
        self.group = group
        self.parent = parent
        self.start = start
        self.end = start
        self.child = 0.0  # seconds covered by child spans
        self.cover = 0.0  # seconds covered by outermost leaf calls
        self.leaf: Dict[str, List] = {}  # leaf group -> [calls, seconds]
        self.marks: Optional[List[Tuple[str, float, float]]] = [] if timeline else None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Iteration:
    """One traced iteration of the workload: a root span plus everything under it."""

    def __init__(self):
        self.root = Span("iteration", None, perf())
        self.spans: List[Span] = []
        self.counts: Counter = Counter()


class Tracer:
    def __init__(self) -> None:
        self.iterations: List[Iteration] = []
        self.current: Optional[Iteration] = None
        self.stack: List[Span] = []
        self.leaf_stack: List[str] = []
        self._patches = Patches()

    # -- recording -------------------------------------------------------
    def begin(self) -> Iteration:
        it = Iteration()
        self.iterations.append(it)
        self.current = it
        self.stack = [it.root]
        self.leaf_stack = []
        return it

    def end(self) -> None:
        it = self.current
        it.root.end = perf()
        self.current = None
        self.stack = []

    def _span(self, group: str, fn: Callable, timeline: bool) -> Callable:
        tracer = self

        def wrapper(*args, **kwargs):
            it = tracer.current
            if it is None:
                return fn(*args, **kwargs)
            parent = tracer.stack[-1]
            span = Span(group, parent, perf(), timeline)
            it.spans.append(span)
            tracer.stack.append(span)
            leaf_stack, tracer.leaf_stack = tracer.leaf_stack, []
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = perf()
                tracer.stack.pop()
                tracer.leaf_stack = leaf_stack
                parent.child += span.seconds

        return wrapper

    def _leaf(self, group: str, fn: Callable) -> Callable:
        tracer = self
        count = LEAF_COUNTS.get(group)

        def wrapper(*args, **kwargs):
            it = tracer.current
            if it is None:
                return fn(*args, **kwargs)
            owner = tracer.stack[-1]
            outer = tracer.leaf_stack[-1] if tracer.leaf_stack else None
            before = count(args, None) if count else None
            tracer.leaf_stack.append(group)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf()
                tracer.leaf_stack.pop()
                agg = owner.leaf.get(group)
                if agg is None:
                    agg = owner.leaf[group] = [0, 0.0]
                agg[0] += 1
                agg[1] += t1 - t0
                if outer is None:
                    owner.cover += t1 - t0
                    if owner.marks is not None:
                        owner.marks.append((group, t0, t1))
                else:
                    it.counts[f"{outer}>{group}"] += 1
                if count:
                    for key, value in count(args, before).items():
                        it.counts[key] += value

        return wrapper

    # -- installation ----------------------------------------------------
    @property
    def absent(self) -> List[str]:
        return self._patches.absent

    def install(self) -> None:
        """Wrap every target binding that exists; note the ones that do not."""
        self._patches = Patches()
        for group, kind, bindings in TARGETS:
            made: Dict[int, Callable] = {}
            for binding in bindings:

                def make(original):  # called at once, inside this iteration
                    if id(original) not in made:
                        made[id(original)] = (self._span(group, original, binding in TIMELINE) if kind == SPAN
                                              else self._leaf(group, original))
                    return made[id(original)]

                self._patches.wrap(binding, make)

    def uninstall(self) -> None:
        self._patches.restore()


class Patches:
    """Replaces bound names ("module:attr" or "module:Class.attr") with
    wrappers and puts the originals back. A binding that does not resolve
    is listed in ``absent`` and left alone."""

    def __init__(self) -> None:
        self.absent: List[str] = []
        self._saved: List[Tuple[object, str, object]] = []

    def wrap(self, binding: str, make: Callable[[Callable], Callable]) -> None:
        """Bind ``make(original)`` in place of the original."""
        owner, attr = _resolve(binding)
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            self.absent.append(binding)
            return
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []


def _resolve(binding: str):
    module_name, path = binding.split(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None, path
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None, attr
    return owner, attr


# A leaf count is called once before the call (before=None), returning some
# state, and once after with that state, returning the increments to record.

def _pairwise_pairs(args, before):
    if before is None:
        return 0
    return {"geometry.pairwise_pairs": len(args[0]) * len(args[1])} if len(args) >= 2 else {}


def _phase_events(args, before):
    events = getattr(args[0], "events", None) if args else None
    n = len(events) if events is not None else 0
    return n if before is None else {"attack.phase_events": n - before}


LEAF_COUNTS = {
    "geometry.pairwise": _pairwise_pairs,
    "attack.controller": _phase_events,
}


# -- derived per-layer metrics ---------------------------------------------

def _outermost(spans: List[Span], group: str) -> float:
    total = 0.0
    for s in spans:
        if s.group != group:
            continue
        p = s.parent
        while p is not None and p.group != group:
            p = p.parent
        if p is None:
            total += s.seconds
    return total


def _leaf_totals(it: Iteration) -> Dict[str, List]:
    totals: Dict[str, List] = {}
    for s in [it.root, *it.spans]:
        for group, (calls, secs) in s.leaf.items():
            agg = totals.setdefault(group, [0, 0.0])
            agg[0] += calls
            agg[1] += secs
    return totals


def _montecarlo_windows(it: Iteration) -> Tuple[float, List[float]]:
    """Topology seconds and per-window self seconds of every MC run in `it`.

    The topology runs from the start of ``run_montecarlo`` to its first
    controller call; a window runs from the end of one controller call to
    the start of the next (the last one to the end of the run), less the
    leaf calls and child spans inside it.
    """
    topology = 0.0
    windows: List[float] = []
    for run in (s for s in it.spans if s.marks is not None):
        calls = [(a, b) for g, a, b in run.marks if g == "attack.controller"]
        if not calls:
            continue
        topology += calls[0][0] - run.start
        busy = [(a, b) for g, a, b in run.marks if g != "attack.controller"]
        busy += [(c.start, c.end) for c in it.spans if c.parent is run]
        bounds = [b for _, b in calls]
        starts = [a for a, _ in calls[1:]] + [run.end]
        for lo, hi in zip(bounds, starts):
            inside = sum(b - a for a, b in busy if lo <= a and b <= hi)
            windows.append(hi - lo - inside)
    return topology, windows


CALL_GROUPS = [
    "channel.median_sinr", "channel.success_prob", "game.run_dynamics", "game.payoff_vector",
    "game.replicator_step", "game.classify", "attack.controller", "attack.decide_launch",
    "geometry.sample_world", "geometry.pairwise",
]

# name -> unit of every per-layer metric, in report order. A *_share is the
# layer's busy seconds over the traced iteration wall time (trace.wall_s).
PER_LAYER_UNITS: Dict[str, str] = {
    "trace.wall_s": "s",
    "tracing_overhead": "ratio",
    "channel.median_sinr_calls": "count",
    "channel.median_sinr_share": "share",
    "channel.success_prob_calls": "count",
    "channel.success_prob_share": "share",
    "channel.success_prob_per_median": "calls/median",
    "game.run_dynamics_calls": "count",
    "game.run_dynamics_share": "share",
    "game.run_dynamics_self_share": "share",
    "game.payoff_vector_calls": "count",
    "game.payoff_vector_share": "share",
    "game.replicator_step_calls": "count",
    "game.replicator_step_share": "share",
    "game.classify_calls": "count",
    "game.classify_share": "share",
    "attack.controller_calls": "count",
    "attack.controller_share": "share",
    "attack.decide_launch_calls": "count",
    "attack.decide_launch_share": "share",
    "attack.phase_events": "count",
    "geometry.sample_world_calls": "count",
    "geometry.sample_world_share": "share",
    "geometry.pairwise_calls": "count",
    "geometry.pairwise_share": "share",
    "geometry.pairwise_pairs": "count",
    "geometry.pairwise_bytes": "bytes",
    "engine.run_share": "share",
    "engine.sweep_share": "share",
    "engine.mc.topology_share": "share",
    "engine.mc.window_self_share": "share",
    "cli.config_share": "share",
    "cli.output_share": "share",
    "cli.output_bytes": "bytes",
}


# counts that give the size of the input, which the seed fixes: printed as
# a comment line, not as metrics, since no direction of them is better
SIZE_COUNTS = ("engine.mc.windows", "engine.mc.n_su")


def iteration_counts(it: Iteration) -> Dict[str, int]:
    """Exact per-iteration counts; they repeat between runs of the same input."""
    leaves = _leaf_totals(it)
    out: Dict[str, int] = {}
    for group in CALL_GROUPS:
        if KIND[group] == LEAF:
            out[f"{group}_calls"] = leaves.get(group, [0])[0]
        else:
            out[f"{group}_calls"] = sum(1 for s in it.spans if s.group == group)
    medians = out["channel.median_sinr_calls"]
    nested = it.counts["channel.median_sinr>channel.success_prob"]
    out["channel.success_prob_per_median"] = nested / medians if medians else 0.0
    out["attack.phase_events"] = it.counts["attack.phase_events"]
    pairs = it.counts["geometry.pairwise_pairs"]
    out["geometry.pairwise_pairs"] = pairs
    out["geometry.pairwise_bytes"] = 16 * pairs  # computed: two float64 per pair
    out["engine.mc.windows"] = sum(
        sum(1 for g, _, _ in s.marks if g == "attack.controller")
        for s in it.spans if s.marks is not None)
    out["engine.mc.n_su"] = it.counts["engine.mc.n_su"]
    out["cli.output_bytes"] = it.counts["cli.output_bytes"]
    return out


def iteration_busy(it: Iteration) -> Dict[str, float]:
    """Seconds each layer was busy during one iteration."""
    leaves = _leaf_totals(it)
    busy: Dict[str, float] = {}
    for group, kind in KIND.items():
        if kind == LEAF:
            busy[group] = leaves.get(group, [0, 0.0])[1]
        else:
            busy[group] = _outermost(it.spans, group)
    busy["game.run_dynamics_self"] = sum(
        max(0.0, s.seconds - s.child - s.cover) for s in it.spans if s.group == "game.run_dynamics")
    topology, windows = _montecarlo_windows(it)
    busy["engine.mc.topology"] = topology
    busy["engine.mc.window_self"] = sum(windows)
    return busy


def layer_metrics(traced: List[Iteration], untraced_walls: List[float]) -> Dict[str, float]:
    """Per-layer metrics of a traced run.

    Counts come from the first traced iteration, whose input is fixed by the
    workload seed, so they repeat exactly. Shares are busy seconds summed over
    all traced iterations over their summed wall time (traced wall time, so
    they include the wrappers' own overhead).
    """
    walls = [it.root.seconds for it in traced]
    out: Dict[str, float] = {"trace.wall_s": statistics.median(walls)}
    out["tracing_overhead"] = statistics.median(walls) / statistics.median(untraced_walls)
    out.update(iteration_counts(traced[0]))
    total_wall = sum(walls)
    busy_sum: Counter = Counter()
    for it in traced:
        busy_sum.update(iteration_busy(it))
    for group, seconds in busy_sum.items():
        out[f"{group}_share"] = seconds / total_wall
    return {name: out[name] for name in PER_LAYER_UNITS}
