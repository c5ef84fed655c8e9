"""The table of what each config key accepts: the README's copy of it, the
run-byte estimate, a config load that checks each key once, and property
tests whose configs are drawn from it."""
import collections
import contextlib
import functools
import gc
import io
import itertools
import json
import math
import re
import sys
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specgame.cli import apply_overrides, build_presets, main, write_run_outputs
from specgame.engine import ScenarioConfig, run, run_bytes
from specgame import keys
from specgame.keys import KEYS, MC_BOUNDS

README = Path(__file__).resolve().parents[1] / "README.md"
DEFAULTS = {name: functools.reduce(getattr, name.split("."), ScenarioConfig()) for name in KEYS}


def test_the_readme_table_is_the_key_table():
    lines = README.read_text().splitlines()
    start = lines.index("| key | kind | range | Monte Carlo bounds |") + 2
    rows = {}
    for line in itertools.takewhile(lambda line: line.startswith("|"), lines[start:]):
        key, kind, interval, bounds = (cell.strip().replace("\\|", "|").strip("`")
                                       for cell in re.split(r"(?<!\\)\|", line)[1:-1])
        rows[key] = (kind, interval, tuple(bounds.split(", ")) if bounds else ())
    assert list(rows.items()) == [(name, tuple(key)) for name, key in KEYS.items()]
    for name, (_, need) in MC_BOUNDS.items():
        assert f"- *{name}*: {need}" in lines


def test_a_meanfield_load_checks_each_key_once(monkeypatch):
    data = ScenarioConfig().to_dict()
    assert data["mode"] == "meanfield"
    checked, check = collections.Counter(), keys.check

    def counting(values):
        checked.update(list(values))
        check(values)

    for module in list(sys.modules.values()):  # every module that imported keys.check
        if module.__name__.startswith("specgame.") and getattr(module, "check", None) is check:
            monkeypatch.setattr(module, "check", counting)
    ScenarioConfig.from_dict(data)
    assert checked == collections.Counter(list(KEYS)) and len(checked) == 37


def test_the_readme_states_the_default_runs_estimate():
    parts = run_bytes(ScenarioConfig(mode="montecarlo"))
    text = README.read_text()
    assert f"estimates the default 3000 m Monte Carlo run at {sum(parts.values()) / 2 ** 20:.1f} MiB" in text
    for part, size in parts.items():
        assert f"{part} {size / 2 ** 20:.2f} MiB" in text


@pytest.mark.parametrize("overrides, factor", [
    ([], 4),  # fig3-population in mean field, 150 steps: the fixed bytes weigh most
    (["mode=montecarlo", "region_side=400", "steps=5"], 3),
    (["mode=montecarlo", "region_side=800", "steps=5"], 3),
    (["mode=montecarlo", "region_side=1500", "steps=5"], 3),
])
def test_the_estimate_bounds_a_runs_peak_within_a_factor(tmp_path, overrides, factor):
    config = apply_overrides(build_presets()["fig3-population"], overrides)
    write_run_outputs(run(config), str(tmp_path), None)  # untraced: first calls fill caches
    gc.collect()
    tracemalloc.start()
    try:
        write_run_outputs(run(config), str(tmp_path), None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    estimate = sum(run_bytes(config).values())
    assert peak <= estimate <= factor * peak


def _interval(key):
    lo, hi = (math.inf if bound == "inf" else int(bound) for bound in key.range[1:-1].split(", "))
    return lo, key.range[0] == "(", hi, key.range[-1] == ")"


# the valid draws stay small, so that every Monte Carlo run takes milliseconds
SMALL = {"region_side": st.floats(100.0, 400.0), "steps": st.integers(1, 5), "window": st.integers(1, 8)}


@st.composite
def valid_configs(draw, mode):
    """A config of `mode` with every other key drawn from its kind and
    range: a number near its default (0.85 to 1.2 times it, within its
    range). Over that span the cross-key rules hold: at worst the primary
    link's noise term is 0.018, below the 0.043 its outage budget allows."""
    m = draw(st.integers(2, 4))
    probs = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=m, max_size=m, unique=True)))
    weights = draw(st.lists(st.floats(0.01, 1.0), min_size=m, max_size=m))
    data = {"mode": mode, "access_probs": probs, "x0": [w / sum(weights) for w in weights]}
    for name, key in KEYS.items():
        if name in data:
            continue
        if name in SMALL:
            value = draw(SMALL[name])
        elif key.kind == "bool":
            value = draw(st.booleans())
        elif key.kind == "choice":
            value = draw(st.sampled_from(key.range.split(" | ")))
        elif key.kind == "int":
            lo, _, hi, _ = _interval(key)
            value = draw(st.integers(lo, min(hi, lo + 9)))
        else:
            lo, _, hi, _ = _interval(key)
            value = min(max(DEFAULTS[name] * draw(st.floats(0.85, 1.2)), lo), hi)
        section, _, leaf = name.rpartition(".")
        (data.setdefault(section, {}) if section else data)[leaf] = value
    return data


def _main(argv):
    """cli.main's exit code and what it wrote to stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


NAMED_FAILURES = r"runtime failure: (degenerate population: no secondary users sampled|" \
                 r"replicator step could not keep shares nonnegative[^\n]*)\n"


@settings(max_examples=40, deadline=None)
@given(data=st.one_of(valid_configs("meanfield"), valid_configs("montecarlo")))
def test_valid_small_configs_run_and_keep_the_simplex(data):
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "config.json", Path(tmp) / "out"
        path.write_text(json.dumps(data))
        code, err = _main(["run", str(path), "--out", str(out)])
        rows = (out / "metrics.csv").read_text().splitlines() if code == 0 else []
    assert (code, err) == (0, "") or (code == 3 and re.fullmatch(NAMED_FAILURES, err)), err
    header = rows[0].split(",") if rows else []
    shares = [i for i, column in enumerate(header) if column.startswith("share_s")]
    for row in rows[1:]:
        x = [float(row.split(",")[i]) for i in shares]
        assert min(x) >= 0 and abs(sum(x) - 1.0) <= 1e-9, row


def _outside(name, key):
    """A strategy of values of the wrong kind, or outside the key's range."""
    if key.kind == "bool":
        return st.sampled_from([0, 1, "true", None, 0.5])
    if key.kind == "choice":
        return st.one_of(st.text().filter(lambda s: s not in key.range.split(" | ")), st.integers(), st.none())
    lo, open_lo, hi, open_hi = _interval(key)
    if key.kind == "int":
        numbers = [st.integers(max_value=lo - (not open_lo))]
        numbers += [st.integers(min_value=hi + (not open_hi))] if hi < math.inf else []
        return st.one_of(*numbers, st.sampled_from([2.5, True, "3", None, [1]]))
    numbers = [st.floats(max_value=lo, exclude_max=not open_lo, allow_nan=False, allow_infinity=False)]
    numbers += [st.floats(min_value=hi, exclude_min=not open_hi, allow_nan=False)] if hi < math.inf else []
    entry = st.one_of(*numbers, st.sampled_from([math.nan, math.inf, -math.inf, "x", True, None]))
    if key.kind == "float":
        return entry
    default = list(DEFAULTS[name])  # a list with one entry replaced, or no list at all
    replaced = st.tuples(st.integers(0, len(default) - 1), entry).map(
        lambda at: default[:at[0]] + [at[1]] + default[at[0] + 1:])
    return st.one_of(replaced, st.sampled_from([5, "x", None, {"a": 1}]))


# values inside each key's range but outside its Monte Carlo bounds, at a 400 m region
MC_OUTSIDE = {
    "positive": st.just(0.0), "half side": st.floats(200.0, 1e6), "cutoff": st.floats(200.0, 1e6),
    "term": st.floats(1e31, 1e300), "noise": st.floats(1e-300, 1e-26), "gain": st.floats(1e-300, 1e-8),
}
BREAKS = st.one_of(
    st.sampled_from(sorted(KEYS)).flatmap(lambda name: st.tuples(st.just(name), _outside(name, KEYS[name]),
                                                                 st.just(False))),
    st.sampled_from([(name, bound) for name, key in KEYS.items() for bound in key.mc]).flatmap(
        lambda pair: st.tuples(st.just(pair[0]), MC_OUTSIDE[pair[1]], st.just(True))),
)


@settings(max_examples=300, deadline=None)
@given(broken=BREAKS)
def test_a_key_outside_its_kind_or_range_exits_2_naming_it(broken):
    name, value, montecarlo = broken
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        argv = ["run", "fig3-population", "--set", "region_side=400", "--set", "steps=5"]
        argv += ["--mode", "montecarlo"] if montecarlo else []
        code, err = _main([*argv, "--set", f"{name}={json.dumps(value)}", "--out", str(out)])
        assert code == 2 and not out.exists(), err
    assert err.startswith("invalid configuration: ") and err.count("\n") == 1 and name in err, err
