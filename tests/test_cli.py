import csv
import gc
import json
import os
import re
import subprocess
import tracemalloc

import numpy as np
import pytest

from specgame.cli import (
    apply_overrides,
    build_presets,
    emit_plotdata,
    load_config,
    main,
    run_preset,
    write_run_outputs,
)
from specgame.engine import (
    INTERFERENCE_CUTOFF,
    ConfigError,
    ScenarioConfig,
    _sample_topology,
    run,
    run_bytes,
)
from specgame.geometry import pairwise_toroidal

from cli_cases import (
    BAD_NUMBERS,
    CASES,
    FLOAT32_OUT_OF_RANGE,
    MISSING_METRICS,
    NAMED_KEYS,
    NOISE_LIMITED,
    OTHER_CASES,
    SIZES,
    TOO_MANY_STEPS,
    Case,
    argv,
    check_outputs,
    invalid,
    run_in_process,
)


def test_empty_config_yields_production_defaults(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text("")
    cfg = load_config(str(path))
    assert cfg == ScenarioConfig()
    assert cfg.channel.alpha == 4.0
    assert cfg.lambda_pt == 1e-5
    assert cfg.lambda_su == 1e-3
    assert cfg.lambda_mu == 1e-7
    assert cfg.channel.pr_sinr_threshold == 3.0
    assert cfg.channel.pr_outage_constraint == 0.05
    assert cfg.channel.pt_link_distance == 15.0
    assert cfg.channel.pt_power == 0.3
    assert cfg.channel.su_sinr_threshold == 3.0
    assert cfg.channel.su_outage_constraint == 0.1
    assert cfg.channel.su_link_distance == 10.0
    assert cfg.channel.su_power == 0.1
    assert cfg.channel.mu_power == 0.1
    assert cfg.channel.noise == 1e-9


def test_invalid_configs_rejected(tmp_path):
    bad_alpha = tmp_path / "alpha.json"
    bad_alpha.write_text(json.dumps({"channel": {"alpha": 2.0}}))
    with pytest.raises(ConfigError, match="alpha"):
        load_config(str(bad_alpha))

    bad_kappa = tmp_path / "kappa.json"
    bad_kappa.write_text(json.dumps({"payoffs": {"kappa": -1.0}}))
    with pytest.raises(ConfigError, match="kappa"):
        load_config(str(bad_kappa))

    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"not_a_field": 1}))
    with pytest.raises(ConfigError, match="not_a_field"):
        load_config(str(unknown))

    broken = tmp_path / "broken.json"
    broken.write_text("{nope")
    with pytest.raises(ConfigError, match=r":\d+:\d+"):
        load_config(str(broken))


def test_config_write_read_round_trip(tmp_path):
    cfg = ScenarioConfig.from_dict({
        "mode": "montecarlo", "seed": 13, "region_side": 900.0,
        "payoffs": {"delta": 4.0, "nu": 2.0, "kappa": 1.5},
        "channel": {"alpha": 3.5, "su_power": 0.2},
        "access_probs": [0.0, 0.25, 1.0], "x0": [0.8, 0.1, 0.1],
        "launch_policy": "always",
    })
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg.to_dict()))
    assert load_config(str(path)) == cfg


def test_apply_overrides_dotted_paths():
    cfg = ScenarioConfig()
    out = apply_overrides(cfg, ["payoffs.kappa=8", "mode=montecarlo", "seed=7", "channel.alpha=4.5"])
    assert out.payoffs.kappa == 8.0
    assert out.mode == "montecarlo"
    assert out.seed == 7
    assert out.channel.alpha == 4.5
    with pytest.raises(ConfigError):
        apply_overrides(cfg, ["no.such.key=1"])


def test_presets_resolve_identically():
    a, b = build_presets(), build_presets()
    assert set(a) == {"fig3-population", "fig4-sinr-kappa0", "fig5-sinr-kappa8", "fig6-region"}
    for name in a:
        assert a[name] == b[name]
    assert a["fig3-population"].payoffs.kappa == 0.0
    assert a["fig4-sinr-kappa0"].payoffs == a["fig3-population"].payoffs
    assert a["fig5-sinr-kappa8"].payoffs.kappa == 8.0
    assert a["fig5-sinr-kappa8"].payoffs.delta == 10.0


def test_main_calls_do_not_share_overrides(tmp_path):
    # the parser and the presets are built once per process; each call's
    # --set, --seed and --mode still reach that call's run only
    calls = {"seed": ["--seed", "9"],
             "set": ["--set", "steps=4", "--set", "payoffs.kappa=2"],
             "plain": [],
             "mc": ["--mode", "montecarlo", "--set", "region_side=400", "--set", "steps=3", "--seed", "5"]}
    for name, extra in calls.items():
        assert main(["run", "fig3-population", *extra, "--out", str(tmp_path / name)]) == 0
    config = {name: json.loads((tmp_path / name / "run-manifest.json").read_text())["config"] for name in calls}
    assert [config[n]["seed"] for n in calls] == [9, 1, 1, 5]
    assert [config[n]["steps"] for n in calls] == [150, 4, 150, 3]
    assert [config[n]["payoffs"]["kappa"] for n in calls] == [0.0, 2.0, 0.0, 0.0]
    assert [config[n]["mode"] for n in calls] == ["meanfield"] * 3 + ["montecarlo"]
    presets = build_presets()
    presets["fig3-population"] = presets.pop("fig5-sinr-kappa8")
    assert build_presets()["fig3-population"].payoffs.kappa == 0.0
    assert build_presets()["fig3-population"].steps == 150


def test_run_preset_fig3_outputs(tmp_path):
    out = tmp_path / "fig3"
    assert run_preset("fig3-population", [], str(out)) == 0
    with open(out / "metrics.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert float(rows[-1]["share_s2"]) >= 0.99
    with open(out / "phase_events.csv") as fh:
        events = list(csv.DictReader(fh))
    assert [e["new_phase"] for e in events] == ["inducing", "inactive"]
    manifest = json.loads((out / "run-manifest.json").read_text())
    assert manifest["preset"] == "fig3-population"
    assert manifest["config"]["payoffs"]["kappa"] == 0.0
    assert "su_density_cap" in manifest
    assert "topology" not in manifest  # mean-field runs sample none


def test_run_preset_fig6_region(tmp_path):
    out = tmp_path / "fig6"
    assert run_preset("fig6-region", [], str(out)) == 0
    with open(out / "region.csv") as fh:
        rows = list(csv.DictReader(fh))
    table = {(float(r["delta"]), float(r["nu"]), float(r["kappa"])): r["classification"] for r in rows}
    assert table[(10.0, 1.0, 0.0)] == "fragile"
    assert table[(10.0, 1.0, 8.0)] == "robust"


def test_run_preset_unknown_name():
    assert main(["run", "no-such-preset", "--out", "/tmp/does-not-matter"]) == 1


def test_manifest_covers_every_config_field(tmp_path):
    # perturbing any single leaf must change the manifest
    base = ScenarioConfig()
    perturbations = {
        "mode": {"mode": "montecarlo"},
        "seed": {"seed": 99},
        "region_side": {"region_side": 1234.0},
        "lambda_pt": {"lambda_pt": 2e-5},
        "lambda_su": {"lambda_su": 2e-3},
        "lambda_mu": {"lambda_mu": 5e-7},
        "access_probs": {"access_probs": [0.0, 0.5, 1.0], "x0": [0.98, 0.01, 0.01]},
        "x0": {"x0": [0.97, 0.03]},
        "steps": {"steps": 33},
        "window": {"window": 7},
        "step_size": {"step_size": 0.2},
        "sensing_radius": {"sensing_radius": 60.0},
        "mu_access_prob": {"mu_access_prob": 0.7},
        "hysteresis": {"hysteresis": 3},
        "inducing_perception": {"inducing_perception": 0.9},
        "launch_policy": {"launch_policy": "always"},
        "inactive_mu_behavior": {"inactive_mu_behavior": "mimic-su"},
        "include_pt_interference_at_pr": {"include_pt_interference_at_pr": True},
        "include_pt_interference_at_su": {"include_pt_interference_at_su": False},
        "resample_topology": {"resample_topology": True},
        "freeze_shares": {"freeze_shares": True},
        "extinction_tolerance": {"extinction_tolerance": 5e-3},
        "channel": {"channel": {"alpha": 4.2}},
        "payoffs": {"payoffs": {"kappa": 2.0}},
    }
    from specgame.cli import manifest_text
    base_manifest = manifest_text(base, None)
    assert set(perturbations) == set(base.to_dict())
    for key, changes in perturbations.items():
        data = base.to_dict()
        for k, value in changes.items():
            if isinstance(value, dict):
                data[k].update(value)
            else:
                data[k] = value
        cfg = ScenarioConfig.from_dict(data)
        assert manifest_text(cfg, None) != base_manifest, key


def test_cli_determinism_montecarlo(tmp_path):
    args = ["run", "fig3-population", "--mode", "montecarlo", "--seed", "7",
            "--set", "region_side=700", "--set", "steps=3", "--set", "window=5"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert (out1 / "metrics.csv").read_bytes() == (out2 / "metrics.csv").read_bytes()
    assert (out1 / "phase_events.csv").read_bytes() == (out2 / "phase_events.csv").read_bytes()


def test_montecarlo_manifest_reports_first_topology(tmp_path):
    # resampling draws a new topology every update; the manifest reports the first
    out = tmp_path / "mc"
    overrides = ["mode=montecarlo", "seed=7", "region_side=900", "steps=3", "window=5",
                 "lambda_mu=2e-5", "resample_topology=true"]
    assert run_preset("fig3-population", overrides, str(out)) == 0
    manifest = json.loads((out / "run-manifest.json").read_text())
    config = ScenarioConfig.from_dict(manifest["config"])
    world = _sample_topology(config, np.random.default_rng(7)).world
    senders = np.concatenate([world.sus, world.mus])
    within = pairwise_toroidal(world.sus, senders, world.region) <= config.sensing_radius
    pairs = int(within.sum()) - len(world.sus)  # every SU is within range of itself
    # receivers (the PRs, then the SU receivers) and senders within the
    # cutoff, less each SU receiver's own link
    receivers = np.concatenate([world.prs, world.su_receivers])
    near = pairwise_toroidal(receivers, senders, world.region) <= INTERFERENCE_CUTOFF
    interference_pairs = int(near.sum()) - len(world.sus)
    assert manifest["topology"] == {"n_pt": len(world.pts), "n_su": len(world.sus), "n_mu": len(world.mus),
                                    "sensing_pairs": pairs, "interference_pairs": interference_pairs}
    assert len(world.pts) > 0 and len(world.mus) > 0 and pairs > 0
    # a 900 m torus has 4 x 4 cells of at least 200 m, so the pairs beyond
    # the cutoff are left to the tail
    assert 0 < interference_pairs < len(receivers) * len(senders) - len(world.sus)


def test_plotdata_series(tmp_path):
    out = tmp_path / "run"
    run_preset("fig3-population", ["steps=20"], str(out))
    plot = tmp_path / "plot"
    assert emit_plotdata(str(out / "metrics.csv"), str(plot)) == 0
    for name in ("mutant_share", "nonmutant_share", "lambda_tilde_ref",
                 "pr_sinr_db", "su_sinr_db", "threshold_ref"):
        lines = (plot / f"{name}.dat").read_text().splitlines()
        assert len(lines) == 20
        t, v = lines[0].split()
        float(v)
    ref = float((plot / "lambda_tilde_ref.dat").read_text().splitlines()[0].split()[1])
    assert ref == pytest.approx(0.0457, rel=1e-2)
    thr = float((plot / "threshold_ref.dat").read_text().splitlines()[0].split()[1])
    assert thr == pytest.approx(4.771, rel=1e-3)


def test_plotdata_plots_a_monte_carlo_runs_median_sinr(tmp_path):
    # Monte Carlo writes the dB of the mean linear SINR apart from the median,
    # and the mean rides above the threshold line once the PRs collapse
    out = tmp_path / "run"
    run_preset("fig3-population", ["mode=montecarlo", "region_side=600", "steps=20", "seed=3"], str(out))
    assert emit_plotdata(str(out / "metrics.csv"), str(tmp_path / "plot")) == 0
    with open(out / "metrics.csv") as fh:
        rows = list(csv.DictReader(fh))
    for link in ("pr", "su"):
        series = [line.split() for line in (tmp_path / "plot" / f"{link}_sinr_db.dat").read_text().splitlines()]
        assert series == [[row["t_update"], row[f"{link}_sinr_db_median"]] for row in rows]
        assert any(row[f"{link}_sinr_db_mean"] != row[f"{link}_sinr_db_median"] for row in rows)


def test_plotdata_empty_metrics(tmp_path):
    out = tmp_path / "run"
    run_preset("fig3-population", ["steps=5"], str(out))
    header = (out / "metrics.csv").read_text().splitlines()[0]
    (out / "metrics.csv").write_text(header + "\n")
    plot = tmp_path / "plot"
    assert emit_plotdata(str(out / "metrics.csv"), str(plot)) == 0
    assert (plot / "mutant_share.dat").read_text() == ""


def test_plotdata_malformed_row_reports_index(tmp_path):
    out = tmp_path / "run"
    run_preset("fig3-population", ["steps=5"], str(out))
    lines = (out / "metrics.csv").read_text().splitlines()
    lines[3] = lines[3] + ",extra"
    (out / "metrics.csv").write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError, match="row 4"):
        emit_plotdata(str(out / "metrics.csv"), str(tmp_path / "plot"))


def test_plotdata_names_a_missing_metrics_file(tmp_path, capsys):
    run_in_process(MISSING_METRICS, tmp_path, capsys)


def test_plotdata_of_an_empty_metrics_file_exits_2_with_one_line(tmp_path, capsys):
    metrics = tmp_path / "metrics.csv"
    metrics.write_text("")
    assert main(["plotdata", str(metrics), "--out", str(tmp_path / "plot")]) == 2
    assert capsys.readouterr().err == f"invalid configuration: {metrics}: empty file, expected a header row\n"
    assert not (tmp_path / "plot").exists()


def test_plotdata_without_a_manifest_beside_the_metrics_exits_2_with_one_line(tmp_path, capsys):
    out = tmp_path / "run"
    run_preset("fig3-population", ["steps=5"], str(out))
    (out / "run-manifest.json").unlink()
    assert main(["plotdata", str(out / "metrics.csv"), "--out", str(tmp_path / "plot")]) == 2
    assert re.fullmatch(rf"invalid configuration: cannot read run manifest {re.escape(str(out))}/run-manifest\.json: "
                        r"[^\n]*\n", capsys.readouterr().err)
    assert not (tmp_path / "plot").exists()


@pytest.mark.parametrize("damage, file, message", [
    (lambda m: {k: v for k, v in m.items() if k != "config"}, "run-manifest.json", "no 'config' key"),
    (lambda m: {k: v for k, v in m.items() if k != "su_density_cap"}, "run-manifest.json",
     "no 'su_density_cap' key"),
    (lambda m: [m], "run-manifest.json", "the manifest must be an object"),
    (lambda m: {**m, "su_density_cap": "high"}, "run-manifest.json", "could not convert string to float: 'high'"),
    (lambda m: {**m, "config": {**m["config"], "steps": 0}}, "run-manifest.json", "steps must be at least 1"),
    ("su_success", "metrics.csv", "no 'su_success' column"),
    ("share_s2", "metrics.csv", "no 'share_s2' column"),
    ((3, "pr_success", "abc"), "metrics.csv", "row 3 pr_success is not a number: 'abc'"),
    ((6, "t_update", "five"), "metrics.csv", "row 6 t_update is not a number: 'five'"),
])
def test_plotdata_on_malformed_inputs_exits_2_and_writes_nothing(tmp_path, capsys, damage, file, message):
    out = tmp_path / "run"
    run_preset("fig3-population", ["steps=5"], str(out))
    if file == "run-manifest.json":
        (out / file).write_text(json.dumps(damage(json.loads((out / file).read_text()))))
    else:
        rows = list(csv.reader((out / file).read_text().splitlines()))
        if isinstance(damage, str):  # the column renamed
            rows[0][rows[0].index(damage)] += "_renamed"
        else:  # one value, at a line number of the file
            line, column, value = damage
            rows[line - 1][rows[0].index(column)] = value
        (out / file).write_text("".join(",".join(row) + "\n" for row in rows))
    plot = tmp_path / "plot"
    assert main(["plotdata", str(out / "metrics.csv"), "--out", str(plot)]) == 2
    assert capsys.readouterr().err == f"invalid configuration: {out / file}: {message}\n"
    assert not plot.exists()


def test_montecarlo_forecast_sees_first_topology_counts_over_area(tmp_path, monkeypatch):
    import specgame.engine as engine

    seen = []
    real = engine.decide_launch

    def recording(config, env, lambda_mu):
        seen.append((env.lambda_su, env.lambda_pt, lambda_mu))
        return real(config, env, lambda_mu)

    monkeypatch.setattr(engine, "decide_launch", recording)
    out = tmp_path / "mc"
    overrides = ["mode=montecarlo", "seed=7", "region_side=900", "steps=3", "window=5",
                 "lambda_mu=2e-5", "resample_topology=true"]
    assert run_preset("fig3-population", overrides, str(out)) == 0
    manifest = json.loads((out / "run-manifest.json").read_text())
    area = manifest["config"]["region_side"] ** 2
    counts = manifest["topology"]
    assert seen == [(counts["n_su"] / area, counts["n_pt"] / area, counts["n_mu"] / area)]
    assert counts["n_mu"] > 0


def test_exit_codes(tmp_path):
    assert main(["run", "missing-preset"]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"channel": {"alpha": 1.0}}))
    assert main(["run", str(bad), "--out", str(tmp_path / "o1")]) == 2
    degenerate = tmp_path / "degenerate.json"
    degenerate.write_text(json.dumps({
        "mode": "montecarlo", "lambda_su": 1e-9, "region_side": 300.0,
        "steps": 2, "window": 2,
    }))
    assert main(["run", str(degenerate), "--out", str(tmp_path / "o2")]) == 3
    assert main(["run", "fig3-population", "--set", "steps=2", "--out", str(tmp_path / "o3")]) == 0


NONNEGATIVE = "replicator step could not keep shares nonnegative"
HUGE_DELTA = ["--set", "payoffs.delta=1e300"]
MC_600 = ["--mode", "montecarlo", "--set", "region_side=600", "--set", "steps=3"]


@pytest.mark.parametrize("extra,reason", [
    # the launch forecast fails; in mean-field mode it is the launched run itself
    (["fig3-population", *HUGE_DELTA], NONNEGATIVE + " (step 0)"),
    # the mean-field run fails
    (["fig5-sinr-kappa8", *HUGE_DELTA], NONNEGATIVE + " (step 0)"),
    # a Monte Carlo replicator step fails
    (["fig5-sinr-kappa8", *MC_600, *HUGE_DELTA], NONNEGATIVE + " (step 1)"),
    # a Monte Carlo window's payoff means overflow: the step fails on them, with no numpy warning
    (["fig5-sinr-kappa8", *MC_600, "--set", "payoffs.delta=1e308"], NONNEGATIVE + ": non-finite payoffs (step 1)"),
    # the mean-field replicator step overflows: the step fails, with no numpy warning
    (["fig3-population", "--set", "step_size=1e308"], NONNEGATIVE + " (step 0)"),
])
def test_failed_dynamics_exit_3_with_one_line(tmp_path, capsys, extra, reason):
    assert main(["run", *extra, "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == f"runtime failure: {reason}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", [["run", "fig3-population"], ["sweep"]])
def test_jobs_option_rejected(command, tmp_path, capsys):
    # the grid runs as one vectorised batch; there is no worker count to set
    assert main(command + ["--jobs", "4", "--out", str(tmp_path / "out")]) == 1
    assert "--jobs" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("extra", BAD_NUMBERS)
def test_bad_numbers_fail_at_config_load(tmp_path, capsys, extra):
    run_in_process(invalid("run", "fig3-population", *extra), tmp_path, capsys)


@pytest.mark.parametrize("setting, message", NAMED_KEYS)
def test_a_string_or_bool_for_a_number_names_the_key(tmp_path, capsys, setting, message):
    run_in_process(invalid("run", "fig3-population", "--set", setting, message=message), tmp_path, capsys)


@pytest.mark.parametrize("key, digits", SIZES)
def test_an_integer_numpy_cannot_size_names_the_key(tmp_path, capsys, key, digits):
    message = f"{key} must be at most {np.iinfo(np.intp).max}, numpy's largest array size"
    case = invalid("run", "fig3-population", "--mode", "montecarlo", "--set", f"{key}=1" + "0" * digits,
                   message=message)
    assert case in CASES
    run_in_process(case, tmp_path, capsys)


def test_a_mean_field_history_beyond_the_limit_exits_2(tmp_path, capsys):
    run_in_process(TOO_MANY_STEPS, tmp_path, capsys)


@pytest.mark.parametrize("case", OTHER_CASES, ids=lambda case: " ".join(case.argv))
def test_cli_case(tmp_path, capsys, case):
    run_in_process(case, tmp_path, capsys)


@pytest.mark.skipif(not os.environ.get("SPECGAME_SCRIPT"),
                    reason="SPECGAME_SCRIPT names the installed specgame script to run the CLI cases through")
def test_cli_cases_through_the_installed_script(tmp_path):
    # without src on the path: the script runs the package it was installed with
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    for i, case in enumerate(CASES):
        runs = []
        for attempt in range(1 if case.code else 2):  # a command that succeeds writes the same files again
            work = tmp_path / f"{i}-{attempt}"
            work.mkdir()
            proc = subprocess.run([os.environ["SPECGAME_SCRIPT"], *argv(case, work)], env=env,
                                  capture_output=True, text=True)
            assert proc.returncode == case.code and re.fullmatch(case.stderr, proc.stderr), (case.argv, proc.stderr)
            check_outputs(case, work / "out")
            runs.append({p.name: p.read_bytes() for p in (work / "out").glob("*")} if not case.code else {})
        assert runs[0] == runs[-1], case.argv


@pytest.mark.parametrize("extra, passes", [
    ([], 2),  # the forecast pass, then perhaps an unlaunched one
    (["launch_policy=never"], 1),
    (["inactive_mu_behavior=mimic-su"], 1),
    (["freeze_shares=true"], 1),
    (["access_probs=[0,0.5,1]", "x0=[0.9,0.05,0.05]"], 2),
    (["mode=montecarlo", "region_side=600"], 1),
])
def test_the_history_estimate_counts_passes_steps_and_strategies(tmp_path, monkeypatch, extra, passes):
    import specgame.engine as engine

    m = 3 if "access_probs=[0,0.5,1]" in extra else 2
    mc = "mode=montecarlo" in extra
    config = apply_overrides(build_presets()["fig3-population"], ["steps=20", *extra])
    # a step more adds the dynamics passes, the 2m + 10 columns, the median
    # work arrays or the strategy counts, and a row of the CSV block
    step = 8 * (passes * (2 * m + 5) + 2 * m + 10 + (m if mc else 16)) + (2 * m + 10) * 72
    longer = apply_overrides(config, ["steps=21"])
    assert run_bytes(longer)["the step history"] - run_bytes(config)["the step history"] == step
    estimate = sum(run_bytes(config).values())
    for limit, code in ((estimate - 1, 2), (estimate, 0)):
        monkeypatch.setattr(engine, "MAX_RUN_BYTES", limit)
        out = tmp_path / f"out-{limit}"
        argv = [arg for kv in ["steps=20", *extra] for arg in ("--set", kv)]
        assert main(["run", "fig3-population", *argv, "--out", str(out)]) == code
        assert out.exists() == (code == 0)


def test_ten_million_mean_field_steps_exceed_the_limit():
    with pytest.raises(ConfigError, match="^steps=10000000: the run needs an estimated 3.6 GiB"):
        apply_overrides(build_presets()["fig3-population"], ["steps=10000000"])
    assert sum(run_bytes(apply_overrides(build_presets()["fig3-population"], ["steps=1000000"])).values()) < 2 << 30


FOUR_STRATEGIES = ["access_probs=[0, 0.3, 0.7, 1]", "x0=[0.97, 0.01, 0.01, 0.01]"]


@pytest.mark.parametrize("extra, steps", [
    ([], (500, 2000)),
    (FOUR_STRATEGIES, (500, 2000)),
    (["launch_policy=always"], (500, 2000)),
    # a topology with PTs, so that no SINR column is NaN, whose text is short
    (["mode=montecarlo", "region_side=400", "window=4", "seed=4"], (200, 600)),
    # past CSV_BLOCK_ROWS, where a mean-field run's own step history shows
    ([], (2000, 6000)),
    (FOUR_STRATEGIES, (2000, 6000)),
    (["launch_policy=always"], (2000, 6000)),
])
def test_the_history_estimate_bounds_the_memory_a_run_and_its_csv_take(tmp_path, extra, steps):
    configs = [apply_overrides(build_presets()["fig3-population"], [f"steps={n}", *extra]) for n in steps]
    write_run_outputs(run(configs[0]), str(tmp_path), None)  # untraced: first calls fill caches
    run_peaks, peaks = [], []
    for config in configs:
        gc.collect()
        tracemalloc.start()
        try:
            result = run(config)
            run_peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()  # a topology build's peak does not grow with the steps
            write_run_outputs(result, str(tmp_path), None)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # the bytes each further step takes, against the estimate's
    history = [run_bytes(config)["the step history"] for config in configs]

    def per_step(values):
        return (values[1] - values[0]) / (steps[1] - steps[0])

    assert per_step(peaks) <= per_step(history)
    if configs[0].mode == "meanfield":  # a Monte Carlo run's peak is its windows'
        assert per_step(run_peaks) <= per_step(history)


@pytest.mark.parametrize("command", NOISE_LIMITED)
def test_noise_limited_channel_fails_at_config_load(tmp_path, capsys, command):
    case = Case((*command, "--set", "channel.noise=1"), 2, r"invalid configuration: [^\n]*noise-limited[^\n]*\n", True)
    assert case in CASES
    run_in_process(case, tmp_path, capsys)


@pytest.mark.parametrize("extra", [
    ["--set", "channel.su_link_distance=250"],
    ["--set", "channel.min_distance=300"],
])
def test_interference_cutoff_binds_only_montecarlo(tmp_path, extra):
    # mean-field mode has no interference cutoff, so these load and run
    assert main(["run", "fig3-population", *extra, "--set", "steps=2", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "metrics.csv").exists()


@pytest.mark.parametrize("extra", FLOAT32_OUT_OF_RANGE)
def test_float32_range_binds_only_montecarlo(tmp_path, extra):
    # mean-field mode computes no float32 product, so these load and run
    assert main(["run", "fig3-population", *extra, "--set", "steps=2", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "metrics.csv").exists()


def test_unexpected_failure_is_one_line_exit_3(tmp_path, capsys, monkeypatch):
    import specgame.cli as cli

    def broken(config):
        raise TypeError("unsupported operand")

    monkeypatch.setattr(cli, "run", broken)
    assert main(["run", "fig3-population", "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err == "runtime failure: TypeError: unsupported operand\n"


def test_sweep_region_csv_reports_failed_cells(tmp_path):
    out = tmp_path / "sweep"
    assert main(["sweep", "--delta", "10", "1e308", "--nu", "1", "--kappa", "0", "--set", "steps=100",
                 "--out", str(out)]) == 0
    with open(out / "region.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["classification"], r["error"]) for r in rows][0] == ("fragile", "")
    assert rows[1]["classification"] == "error"
    assert rows[1]["error"].startswith("replicator step could not keep shares nonnegative")


def test_a_sweep_records_the_launch_it_applies(tmp_path):
    # a template that leaves launch_policy out (so "forecast") sweeps as one
    # that says "always", and its manifest says so
    outputs = []
    for name, template in (("default", {"steps": 400}), ("always", {"steps": 400, "launch_policy": "always"})):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(template))
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path / name)]) == 0
        outputs.append([(tmp_path / name / file).read_text() for file in ("region.csv", "run-manifest.json")])
    assert json.loads(outputs[0][1])["config"]["launch_policy"] == "always"
    assert outputs[0] == outputs[1]


def test_a_failed_replace_keeps_the_old_file_and_leaves_no_temporary(tmp_path, monkeypatch):
    import specgame.cli as cli

    def refuse(src, dst):
        raise OSError("replace refused")

    path = tmp_path / "metrics.csv"
    path.write_bytes(b"old\n")
    monkeypatch.setattr(cli.os, "replace", refuse)
    with pytest.raises(OSError, match="replace refused"):
        cli._atomic_write(str(path), ["new\n", "rows\n"])
    assert path.read_bytes() == b"old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["metrics.csv"]
