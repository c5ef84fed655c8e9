import csv
import json
import os

import numpy as np
import pytest

from specgame.cli import (
    apply_overrides,
    build_presets,
    emit_plotdata,
    load_config,
    main,
    run_preset,
    write_config,
)
from specgame.engine import ConfigError, ScenarioConfig, _sample_topology
from specgame.geometry import pairwise_toroidal


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
    write_config(cfg, str(path))
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
    overrides = ["mode=montecarlo", "seed=7", "region_side=500", "steps=3", "window=5",
                 "lambda_mu=2e-5", "resample_topology=true"]
    assert run_preset("fig3-population", overrides, str(out)) == 0
    manifest = json.loads((out / "run-manifest.json").read_text())
    config = ScenarioConfig.from_dict(manifest["config"])
    world = _sample_topology(config, np.random.default_rng(7)).world
    senders = np.concatenate([world.sus.positions, world.mus.positions])
    within = pairwise_toroidal(world.sus.positions, senders, world.region) <= config.sensing_radius
    pairs = int(within.sum()) - len(world.sus)  # every SU is within range of itself
    assert manifest["topology"] == {"n_pt": len(world.pts), "n_su": len(world.sus), "n_mu": len(world.mus),
                                    "sensing_pairs": pairs}
    assert len(world.pts) > 0 and len(world.mus) > 0 and pairs > 0


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


@pytest.mark.parametrize("command", [["run", "fig3-population"], ["sweep"]])
def test_jobs_option_rejected(command, tmp_path, capsys):
    # the grid runs as one vectorised batch; there is no worker count to set
    assert main(command + ["--jobs", "4", "--out", str(tmp_path / "out")]) == 1
    assert "--jobs" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("extra", [
    ["--set", "steps=2.5"],
    ["--set", "window=true"],
    ["--set", "lambda_su=NaN"],
    ["--set", "payoffs.nu=NaN"],
    ["--set", "lambda_pt=Infinity"],
    ["--set", "sensing_radius=Infinity"],
    ["--set", "channel.noise=-Infinity"],
    ["--set", "x0=[NaN, 1.0]"],
    ["--mode", "montecarlo", "--set", "seed=-1"],
])
def test_bad_numbers_fail_at_config_load(tmp_path, capsys, extra):
    out = tmp_path / "out"
    assert main(["run", "fig3-population", *extra, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid configuration:") and err.count("\n") == 1
    assert not out.exists()


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
