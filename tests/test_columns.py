"""A run returns columns, one array per metrics column. The CLI writes its
files from them alone; `RunResult.records`, one row per step with an
attribute per column (`mu_phase` as the phase's name), is a view built on
first access for readers outside the package, which `benchmarks/run.py` and
`benchmarks/checks.py` are, together with the other names they bind. The
package's public names are pinned, so that adding or removing one is a
deliberate change."""
import types
from dataclasses import replace

import pytest

import specgame
import specgame.channel
import specgame.cli
import specgame.engine
from specgame.attack import PHASES
from specgame.cli import build_presets, main
from specgame.engine import RunResult, run

FIG3 = build_presets()["fig3-population"]
FIG3_MC = replace(FIG3, mode="montecarlo", region_side=600.0, steps=6, seed=3)


def test_the_records_view_holds_the_columns():
    result = run(FIG3_MC)
    records, columns = result.records, result.columns
    assert len(records) == FIG3_MC.steps
    assert all(list(vars(r)) == list(columns) for r in records)
    for name, column in columns.items():
        want = [PHASES[code].value for code in column.tolist()] if name == "mu_phase" else column.tolist()
        assert repr([getattr(r, name) for r in records]) == repr(want), name
    assert {r.mu_phase for r in records} <= {phase.value for phase in PHASES}
    assert sum(records[0].strategy_counts) == result.topology["n_su"]
    assert result.records is records  # built once


def test_the_names_the_benchmark_binds_exist():
    assert callable(specgame.cli.run)
    assert callable(specgame.engine.sample_world)
    assert callable(specgame.channel.success_prob)
    assert callable(specgame.channel.InterfererField)


def test_the_public_names_are_pinned():
    names = sorted(name for name, value in vars(specgame).items()
                   if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert names + ["__version__"] == [
        "AttackController", "AttackPhase", "ChannelParams", "ConfigError", "GameEnv", "MuDrive",
        "PayoffParams", "Region", "RunResult", "ScenarioConfig", "SimulationError", "World", "attach_receivers",
        "classify_operating_point", "decide_launch", "max_allowable_su_density", "path_gain", "replicator_step",
        "run", "run_dynamics", "run_meanfield", "run_montecarlo", "sample_ppp", "sample_world", "sweep_region",
        "__version__",
    ]


@pytest.mark.parametrize("argv", [
    ["run", "fig3-population"],
    ["run", "fig5-sinr-kappa8"],
    ["run", "fig3-population", "--mode", "montecarlo", "--set", "region_side=600", "--set", "steps=6", "--seed", "3"],
])
def test_the_cli_writes_its_files_without_building_a_record(tmp_path, monkeypatch, argv):
    assert main([*argv, "--out", str(tmp_path / "view")]) == 0

    def refuse(self):
        raise AssertionError("a record was built")

    monkeypatch.setattr(RunResult, "records", property(refuse))
    assert main([*argv, "--out", str(tmp_path / "columns")]) == 0
    names = sorted(p.name for p in (tmp_path / "view").iterdir())
    assert names == ["metrics.csv", "phase_events.csv", "run-manifest.json"]
    for name in names:
        assert (tmp_path / "columns" / name).read_bytes() == (tmp_path / "view" / name).read_bytes()
