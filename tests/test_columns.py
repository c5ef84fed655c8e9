"""A run returns columns, one array per metrics column. The CLI writes its
files from them alone; `RunResult.records`, one MetricsRecord per step, is a
view built on first access for readers outside the package, which
`benchmarks/run.py` and `benchmarks/checks.py` are, together with the other
names they bind."""
from dataclasses import replace

import pytest

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
    assert [r.active_su_density for r in records] == columns["active_su_density"].tolist()
    assert [r.mu_phase for r in records] == [PHASES[code].value for code in columns["mu_phase"].tolist()]
    assert [r.su_success_raw for r in records] == columns["su_success_raw"].tolist()
    assert [r.strategy_counts for r in records] == [tuple(row) for row in columns["strategy_counts"].tolist()]
    assert sum(records[0].strategy_counts) == result.topology["n_su"]
    assert result.records is records  # built once


def test_the_names_the_benchmark_binds_exist():
    assert callable(specgame.cli.run)
    assert callable(specgame.engine.sample_world)
    assert callable(specgame.channel.success_prob)
    assert callable(specgame.channel.InterfererField)


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
