"""A run returns columns, one array per metrics column. The CLI writes its
files from them alone; `RunResult.records`, one row per step with an
attribute per column (`mu_phase` as the phase's name), is a view built on
first access for readers outside the package, which `benchmarks/run.py` and
`benchmarks/checks.py` are, together with the other names they bind. The
package root's public names are the README's Library-use block, which tier-1
runs, so that adding or removing one is a deliberate change to that block."""
import ast
import types
from dataclasses import replace
from pathlib import Path

import pytest

import specgame
import specgame.channel
import specgame.cli
import specgame.engine
from specgame.attack import PHASES
from specgame.cli import build_presets, main
from specgame.engine import RunResult, run

README = Path(__file__).resolve().parents[1] / "README.md"
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


def library_block() -> str:
    """The README's Library-use code block: the one list of the package root's names."""
    section = README.read_text().split("\n## Library use\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def root_imports(tree: ast.Module) -> list:
    [imported] = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.module == "specgame"]
    return [alias.name for alias in imported.names]


def test_the_public_names_are_pinned():
    names = sorted(name for name, value in vars(specgame).items()
                   if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert names == sorted(root_imports(ast.parse(library_block())))
    assert isinstance(specgame.__version__, str)


def test_the_readme_library_block_uses_each_root_name_and_runs(capsys):
    block = library_block()
    tree = ast.parse(block)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert set(root_imports(tree)) <= used
    exec(compile(tree, f"{README}: Library use", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("withdrew at step ")
    assert lines[1:3] == ["0.0 fragile", "8.0 robust"]
    assert lines[3] == "refused: steps must be at least 1" and len(lines) == 4


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
