"""Outputs under two forced OpenBLAS kernels, and under numpy's baseline loops.

OpenBLAS built with DYNAMIC_ARCH picks its kernels by CPU at load time, and
`OPENBLAS_CORETYPE` forces one. Its kernels sum in different orders, so the
float32 near-field product differs between them in the last bits. Every
decision is rechecked from exact sums where the product could have put it on
the wrong side of its threshold, so the shares, payoffs, success columns and
phase events must come out identical; only the SINR dB columns may move, by
the reference tolerance. Without the recheck, the two kernels put an SINR on
either side of its threshold in the 800 m seed 5 run at window 70 when the
blocks are laid out (rows, columns), and in the seed 4 run at window 9 when
they are laid out (columns, rows).

numpy picks its own SIMD loops by CPU too, and `NPY_DISABLE_CPU_FEATURES`
turns them off. Its exp, expm1, log, log10 and power loops return other last
bits without AVX-512, which moves full-precision mean-field columns by a few
ulps; the CSV files, written to 12 significant digits, must not change, and
the Monte Carlo decisions must not either.

Each run comes back from its own process as its columns (every one, as
lists) and its events.
"""
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
KERNELS = ("Haswell", "Prescott")
SINR = ("pr_sinr_db_mean", "pr_sinr_db_median", "su_sinr_db_mean", "su_sinr_db_median")
SINR_DB = 1e-5  # absolute, dB: the tolerance of tests/test_reference.py

# one run in a fresh process; its columns and events printed as JSON, every
# float at full precision
SCRIPT = """
import json, sys
from specgame.engine import ScenarioConfig, run
result = run(ScenarioConfig.from_dict(json.loads(sys.argv[1])))
print(json.dumps({"columns": {name: column.tolist() for name, column in result.columns.items()},
                  "events": [repr(e) for e in result.events]}))
"""


def _dynamic_openblas() -> bool:
    """numpy's BLAS is OpenBLAS with DYNAMIC_ARCH, on a CPU that runs both kernels."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        from numpy._core._multiarray_umath import __cpu_features__ as features
    except (ImportError, KeyError, TypeError):
        return False
    return ("openblas" in blas.get("name", "").lower() and "DYNAMIC_ARCH" in blas.get("openblas configuration", "")
            and platform.machine().lower() in ("x86_64", "amd64") and bool(features.get("AVX2")))


needs_dynamic_openblas = pytest.mark.skipif(not _dynamic_openblas(),
                                            reason="needs numpy on OpenBLAS with DYNAMIC_ARCH on an AVX2 x86-64 CPU")


def _simd_targets() -> list:
    """The SIMD targets numpy found on this CPU beyond its baseline."""
    try:
        return list(np.show_config(mode="dicts")["SIMD Extensions"].get("found", []))
    except (KeyError, TypeError):
        return []


def _subprocess(script: str, *args: str, **env: str) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]), **env)
    done = subprocess.run([sys.executable, "-c", script, *args], env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def _run(config: dict, kernel: str) -> dict:
    return _subprocess(SCRIPT, json.dumps(config), OPENBLAS_CORETYPE=kernel)


def _assert_same_decisions(a: dict, b: dict) -> None:
    """Equal phase events and non-SINR columns; SINR columns within the reference tolerance."""
    assert a["events"] == b["events"]
    assert a["columns"].keys() == b["columns"].keys()
    for col, column in a["columns"].items():
        assert len(b["columns"][col]) == len(column), col
        for i, (want, got) in enumerate(zip(column, b["columns"][col])):
            if col in SINR and not math.isnan(want):
                assert math.isclose(got, want, rel_tol=0.0, abs_tol=SINR_DB), f"row {i} {col}"
            else:
                assert repr(got) == repr(want), f"row {i} {col}: {got} != {want}"


# no MU is sampled at this density, so the attackers are a field drawn per slot
FIELD = {"region_side": 600, "lambda_mu": 3e-6, "inducing_perception": 0.5, "launch_policy": "always"}


@needs_dynamic_openblas
@pytest.mark.parametrize("seed, steps, extra", [pytest.param(5, 75, {}, id="5-75"), pytest.param(4, 12, {}, id="4-12"),
                                                pytest.param(7, 12, FIELD, id="7-12-field")])
def test_montecarlo_decisions_do_not_depend_on_the_blas_kernel(seed, steps, extra):
    config = {"mode": "montecarlo", "region_side": 800, "steps": steps, "seed": seed, **extra}
    a, b = (_run(config, kernel) for kernel in KERNELS)
    assert len(a["columns"]["t_update"]) == steps
    _assert_same_decisions(a, b)


@needs_dynamic_openblas
def test_meanfield_with_partial_access_does_not_depend_on_the_blas_kernel():
    # access probabilities other than 0 and 1 weigh the shares in a sum of
    # several nonzero terms, whose order a BLAS dot would choose
    config = {"access_probs": [0.0, 0.3, 0.7, 1.0], "x0": [0.4, 0.3, 0.2, 0.1]}
    a, b = (_run(config, kernel) for kernel in KERNELS)
    assert json.dumps(a) == json.dumps(b)


# every file `specgame run` writes, into the directory argv[1], for the fig3,
# fig5 and fig6 presets and for fig5 played on three strategies, whose
# replicator rows step through the array kernel (CSV files and manifests);
# the CSV files of the 800 m seed 5 Monte Carlo run, and that run's columns
# and events at full precision; and the SIMD targets numpy dispatches to in
# this process
SIMD_SCRIPT = """
import json, sys
from pathlib import Path
import numpy as np
from specgame.cli import apply_overrides, build_presets, events_csv_text, main, metrics_csv_blocks
from specgame.engine import run
out = Path(sys.argv[1])
three = ["--set", "access_probs=[0.0,0.5,1.0]", "--set", "x0=[0.98,0.01,0.01]"]
for name, args in [("fig3", ["fig3-population"]), ("fig5", ["fig5-sinr-kappa8"]), ("fig6", ["fig6-region"]),
                   ("fig5-three-strategies", ["fig5-sinr-kappa8", *three])]:
    assert main(["run", *args, "--out", str(out / name)]) == 0
texts = {str(path.relative_to(out)): path.read_text() for path in sorted(out.glob("*/*"))}
result = run(apply_overrides(build_presets()["fig3-population"],
                             ["mode=montecarlo", "region_side=800", "steps=40", "seed=5"]))
texts["montecarlo/metrics.csv"] = "".join(metrics_csv_blocks(result))
texts["montecarlo/phase_events.csv"] = events_csv_text(result)
print(json.dumps({"texts": texts, "columns": {name: column.tolist() for name, column in result.columns.items()},
                  "events": [repr(e) for e in result.events],
                  "simd": np.show_config(mode="dicts")["SIMD Extensions"].get("found", [])}))
"""


@pytest.mark.skipif(not _simd_targets(), reason="numpy found no SIMD targets beyond its baseline")
def test_outputs_do_not_depend_on_numpy_simd_dispatch(tmp_path):
    targets = _simd_targets()
    default = _subprocess(SIMD_SCRIPT, str(tmp_path / "default"), NPY_DISABLE_CPU_FEATURES="",
                          NPY_ENABLE_CPU_FEATURES="")
    baseline = _subprocess(SIMD_SCRIPT, str(tmp_path / "baseline"), NPY_DISABLE_CPU_FEATURES=" ".join(targets),
                           NPY_ENABLE_CPU_FEATURES="")
    assert default["simd"] == targets and baseline["simd"] == []
    assert len(default["texts"]) == 13
    for name, text in default["texts"].items():
        assert baseline["texts"][name] == text, name
    assert len(default["columns"]["t_update"]) == 40
    _assert_same_decisions(default, baseline)
