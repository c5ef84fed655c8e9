#!/usr/bin/env python3
"""Write the benchmark's reference outputs from the code in this checkout.

    python3 benchmarks/calibrate.py

Run it on the commit the references should pin (they were written from the
seed commit, whose SHA is recorded in reference/mc_su_success.json), never to
make a failing change pass. It writes:

* reference/<preset>/metrics.csv and phase_events.csv for fig3-population
  and fig5-sinr-kappa8 (fig4-sinr-kappa0 runs the fig3 configuration and is
  checked against fig3's files; this script asserts they agree);
* reference/fig6-region/region.csv, the 72 sweep classifications;
* reference/mc_su_success.json: per Monte Carlo workload, the deviation of
  the windowed SU success from the closed form over CALIBRATION_SEEDS seeds,
  and the tolerance the benchmark allows: |mean| + TOLERANCE_SIGMAS standard
  deviations. Twenty runs of a workload check over a thousand seeds, so the
  tolerance must sit far out in the tail; the largest deviation of a few
  dozen seeds does not (1.5 x the largest of 30 seeds failed 3 of ~600).
  The calibrated mean and standard deviation also set the bound on a run's
  mean deviation (``checks.check_su_success_mean``).
"""
from __future__ import annotations

import json
import os
import shutil
import statistics
import sys
import tempfile

import checks
import run as bench

CALIBRATION_SEEDS = 100
TOLERANCE_SIGMAS = 6


def main() -> int:
    bench.pin_blas_threads()
    sg = bench.load_specgame()
    os.makedirs(bench.WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix="calibrate-", dir=bench.WORK)
    try:
        for _, argv in bench.calls("mf-presets", work, 0) + bench.calls("mf-sweep", work, 0):
            if sg.cli.main(argv) != 0:
                raise SystemExit(f"reference run failed: {argv}")
        with open(os.path.join(work, "fig3-population", "metrics.csv"), "rb") as a, \
                open(os.path.join(work, "fig4-sinr-kappa0", "metrics.csv"), "rb") as b:
            assert a.read() == b.read(), "fig4 no longer runs the fig3 configuration"
        for preset, names in (("fig3-population", ("metrics.csv", "phase_events.csv")),
                              ("fig5-sinr-kappa8", ("metrics.csv", "phase_events.csv")),
                              ("fig6-region", ("region.csv",))):
            os.makedirs(checks.reference_path(preset), exist_ok=True)
            for name in names:
                shutil.copyfile(os.path.join(work, preset, name), checks.reference_path(preset, name))

        tolerances = {"calibrated_at": bench.git_sha(), "seeds": list(range(CALIBRATION_SEEDS)),
                      "tolerance_sigmas": TOLERANCE_SIGMAS}
        capture = bench.Capture()
        capture.install()
        try:
            for workload in ("mc-topology", "mc-windows"):
                deviations = []
                for seed in range(CALIBRATION_SEEDS):
                    capture.clear()
                    (_, argv), = bench.calls(workload, work, seed)
                    if sg.cli.main(argv) != 0:
                        raise SystemExit(f"calibration run failed: {argv}")
                    deviations.append(checks.su_success_deviation(
                        capture.results[0], sg.channel.success_prob, sg.channel.InterfererField))
                mean, sd = statistics.mean(deviations), statistics.stdev(deviations)
                tolerances[workload] = {
                    "tolerance": float(f"{abs(mean) + TOLERANCE_SIGMAS * sd:.2g}"),
                    "max_abs_deviation": max(abs(d) for d in deviations),
                    "mean_deviation": mean,
                    "stdev_deviation": sd,
                    "deviations": deviations,
                }
                print(workload, {k: v for k, v in tolerances[workload].items() if k != "deviations"})
        finally:
            capture.uninstall()
        with open(checks.reference_path("mc_su_success.json"), "w", encoding="utf-8") as fh:
            json.dump(tolerances, fh, indent=1, sort_keys=True)
            fh.write("\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(bench.WORK)
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
