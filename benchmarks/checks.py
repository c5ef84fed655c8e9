"""Output checks for the benchmark workloads.

Each check returns a list of error strings; an empty list is a pass. The
references under ``reference/`` were written from the seed commit by
``calibrate.py``; the tolerances are stated in README.md.
"""
from __future__ import annotations

import csv
import json
import math
import os
from typing import Dict, List, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference")

SHARE_REL, SHARE_ABS = 1e-9, 1e-12  # shares, payoffs, densities, triggers
SINR_DB = 1e-5  # absolute, dB: admits a closed-form median (2.4e-7 relative)
SIMPLEX_TOL = 1e-9
RUN_MEAN_SIGMAS = 5  # run-mean SU success check, in standard errors
EXACT_COLUMNS = ("t_update", "t_slot", "mu_phase")
SINR_COLUMNS = ("pr_sinr_db_mean", "pr_sinr_db_median", "su_sinr_db_mean", "su_sinr_db_median")
LEGAL_TRANSITIONS = {("initial", "inducing"), ("initial", "aborted"), ("inducing", "inactive")}

Rows = List[Dict[str, str]]


def read_csv(path: str) -> Tuple[List[str], Rows]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        return [], []
    header = rows[0]
    return header, [dict(zip(header, r)) for r in rows[1:]]


def reference_path(*parts: str) -> str:
    return os.path.join(REFERENCE, *parts)


def _close(got: str, ref: str, rel: float, abs_tol: float) -> bool:
    try:
        a, b = float(got), float(ref)
    except ValueError:
        return False
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return math.isclose(a, b, rel_tol=rel, abs_tol=abs_tol)


def compare_metrics(got_path: str, ref_path: str) -> List[str]:
    """A mean-field metrics.csv against its reference, column by column."""
    ref_header, ref_rows = read_csv(ref_path)
    header, rows = read_csv(got_path)
    missing = [c for c in ref_header if c not in header]
    if missing:
        return [f"metrics.csv lacks columns {missing}"]
    if len(rows) != len(ref_rows):
        return [f"metrics.csv has {len(rows)} rows, reference {len(ref_rows)}"]
    errors = []
    for i, (row, ref) in enumerate(zip(rows, ref_rows)):
        for col in ref_header:
            if col in EXACT_COLUMNS:
                ok = row[col] == ref[col]
            elif col in SINR_COLUMNS:
                ok = _close(row[col], ref[col], 0.0, SINR_DB)
            else:
                ok = _close(row[col], ref[col], SHARE_REL, SHARE_ABS)
            if not ok:
                errors.append(f"metrics.csv row {i} {col}: {row[col]} != reference {ref[col]}")
    return errors[:5]


def compare_events(got_path: str, ref_path: str) -> List[str]:
    """Phase events identical in slot and phases; triggers to the share tolerance."""
    _, ref_rows = read_csv(ref_path)
    _, rows = read_csv(got_path)
    key = ("slot", "old_phase", "new_phase")
    if [tuple(r[k] for k in key) for r in rows] != [tuple(r[k] for k in key) for r in ref_rows]:
        return [f"phase events {[tuple(r.values()) for r in rows]} != reference"]
    return [f"phase event trigger {r['trigger']} != reference {f['trigger']}"
            for r, f in zip(rows, ref_rows) if not _close(r["trigger"], f["trigger"], SHARE_REL, SHARE_ABS)]


def check_phase_sequence(events: Rows, metrics: Rows) -> List[str]:
    """Transitions follow the phase machine, and each metrics row reports the
    phase in force after the events up to its update."""
    errors = []
    phase, last_slot = "initial", -1
    changes = {}
    for ev in events:
        slot = int(ev["slot"])
        if ev["old_phase"] != phase or (ev["old_phase"], ev["new_phase"]) not in LEGAL_TRANSITIONS:
            errors.append(f"illegal transition {ev['old_phase']}->{ev['new_phase']} from {phase} at {slot}")
        if slot <= last_slot:
            errors.append(f"phase event slots not increasing at {slot}")
        phase, last_slot = ev["new_phase"], slot
        changes[slot] = phase
    phase = "initial"
    for row in metrics:
        phase = changes.get(int(row["t_update"]), phase)
        if row["mu_phase"] != phase:
            errors.append(f"row {row['t_update']} reports {row['mu_phase']}, phase machine says {phase}")
            break
    return errors


def check_simplex(metrics: Rows) -> List[str]:
    for row in metrics:
        shares = [float(v) for k, v in row.items() if k.startswith("share_s")]
        if not shares or min(shares) < 0 or abs(sum(shares) - 1.0) > SIMPLEX_TOL:
            return [f"shares {shares} off the simplex at update {row['t_update']}"]
    return []


def compare_region(got_path: str, ref_path: str) -> List[str]:
    """Every sweep cell classified as in the reference; no cell labelled error."""
    key = ("delta", "nu", "kappa", "classification")
    _, ref_rows = read_csv(ref_path)
    _, rows = read_csv(got_path)
    got = [tuple(r.get(k) for k in key) for r in rows]
    ref = [tuple(r[k] for k in key) for r in ref_rows]
    if got == ref:
        return []
    diff = [f"{g} != {r}" for g, r in zip(got, ref) if g != r]
    return [f"region.csv has {len(got)} cells, reference {len(ref)}; differing: {diff[:3]}"]


def load_tolerance(workload: str) -> Dict:
    with open(reference_path("mc_su_success.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)[workload]


def check_su_success_mean(deviations: Sequence[float], calibration: Dict) -> List[str]:
    """The mean SU-success deviation of a run's iterations against the
    calibrated mean. The iterations take independent seeds, so the two means
    differ by sd * sqrt(1/n + 1/n_calibration) on the calibrated code; more
    than RUN_MEAN_SIGMAS of that is a bias, not noise."""
    n, n_cal = len(deviations), len(calibration["deviations"])
    got, mean = sum(deviations) / n, calibration["mean_deviation"]
    tol = RUN_MEAN_SIGMAS * calibration["stdev_deviation"] * math.sqrt(1 / n + 1 / n_cal)
    if abs(got - mean) <= tol:
        return []
    return [f"mean SU success deviation {got:.5f} over {n} iterations is off the calibrated {mean:.5f} "
            f"by more than {tol:.5f}"]


def su_success_deviation(result, success_prob, field_cls) -> float:
    """Mean over windows of the Monte Carlo per-slot SU success rate minus the
    closed form at the window's realised active SU density, the attacker field
    the controller drove while inducing, and the primary field."""
    cfg = result.config
    ch = cfg.channel
    dev = []
    for rec in result.records:
        fields = []
        if rec.active_su_density > 0:
            fields.append(field_cls(rec.active_su_density, ch.su_power))
        if rec.mu_phase == "inducing" and cfg.lambda_mu * cfg.mu_access_prob > 0:
            fields.append(field_cls(cfg.lambda_mu * cfg.mu_access_prob, ch.mu_power))
        if cfg.include_pt_interference_at_su and cfg.lambda_pt > 0:
            fields.append(field_cls(cfg.lambda_pt, ch.pt_power))
        closed = success_prob(ch.su_link_distance, ch.su_power, ch.su_sinr_threshold, fields, ch)
        dev.append(rec.su_success_raw - closed)
    return sum(dev) / len(dev)


def check_strategy_counts(records: Sequence, n_su: int) -> List[str]:
    totals = {sum(getattr(r, "strategy_counts", ())) for r in records}
    if totals != {n_su}:
        return [f"strategy counts sum to {sorted(totals)}, realised n_SU {n_su}"]
    return []
