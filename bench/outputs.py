"""Output checks and the benchmark's own arithmetic.

Every run must pass ``check_outputs``; a run that does not is counted in
``failed``. Accuracy compares the ``report.json`` dominant mode with the
planted dominant mode of the workload.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

# a verdict counts as right when it is a sustained oscillation this close
# to the planted frequency
VERDICT_TOL_HZ = 0.2


def check_outputs(out_dir: Path, workload, schema: dict) -> list[str]:
    """Problems with one run's output directory; empty when it passes."""
    import jsonschema

    problems = []
    present = {p.name for p in out_dir.iterdir()} if out_dir.is_dir() else set()
    missing = sorted(set(workload.expected_files()) - present)
    if missing:
        problems.append(f"missing artifacts: {', '.join(missing)}")
    if "report.json" in present:
        report = json.loads((out_dir / "report.json").read_text())
        try:
            jsonschema.validate(report, schema)
        except jsonschema.ValidationError as exc:
            problems.append(f"report.json fails the schema: {exc.message}")
    if "reconstruction.csv" in present:
        with open(out_dir / "reconstruction.csv") as fh:
            rows = sum(1 for _ in fh) - 1
        if rows != workload.covered_samples:
            problems.append(
                f"reconstruction.csv has {rows} rows, expected {workload.covered_samples}"
            )
    return problems


def digest(out_dir: Path) -> str:
    """SHA-256 over every file name and its bytes, in name order."""
    h = hashlib.sha256()
    for p in sorted(out_dir.iterdir()):
        h.update(p.name.encode() + b"\0")
        h.update(p.read_bytes())
    return h.hexdigest()


def accuracy(report: dict, truth: dict) -> dict:
    """Dominant-mode errors against the planted dominant mode."""
    dom = report.get("dominant_mode")
    if dom is None or dom.get("frequency_hz") is None:
        return {"freq_err_hz": None, "growth_err_per_s": None,
                "rel_rmse": report["reconstruction"]["relative_rmse"], "verdict_ok": 0}
    freq_err = abs(dom["frequency_hz"] - truth["frequency_hz"])
    growth_err = abs(dom["growth_rate_per_s"] - truth["growth_rate_per_s"])
    sustained = report["stability"]["verdict"] == "sustained-oscillation"
    return {
        "freq_err_hz": freq_err,
        "growth_err_per_s": growth_err,
        "rel_rmse": report["reconstruction"]["relative_rmse"],
        "verdict_ok": int(sustained and freq_err <= VERDICT_TOL_HZ),
    }


def fail_rate(failed: int, attempted: int) -> float:
    if attempted < 1:
        raise ValueError("fail rate needs at least one attempted run")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside 0..attempted={attempted}")
    return failed / attempted
