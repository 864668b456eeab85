"""Tests for the benchmark's own arithmetic (no timing, no subprocesses)."""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
from outputs import accuracy, digest, fail_rate  # noqa: E402
from spans import ROOT_SPAN, Recorder, svd_flops  # noqa: E402
from workloads import FS, WORKLOADS, estimate_bytes, mrdmd_levels  # noqa: E402

from oscidmd.mrdmd import plan  # noqa: E402


def _report(freq, growth, verdict, rel_rmse=0.01):
    return {
        "dominant_mode": None if freq is None else {"frequency_hz": freq, "growth_rate_per_s": growth},
        "stability": {"verdict": verdict},
        "reconstruction": {"relative_rmse": rel_rmse},
    }


TRUTH = {"frequency_hz": 8.6, "growth_rate_per_s": 0.0}


def test_accuracy_of_the_single_window_fallback():
    acc = accuracy(_report(8.286, -2.87, "no-sustained-oscillation", 0.0564), TRUTH)
    assert acc["freq_err_hz"] == pytest.approx(0.314)
    assert acc["growth_err_per_s"] == pytest.approx(2.87)
    assert acc["rel_rmse"] == 0.0564
    assert acc["verdict_ok"] == 0


@pytest.mark.parametrize(
    "freq, verdict, ok",
    [
        (8.613, "sustained-oscillation", 1),
        (8.79, "sustained-oscillation", 1),
        (8.81, "sustained-oscillation", 0),
        (8.613, "no-sustained-oscillation", 0),
    ],
)
def test_verdict_needs_a_sustained_mode_within_tolerance(freq, verdict, ok):
    assert accuracy(_report(freq, -0.04, verdict), TRUTH)["verdict_ok"] == ok


def test_accuracy_without_a_dominant_mode():
    acc = accuracy(_report(None, None, "no-oscillatory-modes"), TRUTH)
    assert acc["freq_err_hz"] is None and acc["verdict_ok"] == 0


def test_digest_sees_bytes_and_names(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        d.mkdir()
        (d / "report.json").write_text("{}\n")
        (d / "modes.csv").write_text("x\n1\n")
    assert digest(a) == digest(b)
    (b / "modes.csv").write_text("x\n2\n")
    assert digest(a) != digest(b)
    (b / "modes.csv").rename(b / "level_1.csv")
    (b / "level_1.csv").write_text("x\n1\n")
    assert digest(a) != digest(b)


def test_fail_rate_counts_runs_not_problems():
    runs = run.Runs(WORKLOADS["lfo_gap_dmd"], schema={})
    for found in ([], ["exit status 1"], [], ["missing artifacts: a", "bad rows"], []):
        runs.record(found)
    assert (runs.attempted, runs.failed) == (5, 2)
    assert fail_rate(runs.failed, runs.attempted) == pytest.approx(0.4)
    assert fail_rate(0, 3) == 0.0
    with pytest.raises(ValueError):
        fail_rate(0, 0)
    with pytest.raises(ValueError):
        fail_rate(4, 3)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_memory_estimate_uses_the_planned_levels(name):
    w = WORKLOADS[name]
    m, n = w.depth, w.columns
    if w.analysis == "mrdmd":
        assert w.levels == plan(n, 1.0 / FS, mu=w.mu, g=4).termination_level
        assert estimate_bytes(w) == m * n * 8 * (w.levels + 3)
    else:
        assert estimate_bytes(w) == m * n * 8 * 6


@pytest.mark.parametrize("n, mu", [(4000, 16), (19800, 50), (17, 16), (33, 16), (64, 16), (1000, 999)])
def test_level_count_matches_the_planner(n, mu):
    assert mrdmd_levels(n, mu) == plan(n, 1e-3, mu=mu).termination_level


def test_workload_geometry():
    dmd, mr, ac = (WORKLOADS[k] for k in ("lfo_gap_dmd", "lfo_gap_mrdmd", "ac_long_mrdmd"))
    assert (dmd.depth, dmd.columns, dmd.covered_samples) == (1000, 4001, 5000)
    assert (mr.columns, mr.levels, mr.covered_samples) == (4000, 8, 4999)
    assert (ac.length, ac.columns, ac.levels) == (20000, 19800, 9)


def test_svd_flops_is_symmetric_in_shape():
    assert svd_flops(1000, 4000) == svd_flops(4000, 1000) == 6 * 4000 * 1000**2 + 20 * 1000**3


def test_self_time_subtracts_child_spans():
    rec = Recorder("toy")
    rec.run = 0
    inner = rec._wrap("stacking.unembed", lambda: None)
    outer = rec._wrap(ROOT_SPAN, lambda: [inner(), inner()])
    outer()
    root, first, second = rec.spans[0], rec.spans[1], rec.spans[2]
    assert root.parent is None and first.parent == 0 and second.parent == 0
    metrics = rec.run_metrics(0)
    children = sum(s.end - s.start for s in (first, second))
    assert metrics["stacking.unembed_s"] == pytest.approx(children)
    assert metrics["cli.emit_s"] == pytest.approx(root.end - root.start - children)
    assert metrics["trace.spans"] == 3


def test_benchmark_file_lists_the_reported_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
