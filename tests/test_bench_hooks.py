"""The traced benchmark run wraps library functions by module attribute name."""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import oscidmd as od
from oscidmd import cli

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


@pytest.fixture
def spans(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look themselves up here
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves(spans):
    for module_name, attr, _ in spans.TARGETS:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr} is missing"


@pytest.fixture
def traced_mrdmd(spans, tmp_path):
    """A traced ``analyze mrdmd`` run of an lfo_udc CSV at stack 100: (recorder, out dir)."""
    data = tmp_path / "lfo.csv"
    od.write_csv(od.generate_profile("lfo_udc", seed=1)[0], data)
    out = tmp_path / "out"
    cfg = cli.RunConfig(input_path=data, time_column="t", stack_depth=100, out_dir=out)
    recorder = spans.Recorder("lfo_udc")
    assert recorder.traced_run(cli.run_mrdmd, cfg) == 0
    return recorder, out


def test_traced_mrdmd_run_counts_fits_and_mode_rows(spans, traced_mrdmd):
    recorder, out = traced_mrdmd
    counts = recorder.counts
    assert counts["mrdmd.bins"] == 2 ** counts["mrdmd.levels"] - 1
    fitted = counts["mrdmd.bins"] - counts["mrdmd.zero_signal_bins"]
    # decompose fits each bin once; the counters read total_reconstruction,
    # whose rebuild refits each bin once more, outside the decompose span
    decompose = {i for i, s in enumerate(recorder.spans) if s.name == "mrdmd.decompose"}
    assert sum(s.parent in decompose for s in recorder.spans if s.name == "dmd.dmd") == fitted
    assert counts["dmd.calls"] == 2 * fitted
    rows = (out / "modes.csv").read_text().splitlines()[1:]
    assert counts["modes.reported"] == len(rows) > 0
    # every wrapped name is restored once the run ends
    assert all(getattr(importlib.import_module(m), a).__name__ == a for m, a, _ in spans.TARGETS)


def test_every_fit_times_its_amplitude_solve_once(traced_mrdmd):
    """dmd() reaches amplitudes through the module global, so dmd.amplitudes_s is never 0."""
    recorder, _ = traced_mrdmd
    fits = [i for i, s in enumerate(recorder.spans) if s.name == "dmd.dmd"]
    parents = sorted(s.parent for s in recorder.spans if s.name == "dmd.amplitudes")
    assert fits and parents == fits
