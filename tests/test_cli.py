"""CLI surface: subcommands, artifacts, error lines, config and env handling."""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from click.testing import CliRunner

import oscidmd as od
# The CLI imports csvtext when it first writes a CSV. Imported here, its tables are
# built before any memory test starts tracing, so those tests measure the writers alone.
from oscidmd import csvtext
from oscidmd.cli import (
    RunConfig,
    _analyze_dmd_core,
    _analyze_mrdmd_core,
    _load_record,
    _plan_levels,
    _write_run,
    _write_series,
    cli,
    run_dmd,
    run_mrdmd,
)
from oracles import table_of
from oscidmd import modes
from oscidmd.ingest import IngestConfig
from oscidmd.modes import ModeReport
from oscidmd.mrdmd import plan
import oscidmd.mrdmd as mrdmd_module


@pytest.fixture(scope="module")
def runner():
    return CliRunner()


def read_csv_columns(path: Path) -> dict[str, list[str]]:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    cols = {h: [] for h in header}
    for line in lines[1:]:
        for h, cell in zip(header, line.split(",")):
            cols[h].append(cell)
    return cols


def load_schema():
    with resources.files("oscidmd.schemas").joinpath("report.schema.json").open() as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def mrdmd_lfo_run(runner, tmp_path_factory):
    """One full-size mrdmd CLI run on the clean LFO profile, shared below."""
    out = tmp_path_factory.mktemp("mrdmd_lfo")
    result = runner.invoke(
        cli, ["analyze", "mrdmd", "--profile", "lfo_udc", "--mu", "16", "--g", "4",
              "--out", str(out)],
    )
    assert result.exit_code == 0, result.output
    return out


class TestAnalyzeDmd:
    def test_peak_memory_below_three_hankel_sizes(self, lfo_gapped):
        rec, _ = lfo_gapped
        cfg = RunConfig(channel="u_dc", stack_depth=1000)
        m, n = 1000, rec.length - 1000 + 1
        tracemalloc.start()
        try:
            _analyze_dmd_core(cfg, rec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * m * n * 8

    def test_lfo_profile_dominant_pair(self, runner, tmp_path):
        out = tmp_path / "dmd"
        result = runner.invoke(
            cli, ["analyze", "dmd", "--profile", "lfo_udc", "--stack", "1000",
                  "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        report = json.loads((out / "report.json").read_text())
        dom = report["dominant_mode"]
        assert dom["frequency_hz"] == pytest.approx(8.6, abs=0.05)
        assert dom["damping_class"] == "critical"
        assert report["stability"]["verdict"] == "sustained-oscillation"
        jsonschema.validate(report, load_schema())
        cols = read_csv_columns(out / "eigenvalues.csv")
        assert {"lambda_re", "lambda_im", "omega_re", "omega_im", "frequency_hz",
                "growth_rate_per_s", "damping_class", "amplitude_mag",
                "integral_contribution"} <= set(cols)
        # 17-significant-digit cells round-trip exactly
        for cell in cols["frequency_hz"]:
            assert f"{float(cell):.16e}" == cell

    def test_missing_input_mentions_path(self, runner, tmp_path):
        result = runner.invoke(
            cli, ["analyze", "dmd", "--input", "/no/such/file.csv", "--dt", "1.0",
                  "--out", str(tmp_path / "x")],
        )
        assert result.exit_code == 1
        line = result.stderr.strip().splitlines()[-1]
        err = json.loads(line)
        assert "/no/such/file.csv" in err["error"]["message"]

    def test_rank_zero_rejected_before_computation(self, runner, tmp_path):
        result = runner.invoke(
            cli, ["analyze", "dmd", "--profile", "lfo_udc", "--rank", "0",
                  "--out", str(tmp_path / "x")],
        )
        assert result.exit_code == 2

    def test_input_and_profile_mutually_exclusive(self, runner, tmp_path):
        result = runner.invoke(
            cli, ["analyze", "dmd", "--profile", "lfo_udc", "--input", "a.csv",
                  "--dt", "1.0", "--out", str(tmp_path / "x")],
        )
        assert result.exit_code == 1
        assert "exactly one" in result.stderr

    def test_no_report_flag(self, runner, tmp_path):
        out = tmp_path / "noreport"
        result = runner.invoke(
            cli, ["analyze", "dmd", "--profile", "lfo_udc", "--stack", "100",
                  "--no-report", "--no-eigenvalues", "--out", str(out)],
        )
        assert result.exit_code == 0
        assert not (out / "report.json").exists()
        assert not (out / "eigenvalues.csv").exists()
        assert (out / "reconstruction.csv").exists()


class TestAnalyzeMrdmd:
    def test_plan_table_frequency_ladder(self, mrdmd_lfo_run):
        cols = read_csv_columns(mrdmd_lfo_run / "plan.csv")
        f_m = [float(v) for v in cols["f_m_hz"]]
        assert f_m == [5.0 * 2**l for l in range(8)]
        f_slow = [float(v) for v in cols["f_slow_max_hz"]]
        assert f_slow == [v / 4 for v in f_m]

    def test_dominant_mode_level4(self, mrdmd_lfo_run):
        report = json.loads((mrdmd_lfo_run / "report.json").read_text())
        dom = report["dominant_mode"]
        assert dom["level"] == 4
        assert dom["frequency_hz"] == pytest.approx(8.6, abs=0.05)
        assert dom["sustained"] is True

    def test_artifacts_present(self, mrdmd_lfo_run):
        names = {p.name for p in mrdmd_lfo_run.iterdir()}
        want = {"plan.csv", "modes.csv", "reconstruction.csv", "report.json"}
        want |= {f"level_{l}.csv" for l in range(1, 9)}
        assert want <= names

    def test_report_validates_against_schema(self, mrdmd_lfo_run):
        report = json.loads((mrdmd_lfo_run / "report.json").read_text())
        jsonschema.validate(report, load_schema())
        assert report["analysis"] == "mrdmd"
        assert report["plan"]["termination_level"] == 8

    def test_modes_csv_tags_level_and_bin(self, mrdmd_lfo_run):
        cols = read_csv_columns(mrdmd_lfo_run / "modes.csv")
        levels = {int(v) for v in cols["level"]}
        assert levels == set(range(1, 9))
        assert set(cols["slow"]) <= {"0", "1"}

    def test_pair_rows_carry_the_positive_imaginary_member(self, mrdmd_lfo_run):
        cols = read_csv_columns(mrdmd_lfo_run / "modes.csv")
        pairs = [(float(li), float(oi)) for li, oi, p in zip(cols["lambda_im"], cols["omega_im"], cols["pair"])
                 if p == "1"]
        assert len(pairs) > 100
        assert all(li > 0 and oi > 0 for li, oi in pairs)

    def test_ac_profile_level5_modes(self, runner, tmp_path):
        out = tmp_path / "ac"
        result = runner.invoke(
            cli, ["analyze", "mrdmd", "--profile", "ac_in", "--mu", "50", "--g", "4",
                  "--termination-level", "6", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        cols = read_csv_columns(out / "modes.csv")
        lvl5 = [
            (float(f), s == "1")
            for lv, f, s in zip(cols["level"], cols["frequency_hz"], cols["slow"])
            if lv == "5"
        ]
        for target in (41.4, 50.0, 58.6):
            assert any(slow and abs(f - target) <= 0.5 for f, slow in lvl5), target

    def test_csv_input_round_trips_through_pipeline(self, runner, tmp_path):
        data = tmp_path / "in.csv"
        gen = runner.invoke(
            cli, ["generate", "--profile", "lfo_udc", "--gap-start", "2000",
                  "--gap-length", "250", "-o", str(data)],
        )
        assert gen.exit_code == 0, gen.output
        out = tmp_path / "fromfile"
        result = runner.invoke(
            cli, ["analyze", "mrdmd", "--input", str(data), "--time-column", "t",
                  "--channel", "u_dc", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        report = json.loads((out / "report.json").read_text())
        assert report["source"]["kind"] == "file"
        dom = report["dominant_mode"]
        assert dom["level"] == 4
        assert dom["frequency_hz"] == pytest.approx(8.6, abs=0.2)

    @pytest.mark.parametrize("dc", [0.01, 1.0, 3.3, 170.0])
    def test_noise_free_constant_record_runs(self, runner, tmp_path, dc):
        """A constant 2 s record: every bin below level 1 has only rounding left and is a zero-signal bin.

        Fitted, such a residual can give a defective operator: at DC 1.0 and
        170 the run used to exit 1 with a singular eigenvector matrix.
        """
        data = tmp_path / "dc.csv"
        od.write_csv(od.generate([], dc=dc, fs=2500.0, duration=2.0), data)
        out = tmp_path / "out"
        result = runner.invoke(
            cli, ["analyze", "mrdmd", "--input", str(data), "--time-column", "t", "--mu", "16",
                  "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        report = json.loads((out / "report.json").read_text())
        assert report["stability"]["verdict"] != "sustained-oscillation"
        levels = {row.split(",")[0] for row in (out / "modes.csv").read_text().splitlines()[1:]}
        assert levels == {"1"}

    def test_leading_gap_makes_the_root_a_zero_signal_bin(self, runner, tmp_path, monkeypatch):
        """A zero-filled gap over the first 4700 samples leaves the root's first mu - 1 subsample columns zero.

        Its last column is not, so the root's fit raises ZeroSignalError; the
        walk keeps the root as a zero-signal bin and goes on below it.
        """
        raised = []
        fit_bin = mrdmd_module.dmd

        def counted(*args):
            try:
                return fit_bin(*args)
            except od.ZeroSignalError:
                raised.append(args)
                raise

        monkeypatch.setattr(mrdmd_module, "dmd", counted)
        cfg = RunConfig(profile="lfo_udc", gap_start=0, gap_length=4700)
        record, _ = _load_record(cfg)
        _, series, result, _, _ = _analyze_mrdmd_core(cfg, record)
        assert len(raised) == 1
        assert result.root.dmd is None and result.root.slow_set == ()
        assert np.all(np.isfinite(series))
        out = tmp_path / "out"
        run = runner.invoke(cli, ["analyze", "mrdmd", "--profile", "lfo_udc", "--gap-start", "0",
                                  "--gap-length", "4700", "--out", str(out)])
        assert run.exit_code == 0, run.output
        jsonschema.validate(json.loads((out / "report.json").read_text()), load_schema())

    def test_mu_exceeding_columns_rejected(self, runner, tmp_path):
        result = runner.invoke(
            cli, ["analyze", "mrdmd", "--profile", "lfo_udc", "--mu", "5000",
                  "--out", str(tmp_path / "x")],
        )
        assert result.exit_code == 1
        err = json.loads(result.stderr.strip().splitlines()[-1])
        assert err["error"]["kind"] == "PlanError"
        assert "mu=5000" in err["error"]["message"]


def fmt(x: float) -> str:
    """The CSV cell of a float: Python's own 17-significant-digit format, the oracle of every writer test."""
    return f"{x:.16e}"


def per_cell_csv(header: list[str], rows: int, t0: float, dt: float, *columns) -> str:
    """A series file formatted cell by cell with ``fmt``."""
    lines = [",".join(header) + "\n"]
    for k in range(rows):
        cells = [fmt(t0 + k * dt), *(fmt(float(col[k])) for col in columns)]
        lines.append(",".join(cells) + "\n")
    return "".join(lines)


class TestSeriesFiles:
    """Row blocks that share their time cells across files give the per-cell bytes."""

    def test_mrdmd_series_files_equal_per_cell_format(self, tmp_path):
        cfg = RunConfig(profile="lfo_udc", seed=2, stack_depth=200, gap_start=1000,
                        gap_length=250, mu=16, out_dir=tmp_path)
        assert run_mrdmd(cfg) == 0
        record, _ = _load_record(cfg)
        _, series, result, _, _ = _analyze_mrdmd_core(cfg, record)
        raw = record.channel(record.names[0])
        t0, dt = record.t0, record.dt
        assert_same_lines((tmp_path / "reconstruction.csv").read_text(), per_cell_csv(
            ["t", "measured", "reconstructed"], series.size, t0, dt, raw, series
        ))
        for l, level_series in enumerate(result.per_level_series, start=1):
            assert_same_lines((tmp_path / f"level_{l}.csv").read_text(), per_cell_csv(
                ["t", "reconstructed"], level_series.size, t0, dt, level_series
            ))

    def test_dmd_reconstruction_equals_per_cell_format(self, tmp_path):
        cfg = RunConfig(profile="lfo_udc", seed=2, stack_depth=200, out_dir=tmp_path)
        assert run_dmd(cfg) == 0
        record, _ = _load_record(cfg)
        _, series, _, _ = _analyze_dmd_core(cfg, record)
        raw = record.channel(record.names[0])
        cover = min(series.size, raw.size)
        assert_same_lines((tmp_path / "reconstruction.csv").read_text(), per_cell_csv(
            ["t", "measured", "reconstructed"], cover, record.t0, record.dt, raw, series
        ))

    def test_edge_values_equal_per_cell_format(self, tmp_path):
        values = np.array([-0.0, 0.0, np.inf, -np.inf, np.nan, 5e-324, -1.7976931348623157e308,
                           1e-300, 0.1, -2.5])
        record = tiny_record(values.size)
        _write_series(tmp_path, record, values.size, {"edge.csv": (["t", "v", "w"], (values, values[::-1]))})
        want = per_cell_csv(["t", "v", "w"], values.size, 0.0, 1e-3, values, values[::-1])
        assert (tmp_path / "edge.csv").read_text() == want

    def test_long_series_written_in_bounded_memory(self, tmp_path):
        rows = 204_817
        record = od.SignalRecord(
            names=("x",), data=np.zeros((1, rows)), dt=1e-4, t0=0.5,
            missing_mask=np.zeros((1, rows), dtype=bool),
        )
        values = np.random.default_rng(3).normal(size=rows)
        tracemalloc.start()
        try:
            _write_series(tmp_path, record, rows, {"series.csv": (["t", "v"], (values,))})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        text = (tmp_path / "series.csv").read_text()
        assert_same_lines(text, per_cell_csv(["t", "v"], rows, 0.5, 1e-4, values))
        # the file is about 10 MB; the writer holds one block of rows and the file buffer
        assert len(text) > 8 * peak


def per_cell_mode_table(reports, tagged: bool) -> str:
    """A mode table formatted cell by cell with ``fmt``."""
    header = ["lambda_re", "lambda_im", "omega_re", "omega_im", "frequency_hz", "growth_rate_per_s",
              "damping_class", "amplitude_mag", "integral_contribution", "dominant_rank", "pair"]
    lines = [",".join((["level", "bin", "slow"] if tagged else []) + header) + "\n"]
    for r in reports:
        tags = [str(r.level), str(r.bin_index), "1" if r.slow else "0"] if tagged else []
        cells = [fmt(r.eigenvalue.real), fmt(r.eigenvalue.imag), fmt(r.omega.real), fmt(r.omega.imag),
                 fmt(r.frequency_hz), fmt(r.growth_rate), r.damping_class or "", fmt(r.amplitude_mag),
                 fmt(r.integral_contribution), "" if r.dominant_rank is None else str(r.dominant_rank),
                 "1" if r.pair else "0"]
        lines.append(",".join(tags + cells) + "\n")
    return "".join(lines)


def assert_same_lines(got: str, want: str) -> None:
    """Equal texts, naming the first differing line (a full diff of a large file takes minutes)."""
    got_lines, want_lines = got.splitlines(keepends=True), want.splitlines(keepends=True)
    first = next((k for k, (a, b) in enumerate(zip(got_lines, want_lines)) if a != b), None)
    assert first is None, f"line {first}: {got_lines[first]!r} != {want_lines[first]!r}"
    assert len(got_lines) == len(want_lines)


def float_cells(out: Path) -> np.ndarray:
    """The value of every float cell in the CSV files of ``out``; integer and text cells are skipped."""
    values = []
    for path in sorted(out.glob("*.csv")):
        for line in path.read_text().splitlines()[1:]:
            for cell in line.split(","):
                try:
                    x = float(cell)
                except ValueError:
                    continue
                if not cell.isdigit():
                    values.append(x)
    return np.array(values)


@pytest.mark.parametrize("args", [
    ["analyze", "dmd", "--profile", "lfo_udc", "--gap-start", "2000", "--gap-length", "250"],
    ["analyze", "mrdmd", "--profile", "lfo_udc", "--gap-start", "2000", "--gap-length", "250"],
    ["analyze", "mrdmd", "--profile", "ac_in", "--stack", "200", "--mu", "50"],
], ids=["lfo-gap-dmd", "lfo-gap-mrdmd", "ac-mrdmd"])
def test_output_cells_take_the_fast_path(runner, tmp_path, args):
    """Ordinary outputs are formatted by numpy alone: no finite nonzero cell is left to ``%``."""
    result = runner.invoke(cli, [*args, "--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    values = np.abs(float_cells(tmp_path))
    values = values[np.isfinite(values) & (values != 0)]
    assert values.size > 10_000
    lo, hi = csvtext._RANGE
    assert ((values >= lo) & (values <= hi)).all()
    _, _, sure = csvtext._decimal(values)
    assert sure.all(), f"{np.count_nonzero(~sure)} cells left to %, such as {values[~sure][:3]!r}"


def tiny_record(length: int = 8) -> od.SignalRecord:
    return od.SignalRecord(names=("x",), data=np.zeros((1, length)), dt=1e-3, t0=0.0,
                           missing_mask=np.zeros((1, length), dtype=bool))


def write_mode_table(tmp_path: Path, reports, tagged: bool) -> Path:
    """Only the mode table of _write_run (``reports`` a ``ModeTable``), for a tiny record."""
    cfg = RunConfig(out_dir=tmp_path, emit_report=False)
    _write_run(cfg, tiny_record(), 2, od.DEFAULT_RULE, reports, np.zeros(8), {}, tagged=tagged)
    return tmp_path / ("modes.csv" if tagged else "eigenvalues.csv")


def test_cli_import_leaves_csvtext_unloaded():
    """``import oscidmd.cli`` does not build the CSV tables; the first CSV write does."""
    src = str(Path(od.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    code = "import sys, oscidmd.cli\nsys.exit('oscidmd.csvtext' in sys.modules)\n"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr.decode()


class TestModeTables:
    """Mode rows, formatted and written one small block at a time, give the per-cell bytes."""

    def test_mode_tables_equal_per_cell_format(self, tmp_path):
        cfg = RunConfig(profile="lfo_udc", seed=2, stack_depth=200, gap_start=1000,
                        gap_length=250, mu=16, out_dir=tmp_path / "mrdmd")
        assert run_mrdmd(cfg) == 0
        record, _ = _load_record(cfg)
        reports = _analyze_mrdmd_core(cfg, record)[0]
        assert len(reports) > 100
        want = per_cell_mode_table(reports, tagged=True)
        assert_same_lines((cfg.out_dir / "modes.csv").read_text(), want)
        cfg = dataclasses.replace(cfg, out_dir=tmp_path / "dmd")
        assert run_dmd(cfg) == 0
        reports = _analyze_dmd_core(cfg, record)[0]
        want = per_cell_mode_table(reports, tagged=False)
        assert_same_lines((cfg.out_dir / "eigenvalues.csv").read_text(), want)

    @pytest.mark.parametrize("tagged", [True, False])
    def test_edge_values_equal_per_cell_format(self, tmp_path, tagged):
        inf, nan = float("inf"), float("nan")
        reports = [
            ModeReport(0, 0, complex(-0.0, 0.0), complex(-inf, 0.0), 0.0, -inf, 0.0, 0.0, False),
            ModeReport(3, 7, complex(1e-300, -5e-324), complex(nan, inf), nan, nan, inf, nan, True,
                       slow=True, damping_class="growing", dominant_rank=12),
            ModeReport(9, 255, 1 + 0j, 0j, 0.0, 0.0, 1.7976931348623157e308, 2.5, False,
                       slow=False, damping_class="critical", dominant_rank=1),
        ]
        path = write_mode_table(tmp_path, table_of(reports), tagged)
        assert path.read_text() == per_cell_mode_table(reports, tagged)

    @pytest.mark.parametrize("tagged", [True, False])
    def test_wide_integer_and_blank_cells_equal_per_cell_format(self, tmp_path, tagged):
        # ranks past 10^5, levels past 10 and bins past 10^6 widen the integer cells;
        # a None class and rank leave blank cells, and a None slow flag writes 0
        rng = np.random.default_rng(11)
        reports = [
            ModeReport(10 + k % 7, 2**20 + 37 * k, complex(*rng.normal(size=2)), complex(*rng.normal(size=2)),
                       float(rng.random()), float(rng.normal()), float(rng.random()), float(rng.random()),
                       bool(k % 2), slow=None if k % 5 == 0 else bool(k % 3),
                       damping_class=None if k % 4 == 0 else "critical",
                       dominant_rank=None if k % 3 == 0 else 10**5 + 999_983 * k)
            for k in range(100)
        ]
        path = write_mode_table(tmp_path, table_of(reports), tagged)
        text = path.read_text()
        assert text == per_cell_mode_table(reports, tagged)
        assert ",,1\n" in text or ",,0\n" in text

    def test_mode_rows_written_in_bounded_memory(self, tmp_path):
        rng = np.random.default_rng(4)
        reports = [
            ModeReport(int(k % 9), int(k), complex(*rng.normal(size=2)), complex(*rng.normal(size=2)),
                       float(rng.random()), float(rng.normal()), float(rng.random()), float(rng.random()),
                       bool(k % 2), slow=bool(k % 3), damping_class="decaying", dominant_rank=int(k))
            for k in range(40_000)
        ]
        table = table_of(reports)
        tracemalloc.start()
        try:
            path = write_mode_table(tmp_path, table, tagged=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        text = path.read_text()
        assert_same_lines(text, per_cell_mode_table(reports, tagged=True))
        # the file is about 9 MB; the writer holds one block of rows and the file buffer
        assert len(text) > 100 * peak

    def test_eigenvalue_rows_written_in_bounded_memory(self, tmp_path):
        # the single-window table: rows without tags, wide exponents and blank ranks
        rng = np.random.default_rng(5)
        reports = [
            ModeReport(0, 0, complex(*rng.normal(size=2) * 1e150), complex(*rng.normal(size=2) * 1e-150),
                       float(rng.random()), float(rng.normal()), float(rng.random()), float(rng.random()),
                       bool(k % 2), damping_class="growing" if k % 2 else None,
                       dominant_rank=None if k % 2 else 10**6 + k)
            for k in range(40_000)
        ]
        table = table_of(reports)
        tracemalloc.start()
        try:
            path = write_mode_table(tmp_path, table, tagged=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        text = path.read_text()
        assert_same_lines(text, per_cell_mode_table(reports, tagged=False))
        assert len(text) > 100 * peak


def test_mrdmd_run_builds_only_the_rows_report_json_reads(tmp_path, monkeypatch):
    """The CLI keeps modes as columns from the bin fits to modes.csv: no ModeReport per mode."""
    built = []

    def counted(*args):
        built.append(args)
        return ModeReport(*args)

    monkeypatch.setattr(modes, "ModeReport", counted)
    cfg = RunConfig(profile="ac_in", stack_depth=200, mu=50, out_dir=tmp_path)
    assert run_mrdmd(cfg) == 0
    rows = (tmp_path / "modes.csv").read_text().count("\n") - 1
    report = json.loads((tmp_path / "report.json").read_text())
    assert rows == report["modes"]["reported"] > 1000
    # the dominant mode is the one row report.json reads
    assert len(built) == 1
    assert built[0][4] == report["dominant_mode"]["frequency_hz"]


class TestCompare:
    def test_gapped_lfo_mrdmd_wins(self, runner, tmp_path):
        out = tmp_path / "cmp"
        result = runner.invoke(
            cli, ["analyze", "compare", "--profile", "lfo_udc", "--gap-start", "2000",
                  "--gap-length", "250", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        payload = json.loads((out / "compare.json").read_text())
        assert payload["truth"]["frequency_hz"] == 8.6
        assert payload["mrdmd"]["growth_rate_error_per_s"] < payload["dmd"]["growth_rate_error_per_s"]
        assert payload["rmse_ratio_dmd_over_mrdmd"] >= 2.0

    def test_no_gap_errors_comparable(self, runner, tmp_path):
        out = tmp_path / "cmp0"
        result = runner.invoke(
            cli, ["analyze", "compare", "--profile", "lfo_udc", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        payload = json.loads((out / "compare.json").read_text())
        e1 = payload["dmd"]["growth_rate_error_per_s"]
        e2 = payload["mrdmd"]["growth_rate_error_per_s"]
        # near-zero errors make a pure ratio ill-conditioned; comparable means
        # within 2x or both inside a 0.1 1/s floor
        assert max(e1, e2) <= max(2.0 * min(e1, e2), 0.1)
        assert payload["dmd"]["frequency_error_hz"] <= 0.05
        assert payload["mrdmd"]["frequency_error_hz"] <= 0.05

    def test_gap_covering_window_flags_failure_exit_zero(self, runner, tmp_path):
        out = tmp_path / "cmpfull"
        result = runner.invoke(
            cli, ["analyze", "compare", "--profile", "lfo_udc", "--gap-start", "0",
                  "--gap-length", "5000", "--stack", "100", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        payload = json.loads((out / "compare.json").read_text())
        assert payload["dmd"]["sustained"] is False
        assert payload["mrdmd"]["sustained"] is False

    def test_file_input_rejected(self, runner, tmp_path):
        result = runner.invoke(
            cli, ["analyze", "compare", "--input", "x.csv", "--out", str(tmp_path / "x")],
        )
        assert result.exit_code == 1


class TestPlanCommand:
    def test_prints_and_writes(self, runner, tmp_path):
        out = tmp_path / "plan"
        result = runner.invoke(
            cli, ["analyze", "plan", "--n", "4000", "--dt", "4e-4", "--mu", "50",
                  "--g", "4", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        assert "levels=7" in result.output
        cols = read_csv_columns(out / "plan.csv")
        assert float(cols["f_m_hz"][0]) == 15.625

    def test_plan_csv_equals_per_cell_format(self, runner, tmp_path):
        # counts are plain integers, every exact fraction a 17-digit float cell
        result = runner.invoke(cli, ["analyze", "plan", "--n", "40000", "--dt", "3e-4", "--mu", "7",
                                     "--g", "3", "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        levels = _plan_levels(plan(40000, 3e-4, mu=7, g="3"))
        assert len(levels) >= 10
        want = [",".join(levels[0]) + "\n"]
        for row in levels:
            want.append(",".join(str(v) if isinstance(v, int) else fmt(v) for v in row.values()) + "\n")
        assert (tmp_path / "plan.csv").read_text() == "".join(want)

    def test_invalid_plan_rejected(self, runner):
        result = runner.invoke(cli, ["analyze", "plan", "--n", "10", "--dt", "0.1", "--mu", "50"])
        assert result.exit_code == 1

    @pytest.mark.parametrize("command", [
        ["analyze", "plan", "--n", "4000", "--dt", "4e-4"],
        ["analyze", "mrdmd", "--profile", "lfo_udc"],
    ])
    def test_g_beyond_the_float_range_is_one_json_error(self, runner, tmp_path, command):
        result = runner.invoke(cli, [*command, "--g", "1e400", "--out", str(tmp_path / "x")])
        assert result.exit_code == 1
        assert "Traceback" not in result.output
        (line,) = result.stderr.strip().splitlines()
        assert json.loads(line)["error"]["kind"] == "PlanError"
        assert not (tmp_path / "x").exists()

    def test_window_uses_the_exact_dt(self, runner):
        # dt = 7e-10 is no longer taken as the nearest ratio with a denominator of at most 10^9, 1e-9
        result = runner.invoke(cli, ["analyze", "plan", "--n", "4000", "--dt", "7e-10"])
        assert result.exit_code == 0, result.output
        assert "window=2.8e-06 s" in result.output


class TestGenerate:
    def test_output_is_ingest_compatible(self, runner, tmp_path):
        dest = tmp_path / "sig.csv"
        result = runner.invoke(
            cli, ["generate", "--profile", "lfo_udc", "--gap-start", "2000",
                  "--gap-length", "250", "-o", str(dest)],
        )
        assert result.exit_code == 0, result.output
        rec = od.load_csv(dest, IngestConfig(time_column="t"))
        assert rec.length == 5000
        assert rec.missing_mask.sum() == 250
        # bit-identical to generating in-process
        direct = od.inject_gap(od.generate_profile("lfo_udc", seed=0)[0], 2000, 250)
        assert np.array_equal(rec.data, direct.data)

    def test_unknown_profile(self, runner, tmp_path):
        result = runner.invoke(
            cli, ["generate", "--profile", "nope", "-o", str(tmp_path / "x.csv")],
        )
        assert result.exit_code == 1


class TestConfigAndEnv:
    def test_ini_config_supplies_defaults(self, runner, tmp_path):
        ini = tmp_path / "oscidmd.ini"
        ini.write_text("[mrdmd]\nmu = 8\nstack = 100\nout = {}\n".format(tmp_path / "viaconfig"))
        result = runner.invoke(
            cli, ["--config", str(ini), "analyze", "mrdmd", "--profile", "lfo_udc"],
        )
        assert result.exit_code == 0, result.output
        report = json.loads((tmp_path / "viaconfig" / "report.json").read_text())
        assert report["plan"]["mu"] == 8

    def test_flag_overrides_config(self, runner, tmp_path):
        ini = tmp_path / "oscidmd.ini"
        ini.write_text("[mrdmd]\nmu = 8\n")
        out = tmp_path / "flagwins"
        result = runner.invoke(
            cli, ["--config", str(ini), "analyze", "mrdmd", "--profile", "lfo_udc",
                  "--mu", "16", "--stack", "100", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        report = json.loads((out / "report.json").read_text())
        assert report["plan"]["mu"] == 16

    def test_missing_config_rejected(self, runner):
        result = runner.invoke(cli, ["--config", "/no/such.ini", "analyze", "plan",
                                     "--n", "10", "--dt", "0.1"])
        assert result.exit_code == 2

    def test_env_var_override(self, runner, tmp_path):
        out = tmp_path / "envrun"
        result = runner.invoke(
            cli,
            ["analyze", "mrdmd", "--profile", "lfo_udc", "--stack", "100",
             "--out", str(out)],
            env={"OSCIDMD_ANALYZE_MRDMD_MU": "8"},
            auto_envvar_prefix="OSCIDMD",
        )
        assert result.exit_code == 0, result.output
        report = json.loads((out / "report.json").read_text())
        assert report["plan"]["mu"] == 8

    def test_env_var_ends_in_the_parameter_name(self, runner, tmp_path):
        out = tmp_path / "envdepth"
        result = runner.invoke(
            cli, ["analyze", "mrdmd", "--profile", "lfo_udc", "--out", str(out)],
            env={"OSCIDMD_ANALYZE_MRDMD_STACK_DEPTH": "100"},
            auto_envvar_prefix="OSCIDMD",
        )
        assert result.exit_code == 0, result.output
        assert json.loads((out / "report.json").read_text())["stacking"]["depth"] == 100

    def test_readme_keys(self, runner, tmp_path):
        out = tmp_path / "readme"
        ini = tmp_path / "oscidmd.ini"
        ini.write_text(f"[mrdmd]\nmu = 8\ng = 3\nstack = 100\nout = {out}\n")
        result = runner.invoke(cli, ["--config", str(ini), "analyze", "mrdmd", "--profile", "lfo_udc"])
        assert result.exit_code == 0, result.output
        report = json.loads((out / "report.json").read_text())
        assert (report["plan"]["mu"], report["plan"]["g"], report["stacking"]["depth"]) == (8, "3", 100)

    @pytest.mark.parametrize("key", ["levels = false", "no-levels = true", "emit-levels = false"])
    def test_flag_named_key_skips_level_files(self, runner, tmp_path, key):
        out = tmp_path / "nolevels"
        ini = tmp_path / "oscidmd.ini"
        ini.write_text(f"[mrdmd]\n{key}\nstack = 100\nout = {out}\n")
        result = runner.invoke(cli, ["--config", str(ini), "analyze", "mrdmd", "--profile", "lfo_udc"])
        assert result.exit_code == 0, result.output
        assert (out / "modes.csv").exists()
        assert not list(out.glob("level_*.csv"))

    def test_no_header_key_reads_a_headerless_file(self, runner, tmp_path):
        data = tmp_path / "bare.csv"
        data.write_text("".join(f"{np.sin(0.2 * k):.17g}\n" for k in range(300)))
        out = tmp_path / "bare"
        ini = tmp_path / "oscidmd.ini"
        ini.write_text(f"[dmd]\nno-header = true\ndt = 0.01\nstack = 20\nout = {out}\n")
        result = runner.invoke(cli, ["--config", str(ini), "analyze", "dmd", "--input", str(data)])
        assert result.exit_code == 0, result.output
        source = json.loads((out / "report.json").read_text())["source"]
        assert (source["channel"], source["length"]) == ("ch0", 300)

    @pytest.mark.parametrize(
        "text, named",
        [("[mrdmd]\nbogus = 3\n", "'bogus'"), ("[nope]\nmu = 8\n", "[nope]"),
         ("[mrdmd]\nlevels = maybe\n", "'levels'")],
    )
    def test_unknown_key_or_section_exits_2(self, runner, tmp_path, text, named):
        ini = tmp_path / "oscidmd.ini"
        ini.write_text(text)
        result = runner.invoke(cli, ["--config", str(ini), "analyze", "plan", "--n", "10", "--dt", "0.1"])
        assert result.exit_code == 2
        assert named in result.stderr


class TestFlagsToConfig:
    @pytest.mark.parametrize("command", ["dmd", "mrdmd", "compare"])
    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--rank", "3", "--energy", "0.9"], "at most one of"),
            (["--energy", "1.5"], "energy fraction"),
            (["--sv-ratio", "0"], "singular-value ratio"),
        ],
    )
    def test_truncation_flag_error_is_one_json_line(self, runner, tmp_path, command, flags, message):
        result = runner.invoke(
            cli, ["analyze", command, "--profile", "lfo_udc", *flags, "--out", str(tmp_path / "x")],
        )
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        err = json.loads(result.stderr.strip().splitlines()[-1])
        assert err["error"]["kind"] == "ValueError"
        assert message in err["error"]["message"]
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-0.5"])
    @pytest.mark.parametrize("command", ["dmd", "mrdmd", "compare"])
    def test_non_finite_eps_crit_rejected_before_any_output(self, runner, tmp_path, command, value):
        out = tmp_path / "x"
        result = runner.invoke(
            cli, ["analyze", command, "--profile", "lfo_udc", "--stack", "200",
                  "--eps-crit", value, "--out", str(out)],
        )
        assert result.exit_code == 1
        lines = result.stderr.strip().splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"]["kind"] == "ValueError"
        assert "--eps-crit" in err["error"]["message"]
        assert not out.exists()

    @pytest.mark.parametrize("value", ["-1", "nan"])
    def test_negative_or_nan_noise_rejected(self, runner, tmp_path, value):
        dest = tmp_path / "sig.csv"
        result = runner.invoke(
            cli, ["generate", "--profile", "lfo_udc", "--noise-std", value, "-o", str(dest)],
        )
        assert result.exit_code == 1
        assert "noise_std" in json.loads(result.stderr.strip().splitlines()[-1])["error"]["message"]
        assert not dest.exists()
        out = tmp_path / "cmp"
        result = runner.invoke(
            cli, ["analyze", "compare", "--profile", "lfo_udc", "--noise-std", value, "--out", str(out)],
        )
        assert result.exit_code == 1
        assert "noise_std" in json.loads(result.stderr.strip().splitlines()[-1])["error"]["message"]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["dmd", "mrdmd"])
    def test_time_column_only_csv_is_one_json_error(self, runner, tmp_path, command):
        data = tmp_path / "t.csv"
        data.write_text("t\n" + "".join(f"{k * 0.01!r}\n" for k in range(50)))
        out = tmp_path / "x"
        result = runner.invoke(
            cli, ["analyze", command, "--input", str(data), "--time-column", "t", "--out", str(out)],
        )
        assert result.exit_code == 1
        lines = result.stderr.strip().splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"]["kind"] == "IngestError"
        assert "channel" in err["error"]["message"]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["dmd", "mrdmd"])
    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_dt_rejected_before_any_output(self, runner, tmp_path, command, value):
        data = tmp_path / "x.csv"
        data.write_text("x\n" + "".join(f"{np.sin(0.3 * k)!r}\n" for k in range(200)))
        out = tmp_path / "x"
        result = runner.invoke(
            cli, ["analyze", command, "--input", str(data), "--dt", value, "--stack", "20",
                  "--out", str(out)],
        )
        assert result.exit_code == 1
        lines = result.stderr.strip().splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"]["kind"] == "IngestError"
        assert "dt must be finite and positive" in err["error"]["message"]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["dmd", "mrdmd", "compare"])
    @pytest.mark.parametrize(
        "source, flags",
        [
            ("--profile", ["--dt", "4e-4"]),
            ("--profile", ["--time-column", "t"]),
            ("--profile", ["--no-header"]),
            ("--input", ["--noise-std", "0.1"]),
            ("--input", ["--seed", "0"]),
        ],
    )
    def test_flag_for_the_other_source_rejected_before_any_output(
        self, runner, tmp_path, command, source, flags
    ):
        data = tmp_path / "x.csv"
        data.write_text("x\n" + "".join(f"{np.sin(0.3 * k)!r}\n" for k in range(200)))
        given = ["--profile", "lfo_udc"] if source == "--profile" else ["--input", str(data), "--dt", "0.01"]
        out = tmp_path / "x"
        result = runner.invoke(
            cli, ["analyze", command, *given, *flags, "--stack", "20", "--out", str(out)],
        )
        assert result.exit_code == 1
        lines = result.stderr.strip().splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"]["kind"] == "ValueError"
        assert f"{flags[0]} applies to" in err["error"]["message"]
        assert not out.exists()

    def test_profile_seed_defaults_to_zero(self, runner, tmp_path):
        outs = [tmp_path / "default", tmp_path / "zero"]
        for out, flags in zip(outs, ([], ["--seed", "0"])):
            result = runner.invoke(
                cli, ["analyze", "mrdmd", "--profile", "lfo_udc", "--stack", "200", *flags, "--out", str(out)],
            )
            assert result.exit_code == 0, result.output
        assert json.loads((outs[0] / "report.json").read_text())["source"]["seed"] == 0
        names = sorted(p.name for p in outs[0].iterdir())
        assert names == sorted(p.name for p in outs[1].iterdir())
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    @pytest.mark.parametrize("command", ["dmd", "mrdmd", "compare", "generate"])
    @pytest.mark.parametrize("length", [[], ["--gap-length", "0"]])
    def test_gap_start_without_gap_length_rejected_before_any_output(self, runner, tmp_path, command, length):
        out = tmp_path / "x"
        gap = ["--profile", "lfo_udc", "--gap-start", "2000", *length]
        if command == "generate":
            args = ["generate", *gap, "-o", str(out / "g.csv")]
        else:
            args = ["analyze", command, *gap, "--stack", "20", "--out", str(out)]
        result = runner.invoke(cli, args)
        assert result.exit_code == 1
        lines = result.stderr.strip().splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"]["kind"] == "ValueError"
        assert err["error"]["message"] == "--gap-start needs a positive --gap-length"
        assert not out.exists()

    def test_byte_order_mark_input_writes_the_plain_files_outputs(self, runner, tmp_path):
        plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_text("t,x\n" + "".join(f"{0.01 * k!r},{float(np.sin(0.3 * k))!r}\n" for k in range(200)))
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        outs = []
        for data in (plain, bom):
            out = tmp_path / data.stem
            result = runner.invoke(
                cli, ["analyze", "dmd", "--input", str(data), "--time-column", "t", "--stack", "20",
                      "--out", str(out)],
            )
            assert result.exit_code == 0, result.output
            outs.append(out)
        names = sorted(p.name for p in outs[0].iterdir())
        assert names == sorted(p.name for p in outs[1].iterdir())
        for name in names:
            if name != "report.json":
                assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        # the reports differ only in the input path they name
        reports = [json.loads((out / "report.json").read_text()) for out in outs]
        assert [r["source"].pop("name") for r in reports] == [str(plain), str(bom)]
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("command", ["dmd", "mrdmd"])
    def test_hold_fill_holds_an_injected_gap(self, runner, tmp_path, command):
        out = tmp_path / "hold"
        result = runner.invoke(
            cli, ["analyze", command, "--profile", "lfo_udc", "--stack", "200", "--gap-start", "2000",
                  "--gap-length", "250", "--fill", "hold", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        measured = read_csv_columns(out / "reconstruction.csv")["measured"]
        assert float(measured[1999]) != 0.0
        assert set(measured[2000:2250]) == {measured[1999]}
        assert measured[2250] != measured[1999]

    @pytest.mark.parametrize("flag", ["--no-report", "--report", "--no-eigenvalues", "--eigenvalues"])
    def test_compare_takes_no_emit_flags(self, runner, tmp_path, flag):
        result = runner.invoke(
            cli, ["analyze", "compare", "--profile", "lfo_udc", flag, "--out", str(tmp_path / "x")],
        )
        assert result.exit_code == 2
        assert "No such option" in result.stderr

    @pytest.mark.parametrize("command", ["dmd", "mrdmd", "compare"])
    def test_every_flag_names_a_config_field(self, command):
        params = {p.name for p in cli.commands["analyze"].commands[command].params}
        fields = {f.name for f in dataclasses.fields(RunConfig)}
        assert params - {"rank", "energy", "sv_ratio"} <= fields
