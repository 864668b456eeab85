"""CLI surface: subcommands, artifacts, error lines, config and env handling."""

from __future__ import annotations

import json
import tracemalloc
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from click.testing import CliRunner

import oscidmd as od
from oscidmd.cli import RunConfig, _analyze_dmd_core, cli
from oscidmd.ingest import IngestConfig


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

    def test_mu_exceeding_columns_rejected(self, runner, tmp_path):
        result = runner.invoke(
            cli, ["analyze", "mrdmd", "--profile", "lfo_udc", "--mu", "5000",
                  "--out", str(tmp_path / "x")],
        )
        assert result.exit_code == 1
        err = json.loads(result.stderr.strip().splitlines()[-1])
        assert err["error"]["kind"] == "PlanError"
        assert "mu=5000" in err["error"]["message"]


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

    def test_invalid_plan_rejected(self, runner):
        result = runner.invoke(cli, ["analyze", "plan", "--n", "10", "--dt", "0.1", "--mu", "50"])
        assert result.exit_code == 1


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
