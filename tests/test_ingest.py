"""CSV ingestion, missing-data handling and gap injection."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import oscidmd as od
from oscidmd.ingest import FILL_HOLD, FILL_ZERO, IngestError, _parse_cell


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n")


def simple_config(**kw):
    kw.setdefault("dt", 1.0)
    return kw


class TestLoadCsv:
    def test_5000_rows_at_2500_hz(self, tmp_path, lfo_clean):
        rec, _ = lfo_clean
        path = tmp_path / "udc.csv"
        od.write_csv(rec, path)
        loaded = od.load_csv(path, time_column="t")
        assert loaded.length == 5000
        assert loaded.dt == pytest.approx(4e-4, rel=1e-9)
        assert loaded.names == ("u_dc",)

    def test_5000_row_single_column_with_dt(self, tmp_path, lfo_clean):
        rec, _ = lfo_clean
        path = tmp_path / "single.csv"
        write_lines(path, ["u_dc", *(repr(float(v)) for v in rec.data[0])])
        loaded = od.load_csv(path, dt=4e-4)
        assert loaded.length == 5000
        assert loaded.dt == 4e-4
        assert np.array_equal(loaded.data, rec.data)

    @pytest.mark.parametrize("config", [{"time_column": "t"}, {"dt": 4e-4}])
    def test_utf8_byte_order_mark_ignored(self, tmp_path, lfo_clean, config):
        rec, _ = lfo_clean
        plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
        od.write_csv(rec, plain)
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        loaded = od.load_csv(bom, **config)
        assert loaded == od.load_csv(plain, **config)
        assert loaded.names[-1] == "u_dc"

    def test_two_row_minimal(self, tmp_path):
        path = tmp_path / "tiny.csv"
        write_lines(path, ["x", "1.0", "1.0"])
        rec = od.load_csv(path, **simple_config())
        assert rec.length == 2
        assert np.array_equal(rec.data, [[1.0, 1.0]])

    def test_fifty_consecutive_missing_zero_filled(self, tmp_path):
        path = tmp_path / "gap.csv"
        rows = ["x"] + ["2.5"] * 20 + [""] * 50 + ["2.5"] * 30
        write_lines(path, rows)
        rec = od.load_csv(path, **simple_config())
        assert np.all(rec.data[0, 20:70] == 0.0)
        assert np.all(rec.missing_mask[0, 20:70])
        assert rec.missing_mask.sum() == 50
        # oracle: write back and re-read, markers and fills must survive
        back = tmp_path / "back.csv"
        od.write_csv(rec, back)
        again = od.load_csv(back, dt=rec.dt, time_column="t")
        assert again == rec

    def test_nan_token_case_insensitive(self, tmp_path):
        path = tmp_path / "nan.csv"
        write_lines(path, ["x", "1.0", "NaN", "nan", "2.0"])
        rec = od.load_csv(path, **simple_config())
        assert list(rec.missing_mask[0]) == [False, True, True, False]

    def test_hold_fill_policy(self, tmp_path):
        path = tmp_path / "hold.csv"
        write_lines(path, ["x", "3.0", "", "", "7.0", ""])
        rec = od.load_csv(path, **simple_config(fill_policy=FILL_HOLD))
        assert list(rec.data[0]) == [3.0, 3.0, 3.0, 7.0, 7.0]

    def test_hold_fill_leading_gap_falls_back_to_zero(self, tmp_path):
        path = tmp_path / "lead.csv"
        write_lines(path, ["x", "", "", "5.0"])
        rec = od.load_csv(path, **simple_config(fill_policy=FILL_HOLD))
        assert list(rec.data[0]) == [0.0, 0.0, 5.0]

    def test_headerless_names(self, tmp_path):
        path = tmp_path / "nh.csv"
        write_lines(path, ["1.0,2.0", "3.0,4.0"])
        rec = od.load_csv(path, **simple_config(has_header=False))
        assert rec.names == ("ch0", "ch1")

    def test_time_column_by_index_headerless(self, tmp_path):
        path = tmp_path / "idx.csv"
        write_lines(path, ["0.0,5.0", "0.5,6.0", "1.0,7.0"])
        rec = od.load_csv(path, time_column=0, has_header=False)
        assert rec.names == ("ch1",)
        assert rec.dt == pytest.approx(0.5)
        assert rec.t0 == 0.0
        assert list(rec.data[0]) == [5.0, 6.0, 7.0]

    def test_unknown_channel_lookup_rejected(self, tmp_path):
        path = tmp_path / "ch.csv"
        write_lines(path, ["x", "1.0", "2.0"])
        rec = od.load_csv(path, **simple_config())
        with pytest.raises(IngestError, match="unknown channel"):
            rec.channel("y")

    def test_unknown_channel_mask_lookup_rejected_like_channel(self, tmp_path):
        path = tmp_path / "ch.csv"
        write_lines(path, ["x", "1.0", "2.0"])
        rec = od.load_csv(path, **simple_config())
        messages = []
        for lookup in (rec.channel, rec.channel_mask):
            with pytest.raises(IngestError, match="unknown channel") as info:
                lookup("y")
            messages.append(str(info.value))
        assert messages[0] == messages[1]

    def test_non_uniform_time_column_rejected_with_index(self, tmp_path):
        path = tmp_path / "bad.csv"
        write_lines(path, ["t,x", "0.0,1", "1.0,1", "2.0,1", "3.5,1", "4.0,1"])
        with pytest.raises(IngestError, match="index 3"):
            od.load_csv(path, time_column="t")

    def test_fewer_than_two_rows_rejected(self, tmp_path):
        path = tmp_path / "one.csv"
        write_lines(path, ["x", "1.0"])
        with pytest.raises(IngestError, match="fewer than 2"):
            od.load_csv(path, **simple_config())

    def test_unknown_fill_policy_rejected(self, tmp_path):
        # checked first, ahead of the missing sample interval and the missing file
        with pytest.raises(IngestError, match="fill policy"):
            od.load_csv(tmp_path / "never-read.csv", fill_policy="interpolate")

    def test_dt_conflicting_with_time_column_rejected(self, tmp_path):
        path = tmp_path / "conflict.csv"
        write_lines(path, ["t,x", "0.0,1", "0.5,1", "1.0,1"])
        with pytest.raises(IngestError, match="disagrees"):
            od.load_csv(path, dt=1.0, time_column="t")

    def test_non_finite_value_rejected(self, tmp_path):
        path = tmp_path / "inf.csv"
        write_lines(path, ["x", "1.0", "inf", "2.0"])
        with pytest.raises(IngestError, match="non-finite"):
            od.load_csv(path, **simple_config())

    def test_missing_time_sample_rejected(self, tmp_path):
        path = tmp_path / "mt.csv"
        write_lines(path, ["t,x", "0.0,1", ",1", "2.0,1"])
        with pytest.raises(IngestError, match="time column"):
            od.load_csv(path, time_column="t")

    def test_missing_file_mentions_path(self, tmp_path):
        with pytest.raises(IngestError, match="nowhere.csv"):
            od.load_csv(tmp_path / "nowhere.csv", **simple_config())

    def test_sample_interval_required_before_the_file_is_read(self, tmp_path):
        with pytest.raises(IngestError, match="either dt or a time column"):
            od.load_csv(tmp_path / "never-read.csv")

    def test_settings_are_keyword_only(self, tmp_path):
        path = tmp_path / "x.csv"
        write_lines(path, ["x", "1.0", "2.0"])
        with pytest.raises(TypeError):
            od.load_csv(path, 1.0)

    @pytest.mark.parametrize("header, repeated", [("t,x,x", "x"), ("t,x,t", "t")])
    def test_header_naming_a_column_twice_rejected(self, tmp_path, header, repeated):
        path = tmp_path / "twice.csv"
        write_lines(path, [header, "0.0,1,2", "1.0,3,4"])
        with pytest.raises(IngestError, match=f"header names column '{repeated}' more than once"):
            od.load_csv(path, time_column="t")

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        write_lines(path, ["a,b", "1,2", "3"])
        with pytest.raises(IngestError, match="row 1"):
            od.load_csv(path, **simple_config())

    def test_time_column_only_file_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        write_lines(path, ["t", "0.0", "0.5", "1.0"])
        with pytest.raises(IngestError, match="at least one channel"):
            od.load_csv(path, time_column="t")

    def test_record_without_channels_rejected(self):
        with pytest.raises(IngestError, match="at least one channel"):
            od.SignalRecord(names=(), data=np.empty((0, 5)), missing_mask=np.empty((0, 5), bool), dt=1.0)

    @pytest.mark.parametrize("dt", [np.inf, -np.inf, np.nan, 0.0, -1.0])
    def test_dt_must_be_finite_and_positive(self, tmp_path, dt):
        with pytest.raises(IngestError, match="dt must be finite and positive"):
            od.load_csv(tmp_path / "never-read.csv", dt=dt)
        with pytest.raises(IngestError, match="dt must be finite and positive"):
            od.SignalRecord(names=("x",), data=[[1.0, 2.0]], missing_mask=[[False, False]], dt=dt)

    @pytest.mark.parametrize(
        "data, mask, message",
        [
            ([[1.0, 2.0], [3.0, 4.0]], [[False, False]] * 2, "matching names"),
            ([[1.0]], [[False]], "at least 2 samples"),
            ([[1.0, 2.0]], [[False, False, False]], "same shape as data"),
            ([[1.0, np.nan]], [[False, False]], "non-finite samples"),
        ],
        ids=["data-rows-not-names", "one-sample", "mask-shape", "non-finite"],
    )
    def test_malformed_record_rejected(self, data, mask, message):
        with pytest.raises(IngestError, match=message):
            od.SignalRecord(names=("x",), data=data, missing_mask=mask, dt=1.0)

    def test_unknown_fill_policy_on_a_record_rejected(self):
        with pytest.raises(IngestError, match="unknown fill policy"):
            od.SignalRecord(names=("x",), data=[[1.0, 2.0]], missing_mask=[[False, False]], dt=1.0,
                            fill_policy="interpolate")

    def test_record_is_not_equal_to_another_type(self):
        rec = od.SignalRecord(names=("x",), data=[[1.0, 2.0]], missing_mask=[[False, False]], dt=1.0)
        assert rec.__eq__(3) is NotImplemented
        assert (rec == 3) is False


def cell_by_cell(rows, names, time_idx):
    """The reference parse: every cell in row-major order, the first problem raised."""
    values = np.empty((len(names), len(rows)))
    mask = np.zeros((len(names), len(rows)), dtype=bool)
    for i, row in enumerate(rows):
        for c, cell in enumerate(row):
            v, missing = _parse_cell(cell, i, names[c])
            if missing and c == time_idx:
                raise IngestError(f"row {i}: time column cannot have missing samples")
            values[c, i] = v
            mask[c, i] = missing
    return values, mask


CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["1.5", " 2 ", "-3e-2", "1_000", "", " ", "nan", " NaN", "-nan", "inf", "1e999", "abc"]),
)


class TestColumnParse:
    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        grid=st.integers(1, 3).flatmap(
            lambda ncols: st.lists(st.lists(CELLS, min_size=ncols, max_size=ncols), min_size=2, max_size=25)
        ),
        time_cell=st.none() | st.tuples(st.integers(0, 24), st.sampled_from(["", "nan", "x", "inf"])),
    )
    @example(grid=[["1"], ["-nan"], [" NaN"]], time_cell=None)  # only nan is a missing token
    @example(grid=[["1", ""], ["2", "abc"]], time_cell=(1, ""))  # the missing time sample comes first
    @example(grid=[["1", "inf"], ["2", "3"]], time_cell=(1, ""))  # the non-finite cell comes first
    def test_column_parse_is_the_cell_by_cell_parse(self, tmp_path, grid, time_cell):
        """Same values, mask and first error (in row-major order) as the reference parse."""
        rows = [[repr(float(i))] + row for i, row in enumerate(grid)]
        if time_cell is not None and time_cell[0] < len(rows):
            rows[time_cell[0]][0] = time_cell[1]
        names = ["t"] + [f"c{c}" for c in range(len(grid[0]))]
        path = tmp_path / "grid.csv"
        write_lines(path, [",".join(names)] + [",".join(row) for row in rows])
        try:
            values, mask = cell_by_cell(rows, names, 0)
        except IngestError as exc:
            with pytest.raises(IngestError) as info:
                od.load_csv(path, time_column="t")
            assert str(info.value) == str(exc)
            return
        rec = od.load_csv(path, time_column="t")
        assert np.array_equal(rec.data, values[1:])
        assert np.array_equal(rec.missing_mask, mask[1:])


class TestRoundTrip:
    def test_load_write_load_idempotent(self, tmp_path):
        rng = np.random.default_rng(3)
        data = rng.normal(size=(2, 40))
        mask = rng.random((2, 40)) < 0.2
        rec = od.SignalRecord(
            names=("a", "b"),
            data=np.where(mask, 0.0, data),
            missing_mask=mask,
            dt=0.25,
            t0=1.5,
        )
        p1, p2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        od.write_csv(rec, p1)
        config = {"dt": 0.25, "time_column": "t"}
        first = od.load_csv(p1, **config)
        od.write_csv(first, p2)
        second = od.load_csv(p2, **config)
        assert first == second
        assert p1.read_bytes() == p2.read_bytes()

    def test_all_samples_finite_after_load(self, tmp_path):
        rng = np.random.default_rng(11)
        for trial in range(20):
            values = rng.normal(size=12)
            missing = rng.random(12) < 0.4
            lines = ["x"] + ["" if m else repr(float(v)) for v, m in zip(values, missing)]
            path = tmp_path / f"f{trial}.csv"
            write_lines(path, lines)
            policy = FILL_HOLD if trial % 2 else FILL_ZERO
            rec = od.load_csv(path, **simple_config(fill_policy=policy))
            assert np.all(np.isfinite(rec.data))


class TestInjectGap:
    def test_gap_2000_250(self, lfo_clean):
        rec, _ = lfo_clean
        gapped = od.inject_gap(rec, 2000, 250)
        assert gapped.missing_mask[0, 2000:2250].all()
        assert gapped.missing_mask.sum() == 250
        assert np.all(gapped.data[0, 2000:2250] == 0.0)
        # 0.1 s at 2500 Hz
        assert 250 * gapped.dt == pytest.approx(0.1)
        # everything else bit-identical
        keep = np.ones(rec.length, dtype=bool)
        keep[2000:2250] = False
        assert np.array_equal(gapped.data[:, keep], rec.data[:, keep])

    def test_empty_gap_is_identity(self, lfo_clean):
        rec, _ = lfo_clean
        assert od.inject_gap(rec, 100, 0) == rec

    def test_full_mask_degenerate(self):
        rec = od.generate([], dc=2.0, fs=10.0, duration=1.0)
        gapped = od.inject_gap(rec, 0, rec.length)
        assert gapped.missing_mask.all()
        assert np.all(gapped.data == 0.0)

    def test_out_of_range_rejected(self, lfo_clean):
        rec, _ = lfo_clean
        with pytest.raises(IngestError):
            od.inject_gap(rec, 4900, 200)
        with pytest.raises(IngestError):
            od.inject_gap(rec, -1, 10)

    def test_changes_exactly_gap_length_entries_per_channel(self):
        rng = np.random.default_rng(5)
        rec = od.SignalRecord(
            names=("a", "b"),
            data=rng.normal(size=(2, 30)),
            missing_mask=np.zeros((2, 30), dtype=bool),
            dt=0.1,
        )
        for start, length in [(0, 5), (10, 7), (25, 5)]:
            gapped = od.inject_gap(rec, start, length)
            assert int(gapped.missing_mask[0].sum()) == length
            assert int(gapped.missing_mask[1].sum()) == length

    def test_hold_policy_holds_last_value(self):
        rec = od.SignalRecord(
            names=("a",),
            data=np.array([[1.0, 2.0, 3.0, 4.0, 5.0]]),
            missing_mask=np.zeros((1, 5), dtype=bool),
            dt=1.0,
            fill_policy=FILL_HOLD,
        )
        gapped = od.inject_gap(rec, 2, 2)
        assert list(gapped.data[0]) == [1.0, 2.0, 2.0, 2.0, 5.0]

    @pytest.mark.parametrize("policy", [FILL_HOLD, FILL_ZERO])
    def test_refill_matches_loading_the_gapped_file(self, tmp_path, policy):
        write_lines(tmp_path / "before.csv", ["x", "1.0", "2.0", "3.0", "", "5.0"])
        write_lines(tmp_path / "after.csv", ["x", "1.0", "2.0", "", "", "5.0"])
        rec = od.load_csv(tmp_path / "before.csv", **simple_config(fill_policy=policy))
        gapped = od.inject_gap(rec, 2, 1)
        # sample 3 held the value of sample 2, which the gap has now masked
        assert gapped == od.load_csv(tmp_path / "after.csv", **simple_config(fill_policy=policy))
        if policy == FILL_HOLD:
            assert list(gapped.data[0]) == [1.0, 2.0, 2.0, 2.0, 5.0]
