"""Tests for mcelog-style serialisation."""

import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.telemetry.error_log import ErrorLog
from repro.telemetry.mcelog import (
    format_full_log,
    format_mcelog,
    format_ue_log,
    iter_mcelog_records,
    parse_mcelog,
    parse_ue_log,
)
from repro.telemetry.records import EventKind, EventRecord

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture()
def sample_log():
    return ErrorLog.from_records(
        [
            EventRecord(time=1.5, node=3, dimm=12, kind=EventKind.CE, ce_count=7,
                        rank=1, bank=2, row=333, col=4, scrubber=True, manufacturer=0),
            EventRecord(time=2.0, node=3, dimm=12, kind=EventKind.UE_WARNING, manufacturer=0),
            EventRecord(time=3.0, node=3, dimm=12, kind=EventKind.UE, manufacturer=0),
            EventRecord(time=4.0, node=5, dimm=-1, kind=EventKind.BOOT),
            EventRecord(time=5.0, node=6, dimm=20, kind=EventKind.RETIREMENT, manufacturer=2),
            EventRecord(time=6.0, node=7, dimm=30, kind=EventKind.OVERTEMP, manufacturer=1),
        ]
    )


class TestFormatting:
    def test_mcelog_contains_only_ce_lines(self, sample_log):
        text = format_mcelog(sample_log)
        lines = [l for l in text.splitlines() if l]
        assert len(lines) == 1
        assert lines[0].startswith("CE ")
        assert "count=7" in lines[0]
        assert "scrubber=1" in lines[0]

    def test_ue_log_excludes_ce(self, sample_log):
        text = format_ue_log(sample_log)
        assert "CE " not in text
        assert "UE " in text
        assert "BOOT" in text
        assert "OVERTEMP" in text

    def test_empty_log(self):
        assert format_mcelog(ErrorLog.empty()) == ""
        assert format_ue_log(ErrorLog.empty()) == ""


class TestRoundTrip:
    def test_full_roundtrip(self, sample_log):
        text = format_full_log(sample_log)
        parsed = parse_mcelog(text)
        assert len(parsed) == len(sample_log)
        assert parsed.count_ues() == sample_log.count_ues()
        assert parsed.total_corrected_errors() == sample_log.total_corrected_errors()

    def test_ce_fields_preserved(self, sample_log):
        parsed = parse_mcelog(format_mcelog(sample_log))
        record = parsed.record(0)
        assert record.ce_count == 7
        assert record.rank == 1 and record.bank == 2
        assert record.row == 333 and record.col == 4
        assert record.scrubber is True
        assert record.manufacturer == 0

    def test_parse_skips_comments_and_blank_lines(self):
        text = "# header\n\nBOOT time=1.000 node=2\n"
        parsed = parse_ue_log(text)
        assert len(parsed) == 1
        assert parsed.record(0).kind == EventKind.BOOT

    def test_parse_accepts_iterable_of_lines(self):
        parsed = parse_mcelog(["CE time=1.000 node=0 dimm=1 count=2 rank=0 bank=0 row=1 col=1 scrubber=0"])
        assert parsed.total_corrected_errors() == 2

    def test_parse_rejects_unknown_tag(self):
        with pytest.raises(ValueError):
            parse_mcelog("WAT time=1.0 node=0")

    def test_parse_rejects_malformed_field(self):
        with pytest.raises(ValueError):
            parse_mcelog("BOOT time 1.0 node=0")

    def test_parse_rejects_missing_required_field(self):
        with pytest.raises(ValueError):
            parse_mcelog("BOOT node=0")

    def test_generated_log_roundtrips(self, reduced_error_log):
        subset = reduced_error_log.filter_time(0, reduced_error_log.time[-1] / 10)
        parsed = parse_mcelog(format_full_log(subset))
        assert len(parsed) == len(subset)
        assert parsed.count_ues() == subset.count_ues()

    def test_generated_log_roundtrips_bit_exact(self, reduced_error_log):
        subset = reduced_error_log.filter_time(0, reduced_error_log.time[-1] / 10)
        assert parse_mcelog(format_full_log(subset)) == subset


class TestHardening:
    def test_duplicate_key_rejected(self):
        with pytest.raises(ValueError, match="duplicate field 'time'"):
            parse_mcelog("BOOT time=1.0 time=2.0 node=3")

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="negative time"):
            parse_mcelog("BOOT time=-1.5 node=3")

    @pytest.mark.parametrize("value", ["nan", "inf", "NaN", "+inf"])
    def test_non_finite_time_rejected_with_its_line(self, value):
        text = f"BOOT time=1.0 node=3\nCE time={value} node=3 dimm=1 count=1\n"
        with pytest.raises(
            ValueError, match=rf"^line 2: non-finite time '{re.escape(value)}'"
        ):
            parse_mcelog(text)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="negative count"):
            parse_mcelog("CE time=1.0 node=3 dimm=4 count=-2")

    def test_errors_carry_1based_line_number(self):
        text = "# header comment\n\nBOOT time=1.0 node=2\nWAT time=2.0 node=2\n"
        with pytest.raises(ValueError, match=r"line 4: unknown event tag 'WAT'"):
            parse_mcelog(text)

    @pytest.mark.parametrize(
        "bad_line",
        [
            "BOOT node=2",                      # missing time
            "BOOT time=abc node=2",             # unparsable float
            "BOOT time=1.0 node=-4",            # EventRecord validation
            "CE time=1.0 node=2 count=0",       # CE needs ce_count >= 1
            "BOOT time=1.0 time=2.0 node=2",    # duplicate key
        ],
    )
    def test_every_value_error_is_line_numbered(self, bad_line):
        text = "BOOT time=0.5 node=1\n" + bad_line + "\n"
        with pytest.raises(ValueError, match=r"^line 2: "):
            parse_mcelog(text)

    def test_iter_records_is_lazy_and_respects_start_lineno(self):
        lines = iter(["BOOT time=1.0 node=2", "broken"])
        stream = iter_mcelog_records(lines, start_lineno=41)
        first = next(stream)
        assert first.kind == EventKind.BOOT
        with pytest.raises(ValueError, match="line 42"):
            next(stream)


def _records_to_log(records):
    return ErrorLog.from_records(records)


_times = st.floats(
    min_value=0.0, max_value=4.0e9, allow_nan=False, allow_infinity=False
)
_manufacturers = st.sampled_from([-1, 0, 1, 2])
_dimms = st.one_of(st.just(-1), st.integers(0, 4000))


@st.composite
def _event_records(draw):
    kind = draw(st.sampled_from(list(EventKind)))
    time = draw(_times)
    node = draw(st.integers(0, 5000))
    dimm = draw(_dimms)
    manufacturer = draw(_manufacturers)
    if kind == EventKind.CE:
        return EventRecord(
            time=time,
            node=node,
            dimm=dimm,
            kind=kind,
            ce_count=draw(st.integers(1, 10**6)),
            rank=draw(st.integers(-1, 7)),
            bank=draw(st.integers(-1, 15)),
            row=draw(st.integers(-1, 10**5)),
            col=draw(st.integers(-1, 10**4)),
            scrubber=draw(st.booleans()),
            manufacturer=manufacturer,
        )
    return EventRecord(
        time=time, node=node, dimm=dimm, kind=kind, manufacturer=manufacturer
    )


class TestPropertyRoundTrip:
    """format -> parse must be lossless for every field of every EventKind."""

    @settings(max_examples=200, deadline=None)
    @given(records=st.lists(_event_records(), min_size=1, max_size=30))
    def test_full_log_roundtrips_bit_exact(self, records):
        log = _records_to_log(records)
        assert parse_mcelog(format_full_log(log)) == log

    @settings(max_examples=200, deadline=None)
    @given(
        base=st.floats(
            min_value=0.0, max_value=1e8, allow_nan=False, allow_infinity=False
        ),
        delta=st.floats(min_value=1e-9, max_value=1e-3, exclude_min=False),
        kind=st.sampled_from([EventKind.UE, EventKind.BOOT, EventKind.OVERTEMP]),
    )
    def test_submillisecond_pairs_keep_order_and_identity(self, base, delta, kind):
        """The %.3f regression: close event pairs must not collapse or swap."""
        t0, t1 = base, base + delta
        if not t1 > t0:  # delta lost to float rounding at this magnitude
            return
        log = _records_to_log(
            [
                EventRecord(time=t0, node=1, kind=kind),
                EventRecord(time=t1, node=2, kind=kind),
            ]
        )
        parsed = parse_mcelog(format_full_log(log))
        assert parsed == log
        # from_records re-sorts by time: the sub-millisecond ordering must
        # survive the text round-trip exactly.
        assert parsed.time[0] == t0 and parsed.time[1] == t1
        assert list(parsed.node) == [1, 2]

    @pytest.mark.parametrize("kind", list(EventKind))
    @pytest.mark.parametrize("dimm", [-1, 17])
    @pytest.mark.parametrize("manufacturer", [-1, 2])
    def test_every_kind_tag_and_omission_path(self, kind, dimm, manufacturer):
        record = (
            EventRecord(
                time=123.000456, node=9, dimm=dimm, kind=kind, ce_count=3,
                rank=1, bank=2, row=10, col=11, scrubber=True,
                manufacturer=manufacturer,
            )
            if kind == EventKind.CE
            else EventRecord(
                time=123.000456, node=9, dimm=dimm, kind=kind,
                manufacturer=manufacturer,
            )
        )
        log = _records_to_log([record])
        text = format_full_log(log)
        if dimm < 0:
            assert "dimm=" not in text
        if manufacturer < 0:
            assert "manufacturer=" not in text
        assert parse_mcelog(text) == log


class TestRealShapedDump:
    """A tiny checked-in real-shaped combined dump, ingested end to end."""

    @pytest.fixture()
    def dump_log(self):
        with open(DATA_DIR / "real_shaped_dump.log") as handle:
            return parse_mcelog(handle)

    def test_counts(self, dump_log):
        assert len(dump_log) == 14
        assert dump_log.count_ues() == 3  # 2 UEs + 1 over-temperature
        assert dump_log.total_corrected_errors() == 1 + 3 + 2 + 40 + 6

    def test_submillisecond_ordering_preserved(self, dump_log):
        node = dump_log.filter_nodes([201])
        times = node.time
        assert np.all(np.diff(times) > 0)
        assert 86455.100244 in times and 86455.100245 in times

    def test_roundtrips_bit_exact(self, dump_log):
        assert parse_mcelog(format_full_log(dump_log)) == dump_log

    def test_feature_tracks_build_end_to_end(self, dump_log):
        from repro.core.features import FEATURE_INDEX, build_feature_tracks

        tracks = build_feature_tracks(dump_log)
        assert set(tracks) == {201, 202, 305}
        node = tracks[201]
        assert node.is_ue.sum() == 1  # the firmware UE terminates the node
        # The two sub-millisecond CE bursts merge into one decision step.
        last = node.features[-1]
        assert last[FEATURE_INDEX["ces_total"]] == 1 + 3 + 2 + 40
        assert last[FEATURE_INDEX["boots_total"]] == 2.0
