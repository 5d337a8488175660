"""Tests for the columnar ErrorLog container."""

import dataclasses

import numpy as np
import pytest

from repro.telemetry.error_log import _ITER_CHUNK, ErrorLog
from repro.telemetry.records import EventKind, EventRecord


def _sample_records():
    return [
        EventRecord(time=30.0, node=1, dimm=5, kind=EventKind.CE, ce_count=3,
                    rank=0, bank=1, row=2, col=3, manufacturer=0),
        EventRecord(time=10.0, node=0, dimm=1, kind=EventKind.CE, ce_count=1,
                    rank=1, bank=1, row=9, col=9, manufacturer=1),
        EventRecord(time=20.0, node=1, dimm=5, kind=EventKind.UE_WARNING, manufacturer=0),
        EventRecord(time=40.0, node=1, dimm=5, kind=EventKind.UE, manufacturer=0),
        EventRecord(time=50.0, node=2, dimm=-1, kind=EventKind.BOOT),
        EventRecord(time=60.0, node=0, dimm=2, kind=EventKind.OVERTEMP, manufacturer=1),
    ]


@pytest.fixture()
def log():
    return ErrorLog.from_records(_sample_records())


class TestConstruction:
    def test_empty(self):
        empty = ErrorLog.empty()
        assert len(empty) == 0
        assert empty.time_range() == (0.0, 0.0)

    def test_records_are_time_sorted(self, log):
        assert np.all(np.diff(log.time) >= 0)

    def test_roundtrip_records(self, log):
        records = log.to_records()
        assert len(records) == 6
        assert records[0].time == 10.0
        rebuilt = ErrorLog.from_records(records)
        assert rebuilt == log

    def test_mismatched_columns_rejected(self):
        with pytest.raises(ValueError):
            ErrorLog(time=[1.0, 2.0], node=[1])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_time_rejected(self, log, bad):
        columns = {name: getattr(log, name) for name in ErrorLog.__slots__}
        columns["time"] = columns["time"].copy()
        columns["time"][1] = bad
        with pytest.raises(ValueError, match="finite"):
            ErrorLog(**columns)

    def test_columns_are_read_only(self, log):
        with pytest.raises(AttributeError):
            log.time = np.zeros(3)

    def test_concatenate(self, log):
        other = ErrorLog.from_records(
            [EventRecord(time=5.0, node=9, kind=EventKind.BOOT)]
        )
        merged = ErrorLog.concatenate([log, other])
        assert len(merged) == 7
        assert merged.time[0] == 5.0

    def test_concatenate_empty_list(self):
        assert len(ErrorLog.concatenate([])) == 0


class TestSelection:
    def test_filter_kind(self, log):
        ces = log.filter_kind(EventKind.CE)
        assert len(ces) == 2
        assert set(ces.node.tolist()) == {0, 1}

    def test_filter_time(self, log):
        window = log.filter_time(15.0, 45.0)
        assert len(window) == 3
        assert window.time.min() >= 15.0
        assert window.time.max() < 45.0

    def test_filter_node(self, log):
        assert len(log.filter_node(1)) == 3

    def test_filter_nodes(self, log):
        assert len(log.filter_nodes([0, 2])) == 3

    def test_filter_manufacturer_keeps_node_level_events(self):
        records = _sample_records()
        # Node 2 only has a boot; give node 0 manufacturer 1 events.
        log = ErrorLog.from_records(records)
        sub = log.filter_manufacturer(1)
        # Manufacturer-1 events are on node 0; boots on node 0 kept, node 2 dropped.
        assert set(sub.node.tolist()) <= {0}

    def test_exclude_dimms(self, log):
        out = log.exclude_dimms([5])
        assert len(out) == 3
        assert 5 not in out.dimm.tolist()

    def test_exclude_no_dimms_is_identity(self, log):
        assert log.exclude_dimms([]) == log


class TestSummaries:
    def test_ue_mask_includes_overtemp(self, log):
        assert log.count_ues() == 2

    def test_total_corrected_errors_sums_counts(self, log):
        assert log.total_corrected_errors() == 4

    def test_stats(self, log):
        stats = log.stats()
        assert stats.n_events == 6
        assert stats.n_ce_records == 2
        assert stats.n_corrected_errors == 4
        assert stats.n_uncorrected_errors == 2
        assert stats.n_ue_warnings == 1
        assert stats.n_boots == 1
        assert stats.n_nodes_with_events == 3
        assert stats.time_span_seconds == pytest.approx(50.0)

    def test_ue_times(self, log):
        assert np.array_equal(log.ue_times, [40.0, 60.0])

    def test_nodes(self, log):
        assert np.array_equal(log.nodes, [0, 1, 2])


class TestGrouping:
    def test_node_slices_cover_all_events(self, log):
        slices = log.node_slices()
        total = sum(len(idx) for idx in slices.values())
        assert total == len(log)

    def test_node_slices_are_time_ordered(self, log):
        for node, idx in log.node_slices().items():
            times = log.time[idx]
            assert np.all(np.diff(times) >= 0)
            assert np.all(log.node[idx] == node)

    def test_per_node(self, log):
        per_node = log.per_node()
        assert set(per_node) == {0, 1, 2}
        assert len(per_node[1]) == 3

    def test_equality(self, log):
        assert log == ErrorLog.from_records(_sample_records())
        assert log != log.filter_node(1)


def _long_log(n: int) -> ErrorLog:
    """A log spanning several iteration chunks, every column varied."""
    rng = np.random.default_rng(3)
    kind = rng.integers(0, len(EventKind), n)
    return ErrorLog(
        time=np.sort(rng.uniform(0.0, 1e6, n)),
        node=rng.integers(0, 50, n),
        dimm=rng.integers(-1, 400, n),
        kind=kind,
        ce_count=np.where(kind == int(EventKind.CE), rng.integers(1, 9, n), 0),
        rank=rng.integers(-1, 2, n),
        bank=rng.integers(-1, 16, n),
        row=rng.integers(-1, 1 << 17, n),
        col=rng.integers(-1, 1 << 10, n),
        scrubber=rng.random(n) < 0.3,
        manufacturer=rng.integers(-1, 3, n),
    )


class TestIteration:
    def test_iteration_matches_record_across_chunks(self):
        log = _long_log(2 * _ITER_CHUNK + 37)
        iterated = list(log)
        indexed = [log.record(i) for i in range(len(log))]
        assert len(iterated) == len(log)
        # astuple, not ==: EventRecord equality skips the compare=False fields.
        assert [dataclasses.astuple(r) for r in iterated] == [
            dataclasses.astuple(r) for r in indexed
        ]
        for records in (iterated, indexed):
            for record in records:
                assert type(record.kind) is EventKind
                assert type(record.time) is float
                assert type(record.node) is int
                assert type(record.scrubber) is bool

    def test_ue_mask_agrees_with_records(self):
        log = _long_log(_ITER_CHUNK + 5)
        assert np.array_equal(log.is_ue_mask, [record.is_ue for record in log])

    def test_unknown_kind_code_raises_on_both_paths(self):
        base = _long_log(2)
        columns = {name: getattr(base, name) for name in ErrorLog.__slots__}
        columns["kind"] = [int(EventKind.BOOT), 9]
        log = ErrorLog(**columns)
        assert log.record(0).kind is EventKind.BOOT
        with pytest.raises(ValueError):
            log.record(1)
        with pytest.raises(ValueError):
            list(log)


class TestRows:
    """``rows()``: the plain rows an in-memory log is served as."""

    def test_rows_match_record_across_chunks(self):
        log = _long_log(2 * _ITER_CHUNK + 37)
        rows = list(log.rows())
        assert len(rows) == len(log)
        for i, row in enumerate(rows):
            record = log.record(i)
            assert row._fields == tuple(f.name for f in dataclasses.fields(record))
            assert tuple(row) == dataclasses.astuple(record), i
            assert [type(value) for value in row] == [
                type(value) for value in dataclasses.astuple(record)
            ], i

    def test_empty_log_has_no_rows(self):
        assert list(ErrorLog.empty().rows()) == []

    @pytest.mark.parametrize(
        "column, value, index",
        [
            ("kind", 9, _ITER_CHUNK + 3),
            ("time", -1.0, 0),
            ("node", -1, _ITER_CHUNK + 3),
            ("ce_count", 0, _ITER_CHUNK + 3),
        ],
    )
    def test_each_rejected_row_raises_the_record_message(self, column, value, index):
        log = _rejected_row_log(column, value, index)
        with pytest.raises(ValueError) as expected:
            log.record(index)
        served = []
        with pytest.raises(ValueError) as raised:
            for row in log.rows():
                served.append(row)
        assert str(raised.value) == str(expected.value)
        # Lazy like iteration: every row before the rejected one is yielded.
        assert len(served) == index


def _rejected_row_log(column: str, value, index: int) -> ErrorLog:
    """A two-chunk log whose row ``index`` breaks one ``EventRecord`` rule."""
    base = _long_log(2 * _ITER_CHUNK)
    columns = {name: getattr(base, name).copy() for name in ErrorLog.__slots__}
    if column == "ce_count":
        columns["kind"][index] = int(EventKind.CE)
    columns[column][index] = value
    return ErrorLog(**columns)
