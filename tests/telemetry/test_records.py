"""Tests for telemetry event records."""

import pytest

from repro.telemetry.records import MANUFACTURER_NAMES, EventKind, EventRecord


class TestEventKind:
    def test_ue_counts_as_ue(self):
        assert EventKind.UE.counts_as_ue

    def test_overtemp_counts_as_ue(self):
        # Critical over-temperature shuts the node down (Section 2.1.2).
        assert EventKind.OVERTEMP.counts_as_ue

    @pytest.mark.parametrize(
        "kind", [EventKind.CE, EventKind.UE_WARNING, EventKind.BOOT, EventKind.RETIREMENT]
    )
    def test_other_kinds_do_not(self, kind):
        assert not kind.counts_as_ue


class TestEventRecord:
    def test_basic_ce_record(self):
        record = EventRecord(
            time=10.0, node=3, dimm=24, kind=EventKind.CE, ce_count=5,
            rank=1, bank=2, row=100, col=7, scrubber=True, manufacturer=2,
        )
        assert record.ce_count == 5
        assert not record.is_ue
        assert record.manufacturer_name == "C"

    def test_ue_record_is_ue(self):
        record = EventRecord(time=1.0, node=0, dimm=0, kind=EventKind.UE)
        assert record.is_ue

    def test_unknown_manufacturer_name(self):
        record = EventRecord(time=1.0, node=0, kind=EventKind.BOOT)
        assert record.manufacturer_name == "?"

    def test_manufacturer_names_are_three_letters(self):
        assert MANUFACTURER_NAMES == ("A", "B", "C")

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            EventRecord(time=-1.0, node=0, kind=EventKind.BOOT)

    @pytest.mark.parametrize("time", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_time_rejected(self, time):
        # NaN compares false with everything: it would pass a `time < 0`
        # check and stall every later out-of-order check in the service.
        with pytest.raises(ValueError, match="finite"):
            EventRecord(time=time, node=0, kind=EventKind.BOOT)

    def test_negative_node_rejected(self):
        with pytest.raises(ValueError):
            EventRecord(time=1.0, node=-1, kind=EventKind.BOOT)

    def test_ce_without_count_rejected(self):
        with pytest.raises(ValueError):
            EventRecord(time=1.0, node=0, dimm=0, kind=EventKind.CE, ce_count=0)

    def test_records_order_by_time(self):
        early = EventRecord(time=1.0, node=5, kind=EventKind.BOOT)
        late = EventRecord(time=2.0, node=0, kind=EventKind.BOOT)
        assert early < late
