"""mcelog-style and firmware-style text serialisation of error logs.

MareNostrum 3 collected corrected errors with a daemon based on Linux
``mcelog`` (Section 2.1.1) and uncorrected errors / warnings / over-
temperature conditions with the IBM platform firmware (Section 2.1.2).  This
module provides a plain-text round-trippable representation of both streams
so that externally produced logs in the same shape can be ingested and so
that generated logs can be inspected with standard tools.

The formats are deliberately simple, line-oriented and human readable::

    CE time=86455.1 node=17 dimm=139 count=12 rank=1 bank=4 row=5121 \
col=77 scrubber=1 manufacturer=2
    UE time=90001.0 node=17 dimm=139 manufacturer=2

Timestamps are emitted with ``repr`` precision so that a format -> parse
round-trip reproduces every ``float64`` bit-exactly: real dumps carry
sub-millisecond spacing, and a fixed-precision rendering would collapse or
reorder those events on ingestion.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, List, TextIO, Union

from repro.telemetry.error_log import ErrorLog
from repro.telemetry.records import EventKind, EventRecord

_KIND_TAGS = {
    EventKind.CE: "CE",
    EventKind.UE: "UE",
    EventKind.UE_WARNING: "UEWARN",
    EventKind.BOOT: "BOOT",
    EventKind.RETIREMENT: "RETIRE",
    EventKind.OVERTEMP: "OVERTEMP",
}
_TAG_KINDS = {v: k for k, v in _KIND_TAGS.items()}


def _format_record(record: EventRecord) -> str:
    tag = _KIND_TAGS[EventKind(record.kind)]
    fields = [f"time={record.time!r}", f"node={record.node}"]
    if record.dimm >= 0:
        fields.append(f"dimm={record.dimm}")
    if record.kind == EventKind.CE:
        fields.extend(
            [
                f"count={record.ce_count}",
                f"rank={record.rank}",
                f"bank={record.bank}",
                f"row={record.row}",
                f"col={record.col}",
                f"scrubber={int(record.scrubber)}",
            ]
        )
    if record.manufacturer >= 0:
        fields.append(f"manufacturer={record.manufacturer}")
    return tag + " " + " ".join(fields)


def _parse_line(line: str) -> EventRecord:
    parts = line.split()
    if not parts:
        raise ValueError("empty log line")
    tag = parts[0]
    if tag not in _TAG_KINDS:
        raise ValueError(f"unknown event tag {tag!r}")
    kind = _TAG_KINDS[tag]
    values = {}
    for token in parts[1:]:
        if "=" not in token:
            raise ValueError(f"malformed field {token!r} in line {line!r}")
        key, value = token.split("=", 1)
        if key in values:
            raise ValueError(f"duplicate field {key!r} in line {line!r}")
        values[key] = value
    try:
        time = float(values["time"])
        if not 0 <= time < math.inf:
            problem = "negative" if time < 0 else "non-finite"
            raise ValueError(f"{problem} time {values['time']!r} in line {line!r}")
        count = int(values.get("count", 1 if kind == EventKind.CE else 0))
        if count < 0:
            raise ValueError(
                f"negative count {values['count']!r} in line {line!r}"
            )
        return EventRecord(
            time=time,
            node=int(values["node"]),
            dimm=int(values.get("dimm", -1)),
            kind=kind,
            ce_count=count,
            rank=int(values.get("rank", -1)),
            bank=int(values.get("bank", -1)),
            row=int(values.get("row", -1)),
            col=int(values.get("col", -1)),
            scrubber=bool(int(values.get("scrubber", 0))),
            manufacturer=int(values.get("manufacturer", -1)),
        )
    except KeyError as exc:
        raise ValueError(f"missing field {exc} in line {line!r}") from exc


def format_mcelog(log: ErrorLog) -> str:
    """Serialise the corrected-error stream (CE records only)."""
    lines = [
        _format_record(rec) for rec in log if EventKind(rec.kind) == EventKind.CE
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def format_ue_log(log: ErrorLog) -> str:
    """Serialise the firmware stream (UEs, warnings, boots, retirements)."""
    lines = [
        _format_record(rec)
        for rec in log
        if EventKind(rec.kind) != EventKind.CE
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def format_full_log(log: ErrorLog) -> str:
    """Serialise every event of the log."""
    lines = [_format_record(rec) for rec in log]
    return "\n".join(lines) + ("\n" if lines else "")


def _iter_lines(source: Union[str, TextIO, Iterable[str]]) -> Iterable[str]:
    if isinstance(source, str):
        return source.splitlines()
    return source


def iter_mcelog_records(
    source: Union[str, TextIO, Iterable[str]],
    start_lineno: int = 1,
) -> Iterator[EventRecord]:
    """Lazily parse an mcelog-format stream into :class:`EventRecord`\\ s.

    This is the streaming entry point: it consumes one line at a time (a
    string, an open file, or any iterable of lines — including a live tail),
    skips blanks and ``#`` comments, and yields records as they parse.  Every
    ``ValueError`` is annotated with the 1-based line number so a bad line in
    a multi-MB firmware dump is findable.  ``start_lineno`` lets a resumed
    tail keep numbering from where the previous read stopped.
    """
    for lineno, raw in enumerate(_iter_lines(source), start=start_lineno):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            yield _parse_line(line)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from exc


def parse_mcelog(source: Union[str, TextIO, Iterable[str]]) -> ErrorLog:
    """Parse a corrected-error stream produced by :func:`format_mcelog`.

    Non-CE lines are tolerated and parsed as their own kinds, so a combined
    file also round-trips through this function.  Malformed input raises
    ``ValueError`` with the offending 1-based line number.
    """
    records: List[EventRecord] = list(iter_mcelog_records(source))
    return ErrorLog.from_records(records)


def parse_ue_log(source: Union[str, TextIO, Iterable[str]]) -> ErrorLog:
    """Parse a firmware event stream produced by :func:`format_ue_log`."""
    return parse_mcelog(source)
