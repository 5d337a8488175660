"""Asynchronous mcelog event sources for :meth:`DecisionService.run`.

A *source* is anything the service can ``async for`` over to obtain
:class:`~repro.telemetry.records.EventRecord` objects in non-decreasing time
order, as they arrive; an in-memory log needs none, ``DecisionService.serve``
takes any plain iterable.  Two implementations cover replay and live ingestion:

* :class:`ReplaySource` replays an in-memory :class:`~repro.telemetry
  .error_log.ErrorLog` (or any record sequence), optionally throttled to a
  multiple of real time — the "UE storm at 1000x" benchmark mode;
* :class:`TailSource` tails an mcelog-format file through
  :func:`~repro.telemetry.mcelog.iter_mcelog_records`, preserving the
  parser's 1-based line numbers in error messages and optionally following
  the file as a daemon would (``tail -f``).
"""

from __future__ import annotations

import asyncio
from pathlib import Path
from typing import AsyncIterator, Iterable, Optional, Union

from repro.telemetry.error_log import ErrorLog
from repro.telemetry.mcelog import iter_mcelog_records
from repro.telemetry.records import EventRecord
from repro.utils.validation import check_positive


class ReplaySource:
    """Replay an error log (or record iterable) as an async event stream.

    Parameters
    ----------
    events:
        An :class:`ErrorLog` or an iterable of :class:`EventRecord` in
        non-decreasing time order.
    speed:
        ``None`` replays as fast as the service awaits records; a positive
        float maps event time to wall time at that multiple of real time —
        ``speed=3600`` compresses an hour of telemetry into one second, the
        replayed-at-speed storm mode.
    """

    def __init__(
        self,
        events: Union[ErrorLog, Iterable[EventRecord]],
        speed: Optional[float] = None,
    ) -> None:
        if speed is not None:
            check_positive("speed", speed)
        self._events = events
        self._speed = speed

    async def __aiter__(self) -> AsyncIterator[EventRecord]:
        speed = self._speed
        loop = asyncio.get_running_loop()
        anchor_event: Optional[float] = None
        anchor_wall = 0.0
        for record in self._events:
            if speed is not None:
                if anchor_event is None:
                    anchor_event = record.time
                    anchor_wall = loop.time()
                else:
                    target = anchor_wall + (record.time - anchor_event) / speed
                    delay = target - loop.time()
                    if delay > 0:
                        await asyncio.sleep(delay)
            yield record


class TailSource:
    """Tail an mcelog-format file as an async event stream.

    Parameters
    ----------
    path:
        The mcelog dump / spool file to read.
    follow:
        ``False`` (default) stops at end of file; ``True`` keeps polling
        for appended lines like ``tail -f`` (stop the service task to end).
    poll_seconds:
        Sleep between polls when following an idle file.

    Lines are parsed with the same hardened parser as the batch loader
    (comments and blank lines skipped, duplicate keys and negative fields
    rejected), and parse errors carry the 1-based line number of the
    offending line within the file.
    """

    def __init__(
        self,
        path: Union[str, Path],
        follow: bool = False,
        poll_seconds: float = 0.2,
    ) -> None:
        check_positive("poll_seconds", poll_seconds)
        self._path = Path(path)
        self._follow = bool(follow)
        self._poll_seconds = float(poll_seconds)

    async def __aiter__(self) -> AsyncIterator[EventRecord]:
        with open(self._path, "r", encoding="utf-8") as handle:
            lineno = 0
            partial = ""
            while True:
                chunk = handle.readline()
                if chunk == "":
                    if not self._follow:
                        if partial.strip():
                            for record in iter_mcelog_records(
                                [partial], start_lineno=lineno + 1
                            ):
                                yield record
                        return
                    await asyncio.sleep(self._poll_seconds)
                    continue
                partial += chunk
                if not partial.endswith("\n"):
                    # readline() hands back a torn line at EOF while a
                    # writer is mid-append; keep it until the newline lands.
                    continue
                line, partial = partial, ""
                lineno += 1
                for record in iter_mcelog_records([line], start_lineno=lineno):
                    yield record
