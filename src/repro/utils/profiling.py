"""Stage-level cProfile instrumentation for the experiment pipeline.

``ExperimentConfig.profile`` (CLI: ``--profile``) runs each pipeline stage
under :mod:`cProfile` and surfaces the top cumulative-time functions in
``ExperimentResult.extras["profile"]`` — a plain ``{stage: [row, ...]}``
mapping of dictionaries, cheap to print and to serialize ad hoc — so
performance work starts from data instead of guesses.  Besides the
per-stage tables the report carries a ``"total"`` entry: all stages'
raw stats folded into one profile with :meth:`pstats.Stats.add`, so a
function split across stages (the decision core runs under both
``execute_tasks`` and ``aggregate``) shows its true combined cost in a
single ranking — this merged table is what :func:`format_profile` renders
and the CLI prints.

Profiling covers the driver process: with the ``serial`` executor (or
``n_workers=1``) that is the whole experiment; with the process backend the
worker-side task bodies run outside the profiler and only orchestration
shows up.  The report says which stages were measured either way.
"""

from __future__ import annotations

import cProfile
import pstats
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

__all__ = ["StageProfiler", "format_profile", "MERGED_KEY"]

#: A profile row: function identity plus call counts and timings.
ProfileRow = Dict[str, object]

#: Report key of the cross-stage merged table (not a stage name).
MERGED_KEY = "total"


def _top_rows(stats: pstats.Stats, limit: int) -> List[ProfileRow]:
    """The ``limit`` heaviest functions of one stats set, by cumulative time."""
    entries = sorted(
        stats.stats.items(), key=lambda item: item[1][3], reverse=True
    )
    rows: List[ProfileRow] = []
    for (filename, line, function), (_, n_calls, total, cumulative, _) in entries[
        :limit
    ]:
        short = filename.rsplit("/", 1)[-1]
        rows.append(
            {
                "function": f"{short}:{line}({function})",
                "ncalls": int(n_calls),
                "tottime": round(float(total), 4),
                "cumtime": round(float(cumulative), 4),
            }
        )
    return rows


class StageProfiler:
    """Profiles named stages and collects their top-function tables.

    Disabled instances cost nothing — :meth:`stage` degrades to a bare
    ``yield`` — so callers can instrument unconditionally and let the
    config flag decide.
    """

    def __init__(self, enabled: bool = True, top: int = 15) -> None:
        self.enabled = bool(enabled)
        self.top = int(top)
        self.stages: Dict[str, List[ProfileRow]] = {}
        self._merged: Optional[pstats.Stats] = None

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        """Run one pipeline stage under its own profiler."""
        if not self.enabled:
            yield
            return
        profiler = cProfile.Profile()
        profiler.enable()
        try:
            yield
        finally:
            profiler.disable()
            stats = pstats.Stats(profiler)
            self.stages[name] = _top_rows(stats, self.top)
            if self._merged is None:
                self._merged = stats
            else:
                # Raw-stats fold: per-function call counts and timings sum
                # across stages before the top-N cut, so the merged table
                # ranks true combined costs (a post-hoc merge of the
                # per-stage top rows could not — a function just under the
                # cut in every stage would vanish).
                self._merged.add(stats)

    def report(self) -> Dict[str, List[ProfileRow]]:
        """The ``{stage: [rows]}`` mapping plus the merged ``"total"`` entry."""
        report = dict(self.stages)
        if self._merged is not None:
            report[MERGED_KEY] = _top_rows(self._merged, self.top)
        return report


def format_profile(report: Dict[str, List[ProfileRow]]) -> str:
    """Human-readable table of a :meth:`StageProfiler.report` mapping.

    Prints ONE top-N table — the cross-stage ``"total"`` merge — naming
    the stages it covers.
    """
    stages = [name for name in report if name != MERGED_KEY]
    lines = [
        "profile — top functions by cumulative time "
        f"(merged across stages: {', '.join(stages)})",
        f"  {'cumtime':>9}  {'tottime':>9}  {'ncalls':>8}  function",
    ]
    for row in report.get(MERGED_KEY, []):
        lines.append(
            f"  {row['cumtime']:>9.4f}  {row['tottime']:>9.4f}  "
            f"{row['ncalls']:>8}  {row['function']}"
        )
    return "\n".join(lines)
