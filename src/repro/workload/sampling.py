"""Node-level job timelines sampled from a job log.

Section 3.3.3: during training (and in the cost model generally), "a sequence
of jobs is randomly chosen to run on the node.  The jobs are weighted by the
number of nodes on which they execute, in order to maintain the correct job
distribution."  A node that is part of a 512-node job is 512 times more
likely to be running that job than a single-node job of the same frequency.

:class:`JobSequenceSampler` draws such node-count-weighted sequences and
:class:`NodeJobTimeline` answers the two questions the MDP needs at any time
``t``: how many nodes does the current job span, and when did it start.
It is asked once per decision step, so it bisects plain-list copies of the
arrays, built on the first query and kept out of ``==``, ``repr`` and pickles.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.utils.rng import as_generator
from repro.utils.timeutils import HOUR
from repro.utils.validation import check_positive
from repro.workload.job import JobLog


@dataclass(frozen=True)
class NodeJobTimeline:
    """Back-to-back sequence of jobs running on one node over a time range.

    Attributes
    ----------
    starts:
        Start time of each job in the sequence (sorted, first <= t_start).
    durations:
        Wallclock duration of each job, seconds.
    n_nodes:
        Number of nodes of each job (the node under study is one of them).
    """

    starts: np.ndarray
    durations: np.ndarray
    n_nodes: np.ndarray

    def __post_init__(self) -> None:
        if not (len(self.starts) == len(self.durations) == len(self.n_nodes)):
            raise ValueError("timeline arrays must be equally long")
        if len(self.starts) == 0:
            raise ValueError("a node timeline needs at least one job")
        if np.any(np.diff(self.starts) < 0):
            raise ValueError("job starts must be sorted")

    @property
    def ends(self) -> np.ndarray:
        """End time of each job."""
        return self.starts + self.durations

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("_lists", None)  # job_at's list copies: rebuilt, never shipped
        return state

    def job_at(self, t: float) -> Tuple[float, float]:
        """Return ``(job_start, job_n_nodes)`` for the job running at ``t``.

        Falls back to the last job if ``t`` lies beyond the sampled horizon
        (the sampler always covers the evaluation range, so this is only hit
        by out-of-range queries in user code).
        """
        if "_lists" not in self.__dict__:
            columns = (self.starts, self.n_nodes)
            lists = tuple(np.asarray(c, dtype=float).tolist() for c in columns)
            object.__setattr__(self, "_lists", lists)
        starts, n_nodes = self._lists
        idx = max(0, min(bisect_right(starts, t) - 1, len(starts) - 1))
        return starts[idx], n_nodes[idx]

    def potential_ue_cost(
        self, t: float, last_mitigation: Optional[float], restartable: bool, job=None
    ) -> float:
        """Potential UE cost at time ``t`` in node–hours (Equation 3).

        ``potential_lost_wallclock_time`` is the time since the start of the
        running job or, when the mitigation allows restart (checkpointing)
        and a mitigation happened after the job started, since that last
        mitigation.  ``job`` is :meth:`job_at` of ``t`` when the caller
        already holds it.
        """
        job_start, nodes = self.job_at(t) if job is None else job
        reference = job_start
        if restartable and last_mitigation is not None:
            reference = max(job_start, last_mitigation)
        lost = max(0.0, t - reference)
        return nodes * lost / HOUR


def _cdf(probabilities: np.ndarray) -> np.ndarray:
    """Normalised cumulative sum, built as ``Generator.choice`` builds it."""
    cdf = probabilities.cumsum()
    cdf /= cdf[-1]
    return cdf


class JobSequenceSampler:
    """Sample per-node job timelines from a job log (node-count weighted)."""

    def __init__(self, job_log: JobLog, seed=0) -> None:
        if len(job_log) == 0:
            raise ValueError("cannot sample from an empty job log")
        self.job_log = job_log
        self._rng = as_generator(seed, "job-sampler")
        weights = job_log.n_nodes.astype(float)
        probabilities = weights / weights.sum()
        self._durations = job_log.durations
        self._n_nodes = job_log.n_nodes
        length_weights = probabilities * self._durations
        length_total = length_weights.sum()
        # Draws are ``cdf.searchsorted(rng.random(size), side="right")``,
        # which is what ``Generator.choice(p=...)`` computes on every call:
        # the same draws from the same stream, without rebuilding the CDF.
        self._cdf = _cdf(probabilities)
        self._length_biased_cdf = (
            _cdf(length_weights / length_total) if length_total > 0 else None
        )

    def sample_jobs(self, size: int, rng=None) -> Tuple[np.ndarray, np.ndarray]:
        """Draw ``size`` (duration, n_nodes) pairs, node-count weighted."""
        rng = self._rng if rng is None else as_generator(rng)
        idx = self._cdf.searchsorted(rng.random(size), side="right")
        return self._durations[idx], self._n_nodes[idx]

    def sample_timeline(
        self, t_start: float, t_end: float, rng=None
    ) -> NodeJobTimeline:
        """Sample a back-to-back job sequence covering ``[t_start, t_end]``.

        The first job is drawn length-biased and starts at a uniformly random
        phase before ``t_start`` (the node is mid-job when observation
        begins); subsequent jobs run back-to-back, which matches the >95 %
        utilization of the production system.
        """
        check_positive("time range", t_end - t_start)
        if self._length_biased_cdf is None:
            raise ValueError("cannot sample a timeline: every job has zero duration")
        rng = self._rng if rng is None else as_generator(rng)

        # Length-biased first job: longer jobs are more likely to be the one
        # in progress at an arbitrary observation instant.
        first = int(self._length_biased_cdf.searchsorted(rng.random(), side="right"))
        first_duration = float(self._durations[first])
        t = t_start - float(rng.uniform(0.0, first_duration))
        starts, durations, nodes = [t], [first_duration], [float(self._n_nodes[first])]
        t += first_duration

        while t < t_end:
            batch_durations, batch_nodes = self.sample_jobs(16, rng=rng)
            for duration, n in zip(batch_durations.tolist(), batch_nodes.tolist()):
                starts.append(t)
                durations.append(duration)
                nodes.append(n)
                t += duration
                if t >= t_end:
                    break

        return NodeJobTimeline(
            starts=np.asarray(starts),
            durations=np.asarray(durations),
            n_nodes=np.asarray(nodes),
        )
