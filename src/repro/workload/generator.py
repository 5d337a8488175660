"""MareNostrum-4-like synthetic workload generator.

Section 2.2 of the paper uses one year of Slurm accounting data from the
general-purpose block of MareNostrum 4 (3456 nodes), whose jobs are "mainly
large-scale scientific HPC applications" with sizes and durations that differ
by orders of magnitude, and a system utilization generally above 95 %.

The generator reproduces those properties:

* node counts follow a truncated power-of-two-biased distribution spanning
  ``1 .. max_job_nodes`` (orders of magnitude of spread);
* durations are log-normal (heavy tailed);
* jobs are submitted with enough backlog that the FCFS scheduler keeps the
  cluster utilization above a configurable target.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.utils.rng import as_generator
from repro.utils.timeutils import HOUR
from repro.utils.validation import (
    check_fields, check_positive, fraction, one_of, positive
)
from repro.workload.job import JobLog
from repro.workload.scheduler import BackfillScheduler, ClusterScheduler


@dataclass(frozen=True)
class WorkloadConfig:
    """Parameters of the synthetic workload."""

    #: Largest job size, in nodes.
    max_job_nodes: int = positive(512, int)
    #: Mean job wallclock duration, seconds.
    mean_job_duration_seconds: float = positive(10 * HOUR)
    #: Log-normal sigma of the duration distribution.
    duration_sigma: float = positive(1.2)
    #: Geometric decay of the power-of-two node-count distribution: the
    #: probability of 2^(k+1) nodes is ``node_count_decay`` times that of 2^k.
    node_count_decay: float = fraction(0.62, strict=True)
    #: Target cluster utilization delivered by the generated log.
    target_utilization: float = fraction(0.95)
    #: Minimum job duration, seconds (very short jobs are not interesting).
    min_job_duration_seconds: float = positive(5 * 60.0)
    #: Submission-time shape: ``"uniform"`` (stationary backlog, the
    #: default) or ``"diurnal"`` (sinusoidal day/night arrival rate).  Both
    #: consume exactly one uniform draw per job, so switching patterns
    #: never perturbs the other random streams of the generator.
    submit_pattern: str = one_of("uniform", ("uniform", "diurnal"))
    #: Relative amplitude of the diurnal arrival-rate modulation, in [0, 1].
    diurnal_amplitude: float = fraction(0.6)
    #: Period of the diurnal cycle, seconds.
    diurnal_period_seconds: float = positive(24 * HOUR)
    #: Scheduling discipline: ``"fcfs"`` or ``"backfill"`` (EASY-style
    #: conservative backfilling, stressing queue-jump job mixes).
    scheduler: str = one_of("fcfs", ("fcfs", "backfill"))

    def __post_init__(self) -> None:
        check_fields(self)

    def to_dict(self) -> dict:
        """Versioned JSON-ready representation (see :mod:`repro.serialization`)."""
        from repro.serialization import simple_to_dict

        return simple_to_dict(self, "workload_config")

    @classmethod
    def from_dict(cls, data: dict) -> "WorkloadConfig":
        """Inverse of :meth:`to_dict`."""
        from repro.serialization import simple_from_dict

        return simple_from_dict(cls, data, "workload_config")

    def node_count_probabilities(self) -> np.ndarray:
        """Probability of each power-of-two node count up to the maximum."""
        n_classes = int(np.floor(np.log2(self.max_job_nodes))) + 1
        weights = self.node_count_decay ** np.arange(n_classes)
        return weights / weights.sum()

    def node_count_values(self) -> np.ndarray:
        """The power-of-two node counts the generator draws from."""
        n_classes = int(np.floor(np.log2(self.max_job_nodes))) + 1
        return np.minimum(2 ** np.arange(n_classes), self.max_job_nodes)


class WorkloadGenerator:
    """Generate a Slurm-like job log for a cluster of ``n_cluster_nodes``."""

    def __init__(
        self,
        config: Optional[WorkloadConfig] = None,
        n_cluster_nodes: int = 256,
        duration_seconds: float = 365 * 24 * HOUR,
        seed=0,
    ) -> None:
        check_positive("n_cluster_nodes", n_cluster_nodes)
        check_positive("duration_seconds", duration_seconds)
        self.config = config or WorkloadConfig()
        self.n_cluster_nodes = int(n_cluster_nodes)
        self.duration = float(duration_seconds)
        self._rng = as_generator(seed, "workload")

    # ------------------------------------------------------------------ #
    def sample_node_counts(self, size: int) -> np.ndarray:
        """Draw job node counts (power-of-two biased, truncated)."""
        cfg = self.config
        values = np.minimum(cfg.node_count_values(), self.n_cluster_nodes)
        probs = cfg.node_count_probabilities()
        return self._rng.choice(values, size=size, p=probs)

    def sample_durations(self, size: int) -> np.ndarray:
        """Draw job durations (log-normal, truncated below)."""
        cfg = self.config
        sigma = cfg.duration_sigma
        mu = np.log(cfg.mean_job_duration_seconds) - 0.5 * sigma**2
        durations = self._rng.lognormal(mu, sigma, size=size)
        return np.maximum(durations, cfg.min_job_duration_seconds)

    def _sample_submit_times(self, n_jobs: int) -> np.ndarray:
        """Draw sorted submission times following the configured pattern.

        The diurnal shape is produced by inverse-CDF transforming the very
        same uniform draw the stationary pattern uses, so both patterns
        consume an identical number of random values.
        """
        cfg = self.config
        span = 0.9 * self.duration
        submits = np.sort(self._rng.uniform(0.0, span, n_jobs))
        if cfg.submit_pattern == "uniform" or cfg.diurnal_amplitude == 0.0:
            return submits
        # Arrival rate lambda(t) = 1 + a*sin(2*pi*t/T); invert its CDF on a
        # fine grid (deterministic, no extra RNG consumption).
        grid = np.linspace(0.0, span, 4097)
        omega = 2.0 * np.pi / cfg.diurnal_period_seconds
        cdf = grid + (cfg.diurnal_amplitude / omega) * (1.0 - np.cos(omega * grid))
        cdf /= cdf[-1]
        return np.interp(submits / span, cdf, grid)

    def generate(self) -> JobLog:
        """Produce a job log whose execution covers the production period."""
        cfg = self.config
        capacity_node_seconds = self.n_cluster_nodes * self.duration
        target_node_seconds = cfg.target_utilization * capacity_node_seconds

        # Draw jobs in chunks until the requested work fills the target
        # utilization, then schedule them.
        mean_job_node_seconds = (
            float(np.dot(cfg.node_count_probabilities(), cfg.node_count_values()))
            * cfg.mean_job_duration_seconds
        )
        est_jobs = max(8, int(target_node_seconds / mean_job_node_seconds))

        node_counts = self.sample_node_counts(est_jobs)
        durations = self.sample_durations(est_jobs)
        work = np.cumsum(node_counts * durations)
        n_jobs = int(np.searchsorted(work, target_node_seconds)) + 1
        while n_jobs >= len(node_counts):
            extra_nodes = self.sample_node_counts(est_jobs)
            extra_durations = self.sample_durations(est_jobs)
            node_counts = np.concatenate([node_counts, extra_nodes])
            durations = np.concatenate([durations, extra_durations])
            work = np.cumsum(node_counts * durations)
            n_jobs = int(np.searchsorted(work, target_node_seconds)) + 1
        node_counts = node_counts[:n_jobs]
        durations = durations[:n_jobs]

        # Spread submissions over the period with a standing backlog so the
        # scheduler can keep the machine busy from the start.
        submits = self._sample_submit_times(n_jobs)
        submits[: max(1, n_jobs // 20)] = 0.0

        if cfg.scheduler == "backfill":
            scheduler = BackfillScheduler(self.n_cluster_nodes)
        else:
            scheduler = ClusterScheduler(self.n_cluster_nodes)
        log = scheduler.schedule_all(submits, node_counts, durations)
        # Keep only jobs that start within the observed period.
        return log.select(log.start < self.duration)


def generate_job_log(
    config: Optional[WorkloadConfig] = None,
    n_cluster_nodes: int = 256,
    duration_seconds: float = 365 * 24 * HOUR,
    seed=0,
) -> JobLog:
    """Convenience wrapper around :class:`WorkloadGenerator`."""
    return WorkloadGenerator(
        config, n_cluster_nodes=n_cluster_nodes, duration_seconds=duration_seconds, seed=seed
    ).generate()
