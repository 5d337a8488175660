"""Job-mix stress shapes: diurnal submissions and backfill scheduling."""

from __future__ import annotations

import numpy as np
import pytest

from repro.utils.timeutils import DAY, HOUR
from repro.workload.generator import WorkloadConfig, WorkloadGenerator
from repro.workload.scheduler import BackfillScheduler, ClusterScheduler


def _generate(config: WorkloadConfig, seed: int = 5, days: int = 60):
    return WorkloadGenerator(
        config, n_cluster_nodes=48, duration_seconds=days * DAY, seed=seed
    ).generate()


def start_of(log, submit, width):
    """Start of the one job in ``log`` with this submit time and width."""
    (match,) = np.flatnonzero((log.submit == submit) & (log.n_nodes == width))
    return log.start[match]


class TestConfigValidation:
    def test_defaults_are_the_legacy_shape(self):
        config = WorkloadConfig()
        assert config.submit_pattern == "uniform"
        assert config.scheduler == "fcfs"

    @pytest.mark.parametrize(
        "field, value",
        [
            ("submit_pattern", "hourly"),
            ("scheduler", "sjf"),
            ("diurnal_amplitude", 1.5),
            ("diurnal_period_seconds", 0.0),
        ],
    )
    def test_invalid_values_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            WorkloadConfig(**{field: value})

    def test_new_fields_round_trip(self):
        config = WorkloadConfig(
            submit_pattern="diurnal",
            diurnal_amplitude=0.8,
            diurnal_period_seconds=12 * HOUR,
            scheduler="backfill",
        )
        assert WorkloadConfig.from_dict(config.to_dict()) == config

    def test_old_payloads_still_load(self):
        payload = WorkloadConfig().to_dict()
        for field in (
            "submit_pattern",
            "diurnal_amplitude",
            "diurnal_period_seconds",
            "scheduler",
        ):
            del payload[field]
        assert WorkloadConfig.from_dict(payload) == WorkloadConfig()


class TestDiurnalPattern:
    def test_uniform_default_is_bit_identical_to_before(self):
        base = _generate(WorkloadConfig())
        explicit = _generate(
            WorkloadConfig(submit_pattern="uniform", diurnal_amplitude=0.9)
        )
        np.testing.assert_array_equal(base.submit, explicit.submit)
        np.testing.assert_array_equal(base.start, explicit.start)

    def test_zero_amplitude_diurnal_matches_uniform(self):
        uniform = _generate(WorkloadConfig())
        flat = _generate(
            WorkloadConfig(submit_pattern="diurnal", diurnal_amplitude=0.0)
        )
        np.testing.assert_array_equal(uniform.submit, flat.submit)

    def test_diurnal_concentrates_submissions_within_the_day(self):
        diurnal = _generate(
            WorkloadConfig(submit_pattern="diurnal", diurnal_amplitude=0.9)
        )
        # Ignore the zeroed standing-backlog prefix.
        submits = diurnal.submit[diurnal.submit > 0.0]
        phase = np.mod(submits, DAY)
        counts, _ = np.histogram(phase, bins=8, range=(0.0, DAY))
        # A strongly diurnal pattern piles jobs into peak hours: the busiest
        # phase bin must clearly dominate the quietest one.
        assert counts.max() > 1.5 * max(1, counts.min())

    def test_uniform_pattern_has_flat_phase_histogram(self):
        uniform = _generate(WorkloadConfig())
        submits = uniform.submit[uniform.submit > 0.0]
        phase = np.mod(submits, DAY)
        counts, _ = np.histogram(phase, bins=8, range=(0.0, DAY))
        assert counts.max() < 1.5 * counts.min()

    def test_diurnal_is_deterministic(self):
        config = WorkloadConfig(submit_pattern="diurnal", diurnal_amplitude=0.7)
        a, b = _generate(config), _generate(config)
        np.testing.assert_array_equal(a.submit, b.submit)
        np.testing.assert_array_equal(a.start, b.start)


class TestBackfillScheduler:
    def test_earliest_start_validates_width(self):
        scheduler = BackfillScheduler(n_nodes=4)
        with pytest.raises(ValueError):
            scheduler.earliest_start(0.0, 5)

    def test_small_job_backfills_into_the_gap(self):
        # 3 nodes; A occupies two of them, B wants the whole machine and
        # must wait, C (1 node, short) fits before B's reservation.
        submits = [0.0, 0.0, 1.0]
        n_nodes = [2, 3, 1]
        durations = [100.0, 50.0, 10.0]

        fcfs = ClusterScheduler(n_nodes=3).schedule_all(
            submits, n_nodes, durations
        )
        backfill = BackfillScheduler(n_nodes=3).schedule_all(
            submits, n_nodes, durations
        )

        # FCFS makes C wait behind the machine-wide B.
        assert start_of(fcfs, 1.0, 1) == 150.0
        # Backfill slides C into the gap without delaying B's reservation.
        assert start_of(backfill, 1.0, 1) == 1.0
        assert start_of(backfill, 0.0, 3) == start_of(fcfs, 0.0, 3) == 100.0

    def test_backfilled_job_never_overruns_the_reservation(self):
        # The candidate ends exactly at the reservation: allowed.  One tick
        # longer: rejected (the head job would be delayed).
        for duration, expected_start in ((99.0, 1.0), (100.0, 150.0)):
            backfill = BackfillScheduler(n_nodes=3).schedule_all(
                [0.0, 0.0, 1.0], [2, 3, 1], [100.0, 50.0, duration]
            )
            assert start_of(backfill, 1.0, 1) == expected_start
            assert start_of(backfill, 0.0, 3) == 100.0  # head reservation held

    def test_backfill_depth_limits_the_scan(self):
        # With depth 1 only the first queued job may jump; the fitting job
        # sits at position 2 and must not be considered.
        submits = [0.0, 0.0, 1.0, 1.0]
        n_nodes = [2, 3, 3, 1]
        durations = [100.0, 50.0, 50.0, 10.0]
        shallow = BackfillScheduler(n_nodes=3, backfill_depth=1).schedule_all(
            submits, n_nodes, durations
        )
        deep = BackfillScheduler(n_nodes=3, backfill_depth=8).schedule_all(
            submits, n_nodes, durations
        )
        assert start_of(deep, 1.0, 1) == 1.0
        assert start_of(shallow, 1.0, 1) > 1.0

    def test_backfill_reduces_total_wait_on_a_random_mix(self):
        rng = np.random.default_rng(7)
        n = 200
        submits = np.sort(rng.uniform(0, 2000.0, n))
        n_nodes = rng.integers(1, 9, n)
        durations = rng.uniform(1.0, 60.0, n)
        fcfs = ClusterScheduler(n_nodes=8).schedule_all(
            submits, n_nodes, durations
        )
        backfill = BackfillScheduler(n_nodes=8).schedule_all(
            submits, n_nodes, durations
        )
        wait = lambda log: sum((log.start - log.submit).tolist())
        assert wait(backfill) <= wait(fcfs)

    def test_generator_dispatches_on_the_scheduler_field(self):
        fcfs = _generate(WorkloadConfig())
        backfill = _generate(WorkloadConfig(scheduler="backfill"))
        # Same submission stream (identical RNG consumption) ...
        n = min(len(fcfs), len(backfill))
        assert n > 0
        # ... but the backfill log waits no longer in aggregate.
        wait_fcfs = float(np.sum(fcfs.start - fcfs.submit))
        wait_backfill = float(np.sum(backfill.start - backfill.submit))
        assert wait_backfill <= wait_fcfs + 1e-6
