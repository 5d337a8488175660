"""Parameters of the per-DIMM fault processes used by the telemetry generator.

The generator does not try to model DRAM physics; it reproduces the
*statistical properties* of the MareNostrum 3 logs that the paper identifies
as load-bearing for mitigation-policy design (Sections 2.1 and 3.3.4):

* corrected errors are rare per DIMM but highly bursty, and a small fraction
  of DIMMs produce the vast majority of CEs;
* CE locality follows fault geometry (row / column / bank / rank / transient
  faults), which drives the "number of ranks/banks/rows/columns with CEs"
  features of Table 1;
* uncorrected errors appear in bursts: a node that suffers one UE tends to
  produce several more while it is quarantined for testing, so only the first
  UE of each burst matters for production (333 raw UEs → 67 first UEs);
* a sizeable minority of UEs have *no* preceding event within a day, making
  them unpredictable for event-triggered policies (25 of 67 in the paper);
* UE warnings fire when the correctable-error logging limit is reached;
* critical over-temperature shutdowns are counted as UEs;
* some DIMMs are retired administratively with no preceding errors, which
  introduces the training bias the paper removes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Optional, Tuple

from repro.utils.timeutils import DAY, HOUR, MINUTE
from repro.utils.validation import (
    check_fields, check_positive, fraction, non_negative, positive, sequence_of
)


class FaultType(enum.IntEnum):
    """Geometry of a DRAM fault, controlling CE address locality."""

    TRANSIENT = 0
    ROW = 1
    COLUMN = 2
    BANK = 3
    RANK = 4


@dataclass(frozen=True)
class FaultModelConfig:
    """Tunable parameters of the synthetic fault processes."""

    # -- corrected-error producing faults ------------------------------- #
    #: Fraction of DIMMs that develop a CE-producing fault during the period.
    faulty_dimm_fraction: float = fraction(0.10)
    #: Mean number of CE bursts emitted by a faulty DIMM.
    mean_bursts_per_faulty_dimm: float = positive(9.0)
    #: Mean number of CE log records per burst.
    mean_records_per_burst: float = positive(18.0)
    #: Mean spread of a burst in seconds (records are exponentially spaced).
    burst_spread_seconds: float = positive(45 * MINUTE)
    #: Mean total corrected errors carried by one faulty DIMM (heavy-tailed).
    mean_ces_per_faulty_dimm: float = positive(600.0)
    #: Log-normal sigma of the per-DIMM total CE count.
    ce_count_sigma: float = non_negative(1.6)
    #: Mean active lifetime of a fault, seconds.
    mean_fault_lifetime_seconds: float = positive(90 * DAY)
    #: Probability that a CE is found by the patrol scrubber.
    scrubber_fraction: float = fraction(0.35)
    #: Relative CE incidence per manufacturer (A, B, C); normalised internally.
    manufacturer_ce_weights: Tuple[float, ...] = sequence_of(
        (1.4, 0.7, 1.0), non_negative()
    )

    # -- uncorrected errors --------------------------------------------- #
    #: Expected number of distinct UE bursts (i.e. "first" UEs, §2.1.3).
    n_ue_bursts: int = non_negative(24, int)
    #: Mean number of *additional* UEs within the week-long burst.
    ue_burst_repeat_mean: float = non_negative(4.0)
    #: Fraction of UE bursts that strike DIMMs with no prior CE history.
    silent_ue_fraction: float = fraction(0.35)
    #: Fraction of UE bursts that are critical over-temperature shutdowns.
    overtemp_fraction: float = fraction(0.08)
    #: Relative UE incidence per manufacturer (A, B, C); normalised internally.
    manufacturer_ue_weights: Tuple[float, ...] = sequence_of(
        (1.2, 0.9, 1.0), non_negative()
    )
    #: Week-long quarantine applied to a node after a UE (§2.1.3).
    quarantine_seconds: float = positive(7 * DAY)

    # -- correlated multi-node burst failures --------------------------- #
    #: Number of correlated failure incidents striking *several adjacent
    #: nodes* at once (rack-level power/cooling events).  ``0`` — the
    #: default — disables the mode entirely and leaves every RNG stream of
    #: the generator untouched, so existing scenarios are bit-identical.
    correlated_bursts: int = non_negative(0, int)
    #: Number of consecutive nodes struck by each correlated incident.
    correlated_burst_width: int = positive(4, int)
    #: Temporal span within which the incident's first UEs land, seconds.
    correlated_burst_span_seconds: float = positive(1 * HOUR)
    #: Mean follow-up UEs per affected node within its quarantine window.
    correlated_burst_repeat_mean: float = non_negative(2.0)

    # -- warnings, boots, retirement ------------------------------------ #
    #: Correctable-error logging limit that triggers a UE warning.
    ce_logging_limit: int = positive(256, int)
    #: Mean interval between routine node reboots, seconds.
    mean_boot_interval_seconds: float = positive(60 * DAY)
    #: Probability that a node about to suffer a UE reboots in the prior days.
    pre_ue_boot_probability: float = fraction(0.4)
    #: Number of DIMMs retired administratively during the period (§2.1.4).
    n_retired_dimms: int = non_negative(4, int)
    #: Fraction of retired DIMMs that had no preceding errors (paper: most).
    retired_error_free_fraction: float = fraction(0.8)

    def __post_init__(self) -> None:
        check_fields(self)

    # ------------------------------------------------------------------ #
    @staticmethod
    def scaled_for(
        n_dimms: int,
        duration_seconds: float,
        target_ues: int,
        target_ces: Optional[float] = None,
        n_retired_dimms: Optional[int] = None,
    ) -> "FaultModelConfig":
        """Derive a configuration hitting approximate volume targets.

        Parameters
        ----------
        n_dimms:
            Total DIMMs in the cluster.
        duration_seconds:
            Length of the simulated production period.
        target_ues:
            Desired number of distinct UE bursts (first UEs after reduction).
        target_ces:
            Desired total number of corrected errors.  When omitted, the
            default per-DIMM CE volume is kept.
        n_retired_dimms:
            Number of administratively retired DIMMs; defaults to roughly
            the paper's proportion (51 out of ~25k DIMMs).
        """
        check_positive("n_dimms", n_dimms)
        check_positive("duration_seconds", duration_seconds)
        base = FaultModelConfig()
        faulty_fraction = base.faulty_dimm_fraction
        mean_ces = base.mean_ces_per_faulty_dimm
        if target_ces is not None:
            n_faulty = max(1.0, faulty_fraction * n_dimms)
            mean_ces = float(target_ces) / n_faulty
        if n_retired_dimms is None:
            n_retired_dimms = max(2, int(round(51 * n_dimms / 25320)))
        return replace(
            base,
            n_ue_bursts=int(target_ues),
            mean_ces_per_faulty_dimm=mean_ces,
            n_retired_dimms=int(n_retired_dimms),
        )

    # ------------------------------------------------------------------ #
    @staticmethod
    def from_burst_statistics(
        stats,
        base: Optional["FaultModelConfig"] = None,
    ) -> "FaultModelConfig":
        """Calibrate the UE burst process from measured burst statistics.

        ``stats`` is a :class:`~repro.analysis.burst.BurstStatistics` (e.g.
        of an ingested mcelog dump): the number of distinct bursts becomes
        ``n_ue_bursts``, the mean burst size minus the first UE becomes the
        per-burst repeat mean, and the grouping window becomes the
        quarantine length — so a synthetic scenario reproduces the measured
        raw-to-first UE reduction factor.  ``base`` supplies every other
        field (default: the stock configuration).
        """
        base = base or FaultModelConfig()
        return replace(
            base,
            n_ue_bursts=int(stats.n_first_ues),
            ue_burst_repeat_mean=max(0.0, float(stats.mean_burst_size) - 1.0),
            quarantine_seconds=float(stats.burst_window_seconds),
        )

    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        """Versioned JSON-ready representation (see :mod:`repro.serialization`)."""
        from repro.serialization import simple_to_dict

        return simple_to_dict(self, "fault_model_config")

    @classmethod
    def from_dict(cls, data: dict) -> "FaultModelConfig":
        """Inverse of :meth:`to_dict`."""
        from repro.serialization import simple_from_dict

        return simple_from_dict(cls, data, "fault_model_config")
