"""Slurm-like HPC workload substrate.

This package plays the role of the MareNostrum 4 job accounting log described
in Section 2.2 of the paper: a Slurm ``sacct`` extract with submission, start
and end times, and the number of allocated nodes for every job.  Because the
production log is proprietary, the package provides a generator of
statistically similar workloads (heavy-tailed durations, power-of-two-ish
node counts spanning orders of magnitude, >95 % cluster utilization), the
FCFS and backfill schedulers that place the generated jobs on a cluster,
node-count-weighted job sampling (Section 3.3.3) and job-size scaling
(Section 5.6).
"""

from repro.workload.generator import WorkloadConfig, WorkloadGenerator, generate_job_log
from repro.workload.job import JobLog, JobRecord
from repro.workload.sampling import JobSequenceSampler, NodeJobTimeline
from repro.workload.scaling import scale_job_log
from repro.workload.scheduler import ClusterScheduler, ScheduledJob

__all__ = [
    "ClusterScheduler",
    "JobLog",
    "JobRecord",
    "JobSequenceSampler",
    "NodeJobTimeline",
    "ScheduledJob",
    "WorkloadConfig",
    "WorkloadGenerator",
    "generate_job_log",
    "scale_job_log",
]
