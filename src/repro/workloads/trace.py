"""Synthetic Alibaba-style GPU-cluster trace.

Section 5.3 samples fill-job arrivals from the public Alibaba GPU-cluster
traces (Weng et al., 2023): each trace job has an arrival time, a requested
GPU quantity, a service time and a quality-of-service class.  The paper
filters out latency-sensitive jobs, converts (GPUs x service time) to
GPU-hours, and keeps only jobs under 9 GPU-minutes (physical cluster) or
1 GPU-hour (simulation), which retain 55% / 81.6% of jobs respectively.

The real trace cannot be shipped offline, so :class:`TraceGenerator`
synthesises a statistically similar trace: Poisson arrivals with a diurnal
modulation, log-normal service times (heavy tail), a truncated-geometric
GPU-count distribution and a configurable latency-sensitive share.  The
calibration constants are chosen so the paper's two filter retention rates
are approximately reproduced, which is the property the scheduler
experiments actually depend on.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import check_fraction, check_positive


class QosClass(str, enum.Enum):
    """Quality-of-service classes in the (synthetic) cluster trace."""

    LATENCY_SENSITIVE = "latency_sensitive"
    BEST_EFFORT = "best_effort"


@dataclass(frozen=True)
class TraceJob:
    """One job record of the cluster trace."""

    job_id: str
    arrival_time: float
    num_gpus: int
    service_time: float
    qos: QosClass

    @property
    def gpu_seconds(self) -> float:
        """Total GPU time requested by the job."""
        return self.num_gpus * self.service_time

    @property
    def gpu_hours(self) -> float:
        """GPU-hours requested by the job."""
        return self.gpu_seconds / 3_600.0


@dataclass
class TraceGenerator:
    """Synthesises an Alibaba-like stream of GPU jobs.

    Parameters
    ----------
    arrival_rate_per_hour:
        Mean job arrival rate.
    latency_sensitive_fraction:
        Share of jobs with latency-sensitive QoS (filtered out downstream).
    service_time_median / service_time_sigma:
        Log-normal parameters of per-job service time, in seconds.
    max_gpus:
        Upper bound on requested GPUs (geometric distribution, truncated).
    diurnal_amplitude:
        Strength of the 24-hour sinusoidal modulation of the arrival rate.
    """

    arrival_rate_per_hour: float = 120.0
    latency_sensitive_fraction: float = 0.30
    service_time_median: float = 330.0
    service_time_sigma: float = 2.45
    gpu_geometric_p: float = 0.7
    max_gpus: int = 64
    diurnal_amplitude: float = 0.3
    seed: RngLike = 0

    def __post_init__(self) -> None:
        check_positive(self.arrival_rate_per_hour, "arrival_rate_per_hour")
        check_fraction(self.latency_sensitive_fraction, "latency_sensitive_fraction")
        check_positive(self.service_time_median, "service_time_median")
        check_positive(self.service_time_sigma, "service_time_sigma")
        check_fraction(self.gpu_geometric_p, "gpu_geometric_p", inclusive=False)
        check_positive(self.max_gpus, "max_gpus")
        check_fraction(self.diurnal_amplitude, "diurnal_amplitude")

    def generate(self, duration_seconds: float, *, rng: RngLike = None) -> List[TraceJob]:
        """Generate all jobs arriving within ``[0, duration_seconds)``."""
        check_positive(duration_seconds, "duration_seconds")
        gen = ensure_rng(rng if rng is not None else self.seed)
        exponential = gen.exponential
        random = gen.random
        standard_normal = gen.standard_normal
        geometric = gen.geometric
        # Loop-invariant operands, hoisted without changing any expression's
        # evaluation order.  The numpy ufuncs stay: math.exp differs from
        # np.exp in the last bit for some arguments.
        mean_gap = 1.0 / (self.arrival_rate_per_hour / 3_600.0)
        two_pi = 2.0 * np.pi
        amplitude = self.diurnal_amplitude
        peak = 1.0 + amplitude
        median = self.service_time_median
        sigma = self.service_time_sigma
        gpu_p = self.gpu_geometric_p
        max_gpus = self.max_gpus
        latency_sensitive_fraction = self.latency_sensitive_fraction
        jobs: List[TraceJob] = []
        t = 0.0
        index = 0
        while True:
            # Thinned non-homogeneous Poisson process with diurnal modulation.
            t += exponential(mean_gap)
            if t >= duration_seconds:
                break
            phase = two_pi * (t % 86_400.0) / 86_400.0
            accept_prob = (1.0 + amplitude * np.sin(phase)) / peak
            if random() > accept_prob:
                continue
            service = float(median * np.exp(sigma * standard_normal()))
            num_gpus = int(min(max_gpus, geometric(gpu_p)))
            qos = (
                QosClass.LATENCY_SENSITIVE
                if random() < latency_sensitive_fraction
                else QosClass.BEST_EFFORT
            )
            jobs.append(
                TraceJob(
                    job_id=f"trace-{index}",
                    arrival_time=float(t),
                    num_gpus=max(1, num_gpus),
                    service_time=service,
                    qos=qos,
                )
            )
            index += 1
        return jobs


@dataclass(frozen=True)
class TraceFilter:
    """The paper's trace filtering pipeline.

    Drops latency-sensitive jobs, then drops jobs whose GPU-time exceeds the
    cap (9 GPU-minutes for the physical cluster, 1 GPU-hour for simulation).
    """

    max_gpu_seconds: float = 3_600.0
    drop_latency_sensitive: bool = True

    #: Cap used for the paper's physical-cluster experiments (9 GPU-minutes).
    PHYSICAL_CAP_SECONDS = 9 * 60.0
    #: Cap used for the paper's simulation experiments (1 GPU-hour).
    SIMULATION_CAP_SECONDS = 3_600.0

    def __post_init__(self) -> None:
        check_positive(self.max_gpu_seconds, "max_gpu_seconds")

    def apply(self, jobs: Sequence[TraceJob]) -> List[TraceJob]:
        """Return the jobs surviving the filter, in arrival order."""
        kept = []
        for job in jobs:
            if self.drop_latency_sensitive and job.qos is QosClass.LATENCY_SENSITIVE:
                continue
            if job.gpu_seconds > self.max_gpu_seconds:
                continue
            kept.append(job)
        return sorted(kept, key=lambda j: j.arrival_time)

    def retention(self, jobs: Sequence[TraceJob]) -> float:
        """Fraction of non-latency-sensitive jobs that survive the size cap.

        The paper reports this quantity (55% for the 9-GPU-minute cap,
        81.6% for the 1-GPU-hour cap).
        """
        eligible = [
            j
            for j in jobs
            if not (self.drop_latency_sensitive and j.qos is QosClass.LATENCY_SENSITIVE)
        ]
        if not eligible:
            return 0.0
        kept = [j for j in eligible if j.gpu_seconds <= self.max_gpu_seconds]
        return len(kept) / len(eligible)
