"""The Fill Job Executor.

One executor runs per device.  Given the device's repeating bubble cycle it

1. evaluates the fill job under candidate execution configurations (batch
   size, CPU offloading, activation checkpointing), discarding those whose
   device footprint exceeds the bubbles' usable free memory,
2. runs the Fill Job Execution Plan Algorithm (Algorithm 1) for the
   surviving configurations and keeps the one with the highest effective
   throughput, skipping those whose throughput bound proves they cannot
   win (see :meth:`FillJobExecutor._search`),
3. enforces the per-process memory cap so that a fill-job OOM can never
   affect the main job, and
4. exposes the throughput/recovered-FLOPs estimates the scheduler and the
   cluster simulator use to place jobs and advance time.

Fill jobs executing inside bubbles are slower than in exclusive execution
for three reasons the paper calls out (Section 6.2): scarce memory limits
the batch size / forces offloading, execution is interrupted at every
bubble end, and each bubble restarts with cold caches.  The first two come
out of the profile and the plan; the third is modelled by
:meth:`repro.models.efficiency.EfficiencyModel.bubble_efficiency`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Optional, Sequence, Tuple

from repro.core.config import PipeFillConfig
from repro.core.plan import (
    MAX_PLAN_CYCLES,
    ExecutionPlan,
    GraphPartition,
    PackedPlan,
    PlanError,
    pack_fill_job,
    plan_fill_job,
)
from repro.hardware.device import DeviceSpec, V100_16GB
from repro.hardware.memory import DeviceOOMError, MemoryAllocator
from repro.models.base import ModelSpec
from repro.models.configs import ExecutionConfig, JobType, candidate_configs
from repro.models.efficiency import DEFAULT_EFFICIENCY, EfficiencyModel
from repro.models.profiles import (
    ModelProfile,
    best_profile,
    clear_profile_memo,
    profile_memo,
    profile_model,
)
from repro.pipeline.bubbles import BubbleCycle
from repro.utils import plancache
from repro.utils.validation import check_positive

# -- shared estimate caches ----------------------------------------------------
#
# An estimate depends only on (bubble cycle, device, PipeFill config,
# efficiency model, model, job type) -- never on scheduler state -- so
# executors constructed with identical inputs (every device of a stage, every
# run over the same system) can share one memo instead of each re-running the
# Algorithm-1 plan search.  (Profiles do not depend on the cycle; they come
# from the process-wide memo in :mod:`repro.models.profiles`.)  Cycle,
# device and config are frozen dataclasses keyed by value.  The efficiency
# model holds dicts and the model spec would be expensive to hash on the
# estimate hot path, so both are keyed by identity: the efficiency id is
# resolved once per executor and pinned, and every cached entry stores the
# model spec it was computed for (the strong reference keeps that id from
# ever being reused, so two *different* specs -- even ones sharing a
# registry name -- can never collide, while the registry's
# one-canonical-spec-per-name behaviour still shares entries across runs).

#: One cached estimate: the model it was computed for plus the result.
_EstimateEntry = Tuple[ModelSpec, Optional["FillExecutionEstimate"]]

_PINNED_EFFICIENCY: Dict[int, EfficiencyModel] = {}
_SHARED_ESTIMATES: Dict[tuple, Dict[Tuple[int, JobType], "_EstimateEntry"]] = {}
_SHARED_ISOLATED: Dict[tuple, Dict[Tuple[int, JobType], Tuple[ModelSpec, float]]] = {}

#: Crude growth bounds: when this many distinct (cycle, device, config,
#: efficiency) namespaces accumulate (a long-lived process iterating many
#: systems in one process), the shared maps are flushed wholesale; and a
#: single namespace fed distinct spec objects (a non-memoizing model
#: resolver) is cleared once it holds this many entries.  Sized to hold
#: every namespace of one full paper reproduction (275), so later figures
#: reuse the plan searches of earlier ones.  Executors constructed earlier
#: keep their (now orphaned) namespace dicts and stay correct; only future
#: sharing restarts cold.
_MAX_SHARED_NAMESPACES = 512
_MAX_NAMESPACE_ENTRIES = 4096

# -- the config-search bound ---------------------------------------------------
#
# A packed plan spanning ``nc`` cycles visits each fillable bubble ``b`` at
# most once per cycle, running ``d <= cap_b`` seconds of work (``cap_b`` is
# the bubble's usable duration), and ``d * bubble_efficiency(d)`` is
# non-decreasing in ``d`` (the EfficiencyModel contract).  So the plan's
# effective work is at most ``nc * W`` with ``W = sum_b cap_b * eff(cap_b)``,
# and a config with batch size ``bs`` and iteration time ``T`` can reach at
# most ``(W / period) * bs / T`` effective samples/s.  Both sides of that
# inequality are float evaluations, so the bound is padded:
#
# * each ``eff`` term by an absolute ``_EFFICIENCY_SLACK``: the closed form
#   rounds to within ~1e-15 absolute, which relative to ``eff`` is unbounded
#   as ``cold_efficiency`` nears 0;
# * the whole bound by a relative margin of ``2**-52`` per summand a plan or
#   the bound can add (at most ``MAX_PLAN_CYCLES + 1`` visits per bubble),
#   plus 1e-9 for the handful of products and quotients around the sums.

_EFFICIENCY_SLACK = 1e-12
_BOUND_MARGIN = 1e-9


def _efficiency_id(efficiency: EfficiencyModel) -> int:
    # repro: lint-ignore[hash-id] -- identity-memo key; the object is pinned
    # below so the id cannot be reused, and the key is never ordered,
    # serialized or digested.
    key = id(efficiency)
    _PINNED_EFFICIENCY.setdefault(key, efficiency)
    return key


def _flush_if_oversized() -> None:
    if len(_SHARED_ESTIMATES) > _MAX_SHARED_NAMESPACES:
        _SHARED_ESTIMATES.clear()
        _SHARED_ISOLATED.clear()
        _PINNED_EFFICIENCY.clear()


def clear_shared_caches() -> None:
    """Drop all process-wide estimate/profile/trace memos (benchmarks use
    this to measure cold-start cost; tests use it for isolation)."""
    from repro.models.registry import clear_model_cache
    from repro.workloads.generator import clear_trace_memo
    from repro.workloads.model_hub import clear_default_distributions

    _SHARED_ESTIMATES.clear()
    _SHARED_ISOLATED.clear()
    _PINNED_EFFICIENCY.clear()
    clear_profile_memo()
    clear_model_cache()
    clear_trace_memo()
    clear_default_distributions()


@dataclass(frozen=True)
class FillExecutionEstimate:
    """Predicted behaviour of one fill job on one device's bubble cycle.

    All "effective" quantities include the packing and warm-up losses of
    bubble execution; "isolated" quantities describe the same job running
    alone on an exclusive device.
    """

    model_name: str
    job_type: JobType
    profile: ModelProfile
    #: The execution plan behind the estimate: an eager ExecutionPlan in
    #: brute-force reference mode, a lazily-materialized PackedPlan on the
    #: cached fast path (same API, identical metrics).
    plan: "ExecutionPlan | PackedPlan"
    samples_per_cycle: float
    flops_per_cycle: float
    used_bubble_seconds_per_cycle: float
    cycle_period: float
    isolated_samples_per_second: float

    @property
    def effective_samples_per_second(self) -> float:
        """Fill-job throughput per wall-clock second (bubbles only)."""
        if self.cycle_period <= 0:
            return 0.0
        return self.samples_per_cycle / self.cycle_period

    @property
    def recovered_tflops(self) -> float:
        """TFLOP/s over the bubble durations used (Figure 7a's metric)."""
        if self.used_bubble_seconds_per_cycle <= 0:
            return 0.0
        return self.flops_per_cycle / self.used_bubble_seconds_per_cycle / 1e12

    @property
    def recovered_tflops_wallclock(self) -> float:
        """TFLOP/s averaged over wall-clock time (Figure 1/4c's metric)."""
        if self.cycle_period <= 0:
            return 0.0
        return self.flops_per_cycle / self.cycle_period / 1e12

    @property
    def relative_performance(self) -> float:
        """Throughput while filling relative to exclusive execution (Fig. 7b).

        This is the ``P`` in the paper's GPUs-saved estimate ``C * B * P``.
        """
        if self.isolated_samples_per_second <= 0 or self.used_bubble_seconds_per_cycle <= 0:
            return 0.0
        per_bubble_second = self.samples_per_cycle / self.used_bubble_seconds_per_cycle
        return per_bubble_second / self.isolated_samples_per_second

    @property
    def slowdown(self) -> float:
        """Exclusive-to-filled slowdown factor (>= 1)."""
        rel = self.relative_performance
        return float("inf") if rel == 0 else 1.0 / rel

    def processing_time(self, num_samples: float) -> float:
        """Wall-clock seconds to process ``num_samples`` on this device's bubbles."""
        check_positive(num_samples, "num_samples")
        if self.samples_per_cycle <= 0:
            return float("inf")
        cycles = num_samples / self.samples_per_cycle
        return cycles * self.cycle_period

    def flops_for_samples(self, num_samples: float) -> float:
        """FLOPs executed when processing ``num_samples``."""
        if self.samples_per_cycle <= 0:
            return 0.0
        return num_samples * (self.flops_per_cycle / self.samples_per_cycle)


class FillJobExecutor:
    """Per-device fill-job executor.

    Parameters
    ----------
    cycle:
        The device's repeating bubble cycle (from the instrumented engine,
        the analytic main-job model, or a synthetic cycle).
    device:
        The device spec (used for timing and memory capacities).
    config:
        PipeFill tunables.
    efficiency:
        Efficiency model shared with the profiler.
    """

    def __init__(
        self,
        cycle: BubbleCycle,
        *,
        device: DeviceSpec = V100_16GB,
        config: Optional[PipeFillConfig] = None,
        efficiency: EfficiencyModel = DEFAULT_EFFICIENCY,
    ) -> None:
        self.cycle = cycle
        self.device = device
        self.config = config or PipeFillConfig()
        self.efficiency = efficiency
        # Estimates are pure functions of the constructor inputs, so the
        # caches are shared process-wide between executors built with the
        # same (cycle, device, config, efficiency) -- see module docs above.
        _flush_if_oversized()
        eff_id = _efficiency_id(efficiency)
        estimate_key = (cycle, device, self.config, eff_id)
        device_key = (device, eff_id)
        self._estimate_cache: Dict[Tuple[int, JobType], _EstimateEntry] = (
            _SHARED_ESTIMATES.setdefault(estimate_key, {})
        )
        self._isolated_cache: Dict[Tuple[int, JobType], Tuple[ModelSpec, float]] = (
            _SHARED_ISOLATED.setdefault(device_key, {})
        )
        self._profiles = profile_memo(device, efficiency)
        #: Free memory (after the safety margin) available in the tightest
        #: bubble; fixed for the executor's lifetime like the cycle itself.
        self.usable_memory_bytes: float = self.config.usable_bubble_memory(
            cycle.min_free_memory_bytes
        )
        # Content hash of this executor's estimate namespace for the
        # persistent cross-process plan cache (computed lazily: hashing
        # the cycle is pointless when the disk cache is disabled).
        self._disk_namespace: Optional[str] = None

    def _disk_key(self, model: ModelSpec, job_type: JobType) -> tuple:
        if self._disk_namespace is None:
            self._disk_namespace = "-".join(
                (
                    plancache.content_key(self.cycle),
                    plancache.content_key(self.device),
                    plancache.content_key(self.config),
                    plancache.content_key(self.efficiency),
                )
            )
        return (self._disk_namespace, plancache.content_key(model), job_type.value)

    # -- estimation ------------------------------------------------------------

    def _isolated_throughput(self, model: ModelSpec, job_type: JobType) -> float:
        # repro: lint-ignore[hash-id] -- identity-memo cache key; the entry
        # pins the spec and the key is never ordered or serialized.
        key = (id(model), job_type)
        entry = self._isolated_cache.get(key)
        # The entry pins the spec it was computed for, so a hit can only
        # ever be the same object (an id cannot be reused while pinned).
        if entry is None or entry[0] is not model:
            profile = best_profile(
                model,
                job_type,
                memory_limit_bytes=self.device.usable_memory_bytes,
                device=self.device,
                efficiency_model=self.efficiency,
            )
            entry = (model, 0.0 if profile is None else profile.throughput_samples_per_s)
            if len(self._isolated_cache) >= _MAX_NAMESPACE_ENTRIES:
                self._isolated_cache.clear()
            self._isolated_cache[key] = entry
        return entry[1]

    @cached_property
    def _work_rate_bound(self) -> float:
        """``W / period`` of the config-search bound (module docs above),
        padded for rounding; fixed for the executor's lifetime like the
        cycle, and computed on the first search (a disk-cache hit needs
        none)."""
        if self.cycle.period <= 0:
            return math.inf
        caps = [
            cap
            for cap in (
                self.config.usable_bubble_seconds(b.duration)
                for b in self.cycle.fillable_bubbles
            )
            if cap > 0.0
        ]
        work = 0.0
        for cap in caps:
            work += cap * (self.efficiency.bubble_efficiency(cap) + _EFFICIENCY_SLACK)
        margin = _BOUND_MARGIN + (MAX_PLAN_CYCLES + 1) * len(caps) * 2.0**-52
        return work / self.cycle.period * (1.0 + margin)

    def _throughput_bound(self, profile: ModelProfile) -> float:
        """Upper bound on the effective samples/s of any plan of ``profile``."""
        iteration_time = profile.graph.total_duration
        if iteration_time <= 0:
            return math.inf
        return self._work_rate_bound * profile.config.batch_size / iteration_time

    def _evaluate_config(
        self,
        model: ModelSpec,
        job_type: JobType,
        profile: ModelProfile,
        *,
        use_cache: bool = True,
    ) -> Optional[FillExecutionEstimate]:
        try:
            if use_cache:
                # The scalar Algorithm-1 fast path: identical plan, node
                # tuples materialized lazily.  The brute-force reference mode
                # runs the node-by-node planner, so the differential oracles
                # and golden digests prove the two packers bit-identical.
                plan = pack_fill_job(profile.graph, self.cycle, self.config)
            else:
                plan = plan_fill_job(profile.graph, self.cycle, self.config)
        except PlanError:
            return None

        num_cycles = max(plan.num_cycles, 1)
        effective_work = 0.0
        used_bubble = 0.0
        bubble_durations = [b.duration for b in plan.bubbles]
        if isinstance(plan, PackedPlan):
            # Same accumulation order as the partition loop below, fed from
            # the packed per-visit durations instead of materialized nodes.
            for bubble_index, duration in plan.nonempty_visits():
                effective_work += duration * self.efficiency.bubble_efficiency(
                    duration
                )
                used_bubble += bubble_durations[bubble_index]
        else:
            for partition in plan.partitions:
                if partition.is_empty:
                    continue
                effective_work += partition.duration * self.efficiency.bubble_efficiency(
                    partition.duration
                )
                used_bubble += bubble_durations[partition.bubble_index]
        # Convert completed node-time back into samples and FLOPs via the
        # steady-state per-iteration totals.
        iterations_completed = effective_work / profile.graph.total_duration
        samples = iterations_completed * profile.config.batch_size
        flops = iterations_completed * profile.graph.total_flops
        return FillExecutionEstimate(
            model_name=model.name,
            job_type=job_type,
            profile=profile,
            plan=plan,
            samples_per_cycle=samples / num_cycles,
            flops_per_cycle=flops / num_cycles,
            used_bubble_seconds_per_cycle=used_bubble / num_cycles,
            cycle_period=self.cycle.period,
            isolated_samples_per_second=self._isolated_throughput(model, job_type),
        )

    def build_estimate(
        self,
        model: ModelSpec,
        job_type: JobType,
        *,
        configs: Optional[Sequence[ExecutionConfig]] = None,
        use_cache: bool = True,
    ) -> Optional[FillExecutionEstimate]:
        """Pick the best execution configuration for a fill job on this device.

        Returns ``None`` when no configuration fits the bubbles (the
        scheduler then places the job elsewhere or rejects it).
        """
        # repro: lint-ignore[hash-id] -- identity-memo cache key; the entry
        # pins the spec and the key is never ordered or serialized.
        key = (id(model), job_type)
        default_configs = configs is None
        if use_cache and default_configs:
            entry = self._estimate_cache.get(key)
            # Entries pin their spec, so a hit is always the same object.
            if entry is not None and entry[0] is model:
                return entry[1]
        disk_key = None
        if use_cache and default_configs and plancache.is_enabled():
            # The persistent cross-process cache: keyed by the same pure
            # inputs as the in-process memo, so a sweep worker or a second
            # bench run loads the plan search instead of re-running it.
            # Pickled estimates round-trip bit-identically, so a disk hit
            # can never change simulation results.
            disk_key = self._disk_key(model, job_type)
            hit, value = plancache.get(disk_key)
            if hit:
                if len(self._estimate_cache) >= _MAX_NAMESPACE_ENTRIES:
                    self._estimate_cache.clear()
                self._estimate_cache[key] = (model, value)
                return value
        if configs is None:
            configs = candidate_configs(job_type)
        if use_cache:
            best = self._search(model, job_type, configs)
        else:
            best = self._full_scan(model, job_type, configs)
        if use_cache and default_configs:
            if len(self._estimate_cache) >= _MAX_NAMESPACE_ENTRIES:
                self._estimate_cache.clear()
            self._estimate_cache[key] = (model, best)
            if disk_key is not None:
                plancache.put(disk_key, best)
        return best

    def _search(
        self,
        model: ModelSpec,
        job_type: JobType,
        configs: Sequence[ExecutionConfig],
    ) -> Optional[FillExecutionEstimate]:
        """Branch-and-bound over ``configs``; returns what ``_full_scan`` does.

        Every config is profiled and those over the usable memory dropped;
        the rest are planned in descending order of their throughput bound
        (module docs), stopping at the first bound strictly below the best
        throughput found.  Ties keep the earliest config in ``configs``,
        as the full scan does.
        """
        ranked = []
        for index, exec_config in enumerate(configs):
            profile = self._profiles.get(model, job_type, exec_config)
            if profile.device_footprint_bytes <= self.usable_memory_bytes:
                ranked.append((self._throughput_bound(profile), index, profile))
        ranked.sort(key=lambda item: (-item[0], item[1]))
        best: Optional[FillExecutionEstimate] = None
        best_index = 0
        for bound, index, profile in ranked:
            if best is not None and bound < best.effective_samples_per_second:
                break
            estimate = self._evaluate_config(model, job_type, profile)
            if estimate is None:
                continue
            value = estimate.effective_samples_per_second
            if (
                best is None
                or value > best.effective_samples_per_second
                or (value == best.effective_samples_per_second and index < best_index)
            ):
                best, best_index = estimate, index
        return best

    def _full_scan(
        self,
        model: ModelSpec,
        job_type: JobType,
        configs: Sequence[ExecutionConfig],
    ) -> Optional[FillExecutionEstimate]:
        """The reference search: profile and plan every config, no memo."""
        best: Optional[FillExecutionEstimate] = None
        for exec_config in configs:
            profile = profile_model(model, job_type, exec_config, self.device, self.efficiency)
            if profile.device_footprint_bytes > self.usable_memory_bytes:
                continue
            estimate = self._evaluate_config(model, job_type, profile, use_cache=False)
            if estimate is not None and (
                best is None
                or estimate.effective_samples_per_second
                > best.effective_samples_per_second
            ):
                best = estimate
        return best

    def processing_time(
        self, model: ModelSpec, job_type: JobType, num_samples: float
    ) -> float:
        """Wall-clock seconds to complete ``num_samples`` of the job here."""
        estimate = self.build_estimate(model, job_type)
        if estimate is None:
            return float("inf")
        return estimate.processing_time(num_samples)

    # -- memory capping / OOM isolation ----------------------------------------

    def execute_partition_on(
        self,
        allocator: MemoryAllocator,
        partition: GraphPartition,
        *,
        free_memory_bytes: Optional[float] = None,
        pool: str = "fill-job",
    ) -> bool:
        """Simulate executing one graph partition under a memory cap.

        Sets the fill-job pool's cap to the bubble's usable free memory
        (the ``set_per_process_memory_fraction`` mechanism), allocates the
        partition's working set, and releases it afterwards.  Returns
        ``True`` on success and ``False`` if the partition OOMed -- in which
        case the exception stays confined to the fill-job pool and the main
        job's allocations are untouched.
        """
        if free_memory_bytes is None:
            free_memory_bytes = self.cycle.min_free_memory_bytes
        cap = self.config.usable_bubble_memory(free_memory_bytes)
        allocator.set_memory_cap(pool, cap)
        try:
            # repro: lint-ignore[hash-id] -- transient allocation label,
            # freed before return and never part of any result payload.
            allocator.allocate(pool, f"partition-{id(partition)}", partition.memory_bytes)
        except DeviceOOMError as exc:
            if exc.pool != pool:  # pragma: no cover - defensive
                raise
            return False
        # repro: lint-ignore[hash-id] -- same transient label as the
        # allocate() probe above; never part of any result payload.
        allocator.free(pool, f"partition-{id(partition)}", release=False)
        return True
