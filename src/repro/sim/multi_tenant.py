"""Multi-tenant cluster simulation: N main jobs, one shared fill-job backlog.

The single-tenant :class:`~repro.sim.simulator.ClusterSimulator` reproduces
the paper's setting of one pipeline-parallel main job.  Production clusters
run *many* such jobs concurrently, each with its own pipeline configuration
and therefore its own bubble structure, while fill jobs accumulate in one
organisation-wide backlog.  This module simulates that setting:

* each **tenant** is one main job, modelled by a
  :class:`~repro.core.system.PipeFillSystem` (its analytic main job, bubble
  cycles and per-device Fill Job Executors);
* a :class:`~repro.core.global_scheduler.GlobalScheduler` routes the shared
  backlog across all tenants' devices, optionally preempting running fill
  jobs for deadline-constrained arrivals;
* the :class:`~repro.sim.kernel.SimKernel` advances time between the
  events where state changes -- fill-job arrivals and completions as in
  the single-tenant simulator, plus the dynamic cluster events: executor
  failures/recoveries (:class:`~repro.sim.kernel.FaultSpec`) and tenants
  joining/leaving mid-run (``join_at``/``leave_at``);
* results report per-tenant *and* aggregate fill throughput, deadline hit
  rates and utilization, with event counts broken down per kind.

Quick example (two tenants sharing one backlog)::

    from repro.core.system import PipeFillSystem
    from repro.sim.multi_tenant import MultiTenantSimulator, Tenant

    tenants = [
        Tenant("llm-40b", PipeFillSystem(model_a, parallel_a), jobs=jobs_a),
        Tenant("llm-5b", PipeFillSystem(model_b, parallel_b), jobs=jobs_b),
    ]
    result = MultiTenantSimulator(tenants).run(horizon_seconds=3600.0)
    print(result.summary_table().to_ascii())
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Union

from repro.core.global_scheduler import Assignment, GlobalScheduler
from repro.core.policies import PreemptionRule, SchedulingPolicy, sjf_policy
from repro.core.scheduler import FillJob, FillJobScheduler
from repro.core.system import PipeFillSystem
from repro.core.config import main_job_overhead_fraction
from repro.sim.events import Event, EventKind, EventQueue
from repro.sim.kernel import FaultSpec, OpenLoopArrivals, SimKernel, schedule_faults
from repro.sim.observers import ObserverFanout, RunContext, RunObserver
from repro.sim.metrics import (
    FillJobMetrics,
    UtilizationReport,
    collect_fill_metrics,
)
from repro.utils.tables import Table

#: Valid ``Tenant.leave_mode`` values (see ``GlobalScheduler.deactivate_tenant``).
LEAVE_MODES = ("drain", "requeue")


@dataclass
class Tenant:
    """One main job participating in a multi-tenant simulation.

    Parameters
    ----------
    name:
        Unique tenant name (used in events, results and scenario files).
    system:
        The tenant's :class:`~repro.core.system.PipeFillSystem`: its main
        job, bubble cycles and per-device executors.
    jobs:
        The fill jobs this tenant submits to the shared backlog.  They may
        run on *any* tenant's devices; submission is tracked separately
        from placement.
    arrival_process:
        Optional open-loop arrival stream (e.g. a
        :class:`~repro.workloads.generator.ArrivalProcess`) submitted on
        this tenant's behalf *in addition to* ``jobs``: arrivals are
        pulled lazily one event ahead instead of materializing the whole
        trace, which is what makes long-horizon runs tractable.  Requires
        a ``horizon_seconds`` on the run (the stream may be unbounded).
    join_at / leave_at:
        Optional times at which the tenant's devices join/leave the
        cluster.  Before ``join_at`` (and after ``leave_at``) no fill work
        is routed to the tenant; the tenant's *submitted* stream is
        unaffected (its users keep submitting to the shared backlog).
    leave_mode:
        What happens to the tenant's placed fill jobs at ``leave_at``:
        ``"drain"`` lets running jobs finish (each device goes down as it
        frees up), ``"requeue"`` interrupts them immediately with partial
        progress banked.  In both modes queued jobs return to the global
        backlog and may resume elsewhere.
    """

    name: str
    system: PipeFillSystem
    jobs: Sequence[FillJob] = ()
    arrival_process: Optional[Iterable[FillJob]] = None
    join_at: Optional[float] = None
    leave_at: Optional[float] = None
    leave_mode: str = "drain"

    def __post_init__(self) -> None:
        if self.leave_mode not in LEAVE_MODES:
            raise ValueError(
                f"leave_mode must be one of {LEAVE_MODES}, got {self.leave_mode!r}"
            )
        if (
            self.join_at is not None
            and self.leave_at is not None
            and self.leave_at <= self.join_at
        ):
            raise ValueError(
                f"tenant {self.name!r}: leave_at ({self.leave_at}) must be "
                f"after join_at ({self.join_at})"
            )


@dataclass(frozen=True)
class TenantResult:
    """Per-tenant outcome of a multi-tenant run (device-side accounting)."""

    name: str
    num_devices: int
    horizon_seconds: float
    fill_metrics: FillJobMetrics
    utilization: UtilizationReport
    jobs_submitted_by: int
    scheduler: FillJobScheduler = field(repr=False, hash=False, compare=False)

    @property
    def fill_tflops_per_device(self) -> float:
        """Recovered fill-job TFLOP/s per device of this tenant."""
        return (
            self.fill_metrics.total_flops
            / self.horizon_seconds
            / self.num_devices
            / 1e12
        )


@dataclass(frozen=True)
class MultiTenantResult:
    """Outcome of one multi-tenant simulation run.

    ``events_processed`` counts the discrete events the run consumed
    (including stale completions that were skipped); benchmarks divide it
    by wall-clock time to report events/sec.  ``events_by_kind`` breaks
    the same count down per :class:`~repro.sim.events.EventKind` value, so
    arrival/completion work is distinguishable from fault/churn work.
    """

    horizon_seconds: float
    tenants: Mapping[str, TenantResult]
    aggregate: FillJobMetrics
    backlog_remaining: int
    jobs_rejected_global: int
    events_processed: int = 0
    events_by_kind: Mapping[str, int] = field(default_factory=dict)
    #: Wall-clock seconds spent in handlers, per event kind (see
    #: ``SimKernel``).  Excluded from ``to_dict()`` by default so result
    #: digests and equivalence checks stay timing-independent.
    timings_by_kind: Mapping[str, float] = field(default_factory=dict, compare=False)

    @property
    def num_devices(self) -> int:
        """Total representative devices simulated across all tenants."""
        return sum(t.num_devices for t in self.tenants.values())

    @property
    def fill_tflops_per_device(self) -> float:
        """Cluster-wide recovered fill-job TFLOP/s per simulated device."""
        return (
            self.aggregate.total_flops
            / self.horizon_seconds
            / self.num_devices
            / 1e12
        )

    def to_dict(self, *, include_timings: bool = False) -> dict:
        """JSON-serialisable summary (used by the CLI's ``--json`` output).

        ``include_timings`` adds the wall-clock ``timings_by_kind`` block;
        it defaults off because the default payload must stay a pure
        function of the simulation outcome (digests compare it across
        cache modes and PRs).
        """
        from repro.sim.metrics import fill_metrics_dict as metrics_dict

        payload = {
            "horizon_seconds": self.horizon_seconds,
            "num_devices": self.num_devices,
            "fill_tflops_per_device": self.fill_tflops_per_device,
            "backlog_remaining": self.backlog_remaining,
            "jobs_rejected_global": self.jobs_rejected_global,
            "events_processed": self.events_processed,
            "events_by_kind": dict(self.events_by_kind),
            "aggregate": metrics_dict(self.aggregate),
            "tenants": {
                name: {
                    "num_devices": t.num_devices,
                    "jobs_submitted_by": t.jobs_submitted_by,
                    "fill_tflops_per_device": t.fill_tflops_per_device,
                    "main_tflops_per_device": t.utilization.main_tflops_per_device,
                    "total_tflops_per_device": t.utilization.total_tflops_per_device,
                    "bubble_ratio": t.utilization.bubble_ratio,
                    "fill_metrics": metrics_dict(t.fill_metrics),
                }
                for name, t in self.tenants.items()
            },
        }
        if include_timings:
            payload["timings_by_kind"] = {
                kind: round(seconds, 6) for kind, seconds in self.timings_by_kind.items()
            }
        return payload

    def summary_table(self) -> Table:
        """Per-tenant rows plus an aggregate row, ready for printing."""
        table = Table(
            columns=[
                "tenant",
                "devices",
                "jobs submitted",
                "jobs run",
                "completed",
                "fill TFLOP/s per GPU",
                "busy fraction",
                "avg JCT (s)",
                "deadline hit rate",
            ],
            title="Multi-tenant fill-job simulation",
            formats={
                "fill TFLOP/s per GPU": ".2f",
                "busy fraction": ".1%",
                "avg JCT (s)": ".1f",
                "deadline hit rate": ".1%",
            },
        )
        for result in self.tenants.values():
            m = result.fill_metrics
            table.add_row(
                result.name,
                result.num_devices,
                result.jobs_submitted_by,
                m.jobs_submitted,
                m.jobs_completed,
                result.fill_tflops_per_device,
                m.busy_device_seconds / (self.horizon_seconds * result.num_devices),
                m.average_jct,
                m.deadline_hit_rate if m.deadlines_total else None,
            )
        agg = self.aggregate
        table.add_row(
            "TOTAL",
            self.num_devices,
            agg.jobs_submitted,
            agg.jobs_submitted - self.backlog_remaining - self.jobs_rejected_global,
            agg.jobs_completed,
            self.fill_tflops_per_device,
            agg.busy_device_seconds / (self.horizon_seconds * self.num_devices),
            agg.average_jct,
            agg.deadline_hit_rate if agg.deadlines_total else None,
        )
        return table


@dataclass
class _RunSetup:
    """Everything one run builds before the event loop starts."""

    kernel: SimKernel
    global_sched: GlobalScheduler
    jobs_by_id: Dict[str, FillJob]
    fanout: Optional[ObserverFanout] = None


class MultiTenantSimulator:
    """Drives N concurrent main jobs over one shared fill-job backlog.

    Parameters
    ----------
    tenants:
        The participating main jobs; names must be unique.  Tenants may
        carry ``join_at``/``leave_at`` times (elastic capacity) and an
        open-loop ``arrival_process``.
    policy:
        Fill-job scheduling policy applied by the global scheduler: a
        callable, or a name resolved through the policy registry
        (``"sjf"``, ``"edf+sjf"``, any ``@register_policy`` name).
    preemption_rule:
        Optional preemption rule (e.g.
        :func:`~repro.core.policies.deadline_preemption_rule` or the
        registered name ``"deadline"``); ``None`` disables preemption.
    """

    def __init__(
        self,
        tenants: Sequence[Tenant],
        *,
        policy: Union[SchedulingPolicy, str] = sjf_policy,
        preemption_rule: Optional[Union[PreemptionRule, str]] = None,
        use_cache: bool = True,
        kernel_backend: str = "heapq",
    ) -> None:
        from repro.registry import kernel_backends, resolve_policy, resolve_preemption_rule

        if not tenants:
            raise ValueError("the multi-tenant simulator needs at least one tenant")
        names = [t.name for t in tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"tenant names must be unique, got {names}")
        self.tenants: Dict[str, Tenant] = {t.name: t for t in tenants}
        self.policy = resolve_policy(policy)
        self.preemption_rule = resolve_preemption_rule(preemption_rule)
        self.use_cache = use_cache
        kernel_backends.get(kernel_backend)  # fail on unknown names at setup time
        self.kernel_backend = str(kernel_backend).lower()
        if self.kernel_backend == "auto":
            from repro.sim.events import resolve_auto_backend

            self.kernel_backend = resolve_auto_backend(
                num_tenants=len(self.tenants),
                preemptive=self.preemption_rule is not None,
            )

    # -- helpers -----------------------------------------------------------------

    def _build_global_scheduler(self) -> GlobalScheduler:
        schedulers = {
            name: FillJobScheduler(
                tenant.system.executors, policy=self.policy, use_cache=self.use_cache
            )
            for name, tenant in self.tenants.items()
        }
        return GlobalScheduler(
            schedulers,
            policy=self.policy,
            preemption_rule=self.preemption_rule,
            use_cache=self.use_cache,
        )

    def _arrival_stream(
        self, extra_jobs: Iterable[FillJob]
    ) -> List[FillJob]:
        """All statically-known jobs, tagged with their submitting tenant."""
        stream: List[FillJob] = []
        for name, tenant in self.tenants.items():
            for job in tenant.jobs:
                stream.append(job if job.tenant == name else replace(job, tenant=name))
        stream.extend(extra_jobs)
        ids = [j.job_id for j in stream]
        if len(set(ids)) != len(ids):
            raise ValueError("fill-job ids must be unique across all tenants")
        return sorted(stream, key=lambda j: j.arrival_time)

    @staticmethod
    def _push_assignments(
        queue: EventQueue, assignments: Iterable[Assignment]
    ) -> None:
        for a in assignments:
            queue.push(
                a.completion_time,
                EventKind.JOB_COMPLETION,
                job_id=a.job_id,
                executor_index=a.executor_index,
                tenant=a.tenant,
            )

    # -- main entry points -------------------------------------------------------

    def run(
        self,
        *,
        extra_jobs: Iterable[FillJob] = (),
        faults: Sequence[FaultSpec] = (),
        horizon_seconds: Optional[float] = None,
        observers: Optional[Sequence["RunObserver"]] = None,
    ) -> MultiTenantResult:
        """Simulate all tenants' arrival streams over the shared backlog.

        Parameters
        ----------
        extra_jobs:
            Additional tenant-less backlog jobs (e.g. an organisation-wide
            batch queue) merged into the arrival stream.
        faults:
            Scheduled executor failures/recoveries; each
            :class:`~repro.sim.kernel.FaultSpec` names the tenant whose
            executor fails.
        horizon_seconds:
            Stop the clock here; running jobs contribute pro-rated FLOPs.
            Defaults to the time the last job completes.  Required when
            any tenant carries an open-loop ``arrival_process``.
        observers:
            Optional :class:`~repro.sim.observers.RunObserver` instances
            receiving streaming lifecycle callbacks.  Without observers
            the run takes the kernel's plain loop -- the observer API
            costs nothing unless used.
        """
        setup = self._setup(extra_jobs, faults, horizon_seconds, observers)
        horizon = setup.kernel.run(horizon_seconds)
        return self._finish(setup, horizon)

    def iter_run(
        self,
        *,
        extra_jobs: Iterable[FillJob] = (),
        faults: Sequence[FaultSpec] = (),
        horizon_seconds: Optional[float] = None,
        observers: Optional[Sequence["RunObserver"]] = None,
    ):
        """Generator twin of :meth:`run` for step-wise embedding.

        Yields every processed :class:`~repro.sim.events.Event` *after*
        its state changes are applied (inspect schedulers between events
        freely) and returns the :class:`MultiTenantResult` as the
        generator's ``StopIteration`` value -- retrieve it with
        ``result = yield from sim.iter_run(...)`` or via
        :class:`repro.api.EventStream`.
        """
        setup = self._setup(extra_jobs, faults, horizon_seconds, observers)
        horizon = yield from setup.kernel.iter_run(horizon_seconds)
        return self._finish(setup, horizon)

    # -- run assembly ------------------------------------------------------------

    def _setup(
        self,
        extra_jobs: Iterable[FillJob],
        faults: Sequence[FaultSpec],
        horizon_seconds: Optional[float],
        observers: Optional[Sequence["RunObserver"]] = None,
    ) -> "_RunSetup":
        """Build the kernel, schedulers and handlers for one run."""
        global_sched = self._build_global_scheduler()
        stream = self._arrival_stream(extra_jobs)
        jobs_by_id: Dict[str, FillJob] = {job.job_id: job for job in stream}
        kernel = SimKernel(self.kernel_backend)
        queue = kernel.queue
        for job in stream:
            kernel.schedule(job.arrival_time, EventKind.JOB_ARRIVAL, job_id=job.job_id)

        # Open-loop sources: the driver keeps one pending arrival per
        # stream in the queue and pulls the next job as each is handled.
        open_loop = OpenLoopArrivals(kernel, jobs_by_id)
        for name, tenant in self.tenants.items():
            if tenant.arrival_process is None:
                continue
            if horizon_seconds is None:
                raise ValueError(
                    "open-loop arrival processes need horizon_seconds "
                    "(the stream may be unbounded)"
                )
            open_loop.add_stream(
                name,
                tenant.arrival_process,
                prepare=lambda job, name=name: (
                    job if job.tenant == name else replace(job, tenant=name)
                ),
            )

        # Dynamic cluster events: failures/recoveries and elastic tenants.
        schedule_faults(
            kernel,
            faults,
            {
                name: frozenset(sched.executors)
                for name, sched in global_sched.tenants.items()
            },
        )
        for name, tenant in self.tenants.items():
            if tenant.join_at is not None and tenant.join_at > 0:
                # The tenant's devices are absent until it joins.
                global_sched.suspend_tenant(name)
                kernel.schedule(tenant.join_at, EventKind.TENANT_JOIN, tenant=name)
            if tenant.leave_at is not None:
                kernel.schedule(tenant.leave_at, EventKind.TENANT_LEAVE, tenant=name)

        def on_arrival(event: Event) -> None:
            assert event.job_id is not None
            now = kernel.now
            accepted = global_sched.submit(jobs_by_id[event.job_id])
            open_loop.on_arrival(event.job_id)
            # Urgent deadline arrivals that no idle executor can serve
            # in time get a preemption attempt *before* plain dispatch
            # would strand them on a too-slow idle device.  Without a
            # preemption rule there is no attempt to make, so the idle
            # check is skipped too.
            if (
                accepted
                and global_sched.preemption_rule is not None
                and not global_sched.idle_can_meet_deadline(event.job_id, now)
            ):
                preempting = global_sched.try_preempt(event.job_id, now)
                if preempting is not None:
                    self._push_assignments(queue, [preempting])
            # Fills every remaining idle executor, including re-queued
            # preemption victims.
            self._push_assignments(queue, global_sched.dispatch_idle(now))

        def on_completion(event: Event) -> bool:
            assert event.tenant is not None and event.executor_index is not None
            sched = global_sched.tenants[event.tenant]
            state = sched.executors[event.executor_index]
            # Stale events: the executor was preempted and re-targeted
            # (different job, or the same job re-dispatched with a later
            # completion) since this event was scheduled.
            if kernel.is_stale_completion(state.current_job_id, state.busy_until, event):
                return False
            global_sched.complete(event.tenant, event.executor_index, kernel.now)
            kernel.note_completion()
            self._push_assignments(queue, global_sched.dispatch_idle(kernel.now))
            return True

        def on_failure(event: Event) -> None:
            assert event.tenant is not None and event.executor_index is not None
            global_sched.fail_executor(event.tenant, event.executor_index, kernel.now)
            # The requeued job (if any) may resume on a healthy device.
            self._push_assignments(queue, global_sched.dispatch_idle(kernel.now))

        def on_recovery(event: Event) -> None:
            assert event.tenant is not None and event.executor_index is not None
            global_sched.recover_executor(event.tenant, event.executor_index)
            self._push_assignments(queue, global_sched.dispatch_idle(kernel.now))

        def on_tenant_join(event: Event) -> None:
            assert event.tenant is not None
            global_sched.activate_tenant(event.tenant)
            self._push_assignments(queue, global_sched.dispatch_idle(kernel.now))

        def on_tenant_leave(event: Event) -> None:
            assert event.tenant is not None
            requeue = self.tenants[event.tenant].leave_mode == "requeue"
            global_sched.deactivate_tenant(event.tenant, kernel.now, requeue=requeue)
            # Evicted jobs re-entered the backlog; place them elsewhere now.
            self._push_assignments(queue, global_sched.dispatch_idle(kernel.now))

        # Observer wiring happens at registration time: without observers
        # the *unwrapped* closures are registered and the kernel takes its
        # plain loop, so observed and unobserved runs differ only when the
        # API is actually used.
        fanout = None
        if observers:
            fanout = ObserverFanout(observers, kernel)
            kernel.set_event_observer(fanout.on_event)

            def observed_completion(event: Event, _notify=fanout) -> None:
                if on_completion(event):
                    _notify.on_job_completed(
                        event.job_id, event.tenant, event.executor_index, kernel.now
                    )

            def observed_failure(event: Event, _notify=fanout) -> None:
                on_failure(event)
                _notify.on_executor_lost(
                    event.tenant, event.executor_index, kernel.now
                )

            def observed_join(event: Event, _notify=fanout) -> None:
                on_tenant_join(event)
                _notify.on_tenant_change(event.tenant, "join", kernel.now)

            def observed_leave(event: Event, _notify=fanout) -> None:
                on_tenant_leave(event)
                _notify.on_tenant_change(event.tenant, "leave", kernel.now)

        kernel.on(EventKind.JOB_ARRIVAL, on_arrival)
        kernel.on(
            EventKind.JOB_COMPLETION,
            observed_completion if fanout is not None else on_completion,
        )
        kernel.on(
            EventKind.EXECUTOR_FAILURE,
            observed_failure if fanout is not None else on_failure,
        )
        kernel.on(EventKind.EXECUTOR_RECOVERY, on_recovery)
        kernel.on(
            EventKind.TENANT_JOIN,
            observed_join if fanout is not None else on_tenant_join,
        )
        kernel.on(
            EventKind.TENANT_LEAVE,
            observed_leave if fanout is not None else on_tenant_leave,
        )
        if fanout is not None:
            # Fired once the run is fully assembled: deep observers (e.g.
            # the invariant engine in ``repro.verify``) grab read-only
            # handles on the kernel and schedulers here.
            fanout.on_run_started(
                RunContext(
                    kernel=kernel,
                    scheduler=global_sched,
                    tenants=dict(self.tenants),
                    horizon_seconds=horizon_seconds,
                )
            )
        return _RunSetup(
            kernel=kernel,
            global_sched=global_sched,
            jobs_by_id=jobs_by_id,
            fanout=fanout,
        )

    def _finish(self, setup: "_RunSetup", horizon: float) -> MultiTenantResult:
        stats = setup.kernel.stats()
        result = self._collect(
            setup.global_sched,
            list(setup.jobs_by_id.values()),
            horizon,
            events_processed=stats.events_processed,
            events_by_kind=stats.events_by_kind,
            timings_by_kind=stats.timings_by_kind,
        )
        if setup.fanout is not None:
            setup.fanout.on_run_finished(result)
        return result

    # -- result assembly ---------------------------------------------------------

    def _collect(
        self,
        global_sched: GlobalScheduler,
        stream: Sequence[FillJob],
        horizon: float,
        *,
        events_processed: int = 0,
        events_by_kind: Optional[Mapping[str, int]] = None,
        timings_by_kind: Optional[Mapping[str, float]] = None,
    ) -> MultiTenantResult:
        submitted_by: Dict[str, int] = {name: 0 for name in self.tenants}
        for job in stream:
            if job.tenant in submitted_by:
                submitted_by[job.tenant] += 1

        tenant_results: Dict[str, TenantResult] = {}
        per_tenant_metrics: List[FillJobMetrics] = []
        for name, tenant in self.tenants.items():
            sched = global_sched.tenants[name]
            metrics = collect_fill_metrics(sched, horizon)
            per_tenant_metrics.append(metrics)
            num_devices = len(sched.executors)
            system = tenant.system
            overhead = main_job_overhead_fraction(system.config.fill_fraction)
            utilization = UtilizationReport(
                num_devices=num_devices,
                horizon_seconds=horizon,
                main_tflops_per_device=system.main_job.tflops_per_device
                / (1.0 + overhead),
                fill_tflops_per_device=metrics.total_flops / horizon / num_devices / 1e12,
                bubble_ratio=min(1.0, system.main_job.bubble_ratio * (1.0 + overhead)),
                main_job_slowdown=overhead,
                fill_metrics=metrics,
            )
            tenant_results[name] = TenantResult(
                name=name,
                num_devices=num_devices,
                horizon_seconds=horizon,
                fill_metrics=metrics,
                utilization=utilization,
                jobs_submitted_by=submitted_by[name],
                scheduler=sched,
            )

        merged = FillJobMetrics.merge(per_tenant_metrics)
        backlog = global_sched.backlog_jobs()
        # Deadline jobs that never reached a tenant -- still in the backlog
        # or globally rejected -- are misses from the submitter's view.
        unplaced_deadlines = sum(1 for j in backlog if j.deadline is not None) + sum(
            1 for j in global_sched.rejected.values() if j.deadline is not None
        )
        # Jobs evicted from a departed tenant and never re-placed carry
        # banked progress that no tenant's records hold anymore; the work
        # was physically executed, so the aggregate must keep it.  Jobs
        # that *were* re-placed keep that migrated-in progress marked on
        # their new record, excluded from the new host's per-tenant
        # metrics (its devices never supplied it) -- re-add it here, once.
        parked = global_sched.evicted_records()
        migrated_flops, migrated_samples, migrated_busy = (
            global_sched.migrated_progress()
        )
        aggregate = replace(
            merged,
            jobs_submitted=len(global_sched.jobs),
            jobs_rejected=merged.jobs_rejected + len(global_sched.rejected),
            deadlines_total=merged.deadlines_total + unplaced_deadlines,
            total_flops=merged.total_flops
            + migrated_flops
            + sum(r.flops_banked for r in parked),
            total_samples=merged.total_samples
            + migrated_samples
            + sum(r.job.num_samples - r.samples_remaining for r in parked),
            busy_device_seconds=merged.busy_device_seconds
            + migrated_busy
            + sum(r.busy_banked_seconds for r in parked),
            num_preemptions=merged.num_preemptions
            + sum(r.num_preemptions for r in parked),
        )
        return MultiTenantResult(
            horizon_seconds=horizon,
            tenants=tenant_results,
            aggregate=aggregate,
            backlog_remaining=len(backlog),
            jobs_rejected_global=len(global_sched.rejected),
            events_processed=events_processed,
            events_by_kind=dict(events_by_kind or {}),
            timings_by_kind=dict(timings_by_kind or {}),
        )
