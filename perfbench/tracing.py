"""Span tracer for the traced benchmark run.

Each span wraps one public function of a layer.  The wrapper is patched
onto the class for methods and, for module-level functions, onto every
``repro.*`` module that binds the original object -- i.e. where the
caller resolves the name (``repro.core.executor.pack_fill_job`` as well as
``repro.core.plan.pack_fill_job``).  Spans nest on a stack, so each layer
gets its call count, inclusive time (``.s``) and self time (``.self_s``,
inclusive minus the time of its child spans).  Spans live in memory and
are folded into metrics when the run ends.

Which end-to-end metric each layer should move, and on which workload,
is tabled in README.md.
"""

from __future__ import annotations

import importlib
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple


@dataclass(frozen=True)
class Span:
    """One wrapped public function.

    ``target`` is ``"module:attr"`` or ``"module:Class.method"``;
    ``metric`` is the ``<module>.<function>`` prefix of its metrics;
    ``success`` optionally classifies a return value for a ratio metric.
    """

    target: str
    metric: str
    success: Optional[Callable[[object], bool]] = None


def _found(result) -> bool:
    return result[0] is not None


def _not_none(result) -> bool:
    return result is not None


SPANS: Tuple[Span, ...] = (
    Span("repro.sim.scenario:load_scenario_dict", "sim.scenario.load_scenario_dict"),
    Span("repro.sim.scenario:ScenarioSpec.from_dict", "sim.scenario.from_dict"),
    Span("repro.workloads.generator:build_tenant_fill_job_traces",
        "workloads.build_tenant_fill_job_traces"),
    Span("repro.core.system:PipeFillSystem.__init__", "core.system.__init__"),
    Span("repro.core.executor:FillJobExecutor.build_estimate",
        "core.executor.build_estimate"),
    Span("repro.core.plan:pack_fill_job", "core.plan.pack_fill_job"),
    Span("repro.models.profiles:profile_model", "models.profiles.profile_model"),
    Span("repro.utils.plancache:get", "utils.plancache.get"),
    Span("repro.utils.plancache:put", "utils.plancache.put"),
    Span("repro.sim.kernel:SimKernel.run", "sim.kernel.run"),
    Span("repro.sim.events:EventQueue.push", "sim.events.push"),
    Span("repro.sim.events:EventQueue.pop", "sim.events.pop"),
    Span("repro.sim.events:SoAEventQueue.push", "sim.events.push"),
    Span("repro.sim.events:SoAEventQueue.pop", "sim.events.pop"),
    Span("repro.sim.events:SoAEventQueue.pop_batch", "sim.events.pop_batch"),
    Span("repro.core.candidates:CandidateIndex.best_for_executor",
        "core.candidates.best_for_executor", _found),
    Span("repro.core.candidates:CandidateIndex.add", "core.candidates.add"),
    Span("repro.core.candidates:CandidateIndex.remove", "core.candidates.remove"),
    Span("repro.core.scheduler:FillJobScheduler.assign", "core.scheduler.assign"),
    Span("repro.core.scheduler:FillJobScheduler.complete", "core.scheduler.complete"),
    Span("repro.core.scheduler:FillJobScheduler.dispatch", "core.scheduler.dispatch"),
    Span("repro.core.scheduler:FillJobScheduler.preempt", "core.scheduler.preempt"),
    Span("repro.core.global_scheduler:GlobalScheduler.submit",
        "core.global_scheduler.submit"),
    Span("repro.core.global_scheduler:GlobalScheduler.dispatch_idle",
        "core.global_scheduler.dispatch_idle"),
    Span("repro.core.global_scheduler:GlobalScheduler.try_preempt",
        "core.global_scheduler.try_preempt", _not_none),
    Span("repro.core.global_scheduler:GlobalScheduler.fail_executor",
        "core.global_scheduler.fail_executor"),
    Span("repro.core.global_scheduler:GlobalScheduler.deactivate_tenant",
        "core.global_scheduler.deactivate_tenant"),
    Span("repro.sim.multi_tenant:MultiTenantSimulator.run", "sim.multi_tenant.run"),
    Span("repro.sim.simulator:ClusterSimulator.run", "sim.simulator.run"),
    Span("repro.api.results:RunResult.to_dict", "api.results.to_dict"),
    Span("repro.api.results:RunResult.digest", "api.results.digest"),
)

#: Spans whose presence inside a ``build_estimate`` call means the
#: estimate was not served by the in-process memo.
_ESTIMATE = "core.executor.build_estimate"
_PACK = "core.plan.pack_fill_job"
_NOT_MEMO = frozenset({_PACK, "models.profiles.profile_model", "utils.plancache.get"})


def span_metric_names() -> List[str]:
    """Every span metric prefix, in table order, without duplicates."""
    names: List[str] = []
    for span in SPANS:
        if span.metric not in names:
            names.append(span.metric)
    return names


def _ratio_name(span: Span) -> str:
    return f"{span.metric}.{'hit' if span.success is _found else 'success'}_ratio"


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units: Dict[str, str] = {"import.s": "s"}
    for name in span_metric_names():
        units[f"{name}.calls"] = "count"
        units[f"{name}.s"] = "s"
        units[f"{name}.self_s"] = "s"
    for span in SPANS:
        if span.success is not None:
            units[_ratio_name(span)] = "ratio"
    units.update({
        "core.executor.plan_searches": "count",
        "core.executor.memo_hit_ratio": "ratio",
        "utils.plancache.hit_ratio": "ratio",
        "sim.kernel.events": "count",
        "setup.utils.plancache.put.calls": "count",
        "setup.utils.plancache.put.s": "s",
        "trace.overhead": "ratio",
        "trace.coverage": "ratio",
    })
    return units


class _Frame:
    __slots__ = ("child", "inner")

    def __init__(self) -> None:
        self.child = 0.0
        self.inner: set = set()


class Tracer:
    """Installs span wrappers and accumulates per-span totals."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = {}
        self.total: Dict[str, float] = {}
        self.self_time: Dict[str, float] = {}
        self.successes: Dict[str, int] = {}
        self.top_level = 0.0
        self.plan_searches = 0
        self.memo_hits = 0
        self._stack: List[_Frame] = []
        self._patches: List[Tuple[object, str, object]] = []
        for name in span_metric_names():
            self.calls[name] = 0
            self.total[name] = 0.0
            self.self_time[name] = 0.0
            self.successes[name] = 0

    # -- recording ---------------------------------------------------------------

    def _wrap(self, fn, span: Span):
        name = span.metric
        success = span.success
        stack = self._stack
        calls, total, self_time = self.calls, self.total, self.self_time

        def traced(*args, **kwargs):
            frame = _Frame()
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                calls[name] += 1
                total[name] += elapsed
                self_time[name] += elapsed - frame.child
                if stack:
                    parent = stack[-1]
                    parent.child += elapsed
                    parent.inner.add(name)
                    if frame.inner:
                        parent.inner |= frame.inner
                else:
                    self.top_level += elapsed
                if name == _ESTIMATE:
                    if _PACK in frame.inner:
                        self.plan_searches += 1
                    if not frame.inner & _NOT_MEMO:
                        self.memo_hits += 1
            if success is not None and success(result):
                self.successes[name] += 1
            return result

        traced.__wrapped__ = fn
        return traced

    # -- patching ----------------------------------------------------------------

    def install(self) -> None:
        """Patch every span's wrapper in place."""
        for span in SPANS:
            module_name, _, attr = span.target.partition(":")
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    patched = classmethod(self._wrap(raw.__func__, span))
                else:
                    patched = self._wrap(raw, span)
                self._patch(cls, meth, raw, patched)
                continue
            original = getattr(module, attr)
            patched = self._wrap(original, span)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                    continue
                for binding, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, binding, original, patched)

    def _patch(self, owner, attr: str, original, patched) -> None:
        setattr(owner, attr, patched)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every patched binding."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------------

    def metrics(self, op_seconds: float) -> Dict[str, float]:
        """Per-span metrics plus the derived executor/candidate ratios."""
        out: Dict[str, float] = {}
        for name in span_metric_names():
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.s"] = self.total[name]
            out[f"{name}.self_s"] = self.self_time[name]
        for span in SPANS:
            if span.success is not None:
                calls = self.calls[span.metric]
                out[_ratio_name(span)] = self.successes[span.metric] / calls if calls else 0.0
        estimates = self.calls[_ESTIMATE]
        out["core.executor.plan_searches"] = self.plan_searches
        out["core.executor.memo_hit_ratio"] = (
            self.memo_hits / estimates if estimates else 0.0
        )
        out["trace.coverage"] = self.top_level / op_seconds if op_seconds > 0 else 0.0
        return out
