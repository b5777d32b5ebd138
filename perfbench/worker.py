"""One workload run in a fresh interpreter (started by ``run.py``).

Usage: ``python3 perfbench/worker.py '<json config>'`` with the keys
``workload``, ``seed``, ``seconds``, ``mode`` (``setup``, ``measure`` or
``trace``), ``t_spawn`` (the parent's ``perf_counter()`` just before the
spawn; Linux's monotonic clock is shared by all processes), ``workdir``
and ``out``, the file the JSON result is written to.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple


def _count_events(counter: List[int]) -> Callable[[], None]:
    """Add every ``SimKernel.run``'s processed events to ``counter[0]``.

    One extra call per simulation, so it stays on in untraced runs.
    Returns the function that removes the counter again.
    """
    from repro.sim.kernel import SimKernel

    run = SimKernel.run

    def counted(self, horizon_seconds: Optional[float] = None) -> float:
        before = self.events_processed
        try:
            return run(self, horizon_seconds)
        finally:
            counter[0] += self.events_processed - before

    SimKernel.run = counted

    def restore() -> None:
        SimKernel.run = run

    return restore


#: Iterations of the reference loop: about 6 ms on a quiet 2-vCPU Xeon VM.
REFERENCE_ITERATIONS = 100_000


def reference_seconds() -> float:
    """Wall time of a fixed loop that is not the program's code, run next
    to each op so the host's speed at that moment can be divided out.

    Integer arithmetic only: it builds no containers, so it never starts a
    garbage collection and its speed does not depend on what the program
    keeps alive."""
    start = perf_counter()
    total = 0
    for i in range(REFERENCE_ITERATIONS):
        total += i * i % 7
    return perf_counter() - start


def _timed_pass(workload, counter: List[int]) -> List[list]:
    """One pass of ops: ``[op_id, seconds, digest, error, simulated events,
    reference seconds just before the op]`` per op."""
    records = []
    workload.start_pass()
    for op_id, op in workload.ops():
        reference = reference_seconds()
        events_before = counter[0]
        start = perf_counter()
        digest = error = None
        try:
            digest = op()
        except Exception as exc:  # an op failure is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        records.append([op_id, perf_counter() - start, digest, error,
                        counter[0] - events_before, reference])
    return records


def check_ops(workload, records: List[list]) -> Tuple[int, Dict[str, str]]:
    """Count failed ops -- raised, or a digest that differs from the pin,
    else from the one the same op gave in setup or earlier in this run --
    and return them with each op's first digest."""
    pins = workload.pins()
    seen: Dict[str, str] = {}
    failed = 0
    for op_id, _, digest, error, _, _ in records:
        if digest is not None:
            seen.setdefault(op_id, digest)
        expected = pins.get(op_id) or workload.reference.get(op_id) or seen.get(op_id)
        if error is not None or digest != expected:
            failed += 1
    return failed, seen


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload, seconds: float, counter: List[int]) -> Dict:
    """Whole passes for about ``seconds``: at least one, and another only
    while the last one says it would end less than half a pass late.

    Peak memory is read after the first pass: the process grows a little
    with every pass, so a later reading would depend on how many passes
    the host's speed allowed."""
    from repro.utils import plancache

    plancache.reset_stats()
    records: List[list] = []
    peak_rss_mb = None
    start = perf_counter()
    while True:
        pass_start = perf_counter()
        records += _timed_pass(workload, counter)
        now = perf_counter()
        if peak_rss_mb is None:
            peak_rss_mb = _peak_rss_mb()
        if now + (now - pass_start) / 2 - start > seconds:
            break
    return {"records": records, "op_stats": plancache.stats(), "peak_rss_mb": peak_rss_mb}


def trace(workload, counter: List[int]) -> Dict:
    """One untraced pass, then the same pass with every span installed."""
    from repro.utils import plancache
    from tracing import Tracer

    untraced = _timed_pass(workload, counter)
    tracer = Tracer()
    plancache.reset_stats()
    events_before = counter[0]
    tracer.install()
    try:
        traced = _timed_pass(workload, counter)
    finally:
        tracer.uninstall()
    stats = plancache.stats()
    traced_s = sum(r[1] for r in traced)
    metrics = tracer.metrics(traced_s)
    lookups = stats["hits"] + stats["misses"]
    metrics["utils.plancache.hit_ratio"] = stats["hits"] / lookups if lookups else 0.0
    metrics["sim.kernel.events"] = counter[0] - events_before
    metrics["trace.overhead"] = traced_s / sum(r[1] for r in untraced)
    return {
        "records": untraced + traced,
        "problems": [
            f"traced digest differs from untraced for {a[0]}"
            for a, b in zip(untraced, traced) if a[2] != b[2]
        ],
        "traced_s": traced_s,
        "op_stats": stats,
        "metrics": metrics,
    }


def environment(workload) -> Dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "kernel_backend": workload.kernel_backend(),
        "seed": workload.seed,
        "cache_state": workload.cache_state,
    }


def run_workload(workload, mode: str, seconds: float, t_spawn: float) -> Dict:
    """Set the workload up, then measure or trace it and check its outputs.

    In ``setup`` mode only the set-up is timed and nothing is checked."""
    from repro.utils import plancache
    from tracing import Tracer

    counter = [0]
    uncount = _count_events(counter)
    try:
        plancache.reset_stats()
        setup_tracer = Tracer()
        if mode == "trace":
            setup_tracer.install()
        try:
            workload.setup()
        finally:
            setup_tracer.uninstall()
        setup_stats = plancache.stats()
        result: Dict = {"setup_s": perf_counter() - t_spawn}
        if mode == "setup":
            return result
        if mode == "measure":
            result.update(measure(workload, seconds, counter))
        else:
            result.update(trace(workload, counter))
            metrics = result["metrics"]
            metrics["setup.utils.plancache.put.calls"] = setup_tracer.calls["utils.plancache.put"]
            metrics["setup.utils.plancache.put.s"] = setup_tracer.total["utils.plancache.put"]
    finally:
        uncount()
    result["failed"], result["digests"] = check_ops(workload, result["records"])
    result["pins"] = workload.pins()
    result["setup_stats"] = setup_stats
    result["problems"] = result.get("problems", []) + workload.check_cache(
        setup_stats, result["op_stats"]
    )
    result.setdefault("peak_rss_mb", _peak_rss_mb())
    result["environment"] = environment(workload)
    return result


if __name__ == "__main__":
    cfg = json.loads(sys.argv[1])
    workdir = Path(cfg["workdir"])
    workdir.mkdir(parents=True, exist_ok=True)
    from workloads import WORKLOADS

    outcome = run_workload(
        WORKLOADS[cfg["workload"]](cfg["seed"], workdir),
        cfg["mode"], cfg["seconds"], cfg["t_spawn"],
    )
    Path(cfg["out"]).write_text(json.dumps(outcome))
