#!/usr/bin/env python3
"""The simulator's benchmark.

    python3 perfbench/run.py --workload cluster --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout.  Every workload run happens in
fresh interpreters (``worker.py``) on the checkout's ``src/``:

* ``--trace 0`` first starts ``SETUP_SAMPLES - 1`` interpreters that only
  set the workload up, then one that sets it up and runs whole passes of
  ops for ``--seconds``.  ``setup_s`` is the median of the set-ups.  The
  timed metrics are in *reference seconds*: each op's wall time is scaled
  by ``REFERENCE_S`` over the time a fixed loop took just before it
  (``worker.reference_seconds``), so a host that runs everything slower
  for a while, as a shared one does in phases of seconds to minutes,
  cancels out, while a slower program does not.  Each distinct op counts
  with its median over its repeats.
* ``--trace 1`` runs one untraced and one traced pass and reports the
  per-layer metrics of the traced pass (see ``tracing.py``).

Each op's output digest is checked (see ``workloads.py``) and so is the
plan cache's declared state.  Human-readable lines come first; the last
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only when everything checked out.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import shutil
import statistics
import subprocess
import sys
import uuid
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper_cold", "cli_warm", "cluster")
#: Interpreters per ``--trace 0`` run; each gives one set-up sample.
SETUP_SAMPLES = 3
#: Import timings per ``--trace 1`` run.
IMPORT_SAMPLES = 3
#: Every run ends within this many seconds.
BUDGET_S = 170.0
#: The reference loop's time on a quiet 2-vCPU Xeon VM, so that a
#: reference second is about a wall second there.
REFERENCE_S = 0.006
END_TO_END = {
    "setup_s": "s",
    "ops_per_ref_s": "ops/ref_s",
    "op_ref_s.p50": "ref_s",
    "sim_events_per_ref_s": "events/ref_s",
    "peak_rss_mb": "MB",
}


class ChildFailed(RuntimeError):
    pass


def git_commit() -> str:
    """HEAD's commit, read from ``.git`` without running git; ``unknown``
    in a checkout that is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env.pop("REPRO_CACHE_URL", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class Runner:
    def __init__(self, args: argparse.Namespace, workdir: Path) -> None:
        self.args = args
        self.workdir = workdir
        self.deadline = perf_counter() + BUDGET_S
        self.env = child_env()
        self.spawned = 0

    def _remaining(self) -> float:
        remaining = self.deadline - perf_counter()
        if remaining <= 0:
            raise ChildFailed(f"run exceeded its {BUDGET_S:.0f} s budget")
        return remaining

    def _call(self, argv: List[str]) -> subprocess.CompletedProcess:
        try:
            proc = subprocess.run(
                argv, env=self.env, cwd=ROOT, stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, text=True, timeout=self._remaining(),
            )
        except subprocess.TimeoutExpired:
            raise ChildFailed(f"run exceeded its {BUDGET_S:.0f} s budget") from None
        if proc.returncode != 0:
            raise ChildFailed(f"{argv[1:3]} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
        return proc

    def worker(self, mode: str, seconds: float = 0.0) -> Dict:
        self.spawned += 1
        out = self.workdir / f"result-{self.spawned}.json"
        config = {
            "workload": self.args.workload,
            "seed": self.args.seed,
            "seconds": seconds,
            "mode": mode,
            "workdir": str(self.workdir / f"worker-{self.spawned}"),
            "out": str(out),
            "t_spawn": perf_counter(),
        }
        self._call([sys.executable, str(HERE / "worker.py"), json.dumps(config)])
        return json.loads(out.read_text())

    def import_seconds(self) -> float:
        code = (
            "import time; start = time.perf_counter(); import repro.api; "
            "print(time.perf_counter() - start)"
        )
        return statistics.median(
            float(self._call([sys.executable, "-c", code]).stdout.strip())
            for _ in range(IMPORT_SAMPLES)
        )


def op_medians(records: List[list], scaled: bool = True) -> Dict[str, Tuple[float, float]]:
    """Each distinct op's median time -- in reference seconds, or in wall
    seconds if not ``scaled`` -- and median simulated events over its
    repeats: ``op_id -> (seconds, events)``."""
    repeats: Dict[str, List[list]] = collections.defaultdict(list)
    for op_id, seconds, _, _, events, reference in records:
        repeats[op_id].append([seconds * REFERENCE_S / reference if scaled else seconds, events])
    return {
        op_id: (statistics.median(s for s, _ in rows), statistics.median(e for _, e in rows))
        for op_id, rows in repeats.items()
    }


def end_to_end(result: Dict) -> Dict[str, float]:
    """A median pass is every distinct op once, each at its median over
    the run; the rates are taken over it."""
    medians = op_medians(result["records"])
    pass_s = sum(seconds for seconds, _ in medians.values())
    return {
        "setup_s": statistics.median(result["setup_samples"]),
        "ops_per_ref_s": len(medians) / pass_s,
        "op_ref_s.p50": statistics.median(seconds for seconds, _ in medians.values()),
        "sim_events_per_ref_s": sum(events for _, events in medians.values()) / pass_s,
        "peak_rss_mb": result["peak_rss_mb"],
    }


def report(args, result: Dict, metrics: Dict[str, float], units: Dict[str, str],
           problems: List[str]) -> None:
    """The human-readable lines printed before the JSON result."""
    attempted = len(result["records"])
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print("environment: " + json.dumps(result["environment"], sort_keys=True))
    print(f"plancache stats: setup {result['setup_stats']}  ops {result['op_stats']}")
    pinned = "pinned" if result["pins"] else "unpinned (compared with set-up and first run)"
    print(f"digests ({pinned}): " + json.dumps(result["digests"], sort_keys=True))
    for name, value in metrics.items():
        print(f"  {name:<48} {value:>14.6g} {units[name]}")
    if args.trace:
        print(f"traced pass: {attempted // 2} ops in {result['traced_s']:.6g} s")
    else:
        repeats = collections.Counter(record[0] for record in result["records"])
        print(f"timed: {attempted} ops, {len(repeats)} distinct, "
              f"{min(repeats.values())}-{max(repeats.values())} repeats each")
        wall = op_medians(result["records"], scaled=False)
        reference = statistics.median(record[5] for record in result["records"])
        print(f"unscaled: median pass {sum(s for s, _ in wall.values()):.6g} s, "
              f"op_s.p50 {statistics.median(s for s, _ in wall.values()):.6g} s; "
              f"reference loop median {reference:.6g} s (REFERENCE_S {REFERENCE_S} s)")
    error_rate = result["failed"] / attempted
    print(f"  {'error_rate':<48} {error_rate:>14.6g} ratio  ({result['failed']} of {attempted} ops)")
    for problem in problems:
        print(f"FAILED CHECK: {problem}")


def run(args: argparse.Namespace, workdir: Path) -> int:
    runner = Runner(args, workdir)
    if args.trace:
        from tracing import per_layer_units

        result = runner.worker("trace")
        metrics = {"import.s": runner.import_seconds(), **result["metrics"]}
        units = per_layer_units()
        missing = sorted(set(units) - set(metrics))
        if missing:
            result["problems"].append(f"per-layer metrics missing: {missing}")
        metrics = {name: metrics[name] for name in units if name in metrics}
    else:
        setups = [runner.worker("setup") for _ in range(SETUP_SAMPLES - 1)]
        result = runner.worker("measure", args.seconds)
        result["setup_samples"] = [r["setup_s"] for r in setups] + [result["setup_s"]]
        metrics = end_to_end(result)
        units = END_TO_END
    result["environment"]["git_commit"] = git_commit()
    problems = result["problems"]
    attempted = len(result["records"])
    failed = result["failed"]
    if failed:
        problems.append(f"{failed} of {attempted} ops raised or gave a wrong digest")
    correct = not problems
    report(args, result, metrics, units, problems)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: {ROOT} holds no src/repro to benchmark", file=sys.stderr)
        return 2
    workdir = ROOT / ".perfbench-tmp" / uuid.uuid4().hex
    workdir.mkdir(parents=True)
    try:
        return run(args, workdir)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
