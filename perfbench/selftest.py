#!/usr/bin/env python3
"""Self-test of the benchmark's own checks (takes a few seconds).

    python3 perfbench/selftest.py

1. A wrong pinned digest makes every op fail, so ``error_rate`` rises.
2. A plan cache warmed before a run declared cold fails the run.

Both run a cheap slice of the ``paper_cold`` workload in this process.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from repro.core.executor import clear_shared_caches  # noqa: E402
from repro.experiments.report import EXPERIMENTS  # noqa: E402
from repro.utils import plancache  # noqa: E402
from worker import run_workload  # noqa: E402
from workloads import PaperCold  # noqa: E402

#: Cheap entries that still run plan search through the executors.
CHEAP = [entry for entry in EXPERIMENTS if entry.experiment_id in ("Figure 7", "Figure 10a")]


class WrongPins(PaperCold):
    def pins(self):
        return {entry.experiment_id: "0" * 16 for entry in self.entries}


class PrewarmedCache(PaperCold):
    """Declared cold, but set up against a plan cache warmed earlier."""

    def __init__(self, seed, workdir, cache_dir):
        super().__init__(seed, workdir, entries=CHEAP)
        self.cache_dir = cache_dir

    def setup(self):
        plancache.configure(self.cache_dir)


def _run(workload):
    result = run_workload(workload, "measure", 0.0, perf_counter())
    return result["failed"] / len(result["records"]), result["problems"]


def main() -> int:
    scratch = HERE.parent / ".perfbench-tmp"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=scratch))
    try:
        error_rate, problems = _run(PaperCold(0, workdir, entries=CHEAP))
        assert error_rate == 0 and not problems, (error_rate, problems)

        error_rate, _ = _run(WrongPins(0, workdir, entries=CHEAP))
        assert error_rate == 1.0, error_rate
        print("ok: a wrong pinned digest raises error_rate to", error_rate)

        cache_dir = workdir / "prewarmed"
        plancache.configure(cache_dir)
        clear_shared_caches()
        for entry in CHEAP:
            entry.runner()
        error_rate, problems = _run(PrewarmedCache(0, workdir, cache_dir))
        hits = [problem for problem in problems if "hits" in problem]
        assert error_rate == 0 and hits, problems
        print("ok: a pre-warmed cache under a cold declaration fails the run:", hits[0])
    finally:
        plancache.configure(None, enabled=False)
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
