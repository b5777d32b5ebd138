"""The benchmark's four workloads.

Each workload makes its inputs from the seed, declares the cache state
its ops run under, warms up in ``setup`` and hands out one *pass* of ops
at a time.  An op returns the digest of its output; the worker checks it
against the pinned digest (``pins.json``, valid for ``DEFAULT_SEED``) or,
for other seeds, against the digest the same input gave during setup.

Only public entry points of the program are used: ``repro.api.Experiment``,
``repro.experiments.report.EXPERIMENTS``, ``repro.utils.plancache`` and
``repro.core.executor.clear_shared_caches``.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.api import Experiment
from repro.core.executor import clear_shared_caches
from repro.experiments.report import EXPERIMENTS
from repro.sim.events import resolve_auto_backend
from repro.utils import plancache

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SEED = 0
PINS: Dict[str, Dict[str, str]] = json.loads(
    (Path(__file__).resolve().parent / "pins.json").read_text()
)

Op = Tuple[str, Callable[[], str]]


def _disk_activity(stats: Dict[str, int]) -> Dict[str, int]:
    return {key: value for key, value in stats.items() if value}


class Workload:
    """Inputs, warm-up and ops of one workload (see README.md)."""

    name = ""
    cache_state = ""

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        #: Digest each op gave during setup (the reference for unpinned seeds).
        self.reference: Dict[str, str] = {}

    def setup(self) -> None:
        raise NotImplementedError

    def start_pass(self) -> None:
        """Restore the declared cache state at the start of a pass."""

    def ops(self) -> List[Op]:
        raise NotImplementedError

    def pins(self) -> Dict[str, str]:
        return dict(PINS.get(self.name, {})) if self.seed == DEFAULT_SEED else {}

    def check_cache(self, setup_stats: Dict[str, int], op_stats: Dict[str, int]) -> List[str]:
        """Contradictions between the declared cache state and ``plancache.stats()``."""
        raise NotImplementedError

    def kernel_backend(self) -> str:
        raise NotImplementedError

    def warm(self) -> None:
        """Run one pass untimed and record each op's digest."""
        self.start_pass()
        for op_id, op in self.ops():
            self.reference[op_id] = op()

    def _disk_off(self, setup_stats, op_stats) -> List[str]:
        problems = []
        if plancache.is_enabled():
            problems.append("disk tier declared off but plancache is enabled")
        for phase, stats in (("setup", setup_stats), ("ops", op_stats)):
            active = _disk_activity(stats)
            if active:
                problems.append(f"disk tier declared off but {phase} shows {active}")
        return problems


# -- paper_cold ----------------------------------------------------------------------


def table_digest(table) -> str:
    return hashlib.sha256(table.to_markdown().encode()).hexdigest()[:16]


class PaperCold(Workload):
    """Every entry of ``EXPERIMENTS``, in paper order, from cold memos.

    The harnesses take no inputs, so the seed changes nothing here: the
    pins hold for every seed.
    """

    name = "paper_cold"
    cache_state = "cold: memos cleared at the start of each pass, disk tier off"

    def __init__(self, seed: int, workdir: Path, entries: Optional[Sequence] = None) -> None:
        super().__init__(seed, workdir)
        self.entries = list(EXPERIMENTS if entries is None else entries)

    def setup(self) -> None:
        plancache.configure(None, enabled=False)

    def start_pass(self) -> None:
        clear_shared_caches()

    def ops(self) -> List[Op]:
        return [
            (entry.experiment_id, lambda entry=entry: table_digest(entry.runner()))
            for entry in self.entries
        ]

    def pins(self) -> Dict[str, str]:
        return dict(PINS.get(self.name, {}))

    def check_cache(self, setup_stats, op_stats) -> List[str]:
        return self._disk_off(setup_stats, op_stats)

    def kernel_backend(self) -> str:
        return "heapq"


# -- cli_warm ------------------------------------------------------------------------


class CliWarm(Workload):
    """The shipped scenarios through the ``repro run --json`` path.

    At ``DEFAULT_SEED`` the scenario files run as committed, so the pins
    are their golden digests; any other seed writes copies whose ``seed``
    is drawn from it.
    """

    name = "cli_warm"
    cache_state = (
        "disk-warm: private plan-cache dir warmed in setup, memos cleared before each op"
    )

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.paths: Dict[str, Path] = {}

    def setup(self) -> None:
        cache_dir = self.workdir / "plancache"
        if cache_dir.exists() and any(cache_dir.iterdir()):
            raise RuntimeError(f"private plan cache {cache_dir} is not empty")
        plancache.configure(cache_dir, remote_url=None)
        rng = random.Random(f"cli_warm:{self.seed}")
        inputs = self.workdir / "scenarios"
        inputs.mkdir(exist_ok=True)
        for path in sorted((ROOT / "scenarios").glob("*.yaml")):
            if self.seed == DEFAULT_SEED:
                self.paths[path.stem] = path
                continue
            variant = Experiment.from_yaml(path).with_seed(rng.randrange(2**31))
            target = inputs / f"{path.stem}.json"
            target.write_text(json.dumps(variant.to_raw(), sort_keys=True))
            self.paths[path.stem] = target
        self.warm()

    def ops(self) -> List[Op]:
        return [(stem, lambda path=path: self._run(path)) for stem, path in self.paths.items()]

    def _run(self, path: Path) -> str:
        clear_shared_caches()
        exp = Experiment.from_yaml(path)
        exp.validate()
        result = exp.run()
        # The bytes `repro run --json` writes.
        json.dumps(result.to_dict(include_timings=True), indent=2, sort_keys=True).encode()
        return result.digest()

    def check_cache(self, setup_stats, op_stats) -> List[str]:
        problems = []
        if not setup_stats.get("writes"):
            problems.append(f"setup declared to warm the cache but wrote nothing: {setup_stats}")
        if op_stats.get("misses") or op_stats.get("writes") or not op_stats.get("hits"):
            problems.append(f"ops declared disk-warm but show {_disk_activity(op_stats)}")
        remote = {k: v for k, v in op_stats.items() if k.startswith("remote") and v}
        if remote or plancache.remote_url() is not None:
            problems.append(f"remote tier declared off but shows {remote}")
        return problems

    def kernel_backend(self) -> str:
        return ",".join(sorted({
            Experiment.from_yaml(path).validate().kernel_backend for path in self.paths.values()
        }))


# -- cluster -------------------------------------------------------------------------

_GPT40B = {"tensor_parallel": 8, "pipeline_stages": 16, "microbatch_size": 2}
_GPT5B = {"tensor_parallel": 1, "pipeline_stages": 16, "microbatch_size": 2}


def _parallel(base: Dict[str, int], data_parallel: int) -> Dict[str, int]:
    return {**base, "data_parallel": data_parallel,
            "global_batch_size": data_parallel * 16}


def cluster_open_doc(seed: int) -> Dict:
    """An ``xlarge_cluster``-shaped document: two tenants over 512
    executors, open-loop arrivals, ``sjf``, no preemption, no faults and
    no deadlines (an urgent deadline arrival enters the preemption search
    even with preemption off).
    Sizes, the arrival total and the fill-model mixes are fixed so every
    seed does about the same work (>= 10k events); the arrival split and
    the trace seed vary."""
    rng = random.Random(f"cluster_open:{seed}")
    share = rng.uniform(0.5, 0.6)
    total_rate = 8000.0
    return {
        "name": f"cluster-open-{seed}",
        "horizon_seconds": 3600,
        "policy": "sjf",
        "seed": rng.randrange(2**31),
        "kernel_backend": "auto",
        "tenants": [
            {
                "name": "llm-40b",
                "model": "gpt-40b",
                "parallel": _parallel(_GPT40B, 128),
                "devices_per_stage": 16,
                "workload": {
                    "arrival_rate_per_hour": round(total_rate * share, 1),
                    "open_loop": True,
                },
            },
            {
                "name": "llm-5b",
                "model": "gpt-5b",
                "parallel": _parallel(_GPT5B, 64),
                "devices_per_stage": 16,
                "workload": {
                    "arrival_rate_per_hour": round(total_rate * (1 - share), 1),
                    "models": ["bert-base", "efficientnet"],
                    "open_loop": True,
                },
            },
        ],
    }


def cluster_preempt_doc(seed: int) -> Dict:
    """A ``large_cluster`` + ``elastic_tenants``-shaped document: a
    deadline backlog under ``slack+sjf`` with ``deadline`` preemption,
    executor faults, and an elastic tenant that leaves with ``requeue``.
    Sizes, rates and fill-model mixes are fixed so every seed does about
    the same work; the trace seed, the faults and the elastic window vary."""
    rng = random.Random(f"cluster_preempt:{seed}")
    horizon = 7200
    join_at = rng.randrange(600, 1800)
    leave_at = rng.randrange(4200, 6000)
    faults = []
    for executor in rng.sample(range(64), 3):
        fail_at = rng.randrange(600, 6000)
        fault = {"tenant": "llm-40b-a", "executor": executor, "fail_at": fail_at}
        if rng.random() < 0.7:
            fault["recover_at"] = fail_at + rng.randrange(300, 900)
        faults.append(fault)
    return {
        "name": f"cluster-preempt-{seed}",
        "horizon_seconds": horizon,
        "policy": "slack+sjf",
        "preemption": "deadline",
        "seed": rng.randrange(2**31),
        "kernel_backend": "auto",
        "tenants": [
            {
                "name": "llm-40b-a",
                "model": "gpt-40b",
                "parallel": _parallel(_GPT40B, 64),
                "devices_per_stage": 4,
                "workload": {
                    "arrival_rate_per_hour": 1800,
                    "deadline_fraction": 0.3,
                    "deadline_slack_factor": 8.0,
                },
            },
            {
                "name": "llm-40b-b",
                "model": "gpt-40b",
                "schedule": "1f1b",
                "parallel": _parallel(_GPT40B, 32),
                "devices_per_stage": 4,
                "workload": {
                    "arrival_rate_per_hour": 1200,
                    "models": ["bert-base", "bert-large", "efficientnet"],
                },
            },
            {
                "name": "llm-5b-burst",
                "model": "gpt-5b",
                "join_at": join_at,
                "leave_at": leave_at,
                "leave_mode": "requeue",
                "parallel": _parallel(_GPT5B, 16),
                "devices_per_stage": 4,
                "workload": {
                    "arrival_rate_per_hour": 900,
                    "models": ["bert-base", "efficientnet"],
                    "deadline_fraction": 0.5,
                    "deadline_slack_factor": 6.0,
                },
            },
        ],
        "faults": faults,
    }


class Cluster(Workload):
    """Both generated cluster documents, one ``Experiment`` run per op.

    The open-loop document resolves ``auto`` to ``soa`` and the preemptive
    one to ``heapq``, so a pass covers both sides of that split.
    """

    name = "cluster"
    cache_state = "memo-warm: memos warmed by one untimed pass in setup, disk tier off"

    def setup(self) -> None:
        plancache.configure(None, enabled=False)
        self.docs = [cluster_open_doc(self.seed), cluster_preempt_doc(self.seed)]
        self.warm()

    def ops(self) -> List[Op]:
        return [
            (doc["name"], lambda doc=doc: Experiment.from_dict(doc).run().digest())
            for doc in self.docs
        ]

    def check_cache(self, setup_stats, op_stats) -> List[str]:
        return self._disk_off(setup_stats, op_stats)

    def kernel_backend(self) -> str:
        return ",".join(
            "auto->" + resolve_auto_backend(
                num_tenants=len(doc["tenants"]),
                preemptive=doc.get("preemption") is not None,
            )
            for doc in self.docs
        )


WORKLOADS = {cls.name: cls for cls in (PaperCold, CliWarm, Cluster)}
