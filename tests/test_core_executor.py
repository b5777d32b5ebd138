"""Tests for repro.core.executor (the Fill Job Executor)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import PipeFillConfig
from repro.core.executor import FillJobExecutor
from repro.hardware.memory import MemoryAllocator
from repro.models.configs import ExecutionConfig, JobType, candidate_configs
from repro.models.efficiency import EfficiencyModel
from repro.models.registry import build_model
from repro.pipeline.bubbles import Bubble, BubbleCycle
from repro.pipeline.instructions import BubbleKind
from repro.utils.units import GIB


@pytest.fixture(scope="module")
def executor_8k(bubble_cycle_8k_module) -> FillJobExecutor:
    return FillJobExecutor(bubble_cycle_8k_module)


@pytest.fixture(scope="module")
def bubble_cycle_8k_module():
    from repro.models.registry import build_model
    from repro.pipeline.parallelism import ParallelConfig
    from repro.sim.mainjob import AnalyticMainJob

    parallel = ParallelConfig(
        tensor_parallel=8, pipeline_stages=16, data_parallel=64,
        microbatch_size=2, global_batch_size=1024,
    )
    job = AnalyticMainJob(model=build_model("gpt-40b"), parallel=parallel)
    return job.bubble_cycle(8)


class TestEstimates:
    def test_estimate_exists_for_all_table1_inference_jobs(self, executor_8k):
        from repro.models.registry import build_model

        for name in ("bert-base", "bert-large", "efficientnet", "swin-large", "xlm-roberta-xl"):
            est = executor_8k.build_estimate(build_model(name), JobType.BATCH_INFERENCE)
            assert est is not None, name
            assert est.recovered_tflops > 0

    def test_xlm_training_does_not_fit(self, executor_8k, xlm_model):
        assert executor_8k.build_estimate(xlm_model, JobType.TRAINING) is None

    def test_inference_beats_training(self, executor_8k, bert_base_model):
        """Figure 7a: batch inference reaches higher FLOPS than training."""
        inf = executor_8k.build_estimate(bert_base_model, JobType.BATCH_INFERENCE)
        train = executor_8k.build_estimate(bert_base_model, JobType.TRAINING)
        assert inf.recovered_tflops > train.recovered_tflops

    def test_swin_and_efficientnet_perform_poorly(self, executor_8k):
        """Figure 7a: Swin and EfficientNet are the weakest fill jobs."""
        from repro.models.registry import build_model

        def tflops(name):
            est = executor_8k.build_estimate(build_model(name), JobType.BATCH_INFERENCE)
            return est.recovered_tflops

        assert tflops("swin-large") < tflops("bert-base")
        assert tflops("efficientnet") < tflops("bert-base")

    def test_xlm_similar_tflops_to_bert_inference(self, executor_8k, xlm_model, bert_base_model):
        """Figure 7: XLM inference recovers TFLOPS comparable to BERT inference."""
        xlm = executor_8k.build_estimate(xlm_model, JobType.BATCH_INFERENCE)
        bert = executor_8k.build_estimate(bert_base_model, JobType.BATCH_INFERENCE)
        assert xlm.recovered_tflops == pytest.approx(bert.recovered_tflops, rel=0.5)

    def test_substantial_slowdown_relative_to_exclusive(self, executor_8k, bert_base_model):
        """Figure 7b: fill jobs run at a fraction (~20-50%) of exclusive throughput."""
        est = executor_8k.build_estimate(bert_base_model, JobType.BATCH_INFERENCE)
        assert 0.1 < est.relative_performance < 0.6
        assert est.slowdown > 1.5

    def test_recovered_tflops_below_main_job_tflops(self, executor_8k, bert_base_model):
        """Fill jobs in bubbles stay well below the main job's ~60 TFLOP/s."""
        est = executor_8k.build_estimate(bert_base_model, JobType.BATCH_INFERENCE)
        assert est.recovered_tflops < 40.0

    def test_estimate_cache_hit(self, executor_8k, bert_base_model):
        first = executor_8k.build_estimate(bert_base_model, JobType.BATCH_INFERENCE)
        second = executor_8k.build_estimate(bert_base_model, JobType.BATCH_INFERENCE)
        assert first is second

    def test_explicit_configs_bypass_cache(self, executor_8k, bert_base_model):
        est = executor_8k.build_estimate(
            bert_base_model,
            JobType.BATCH_INFERENCE,
            configs=[ExecutionConfig(batch_size=2)],
        )
        assert est is not None
        assert est.profile.config.batch_size == 2

    def test_footprint_respects_usable_memory(self, executor_8k, bert_large_model):
        est = executor_8k.build_estimate(bert_large_model, JobType.TRAINING)
        assert est is not None
        assert est.profile.device_footprint_bytes <= executor_8k.usable_memory_bytes


class TestProcessingTime:
    def test_processing_time_scales_linearly(self, executor_8k, bert_base_model):
        t1 = executor_8k.processing_time(bert_base_model, JobType.BATCH_INFERENCE, 1_000)
        t2 = executor_8k.processing_time(bert_base_model, JobType.BATCH_INFERENCE, 2_000)
        assert t2 == pytest.approx(2 * t1, rel=0.01)

    def test_processing_time_infinite_when_no_fit(self, executor_8k, xlm_model):
        assert executor_8k.processing_time(xlm_model, JobType.TRAINING, 100) == float("inf")

    def test_flops_for_samples(self, executor_8k, bert_base_model):
        est = executor_8k.build_estimate(bert_base_model, JobType.BATCH_INFERENCE)
        flops = est.flops_for_samples(100)
        assert flops > 0
        assert est.flops_for_samples(200) == pytest.approx(2 * flops)

    def test_processing_time_invalid_samples(self, executor_8k, bert_base_model):
        est = executor_8k.build_estimate(bert_base_model, JobType.BATCH_INFERENCE)
        with pytest.raises(ValueError):
            est.processing_time(0)


class TestBubbleSensitivity:
    def test_more_free_memory_helps_training(self, bert_large_model):
        """Figure 10b: more bubble free memory raises recovered TFLOPS."""
        small = FillJobExecutor(BubbleCycle.from_durations([1.0, 1.0], 2 * GIB, period=4.0))
        large = FillJobExecutor(BubbleCycle.from_durations([1.0, 1.0], 8 * GIB, period=4.0))
        est_small = small.build_estimate(bert_large_model, JobType.TRAINING)
        est_large = large.build_estimate(bert_large_model, JobType.TRAINING)
        assert est_large.recovered_tflops >= est_small.recovered_tflops

    def test_longer_bubbles_do_not_hurt(self, bert_base_model):
        """Figure 10a: scaling bubble durations changes recovered TFLOPS little."""
        short = FillJobExecutor(BubbleCycle.from_durations([0.5, 0.5], 4.5 * GIB, period=2.0))
        long = FillJobExecutor(BubbleCycle.from_durations([2.0, 2.0], 4.5 * GIB, period=8.0))
        est_short = short.build_estimate(bert_base_model, JobType.BATCH_INFERENCE)
        est_long = long.build_estimate(bert_base_model, JobType.BATCH_INFERENCE)
        assert est_long.recovered_tflops >= est_short.recovered_tflops
        # ... but the change is moderate, not a cliff.
        assert est_long.recovered_tflops < 2.5 * est_short.recovered_tflops


class TestMemoryCapIsolation:
    def test_partition_executes_under_cap(self, executor_8k, bert_base_model):
        est = executor_8k.build_estimate(bert_base_model, JobType.BATCH_INFERENCE)
        allocator = MemoryAllocator(capacity_bytes=15 * GIB)
        allocator.allocate("main-job", "weights", 10 * GIB)
        partition = next(p for p in est.plan.partitions if not p.is_empty)
        assert executor_8k.execute_partition_on(allocator, partition)
        # Nothing leaks into the fill pool afterwards.
        assert allocator.memory_allocated("fill-job") == 0.0

    def test_partition_oom_is_isolated(self, executor_8k, bert_base_model):
        est = executor_8k.build_estimate(bert_base_model, JobType.BATCH_INFERENCE)
        allocator = MemoryAllocator(capacity_bytes=15 * GIB)
        allocator.allocate("main-job", "weights", 10 * GIB)
        partition = next(p for p in est.plan.partitions if not p.is_empty)
        ok = executor_8k.execute_partition_on(
            allocator, partition, free_memory_bytes=1.0  # absurdly small cap
        )
        assert not ok
        # The main job's allocation is untouched by the fill job's OOM.
        assert allocator.memory_allocated("main-job") == pytest.approx(10 * GIB)


class TestSharedMemoBound:
    """The shared estimate memos are reused across executors until more
    than ``_MAX_SHARED_NAMESPACES`` namespaces exist, then flushed."""

    @staticmethod
    def _cycle(duration: float) -> BubbleCycle:
        return BubbleCycle.from_durations([duration, 1.0], 4.5 * GIB, period=4.0)

    @pytest.fixture()
    def executor_mod(self, monkeypatch):
        import repro.core.executor as executor_mod

        executor_mod.clear_shared_caches()
        monkeypatch.setattr(executor_mod, "_MAX_SHARED_NAMESPACES", 2)
        yield executor_mod
        executor_mod.clear_shared_caches()

    def test_hit_after_reuse_within_bound(self, executor_mod, bert_base_model):
        a, b = self._cycle(0.5), self._cycle(0.6)
        first = FillJobExecutor(a).build_estimate(bert_base_model, JobType.BATCH_INFERENCE)
        FillJobExecutor(b)
        reused = FillJobExecutor(a)
        assert reused.build_estimate(bert_base_model, JobType.BATCH_INFERENCE) is first

    def test_flush_past_bound_recomputes_equal_estimate(self, executor_mod, bert_base_model):
        a, b, c = self._cycle(0.5), self._cycle(0.6), self._cycle(0.7)
        first = FillJobExecutor(a).build_estimate(bert_base_model, JobType.BATCH_INFERENCE)
        FillJobExecutor(b)
        FillJobExecutor(c)
        fresh = FillJobExecutor(a)  # three namespaces exceed the bound: flushed
        assert len(executor_mod._SHARED_ESTIMATES) == 1
        estimate = fresh.build_estimate(bert_base_model, JobType.BATCH_INFERENCE)
        assert estimate is not first
        assert estimate.samples_per_cycle == first.samples_per_cycle
        assert estimate.plan.partitions == first.plan.partitions


def _config_pool(job_type: JobType):
    """The default candidates plus, for inference, exact ties: inference
    ignores the training-only flags, so each twin prices identically."""
    pool = candidate_configs(job_type)
    if not job_type.is_training:
        pool += [
            ExecutionConfig(c.batch_size, offload_params=c.offload_params, offload_optimizer=True)
            for c in pool
        ]
    return pool


@st.composite
def _search_inputs(draw):
    num_bubbles = draw(st.integers(min_value=1, max_value=4))
    bubbles = tuple(
        Bubble(
            kind=draw(st.sampled_from(list(BubbleKind))),
            stage_id=0,
            index=i,
            duration=draw(st.one_of(
                st.sampled_from([0.0, 0.04, 0.05, 0.3]),
                st.floats(min_value=0.03, max_value=1.2),
            )),
            free_memory_bytes=draw(st.sampled_from([0.25, 1, 2, 4.5, 8, 16])) * GIB,
        )
        for i in range(num_bubbles)
    )
    total = sum(b.duration for b in bubbles)
    period = draw(st.one_of(
        st.just(0.0), st.just(total), st.floats(min_value=total + 0.1, max_value=total + 4.0)
    ))
    cycle = BubbleCycle(stage_id=0, bubbles=bubbles, period=period)
    config = PipeFillConfig(fill_fraction=draw(st.one_of(
        st.sampled_from([0.68, 1.0]), st.floats(min_value=0.05, max_value=1.0)
    )))
    efficiency = EfficiencyModel(
        cold_efficiency=draw(st.one_of(
            st.sampled_from([0.0, 0.4, 1.0]), st.floats(min_value=0.0, max_value=1.0)
        )),
        warmup_tau_seconds=draw(st.one_of(
            st.just(4.0), st.floats(min_value=0.01, max_value=100.0)
        )),
    )
    model = build_model(draw(st.sampled_from(["bert-base", "efficientnet", "bert-large"])))
    job_type = draw(st.sampled_from(list(JobType)))
    configs = draw(st.one_of(
        st.none(),
        st.lists(st.sampled_from(_config_pool(job_type)), min_size=1, max_size=10),
    ))
    return FillJobExecutor(cycle, config=config, efficiency=efficiency), model, job_type, configs


class TestPrunedSearch:
    """The fast path's bound-pruned config search picks exactly what the
    ``use_cache=False`` full scan picks."""

    @settings(max_examples=150, deadline=None)
    @given(_search_inputs())
    def test_matches_full_scan(self, inputs):
        executor, model, job_type, configs = inputs
        fast = executor.build_estimate(model, job_type, configs=configs)
        brute = executor.build_estimate(model, job_type, configs=configs, use_cache=False)
        assert (fast is None) == (brute is None)
        if fast is not None:
            assert fast.profile.config == brute.profile.config
            assert fast.samples_per_cycle == brute.samples_per_cycle
            assert fast.flops_per_cycle == brute.flops_per_cycle
            assert fast.used_bubble_seconds_per_cycle == brute.used_bubble_seconds_per_cycle
        # The bound the search prunes on holds for every config.
        for exec_config in configs or candidate_configs(job_type):
            single = executor.build_estimate(model, job_type, configs=[exec_config])
            if single is not None:
                assert single.effective_samples_per_second <= executor._throughput_bound(
                    single.profile
                )

    @pytest.mark.parametrize("use_cache", [True, False])
    def test_exact_tie_keeps_the_earliest_config(self, executor_8k, bert_base_model, use_cache):
        plain = ExecutionConfig(batch_size=64)
        twin = ExecutionConfig(batch_size=64, offload_optimizer=True)
        for configs in ([twin, plain], [plain, twin]):
            estimate = executor_8k.build_estimate(
                bert_base_model, JobType.BATCH_INFERENCE, configs=configs, use_cache=use_cache
            )
            assert estimate.profile.config == configs[0]

    def test_packs_fewer_configs_than_it_profiles(self, monkeypatch, bubble_cycle_8k_module,
                                                  bert_base_model):
        import repro.core.executor as executor_mod
        import repro.models.profiles as profiles_mod

        calls = {"pack": 0, "profile": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        executor_mod.clear_shared_caches()
        monkeypatch.setattr(executor_mod, "pack_fill_job",
                            counting("pack", executor_mod.pack_fill_job))
        monkeypatch.setattr(profiles_mod, "profile_model",
                            counting("profile", profiles_mod.profile_model))
        executor = FillJobExecutor(bubble_cycle_8k_module)
        estimate = executor.build_estimate(bert_base_model, JobType.TRAINING)
        assert estimate.profile.config == ExecutionConfig(batch_size=4)
        # All 36 configs are profiled once (the isolated-throughput scan
        # reuses them); 31 fit in memory, and only 2 of those are packed.
        assert calls == {"pack": 2, "profile": 36}
        executor_mod.clear_shared_caches()
