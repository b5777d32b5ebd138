"""Tests for repro.core.executor (the Fill Job Executor)."""

from __future__ import annotations

import pytest

from repro.core.config import PipeFillConfig
from repro.core.executor import FillJobExecutor
from repro.hardware.memory import MemoryAllocator
from repro.models.configs import ExecutionConfig, JobType
from repro.pipeline.bubbles import BubbleCycle
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
