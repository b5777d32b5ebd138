"""Tests for repro.workloads (fill-job categories, model hub, trace, generator)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.executor import clear_shared_caches
from repro.models.configs import JobType
from repro.utils.rng import ensure_rng
from repro.workloads.fill_jobs import (
    FILL_JOB_CATEGORIES,
    TRAINING_PARAM_LIMIT,
    actual_param_count,
    category_for_model,
)
from repro.workloads import generator, model_hub
from repro.workloads.generator import FillJobTraceBuilder, build_fill_job_trace
from repro.workloads.model_hub import (
    CNN_FRACTION,
    ModelHubDistribution,
    SyntheticModelHub,
    UNDER_3B_FRACTION,
    default_distribution,
)
from repro.workloads.trace import QosClass, TraceFilter, TraceGenerator


class TestFillJobCategories:
    def test_table1_contents(self):
        assert set(FILL_JOB_CATEGORIES) == {
            "efficientnet", "bert-base", "bert-large", "swin-large", "xlm-roberta-xl",
        }
        assert FILL_JOB_CATEGORIES["xlm-roberta-xl"].size_class == "L"
        assert FILL_JOB_CATEGORIES["efficientnet"].domain == "CV"

    def test_training_limit_rule(self):
        """Models over 700M parameters are inference-only (Section 5.3)."""
        assert category_for_model("bert-base").allows_training
        assert not category_for_model("xlm-roberta-xl").allows_training
        assert not category_for_model("swin-large").allows_training
        assert JobType.TRAINING not in category_for_model("swin-large").job_types()

    def test_unknown_model(self):
        with pytest.raises(KeyError):
            category_for_model("gpt-5b")

    def test_reference_counts_close_to_built_models(self):
        for name, category in FILL_JOB_CATEGORIES.items():
            assert actual_param_count(name) == pytest.approx(
                category.reference_param_count, rel=0.30
            )

    def test_limit_constant(self):
        assert TRAINING_PARAM_LIMIT == 700e6


class TestSyntheticModelHub:
    def test_under_3b_fraction_matches_paper(self):
        """The paper reports 71% of popular hub models are under 3B parameters."""
        hub = SyntheticModelHub(seed=0)
        assert hub.under_cap_fraction == pytest.approx(UNDER_3B_FRACTION, abs=0.05)

    def test_cnn_fraction_matches_paper(self):
        hub = SyntheticModelHub(seed=0).filtered()
        assert float(hub.is_cnn.mean()) == pytest.approx(CNN_FRACTION, abs=0.02)

    def test_filtered_removes_large_models(self):
        hub = SyntheticModelHub(seed=1).filtered()
        assert (hub.param_counts < 3e9).all()

    def test_deterministic(self):
        a = SyntheticModelHub(seed=5).param_counts
        b = SyntheticModelHub(seed=5).param_counts
        assert (a == b).all()

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            SyntheticModelHub(num_models=0)


class TestModelHubDistribution:
    def test_probabilities_sum_to_one(self):
        dist = default_distribution()
        assert sum(dist.probabilities.values()) == pytest.approx(1.0)

    def test_cnn_share_flows_to_efficientnet(self):
        dist = default_distribution()
        assert dist.probabilities["efficientnet"] == pytest.approx(CNN_FRACTION, abs=0.03)

    def test_all_table1_models_have_mass(self):
        dist = default_distribution()
        for name in FILL_JOB_CATEGORIES:
            assert dist.probabilities.get(name, 0.0) > 0.0

    def test_sampling_follows_distribution(self):
        dist = default_distribution()
        rng = ensure_rng(0)
        samples = dist.sample(rng, size=5_000)
        bert_share = samples.count("bert-base") / len(samples)
        assert bert_share == pytest.approx(dist.probabilities["bert-base"], abs=0.05)

    def test_invalid_probabilities(self):
        with pytest.raises(ValueError):
            ModelHubDistribution({"bert-base": 0.5})
        with pytest.raises(ValueError):
            ModelHubDistribution({"unknown-model": 1.0})

    @pytest.mark.parametrize("bad", [-0.5, float("nan"), float("inf")])
    def test_negative_or_non_finite_probability_rejected(self, bad):
        # The sum alone passes for -0.5; Generator.choice refused these at
        # sampling time, the distribution refuses them at construction.
        with pytest.raises(ValueError):
            ModelHubDistribution({"bert-base": 1.0 - bad, "efficientnet": bad})

    def test_derived_cdf_is_not_part_of_equality_or_repr(self):
        a = ModelHubDistribution({"bert-base": 0.25, "efficientnet": 0.75})
        b = ModelHubDistribution({"efficientnet": 0.75, "bert-base": 0.25})
        assert a == b
        assert "cdf" not in repr(a) and "names" not in repr(a)


def _choice_oracle(dist, gen, size=None):
    """Sampling through ``Generator.choice`` itself, the independent oracle."""
    names = sorted(dist.probabilities)
    probs = np.array([dist.probabilities[n] for n in names])
    probs = probs / probs.sum()
    if size is None:
        return str(gen.choice(names, p=probs))
    return [str(x) for x in gen.choice(names, p=probs, size=size)]


@st.composite
def _probability_dicts(draw):
    """Table 1 subsets with zero entries allowed and sums within 1e-6 of 1."""
    names = draw(
        st.lists(st.sampled_from(sorted(FILL_JOB_CATEGORIES)), min_size=1, unique=True)
    )
    weights = draw(
        st.lists(
            st.one_of(st.just(0.0), st.floats(1e-9, 1.0)),
            min_size=len(names), max_size=len(names),
        ).filter(lambda ws: sum(ws) > 0.0)
    )
    scale = (1.0 + draw(st.floats(-9e-7, 9e-7))) / sum(weights)
    return {name: w * scale for name, w in zip(names, weights)}


class _FixedUniform(np.random.Generator):
    """A generator whose uniform draws are all ``u``.

    ``Generator.choice`` draws through ``self.random``, so the oracle sees
    the same value: this pins both at exact CDF boundaries, which random
    draws essentially never hit.
    """

    def __init__(self, u: float) -> None:
        super().__init__(np.random.PCG64(0))
        self.u = u

    def random(self, size=None, dtype=np.float64, out=None):
        return self.u if size is None else np.full(size, self.u)


class TestSamplerMatchesGeneratorChoice:
    @settings(max_examples=60, deadline=None)
    @given(probabilities=_probability_dicts())
    def test_draws_at_cdf_boundaries(self, probabilities):
        dist = ModelHubDistribution(probabilities)
        edges = {0.0, float(np.nextafter(1.0, 0.0))}
        for c in dist.cdf:
            edges.update((c, float(np.nextafter(c, 0.0)), float(np.nextafter(c, 1.0))))
        for u in sorted(e for e in edges if 0.0 <= e < 1.0):
            assert dist.sample(_FixedUniform(u)) == _choice_oracle(dist, _FixedUniform(u))
            assert dist.sample(_FixedUniform(u), size=2) == _choice_oracle(
                dist, _FixedUniform(u), size=2
            )

    @settings(max_examples=60, deadline=None)
    @given(
        probabilities=_probability_dicts(),
        seed=st.integers(0, 2**32 - 1),
        draws=st.integers(1, 300),
    )
    def test_scalar_draws(self, probabilities, seed, draws):
        dist = ModelHubDistribution(probabilities)
        ours, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
        got = [dist.sample(ours) for _ in range(draws)]
        want = [_choice_oracle(dist, oracle) for _ in range(draws)]
        assert got == want
        assert ours.bit_generator.state == oracle.bit_generator.state

    @settings(max_examples=60, deadline=None)
    @given(
        probabilities=_probability_dicts(),
        seed=st.integers(0, 2**32 - 1),
        size=st.integers(0, 2_000),
    )
    def test_sized_draws(self, probabilities, seed, size):
        dist = ModelHubDistribution(probabilities)
        ours, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
        assert dist.sample(ours, size=size) == _choice_oracle(dist, oracle, size=size)
        assert ours.bit_generator.state == oracle.bit_generator.state


class TestTraceGenerator:
    def test_jobs_within_duration(self):
        jobs = TraceGenerator(seed=0).generate(3_600.0)
        assert jobs
        assert all(0 <= j.arrival_time < 3_600.0 for j in jobs)

    def test_arrival_rate_approximate(self):
        gen = TraceGenerator(arrival_rate_per_hour=200, seed=0)
        jobs = gen.generate(10 * 3_600.0)
        rate = len(jobs) / 10
        assert rate == pytest.approx(200, rel=0.25)

    def test_deterministic(self):
        a = TraceGenerator(seed=3).generate(3_600.0)
        b = TraceGenerator(seed=3).generate(3_600.0)
        assert [j.arrival_time for j in a] == [j.arrival_time for j in b]

    def test_gpu_hours_property(self):
        job = TraceGenerator(seed=0).generate(3_600.0)[0]
        assert job.gpu_hours == pytest.approx(job.num_gpus * job.service_time / 3600.0)

    def test_qos_mix(self):
        jobs = TraceGenerator(seed=0, latency_sensitive_fraction=0.3).generate(20 * 3600.0)
        ls = sum(1 for j in jobs if j.qos is QosClass.LATENCY_SENSITIVE) / len(jobs)
        assert ls == pytest.approx(0.3, abs=0.05)

    def test_invalid_duration(self):
        with pytest.raises(ValueError):
            TraceGenerator().generate(0.0)


class TestTraceFilter:
    @pytest.fixture(scope="class")
    def raw_jobs(self):
        return TraceGenerator(seed=7).generate(50 * 3_600.0)

    def test_latency_sensitive_dropped(self, raw_jobs):
        kept = TraceFilter().apply(raw_jobs)
        assert all(j.qos is QosClass.BEST_EFFORT for j in kept)

    def test_size_cap_enforced(self, raw_jobs):
        cap = TraceFilter.PHYSICAL_CAP_SECONDS
        kept = TraceFilter(max_gpu_seconds=cap).apply(raw_jobs)
        assert all(j.gpu_seconds <= cap for j in kept)

    def test_retention_rates_match_paper(self, raw_jobs):
        """The paper keeps 55% of jobs under 9 GPU-minutes and 81.6% under 1 GPU-hour."""
        physical = TraceFilter(max_gpu_seconds=TraceFilter.PHYSICAL_CAP_SECONDS)
        simulation = TraceFilter(max_gpu_seconds=TraceFilter.SIMULATION_CAP_SECONDS)
        assert physical.retention(raw_jobs) == pytest.approx(0.55, abs=0.10)
        assert simulation.retention(raw_jobs) == pytest.approx(0.816, abs=0.08)

    def test_sorted_by_arrival(self, raw_jobs):
        kept = TraceFilter().apply(raw_jobs)
        arrivals = [j.arrival_time for j in kept]
        assert arrivals == sorted(arrivals)

    def test_retention_empty(self):
        assert TraceFilter().retention([]) == 0.0


class TestFillJobTraceBuilder:
    def test_generate_produces_fill_jobs(self):
        jobs = FillJobTraceBuilder(seed=0).generate(3_600.0)
        assert jobs
        assert all(j.num_samples >= 1 for j in jobs)
        assert all(j.model_name in FILL_JOB_CATEGORIES for j in jobs)

    def test_large_models_inference_only(self):
        jobs = FillJobTraceBuilder(seed=0).generate(8 * 3_600.0)
        for job in jobs:
            if not category_for_model(job.model_name).allows_training:
                assert job.job_type is JobType.BATCH_INFERENCE

    def test_small_models_mix_training_and_inference(self):
        jobs = FillJobTraceBuilder(seed=0).generate(12 * 3_600.0)
        small = [j for j in jobs if category_for_model(j.model_name).allows_training]
        types = {j.job_type for j in small}
        assert types == {JobType.TRAINING, JobType.BATCH_INFERENCE}

    def test_deadline_fraction(self):
        jobs = FillJobTraceBuilder(seed=0, deadline_fraction=0.5).generate(6 * 3_600.0)
        with_deadline = sum(1 for j in jobs if j.deadline is not None) / len(jobs)
        assert with_deadline == pytest.approx(0.5, abs=0.12)
        for job in jobs:
            if job.deadline is not None:
                assert job.deadline > job.arrival_time

    def test_samples_proportional_to_gpu_seconds(self):
        """GPU-hours convert to samples via isolated throughput (Section 5.3)."""
        builder = FillJobTraceBuilder(seed=0)
        from repro.workloads.trace import TraceJob

        small = TraceJob("a", 0.0, 1, 60.0, QosClass.BEST_EFFORT)
        large = TraceJob("b", 0.0, 1, 600.0, QosClass.BEST_EFFORT)
        # An inference-only model keeps the GPU-hours -> samples conversion
        # factor identical for both jobs.
        dist = ModelHubDistribution({"xlm-roberta-xl": 1.0})
        builder.distribution = dist
        jobs = builder.from_trace_jobs([small, large], rng=0)
        by_id = {j.job_id: j for j in jobs}
        ratio = by_id["fill-b"].num_samples / by_id["fill-a"].num_samples
        assert ratio == pytest.approx(10.0, rel=0.30)

    def test_deterministic(self):
        a = FillJobTraceBuilder(seed=9).generate(3_600.0)
        b = FillJobTraceBuilder(seed=9).generate(3_600.0)
        assert [(j.job_id, j.model_name, j.num_samples) for j in a] == [
            (j.job_id, j.model_name, j.num_samples) for j in b
        ]


class TestBuildFillJobTrace:
    def test_restricted_models(self):
        jobs = build_fill_job_trace(3_600.0, models=["bert-base"], seed=0)
        assert jobs
        assert all(j.model_name == "bert-base" for j in jobs)

    def test_forced_job_type(self):
        jobs = build_fill_job_trace(
            3_600.0, models=["bert-base"], job_type=JobType.BATCH_INFERENCE, seed=0
        )
        assert all(j.job_type is JobType.BATCH_INFERENCE for j in jobs)

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            build_fill_job_trace(3_600.0, models=["resnet"])

    def test_invalid_duration(self):
        with pytest.raises(ValueError):
            build_fill_job_trace(0.0)


class TestTraceMemo:
    ARGS = dict(arrival_rate_per_hour=400.0, seed=4)

    @pytest.fixture(autouse=True)
    def cold(self):
        clear_shared_caches()
        yield
        clear_shared_caches()

    def test_hit_equals_a_fresh_build_but_is_a_new_list(self):
        first = build_fill_job_trace(3_600.0, **self.ARGS)
        hit = build_fill_job_trace(3_600.0, **self.ARGS)
        assert len(generator._TRACE_MEMO) == 1
        assert hit == first and hit is not first
        clear_shared_caches()
        assert hit == build_fill_job_trace(3_600.0, **self.ARGS)

    def test_mutating_the_result_does_not_leak_into_the_memo(self):
        first = build_fill_job_trace(3_600.0, **self.ARGS)
        expected = list(first)
        first.reverse()
        first.append(first[0])
        hit = build_fill_job_trace(3_600.0, **self.ARGS)
        hit.clear()
        assert build_fill_job_trace(3_600.0, **self.ARGS) == expected

    def test_generator_seeds_bypass_the_memo(self):
        a = build_fill_job_trace(3_600.0, seed=np.random.default_rng(4))
        b = build_fill_job_trace(3_600.0, seed=np.random.default_rng(4))
        assert a == b
        assert not generator._TRACE_MEMO

    def test_forced_job_type_is_part_of_the_key(self):
        mixed = build_fill_job_trace(3_600.0, models=["bert-base"], seed=0)
        forced = build_fill_job_trace(
            3_600.0, models=["bert-base"], job_type=JobType.BATCH_INFERENCE, seed=0
        )
        assert {j.job_type for j in mixed} == {JobType.TRAINING, JobType.BATCH_INFERENCE}
        assert {j.job_type for j in forced} == {JobType.BATCH_INFERENCE}

    def test_clear_shared_caches_empties_both_memos(self):
        build_fill_job_trace(3_600.0, **self.ARGS)
        default_distribution(11)
        assert generator._TRACE_MEMO and model_hub._DEFAULT_PROBABILITIES
        clear_shared_caches()
        assert not generator._TRACE_MEMO
        assert not model_hub._DEFAULT_PROBABILITIES

    def test_flush_past_the_bound_recomputes_an_equal_trace(self, monkeypatch):
        first = build_fill_job_trace(3_600.0, **self.ARGS)
        monkeypatch.setattr(generator, "_MAX_TRACE_MEMO_JOBS", len(first) + 2)
        build_fill_job_trace(3_600.0, arrival_rate_per_hour=60.0, seed=4)
        key_of_first = [k for k in generator._TRACE_MEMO if k[1] == 400.0]
        assert not key_of_first  # the second trace flushed the first
        assert build_fill_job_trace(3_600.0, **self.ARGS) == first

    def test_traces_over_the_bound_are_not_kept(self, monkeypatch):
        monkeypatch.setattr(generator, "_MAX_TRACE_MEMO_JOBS", 5)
        assert len(build_fill_job_trace(3_600.0, **self.ARGS)) > 5
        assert not generator._TRACE_MEMO

    def test_default_distribution_memo_returns_fresh_equal_instances(self, monkeypatch):
        hubs = []
        derive = ModelHubDistribution.from_hub

        def counting(hub=None):
            hubs.append(hub.seed)
            return derive(hub)

        monkeypatch.setattr(ModelHubDistribution, "from_hub", staticmethod(counting))
        a = default_distribution(11)
        b = default_distribution(11)
        assert hubs == [11]  # one synthetic hub per seed
        assert a == b and a is not b
        assert a.probabilities is not b.probabilities
        a.probabilities.clear()
        assert default_distribution(11) == b


class TestArrivalProcess:
    def make(self, **kwargs):
        from repro.workloads.generator import ArrivalProcess

        defaults = dict(
            name="t0",
            arrival_rate_per_hour=600.0,
            seed=3,
            end_time=3_600.0,
        )
        defaults.update(kwargs)
        return ArrivalProcess(**defaults)

    def test_yields_ordered_bounded_arrivals(self):
        jobs = list(self.make())
        assert jobs
        times = [j.arrival_time for j in jobs]
        assert times == sorted(times)
        assert all(0.0 <= t < 3_600.0 for t in times)
        assert all(j.tenant == "t0" for j in jobs)
        assert len({j.job_id for j in jobs}) == len(jobs)

    def test_iteration_restarts_deterministically(self):
        process = self.make()
        first = [(j.job_id, j.arrival_time, j.num_samples) for j in process]
        second = [(j.job_id, j.arrival_time, j.num_samples) for j in process]
        assert first == second

    def test_unbounded_stream_is_lazy(self):
        import itertools

        head = list(itertools.islice(iter(self.make(end_time=None)), 100))
        assert len(head) == 100  # pulls forever without materializing

    def test_restricted_models_and_deadlines(self):
        jobs = list(self.make(models=["bert-base"], deadline_fraction=1.0))
        assert all(j.model_name == "bert-base" for j in jobs)
        assert all(j.deadline is not None and j.deadline > j.arrival_time for j in jobs)

    def test_forced_job_type(self):
        jobs = list(self.make(models=["bert-base"], job_type=JobType.BATCH_INFERENCE))
        assert jobs
        assert all(j.job_type is JobType.BATCH_INFERENCE for j in jobs)

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            self.make(models=["resnet"])

    def test_gpu_time_cap_respected(self):
        from repro.models.profiles import isolated_throughput
        from repro.models.registry import build_model
        from repro.workloads.trace import TraceFilter

        process = self.make(models=["bert-base"], job_type=JobType.BATCH_INFERENCE)
        throughput = isolated_throughput(
            build_model("bert-base"), JobType.BATCH_INFERENCE, process.device
        )
        for job in process:
            gpu_seconds = job.num_samples / throughput
            assert gpu_seconds <= TraceFilter.SIMULATION_CAP_SECONDS * (1 + 1e-9)

    def test_workload_spec_builds_equivalent_process(self):
        from repro.workloads.generator import TenantWorkloadSpec

        spec = TenantWorkloadSpec(
            name="t0", arrival_rate_per_hour=600.0, open_loop=True
        )
        process = spec.build_arrival_process(seed=3, end_time=3_600.0)
        assert [j.job_id for j in process] == [j.job_id for j in self.make()]

    def test_workload_spec_needs_name(self):
        from repro.workloads.generator import TenantWorkloadSpec

        with pytest.raises(ValueError, match="name"):
            TenantWorkloadSpec(open_loop=True).build_arrival_process(seed=0)

    def test_generator_seed_still_restarts_deterministically(self):
        # A Generator-object seed is frozen at construction so iteration
        # restarts reproducibly, same as an int seed.
        import numpy as np

        process = self.make(seed=np.random.default_rng(3))
        first = [(j.job_id, j.arrival_time) for j in process]
        second = [(j.job_id, j.arrival_time) for j in process]
        assert first and first == second
