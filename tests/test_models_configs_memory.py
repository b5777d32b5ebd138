"""Tests for repro.models.configs and repro.models.memory."""

from __future__ import annotations

import pytest

from repro.models.configs import (
    DEFAULT_INFERENCE_BATCH_SIZES,
    DEFAULT_TRAINING_BATCH_SIZES,
    ExecutionConfig,
    JobType,
    candidate_configs,
)
from repro.models.memory import (
    ADAM_OPTIMIZER_BYTES_PER_PARAM,
    GRAD_BYTES_PER_PARAM,
    activation_bytes,
    footprint,
    model_state_bytes,
    optimizer_bytes_per_param,
)
from repro.models.registry import build_model


class TestJobType:
    def test_is_training(self):
        assert JobType.TRAINING.is_training
        assert not JobType.BATCH_INFERENCE.is_training


class TestExecutionConfig:
    def test_describe(self):
        cfg = ExecutionConfig(batch_size=16, activation_checkpointing=True, offload_optimizer=True)
        assert cfg.describe() == "bs=16+ckpt+opt-offload"

    def test_offloads_anything(self):
        assert ExecutionConfig(batch_size=1, offload_params=True).offloads_anything
        assert not ExecutionConfig(batch_size=1).offloads_anything

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            ExecutionConfig(batch_size=0)

    def test_with_batch_size(self):
        cfg = ExecutionConfig(batch_size=4, offload_params=True)
        new = cfg.with_batch_size(8)
        assert new.batch_size == 8
        assert new.offload_params


class TestCandidateConfigs:
    def test_inference_configs_only_vary_batch_and_param_offload(self):
        configs = candidate_configs(JobType.BATCH_INFERENCE)
        assert len(configs) == 2 * len(DEFAULT_INFERENCE_BATCH_SIZES)
        assert all(not c.activation_checkpointing for c in configs)
        assert all(not c.offload_optimizer for c in configs)

    def test_training_configs_include_checkpointing_and_offload(self):
        configs = candidate_configs(JobType.TRAINING)
        assert any(c.activation_checkpointing for c in configs)
        assert any(c.offload_optimizer for c in configs)
        # Checkpointing + activation offload is pruned as pointless.
        assert not any(c.activation_checkpointing and c.offload_activations for c in configs)

    def test_custom_batch_sizes(self):
        configs = candidate_configs(JobType.BATCH_INFERENCE, batch_sizes=[4], allow_offloading=False)
        assert len(configs) == 1
        assert configs[0].batch_size == 4

    def test_invalid_batch_size_rejected(self):
        with pytest.raises(ValueError):
            candidate_configs(JobType.TRAINING, batch_sizes=[0])

    def test_callers_cannot_mutate_the_default_lists(self):
        for job_type in JobType:
            first = candidate_configs(job_type)
            expected = list(first)
            first.clear()
            assert candidate_configs(job_type) == expected
            # Explicit defaults and the argument-free call agree.
            batch_sizes = (
                DEFAULT_TRAINING_BATCH_SIZES if job_type.is_training
                else DEFAULT_INFERENCE_BATCH_SIZES
            )
            assert candidate_configs(job_type, batch_sizes=batch_sizes) == expected

    def test_default_training_batches_smaller(self):
        assert max(DEFAULT_TRAINING_BATCH_SIZES) < max(DEFAULT_INFERENCE_BATCH_SIZES)


class TestMemoryModel:
    @pytest.fixture(scope="class")
    def bert(self):
        return build_model("bert-base")

    def test_optimizer_bytes_per_param(self):
        assert optimizer_bytes_per_param(JobType.TRAINING) == ADAM_OPTIMIZER_BYTES_PER_PARAM
        assert optimizer_bytes_per_param(JobType.BATCH_INFERENCE) == 0.0

    def test_model_state_bytes_training_is_16_per_param(self, bert):
        # fp16 params (2) + fp16 grads (2) + Adam states (12) = 16 bytes/param.
        expected = bert.param_count * (2 + GRAD_BYTES_PER_PARAM + ADAM_OPTIMIZER_BYTES_PER_PARAM)
        assert model_state_bytes(bert, JobType.TRAINING) == pytest.approx(expected)

    def test_model_state_bytes_inference_is_2_per_param(self, bert):
        assert model_state_bytes(bert, JobType.BATCH_INFERENCE) == pytest.approx(
            bert.param_count * 2
        )

    def test_activation_bytes_scale_with_batch(self, bert):
        a1 = activation_bytes(bert, 1, JobType.TRAINING)
        a8 = activation_bytes(bert, 8, JobType.TRAINING)
        assert a8 == pytest.approx(8 * a1)

    def test_checkpointing_reduces_activations(self, bert):
        full = activation_bytes(bert, 8, JobType.TRAINING)
        ckpt = activation_bytes(bert, 8, JobType.TRAINING, activation_checkpointing=True)
        assert ckpt < full

    def test_inference_activations_much_smaller_than_training(self, bert):
        inf = activation_bytes(bert, 8, JobType.BATCH_INFERENCE)
        train = activation_bytes(bert, 8, JobType.TRAINING)
        assert inf < train

    def test_invalid_batch(self, bert):
        with pytest.raises(ValueError):
            activation_bytes(bert, 0, JobType.TRAINING)


class TestFootprint:
    @pytest.fixture(scope="class")
    def xlm(self):
        return build_model("xlm-roberta-xl")

    @pytest.fixture(scope="class")
    def bert(self):
        return build_model("bert-base")

    def test_inference_device_footprint_params_plus_acts(self, bert):
        cfg = ExecutionConfig(batch_size=4)
        fp = footprint(bert, cfg, JobType.BATCH_INFERENCE)
        assert fp.grad_bytes == 0.0
        assert fp.optimizer_bytes == 0.0
        assert fp.host_bytes == 0.0
        assert fp.device_bytes == pytest.approx(fp.param_bytes + fp.activation_bytes)

    def test_param_offload_moves_params_to_host(self, xlm):
        plain = footprint(xlm, ExecutionConfig(batch_size=4), JobType.BATCH_INFERENCE)
        offloaded = footprint(
            xlm, ExecutionConfig(batch_size=4, offload_params=True), JobType.BATCH_INFERENCE
        )
        assert offloaded.device_bytes < plain.device_bytes
        assert offloaded.host_bytes >= xlm.param_bytes

    def test_optimizer_offload_moves_states_to_host(self, bert):
        plain = footprint(bert, ExecutionConfig(batch_size=4), JobType.TRAINING)
        offloaded = footprint(
            bert, ExecutionConfig(batch_size=4, offload_optimizer=True), JobType.TRAINING
        )
        assert offloaded.device_bytes < plain.device_bytes
        assert offloaded.host_bytes == pytest.approx(plain.optimizer_bytes)

    def test_activation_offload(self, bert):
        plain = footprint(bert, ExecutionConfig(batch_size=8), JobType.TRAINING)
        offloaded = footprint(
            bert, ExecutionConfig(batch_size=8, offload_activations=True), JobType.TRAINING
        )
        assert offloaded.device_bytes < plain.device_bytes

    def test_total_and_model_state_properties(self, bert):
        fp = footprint(bert, ExecutionConfig(batch_size=2), JobType.TRAINING)
        assert fp.total_bytes == pytest.approx(fp.device_bytes + fp.host_bytes)
        assert fp.model_state_bytes == pytest.approx(
            fp.param_bytes + fp.grad_bytes + fp.optimizer_bytes
        )
