"""Tests for repro.models.base (layers, models, computational graphs)."""

from __future__ import annotations

import pickle

import pytest

from repro.models.base import (
    ComputationalGraph,
    GraphNode,
    LayerKind,
    LayerSpec,
    ModelSpec,
    NodeRole,
)


def make_layer(name: str = "l0", flops: float = 100.0, params: float = 10.0) -> LayerSpec:
    return LayerSpec(
        name=name,
        kind=LayerKind.TRANSFORMER_BLOCK,
        param_count=params,
        fwd_flops_per_sample=flops,
        activation_bytes_per_sample=8.0,
        output_bytes_per_sample=4.0,
    )


def make_model(num_layers: int = 3) -> ModelSpec:
    return ModelSpec(
        name="toy",
        layers=tuple(make_layer(f"l{i}") for i in range(num_layers)),
    )


class TestLayerSpec:
    def test_backward_is_twice_forward(self):
        layer = make_layer(flops=50.0)
        assert layer.bwd_flops_per_sample == 100.0

    def test_kernel_efficiency_bounds(self):
        with pytest.raises(ValueError):
            LayerSpec(
                name="bad",
                kind=LayerKind.CONV,
                param_count=1,
                fwd_flops_per_sample=1,
                activation_bytes_per_sample=1,
                output_bytes_per_sample=1,
                kernel_efficiency=0.0,
            )

    def test_negative_params_rejected(self):
        with pytest.raises(ValueError):
            make_layer(params=-1.0)

    def test_scaled(self):
        layer = make_layer(flops=100.0, params=10.0)
        scaled = layer.scaled(flops_scale=2.0, param_scale=3.0)
        assert scaled.fwd_flops_per_sample == 200.0
        assert scaled.param_count == 30.0


class TestModelSpec:
    def test_aggregates(self):
        model = make_model(3)
        assert model.param_count == 30.0
        assert model.fwd_flops_per_sample == 300.0
        assert model.bwd_flops_per_sample == 600.0
        assert model.train_flops_per_sample == 900.0
        assert model.activation_bytes_per_sample == 24.0
        assert model.num_layers == 3

    def test_param_bytes_use_dtype(self):
        model = make_model(1)
        assert model.param_bytes == 10.0 * 2

    def test_unique_layer_names_enforced(self):
        with pytest.raises(ValueError, match="unique"):
            ModelSpec(name="dup", layers=(make_layer("a"), make_layer("a")))

    def test_empty_model_rejected(self):
        with pytest.raises(ValueError):
            ModelSpec(name="empty", layers=())

    def test_layer_lookup(self):
        model = make_model(2)
        assert model.layer("l1").name == "l1"
        with pytest.raises(KeyError):
            model.layer("nope")

    def test_sublayers(self):
        model = make_model(4)
        sub = model.sublayers(1, 3)
        assert sub.num_layers == 2
        assert [l.name for l in sub.layers] == ["l1", "l2"]
        assert "[1:3]" in sub.name

    def test_sublayers_invalid_range(self):
        model = make_model(3)
        with pytest.raises(ValueError):
            model.sublayers(2, 2)


def make_node(name: str = "n", duration: float = 0.1, memory: float = 10.0) -> GraphNode:
    return GraphNode(
        name=name, role=NodeRole.FORWARD, duration=duration, memory_bytes=memory, flops=5.0
    )


class TestGraphNode:
    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            make_node(duration=-1.0)


class TestComputationalGraph:
    def test_totals(self):
        graph = ComputationalGraph(
            model_name="toy", nodes=(make_node("a", 0.1), make_node("b", 0.2, memory=99.0))
        )
        assert graph.total_duration == pytest.approx(0.3)
        assert graph.total_flops == pytest.approx(10.0)
        assert graph.peak_memory_bytes == 99.0
        assert len(graph) == 2

    def test_cached_aggregates_stay_out_of_identity(self):
        nodes = (make_node("a", 0.1), make_node("b", 0.2, memory=99.0))
        warm = ComputationalGraph(model_name="toy", nodes=nodes)
        cold = ComputationalGraph(model_name="toy", nodes=nodes)
        assert warm.node_durations == (0.1, 0.2)
        assert warm.node_memory_bytes == (nodes[0].memory_bytes, 99.0)
        assert warm.total_duration == 0.1 + 0.2
        assert "total_duration" in vars(warm) and "total_duration" not in vars(cold)
        # Equality, hashing and pickles see the dataclass fields only.
        assert warm == cold and hash(warm) == hash(cold)
        assert pickle.dumps(warm) == pickle.dumps(cold)
        restored = pickle.loads(pickle.dumps(warm))
        assert restored == warm and "total_duration" not in vars(restored)

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            ComputationalGraph(model_name="toy", nodes=())

    def test_concatenate_replicates_iterations(self):
        graph = ComputationalGraph(model_name="toy", nodes=(make_node("a"),))
        combined = ComputationalGraph.concatenate([graph, graph, graph])
        assert len(combined) == 3
        assert combined.nodes[0].name == "iter0/a"
        assert combined.nodes[2].name == "iter2/a"
        assert combined.total_duration == pytest.approx(3 * graph.total_duration)

    def test_concatenate_requires_same_model(self):
        a = ComputationalGraph(model_name="a", nodes=(make_node(),))
        b = ComputationalGraph(model_name="b", nodes=(make_node(),))
        with pytest.raises(ValueError):
            ComputationalGraph.concatenate([a, b])

    def test_concatenate_empty_rejected(self):
        with pytest.raises(ValueError):
            ComputationalGraph.concatenate([])

    def test_iteration(self):
        graph = ComputationalGraph(model_name="toy", nodes=(make_node("a"), make_node("b")))
        assert [n.name for n in graph] == ["a", "b"]
