"""Tests for repro.core.plan (Algorithm 1)."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import PipeFillConfig
from repro.core.plan import (
    ExecutionPlan,
    GraphPartition,
    PlanError,
    pack_fill_job,
    plan_fill_job,
)
from repro.models.base import ComputationalGraph, GraphNode, NodeRole
from repro.pipeline.bubbles import Bubble, BubbleCycle
from repro.pipeline.instructions import BubbleKind
from repro.utils.units import GIB


def make_graph(num_nodes: int = 4, duration: float = 0.1, memory: float = 1 * GIB):
    nodes = tuple(
        GraphNode(
            name=f"n{i}",
            role=NodeRole.FORWARD,
            duration=duration,
            memory_bytes=memory,
            flops=duration * 1e12,
        )
        for i in range(num_nodes)
    )
    return ComputationalGraph(model_name="toy", nodes=nodes)


#: A permissive config so tests can reason about raw packing numbers.
FULL_FILL = PipeFillConfig(
    fill_fraction=1.0, context_switch_seconds=0.0, min_fill_bubble_seconds=0.0,
    memory_safety_fraction=1.0,
)


class TestAlgorithmOne:
    def test_nodes_packed_in_order(self, synthetic_cycle):
        graph = make_graph(4, duration=0.4)
        plan = plan_fill_job(graph, synthetic_cycle, FULL_FILL)
        packed_names = [n.name for p in plan.partitions for n in p.nodes]
        # Sequential dependency preserved: iteration 0's nodes in order first.
        assert packed_names[:4] == ["iter0/n0", "iter0/n1", "iter0/n2", "iter0/n3"]

    def test_partition_durations_respect_bubbles(self, synthetic_cycle):
        graph = make_graph(6, duration=0.3)
        plan = plan_fill_job(graph, synthetic_cycle, FULL_FILL)
        for partition in plan.partitions:
            capacity = plan.bubbles[partition.bubble_index].duration
            assert partition.duration <= capacity + 1e-9

    def test_partition_memory_respects_bubbles(self, synthetic_cycle):
        graph = make_graph(4, duration=0.1, memory=3 * GIB)
        plan = plan_fill_job(graph, synthetic_cycle, FULL_FILL)
        for partition in plan.partitions:
            assert partition.memory_bytes <= synthetic_cycle.min_free_memory_bytes

    def test_replication_fills_cycle(self, synthetic_cycle):
        """Lines 3-7: the graph is replicated until one more copy would overflow."""
        graph = make_graph(2, duration=0.1)  # 0.2s per iteration, 2.0s of bubbles
        plan = plan_fill_job(graph, synthetic_cycle, FULL_FILL)
        assert plan.iterations == 9  # largest k with (k+1)*0.2 < 2.0

    def test_single_iteration_when_graph_larger_than_cycle(self, synthetic_cycle):
        graph = make_graph(10, duration=0.5)  # 5s > 2s of bubbles
        plan = plan_fill_job(graph, synthetic_cycle, FULL_FILL)
        assert plan.iterations == 1
        assert plan.num_cycles >= 2  # spills into later cycles

    def test_all_replicated_nodes_placed(self, synthetic_cycle):
        graph = make_graph(3, duration=0.25)
        plan = plan_fill_job(graph, synthetic_cycle, FULL_FILL)
        packed = sum(len(p.nodes) for p in plan.partitions)
        assert packed == plan.iterations * len(graph)

    def test_planned_work_equals_replicated_duration(self, synthetic_cycle):
        graph = make_graph(3, duration=0.25)
        plan = plan_fill_job(graph, synthetic_cycle, FULL_FILL)
        assert plan.planned_work_seconds == pytest.approx(
            plan.iterations * graph.total_duration
        )

    def test_oversized_node_duration_rejected(self, synthetic_cycle):
        graph = make_graph(1, duration=5.0)
        with pytest.raises(PlanError, match="does not fit in any bubble"):
            plan_fill_job(graph, synthetic_cycle, FULL_FILL)

    def test_oversized_node_memory_rejected(self, synthetic_cycle):
        graph = make_graph(1, duration=0.1, memory=100 * GIB)
        with pytest.raises(PlanError, match="does not fit in any bubble"):
            plan_fill_job(graph, synthetic_cycle, FULL_FILL)

    def test_no_fillable_bubbles_rejected(self):
        cycle = BubbleCycle.from_durations([0.01], 4.5 * GIB, period=1.0)
        config = PipeFillConfig(min_fill_bubble_seconds=0.05)
        with pytest.raises(PlanError, match="no fillable bubbles"):
            plan_fill_job(make_graph(), cycle, config)

    def test_fill_fraction_shrinks_capacity(self, synthetic_cycle):
        graph = make_graph(8, duration=0.2)
        full = plan_fill_job(graph, synthetic_cycle, FULL_FILL)
        partial = plan_fill_job(
            graph,
            synthetic_cycle,
            PipeFillConfig(fill_fraction=0.5, context_switch_seconds=0.0,
                           min_fill_bubble_seconds=0.0, memory_safety_fraction=1.0),
        )
        assert partial.num_cycles >= full.num_cycles
        assert partial.iterations <= full.iterations

    def test_heterogeneous_bubbles(self):
        """A node too large for the small bubble is deferred to the big one."""
        cycle = BubbleCycle.from_durations([0.25, 1.0], 4.5 * GIB, period=4.0)
        graph = make_graph(3, duration=0.4)
        plan = plan_fill_job(graph, cycle, FULL_FILL)
        # Nothing fits in bubble 0 (0.25s capacity, 0.4s nodes).
        for partition in plan.partitions:
            if partition.bubble_index == 0:
                assert partition.is_empty
            else:
                assert not partition.is_empty

    def test_plan_metrics(self, synthetic_cycle):
        graph = make_graph(4, duration=0.2)
        plan = plan_fill_job(graph, synthetic_cycle, FULL_FILL)
        assert 0.0 < plan.packing_efficiency <= 1.0
        assert plan.planned_flops == pytest.approx(plan.planned_work_seconds * 1e12)
        assert plan.wall_clock_seconds == plan.num_cycles * synthetic_cycle.period
        assert plan.partitions_in_cycle(0)

    def test_zero_duration_graph_rejected(self, synthetic_cycle):
        graph = make_graph(1, duration=0.0)
        with pytest.raises(PlanError):
            plan_fill_job(graph, synthetic_cycle, FULL_FILL)


class TestPartitionDuration:
    def test_duration_is_a_left_to_right_fold(self):
        """``sum()`` of floats is compensated from Python 3.12 on; the
        partition duration must stay the packer's plain running total."""
        durations = [1.0] + [1e-16] * 10
        nodes = tuple(
            GraphNode(name=f"n{i}", role=NodeRole.FORWARD, duration=d,
                      memory_bytes=0.0, flops=0.0)
            for i, d in enumerate(durations)
        )
        partition = GraphPartition(bubble_index=0, cycle_index=0, nodes=nodes)
        assert partition.duration == 1.0
        # math.fsum is the exact (compensated) sum; the fold must not be it.
        assert math.fsum(durations) != 1.0


# -- the scalar packer against the node-by-node oracle ------------------------------


def _outcome(packer, graph, cycle, config, max_cycles):
    """Everything a caller can observe of one packer run."""
    try:
        plan = packer(graph, cycle, config, max_cycles=max_cycles)
    except PlanError as exc:
        return ("error", str(exc))
    partitions = plan.partitions
    return (
        "plan",
        [len(p.nodes) for p in partitions],
        [p.duration.hex() for p in partitions],
        plan.iterations,
        plan.num_cycles,
        plan.planned_work_seconds.hex(),
        partitions,
    )


def assert_packers_agree(graph, cycle, config=FULL_FILL, max_cycles=10_000):
    expected = _outcome(plan_fill_job, graph, cycle, config, max_cycles)
    packed = _outcome(pack_fill_job, graph, cycle, config, max_cycles)
    assert packed == expected
    if expected[0] == "plan":
        # The executor reads per-visit durations without materializing.
        plan = pack_fill_job(graph, cycle, config, max_cycles=max_cycles)
        visits = [
            (p.bubble_index, p.duration.hex())
            for p in plan_fill_job(graph, cycle, config, max_cycles=max_cycles).partitions
            if not p.is_empty
        ]
        assert [(i, d.hex()) for i, d in plan.nonempty_visits()] == visits
    return expected


def _graph(durations, memories):
    return ComputationalGraph(
        model_name="diff",
        nodes=tuple(
            GraphNode(name=f"n{i}", role=NodeRole.FORWARD, duration=d,
                      memory_bytes=m, flops=d * 1e12)
            for i, (d, m) in enumerate(zip(durations, memories))
        ),
    )


def _cycle(durations, memories, period=None):
    bubbles = tuple(
        Bubble(kind=BubbleKind.FWD_BWD, stage_id=0, index=i, duration=d,
               free_memory_bytes=m)
        for i, (d, m) in enumerate(zip(durations, memories))
    )
    return BubbleCycle(stage_id=0, bubbles=bubbles,
                       period=period if period is not None else sum(durations) + 1.0)


@st.composite
def _packer_inputs(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    durations = [
        draw(st.one_of(st.sampled_from([0.0, 0.125, 0.25, 0.5]),
                       st.floats(min_value=0.001, max_value=0.5)))
        for _ in range(n)
    ]
    memories = [draw(st.sampled_from([1, 1, 2, 3])) * GIB for _ in range(n)]
    # Prefix sums, accumulated like the packer, as exact capacities.
    prefixes = [0.0]
    for d in durations:
        prefixes.append(prefixes[-1] + d)
    num_bubbles = draw(st.integers(min_value=1, max_value=4))
    bubble_durations = [
        draw(st.one_of(st.floats(min_value=0.3, max_value=3.0),
                       st.sampled_from([p for p in prefixes if p > 0] or [1.0])))
        for _ in range(num_bubbles)
    ]
    bubble_memories = [draw(st.sampled_from([2, 3, 4, 4])) * GIB
                       for _ in range(num_bubbles)]
    config = draw(st.sampled_from([
        FULL_FILL,
        FULL_FILL,
        PipeFillConfig(),
        PipeFillConfig(fill_fraction=0.5, context_switch_seconds=0.0,
                       min_fill_bubble_seconds=0.1, memory_safety_fraction=0.8),
    ]))
    max_cycles = draw(st.sampled_from([1, 2, 3, 10_000]))
    return (_graph(durations, memories), _cycle(bubble_durations, bubble_memories),
            config, max_cycles)


class TestPackerDifferential:
    """``pack_fill_job`` equals ``plan_fill_job`` bit for bit, errors included."""

    @settings(max_examples=300, deadline=None)
    @given(_packer_inputs())
    def test_matches_oracle(self, inputs):
        assert_packers_agree(*inputs)

    def test_capacity_equal_to_a_prefix_sum(self):
        graph = _graph([0.25, 0.5, 0.125], [GIB] * 3)
        outcome = assert_packers_agree(graph, _cycle([0.75, 0.875], [4 * GIB] * 2))
        # The first bubble takes exactly the first two nodes (0.25 + 0.5).
        assert outcome[1][0] == 2

    def test_zero_duration_nodes(self):
        graph = _graph([0.0, 0.25, 0.0, 0.0, 0.5, 0.0], [GIB] * 6)
        outcome = assert_packers_agree(graph, _cycle([0.75, 0.6], [4 * GIB] * 2))
        # Trailing zero-duration nodes ride along with the node before them.
        assert outcome[1][0] == 6

    def test_memory_violation_partway_through_a_replica(self):
        graph = _graph([0.1, 0.1, 0.1, 0.1], [GIB, GIB, 3 * GIB, GIB])
        cycle = _cycle([1.0, 1.0], [2 * GIB, 4 * GIB])
        outcome = assert_packers_agree(graph, cycle)
        assert outcome[0] == "plan"
        assert outcome[1][0] == 2  # stops before the 3 GiB node

    def test_max_cycles_overflow(self):
        graph = _graph([0.5] * 8, [GIB] * 8)
        outcome = assert_packers_agree(
            graph, _cycle([0.5, 0.5], [4 * GIB] * 2), max_cycles=2
        )
        assert outcome == (
            "error",
            "plan exceeded 2 bubble cycles; the fill job is too large for this "
            "bubble cycle",
        )

    def test_unplaceable_node(self):
        graph = _graph([0.1, 0.2, 0.1], [GIB, 5 * GIB, GIB])
        outcome = assert_packers_agree(graph, _cycle([1.0, 1.0], [2 * GIB, 4 * GIB]))
        assert outcome[0] == "error" and "'n1'" in outcome[1]

    def test_many_replicas(self):
        graph = _graph([0.001, 0.0015, 0.0005], [GIB, 2 * GIB, GIB])
        assert_packers_agree(graph, _cycle([1.7, 0.9, 2.3], [3 * GIB, GIB, 4 * GIB]))

    def test_window_widens_until_it_holds_the_first_violation(self):
        """The packer sizes its first window from ``dur(F)``; if that window
        turns out to fit whole, it must widen rather than cut the visit."""
        from repro.core.plan import _pack_visit_lengths

        graph = _graph([0.1, 0.2, 0.05], [GIB] * 3)
        cycle = _cycle([1.6, 0.9], [4 * GIB] * 2)
        expected = plan_fill_job(graph, cycle, FULL_FILL)
        # An overstated total shrinks the first window to two replicas.
        graph.__dict__["total_duration"] = 100.0
        counts, durations = _pack_visit_lengths(
            graph, expected.iterations, [1.6, 0.9], [4 * GIB] * 2, max_cycles=10_000
        )
        assert list(counts) == [len(p.nodes) for p in expected.partitions]
        assert [d.hex() for d in durations] == [p.duration.hex() for p in expected.partitions]
        assert max(counts) > 2 * len(graph)
