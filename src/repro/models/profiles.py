"""Profile generation: resolve a model + configuration into a computational graph.

A *profile* is what the real PipeFill collects with the PyTorch profiler and
ships to the Fill Job Executor: for every node of the job's computational
graph, its execution time and memory requirement under a specific
configuration (batch size, offloading, checkpointing).  Here the profile is
produced analytically from the layer specs, the execution configuration and
the device spec.

The resulting :class:`ModelProfile` carries a linearised
:class:`~repro.models.base.ComputationalGraph` (forward nodes, then backward
nodes in reverse order, then an optimizer step for training jobs) that
Algorithm 1 packs into pipeline bubbles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.hardware.device import DeviceSpec, V100_16GB
from repro.models.base import (
    ComputationalGraph,
    GraphNode,
    LayerKind,
    LayerSpec,
    ModelSpec,
    NodeRole,
)
from repro.models.configs import ExecutionConfig, JobType, candidate_configs
from repro.models.efficiency import DEFAULT_EFFICIENCY, EfficiencyModel
from repro.models.memory import (
    ADAM_OPTIMIZER_BYTES_PER_PARAM,
    GRAD_BYTES_PER_PARAM,
    footprint,
    layer_state_bytes,
)
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class NodeProfile:
    """Per-node profile entry (kept for introspection / reporting)."""

    node: GraphNode
    layer: Optional[LayerSpec]
    efficiency: float


@dataclass(frozen=True)
class ModelProfile:
    """A fill job's computational graph resolved for one configuration.

    Attributes
    ----------
    model:
        The profiled model spec.
    job_type:
        Training or batch inference.
    config:
        The execution configuration the profile was generated for.
    device:
        The device spec used for timing.
    graph:
        Linearised computational graph with resolved durations/memory.
    device_footprint_bytes:
        Device-resident bytes the job holds while executing (model states
        under the configuration plus the iteration's activation working set).
    host_footprint_bytes:
        Host bytes consumed by offloaded state.
    """

    model: ModelSpec
    job_type: JobType
    config: ExecutionConfig
    device: DeviceSpec
    graph: ComputationalGraph
    device_footprint_bytes: float
    host_footprint_bytes: float

    @property
    def iteration_time(self) -> float:
        """Exclusive-execution time of one iteration (all graph nodes)."""
        return self.graph.total_duration

    @property
    def iteration_flops(self) -> float:
        """FLOPs of one iteration."""
        return self.graph.total_flops

    @property
    def samples_per_iteration(self) -> int:
        """Samples processed per iteration (the configured batch size)."""
        return self.config.batch_size

    @property
    def throughput_samples_per_s(self) -> float:
        """Exclusive-execution throughput in samples/s."""
        return self.config.batch_size / self.iteration_time

    @property
    def effective_tflops(self) -> float:
        """Sustained TFLOP/s during exclusive execution."""
        return self.iteration_flops / self.iteration_time / 1e12

    def fits_memory(self, memory_bytes: float) -> bool:
        """True if the device-resident footprint fits in ``memory_bytes``."""
        return self.device_footprint_bytes <= memory_bytes


def _layer_efficiency(
    layer: LayerSpec, batch_size: int, efficiency_model: EfficiencyModel
) -> float:
    return max(efficiency_model.layer_efficiency(layer, batch_size), 1e-4)


def _forward_duration(
    layer: LayerSpec,
    batch_size: int,
    device: DeviceSpec,
    config: ExecutionConfig,
    efficiency_model: EfficiencyModel,
) -> float:
    eff = _layer_efficiency(layer, batch_size, efficiency_model)
    compute = batch_size * layer.fwd_flops_per_sample / (device.peak_flops * eff)
    compute += device.kernel_launch_overhead
    transfer = 0.0
    if config.offload_params:
        # The layer's fp16 parameters must be streamed in from host memory;
        # prefetching overlaps the transfer with the previous layer, so the
        # layer pays the maximum of compute and transfer.
        transfer = max(
            transfer,
            layer.param_count * 2.0 / device.host_link_bandwidth + device.host_link_latency,
        )
    if config.offload_activations:
        transfer = max(
            transfer,
            batch_size
            * layer.activation_bytes_per_sample
            / device.host_link_bandwidth,
        )
    return max(compute, transfer)


def _backward_duration(
    layer: LayerSpec,
    batch_size: int,
    device: DeviceSpec,
    config: ExecutionConfig,
    efficiency_model: EfficiencyModel,
) -> float:
    eff = _layer_efficiency(layer, batch_size, efficiency_model)
    flops = batch_size * layer.bwd_flops_per_sample
    if config.activation_checkpointing:
        # Recomputation adds one forward pass to the backward.
        flops += batch_size * layer.fwd_flops_per_sample
    compute = flops / (device.peak_flops * eff) + device.kernel_launch_overhead
    transfer = 0.0
    if config.offload_params:
        transfer = max(
            transfer,
            layer.param_count * 2.0 / device.host_link_bandwidth + device.host_link_latency,
        )
    if config.offload_optimizer:
        # Gradients stream to the host as they are produced.
        transfer = max(
            transfer,
            layer.param_count * GRAD_BYTES_PER_PARAM / device.host_link_bandwidth,
        )
    if config.offload_activations:
        transfer = max(
            transfer,
            batch_size
            * layer.activation_bytes_per_sample
            / device.host_link_bandwidth,
        )
    return max(compute, transfer)


def _backward_flops(layer: LayerSpec, batch_size: int, config: ExecutionConfig) -> float:
    flops = batch_size * layer.bwd_flops_per_sample
    if config.activation_checkpointing:
        flops += batch_size * layer.fwd_flops_per_sample
    return flops


def _optimizer_step(
    model: ModelSpec,
    device: DeviceSpec,
    config: ExecutionConfig,
    efficiency_model: EfficiencyModel,
) -> GraphNode:
    # Adam applies a handful of elementwise ops per parameter.
    flops = 10.0 * model.param_count
    if config.offload_optimizer:
        # ZeRO-Offload runs the optimizer on the host: the step is bounded by
        # moving fp16 gradients down and updated fp16 parameters back up.
        traffic = model.param_count * (GRAD_BYTES_PER_PARAM + 2.0)
        duration = traffic / device.host_link_bandwidth + 2.0 * device.host_link_latency
        memory = model.param_bytes  # fp16 params being refreshed in place
    else:
        eff = efficiency_model.base_efficiency.get(LayerKind.OPTIMIZER, 0.04)
        duration = flops / (device.peak_flops * eff) + device.kernel_launch_overhead
        memory = model.param_count * (2.0 + GRAD_BYTES_PER_PARAM + ADAM_OPTIMIZER_BYTES_PER_PARAM)
    return GraphNode(
        name="optimizer_step",
        role=NodeRole.OPTIMIZER_STEP,
        duration=duration,
        memory_bytes=memory,
        flops=flops,
    )


def profile_model(
    model: ModelSpec,
    job_type: JobType,
    config: ExecutionConfig,
    device: DeviceSpec = V100_16GB,
    efficiency_model: EfficiencyModel = DEFAULT_EFFICIENCY,
) -> ModelProfile:
    """Resolve ``model`` under ``config`` into a :class:`ModelProfile`.

    The produced graph is linear: forward nodes in layer order, then (for
    training jobs) backward nodes in reverse order and a final optimizer
    step.  Node ``memory_bytes`` is the device memory that must be free to
    run that node: the configuration's resident footprint plus the node's
    own working set, so that Algorithm 1's per-bubble memory check is
    equivalent to "does this configuration fit in this bubble".
    """
    fp = footprint(model, config, job_type)
    batch = config.batch_size

    nodes: List[GraphNode] = []
    resident = fp.device_bytes

    for layer in model.layers:
        duration = _forward_duration(layer, batch, device, config, efficiency_model)
        working = batch * layer.output_bytes_per_sample + layer_state_bytes(
            layer, job_type, config
        )
        nodes.append(
            GraphNode(
                name=f"fwd/{layer.name}",
                role=NodeRole.FORWARD,
                duration=duration,
                memory_bytes=min(resident, max(working, 0.25 * resident)),
                flops=batch * layer.fwd_flops_per_sample,
                layer_name=layer.name,
            )
        )

    if job_type.is_training:
        for layer in reversed(model.layers):
            duration = _backward_duration(layer, batch, device, config, efficiency_model)
            working = batch * layer.activation_bytes_per_sample + layer_state_bytes(
                layer, job_type, config
            )
            nodes.append(
                GraphNode(
                    name=f"bwd/{layer.name}",
                    role=NodeRole.BACKWARD,
                    duration=duration,
                    memory_bytes=min(resident, max(working, 0.25 * resident)),
                    flops=_backward_flops(layer, batch, config),
                    layer_name=layer.name,
                )
            )
        nodes.append(_optimizer_step(model, device, config, efficiency_model))

    graph = ComputationalGraph(model_name=model.name, nodes=tuple(nodes))
    return ModelProfile(
        model=model,
        job_type=job_type,
        config=config,
        device=device,
        graph=graph,
        device_footprint_bytes=fp.device_bytes,
        host_footprint_bytes=fp.host_bytes,
    )


# -- the shared profile memo ---------------------------------------------------
#
# A profile is a pure function of (model, job type, config, device,
# efficiency model), and the same profiles are asked for over and over: by
# every executor's plan search and by every isolated-throughput lookup.  One
# process-wide memo serves them all.  It is split into one namespace per
# (device, efficiency model), so a caller that holds its namespace pays for
# hashing the device once, not per lookup.  The efficiency model and the
# model spec are keyed by identity (hashing them by value would cost more
# than a hit saves); each namespace pins its efficiency model and each entry
# pins its spec, so an id can never be reused while its key is live.  Growth
# is bounded like the executor's estimate memos: past the bounds the memo
# (or one namespace) is cleared wholesale, and holders of an orphaned
# namespace stay correct.

_MAX_PROFILE_NAMESPACES = 64
_MAX_PROFILE_ENTRIES = 4096


class ProfileMemo:
    """Memoised :func:`profile_model` for one (device, efficiency model)."""

    __slots__ = ("device", "efficiency_model", "_entries")

    def __init__(self, device: DeviceSpec, efficiency_model: EfficiencyModel) -> None:
        self.device = device
        self.efficiency_model = efficiency_model
        self._entries: Dict[tuple, Tuple[ModelSpec, ModelProfile]] = {}

    def get(
        self, model: ModelSpec, job_type: JobType, config: ExecutionConfig
    ) -> ModelProfile:
        """The profile of ``model`` under ``config``, computed at most once."""
        key = (id(model), job_type, config)
        entry = self._entries.get(key)
        # Entries pin their spec, so a hit is always the same object.
        if entry is None:
            entry = (
                model,
                profile_model(model, job_type, config, self.device, self.efficiency_model),
            )
            if len(self._entries) >= _MAX_PROFILE_ENTRIES:
                self._entries.clear()
            self._entries[key] = entry
        return entry[1]


_PROFILE_MEMOS: Dict[Tuple[DeviceSpec, int], ProfileMemo] = {}


def profile_memo(
    device: DeviceSpec = V100_16GB,
    efficiency_model: EfficiencyModel = DEFAULT_EFFICIENCY,
) -> ProfileMemo:
    """The process-wide profile memo namespace of ``(device, efficiency_model)``."""
    key = (device, id(efficiency_model))
    memo = _PROFILE_MEMOS.get(key)
    if memo is None:
        if len(_PROFILE_MEMOS) >= _MAX_PROFILE_NAMESPACES:
            _PROFILE_MEMOS.clear()
        memo = _PROFILE_MEMOS[key] = ProfileMemo(device, efficiency_model)
    return memo


def clear_profile_memo() -> None:
    """Drop every memoised profile (cold-start benchmarks, test isolation)."""
    _PROFILE_MEMOS.clear()


def best_profile(
    model: ModelSpec,
    job_type: JobType,
    *,
    memory_limit_bytes: float,
    device: DeviceSpec = V100_16GB,
    efficiency_model: EfficiencyModel = DEFAULT_EFFICIENCY,
    configs: Optional[Sequence[ExecutionConfig]] = None,
) -> Optional[ModelProfile]:
    """Pick the configuration with the highest throughput that fits in memory.

    Returns ``None`` when no candidate configuration fits (the job cannot be
    used as a fill job on this device / bubble).  Profiles come from the
    shared :func:`profile_memo`.
    """
    check_positive(memory_limit_bytes, "memory_limit_bytes")
    if configs is None:
        configs = candidate_configs(job_type)
    memo = profile_memo(device, efficiency_model)
    best: Optional[ModelProfile] = None
    for config in configs:
        profile = memo.get(model, job_type, config)
        if not profile.fits_memory(memory_limit_bytes):
            continue
        if best is None or profile.throughput_samples_per_s > best.throughput_samples_per_s:
            best = profile
    return best


def isolated_throughput(
    model: ModelSpec,
    job_type: JobType,
    device: DeviceSpec = V100_16GB,
    efficiency_model: EfficiencyModel = DEFAULT_EFFICIENCY,
) -> float:
    """Max samples/s of the job when it owns an entire device (no main job).

    This is the reference point used both to convert trace GPU-hours into
    sample counts (Section 5.3) and to compute fill-job slowdown (Figure 7b).
    """
    profile = best_profile(
        model,
        job_type,
        memory_limit_bytes=device.usable_memory_bytes,
        device=device,
        efficiency_model=efficiency_model,
    )
    if profile is None:
        raise ValueError(
            f"model {model.name!r} does not fit on an exclusive {device.name}"
        )
    return profile.throughput_samples_per_s


def isolated_tflops(
    model: ModelSpec,
    job_type: JobType,
    device: DeviceSpec = V100_16GB,
    efficiency_model: EfficiencyModel = DEFAULT_EFFICIENCY,
) -> float:
    """Sustained TFLOP/s of the job when it owns an entire device."""
    profile = best_profile(
        model,
        job_type,
        memory_limit_bytes=device.usable_memory_bytes,
        device=device,
        efficiency_model=efficiency_model,
    )
    if profile is None:
        raise ValueError(
            f"model {model.name!r} does not fit on an exclusive {device.name}"
        )
    return profile.effective_tflops
