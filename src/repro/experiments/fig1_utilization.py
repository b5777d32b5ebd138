"""Figure 1: per-GPU utilization of the 40B LLM, traditional PP vs PipeFill.

Figure 1 is the headline view of the Figure 4c data: TFLOP/s per GPU versus
GPU count for traditional pipeline parallelism (LLM only) and for PipeFill
(LLM plus fill jobs).  This harness calls the Figure 4 per-scale
evaluation (:func:`~repro.experiments.fig4_scaling.evaluate_scale_point`)
again at every GPU count, which runs both fill-job workloads, and keeps only
the traditional-PP and trace-mix series; the BERT-inference result is
computed and discarded.
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.common import DEFAULT_HORIZON_SECONDS, GPU_SCALE_SWEEP
from repro.experiments.fig4_scaling import evaluate_scale_point
from repro.utils.tables import Table


def run_fig1(
    gpu_counts: Sequence[int] = GPU_SCALE_SWEEP,
    *,
    horizon_seconds: float = DEFAULT_HORIZON_SECONDS,
    seed: int = 0,
) -> Table:
    """TFLOP/s per GPU, traditional PP versus PipeFill (trace mix)."""
    table = Table(
        columns=["gpus", "Traditional PP (LLM only)", "PipeFill (LLM + fill jobs)", "gain"],
        title="Figure 1: utilization of LLM training GPUs",
        formats={
            "Traditional PP (LLM only)": ".1f",
            "PipeFill (LLM + fill jobs)": ".1f",
            "gain": ".2f",
        },
    )
    for num_gpus in gpu_counts:
        point = evaluate_scale_point(num_gpus, horizon_seconds=horizon_seconds, seed=seed)
        gain = point.pipefill_trace_mix_tflops / point.traditional_tflops - 1.0
        table.add_row(
            num_gpus,
            point.traditional_tflops,
            point.pipefill_trace_mix_tflops,
            gain,
        )
    return table
