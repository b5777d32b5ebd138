"""Synthetic HuggingFace-Model-Hub distribution.

Section 5.3: the authors extract model sizes and types from the HuggingFace
Model Hub (models uploaded in the last year with >100K downloads), observe
that 71% have fewer than 3B parameters and that 10.4% of the remaining
models are CNNs, and then assign sampling probabilities to the five
representative models of Table 1 so the mix matches those statistics.

We cannot scrape the hub offline, so :class:`SyntheticModelHub` generates a
synthetic population with the published statistics (a log-normal parameter
count distribution calibrated to the 71% quantile, a 10.4% CNN share), and
:class:`ModelHubDistribution` derives the per-model sampling probabilities
from it exactly the way the paper describes: bucket the under-3B population
by nearest Table 1 model within each domain.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.utils.rng import RngLike, ensure_rng
from repro.workloads.fill_jobs import FILL_JOB_CATEGORIES

#: Fraction of hub models under 3B parameters (reported in the paper).
UNDER_3B_FRACTION = 0.71

#: Fraction of the under-3B models that are CNNs (reported in the paper).
CNN_FRACTION = 0.104

#: Parameter cap applied when constructing the fill-job distribution.
PARAM_CAP = 3e9


@dataclass
class SyntheticModelHub:
    """A synthetic population of model (size, type) pairs.

    The parameter counts follow a log-normal distribution whose median and
    spread are chosen so that the fraction of models under 3B parameters is
    ~71%, matching the statistic the paper extracts from the real hub.
    """

    num_models: int = 20_000
    median_params: float = 6.0e8
    sigma: float = 2.9
    cnn_fraction: float = CNN_FRACTION
    seed: RngLike = 0
    param_counts: np.ndarray = field(init=False, repr=False)
    is_cnn: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.num_models <= 0:
            raise ValueError("num_models must be > 0")
        rng = ensure_rng(self.seed)
        self.param_counts = self.median_params * np.exp(
            self.sigma * rng.standard_normal(self.num_models)
        )
        self.is_cnn = rng.random(self.num_models) < self.cnn_fraction

    @property
    def under_cap_fraction(self) -> float:
        """Fraction of the population under the 3B-parameter cap."""
        return float(np.mean(self.param_counts < PARAM_CAP))

    def filtered(self) -> "SyntheticModelHub":
        """Return a copy keeping only the under-3B models (the paper's filter)."""
        mask = self.param_counts < PARAM_CAP
        clone = SyntheticModelHub.__new__(SyntheticModelHub)
        clone.num_models = int(np.sum(mask))
        clone.median_params = self.median_params
        clone.sigma = self.sigma
        clone.cnn_fraction = self.cnn_fraction
        clone.seed = self.seed
        clone.param_counts = self.param_counts[mask]
        clone.is_cnn = self.is_cnn[mask]
        return clone


@dataclass(frozen=True)
class ModelHubDistribution:
    """Sampling probabilities over the Table 1 fill-job models.

    Sampling is inverse-CDF over the names in sorted order.  The CDF is
    built once, with the array operations ``Generator.choice`` applies to
    ``p`` (normalise, ``cumsum``, divide by the last entry), and a draw
    consumes the one double ``choice`` would, so :meth:`sample` returns the
    same names and leaves the generator in the same state as
    ``gen.choice(names, p=probs)``.  The derived ``names``/``cdf`` are not
    part of equality or the repr.
    """

    probabilities: Dict[str, float]
    names: List[str] = field(init=False, repr=False, compare=False)
    cdf: List[float] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        values = list(self.probabilities.values())
        if not all(math.isfinite(p) and p >= 0.0 for p in values):
            raise ValueError(
                f"probabilities must be finite and non-negative, got {self.probabilities}"
            )
        total = sum(values)
        if not np.isclose(total, 1.0, atol=1e-6):
            raise ValueError(f"probabilities must sum to 1, got {total}")
        unknown = set(self.probabilities) - set(FILL_JOB_CATEGORIES)
        if unknown:
            raise ValueError(f"unknown fill-job models: {sorted(unknown)}")
        names = sorted(self.probabilities)
        probs = np.array([self.probabilities[n] for n in names])
        probs = probs / probs.sum()
        cdf = probs.cumsum()
        cdf /= cdf[-1]
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "cdf", cdf.tolist())

    def sample(self, rng: RngLike = None, size: Optional[int] = None):
        """Sample model name(s) according to the distribution."""
        gen = ensure_rng(rng)
        if size is None:
            return self.names[bisect_right(self.cdf, gen.random())]
        names = self.names
        indices = np.searchsorted(self.cdf, gen.random(size), side="right")
        return [names[i] for i in indices.tolist()]

    @classmethod
    def from_hub(cls, hub: Optional[SyntheticModelHub] = None) -> "ModelHubDistribution":
        """Derive Table 1 sampling probabilities from a (synthetic) hub population.

        CNN models map to EfficientNet (the only CNN in Table 1); vision
        transformers are folded into the CV share via Swin; NLP models are
        bucketed to the nearest Table 1 NLP model by parameter count.
        """
        hub = (hub or SyntheticModelHub()).filtered()
        cnn_share = float(np.mean(hub.is_cnn))
        transformer_params = hub.param_counts[~hub.is_cnn]

        nlp_buckets = {
            "bert-base": (0.0, 2.0e8),
            "bert-large": (2.0e8, 5.5e8),
            "swin-large": (5.5e8, 1.5e9),
            "xlm-roberta-xl": (1.5e9, PARAM_CAP),
        }
        probs: Dict[str, float] = {"efficientnet": cnn_share}
        remaining = 1.0 - cnn_share
        total_transformers = max(len(transformer_params), 1)
        for name, (lo, hi) in nlp_buckets.items():
            share = float(
                np.sum((transformer_params >= lo) & (transformer_params < hi))
            ) / total_transformers
            probs[name] = probs.get(name, 0.0) + remaining * share
        # Normalise away any mass falling outside the buckets (numerical edge).
        total = sum(probs.values())
        probs = {name: p / total for name, p in probs.items()}
        return cls(probabilities=probs)


#: ``default_distribution`` probabilities per integer seed: deriving them
#: draws a 20,000-model synthetic hub, and every trace builder and every
#: arrival-process iteration asks for them.  Cleared past the bound and by
#: :func:`repro.core.executor.clear_shared_caches`.
_DEFAULT_PROBABILITIES: Dict[int, Tuple[Tuple[str, float], ...]] = {}
_MAX_DEFAULT_PROBABILITIES = 64


def default_distribution(seed: RngLike = 0) -> ModelHubDistribution:
    """The Table 1 sampling distribution derived from the synthetic hub.

    Integer seeds are memoised; every call returns a fresh instance.
    """
    if not isinstance(seed, (int, np.integer)):
        return ModelHubDistribution.from_hub(SyntheticModelHub(seed=seed))
    items = _DEFAULT_PROBABILITIES.get(seed)
    if items is None:
        distribution = ModelHubDistribution.from_hub(SyntheticModelHub(seed=seed))
        if len(_DEFAULT_PROBABILITIES) >= _MAX_DEFAULT_PROBABILITIES:
            _DEFAULT_PROBABILITIES.clear()
        _DEFAULT_PROBABILITIES[seed] = tuple(distribution.probabilities.items())
        return distribution
    return ModelHubDistribution(probabilities=dict(items))


def clear_default_distributions() -> None:
    """Drop the memoised default distributions."""
    _DEFAULT_PROBABILITIES.clear()
