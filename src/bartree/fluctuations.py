"""Fluctuation statistics of the kernel density estimator.

The central object is

    zeta_n = |A_n|^{1/2} h_n^{1/2} (mu_hat(x) - mu(x)),

whose limit law is N(0, mu(x) ||K||_2^2) for both A_n = G_n (one
generation) and A_n = T_n (the whole tree).
"""

from dataclasses import dataclass

import numpy as np

from .bar_model import BarModel, invariant_density
from .smoothing import SmoothingKernel


@dataclass(frozen=True)
class FluctuationSample:
    """One replicate's zeta value plus the run metadata."""

    zeta: float
    scope: str
    n: int
    gamma: float
    x: float
    replicate_index: int
    seed: int


def zeta(mu_hat, mu_x: float, cardinality: int, h_n: float):
    """|A_n|^{1/2} h_n^{1/2} (mu_hat - mu(x)); `mu_hat` may be an array."""
    if cardinality < 1:
        raise ValueError("cardinality must be >= 1")
    if h_n <= 0:
        raise ValueError("h_n must be positive")
    return np.sqrt(cardinality) * np.sqrt(h_n) * (mu_hat - mu_x)


def theoretical_limit(x: float, K: SmoothingKernel, model: BarModel) -> float:
    """The variance mu(x) ||K||_2^2 of the CLT limit N(0, mu(x) ||K||_2^2) of zeta_n."""
    return invariant_density(x, model) * K.l2_norm_sq


def cross_generation_pairs(result) -> np.ndarray:
    """Per-replicate (zeta at G_n, zeta at G_{n-1}) pairs from a CLT run.

    Requires the run to have recorded the previous generation
    (record_previous_generation in the experiment config).
    """
    if getattr(result, "prev_samples", None) is None:
        raise ValueError("run did not record the previous generation")
    if len(result.prev_samples) != len(result.samples):
        raise ValueError("mismatched replicate counts between generations")
    pairs = np.array(
        [[s.zeta, p.zeta] for s, p in zip(result.samples, result.prev_samples)]
    )
    return pairs
