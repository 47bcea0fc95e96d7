"""Kernels, the dyadic bandwidth schedule, and the density estimator.

The estimator is the classical Parzen average

    mu_hat(x) = |A|^{-1} h^{-d} sum_u K((x - X_u)/h),

algebraically identical to the double-h^{-d/2} convention in which the
kernel K_h(y) = h^{-d/2} K(y/h) carries one factor and the estimator
the other; the two factors are combined here in one pass. Bandwidths
follow h_n = 2^{-n*gamma}. The states are real, so d = 1 throughout.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .tree_sim import row_sums


@dataclass(frozen=True)
class SmoothingKernel:
    """A kernel with the two constants the CLT uses: its order s (the
    bias condition gamma > 1/(2s+1)) and ||K||_2^2 (the limit variance
    mu(x) ||K||_2^2)."""

    evaluate: Callable[[np.ndarray], np.ndarray]
    l2_norm_sq: float
    order: float


def gaussian_kernel() -> SmoothingKernel:
    """The standard Gaussian kernel: order 2, ||K||_2^2 = (2 sqrt(pi))^{-1}."""
    return SmoothingKernel(
        evaluate=lambda u: np.exp(-0.5 * np.asarray(u, dtype=float) ** 2)
        / math.sqrt(2.0 * math.pi),
        l2_norm_sq=1.0 / (2.0 * math.sqrt(math.pi)),
        order=2.0,
    )


@dataclass(frozen=True)
class BandwidthSchedule:
    """h_n = 2^{-n*gamma}; requires 0 < gamma < 1/d = 1."""

    gamma: float

    def __post_init__(self):
        if not 0.0 < self.gamma < 1.0:
            raise ValueError(f"gamma must lie in (0, 1/d) = (0, 1.0), got {self.gamma}")


def bandwidth(n: int, schedule: BandwidthSchedule) -> float:
    """h_n = 2^{-n*gamma}, exact base-2 exponentiation."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return 2.0 ** (-n * schedule.gamma)


@dataclass(frozen=True)
class RegimeReport:
    gamma_in_range: bool
    bias_ok: bool
    supercritical_ok: bool
    admissible: bool
    gamma_lower_bound_supercritical: Optional[float]


def admissible_bandwidth(
    schedule: BandwidthSchedule, s: float, alpha: float
) -> RegimeReport:
    """Check the bandwidth exponent against all regime conditions.

    With d = 1: gamma must lie in (0, 1/d); the bias condition is
    gamma > 1/(2s+d); in the super-critical regime (2 alpha^2 > 1) the
    ergodicity/variance trade-off additionally requires
    2^{d*gamma} > 2 alpha^2, i.e. gamma > (1 + log2(alpha^2)) / d,
    reported as the lower bound.
    """
    if s <= 0:
        raise ValueError("kernel order s must be positive")
    if not 0.0 <= alpha < 1.0:
        raise ValueError("alpha must lie in [0, 1)")
    g = schedule.gamma
    in_range = 0.0 < g < 1.0
    bias_ok = g > 1.0 / (2.0 * s + 1.0)
    two_alpha_sq = 2.0 * alpha * alpha
    if two_alpha_sq > 1.0:
        sc_ok = 2.0**g > two_alpha_sq
        lb = 1.0 + math.log(alpha * alpha) / math.log(2.0)
    else:
        sc_ok = True  # vacuous at or below criticality
        lb = None
    return RegimeReport(
        gamma_in_range=in_range,
        bias_ok=bias_ok,
        supercritical_ok=sc_ok,
        admissible=in_range and bias_ok and sc_ok,
        gamma_lower_bound_supercritical=lb,
    )


def density_estimate(sample, x_points, h: float, K: SmoothingKernel):
    """mu_hat at each query point: |sample|^{-1} h^{-d} sum K((x - X_u)/h).

    One pass over the sample in chunks of 2^16, each chunk summed for one
    query point at a time: working memory is O(chunk) whatever the number
    of query points.
    """
    if h <= 0:
        raise ValueError("bandwidth h must be positive")
    sample = np.atleast_1d(np.asarray(sample, dtype=float))
    if sample.size == 0:
        raise ValueError("empty sample")
    xq = np.asarray(x_points, dtype=float)
    if not np.all(np.isfinite(xq)):
        raise ValueError("query points contain non-finite values")
    scalar = xq.ndim == 0
    xq1 = np.atleast_1d(xq)
    acc = np.zeros(xq1.shape, dtype=float)
    chunk = 1 << 16
    for start in range(0, sample.size, chunk):
        block = sample[start : start + chunk]
        if not np.all(np.isfinite(block)):  # a chunk at a time: no mask of the whole sample
            raise ValueError("sample contains non-finite values")
        for j, xj in enumerate(xq1):
            acc[j] += row_sums(K.evaluate((xj - block) / h))
    out = acc / (sample.size * h)
    return float(out[0]) if scalar else out
