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

from .quadrature import QuadratureRule


@dataclass(frozen=True)
class SmoothingKernel:
    """A kernel with its declared norms and order.

    The order s is an assertion by whoever builds the kernel (moment
    vanishing up to ceil(s)-1 and a finite s-th absolute moment); the
    factory below validates the declaration numerically instead of
    inferring it.
    """

    name: str
    evaluate: Callable[[np.ndarray], np.ndarray]
    l1_norm: float
    l2_norm_sq: float
    sup_norm: float
    order: float


# Validation of a declared kernel: a 96-node rule reweighted against
# N(0, 1), and the tolerance on each checked integral.
_KERNEL_QUAD_ORDER = 96
_KERNEL_TOL = 1e-8


def build_kernel(name, evaluate, l1_norm, l2_norm_sq, sup_norm, order) -> SmoothingKernel:
    """Construct a kernel after validating the declared attributes.

    Checks: integral K = 1, vanishing moments k = 1..ceil(s)-1,
    finite s-th absolute moment, and the declared L1/L2 norms. The
    validating quadrature reweights against a standard Gaussian, so the
    kernel must have sub-Gaussian-dominated tails (true for the
    built-in Gaussian).
    """
    if order <= 0:
        raise ValueError("kernel order must be positive")
    quad = QuadratureRule.gauss_hermite(_KERNEL_QUAD_ORDER)
    total = quad.lebesgue(evaluate)
    if abs(total - 1.0) > _KERNEL_TOL:
        raise ValueError(f"kernel does not integrate to 1 (got {total!r})")
    for k in range(1, math.ceil(order)):
        mk = quad.lebesgue(lambda u, k=k: u**k * evaluate(u))
        if abs(mk) > _KERNEL_TOL:
            raise ValueError(f"moment {k} of the kernel is {mk!r}, expected 0")
    ms = quad.lebesgue(lambda u: np.abs(u) ** order * evaluate(u))
    if not math.isfinite(ms):
        raise ValueError(f"absolute moment of order {order} is not finite")
    l1 = quad.lebesgue(lambda u: np.abs(evaluate(u)))
    l2 = quad.lebesgue(lambda u: evaluate(u) ** 2)
    if abs(l1 - l1_norm) > _KERNEL_TOL or abs(l2 - l2_norm_sq) > _KERNEL_TOL:
        raise ValueError("declared kernel norms disagree with quadrature")
    return SmoothingKernel(
        name=name,
        evaluate=evaluate,
        l1_norm=l1_norm,
        l2_norm_sq=l2_norm_sq,
        sup_norm=sup_norm,
        order=order,
    )


def gaussian_kernel() -> SmoothingKernel:
    """The standard Gaussian kernel: order 2, ||K||_2^2 = (2 sqrt(pi))^{-1}."""
    return build_kernel(
        name="gaussian",
        evaluate=lambda u: np.exp(-0.5 * np.asarray(u, dtype=float) ** 2)
        / math.sqrt(2.0 * math.pi),
        l1_norm=1.0,
        l2_norm_sq=1.0 / (2.0 * math.sqrt(math.pi)),
        sup_norm=1.0 / math.sqrt(2.0 * math.pi),
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


def parzen_sum(K: SmoothingKernel, x, sample, h: float):
    """sum_u K((x - X_u)/h) over the last axis of `sample`; `x` broadcasts."""
    return K.evaluate((x - sample) / h).sum(axis=-1)


def density_estimate(sample, x_points, h: float, K: SmoothingKernel):
    """mu_hat at each query point: |sample|^{-1} h^{-d} sum K((x - X_u)/h).

    One pass over the sample (sample-major, chunked): the sample is the
    large axis, queries are few.
    """
    if h <= 0:
        raise ValueError("bandwidth h must be positive")
    sample = np.atleast_1d(np.asarray(sample, dtype=float))
    if sample.size == 0:
        raise ValueError("empty sample")
    if not np.all(np.isfinite(sample)):
        raise ValueError("sample contains non-finite values")
    xq = np.asarray(x_points, dtype=float)
    scalar = xq.ndim == 0
    xq1 = np.atleast_1d(xq)
    acc = np.zeros(xq1.shape, dtype=float)
    chunk = 1 << 16
    for start in range(0, sample.size, chunk):
        block = sample[start : start + chunk]
        acc += parzen_sum(K, xq1[:, None], block[None, :], h)
    out = acc / (sample.size * h)
    return float(out[0]) if scalar else out


def bias_term(
    x: float,
    h: float,
    K: SmoothingKernel,
    density: Callable[[np.ndarray], np.ndarray],
    quad: QuadratureRule,
) -> float:
    """B_h(x) = integral of K(y) (density(x - h y) - density(x)) dy.

    This is the smoothing error of the estimator's mean; for an order-s
    kernel it decays like h^s wherever the density has s derivatives.
    """
    if h <= 0:
        raise ValueError("bandwidth h must be positive")
    dx = float(density(np.asarray(x, dtype=float)))
    return quad.lebesgue(lambda u: K.evaluate(u) * (density(x - h * u) - dx))
