"""Quadrature-exact moment formulas for generation sums M_{G_n}(f).

For a branching pair kernel P and its marginal Q, conditionally on the
root X = x:

    E_x[M_{G_n}(f)]          = 2^n Q^n f(x)
    E_x[M_{G_n}(f)^2]        = 2^n Q^n(f^2)(x)
                               + sum_{k=0}^{n-1} 2^{n+k} Q^{n-k-1}( P(Q^k f (x) Q^k f) )(x)
    E_x[M_{G_n}(f) M_{G_m}(g)] (n >= m)
                             = 2^n Q^m(g Q^{n-m} f)(x)
                               + sum_{k=0}^{m-1} 2^{n+k} Q^{m-k-1}( P(Q^k g (x)_sym Q^{n-m+k} f) )(x)

The BAR pair kernel factorizes, P(x,dy,dz) = Q(x,dy) Q(x,dz), so
P(u (x) v)(y) = Qu(y) * Qv(y) and every P application above collapses
to a product of one-dimensional integrals: the inner tensor terms
become (Q^{k+1} f)^2 and Q^{k+1} g * Q^{n-m+k+1} f. That specialization
is what is implemented; each value costs O(n * order^2) kernel
evaluations (nested quadrature of depth two). The second moment is the
cross moment at m = n, g = f, and one function evaluates both.

These identities are the independent ground truth the Monte Carlo
harness is checked against; verdict() is the one rule that scores a
Monte Carlo cell against them, for `bartree moments` and criterion 4.
"""

import math
from dataclasses import dataclass

from .bar_model import BarModel, q_power_apply
from .quadrature import QuadratureRule

DEFAULT_CAP = 12


@dataclass(frozen=True)
class MomentOracleResult:
    """A moment value plus a Richardson-style quadrature error estimate
    (difference between the full-order and half-order rules)."""

    value: float
    quadrature_error_estimate: float


def verdict(values, result: MomentOracleResult):
    """(estimate, standard error, z) of a Monte Carlo cell's per-replicate
    values (an array) against the oracle. All-equal values are a deterministic
    cell: se = 0, and z is 0 within the quadrature error, a signed inf outside."""
    same = bool((values == values[0]).all())
    est = float(values[0]) if same else float(values.mean())  # not a mean 1 ulp off
    se = 0.0 if same else float(values.std(ddof=1) / math.sqrt(len(values)))
    miss = est - result.value
    exact = abs(miss) <= result.quadrature_error_estimate
    return est, se, miss / se if se > 0 else (0.0 if exact else math.copysign(math.inf, miss))


def _with_error(compute, quad: QuadratureRule) -> MomentOracleResult:
    full = compute(quad)
    half = compute(quad.half())
    return MomentOracleResult(value=full, quadrature_error_estimate=abs(full - half))


def mean_MGn(
    f, n: int, x: float, model: BarModel, quad: QuadratureRule
) -> MomentOracleResult:
    """E_x[M_{G_n}(f)] = 2^n Q^n f(x)."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return _with_error(
        lambda q: 2.0**n * q_power_apply(f, n, x, model, q), quad
    )


def second_moment_MGn(
    f, n: int, x: float, model: BarModel, quad: QuadratureRule
) -> MomentOracleResult:
    """E_x[M_{G_n}(f)^2]: the cross moment at m = n, g = f (module docstring)."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if n > DEFAULT_CAP:
        raise ValueError(f"n={n} exceeds the second-moment cost cap {DEFAULT_CAP}")
    return _with_error(lambda q: _cross_moment(f, f, n, n, x, model, q), quad)


def _cross_moment(f, g, n, m, x, model, q):
    total = 2.0**n * q_power_apply(
        lambda y: g(y) * q_power_apply(f, n - m, y, model, q), m, x, model, q
    )
    for k in range(m):
        prod = lambda y, k=k: (
            q_power_apply(g, k + 1, y, model, q)
            * q_power_apply(f, n - m + k + 1, y, model, q)
        )
        total += 2.0 ** (n + k) * q_power_apply(prod, m - k - 1, x, model, q)
    return total


def cross_moment_MGn_MGm(
    f,
    g,
    n: int,
    m: int,
    x: float,
    model: BarModel,
    quad: QuadratureRule,
) -> MomentOracleResult:
    """E_x[M_{G_n}(f) M_{G_m}(g)] for n >= m >= 0; second_moment_MGn is
    its case n = m, g = f."""
    if m < 0 or n < m:
        raise ValueError("need n >= m >= 0")
    if n > DEFAULT_CAP:
        raise ValueError(f"n={n} exceeds the cross-moment cost cap {DEFAULT_CAP}")
    return _with_error(lambda q: _cross_moment(f, g, n, m, x, model, q), quad)
