"""Gauss-Hermite quadrature against Gaussian laws.

Every integral in this package is an integral of a smooth function
against a one-dimensional Gaussian, so a single fixed-order
Gauss-Hermite rule in the physicists' convention (weight e^{-t^2}, sum
of weights sqrt(pi)) covers all of them:

    E[f(m + s*G)] = pi^{-1/2} * sum_i w_i f(m + sqrt(2)*s*t_i).
"""

import functools
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.hermite import hermgauss

_SQRT_PI = np.sqrt(np.pi)
_SQRT_2 = np.sqrt(2.0)


@dataclass(frozen=True)
class QuadratureRule:
    """A Gauss-Hermite rule: exact for polynomials of degree < 2*order
    against e^{-t^2}."""

    order: int
    nodes: np.ndarray
    weights: np.ndarray

    @staticmethod
    def gauss_hermite(order):
        """The rule of this order, built once and shared: its arrays are read-only."""
        if order < 1:
            raise ValueError("quadrature order must be >= 1")
        return _gauss_hermite(int(order))

    def half(self):
        """The companion rule at half the order, for error estimates."""
        return QuadratureRule.gauss_hermite(max(1, self.order // 2))

    def expect(self, f, mean=0.0, std=1.0):
        """E[f(mean + std*G)] for G ~ N(0,1).

        Parameters
        ----------
        f : callable
            Must accept ndarray input (vectorized).
        mean : float or ndarray
            Scalar or array of means; the quadrature axis is appended
            as a trailing axis, so an array of means yields an array of
            expectations of the same shape.
        std : float
            Non-negative scale. std == 0 degenerates to f(mean).

        Returns
        -------
        float or ndarray

        Non-finite values of f on the rule's nodes (the operational
        growth probe for super-Gaussian f) raise ValueError.
        """
        mean = np.asarray(mean, dtype=float)
        pts = mean[..., None] + (_SQRT_2 * std) * self.nodes
        vals = np.asarray(f(pts), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise ValueError(
                f"integrand growth: f is not finite over the quadrature range (std={std:g})"
            )
        out = vals @ self.weights / _SQRT_PI
        return float(out) if mean.ndim == 0 else out


@functools.cache
def _gauss_hermite(order):
    nodes, weights = hermgauss(order)
    nodes.flags.writeable = weights.flags.writeable = False
    return QuadratureRule(order=order, nodes=nodes, weights=weights)
