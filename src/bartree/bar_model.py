"""The symmetric Gaussian bifurcating autoregressive (BAR) model.

Both children of a node with trait x receive a*x plus independent
N(0, sigma^2) noise, i.e. the pair kernel factorizes as
P(x, dy, dz) = Q(x, dy) Q(x, dz) with Q(x, .) = N(a*x, sigma^2).
Everything about Q is then explicit:

    Q^n f(x)  = E[ f(a^n x + sqrt(1 - a^{2n}) * sigma_a * G) ],
    mu        = N(0, sigma_a^2),      sigma_a = sigma / sqrt(1 - a^2),

and the ergodic rate is alpha = |a|. The regime split used throughout
(sub-critical / critical / super-critical) is 2*alpha^2 vs 1: the
branching factor 2 against the squared mixing rate.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .quadrature import QuadratureRule
from .tree_sim import NodeStream

_SQRT_2PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class BarModel:
    """Parameters (a, sigma) with |a| < 1, sigma >= 0 (0 = noiseless)."""

    a: float
    sigma: float

    def __post_init__(self):
        if not (math.isfinite(self.a) and abs(self.a) < 1.0):
            raise ValueError(f"BAR requires |a| < 1, got a={self.a}")
        if not (math.isfinite(self.sigma) and self.sigma >= 0.0):
            raise ValueError(f"sigma must be finite and >= 0, got {self.sigma}")

    @property
    def sigma_a(self) -> float:
        """Stationary standard deviation sigma * (1 - a^2)^{-1/2}."""
        return self.sigma / math.sqrt(1.0 - self.a * self.a)

    @property
    def alpha(self) -> float:
        """Ergodic rate |a|."""
        return abs(self.a)

    def _require_noise(self, what):
        if self.sigma == 0.0:
            raise ValueError(f"{what} undefined for the degenerate model sigma=0")


@dataclass(frozen=True)
class GaussianInitial:
    """Initial law N(m0, rho0^2); rho0 = 0 encodes a point mass at m0.

    Each field must be an int or a float (exactly: a bool is refused) and is
    stored as a float, so an int writes the bytes of the matching float."""

    m0: float
    rho0: float

    def __post_init__(self):
        for name in ("m0", "rho0"):
            value = getattr(self, name)
            if type(value) not in (int, float):
                raise ValueError(f"initial field {name!r} must be float, got {value!r}")
            object.__setattr__(self, name, float(value))
        if not (math.isfinite(self.m0) and math.isfinite(self.rho0) and self.rho0 >= 0):
            raise ValueError(f"need a finite m0 and rho0 >= 0, got m0={self.m0}, rho0={self.rho0}")


@dataclass(frozen=True)
class BarAssumptionReport:
    k1_min: int
    initial_ok: bool
    C0: float
    h_sq_mu_norm: float
    alpha_regime: str


def bar_transition(x: float, randomness: NodeStream, model: BarModel):
    """One kernel application: (a*x + eps0, a*x + eps1), eps i.i.d. N(0, sigma^2)."""
    e0, e1 = randomness.normal_pair(0)
    ax = model.a * x
    return ax + model.sigma * e0, ax + model.sigma * e1


def stationary_initial(model: BarModel) -> GaussianInitial:
    """The invariant law N(0, sigma_a^2) as an initial distribution."""
    return GaussianInitial(m0=0.0, rho0=float(model.sigma_a))  # numpy if sigma is


def invariant_density(x, model: BarModel):
    """mu(x) = sqrt(1-a^2)/sqrt(2 pi sigma^2) * exp(-(1-a^2) x^2 / (2 sigma^2))."""
    model._require_noise("invariant density")
    x = np.asarray(x, dtype=float)
    one_m_a2 = 1.0 - model.a * model.a
    s2 = model.sigma * model.sigma
    out = math.sqrt(one_m_a2) / (_SQRT_2PI * model.sigma) * np.exp(
        -one_m_a2 * x * x / (2.0 * s2)
    )
    return float(out) if x.ndim == 0 else out


def q_power_apply(f, n: int, x, model: BarModel, quad: QuadratureRule):
    """Q^n f(x) = E[f(a^n x + sqrt(1-a^{2n}) sigma_a G)] by quadrature.

    `x` may be an ndarray (one expectation per entry). n = 0 returns
    f(x) without touching the rule. Non-finite integrand values (the
    operational growth probe for super-Gaussian f) raise ValueError.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    x = np.asarray(x, dtype=float)
    if n == 0:
        vals = np.asarray(f(x), dtype=float)
        return float(vals) if x.ndim == 0 else vals
    an = model.a**n
    std = math.sqrt(max(0.0, 1.0 - an * an)) * model.sigma_a
    return quad.expect(f, an * x, std)


def check_assumptions(
    model: BarModel, initial: Optional[GaussianInitial] = None
) -> BarAssumptionReport:
    """Verify the model-side assumptions and return the derived constants.

    * k1_min: smallest k >= 1 with a^{2k} < 1/5 (the L^6 threshold for
      the iterated weight h_k); exists for every |a| < 1.
    * initial_ok: N(m0, rho0^2) is admissible iff rho0 < sigma_a, or
      rho0 = sigma_a with m0 = 0. `initial=None` means the stationary law.
    * C0: sup mu + sup_{x,y} q(x, y) mu(y) = (1 + sqrt(1-a^2)) / sqrt(2 pi sigma^2).
    * h_sq_mu_norm: <mu, h^2> for the weight function
      h(x) = (1-a^4)^{-1/4} exp(a^2 (1-a^2)/(1+a^2) x^2/(2 sigma^2)),
      which dominates sqrt(density ratios) along the tree; in closed form,
          mu(x) h(x)^2 = (1-a^4)^{-1/2} sqrt(1-a^2) / sqrt(2 pi sigma^2)
                         * exp(-(1-a^2)^2/(1+a^2) x^2/(2 sigma^2)),
          <mu, h^2> = (1-a^4)^{-1/2} sqrt(1-a^2) sqrt(1+a^2)/(1-a^2) = 1/(1-a^2).
    * alpha_regime from 2 alpha^2 vs 1.
    """
    model._require_noise("assumption checks")
    a2 = model.a * model.a

    k1 = 1
    while model.a ** (2 * k1) >= 0.2:
        k1 += 1

    if initial is None:
        initial = stationary_initial(model)
    initial_ok = initial.rho0 < model.sigma_a or (
        initial.rho0 == model.sigma_a and initial.m0 == 0.0
    )

    C0 = (1.0 + math.sqrt(1.0 - a2)) / (_SQRT_2PI * model.sigma)

    two_alpha_sq = 2.0 * a2
    if two_alpha_sq < 1.0:
        regime = "sub_critical"
    elif two_alpha_sq == 1.0:
        regime = "critical"
    else:
        regime = "super_critical"

    return BarAssumptionReport(
        k1_min=k1,
        initial_ok=initial_ok,
        C0=C0,
        h_sq_mu_norm=1.0 / (1.0 - a2),
        alpha_regime=regime,
    )
