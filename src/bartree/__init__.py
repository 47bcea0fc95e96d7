"""bartree: bifurcating autoregressive trees on the full binary tree.

Simulation of the symmetric Gaussian bifurcating autoregressive (BAR)
model, kernel density estimation of its invariant law over a generation
or over the whole tree, quadrature-exact moment oracles for additive
tree functionals, and a Monte Carlo harness that checks the central
limit theorem for the fluctuation statistic across the sub-critical,
critical and super-critical regimes.
"""

from .quadrature import QuadratureRule
from .tree_sim import (
    NodeAddress,
    GenerationBuffer,
    ReplicateSeed,
    node_randomness,
    simulate_generations,
)
from .bar_model import (
    BarModel,
    GaussianInitial,
    BarAssumptionReport,
    bar_kernel,
    bar_transition,
    invariant_density,
    q_power_apply,
    check_assumptions,
)
from .smoothing import (
    SmoothingKernel,
    BandwidthSchedule,
    RegimeReport,
    gaussian_kernel,
    bandwidth,
    admissible_bandwidth,
    density_estimate,
    bias_term,
)
from .fluctuations import (
    FluctuationSample,
    GaussianLimit,
    zeta,
    theoretical_limit,
    cross_generation_pairs,
)
from .oracle import (
    MomentOracleResult,
    mean_MGn,
    second_moment_MGn,
    cross_moment_MGn_MGm,
)
from .harness import (
    ExperimentConfig,
    CltRunResult,
    run_clt_experiment,
    ks_distance,
    histogram,
    independence_report,
    export,
)

__version__ = "0.1.0"
