"""bartree: bifurcating autoregressive trees on the full binary tree.

Simulation of the symmetric Gaussian bifurcating autoregressive (BAR)
model, kernel density estimation of its invariant law over a generation
or over the whole tree, quadrature-exact moment oracles for additive
tree functionals, and a Monte Carlo harness that checks the central
limit theorem for the fluctuation statistic across the sub-critical,
critical and super-critical regimes.

The package root names the CLT run's entry points; every other name is
imported from its own module (bartree.tree_sim, bartree.bar_model, ...).
"""

from .harness import ExperimentConfig, export, run_clt_experiments

__version__ = "0.1.0"
