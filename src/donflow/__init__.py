"""Donaldson geometric flow on the flat four-torus.

Modules:

* :mod:`donflow.exterior` -- pointwise exterior algebra of oriented R^4
* :mod:`donflow.lattice` -- periodic form fields, discrete d, integration
* :mod:`donflow.flow` -- energy, gradient, Hessian and the flow integrator
* :mod:`donflow.hyperkahler` -- hyperKaehler cross-formulas and oracles
* :mod:`donflow.checks` -- randomized identity suites
* :mod:`donflow.cli` -- command line driver (run / check / hessian / init)
"""

from donflow.config import ConfigError, RunConfig
from donflow.exterior import (
    U_FLOOR,
    DegenerateForm,
    NonPositiveMetric,
    NotPositivePlane,
)
from donflow.flow import FlowState, StepFailure, run
from donflow.lattice import Grid, NoConvergence, NotExact

__all__ = [
    "ConfigError",
    "DegenerateForm",
    "FlowState",
    "Grid",
    "NoConvergence",
    "NonPositiveMetric",
    "NotExact",
    "NotPositivePlane",
    "RunConfig",
    "StepFailure",
    "U_FLOOR",
    "run",
]
