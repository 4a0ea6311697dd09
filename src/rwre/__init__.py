"""Exact quenched computations for 1-D random walks in random environment.

The package computes, without simulation error, quenched path
probabilities for nearest-neighbour walks on the integer lattice whose
step law is frozen site by site: return probabilities ``P(X_{2n} = 0)``,
strip-confinement probabilities, hitting-time CDFs, and the conditional
law of the maximal displacement of bridges.  On top of the exact kernel
it provides an exact conditioned-path sampler (terminal-hitting
reweighting), a change-of-measure verifier for non-nestling laws, and
scaling diagnostics (decay exponents, ``(log n)^2 / n`` constants,
exit-time moment generating functions, longest fair-site runs).

Entry points
------------
* Build a :class:`SiteDistribution` (or read one from a law file with
  :func:`load_distribution`), classify its regime, and sample an
  :class:`Environment` window with :func:`sample_environment`; the law,
  the seed and the window reproduce the environment exactly.
* Exact probabilities: :func:`bridge_log_prob`,
  :func:`confined_log_prob`, :func:`hitting_cdf`,
  :func:`max_disp_bridge_cdf`, :func:`exit_prob_closed_form`.
* Exact conditioned sampling, all in plain integer arrays:
  :func:`sample_bridge` (one bridge's sites), :func:`sample_bridge_paths`
  (a matrix of them) and :func:`max_disp_samples` (each bridge's maximal
  displacement and :func:`b_count`).  Each takes a step table built once by
  :func:`backward_table`.
* The ``rwre`` command line (see :mod:`rwre.cli`) wraps the canned,
  reproducible experiments of :mod:`rwre.experiments`.
"""

from .asymptotics import (
    ScalingFit,
    c1_const,
    exit_mgf_closed,
    exit_mgf_dp,
    fit_constant_lnln,
    fit_exponent,
    lambda_crit,
    lambda_eps,
    lnln_target,
    longest_fair_run,
    ols_fit,
    srw_smalldev_constant,
)
from .environment import (
    Environment,
    Regime,
    RegimeClass,
    SiteDistribution,
    annealed_backtrack_bound,
    classify,
    mn_transform,
    mn_transform_law,
    rate_I0,
    sample_environment,
    solve_kappa,
    speed,
)
from .errors import (
    ConfigError,
    DegenerateBridgeError,
    DomainError,
    GapError,
    NotABridgeError,
    OrderingError,
    ParityError,
    RegimeError,
    RwreError,
    WindowTooSmallError,
)
from .io import load_distribution
from .kernel import (
    bridge_log_prob,
    bridge_max_quantile,
    confined_log_prob,
    exit_prob_closed_form,
    hitting_cdf,
    max_disp_bridge_cdf,
)
from .measure_change import (
    ComConstants,
    ComReport,
    ComRow,
    b_count,
    com_constants,
    rn_log_derivative,
    verify_com_identity,
)
from .sampling import (
    backward_table,
    max_disp_samples,
    sample_bridge,
    sample_bridge_paths,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # environment
    "SiteDistribution",
    "Regime",
    "RegimeClass",
    "Environment",
    "classify",
    "solve_kappa",
    "speed",
    "rate_I0",
    "annealed_backtrack_bound",
    "sample_environment",
    "mn_transform",
    "mn_transform_law",
    # io
    "load_distribution",
    # kernel
    "bridge_log_prob",
    "confined_log_prob",
    "max_disp_bridge_cdf",
    "bridge_max_quantile",
    "hitting_cdf",
    "exit_prob_closed_form",
    # sampling
    "backward_table",
    "sample_bridge",
    "sample_bridge_paths",
    "max_disp_samples",
    # change of measure
    "ComConstants",
    "ComRow",
    "ComReport",
    "b_count",
    "com_constants",
    "rn_log_derivative",
    "verify_com_identity",
    # asymptotics
    "ScalingFit",
    "longest_fair_run",
    "srw_smalldev_constant",
    "lambda_crit",
    "lambda_eps",
    "c1_const",
    "exit_mgf_closed",
    "exit_mgf_dp",
    "ols_fit",
    "fit_exponent",
    "fit_constant_lnln",
    "lnln_target",
    # errors
    "RwreError",
    "RegimeError",
    "WindowTooSmallError",
    "ParityError",
    "OrderingError",
    "DegenerateBridgeError",
    "NotABridgeError",
    "GapError",
    "DomainError",
    "ConfigError",
]
