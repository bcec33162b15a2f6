"""Full-history recursive multilevel Picard solver for semilinear heat PDEs.

The estimator returns joint (value, gradient) approximations of the
solution at a single space-time point, with exact accounting of every
scalar random draw, computable a-priori error bounds, and a manufactured-
solution verification harness.  See the README for a quickstart.

The top level exports the functions the README documents for library use
and the classes and exceptions they take, return or raise; every other
name is imported from its submodule (``mlpicard.cases``,
``mlpicard.harness``, ``mlpicard.integrals``, ...).
"""

from .bounds import (
    AdmissibilityViolated,
    ErrorBoundInput,
    NoFeasibleDepth,
    Overflow,
    RegularityData,
    cost_bound_closed,
    cost_rv,
    error_bound,
    schedule,
)
from .core import (
    Convention,
    FieldEstimate,
    InvalidProblem,
    MlpConfig,
    PdeProblem,
    TimeMap,
    Violation,
    audit_lipschitz,
    to_canonical,
)
from .engine import (
    CallbackContractError,
    DepthCostGuard,
    EmptySample,
    InvalidConvention,
    QueryAtTerminalTime,
    RmseReport,
    evaluate,
    replicate,
    rmse,
)
from .cases import (
    BenchmarkCase,
    ResidualCheckFailed,
    UnknownCase,
    builtin_case,
)
from .harness import (
    ConvergenceRow,
    combined_error_ucl,
    run_convergence,
    write_csv,
)
from .integrals import HypothesisViolated
from .sampler import stream_uniforms

__version__ = "0.1.0"

__all__ = [
    "AdmissibilityViolated",
    "BenchmarkCase",
    "CallbackContractError",
    "Convention",
    "ConvergenceRow",
    "DepthCostGuard",
    "EmptySample",
    "ErrorBoundInput",
    "FieldEstimate",
    "HypothesisViolated",
    "InvalidConvention",
    "InvalidProblem",
    "MlpConfig",
    "NoFeasibleDepth",
    "Overflow",
    "PdeProblem",
    "QueryAtTerminalTime",
    "RegularityData",
    "ResidualCheckFailed",
    "RmseReport",
    "TimeMap",
    "UnknownCase",
    "Violation",
    "audit_lipschitz",
    "builtin_case",
    "combined_error_ucl",
    "cost_bound_closed",
    "cost_rv",
    "error_bound",
    "evaluate",
    "replicate",
    "rmse",
    "run_convergence",
    "schedule",
    "stream_uniforms",
    "to_canonical",
    "write_csv",
]
