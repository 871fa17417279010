"""Walsh-Hadamard spectral toolkit.

Transforms (naive, fast butterfly, and a simulated hybrid
classical-quantum route), Walsh-domain integration/differentiation
matrices, and a Picard solver for nonlinear ODE initial-value problems.
"""

__version__ = "0.1.0"

from .calculus import (
    OperationalMatrix,
    differentiation_matrix,
    integrate_sampled,
    integration_matrix,
    time_integration_operator,
)
from .errors import DivergenceError, ExprError, ExprEvalError, ResourceLimitError
from .hybrid import HybridConfig, HybridTrace, classical_side_opcount, hybrid_wht, sign_safe
from .quantum import (
    DEFAULT_SEED,
    MeasurementResult,
    StateVector,
    apply_hadamard_all,
    measure_exact,
    measure_sampled,
    prepare_state,
)
from .solver import (
    IVProblem,
    SolutionTrace,
    SolverConfig,
    analytic_reference,
    builtin_problem,
    picard_solve,
)
from .transform import OpCount, fwht, iwht, wht_naive
from .walsh import (
    SampledFunction,
    SpectralVector,
    WalshOrdering,
    cal_index,
    character_eval,
    character_table,
    convert_ordering,
    discretize,
    ordering_permutation,
    reconstruct,
    sal_index,
    sequency_walsh_recursive,
    walsh_value,
)

__all__ = [
    "DEFAULT_SEED",
    "DivergenceError",
    "ExprError",
    "ExprEvalError",
    "HybridConfig",
    "HybridTrace",
    "IVProblem",
    "MeasurementResult",
    "OpCount",
    "OperationalMatrix",
    "ResourceLimitError",
    "SampledFunction",
    "SolutionTrace",
    "SolverConfig",
    "SpectralVector",
    "StateVector",
    "WalshOrdering",
    "analytic_reference",
    "apply_hadamard_all",
    "builtin_problem",
    "cal_index",
    "character_eval",
    "character_table",
    "classical_side_opcount",
    "convert_ordering",
    "differentiation_matrix",
    "discretize",
    "fwht",
    "hybrid_wht",
    "integrate_sampled",
    "integration_matrix",
    "iwht",
    "measure_exact",
    "measure_sampled",
    "ordering_permutation",
    "picard_solve",
    "prepare_state",
    "reconstruct",
    "sal_index",
    "sequency_walsh_recursive",
    "sign_safe",
    "time_integration_operator",
    "walsh_value",
    "wht_naive",
]
