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
from .quantum import apply_hadamard_all, measure_exact, measure_sampled, prepare_state
from .solver import (
    IVProblem,
    SolutionTrace,
    SolverConfig,
    analytic_reference,
    builtin_problem,
    picard_solve,
)
from .transform import OpCount, fwht, wht_naive
from .walsh import (
    SampledFunction,
    WalshOrdering,
    character_eval,
    character_table,
    discretize,
    ordering_permutation,
    reconstruct,
    sequency_walsh_recursive,
    walsh_value,
)

__all__ = [
    "DivergenceError",
    "ExprError",
    "ExprEvalError",
    "HybridConfig",
    "HybridTrace",
    "IVProblem",
    "OpCount",
    "OperationalMatrix",
    "ResourceLimitError",
    "SampledFunction",
    "SolutionTrace",
    "SolverConfig",
    "WalshOrdering",
    "analytic_reference",
    "apply_hadamard_all",
    "builtin_problem",
    "character_eval",
    "character_table",
    "classical_side_opcount",
    "differentiation_matrix",
    "discretize",
    "fwht",
    "hybrid_wht",
    "integrate_sampled",
    "integration_matrix",
    "measure_exact",
    "measure_sampled",
    "ordering_permutation",
    "picard_solve",
    "prepare_state",
    "reconstruct",
    "sequency_walsh_recursive",
    "sign_safe",
    "time_integration_operator",
    "walsh_value",
    "wht_naive",
]
