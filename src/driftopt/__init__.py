"""Constrained convex optimization via drift-plus-penalty and dual
subgradient methods, with dual-function analysis, ground-truth KKT solves,
and convergence-rate diagnostics."""

from .core import (DimensionError, IterateTrace, ProgramSpec, QueueState,
                   sample_indices)
from .oracles import ClosedFormNumOracle, ClosedFormQpOracle, NumInstance, QpInstance
from .solver import VARIANTS, choose_V, run
from .reference import (InfeasibleError, KktSolution, kkt_solve_num,
                        kkt_solve_qp)
from .dual_analysis import (dual_value_and_gradient, general_dual_hessian,
                            num_dual_hessian, theta_bound)
from .diagnostics import (RateFit, audit_bounds, audit_passed, error_series,
                          fit_geometric, fit_power_decay)
from .problems import (BUILTIN_TAGS, Constant, ProblemBundle, builtin,
                       load_problem)

__version__ = "0.1.0"

__all__ = [
    "BUILTIN_TAGS", "ClosedFormNumOracle", "ClosedFormQpOracle", "Constant",
    "DimensionError", "InfeasibleError", "IterateTrace",
    "KktSolution", "NumInstance", "ProblemBundle", "ProgramSpec",
    "QpInstance", "QueueState", "RateFit", "VARIANTS", "audit_bounds",
    "audit_passed", "builtin", "choose_V", "dual_value_and_gradient",
    "error_series", "fit_geometric", "fit_power_decay",
    "general_dual_hessian", "kkt_solve_num", "kkt_solve_qp", "load_problem",
    "num_dual_hessian", "run", "sample_indices", "theta_bound",
]
