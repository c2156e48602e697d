"""Constrained convex optimization via drift-plus-penalty and dual
subgradient methods, with dual-function analysis, ground-truth KKT solves,
and convergence-rate diagnostics."""

from .core import (DimensionError, IterateTrace, ProgramSpec, dual_value_and_gradient,
                   general_dual_hessian, num_dual_hessian, sample_indices, theta_bound)
from .oracles import ClosedFormNumOracle, ClosedFormQpOracle, NumInstance, QpInstance
from .solver import VARIANTS, choose_V, run
from .reference import (InfeasibleError, KktSolution, kkt_solve_num,
                        kkt_solve_qp)
from .diagnostics import (RateFit, audit_bounds, audit_passed, fit_geometric,
                          fit_power_decay, max_violation)
from .problems import (BUILTIN_TAGS, Constant, ProblemBundle, builtin,
                       load_problem)

__version__ = "0.1.0"

__all__ = [
    "BUILTIN_TAGS", "ClosedFormNumOracle", "ClosedFormQpOracle", "Constant",
    "DimensionError", "InfeasibleError", "IterateTrace",
    "KktSolution", "NumInstance", "ProblemBundle", "ProgramSpec",
    "QpInstance", "RateFit", "VARIANTS", "audit_bounds", "audit_passed",
    "builtin", "choose_V", "dual_value_and_gradient", "fit_geometric",
    "fit_power_decay", "general_dual_hessian", "kkt_solve_num", "kkt_solve_qp",
    "load_problem", "max_violation", "num_dual_hessian", "run",
    "sample_indices", "theta_bound",
]
