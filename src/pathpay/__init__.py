"""Charge-and-subsidy path guidance for single origin-destination networks."""

from .network import (
    Link,
    LinkCostFn,
    Network,
    NetworkError,
    PathCountError,
    PathSet,
    enumerate_paths,
    parse_network,
)
from .equilibrium import (
    ConvergenceError,
    FlowSolution,
    average_time,
    solve_so,
    solve_ue,
)
from .vot import VotClassTable, VotDistribution, VotError, discretize, parse_vot
from .scheme import (
    CostReport,
    PipelineResult,
    SchemeError,
    SchemeOutcome,
    SubscriberAssignment,
    assign_outsider,
    build_outcome,
    compute_payments,
    cost_report,
    run_scheme,
    solve_subscriber_lp,
    vot_ranks,
)
from .verify import (
    VerificationReport,
    check_pareto,
    check_revenue_neutral,
    check_strategy_proof,
    run_verification,
)

__version__ = "0.1.0"

__all__ = [
    "Link",
    "LinkCostFn",
    "Network",
    "NetworkError",
    "PathCountError",
    "PathSet",
    "enumerate_paths",
    "parse_network",
    "ConvergenceError",
    "FlowSolution",
    "average_time",
    "solve_so",
    "solve_ue",
    "VotClassTable",
    "VotDistribution",
    "VotError",
    "discretize",
    "parse_vot",
    "CostReport",
    "PipelineResult",
    "SchemeError",
    "SchemeOutcome",
    "SubscriberAssignment",
    "assign_outsider",
    "build_outcome",
    "compute_payments",
    "cost_report",
    "run_scheme",
    "solve_subscriber_lp",
    "vot_ranks",
    "VerificationReport",
    "check_pareto",
    "check_revenue_neutral",
    "check_strategy_proof",
    "run_verification",
    "__version__",
]
