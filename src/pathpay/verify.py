"""Executable checks for the scheme's three guarantees.

Every check reports its worst margin even when it passes, so a regression
that merely erodes slack is still visible. The checks are pure functions of
their inputs and can run on any outcome, not just the bundled fixture.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import ClassVar

import numpy as np

from .scheme import CostReport, SchemeOutcome, MINUTES_PER_HOUR, trip_costs

# strategy-proofness tolerance per dollar of payment spread: margins are
# differences of payments, so they carry rounding of the payments' size,
# and a payment offset common to every path cancels in them. No absolute
# floor: the margins scale with the VOT, whatever its unit
SP_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class StrategyProofResult:
    """Worst misreport margin over every (true VOT, declared VOT) pair.

    ``worst_margin_usd`` is min over all pairs of (cost when lying) minus
    (cost when truthful); non-negative means lying never helps.
    ``worst_true_vot`` and ``worst_declared_vot`` are the first pair in
    rank-ends order whose margin is within ``tolerance_usd`` of the worst,
    so a passing run reports the truthful pair at the support minimum
    however the payments round; a true VOT on a partition point may stand
    for the limit from above, in the rank above the point. A declared VOT
    stands for its rank; above rank 0 it lies inside the rank.
    ``boundary_worst_abs_usd`` is the largest absolute margin over the
    indifference pairs, where a subscriber at the open lower end of a rank
    declares into the rank below it, the rank of the partition point itself.
    ``tolerance_usd`` is ``SP_TOL * (max payment - min payment)``.
    """

    # not a field: the uniform lattice size whose rows, with the partition
    # points spliced in, are the rank ends. Kept only for
    # ``benchmarks/tracing.py``; delete it when the trace stops reading it
    grid: ClassVar[int] = 2

    passed: bool
    worst_margin_usd: float
    worst_true_vot: float
    worst_declared_vot: float
    boundary_worst_abs_usd: float
    tolerance_usd: float


@dataclass(frozen=True, eq=False)
class RevenueResult:
    passed: bool
    residual_usd: float
    tolerance_usd: float


@dataclass(frozen=True, eq=False)
class ParetoResult:
    """Worst margins of the cost chain no-policy >= quitter >= subscriber."""

    passed: bool
    worst_ue_vs_quit_usd: float
    worst_quit_vs_join_usd: float
    at_beta_ue_vs_quit: float
    at_beta_quit_vs_join: float


@dataclass(frozen=True, eq=False)
class VerificationReport:
    """The three checks; ``to_dict`` is ``verification.json``, whose keys
    are the results' field names."""

    strategy_proof: StrategyProofResult
    revenue_neutral: RevenueResult
    pareto: ParetoResult

    @property
    def passed(self) -> bool:
        return (
            self.strategy_proof.passed
            and self.revenue_neutral.passed
            and self.pareto.passed
        )

    def to_dict(self) -> dict:
        return {"passed": self.passed, **asdict(self)}


def check_strategy_proof(outcome: SchemeOutcome) -> StrategyProofResult:
    """Search both ends of every rank for a profitable misreport into each
    rank.

    The ranks that hold a VOT are rank 0, which holds the support minimum,
    and each rank above it whose interval ``(p_k, p_k+1]`` is not empty. A
    row is an end of one of them in that rank, lower end first, slowest
    rank first; a lower end above rank 0 is its partition point's limit
    from above. A margin is linear in the true VOT within a rank, so the
    ends give the exact worst. A declared VOT matters only through its
    rank: rank 0 declares the support minimum, every other rank a VOT
    inside it, its midpoint, so that it never reads as a partition point.
    The reported pair is the first row, then the first rank, within the
    tolerance of the worst.
    """
    points = outcome.partition
    live = np.flatnonzero(np.r_[True, points[1:-1] < points[2:]])
    lower, upper = points[live], points[live + 1]
    vots = np.column_stack([lower, upper]).ravel()
    # the upper end only where no float lies between the ends
    declared = np.maximum(lower / 2 + upper / 2, np.nextafter(lower, np.inf))
    declared[0] = points[0]
    # margins[i, c]: row i declares into rank live[c]
    margins = _margins(
        outcome, vots[:, None] / MINUTES_PER_HOUR, np.repeat(live, 2)[:, None], live
    )
    worst = float(margins.min())
    tol = SP_TOL * float(np.ptp(outcome.payments))
    i, c = np.unravel_index(np.argmax(margins <= worst + tol), margins.shape)
    # indifference pairs: each lower end above rank 0 declares the rank below
    above = np.arange(1, live.size)
    boundary = margins[2 * above, above - 1]

    return StrategyProofResult(
        passed=worst >= -tol,
        worst_margin_usd=worst,
        worst_true_vot=float(vots[i]),
        worst_declared_vot=float(declared[c]),
        boundary_worst_abs_usd=float(np.abs(boundary).max(initial=0.0)),
        tolerance_usd=tol,
    )


def _margins(outcome: SchemeOutcome, vot_per_min, true_rank, declared_rank):
    """(cost when declaring into ``declared_rank``) minus (cost when
    truthful), in $, for a subscriber in rank ``true_rank`` whose true VOT
    is ``vot_per_min`` $/min; the arguments broadcast. The time and payment
    differences are taken apart: summing each cost first rounds a time
    difference worth dollars away beside payments near -1e183, as link
    costs near 1e200 give."""
    times, payments = outcome.sorted_times, outcome.payments
    return vot_per_min * (times[declared_rank] - times[true_rank]) + (
        payments[declared_rank] - payments[true_rank]
    )


def check_revenue_neutral(outcome: SchemeOutcome) -> RevenueResult:
    """Expected payment over the path shares; zero means self-financing.

    The tolerance scales with what subscribers actually pay, the expected
    absolute payment, not with the largest payment: on an outcome holding
    a path no one rides, as a hand-built one may, that path's payment would
    let a real residual pass. It has no absolute floor, so it holds at any
    VOT scale: payments of 1e-12 $ are checked as payments of 1 $ are."""
    residual = float(outcome.rho @ outcome.payments)
    tol = 1e-9 * float(outcome.rho @ np.abs(outcome.payments))
    return RevenueResult(abs(residual) <= tol, residual, tol)


def check_pareto(outcome: SchemeOutcome, report: CostReport) -> ParetoResult:
    """Check no-policy cost >= quitter cost >= subscriber cost at every VOT
    of the support, exactly at the partition points.

    Within a rank the quitter's cost minus the subscriber's is linear in the
    VOT, so its worst is at an end of a rank: both ends of every rank are
    checked, slowest rank first, and each inner partition point once per
    rank it ends. The no-policy cost minus the quitter's is proportional to
    the VOT, so its worst is at the report's first or last VOT, the
    support's ends. Each margin may fall ``1e-9 * (1 + no-policy cost)``
    below 0."""
    if report.beta.size == 0:
        raise ValueError("cost report grid is empty")
    ends = np.repeat(outcome.partition, 2)[1:-1]
    sub_cost, quit_cost = trip_costs(outcome, ends, np.arange(ends.size) // 2)
    quit_vs_join = quit_cost - sub_cost
    join_tol = 1e-9 * (1.0 + np.interp(ends, report.beta, report.ue_cost))
    outer = [0, -1]
    ue_vs_quit = report.ue_cost[outer] - report.quitter_cost[outer]
    quit_tol = 1e-9 * (1.0 + report.ue_cost[outer])
    i = int(ue_vs_quit.argmin())
    j = int(quit_vs_join.argmin())
    passed = bool(
        np.all(ue_vs_quit >= -quit_tol) and np.all(quit_vs_join >= -join_tol)
    )
    return ParetoResult(
        passed=passed,
        worst_ue_vs_quit_usd=float(ue_vs_quit[i]),
        worst_quit_vs_join_usd=float(quit_vs_join[j]),
        at_beta_ue_vs_quit=float(report.beta[outer[i]]),
        at_beta_quit_vs_join=float(ends[j]),
    )


def run_verification(
    outcome: SchemeOutcome, report: CostReport, sp_grid: int | None = None
) -> VerificationReport:
    """The three checks. ``sp_grid`` is ignored: it is kept only for
    ``benchmarks/tracing.py``; delete it when the trace stops passing it."""
    return VerificationReport(
        strategy_proof=check_strategy_proof(outcome),
        revenue_neutral=check_revenue_neutral(outcome),
        pareto=check_pareto(outcome, report),
    )
