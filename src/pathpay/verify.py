"""Executable checks for the scheme's three guarantees.

Every check reports its worst margin even when it passes, so a regression
that merely erodes slack is still visible. The checks are pure functions of
their inputs and can run on any outcome, not just the bundled fixture.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .scheme import CostReport, SchemeOutcome, MINUTES_PER_HOUR, trip_costs, vot_ranks

SP_DEFAULT_GRID = 201
# strategy-proofness tolerance per dollar of payment spread: margins are
# differences of payments, so they carry rounding of the payments' size,
# and a payment offset common to every path cancels in them
SP_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class StrategyProofResult:
    """Worst misreport margin over every (true VOT, declared VOT) pair.

    ``worst_margin_usd`` is min over all pairs of (cost when lying) minus
    (cost when truthful); non-negative means lying never helps.
    ``worst_true_vot`` and ``worst_declared_vot`` are the first pair in
    lattice order whose margin is within ``tolerance_usd`` of the worst, so
    a passing run reports the truthful pair at the support minimum however
    the payments round; a true VOT on a partition point may stand for the
    limit from above, in the rank above the point.
    ``boundary_worst_abs_usd`` is the largest absolute margin over the
    indifference pairs, where a subscriber at the open lower end of a rank
    declares into the rank of the partition point itself.
    ``tolerance_usd`` is ``SP_TOL * (1 + max payment - min payment)``.
    """

    passed: bool
    worst_margin_usd: float
    worst_true_vot: float
    worst_declared_vot: float
    boundary_worst_abs_usd: float
    grid: int
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


def check_strategy_proof(
    outcome: SchemeOutcome, grid: int = SP_DEFAULT_GRID
) -> StrategyProofResult:
    """Exhaustively search (true VOT, true rank) rows for a profitable
    misreport into each rank.

    The rows are a uniform grid over the support with every partition point
    spliced in, each in its own rank, then each inner partition point again
    as the open lower end of the rank above it, its true VOT the limit from
    above. A margin is linear in the true VOT within a rank, so the worst
    margin is exact at any ``grid``. The reported pair is the first row,
    then the first declared VOT of a rank, within the tolerance of the worst.
    """
    if grid < 2:
        raise ValueError("grid must be >= 2")
    lo, hi = outcome.support
    lattice = np.unique(
        np.concatenate([np.linspace(lo, hi, grid), outcome.partition])
    )
    ranks = vot_ranks(outcome, lattice)
    # an inner partition point in [lo, hi) is also the open lower end of the
    # rank a right-side search gives it: a second row, right after its first
    above = np.searchsorted(outcome.partition[1:-1], lattice, side="right")
    lower = (above > ranks) & (lo <= lattice) & (lattice < hi)
    rows = np.repeat(np.arange(lattice.size), 1 + lower)
    at_lower = np.flatnonzero(rows[1:] == rows[:-1]) + 1
    true_rank = ranks[rows]
    true_rank[at_lower] = above[rows[at_lower]]
    # margins[i, c]: row i declares into rank used[c]. A declared VOT matters
    # only through its rank, and ranks rise along the lattice, so the first
    # declared VOT of a rank stands for all of them
    used, first = np.unique(ranks, return_index=True)
    margins = _margins(
        outcome, lattice[rows, None] / MINUTES_PER_HOUR, true_rank[:, None], used
    )
    worst = float(margins.min())
    tol = SP_TOL * (1.0 + float(np.ptp(outcome.payments)))
    i, c = np.unravel_index(np.argmax(margins <= worst + tol), margins.shape)
    # indifference pairs: a lower end declares into the rank its point maps to
    boundary = margins[at_lower, np.searchsorted(used, ranks[rows[at_lower]])]

    return StrategyProofResult(
        passed=worst >= -tol,
        worst_margin_usd=worst,
        worst_true_vot=float(lattice[rows[i]]),
        worst_declared_vot=float(lattice[first[c]]),
        boundary_worst_abs_usd=float(np.abs(boundary).max(initial=0.0)),
        grid=grid,
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
    let a real residual pass."""
    residual = float(outcome.rho @ outcome.payments)
    tol = 1e-9 * float(outcome.rho @ np.abs(outcome.payments)) + 1e-12
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
    outcome: SchemeOutcome,
    report: CostReport,
    sp_grid: int = SP_DEFAULT_GRID,
) -> VerificationReport:
    return VerificationReport(
        strategy_proof=check_strategy_proof(outcome, grid=sp_grid),
        revenue_neutral=check_revenue_neutral(outcome),
        pareto=check_pareto(outcome, report),
    )
