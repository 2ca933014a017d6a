"""Executable checks for the scheme's three guarantees.

Every check reports its worst margin even when it passes, so a regression
that merely erodes slack is still visible. The checks are pure functions of
their inputs and can run on any outcome, not just the bundled fixture.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .scheme import CostReport, SchemeOutcome, MINUTES_PER_HOUR, vot_ranks

SP_DEFAULT_GRID = 201
SP_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class StrategyProofResult:
    """Worst misreport margin over a (true VOT, declared VOT) lattice.

    ``worst_margin`` is min over all pairs of (cost when lying) minus (cost
    when truthful); non-negative means lying never helps.
    ``boundary_worst_abs`` is the largest absolute margin over the
    indifference pairs, where a subscriber sits exactly on a partition point
    and declares into the next interval.
    """

    passed: bool
    worst_margin: float
    worst_true: float
    worst_declared: float
    boundary_worst_abs: float
    grid: int
    tolerance: float = SP_TOL


@dataclass(frozen=True, eq=False)
class RevenueResult:
    passed: bool
    residual: float
    tolerance: float


@dataclass(frozen=True, eq=False)
class ParetoResult:
    """Worst margins of the cost chain no-policy >= quitter >= subscriber."""

    passed: bool
    worst_ue_vs_quit: float
    worst_quit_vs_join: float
    at_beta_ue_vs_quit: float
    at_beta_quit_vs_join: float


@dataclass(frozen=True, eq=False)
class VerificationReport:
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
        sp = self.strategy_proof
        rn = self.revenue_neutral
        pa = self.pareto
        return {
            "passed": self.passed,
            "strategy_proof": {
                "passed": sp.passed,
                "worst_margin_usd": sp.worst_margin,
                "worst_true_vot": sp.worst_true,
                "worst_declared_vot": sp.worst_declared,
                "boundary_worst_abs_usd": sp.boundary_worst_abs,
                "grid": sp.grid,
                "tolerance_usd": sp.tolerance,
            },
            "revenue_neutral": {
                "passed": rn.passed,
                "residual_usd": rn.residual,
                "tolerance_usd": rn.tolerance,
            },
            "pareto": {
                "passed": pa.passed,
                "worst_ue_vs_quit_usd": pa.worst_ue_vs_quit,
                "worst_quit_vs_join_usd": pa.worst_quit_vs_join,
                "at_beta_ue_vs_quit": pa.at_beta_ue_vs_quit,
                "at_beta_quit_vs_join": pa.at_beta_quit_vs_join,
            },
        }


def check_strategy_proof(
    outcome: SchemeOutcome, grid: int = SP_DEFAULT_GRID
) -> StrategyProofResult:
    """Exhaustively search a VOT lattice for a profitable misreport.

    The lattice is a uniform grid over the support with every partition
    point spliced in, because the binding pairs sit exactly on interval
    boundaries.
    """
    if grid < 2:
        raise ValueError("grid must be >= 2")
    lo, hi = outcome.support
    lattice = np.unique(
        np.concatenate([np.linspace(lo, hi, grid), outcome.partition])
    )
    ranks = vot_ranks(outcome, lattice)
    hours = lattice / MINUTES_PER_HOUR
    # margins[i, c]: true VOT lattice[i] declares into rank used[c]. A
    # declared VOT matters only through its rank, and ranks rise along the
    # lattice, so the first declared VOT of a rank stands for all of them and
    # the first-occurrence argmin is that of the full lattice x lattice search
    used, first = np.unique(ranks, return_index=True)
    margins = _margins(outcome, hours[:, None], ranks[:, None], used)

    i, c = np.unravel_index(np.argmin(margins), margins.shape)
    worst = float(margins[i, c])

    # indifference pairs: a subscriber exactly on an inner partition point
    # declares into the next rank
    points = outcome.partition[1:-1]
    points = points[(lo < points) & (points < hi)]
    true_rank = vot_ranks(outcome, points)
    boundary = _margins(outcome, points / MINUTES_PER_HOUR, true_rank, true_rank + 1)
    boundary_worst = float(np.abs(boundary).max(initial=0.0))

    return StrategyProofResult(
        passed=worst >= -SP_TOL,
        worst_margin=worst,
        worst_true=float(lattice[i]),
        worst_declared=float(lattice[first[c]]),
        boundary_worst_abs=boundary_worst,
        grid=grid,
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
    return RevenueResult(passed=abs(residual) <= tol, residual=residual, tolerance=tol)


def check_pareto(report: CostReport) -> ParetoResult:
    """Check no-policy cost >= quitter cost >= subscriber cost pointwise."""
    if report.beta_grid.size == 0:
        raise ValueError("cost report grid is empty")
    tol = 1e-9 * (1.0 + report.ue_cost)
    ue_vs_quit = report.ue_cost - report.quitter_cost
    quit_vs_join = report.quitter_cost - report.subscriber_cost
    i = int(np.argmin(ue_vs_quit))
    j = int(np.argmin(quit_vs_join))
    passed = bool(
        np.all(ue_vs_quit >= -tol) and np.all(quit_vs_join >= -tol)
    )
    return ParetoResult(
        passed=passed,
        worst_ue_vs_quit=float(ue_vs_quit[i]),
        worst_quit_vs_join=float(quit_vs_join[j]),
        at_beta_ue_vs_quit=float(report.beta_grid[i]),
        at_beta_quit_vs_join=float(report.beta_grid[j]),
    )


def run_verification(
    outcome: SchemeOutcome,
    report: CostReport,
    sp_grid: int = SP_DEFAULT_GRID,
) -> VerificationReport:
    return VerificationReport(
        strategy_proof=check_strategy_proof(outcome, grid=sp_grid),
        revenue_neutral=check_revenue_neutral(outcome),
        pareto=check_pareto(report),
    )
