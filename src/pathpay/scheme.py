"""Charge-and-subsidy path guidance built on top of a system-optimal flow.

The pipeline, given a converged system optimum and a subscriber VOT
distribution split into classes:

1. route subscribers by a VOT-weighted linear program that keeps each link's
   subscriber share proportional to the system-optimal link flow;
2. scale subscriber path flows to outsiders, who hold the remaining share of
   every path;
3. order paths from slowest to fastest and cut the VOT distribution into
   quantile intervals whose masses match the per-path subscriber shares, so
   higher-VOT subscribers land on faster paths;
4. charge each path a payment (positive on fast paths, negative on slow
   ones) chosen so that truthful VOT declaration is optimal for every
   subscriber and expected charges exactly cancel expected subsidies.

Payments are in dollars; path times stay in minutes and are converted with
the ``$ = min/60 * $/h`` rule everywhere a time meets a VOT.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .equilibrium import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    FlowSolution,
    solve_so,
    solve_ue,
)
from .network import DEFAULT_MAX_PATHS, Network, PathSet, enumerate_paths
from .simplex import StandardLp, solve_lp
from .vot import VotClassTable, VotDistribution, discretize

MINUTES_PER_HOUR = 60.0

_FLOW_TOL = 1e-9


class SchemeError(ValueError):
    """Scheme input or solver output violates the model's assumptions."""


@dataclass(frozen=True, eq=False)
class SubscriberAssignment:
    """Optimal class-by-path subscriber flows and implied outsider flows."""

    class_path_flows: np.ndarray       # (M, n_paths)
    subscriber_path_flows: np.ndarray  # (n_paths,)
    outsider_path_flows: np.ndarray    # (n_paths,)
    weighted_cost: float               # VOT-weighted time objective


@dataclass(frozen=True, eq=False)
class SchemeOutcome:
    """Everything needed to guide one traveler and settle the payment.

    ``order[i]`` is the original path index of the i-th slowest path;
    ``partition`` has one more entry than paths, starting at the VOT support
    minimum and ending at its maximum; subscribers with VOT in
    ``(partition[i], partition[i+1]]`` ride path ``order[i]`` and pay
    ``payments[i]``. ``rho[i]`` is both the subscriber and the outsider
    share on that path.
    """

    order: tuple[int, ...]
    sorted_times: np.ndarray
    partition: np.ndarray
    rho: np.ndarray
    payments: np.ndarray
    support: tuple[float, float]


class Guidance(NamedTuple):
    rank: int        # position in slow-to-fast order
    path: int        # original path index
    time_min: float
    payment: float


@dataclass(frozen=True, eq=False)
class CostReport:
    """Per-VOT trip costs (dollars) under three regimes, on a uniform grid.

    ``subscriber_cost`` is time cost plus payment on the assigned path,
    ``quitter_cost`` the expected time cost of taking guidance without
    joining, ``ue_cost`` the no-policy equilibrium time cost. Improvement
    columns are percentages relative to ``ue_cost`` (NaN where that is 0).
    """

    beta_grid: np.ndarray
    subscriber_cost: np.ndarray
    quitter_cost: np.ndarray
    ue_cost: np.ndarray
    improvement_subscriber_pct: np.ndarray
    improvement_outsider_pct: np.ndarray


def solve_subscriber_lp(
    so: FlowSolution,
    classes: VotClassTable,
    net: Network,
    paths: PathSet,
) -> SubscriberAssignment:
    """Route subscriber classes onto paths at minimum VOT-weighted time.

    Constraints: per link, subscriber flow equals the system-optimal link
    flow scaled by the subscriber share of demand; per VOT class, path flows
    add up to the class demand. The result's per-path totals also fix the
    outsider path flows, which mirror the subscriber split at outsider
    scale.
    """
    d_sub = net.subscriber_demand
    if d_sub <= 0:
        raise SchemeError("scheme requires positive subscriber demand")
    d_out = net.outsider_demand
    n_paths = len(paths)
    M = classes.M

    incidence = paths.incidence
    n_links = incidence.shape[0]
    share = d_sub / net.demand

    # variables x[m*n_paths + r]: subscribers of class m on path r
    n_vars = M * n_paths
    A = np.zeros((n_links + M, n_vars))
    b = np.zeros(n_links + M)
    for a in range(n_links):
        A[a] = np.tile(incidence[a], M)
        b[a] = so.link_flows[a] * share
    for m in range(M):
        A[n_links + m, m * n_paths : (m + 1) * n_paths] = 1.0
        b[n_links + m] = classes.class_demand[m]
    c = (classes.class_mean[:, None] * so.path_times[None, :]).ravel()

    sol = solve_lp(StandardLp(c=c, A=A, b=b))
    if not sol.optimal:
        raise SchemeError(
            f"subscriber routing LP is {sol.status}; system-optimal link flows "
            "and class demands are inconsistent"
        )

    flows = sol.x.reshape(M, n_paths)
    if flows.min(initial=0.0) < -_FLOW_TOL:
        raise SchemeError("LP produced a significantly negative flow")
    tol = 1e-7 * (1.0 + np.abs(b).max(initial=0.0))
    class_err = np.abs(flows.sum(axis=1) - classes.class_demand).max(initial=0.0)
    link_err = np.abs(
        incidence @ flows.sum(axis=0) - so.link_flows * share
    ).max(initial=0.0)
    if class_err > tol or link_err > tol:
        raise SchemeError(
            f"LP solution violates flow constraints (class {class_err:.3e}, "
            f"link {link_err:.3e})"
        )

    flows = np.clip(flows, 0.0, None)
    totals = flows.sum(axis=0)
    return SubscriberAssignment(
        class_path_flows=flows,
        subscriber_path_flows=totals,
        outsider_path_flows=(d_out / d_sub) * totals,
        weighted_cost=float(sol.objective),
    )


def build_outcome(
    assign: SubscriberAssignment,
    dist: VotDistribution,
    times: np.ndarray,
) -> SchemeOutcome:
    """Order paths, cut the VOT distribution, and price every path.

    Paths with zero subscriber flow stay in the order with an empty VOT
    interval and a zero share; their payment is still defined (it keeps the
    payment-difference structure intact) but nobody is charged it.
    """
    times = np.asarray(times, dtype=float)
    d_sub = float(assign.subscriber_path_flows.sum())
    if d_sub <= 0:
        raise SchemeError("scheme requires positive subscriber demand")

    order = tuple(sorted(range(len(times)), key=lambda r: (-times[r], r)))
    sorted_times = times[list(order)]
    rho = assign.subscriber_path_flows[list(order)] / d_sub
    rho = np.clip(rho, 0.0, None)
    rho /= rho.sum()

    cum = np.minimum(np.cumsum(rho), 1.0)
    cum[-1] = 1.0
    partition = np.empty(len(rho) + 1)
    partition[0] = dist.support[0]
    partition[1:] = dist.inverse_cdf(cum)
    np.maximum.accumulate(partition, out=partition)

    payments = compute_payments(sorted_times, partition, rho)
    return SchemeOutcome(
        order=order,
        sorted_times=sorted_times,
        partition=partition,
        rho=rho,
        payments=payments,
        support=dist.support,
    )


def compute_payments(
    sorted_times: np.ndarray,
    partition: np.ndarray,
    rho: np.ndarray,
) -> np.ndarray:
    """Payment per path position, slowest first, in dollars.

    For position i the charge aggregates, over every slower position h, the
    time saved moving from h to i priced at the partition VOT of each gap
    crossed; the subsidy mirrors this over faster positions. The spread
    between consecutive positions is pinned to the boundary VOT between
    them (the declaration-indifference condition), and weighting by the path
    shares makes charges and subsidies cancel in expectation.
    """
    sorted_times = np.asarray(sorted_times, dtype=float)
    partition = np.asarray(partition, dtype=float)
    rho = np.asarray(rho, dtype=float)
    n = sorted_times.size
    if partition.size != n + 1:
        raise SchemeError("partition must have one more entry than paths")
    if rho.size != n:
        raise SchemeError("rho must have one entry per path")
    drops = sorted_times[:-1] - sorted_times[1:]
    if drops.size and drops.min() < -1e-9 * max(1.0, abs(sorted_times).max()):
        raise SchemeError("sorted_times must be non-increasing")
    if abs(rho.sum() - 1.0) > 1e-9:
        raise SchemeError("rho must sum to one")

    # gap_value[j]: dollar value of the time drop between positions j-1 and j,
    # priced at the partition point separating them
    gap_value = drops * partition[1:n] / MINUTES_PER_HOUR

    payments = np.zeros(n)
    for i in range(n):
        for h in range(i):
            payments[i] += rho[h] * gap_value[h:i].sum()
        for h in range(i + 1, n):
            payments[i] -= rho[h] * gap_value[i:h].sum()
    return payments


def assign_subscriber(outcome: SchemeOutcome, declared_vot: float) -> Guidance:
    """Path and payment for a subscriber declaring the given VOT.

    Intervals are open below and closed above; the support minimum itself
    maps to the first path carrying subscribers. Declarations outside the
    support are rejected.
    """
    lo, hi = outcome.support
    if not lo <= declared_vot <= hi:
        raise SchemeError(
            f"declared VOT {declared_vot:g} outside [{lo:g}, {hi:g}]; "
            "clamp it to the support or re-declare"
        )
    nonempty = np.flatnonzero(outcome.rho > 0)
    uppers = outcome.partition[1:][nonempty]
    k = int(np.searchsorted(uppers, declared_vot, side="left"))
    k = min(k, len(nonempty) - 1)
    rank = int(nonempty[k])
    return Guidance(
        rank=rank,
        path=outcome.order[rank],
        time_min=float(outcome.sorted_times[rank]),
        payment=float(outcome.payments[rank]),
    )


def assign_outsider(outcome: SchemeOutcome, rng, size: int | None = None):
    """Sample guidance for outsiders: path position i with probability rho[i].

    ``rng`` is a seed or a ``numpy.random.Generator``; the same seed always
    reproduces the same draws. Returns original path indices (an array when
    ``size`` is given).
    """
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    ranks = gen.choice(len(outcome.rho), size=size, p=outcome.rho)
    order = np.asarray(outcome.order)
    picked = order[ranks]
    return picked if size is not None else int(picked)


def cost_report(
    outcome: SchemeOutcome,
    ue: FlowSolution,
    grid_size: int,
) -> CostReport:
    """Evaluate subscriber/quitter/no-policy costs on a uniform VOT grid."""
    if grid_size < 2:
        raise SchemeError("grid_size must be >= 2")
    if ue.regime != "UE" or ue.ue_time is None:
        raise SchemeError("cost report needs a user-equilibrium solution")
    lo, hi = outcome.support
    beta = np.linspace(lo, hi, grid_size)

    nonempty = np.flatnonzero(outcome.rho > 0)
    uppers = outcome.partition[1:][nonempty]
    ks = np.minimum(
        np.searchsorted(uppers, beta, side="left"), len(nonempty) - 1
    )
    ranks = nonempty[ks]

    hours = beta / MINUTES_PER_HOUR
    sub_cost = outcome.sorted_times[ranks] * hours + outcome.payments[ranks]
    expected_time = float(outcome.rho @ outcome.sorted_times)
    quit_cost = expected_time * hours
    ue_cost = ue.ue_time * hours

    with np.errstate(divide="ignore", invalid="ignore"):
        imp_sub = np.where(ue_cost > 0, (ue_cost - sub_cost) / ue_cost * 100.0, np.nan)
        imp_out = np.where(ue_cost > 0, (ue_cost - quit_cost) / ue_cost * 100.0, np.nan)

    return CostReport(
        beta_grid=beta,
        subscriber_cost=sub_cost,
        quitter_cost=quit_cost,
        ue_cost=ue_cost,
        improvement_subscriber_pct=imp_sub,
        improvement_outsider_pct=imp_out,
    )


@dataclass(frozen=True, eq=False)
class PipelineResult:
    """All intermediate artifacts of a full scheme run."""

    paths: PathSet
    so: FlowSolution
    ue: FlowSolution
    classes: VotClassTable
    assignment: SubscriberAssignment
    outcome: SchemeOutcome


def run_scheme(
    net: Network,
    dist: VotDistribution,
    M: int,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    max_paths: int = DEFAULT_MAX_PATHS,
) -> PipelineResult:
    """End-to-end run: enumerate paths, solve both equilibria, route
    subscribers, and build the guidance outcome."""
    paths = enumerate_paths(net, max_paths)
    so = solve_so(net, paths, tol=tol, max_iter=max_iter)
    ue = solve_ue(net, paths, tol=tol, max_iter=max_iter)
    classes = discretize(dist, net.subscriber_demand, M)
    assignment = solve_subscriber_lp(so, classes, net, paths)
    outcome = build_outcome(assignment, dist, so.path_times)
    return PipelineResult(
        paths=paths,
        so=so,
        ue=ue,
        classes=classes,
        assignment=assignment,
        outcome=outcome,
    )
