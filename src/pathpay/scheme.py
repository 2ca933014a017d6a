"""Charge-and-subsidy path guidance built on top of a system-optimal flow.

The pipeline, given a converged system optimum and a subscriber VOT
distribution split into classes:

1. route subscribers by a VOT-weighted linear program that keeps each link's
   subscriber share proportional to the system-optimal link flow. Because
   the highest VOTs always take the fastest paths, the program is solved
   over path totals alone, by cutting planes on the concave VOT-mass
   curve, and its VOT-weighted cost is read off that curve;
2. scale subscriber path flows to outsiders, who hold the remaining share of
   every path;
3. order the paths subscribers ride from slowest to fastest and cut the VOT
   distribution into quantile intervals whose masses match their subscriber
   shares, so higher-VOT subscribers land on faster paths;
4. charge each of those paths a payment (positive on fast paths, negative
   on slow ones) chosen so that truthful VOT declaration is optimal for
   every subscriber and expected charges exactly cancel expected subsidies.

Payments are in dollars; path times stay in minutes and are converted with
the ``$ = min/60 * $/h`` rule everywhere a time meets a VOT. Guidance and
payments depend only on the system optimum and the VOT distribution; the
user equilibrium is the no-policy baseline that :func:`cost_report`
compares them against, solved by the caller that wants the comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .equilibrium import DEFAULT_TOL, FlowSolution, solve_so
from .network import Network, PathSet, enumerate_paths
from .simplex import StandardLp, append_rows, solve_lp
from .vot import VotClassTable, VotDistribution, discretize

MINUTES_PER_HOUR = 60.0

_FLOW_TOL = 1e-9


class SchemeError(ValueError):
    """Scheme input or solver output violates the model's assumptions."""


@dataclass(frozen=True, eq=False)
class SubscriberAssignment:
    """Optimal per-path subscriber totals and implied outsider flows."""

    subscriber_path_flows: np.ndarray  # (n_paths,)
    outsider_path_flows: np.ndarray    # (n_paths,)
    weighted_cost: float               # VOT-weighted time objective
    # how the cutting-plane solve went; none of it reaches an output file
    rounds: int                        # master solves, the first one cold
    cuts: int                          # cuts in the final master
    master_shape: tuple[int, int]      # final master's (rows, columns)
    cold_pivots: int                   # simplex pivots of the first solve
    dual_pivots: int                   # dual simplex pivots of the others
    demand_residual: float             # |sum of totals - subscriber demand|
    link_residual: float               # max |incidence @ totals - target|


@dataclass(frozen=True, eq=False)
class SchemeOutcome:
    """Everything needed to guide one traveler and settle the payment.

    Only the paths subscribers ride appear. ``order[i]`` is the original
    path index of the i-th slowest of them, ties broken by index;
    ``partition`` has one more entry than ``order``, starting at the VOT
    support minimum and ending at its maximum; subscribers with VOT in
    ``(partition[i], partition[i+1]]`` (the first interval also holds the
    minimum) ride path ``order[i]`` and pay ``payments[i]``. ``rho[i] > 0``
    is both the subscriber and the outsider share on that path.
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
    """Per-path subscriber totals of minimum VOT-weighted time.

    This is the class-by-path LP: per link, subscriber flow equals the
    system-optimal link flow scaled by the subscriber share of demand; per
    VOT class, path flows add up to the class demand. Only its per-path
    totals are returned; they also fix the outsider path flows, which
    mirror the subscriber split at outsider scale.

    The LP is solved exactly over the path totals ``T`` alone. For fixed
    totals the cheapest coupling is sort-and-fill: the highest VOTs take
    the fastest path. With paths sorted fastest first by
    ``(time, index)``, cumulative totals ``C_k``, gaps
    ``w_k = t_{k+1} - t_k >= 0`` and ``G(C)`` the VOT mass of the top ``C``
    subscribers (concave, one linear piece per class, highest mean first),
    the LP value is ``t_R G(D) - sum_k w_k G(C_k)`` minimised over
    ``incidence @ T = share * q_SO``, ``T >= 0``. ``-G`` is the maximum of
    its pieces, so Kelley's cutting-plane method solves it: a master LP in
    ``T`` and ``z_k`` minimises ``sum_k w_k z_k`` under the link rows and
    the cuts ``z_k + v_m C_k >= v_m D_{m-1} - G(D_{m-1})`` gathered so far.
    The cuts are tangents of ``G >= 0``, so ``z_k <= 0`` at every master
    optimum and the master carries ``y_k = -z_k >= 0``. It starts from the
    piece holding each ``C_k`` at the SO path split and adds the piece
    holding each new ``C_k`` until none is new; the master value then
    equals the true objective at its solution, which proves optimality.
    Gaps with ``w_k = 0`` need no cut. The first master is solved cold;
    each later round appends only its new cuts to the solved tableau and
    re-optimises by dual simplex. The reported ``weighted_cost`` is
    ``sum_k t_k (G(C_k) - G(C_{k-1}))`` at the final totals, with ``t_k``
    the k-th fastest time and ``C_0 = 0``.

    Where the optimal totals are not unique, the result is the basic
    optimum that dual Bland's rule reaches on the grown tableau, from the
    basic optimum that Bland's rule reaches on the first master. That
    master's columns are the paths slowest first, then the first cuts'
    surpluses, then ``y``, and the simplex starts from its crash basis: the
    surplus of each cut with a negative right-hand side starts basic in its
    row, and the link rows and the other cuts start with artificial
    variables. Each later cut's surplus follows as a new last column, basic
    in its row. So the result is a deterministic function of the inputs.
    """
    d_sub = net.subscriber_demand
    if d_sub <= 0:
        raise SchemeError("scheme requires positive subscriber demand")
    d_out = net.outsider_demand
    n_paths = len(paths)
    M = classes.M
    share = d_sub / net.demand
    link_target = so.link_flows * share
    times = so.path_times

    # G's pieces, highest class mean first: piece m covers cumulative demand
    # [bounds[m], bounds[m+1]] with slope vot[m]; its cut reads
    # z + vot[m] * C >= rhs[m]
    by_vot = np.lexsort((np.arange(M), -classes.class_mean))
    vot = classes.class_mean[by_vot]
    demand = classes.class_demand[by_vot]
    bounds = np.concatenate([[0.0], np.cumsum(demand)])
    mass = np.concatenate([[0.0], np.cumsum(vot * demand)])  # G at the bounds
    rhs = vot * bounds[:-1] - mass[:-1]

    fastest = np.lexsort((np.arange(n_paths), times))
    gaps = np.diff(times[fastest])
    ks = np.flatnonzero(gaps > 0)
    # master path columns run slowest first: over relabelled chains this
    # order kept Bland's pivot count steady, where index order varied 4x
    columns = fastest[::-1]
    incidence = paths.incidence[:, columns]
    # prefix[j] @ T is the total on the ks[j] + 1 fastest paths
    prefix = (np.arange(n_paths)[None, ::-1] <= ks[:, None]).astype(float)

    def pieces(totals) -> list[tuple[int, int]]:
        """(gap, piece of G holding C_k) for every gap with w_k > 0."""
        held = np.minimum(np.searchsorted(bounds[1:], prefix @ totals), M - 1)
        return list(enumerate(held.tolist()))

    cuts = dict.fromkeys(pieces(share * so.path_flows[columns]))  # ordered set
    y0 = n_paths + len(cuts)  # y follows the first cuts' surpluses

    def cut_rows(new, width: int):
        """Rows ``vot[m] * prefix[j] @ T - y_j`` of the cuts ``(j, m)`` over
        ``width`` master columns, and their right-hand sides."""
        j, m = np.array(new, dtype=int).reshape(-1, 2).T
        A = np.zeros((j.size, width))
        A[:, :n_paths] = vot[m, None] * prefix[j]
        A[np.arange(j.size), y0 + j] = -1.0
        return A, rhs[m]

    first = cut_rows(list(cuts), y0 + ks.size)
    sol = solve_lp(_master_lp(incidence, link_target, *first, gaps[ks]))
    cold_pivots, dual_pivots, rounds = sol.iterations, 0, 1
    while sol.optimal:
        new = [cut for cut in pieces(sol.x[:n_paths]) if cut not in cuts]
        if not new:
            break
        cuts.update(dict.fromkeys(new))
        sol = append_rows(sol, *cut_rows(new, sol.x.size))
        dual_pivots += sol.iterations
        rounds += 1
    if not sol.optimal:
        raise SchemeError(
            f"subscriber routing LP is {sol.status}; system-optimal link "
            "flows and class demands are inconsistent"
        )

    slow_totals = sol.x[:n_paths]
    if slow_totals.min(initial=0.0) < -_FLOW_TOL:
        raise SchemeError("LP produced a significantly negative flow")
    totals = np.empty(n_paths)
    totals[columns] = np.clip(slow_totals, 0.0, None)

    tol = 1e-7 * (1.0 + np.abs(link_target).max(initial=0.0))
    demand_err = abs(totals.sum() - bounds[-1])
    link_err = np.abs(paths.incidence @ totals - link_target).max(initial=0.0)
    if demand_err > tol or link_err > tol:
        raise SchemeError(
            f"LP solution violates flow constraints (demand {demand_err:.3e}, "
            f"link {link_err:.3e})"
        )

    filled = np.concatenate([[0.0], np.cumsum(totals[fastest])])
    riding = np.diff(np.interp(filled, bounds, mass))
    return SubscriberAssignment(
        subscriber_path_flows=totals,
        outsider_path_flows=(d_out / d_sub) * totals,
        weighted_cost=float(riding @ times[fastest]),
        rounds=rounds,
        cuts=len(cuts),
        master_shape=sol.lp.A.shape,
        cold_pivots=cold_pivots,
        dual_pivots=dual_pivots,
        demand_residual=float(demand_err),
        link_residual=float(link_err),
    )


def _master_lp(incidence, link_target, cut_A, cut_b, weight) -> StandardLp:
    """Equality form of the first cutting-plane master.

    Columns are the path totals, one surplus per cut, then ``y = -z >= 0``
    for each gap; rows are the links, then the cuts ``cut_A`` with their
    surpluses. Every cut is a tangent of the concave, non-negative ``G``,
    so at a master optimum ``z_k = max(cuts) <= -G(C_k) <= 0`` and ``z``
    needs no positive part. The surpluses come first: with ``z`` ahead of
    them the chains took 3-4x the pivots.
    """
    n_links, n_paths = incidence.shape
    n_cuts, width = cut_A.shape
    rows = np.arange(n_cuts)
    A = np.zeros((n_links + n_cuts, width))
    A[:n_links, :n_paths] = incidence
    A[n_links:] = cut_A
    A[n_links + rows, n_paths + rows] = -1.0
    b = np.concatenate([link_target, cut_b])
    c = np.concatenate([np.zeros(width - weight.size), -weight])
    return StandardLp(c=c, A=A, b=b)


def build_outcome(
    assign: SubscriberAssignment,
    dist: VotDistribution,
    times: np.ndarray,
) -> SchemeOutcome:
    """Order the ridden paths, cut the VOT distribution, and price each one.

    The outcome holds the paths with positive subscriber flow, slowest
    first with ties broken by index. A path no one rides gets no interval
    and no payment, so it takes no part in the others' payments.
    """
    times = np.asarray(times, dtype=float)
    flows = assign.subscriber_path_flows
    ridden = np.flatnonzero(flows > 0)
    if ridden.size == 0:
        raise SchemeError("scheme requires positive subscriber demand")

    order = ridden[np.lexsort((ridden, -times[ridden]))]
    sorted_times = times[order]
    rho = flows[order] / flows[order].sum()

    cum = np.minimum(np.cumsum(rho), 1.0)
    cum[-1] = 1.0
    partition = np.empty(len(rho) + 1)
    partition[0] = dist.support[0]
    partition[1:] = dist.inverse_cdf(cum)
    np.maximum.accumulate(partition, out=partition)

    payments = compute_payments(sorted_times, partition, rho)
    return SchemeOutcome(
        order=tuple(order.tolist()),
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

    Consecutive payments differ by the time drop between the two positions
    priced at the boundary VOT that separates them (the declaration-
    indifference condition), so the payments are a cumulative sum of those
    gap values; subtracting their share-weighted mean makes expected
    charges and subsidies cancel.
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

    gap_value = drops * partition[1:n] / MINUTES_PER_HOUR
    base = np.concatenate([[0.0], np.cumsum(gap_value)])
    return base - float(rho @ base)


def vot_ranks(outcome: SchemeOutcome, vots):
    """Slow-to-fast path position for each declared VOT (scalar or array).

    Intervals are open below and closed above; the support minimum maps to
    the slowest ridden path. The support is not checked.
    """
    return np.searchsorted(outcome.partition[1:-1], vots, side="left")


def check_declared_vot(support: tuple[float, float], declared_vot: float) -> None:
    """Reject a declaration outside the VOT support ``(lo, hi)``: the
    distribution's, which is also the outcome's."""
    lo, hi = support
    if not lo <= declared_vot <= hi:
        raise SchemeError(
            f"declared VOT {declared_vot:g} outside [{lo:g}, {hi:g}]; "
            "clamp it to the support or re-declare"
        )


def assign_subscriber(outcome: SchemeOutcome, declared_vot: float) -> Guidance:
    """Path and payment for one declared VOT: the scalar view of
    :func:`vot_ranks`, after :func:`check_declared_vot`."""
    check_declared_vot(outcome.support, declared_vot)
    rank = int(vot_ranks(outcome, declared_vot))
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
    ``size`` is given). One draw of size ``k`` equals ``k`` single draws from
    the same generator, so ``pathpay assign`` draws a whole roster's
    outsiders at once and its output matches per-user draws byte for byte.
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

    ranks = vot_ranks(outcome, beta)
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
    classes: VotClassTable
    assignment: SubscriberAssignment
    outcome: SchemeOutcome


def run_scheme(
    net: Network, dist: VotDistribution, M: int, tol: float = DEFAULT_TOL
) -> PipelineResult:
    """End-to-end run: enumerate paths, solve the system optimum, route
    subscribers, and build the guidance outcome. Guidance and payments need
    no user equilibrium; a caller that compares against the no-policy
    baseline solves it with :func:`solve_ue` on the result's ``paths``."""
    paths = enumerate_paths(net)
    so = solve_so(net, paths, tol=tol)
    classes = discretize(dist, net.subscriber_demand, M)
    assignment = solve_subscriber_lp(so, classes, net, paths)
    outcome = build_outcome(assignment, dist, so.path_times)
    return PipelineResult(
        paths=paths, so=so, classes=classes, assignment=assignment, outcome=outcome
    )
