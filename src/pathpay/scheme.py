"""Charge-and-subsidy path guidance built on top of a system-optimal flow.

The pipeline, given a converged system optimum and a subscriber VOT
distribution split into classes:

1. route subscribers by a VOT-weighted linear program that keeps each link's
   subscriber share proportional to the system-optimal link flow. Because
   the highest VOTs always take the fastest paths, the program is solved
   over path totals alone, by cutting planes on the concave VOT-mass
   curve and column generation over the paths, and its VOT-weighted cost
   is read off that curve;
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

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .equilibrium import DEFAULT_TOL, FlowSolution, solve_so
from .network import Network, PathSet, enumerate_paths
from .simplex import ENTER_TOL, StandardLp, solve_lp
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
    # how the master solve went; none of it reaches an output file
    # master solves; the first is in closed form when it holds the greedy
    # start, and over every path when that start misses the link target
    rounds: int
    cuts: int                          # cuts in the final master
    columns: int                       # paths in the final master
    # final master's (links + cuts, paths + cuts + runs), also when it is
    # the first one, which is solved without building its tableau
    master_shape: tuple[int, int]
    pivots: int                        # simplex pivots over every round
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

    @property
    def support(self) -> tuple[float, float]:
        """(lo, hi) in $/hour: the partition's ends, the VOT support."""
        return float(self.partition[0]), float(self.partition[-1])


class Guidance(NamedTuple):
    rank: int        # position in slow-to-fast order
    path: int        # original path index
    time_min: float
    payment: float


@dataclass(frozen=True, eq=False)
class CostReport:
    """Per-VOT trip costs (dollars) under three regimes, on a uniform grid
    ``beta`` ($/h); the fields in order are the columns of ``improvement.csv``.

    ``subscriber_cost`` is time cost plus payment on the assigned path,
    ``quitter_cost`` the expected time cost of taking guidance without
    joining, ``ue_cost`` the no-policy equilibrium time cost. Improvement
    columns are percentages relative to ``ue_cost`` (NaN where that is 0).
    """

    beta: np.ndarray
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
    ``incidence @ T = share * q_SO``, ``T >= 0``. The reported
    ``weighted_cost`` is ``sum_k t_k (G(C_k) - G(C_{k-1}))`` at the final
    totals, with ``t_k`` the k-th fastest time and ``C_0 = 0``.

    It is solved by column generation over the paths (Desrosiers and
    Luebbecke, "A Primer in Column Generation", 2005) and Kelley's cutting
    planes on ``-G``, the maximum of its pieces. The master holds some of
    the paths. A path outside it carries nothing, so the gaps between two
    consecutive master paths share one ``C`` and merge into a run whose
    weight ``W`` is their sum. The master maximises ``sum W y`` over the
    runs' ``y >= 0`` under the link rows and the cuts
    ``v_m C - y >= v_m D_{m-1} - G(D_{m-1})`` gathered so far: tangents of
    ``G``, so ``y <= G(C)``. The first master holds the greedy path
    decomposition of the link target, fastest first, so at most
    rank(incidence) paths; a run starts with the cut of the piece holding
    its ``C`` there. That first master needs no simplex: its paths are
    independent columns, so the link rows fix their totals at the greedy
    ones, each run's one cut holds with ``y`` its value at ``C`` and dual
    ``W``, and the link duals are the least-norm solution of
    ``a_p . pi = -sum_runs W v_m [p at or ahead of the run]`` over the
    master paths. Every later round solves the master cold by the simplex.
    Each round then adds the cut of the piece holding each run's ``C``
    where the solution breaks it by more than rounding, and every path of
    negative reduced cost. With
    ``g_k`` the slope of ``G`` at gap ``k`` (its run's cut duals
    ``sum_m mu_m v_m`` spread over the run by weight, and ``v_0`` ahead of
    the fastest master path, where ``C = 0``) and link duals ``pi``, that
    reduced cost is ``-pi . a_r - sum_{pos(r) <= k < last} w_k g_k`` for a
    path ahead of the slowest master path and
    ``-pi . a_r + (t_r - t_last) v_min`` for one behind it, where
    ``C = D``: one sort and one prefix sum price every path. With no cut
    and no path to add, the master's duals so extended are feasible for
    the LP over every path and every cut, which proves the totals
    optimal. A greedy start that misses the link target by more than the
    final flow check's tolerance starts the master with every path
    instead, solved by the simplex from round 1: each path the greedy start
    takes empties a link that no later one uses, so its totals are the only
    ones its paths can carry, and no master on them can meet the target.
    When that master is infeasible too, the link flows and the class
    demands are inconsistent, and the solve raises.

    Where the optimal totals are not unique, the result is the greedy one
    when the first master is final, else the basic optimum that Bland's
    rule reaches on the final master, so it depends on the greedy start
    and the paths priced in, not on every path. The
    master's columns are its paths slowest first, then one surplus per
    cut in the order the cuts were added, then ``y`` per run, fastest
    first; the surplus of each cut with a negative right-hand side starts
    basic in its row, and the link rows and the other cuts start with
    artificial variables. So the result is a deterministic function of
    the inputs.
    """
    d_sub = net.subscriber_demand
    if d_sub <= 0:
        raise SchemeError("scheme requires positive subscriber demand")
    d_out = net.outsider_demand
    n_links, n_paths = paths.incidence.shape
    M = classes.M
    share = d_sub / net.demand
    # flows are solved in units of about the subscriber demand, and VOTs in
    # units of about the highest class mean, so that the tolerances below
    # are relative to them; each unit is a power of two, so that scaling by
    # it is exact, and where no tolerance decides otherwise the totals are
    # bit for bit those of a solve in vehicles and $/h
    unit = math.ldexp(1.0, math.frexp(d_sub)[1] - 1)
    vot_unit = math.ldexp(1.0, math.frexp(classes.class_mean.max())[1] - 1)
    link_target = so.link_flows * share / unit
    scale = 1.0 + np.abs(link_target).max(initial=0.0)

    # G's pieces, highest class mean first: piece m covers cumulative demand
    # [bounds[m], bounds[m+1]] with slope vot[m]; its cut reads
    # vot[m] * C - y >= rhs[m]
    by_vot = np.lexsort((np.arange(M), -classes.class_mean))
    vot = classes.class_mean[by_vot] / vot_unit
    demand = classes.class_demand[by_vot] / unit
    bounds = np.concatenate([[0.0], np.cumsum(demand)])
    mass = np.concatenate([[0.0], np.cumsum(vot * demand)])  # G at the bounds
    rhs = vot * bounds[:-1] - mass[:-1]
    cut_tol = 1e-9 * (1.0 + mass[-1])

    def piece(C):
        return np.minimum(np.searchsorted(bounds[1:], C), M - 1)

    # from here on a path is named by its position fastest first
    fastest = np.lexsort((np.arange(n_paths), so.path_times))
    times = so.path_times[fastest]
    gaps = np.diff(times)
    incidence = paths.incidence[:, fastest]

    tol = 1e-7 * scale
    totals = _greedy_decomposition(incidence, link_target, _FLOW_TOL * scale)
    greedy = np.abs(incidence @ totals - link_target).max(initial=0.0) <= tol
    master = totals > 0 if greedy else np.ones(n_paths, dtype=bool)
    C = np.cumsum(totals)

    cuts: dict[tuple[int, int], None] = {}  # (run's first gap, piece), ordered
    rounds = pivots = 0
    while True:
        pos = np.flatnonzero(master)
        # master columns run slowest first: on grids 5-7 Bland's rule
        # took 5-20% fewer pivots than fastest first
        cols = pos[::-1]
        weight = times[pos[1:]] - times[pos[:-1]]
        runs, W = pos[:-1][weight > 0], weight[weight > 0]
        # a run split by a new path keeps its cuts on its first part; a
        # run with none yet starts from the piece holding its C
        starts = set(runs.tolist())
        cuts = {cut: None for cut in cuts if cut[0] in starts}
        # a set difference, not np.isin: on wide runs np.isin sorts through
        # np.unique, which imports numpy.ma into a short run
        bare = np.array(sorted(starts.difference(s for s, _ in cuts)), dtype=int)
        cuts.update(dict.fromkeys(zip(bare.tolist(), piece(C[bare]).tolist())))
        cs, cm = np.array(list(cuts), dtype=int).reshape(-1, 2).T
        cj = np.searchsorted(runs, cs)
        P, K = pos.size, cs.size
        master_shape = (n_links + K, P + K + runs.size)
        cut_rows = vot[cm, None] * (cols[None, :] <= cs[:, None])
        b = np.concatenate([link_target, rhs[cm]])
        rounds += 1
        # round 1 in closed form, when the master holds the greedy start
        if rounds == 1 and greedy:
            # the greedy paths are independent columns, so the link rows fix
            # the totals; each run has one cut, in run order, which is tight
            # and whose dual is the run's W
            x = totals[cols]
            y = vot[cm] * C[runs] - rhs[cm]
            mu = W
            pi = np.linalg.lstsq(incidence[:, cols].T, -(mu @ cut_rows), rcond=None)[0]
        else:
            A = np.zeros(master_shape)
            A[:n_links, :P] = incidence[:, cols]
            A[n_links:, :P] = cut_rows
            A[n_links + np.arange(K), P + np.arange(K)] = -1.0
            A[n_links + np.arange(K), P + K + cj] = -1.0
            sol = solve_lp(StandardLp(c=np.concatenate([np.zeros(P + K), -W]), A=A, b=b))
            pivots += sol.iterations
            if not sol.optimal:
                raise SchemeError(
                    f"subscriber routing LP is {sol.status}; system-optimal "
                    "link flows and class demands are inconsistent"
                )
            x, y = sol.x[:P], sol.x[P + K:]
            pi, mu = sol.duals[:n_links], sol.duals[n_links:]

        totals = np.zeros(n_paths)
        totals[cols] = x
        C = np.cumsum(totals)
        held = piece(C[runs])
        slack = vot[held] * C[runs] - y - rhs[held]
        broken = [
            cut
            for cut, met in zip(zip(runs.tolist(), held.tolist()), slack.tolist())
            if met < -cut_tol and cut not in cuts
        ]
        # each gap's slope of G: v_0 ahead of the fastest master path, its
        # run's cut duals spread by weight, the lowest VOT past the slowest
        between = np.zeros(P - 1)
        between[weight > 0] = np.bincount(cj, mu * vot[cm], runs.size) / W
        slope = np.concatenate([[vot[0]], between, [vot[-1]]])[
            np.searchsorted(pos, np.arange(n_paths - 1), side="right")
        ]
        # past a huge gap the reduced cost overflows to +inf: never added
        with np.errstate(over="ignore", invalid="ignore"):
            ahead = np.concatenate([[0.0], np.cumsum(gaps * slope)])
            reduced = -(pi @ incidence) - ahead[pos[-1]] + ahead
        price_tol = ENTER_TOL * (1.0 + vot[0] * times[pos[-1]])
        priced = ~master & (reduced < -price_tol)
        if not (broken or priced.any()):
            break
        cuts.update(dict.fromkeys(broken))
        master |= priced

    if totals.min(initial=0.0) < -_FLOW_TOL:
        raise SchemeError("LP produced a significantly negative flow")
    totals = np.clip(totals, 0.0, None)

    demand_err = abs(totals.sum() - bounds[-1])
    link_err = np.abs(incidence @ totals - link_target).max(initial=0.0)
    if demand_err > tol or link_err > tol:
        raise SchemeError(
            f"LP solution violates flow constraints (demand {demand_err * unit:.3e}, "
            f"link {link_err * unit:.3e})"
        )

    riding = np.diff(np.interp(np.concatenate([[0.0], np.cumsum(totals)]), bounds, mass))
    path_totals = np.empty(n_paths)
    path_totals[fastest] = totals * unit
    return SubscriberAssignment(
        subscriber_path_flows=path_totals,
        outsider_path_flows=(d_out / d_sub) * path_totals,
        weighted_cost=float(riding @ times) * unit * vot_unit,
        rounds=rounds,
        cuts=len(cuts),
        columns=int(master.sum()),
        master_shape=master_shape,
        pivots=pivots,
        demand_residual=float(demand_err) * unit,
        link_residual=float(link_err) * unit,
    )


def _greedy_decomposition(incidence, target, floor: float) -> np.ndarray:
    """Path flows that take ``target`` link by link, greedily.

    Each column of ``incidence`` in turn carries the smallest residual
    target on its links, when that exceeds ``floor``, and the residual
    drops by it along the column. A column taken leaves one of its links
    at zero, which no later column taken uses, so the columns taken are
    linearly independent: at most rank(incidence) of them.
    """
    path, link = np.nonzero(np.asarray(incidence).T)
    first = np.flatnonzero(np.diff(path, prepend=-1))  # each column's first link
    ends = [*first.tolist(), path.size]
    link = link.tolist()
    flows = np.zeros(incidence.shape[1])
    residual = np.asarray(target, dtype=float).tolist()
    for p, lo, hi in zip(path[first].tolist(), ends, ends[1:]):
        links = link[lo:hi]
        flow = min(residual[a] for a in links)
        if flow > floor:
            flows[p] = flow
            for a in links:
                residual[a] -= flow
    return flows


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


def trip_costs(outcome: SchemeOutcome, beta, ranks):
    """Subscriber and quitter trip costs ($) at the VOTs ``beta`` ($/h):
    time cost plus payment on the path of slow-to-fast rank ``ranks``, and
    the expected time cost over the path shares."""
    hours = beta / MINUTES_PER_HOUR
    sub_cost = outcome.sorted_times[ranks] * hours + outcome.payments[ranks]
    return sub_cost, float(outcome.rho @ outcome.sorted_times) * hours


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

    sub_cost, quit_cost = trip_costs(outcome, beta, vot_ranks(outcome, beta))
    ue_cost = ue.ue_time * (beta / MINUTES_PER_HOUR)

    with np.errstate(divide="ignore", invalid="ignore"):
        imp_sub = np.where(ue_cost > 0, (ue_cost - sub_cost) / ue_cost * 100.0, np.nan)
        imp_out = np.where(ue_cost > 0, (ue_cost - quit_cost) / ue_cost * 100.0, np.nan)

    return CostReport(
        beta=beta,
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
