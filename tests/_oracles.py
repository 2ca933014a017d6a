"""Reference implementations the tests compare production code against.

Each one solves a problem the package also solves, by a slower and more
direct route: the class-by-path subscriber LP in full, the path-total
cutting-plane master over every enumerated path, its first round over the
greedy paths by the simplex, the sort-and-fill
coupling as a loop, an exhaustive lattice search, the O(n^2) payment sums,
the strategy-proofness search over every (true, declared) lattice pair,
the ranks' lower ends included, and over the partition points one at a
time, the simplex's artificial drive-out as a scan over basis membership,
the VOT quantile and class table as per-point and per-class loops,
Frank-Wolfe with a regula-falsi line search, path enumeration by a
recursive search without pruning, ``scheme.json``/``scheme.txt`` from
one dict per path through ``json.dumps``, and ``assignments.csv`` from one
library call per user through ``csv.writer``.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

from pathpay.scheme import (
    MINUTES_PER_HOUR, _greedy_decomposition, assign_outsider, assign_subscriber, vot_ranks,
)
from pathpay.simplex import ENTER_TOL, PIVOT_TOL, StandardLp, _pivot, solve_lp
from pathpay.vot import VotError


class OracleError(ValueError):
    """Brute-force oracle cannot run on the given inputs."""


def class_path_lp(so, classes, net, paths) -> StandardLp:
    """The subscriber routing LP over classes x paths.

    Variable ``x[m * n_paths + r]`` is the flow of class m on path r. Rows:
    per link, subscriber flow equals the SO link flow times the subscriber
    share; per class, path flows add up to the class demand. The cost is
    class mean VOT times path time.
    """
    incidence = paths.incidence
    n_links, n_paths = incidence.shape
    M = classes.M
    share = net.subscriber_demand / net.demand
    A = np.zeros((n_links + M, M * n_paths))
    b = np.zeros(n_links + M)
    for a in range(n_links):
        A[a] = np.tile(incidence[a], M)
        b[a] = so.link_flows[a] * share
    for m in range(M):
        A[n_links + m, m * n_paths : (m + 1) * n_paths] = 1.0
        b[n_links + m] = classes.class_demand[m]
    c = (classes.class_mean[:, None] * so.path_times[None, :]).ravel()
    return StandardLp(c=c, A=A, b=b)


def full_path_master(so, classes, net, paths) -> float:
    """Minimum VOT-weighted time of the subscriber routing LP by Kelley's
    cutting planes on a master over every enumerated path.

    With paths sorted fastest first by ``(time, index)``, the master
    minimises ``-sum_k w_k y_k`` over the path totals and one ``y_k >= 0``
    per positive time gap ``w_k``, under the link rows and the cuts
    ``v_m C_k - y_k >= v_m D_{m-1} - G(D_{m-1})``. It starts from the piece
    of ``G`` holding each ``C_k`` at the SO path split, adds the piece
    holding each new ``C_k`` and re-solves from scratch until no piece is
    new. Returns ``sum_k t_k (G(C_k) - G(C_{k-1}))`` at the final totals.
    """
    n_links, n_paths = paths.incidence.shape
    M = classes.M
    share = net.subscriber_demand / net.demand
    link_target = so.link_flows * share
    by_vot = np.lexsort((np.arange(M), -classes.class_mean))
    vot = classes.class_mean[by_vot]
    bounds = np.concatenate([[0.0], np.cumsum(classes.class_demand[by_vot])])
    mass = np.concatenate([[0.0], np.cumsum(vot * np.diff(bounds))])
    rhs = vot * bounds[:-1] - mass[:-1]

    fastest = np.lexsort((np.arange(n_paths), so.path_times))
    times = so.path_times[fastest]
    gaps = np.diff(times)
    ks = np.flatnonzero(gaps > 0)
    incidence = paths.incidence[:, fastest]
    # prefix[j] @ T is the total on the ks[j] + 1 fastest paths
    prefix = (np.arange(n_paths)[None, :] <= ks[:, None]).astype(float)

    def pieces(totals):
        held = np.minimum(np.searchsorted(bounds[1:], prefix @ totals), M - 1)
        return list(enumerate(held.tolist()))

    cuts = dict.fromkeys(pieces(share * so.path_flows[fastest]))
    while True:
        j, m = np.array(list(cuts), dtype=int).reshape(-1, 2).T
        K = j.size
        A = np.zeros((n_links + K, n_paths + K + ks.size))
        A[:n_links, :n_paths] = incidence
        A[n_links:, :n_paths] = vot[m, None] * prefix[j]
        A[n_links + np.arange(K), n_paths + np.arange(K)] = -1.0
        A[n_links + np.arange(K), n_paths + K + j] = -1.0
        c = np.concatenate([np.zeros(n_paths + K), -gaps[ks]])
        sol = solve_lp(StandardLp(c=c, A=A, b=np.concatenate([link_target, rhs[m]])))
        if not sol.optimal:
            raise OracleError(f"full-path master is {sol.status}")
        totals = np.clip(sol.x[:n_paths], 0.0, None)
        new = [cut for cut in pieces(totals) if cut not in cuts]
        if not new:
            break
        cuts.update(dict.fromkeys(new))
    filled = np.concatenate([[0.0], np.cumsum(totals)])
    return float(np.diff(np.interp(filled, bounds, mass)) @ times)


def first_master_lp(so, classes, net, paths):
    """Round 1 of ``scheme.solve_subscriber_lp`` by the simplex: the master
    over the greedy decomposition's paths, one cut per run (the piece of
    ``G`` holding its ``C``), assembled as a ``StandardLp`` and solved with
    ``solve_lp``, then priced from the simplex's duals.

    Returns ``(totals, priced)``: the master's per-path subscriber totals in
    vehicles, by original path index, and the sorted original indices of
    the paths outside the master whose reduced cost is negative.
    """
    n_links, n_paths = paths.incidence.shape
    M = classes.M
    d_sub = net.subscriber_demand
    unit = math.ldexp(1.0, math.frexp(d_sub)[1] - 1)
    link_target = so.link_flows * (d_sub / net.demand) / unit
    scale = 1.0 + np.abs(link_target).max(initial=0.0)
    by_vot = np.lexsort((np.arange(M), -classes.class_mean))
    vot = classes.class_mean[by_vot]
    demand = classes.class_demand[by_vot] / unit
    bounds = np.concatenate([[0.0], np.cumsum(demand)])
    mass = np.concatenate([[0.0], np.cumsum(vot * demand)])
    rhs = vot * bounds[:-1] - mass[:-1]

    fastest = np.lexsort((np.arange(n_paths), so.path_times))
    times = so.path_times[fastest]
    incidence = paths.incidence[:, fastest]
    greedy = _greedy_decomposition(incidence, link_target, 1e-9 * scale)
    pos = np.flatnonzero(greedy > 0)
    cols = pos[::-1]  # slowest first
    weight = np.diff(times[pos])
    runs, W = pos[:-1][weight > 0], weight[weight > 0]
    held = np.minimum(np.searchsorted(bounds[1:], np.cumsum(greedy)[runs]), M - 1)
    P, K = pos.size, runs.size
    A = np.zeros((n_links + K, P + 2 * K))
    A[:n_links, :P] = incidence[:, cols]
    A[n_links:, :P] = vot[held, None] * (cols[None, :] <= runs[:, None])
    A[n_links + np.arange(K), P + np.arange(K)] = -1.0
    A[n_links + np.arange(K), P + K + np.arange(K)] = -1.0
    sol = solve_lp(StandardLp(
        c=np.concatenate([np.zeros(P + K), -W]),
        A=A,
        b=np.concatenate([link_target, rhs[held]]),
    ))
    if not sol.optimal:
        raise OracleError(f"first master is {sol.status}")
    totals = np.zeros(n_paths)
    totals[cols] = sol.x[:P]

    # a gap's slope of G: v_0 ahead of the fastest master path, its run's
    # cut dual times the cut's VOT over the run's weight inside, the lowest
    # VOT past the slowest; a path's reduced cost sums them over the gaps
    # from it to the slowest master path
    pi, mu = sol.duals[:n_links], sol.duals[n_links:]
    slope = np.full(n_paths - 1, vot[-1])
    slope[: pos[0]] = vot[0]
    slope[pos[0] : pos[-1]] = 0.0  # between master paths of equal time
    for k, start in enumerate(runs.tolist()):
        stop = pos[np.searchsorted(pos, start) + 1]
        slope[start:stop] = mu[k] * vot[held[k]] / W[k]
    with np.errstate(over="ignore", invalid="ignore"):
        ahead = np.concatenate([[0.0], np.cumsum(np.diff(times) * slope)])
        reduced = -(pi @ incidence) - ahead[pos[-1]] + ahead
    outside = np.ones(n_paths, dtype=bool)
    outside[pos] = False
    priced = outside & (reduced < -ENTER_TOL * (1.0 + vot[0] * times[pos[-1]]))
    path_totals = np.empty(n_paths)
    path_totals[fastest] = totals * unit
    return path_totals, sorted(fastest[priced].tolist())


def loop_payments(sorted_times, partition, rho) -> np.ndarray:
    """Payments as the O(n^2) sums over slower and faster positions.

    For position i the charge aggregates, over every slower position h, the
    time saved moving from h to i priced at the partition VOT of each gap
    crossed; the subsidy mirrors this over faster positions.
    """
    sorted_times = np.asarray(sorted_times, dtype=float)
    partition = np.asarray(partition, dtype=float)
    rho = np.asarray(rho, dtype=float)
    n = sorted_times.size
    gap_value = (
        (sorted_times[:-1] - sorted_times[1:]) * partition[1:n] / MINUTES_PER_HOUR
    )
    payments = np.zeros(n)
    for i in range(n):
        for h in range(i):
            payments[i] += rho[h] * gap_value[h:i].sum()
        for h in range(i + 1, n):
            payments[i] -= rho[h] * gap_value[i:h].sum()
    return payments


def greedy_weighted_cost(classes, subscriber_path_totals, times) -> float:
    """Objective of the sort-and-fill assignment: given per-path subscriber
    totals, fill the fastest paths with the highest-VOT classes.

    This is the optimal class-to-path coupling for fixed totals, so it must
    match the LP objective when fed the LP's own totals.
    """
    totals = np.asarray(subscriber_path_totals, dtype=float)
    times = np.asarray(times, dtype=float)
    path_order = sorted(range(times.size), key=lambda r: (times[r], r))
    remaining = totals[path_order].copy()
    cost = 0.0
    pos = 0
    for m in range(classes.M - 1, -1, -1):
        demand = float(classes.class_demand[m])
        while demand > 1e-12:
            while pos < remaining.size and remaining[pos] <= 1e-12:
                pos += 1
            if pos >= remaining.size:
                if demand > 1e-7 * (1.0 + totals.sum()):
                    raise OracleError("path totals cannot absorb class demands")
                break
            take = min(demand, remaining[pos])
            cost += classes.class_mean[m] * times[path_order[pos]] * take
            remaining[pos] -= take
            demand -= take
    return cost


def brute_force_lp_oracle(classes, subscriber_path_totals, times, step) -> float:
    """Exhaustive lattice minimum of the VOT-weighted routing cost.

    Enumerates every class-by-path flow matrix on a lattice of resolution
    ``step`` whose row sums hit the class demands and column sums hit the
    per-path totals, and returns the smallest weighted cost. Feasibility on
    the lattice requires every demand and total to be a multiple of
    ``step``. Exponential in the instance size, hence the small-instance
    guard.
    """
    totals = np.asarray(subscriber_path_totals, dtype=float)
    times = np.asarray(times, dtype=float)
    M, R = classes.M, totals.size
    if M > 5 or R > 4:
        raise OracleError("oracle is limited to M <= 5 and at most 4 paths")
    if step <= 0:
        raise OracleError("step must be positive")

    def to_units(values):
        units = np.rint(values / step).astype(int)
        if np.abs(units * step - values).max(initial=0.0) > 1e-9 * step * max(
            1.0, np.abs(values).max(initial=0.0)
        ):
            raise OracleError("lattice infeasible at given step")
        return units

    row_units = to_units(classes.class_demand)
    col_units = to_units(totals)
    if row_units.sum() != col_units.sum():
        raise OracleError("lattice infeasible at given step")

    weights = classes.class_mean[:, None] * times[None, :] * step
    best = np.inf

    def compositions(total: int, caps: list[int]):
        if len(caps) == 1:
            if total <= caps[0]:
                yield (total,)
            return
        for first in range(min(total, caps[0]) + 1):
            for rest in compositions(total - first, caps[1:]):
                yield (first, *rest)

    def recurse(m: int, caps: list[int], cost: float):
        nonlocal best
        if cost >= best:
            return
        if m == M:
            if all(c == 0 for c in caps):
                best = cost
            return
        if sum(caps) < row_units[m:].sum():
            return
        for combo in compositions(int(row_units[m]), caps):
            extra = sum(weights[m, r] * combo[r] for r in range(R))
            recurse(
                m + 1,
                [caps[r] - combo[r] for r in range(R)],
                cost + extra,
            )

    recurse(0, [int(u) for u in col_units], 0.0)
    if not np.isfinite(best):
        raise OracleError("lattice infeasible at given step")
    return float(best)


def lattice_strategy_proof(outcome, grid, tol):
    """(worst margin, true VOT, declared VOT) of the misreport search over
    the full rows x lattice cost matrix; the pair is the first in
    row-major order whose margin is within ``tol`` of the worst.

    The rows are the lattice VOTs in their own ranks, each inner partition
    point in ``[lo, hi)`` followed by itself in the rank above it, the last
    rank whose interval's lower end is not above the point."""
    lo, hi = outcome.support
    lattice = np.unique(np.concatenate([np.linspace(lo, hi, grid), outcome.partition]))
    ranks = vot_ranks(outcome, lattice)
    inner = outcome.partition[1:-1].tolist()
    true_vot, true_rank = [], []
    for vot, rank in zip(lattice.tolist(), ranks.tolist()):
        true_vot.append(vot)
        true_rank.append(rank)
        if vot in inner and lo <= vot < hi:
            true_vot.append(vot)
            true_rank.append(sum(point <= vot for point in inner))
    times = outcome.sorted_times
    pays = outcome.payments
    hours = np.array(true_vot) / MINUTES_PER_HOUR
    # the time and payment differences apart, as the check takes them
    margins = hours[:, None] * (times[ranks][None, :] - times[true_rank][:, None]) + (
        pays[ranks][None, :] - pays[true_rank][:, None]
    )
    worst = float(margins.min())
    i, j = divmod(int(np.flatnonzero(margins <= worst + tol)[0]), margins.shape[1])
    return worst, true_vot[i], float(lattice[j])


def loop_boundary_worst(outcome) -> float:
    """Largest absolute margin over the indifference pairs, one partition
    point at a time: a subscriber at the open lower end of the rank above
    an inner partition point in ``[lo, hi)`` declares into the first rank
    whose interval's upper end is not below the point."""
    lo, hi = outcome.support
    uppers = outcome.partition[1:].tolist()
    boundary_worst = 0.0
    for point in uppers[:-1]:
        if not lo <= point < hi:
            continue
        declared = next(i for i, upper in enumerate(uppers) if point <= upper)
        above = sum(upper <= point for upper in uppers[:-1])
        lie = point / MINUTES_PER_HOUR * (
            outcome.sorted_times[declared] - outcome.sorted_times[above]
        ) + (outcome.payments[declared] - outcome.payments[above])
        boundary_worst = max(boundary_worst, abs(lie))
    return boundary_worst


def loop_drive_out_artificials(T, basis, n: int) -> list[int]:
    """``simplex._drive_out_artificials`` with the nonbasic test as list
    membership in ``basis``: each artificial row pivots on the lowest
    structural column not in the basis with an entry above PIVOT_TOL, or
    is dropped when there is none."""
    keep = []
    dummy_obj = np.zeros(T.shape[1])
    for i in range(T.shape[0]):
        if basis[i] < n:
            keep.append(i)
            continue
        swap = -1
        for j in range(n):
            if j not in basis and abs(T[i, j]) > PIVOT_TOL:
                swap = j
                break
        if swap >= 0:
            _pivot(T, dummy_obj, basis, i, swap)
            keep.append(i)
    return keep


def scalar_inverse_cdf(dist, u: float) -> float:
    """Quantile of one mass by the per-kind formulas: linear interpolation of
    the cdf for an empirical distribution, the root of the segment's
    quadratic cdf otherwise.

    A mass at or below the cdf of the first knot (a sample atom at the
    support minimum) maps to the support minimum: the smallest b with
    cdf(b) >= u does not exist there, and the support minimum is its infimum.
    """
    if not 0.0 <= u <= 1.0:
        raise VotError("inverse_cdf argument must lie in [0, 1]")
    lo, hi = dist.support
    if u == 0.0:
        return lo
    if u == 1.0:
        return hi
    k = int(np.searchsorted(dist.cum, u, side="left")) - 1
    if k < 0:
        return lo
    x0 = dist.knots[k]
    w = dist.knots[k + 1] - x0
    delta = u - dist.cum[k]
    if dist.kind == "empirical":
        rise = dist.cum[k + 1] - dist.cum[k]
        return float(x0 + delta / rise * w)
    p0 = dist.density[k]
    slope = (dist.density[k + 1] - p0) / w
    disc = p0 * p0 + 2.0 * slope * delta
    root = np.sqrt(max(disc, 0.0))
    denom = p0 + root
    dx = w if denom <= 0 else 2.0 * delta / denom
    return float(x0 + min(dx, w))


def loop_mass_and_moment(dist, a: float, b: float) -> tuple[float, float]:
    """(integral of pdf, integral of x*pdf) over [a, b], one knot segment at
    a time."""
    mass = 0.0
    moment = 0.0
    for k in range(len(dist.knots) - 1):
        x0, x1 = dist.knots[k], dist.knots[k + 1]
        lo = max(a, x0)
        hi = min(b, x1)
        if hi <= lo:
            continue
        p0 = dist.density[k]
        if dist.kind == "empirical":
            slope = 0.0
        else:
            slope = (dist.density[k + 1] - p0) / (x1 - x0)
        ta, tb = lo - x0, hi - x0
        mass += p0 * (tb - ta) + 0.5 * slope * (tb * tb - ta * ta)
        moment += (
            x0 * p0 * (tb - ta)
            + (p0 + x0 * slope) * (tb * tb - ta * ta) / 2.0
            + slope * (tb**3 - ta**3) / 3.0
        )
    return mass, moment


def loop_discretize(dist, subscriber_demand: float, M: int, samples=None):
    """(class demands, class means) of M equal-width classes, one class at a
    time: counts and means of ``samples``, the values an empirical
    distribution was built from, ``loop_mass_and_moment`` for the other
    kinds, the midpoint for an empty class. Class m holds the samples in
    ``[boundaries[m], boundaries[m + 1])``, the last class also those on
    the support maximum."""
    lo, hi = dist.support
    boundaries = lo + (hi - lo) * np.arange(M + 1) / M
    boundaries[-1] = hi
    masses = np.empty(M)
    means = np.empty(M)
    if dist.kind == "empirical":
        samples = np.asarray(samples, dtype=float)
        for m in range(M):
            top = samples <= hi if m == M - 1 else samples < boundaries[m + 1]
            members = samples[(samples >= boundaries[m]) & top]
            masses[m] = members.size / samples.size
            midpoint = 0.5 * (boundaries[m] + boundaries[m + 1])
            means[m] = members.mean() if members.size else midpoint
    else:
        for m in range(M):
            a, b = boundaries[m], boundaries[m + 1]
            mass, moment = loop_mass_and_moment(dist, a, b)
            masses[m] = mass
            means[m] = moment / mass if mass >= 1e-12 else 0.5 * (a + b)
    return subscriber_demand * np.clip(masses, 0.0, None), means


def regula_falsi_step(gradient, q, delta, slope0, step_max) -> float:
    """Exact line search by regula falsi on the directional derivative.

    Returns the step in ``[0, step_max]`` where
    ``slope(a) = delta @ gradient(q + a*delta)`` changes sign; ``slope0`` is
    its value at 0. The root stays bracketed; the Anderson-Bjorck
    modification scales down the slope kept at the end that stays put. The
    search stops when the bracket is ``2**-50 * step_max`` wide, when the
    slope is exactly zero, or when the interpolated root rounds onto an end
    of the bracket.
    """
    if step_max <= 0 or slope0 >= 0:
        return 0.0

    def slope(a):
        return float(delta @ gradient(np.maximum(q + a * delta, 0.0)))

    lo, hi = 0.0, step_max
    s_lo, s_hi = slope0, slope(step_max)
    if s_hi <= 0:
        return step_max
    while hi - lo > 2.0**-50 * step_max:
        a = lo - s_lo * (hi - lo) / (s_hi - s_lo)
        if not lo < a < hi:  # the root is within rounding of an end
            return min(max(a, lo), hi)
        s = slope(a)
        if s == 0:
            return a
        if s > 0:
            m = 1.0 - s / s_hi
            s_lo *= m if m > 0 else 0.5
            hi, s_hi = a, s
        else:
            m = 1.0 - s / s_lo
            s_hi *= m if m > 0 else 0.5
            lo, s_lo = a, s
    return 0.5 * (lo + hi)


def frank_wolfe_oracle(net, paths, regime, tol=1e-8, max_iter=100_000):
    """Link flows of the ``regime`` ("SO" or "UE") optimum by Frank-Wolfe
    with away steps, evaluating the objective and its gradient by separate
    ``Network.link_objective`` passes and stepping by
    :func:`regula_falsi_step`."""

    def objective(q):
        return net.link_objective(q, regime)[0]

    def gradient(q):
        return net.link_objective(q, regime)[1]

    d = net.demand
    incidence = paths.incidence
    f = np.zeros(len(paths))
    f[int(np.argmin(incidence.T @ gradient(np.zeros(len(net.links)))))] = d
    for _ in range(max_iter):
        q = incidence @ f
        costs = incidence.T @ gradient(q)
        cheapest = int(np.argmin(costs))
        carried = float(costs @ f)
        fw_gap = carried - d * costs[cheapest]
        if fw_gap <= tol * max(abs(objective(q)), np.finfo(float).tiny):
            return q
        active = np.flatnonzero(f > 0)
        worst = int(active[np.argmax(costs[active])])
        away = fw_gap < d * costs[worst] - carried
        if not away:
            direction = -f.copy()
            direction[cheapest] += d
            step_max = 1.0
        else:
            direction = f.copy()
            direction[worst] -= d
            step_max = f[worst] / (d - f[worst]) if d > f[worst] else 0.0
        step = regula_falsi_step(
            gradient, q, incidence @ direction, float(costs @ direction), step_max
        )
        f = np.maximum(f + step * direction, 0.0)
        if away and step == step_max > 0:
            f[worst] = 0.0
    raise OracleError(f"no convergence in {max_iter} iterations")


def recursive_paths(net) -> tuple[tuple[int, ...], ...]:
    """Every simple origin-destination path as a link-id sequence, by a
    recursive depth-first search that tries each node's outgoing links in id
    order and enters every unvisited node, dead ends included."""
    by_tail: dict[str, list] = {}
    for ln in sorted(net.links, key=lambda ln: ln.id):
        by_tail.setdefault(ln.tail, []).append(ln)
    found: list[tuple[int, ...]] = []
    trail: list[int] = []
    visited = {net.origin}

    def walk(node: str) -> None:
        if node == net.destination:
            found.append(tuple(trail))
            return
        for ln in by_tail.get(node, ()):
            if ln.head in visited:
                continue
            visited.add(ln.head)
            trail.append(ln.id)
            walk(ln.head)
            trail.pop()
            visited.remove(ln.head)

    walk(net.origin)
    return tuple(found)


def dict_scheme_files(net, result, ue, verification) -> tuple[str, str]:
    """The text of ``scheme.txt`` and ``scheme.json`` built from one dict per
    path, in enumeration order (a path not in the outcome is unused), the
    JSON through ``json.dumps(indent=2, sort_keys=True, allow_nan=False)``."""
    outcome, paths = result.outcome, result.paths
    labels = paths.labels()
    rank_of = {path: rank for rank, path in enumerate(outcome.order)}
    entries = []
    for r in range(len(paths)):
        rank = rank_of.get(r)
        entries.append(
            {
                "path": list(paths.paths[r]),
                "label": labels[r],
                "time_min": float(result.so.path_times[r]),
                "subscribers": float(result.assignment.subscriber_path_flows[r]),
                "outsiders": float(result.assignment.outsider_path_flows[r]),
                "share": 0.0 if rank is None else float(outcome.rho[rank]),
                "vot_low": None if rank is None else float(outcome.partition[rank]),
                "vot_high": None if rank is None else float(outcome.partition[rank + 1]),
                "payment_usd": None if rank is None else float(outcome.payments[rank]),
            }
        )

    width = max(12, max(len(s) for s in labels) + 2)

    def row(label, cells):
        return label.ljust(16) + "".join(str(c).rjust(width) for c in cells)

    def vot_cell(e):
        if e["vot_low"] is None:
            return "-"
        return f"({e['vot_low']:.1f},{e['vot_high']:.1f}]"

    def pay_cell(e):
        return "-" if e["payment_usd"] is None else f"{e['payment_usd']:.2f}"

    lines = [
        row("Path", labels),
        row("Time (min)", [f"{e['time_min']:.1f}" for e in entries]),
        row("Subscribers", [f"{e['subscribers']:.1f}" for e in entries]),
        row("Outsiders", [f"{e['outsiders']:.1f}" for e in entries]),
        row("VOT ($/h)", [vot_cell(e) for e in entries]),
        row("Payment ($)", [pay_cell(e) for e in entries]),
        "",
        f"Verification: {'PASS' if verification.passed else 'FAIL'}"
        f" (worst misreport margin {verification.strategy_proof.worst_margin_usd:.3e} $,"
        f" revenue residual {verification.revenue_neutral.residual_usd:.3e} $)",
    ]
    payload = {
        "paths": entries,
        "subscriber_demand": net.subscriber_demand,
        "outsider_demand": net.outsider_demand,
        "weighted_cost": result.assignment.weighted_cost,
        "so_relative_gap": result.so.relative_gap,
        "ue_relative_gap": ue.relative_gap,
        "vot_classes": result.classes.M,
    }
    return (
        "\n".join(lines) + "\n",
        json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n",
    )


def per_user_assignments(outcome, labels, users, seed: int) -> str:
    """The text of ``assignments.csv`` for ``users``, (id, role, declared
    VOT) triples in roster order, written by ``csv.writer`` a row at a time:
    one ``assign_subscriber`` call per subscriber and one single
    ``assign_outsider`` draw per outsider from ``default_rng(seed)``."""
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(["user_id", "role", "path", "time_min", "payment_usd"])
    gen = np.random.default_rng(seed)
    for user, role, vot in users:
        if role == "subscriber":
            g = assign_subscriber(outcome, vot)
            writer.writerow([user, role, labels[g.path], f"{g.time_min:.1f}", f"{g.payment:.2f}"])
        else:
            path = assign_outsider(outcome, gen)
            rank = outcome.order.index(path)
            writer.writerow([user, "outsider", labels[path],
                             f"{outcome.sorted_times[rank]:.1f}", ""])
    return text.getvalue()
