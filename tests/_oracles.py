"""Reference implementations the tests compare production code against.

Each one solves a problem the package also solves, by a slower and more
direct route: the class-by-path subscriber LP in full, the sort-and-fill
coupling as a loop, an exhaustive lattice search, and the O(n^2) payment
sums.
"""

from __future__ import annotations

import numpy as np

from pathpay.scheme import MINUTES_PER_HOUR
from pathpay.simplex import StandardLp


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
