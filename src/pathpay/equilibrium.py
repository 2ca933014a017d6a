"""System-optimal and user-equilibrium assignment over enumerated paths.

Both regimes minimize a convex separable objective over the path-flow
simplex: total system time ``sum q_a t_a(q_a)`` for the system optimum, the
Beckmann potential ``sum integral_0^q_a t_a`` for the user equilibrium. The
solver is Frank-Wolfe with away steps: the toward-vertex is the cheapest
path under the objective's link gradient (all-or-nothing loading), the away
vertex is the costliest path currently carrying flow, and the step size
comes from an exact line search. Away steps restore linear convergence when
the optimum sits on a face of the simplex, where classic Frank-Wolfe
zigzags sublinearly; that argument needs the line search to be exact.

The line search works in link space: a path direction moves the link flows
along ``delta = incidence @ direction``, so the directional derivative at
step ``a`` is ``delta @ gradient(q + a*delta)``, one vectorized cost
evaluation and no path-space product. Its root is bracketed in the feasible
step interval and found by regula falsi with the Anderson-Bjorck
modification, whose first step is already exact when the costs are linear.

Everything is deterministic: ties break toward the lowest path index, so
rerunning a solve reproduces bit-identical flows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .network import Network, PathSet

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 100_000
# the line search stops once the step is bracketed this finely, relative to
# the largest feasible step: double precision
_STEP_RESOLUTION = 2.0**-50


class ConvergenceError(RuntimeError):
    """Solver stopped before reaching the requested relative gap."""

    def __init__(self, message: str, achieved_gap: float):
        super().__init__(message)
        self.achieved_gap = achieved_gap


@dataclass(frozen=True, eq=False)
class FlowSolution:
    """One converged assignment (link flows, path flows, path times).

    ``total_time`` is ``sum q_a t_a(q_a)`` in flow-minutes; ``ue_time`` is
    the common travel time of used paths and is only set for the UE regime.
    """

    regime: str
    link_flows: np.ndarray
    path_flows: np.ndarray
    path_times: np.ndarray
    total_time: float
    demand: float
    relative_gap: float
    iterations: int
    ue_time: float | None = None


def solve_so(
    net: Network,
    paths: PathSet,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> FlowSolution:
    """Minimize total system travel time; link flows are unique by convexity."""

    def objective(q):
        return float(q @ net.link_times(q))

    f, q, gap, iters = _frank_wolfe(
        net, paths, objective, net.link_marginals, tol, max_iter
    )
    times = net.link_times(q)
    return FlowSolution(
        regime="SO",
        link_flows=q,
        path_flows=f,
        path_times=paths.incidence.T @ times,
        total_time=float(q @ times),
        demand=net.demand,
        relative_gap=gap,
        iterations=iters,
    )


def solve_ue(
    net: Network,
    paths: PathSet,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> FlowSolution:
    """Minimize the Beckmann potential; used paths share one travel time."""

    def objective(q):
        return float(net.link_integrals(q).sum())

    f, q, gap, iters = _frank_wolfe(
        net, paths, objective, net.link_times, tol, max_iter
    )
    times = net.link_times(q)
    total = float(q @ times)
    if net.demand > 0:
        ue_time = total / net.demand
    else:
        ue_time = float((paths.incidence.T @ times).min())
    return FlowSolution(
        regime="UE",
        link_flows=q,
        path_flows=f,
        path_times=paths.incidence.T @ times,
        total_time=total,
        demand=net.demand,
        relative_gap=gap,
        iterations=iters,
        ue_time=ue_time,
    )


def average_time(sol: FlowSolution) -> float:
    """Mean travel time per trip, minutes."""
    if sol.demand <= 0:
        raise ValueError("average time is undefined for zero demand")
    return sol.total_time / sol.demand


# overflow is detected from the iterates, so numpy need not warn about it
@np.errstate(over="ignore", invalid="ignore")
def _frank_wolfe(net, paths, objective, gradient, tol, max_iter):
    if tol <= 0:
        raise ValueError("tol must be positive")
    d = net.demand
    incidence = paths.incidence
    n_paths = len(paths)
    if d == 0:
        q = np.zeros(len(net.links))
        return np.zeros(n_paths), q, 0.0, 0

    # all-or-nothing start on the cheapest empty-network path
    start_costs = incidence.T @ gradient(np.zeros(len(net.links)))
    f = np.zeros(n_paths)
    f[int(np.argmin(start_costs))] = d

    gap_rel = np.inf
    for iteration in range(1, max_iter + 1):
        q = incidence @ f
        path_costs = incidence.T @ gradient(q)
        cheapest = int(np.argmin(path_costs))
        carried = float(path_costs @ f)
        fw_gap = carried - d * path_costs[cheapest]
        value = objective(q)
        # a non-finite path cost reaches fw_gap through path_costs @ f,
        # since 0 * inf is nan
        if not (math.isfinite(value) and math.isfinite(fw_gap)):
            raise ConvergenceError(
                f"link costs overflow at demand {d:g} (non-finite path cost or "
                f"gap at iteration {iteration}); scale the demand or the link "
                "cost parameters down",
                achieved_gap=float("nan"),
            )
        scale = max(abs(value), np.finfo(float).tiny)
        gap_rel = fw_gap / scale
        if gap_rel <= tol and _certificate_ok(f, path_costs, d, tol):
            return f, q, gap_rel, iteration - 1

        active = np.flatnonzero(f > 0)
        worst = int(active[np.argmax(path_costs[active])])
        away_gap = d * path_costs[worst] - carried

        if fw_gap >= away_gap:
            direction = -f.copy()
            direction[cheapest] += d
            step_max = 1.0
        else:
            direction = f.copy()
            direction[worst] -= d
            denom = d - f[worst]
            step_max = f[worst] / denom if denom > 0 else 0.0

        step = _line_search(
            gradient, q, incidence @ direction, float(path_costs @ direction), step_max
        )
        f = f + step * direction
        np.maximum(f, 0.0, out=f)
        if step == step_max and step_max > 0 and fw_gap < away_gap:
            f[worst] = 0.0  # away step hit the boundary exactly

    raise ConvergenceError(
        f"no convergence in {max_iter} iterations (relative gap {gap_rel:.3e})",
        achieved_gap=float(gap_rel),
    )


def _certificate_ok(f, path_costs, d, tol) -> bool:
    """Optimality certificate: every path carrying more than tol*d must cost
    within tol*(1 + cheapest cost) of the cheapest path."""
    used = f > tol * d
    if not used.any():
        return True
    cheapest = path_costs.min()
    excess = path_costs[used].max() - cheapest
    return excess <= tol * (1.0 + abs(cheapest))


def _line_search(gradient, q, delta, slope0, step_max):
    """Exact line search along the link direction ``delta`` from flows ``q``.

    Returns the step in ``[0, step_max]`` where the directional derivative
    ``slope(a) = delta @ gradient(q + a*delta)``, non-decreasing for a convex
    objective, changes sign; ``slope0`` is its value at 0. Regula falsi
    keeps the root bracketed. The Anderson-Bjorck modification scales down
    the slope kept at the end that stays put, so that end is released
    within a few steps, as in the Illinois method but with fewer
    evaluations on curved costs. The search stops when the bracket is
    ``_STEP_RESOLUTION * step_max`` wide, when the slope is exactly zero, or
    when the interpolated root rounds onto an end of the bracket.
    """
    if step_max <= 0 or slope0 >= 0:
        return 0.0

    def slope(a):
        return float(delta @ gradient(np.maximum(q + a * delta, 0.0)))

    lo, hi = 0.0, step_max
    s_lo, s_hi = slope0, slope(step_max)
    if s_hi <= 0:
        return step_max
    while hi - lo > _STEP_RESOLUTION * step_max:
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
