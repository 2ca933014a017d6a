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
step ``a`` is ``delta @ gradient(q + a*delta)`` and its derivative
``delta**2 @ curvature(q + a*delta)``. Each trial point, like each iterate,
is one pass over the compiled link costs (``Network.link_objective``) that
returns the objective's value, link gradient and link curvature together.
The root of the directional derivative is found by Newton steps kept inside
a bracket of the feasible step interval; the first step is already exact
when the costs are linear.

Everything is deterministic: ties break toward the lowest path index, so
rerunning a solve reproduces bit-identical flows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .network import Network, PathSet

DEFAULT_TOL = 1e-8
# Frank-Wolfe iterations before a solve gives up
MAX_ITER = 100_000
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
    ``cost_passes`` counts the solver's passes over the link costs, one per
    iterate and one per line-search trial point (a diagnostic that the
    output files leave out).
    """

    regime: str
    link_flows: np.ndarray
    path_flows: np.ndarray
    path_times: np.ndarray
    total_time: float
    demand: float
    relative_gap: float
    iterations: int
    cost_passes: int = 0
    ue_time: float | None = None


def solve_so(net: Network, paths: PathSet, tol: float = DEFAULT_TOL) -> FlowSolution:
    """Minimize total system travel time; link flows are unique by convexity."""
    return _solve(net, paths, "SO", tol)


def solve_ue(net: Network, paths: PathSet, tol: float = DEFAULT_TOL) -> FlowSolution:
    """Minimize the Beckmann potential; used paths share one travel time."""
    return _solve(net, paths, "UE", tol)


def _solve(net, paths, regime, tol) -> FlowSolution:
    f, q, gap, iters, passes = _frank_wolfe(net, paths, regime, tol)
    times = net.link_times(q)
    path_times = paths.incidence.T @ times
    total = float(q @ times)
    ue_time = None
    if regime == "UE":
        ue_time = total / net.demand if net.demand > 0 else float(path_times.min())
    return FlowSolution(
        regime=regime,
        link_flows=q,
        path_flows=f,
        path_times=path_times,
        total_time=total,
        demand=net.demand,
        relative_gap=gap,
        iterations=iters,
        cost_passes=passes,
        ue_time=ue_time,
    )


def check_tol(tol: float, name: str = "tol") -> None:
    """Reject a relative gap tolerance that is not a finite number in
    (0, 1); ``name`` is the argument or flag it came from."""
    if not 0 < tol < 1:
        raise ValueError(f"{name} must be a finite number in (0, 1)")


def average_time(sol: FlowSolution) -> float:
    """Mean travel time per trip, minutes."""
    if sol.demand <= 0:
        raise ValueError("average time is undefined for zero demand")
    return sol.total_time / sol.demand


# overflow is detected from the iterates, so numpy need not warn about it
@np.errstate(over="ignore", invalid="ignore")
def _frank_wolfe(net, paths, regime, tol):
    """Path flows, link flows, relative gap, iterations and cost passes of
    the ``regime`` ("SO" or "UE") optimum."""
    check_tol(tol)
    d = net.demand
    incidence = paths.incidence
    n_paths = len(paths)
    if d == 0:
        q = np.zeros(len(net.links))
        return np.zeros(n_paths), q, 0.0, 0, 0

    passes = 0

    def cost_pass(q):
        nonlocal passes
        passes += 1
        return net.link_objective(q, regime)

    # all-or-nothing start on the cheapest empty-network path
    _, gradient, _ = cost_pass(np.zeros(len(net.links)))
    f = np.zeros(n_paths)
    f[int(np.argmin(incidence.T @ gradient))] = d

    gap_rel = np.inf
    for iteration in range(1, MAX_ITER + 1):
        # f is clipped at zero, so the link flows are non-negative
        q = incidence @ f
        value, gradient, curvature = cost_pass(q)
        path_costs = incidence.T @ gradient
        cheapest = int(np.argmin(path_costs))
        carried = float(path_costs @ f)
        fw_gap = carried - d * path_costs[cheapest]
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
        if gap_rel <= tol:
            spread, bound = _used_cost_spread(f, path_costs, d, tol)
            if spread <= bound:
                return f, q, gap_rel, iteration - 1, passes

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

        delta = incidence @ direction
        step = _line_search(
            cost_pass,
            q,
            delta,
            float(path_costs @ direction),
            float((delta * delta) @ curvature),
            step_max,
            net.linear_costs,
        )
        moved = f + step * direction
        np.maximum(moved, 0.0, out=moved)
        if step == step_max and step_max > 0 and fw_gap < away_gap:
            moved[worst] = 0.0  # away step hit the boundary exactly
        if np.array_equal(moved, f):
            # f is the solver's only state, so every later iteration would
            # repeat this one
            stop = f", stalled at iteration {iteration} (path flows unchanged)"
            break
        f = moved
    else:
        stop = f" in {MAX_ITER} iterations"

    message = f"no convergence{stop} (relative gap {gap_rel:.3e})"
    if gap_rel <= tol:  # the last iterate met the gap but not the certificate
        message = (
            f"no convergence{stop}: relative gap {gap_rel:.3e} is within "
            f"tol, but the used paths' costs spread {spread:.3e} above the "
            f"cheapest, over the certificate's bound {bound:.3e}"
        )
    raise ConvergenceError(message, achieved_gap=float(gap_rel))


def _used_cost_spread(f, path_costs, d, tol) -> tuple[float, float]:
    """The optimality certificate's spread and bound: how far the costliest
    path carrying more than tol*d lies above the cheapest path (0 when none
    carries that much), and tol*(1 + cheapest cost). The certificate holds
    when the spread is within the bound."""
    cheapest = path_costs.min()
    bound = tol * (1.0 + abs(cheapest))
    used = f > tol * d
    if not used.any():
        return 0.0, bound
    return path_costs[used].max() - cheapest, bound


def _line_search(cost_pass, q, delta, slope0, curve0, step_max, affine):
    """Exact line search along the link direction ``delta`` from flows ``q``.

    Returns the step in ``[0, step_max]`` where the directional derivative
    ``slope(a) = delta @ gradient(q + a*delta)``, non-decreasing for a
    convex objective, changes sign; ``slope0`` and ``curve0`` are its value
    and its derivative ``delta**2 @ curvature`` at 0, and ``cost_pass(q)``
    returns the objective's value, gradient and curvature at link flows
    ``q``. When ``affine`` (every link cost is linear) the slope is affine
    in the step, so the first Newton step is the root and no pass is needed
    to confirm it.

    Otherwise each step is Newton's from the latest trial point, as long as
    it stays strictly inside the bracket ``[lo, hi]`` that holds the root
    and is at most half as long as the step before last. Where it is not,
    or where the curvature is not finite and positive (as when every link
    the direction moves is empty and its cost has zero slope there, like a
    BPR cost of power above 1), the step goes to ``step_max`` while the
    slope there is unknown, then to the middle of the bracket. The search
    stops when the slope is exactly zero, or when the Newton step or the
    bracket is below ``_STEP_RESOLUTION * step_max``.
    """
    if step_max <= 0 or slope0 >= 0:
        return 0.0
    if affine:  # slope(a) = slope0 + a * curve0, so Newton's step is the root
        if slope0 + step_max * curve0 <= 0:
            return step_max
        return min(-slope0 / curve0, step_max)
    resolution = _STEP_RESOLUTION * step_max
    delta2 = delta * delta
    lo, hi, hi_known = 0.0, step_max, False
    a, slope, curve = 0.0, slope0, curve0
    older = last = math.inf  # lengths of the last two steps
    while True:
        newton = a - slope / curve if 0 < curve < math.inf else math.nan
        if abs(newton - a) <= resolution:
            return min(max(newton, lo), hi)
        if lo < newton < hi and 2 * abs(newton - a) <= older:
            trial = newton
        else:
            trial = 0.5 * (lo + hi) if hi_known else hi
        older, last = last, abs(trial - a)
        _, gradient, curvature = cost_pass(np.maximum(q + trial * delta, 0.0))
        a, slope, curve = trial, float(delta @ gradient), float(delta2 @ curvature)
        if slope == 0:
            return a
        if slope < 0:
            if a == step_max:  # still descending at the end
                return a
            lo = a
        else:
            hi, hi_known = a, True
        if hi - lo <= resolution:
            return 0.5 * (lo + hi)
