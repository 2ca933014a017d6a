"""System-optimal and user-equilibrium assignment over enumerated paths.

Both regimes minimize a convex separable objective over the path-flow
simplex: total system time ``sum q_a t_a(q_a)`` for the system optimum, the
Beckmann potential ``sum integral_0^q_a t_a`` for the user equilibrium.

The solver is an active-set projected Newton method (after Bertsekas 1982
and Jayakrishnan et al. 1994). Each iterate makes one pass over the
compiled link costs (``Network.link_objective``), which returns the
objective's value, link gradient ``g`` and link curvature ``h`` together;
path costs are ``c = incidence.T @ g``. The active set S holds the paths
that carry flow plus the cheapest path. On S the objective's Hessian is
``H = A_S.T @ diag(h) @ A_S``, of rank at most the link count, so the
Newton direction ``p`` is the minimum-norm least-squares solution of the
KKT system ``[H 1; 1.T 0] [p; mu] = [c_min - c_S; 0]``, which keeps the
demand fixed. The system is scaled to a unit largest diagonal first, and
``p`` is re-centred to sum to exactly 0. When the cheapest path carries no
flow and the direction would take flow off it, no positive step exists
(the step would stall at 0), so that path leaves S and the direction is
solved again on the face of the paths that carry flow.

The unit step is tried first, along the projected arc ``max(0, f + p)``
scaled by ``d / sum`` back onto the demand ``d``, so one step can empty
any number of paths. It is taken when its value is at most ``value +
1e-4 * c @ (step - f)`` (Armijo's test), and its cost pass is then the
next iterate's. Otherwise an exact line search along the ray ``f + a p``
picks the step, capped where the first path empties (at most 1).

When the Newton direction is not a descent direction, or its step leaves
the path flows unchanged, the iteration takes the Frank-Wolfe step with
away steps instead: toward the cheapest path, or away from the costliest
path carrying flow, whichever gap is larger. That step alone converges
linearly (Lacoste-Julien & Jaggi 2015) given an exact line search, so every
iterate is covered. A direction whose slope is within rounding of zero
(``_SLOPE_RESOLUTION`` of the slope's absolute terms) counts as no descent;
an iterate where neither direction descends stops the solve as stalled.
Both line searches work in link space (``_line_search``), one cost pass
per trial point and none on linear costs.

A solve starts from the all-or-nothing point (all demand on the cheapest
path of the empty network); ``solve_ue`` starts instead from the path
flows passed as ``start``, scaled to the demand, when given. The active
set gains at most one path per iteration, so a start that carries the
optimum's paths saves the iterations that would find them, and a unit
step empties the start's unused paths together: the no-policy UE started
from the SO's path flows takes 4 iterations where the cold solve takes 8
and 10 on the benchmark's linear and BPR chains.

Everything is deterministic: ties break toward the lowest path index, so
rerunning a solve from the same start reproduces bit-identical flows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .network import Network, PathSet

DEFAULT_TOL = 1e-8
# iterations before a solve gives up, on top of two per path: the active
# set gains at most one path per iteration, so from the all-or-nothing start
# an optimum that uses k paths takes k - 1 iterations to reach; a unit step
# can empty many paths, one that falls back to the line search one at most
MAX_ITER = 400
# a direction descends only if its slope is below this fraction of the sum
# of the slope's absolute terms; smaller slopes are rounding (256 ulps)
_SLOPE_RESOLUTION = 2.0**-44
# the line search stops once the step is bracketed this finely, relative to
# the largest feasible step: double precision
_STEP_RESOLUTION = 2.0**-50
# Armijo's test: a unit step must give this share of its predicted decrease
_ARMIJO = 1e-4


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
    Three diagnostics explain a solve, and the output files leave them out:
    ``cost_passes`` counts the passes over the link costs: one per iterate
    (a taken unit step's pass is the next iterate's), one per rejected unit
    step and one per line-search trial point; ``gap_history`` holds the
    relative gap at each iterate, from the start to the returned one (so
    its last entry is ``relative_gap``); ``newton_steps`` counts the
    iterations that took the Newton direction, not the Frank-Wolfe step.
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
    gap_history: tuple[float, ...] = ()
    newton_steps: int = 0
    ue_time: float | None = None


def solve_so(net: Network, paths: PathSet, tol: float = DEFAULT_TOL) -> FlowSolution:
    """Minimize total system travel time; link flows are unique by convexity."""
    return _solve(net, paths, "SO", tol, None)


def solve_ue(
    net: Network, paths: PathSet, tol: float = DEFAULT_TOL, start=None
) -> FlowSolution:
    """Minimize the Beckmann potential; used paths share one travel time.

    ``start``, when given, holds the path flows to begin from instead of
    the all-or-nothing point: one finite, non-negative flow per path, with
    a positive sum, scaled to the demand. It is ignored at zero demand.
    The SO's path flows on the same ``paths`` save iterations where the SO
    rides the UE's paths, as the module docstring explains."""
    return _solve(net, paths, "UE", tol, start)


def _solve(net, paths, regime, tol, start) -> FlowSolution:
    f, q, stats = _projected_newton(net, paths, regime, tol, start)
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
        ue_time=ue_time,
        **stats,
    )


def check_tol(tol: float, name: str = "tol") -> None:
    """Reject a relative gap tolerance that is not a finite number in
    (0, 1); ``name`` is the argument or flag it came from."""
    if not 0 < tol < 1:
        raise ValueError(f"{name} must be a finite number in (0, 1)")


def _check_start(start, n_paths: int) -> np.ndarray:
    """``start`` as a float array, after checking that it holds
    ``n_paths`` finite, non-negative path flows with a positive, finite
    sum; a ValueError names the first bad entry."""
    f = np.array(start, dtype=float)
    if f.shape != (n_paths,):
        raise ValueError(
            f"start must hold one flow per path: shape {f.shape} for {n_paths} paths"
        )
    bad = np.flatnonzero(~(np.isfinite(f) & (f >= 0)))
    if bad.size:
        raise ValueError(
            f"start[{bad[0]}] is {float(f[bad[0]])!r}; "
            "path flows must be finite and non-negative"
        )
    total = float(f.sum())
    if not 0 < total < math.inf:
        raise ValueError(f"start's path flows sum to {total!r}, not a positive finite number")
    return f


def average_time(sol: FlowSolution) -> float:
    """Mean travel time per trip, minutes."""
    if sol.demand <= 0:
        raise ValueError("average time is undefined for zero demand")
    return sol.total_time / sol.demand


# overflow is detected from the iterates, so numpy need not warn about it
@np.errstate(over="ignore", invalid="ignore")
def _projected_newton(net, paths, regime, tol, start):
    """Path flows and link flows of the ``regime`` ("SO" or "UE") optimum,
    reached from the path flows ``start`` (scaled to the demand) or, when it
    is None, from all-or-nothing, and the solve's counters as
    ``FlowSolution`` fields. With zero demand ``start`` is ignored."""
    check_tol(tol)
    d = net.demand
    incidence = paths.incidence
    n_paths = len(paths)
    if d == 0:
        stats = dict(relative_gap=0.0, iterations=0, cost_passes=0, gap_history=(0.0,))
        return np.zeros(n_paths), np.zeros(len(net.links)), stats

    passes = 0

    def cost_pass(q):
        nonlocal passes
        passes += 1
        return net.link_objective(q, regime)

    if start is None:
        # all-or-nothing start on the cheapest empty-network path
        _, gradient, _ = cost_pass(np.zeros(len(net.links)))
        f = np.zeros(n_paths)
        f[int(np.argmin(incidence.T @ gradient))] = d
    else:
        f = _check_start(start, n_paths)
        f = d * (f / f.sum())

    history = []
    newton_steps = 0
    max_iter = MAX_ITER + 2 * n_paths
    q = incidence @ f
    point = (q, *cost_pass(q))
    for iteration in range(1, max_iter + 1):
        q, value, gradient, curvature = point
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
        gap_rel = float(fw_gap / scale)
        history.append(gap_rel)
        if gap_rel <= tol:
            # the optimality certificate: every path carrying more than
            # tol*d costs at most tol*(1 + cheapest cost) above the cheapest
            used = f > tol * d
            spread = path_costs[used].max() - path_costs[cheapest] if used.any() else 0.0
            bound = tol * (1.0 + abs(path_costs[cheapest]))
            if spread <= bound:
                return f, q, dict(
                    relative_gap=gap_rel,
                    iterations=iteration - 1,
                    cost_passes=passes,
                    gap_history=tuple(history),
                    newton_steps=newton_steps,
                )

        at = (cost_pass, incidence, net.linear_costs, d, f, q, value, path_costs, curvature)
        direction = _newton_direction(incidence, curvature, path_costs, f, cheapest)
        moved, point = _descend(*at, direction, arc=True)
        if moved is f:
            moved, point = _descend(*at, *_toward_or_away(f, path_costs, cheapest, carried, d))
        else:
            newton_steps += 1
        if moved is f:
            # f is the solver's only state: every later iteration repeats this
            stop = f", stalled at iteration {iteration} (path flows unchanged)"
            break
        f = moved
    else:
        stop = f" in {max_iter} iterations"

    message = f"no convergence{stop} (relative gap {gap_rel:.3e})"
    if gap_rel <= tol:  # the last iterate met the gap but not the certificate
        message = (
            f"no convergence{stop}: relative gap {gap_rel:.3e} is within "
            f"tol, but the used paths' costs spread {spread:.3e} above the "
            f"cheapest, over the certificate's bound {bound:.3e}"
        )
    raise ConvergenceError(message, achieved_gap=gap_rel)


def _newton_direction(incidence, curvature, path_costs, f, cheapest):
    """The Newton direction on the active set, zero off it."""

    def solve_on(S):
        A = incidence[:, S]
        n = S.size
        hessian = A.T @ (curvature[:, None] * A)
        # scaled to a largest diagonal entry of 1, so that least squares
        # weighs the demand row like the rest however large the curvature
        scale = hessian.diagonal().max()
        if not (0 < scale < math.inf):
            return np.zeros(n)  # no curvature to model, or it overflows
        kkt = np.ones((n + 1, n + 1))
        kkt[:n, :n] = hessian / scale
        kkt[n, n] = 0.0
        rhs = np.zeros(n + 1)
        # costs relative to the cheapest path: the multiplier stays small,
        # so the direction's rounding scales with the cost spread
        rhs[:n] = (path_costs[cheapest] - path_costs[S]) / scale
        p = np.linalg.lstsq(kkt, rhs, rcond=None)[0][:n]
        return p - p.sum() / n  # the demand stays exact whatever the rounding

    on_face = f > 0
    S = np.flatnonzero(on_face | (np.arange(f.size) == cheapest))
    p = solve_on(S)
    if not on_face[cheapest] and p[np.searchsorted(S, cheapest)] < 0:
        S = np.flatnonzero(on_face)
        p = solve_on(S)
    direction = np.zeros(f.size)
    direction[S] = p
    return direction


def _descend(cost_pass, incidence, affine, d, f, q, value, path_costs, curvature,
             direction, cap=1.0, arc=False):
    """The iterate reached from path flows ``f`` (link flows ``q``, value
    ``value``, path costs ``path_costs``, link curvature ``curvature``) along
    the path ``direction`` with its ``(q, *cost_pass(q))``, or ``(f, None)``
    when the direction does not descend or the step leaves ``f`` unchanged.
    With ``arc``, the unit step along the projected arc, put back on the
    demand ``d``, is taken if it passes Armijo's test. Else an exact line
    search picks the step, up to where the first path empties (that path is
    then set to exactly 0) and at most ``cap``. ``cost_pass`` and ``affine``
    are as for ``_line_search``."""
    terms = path_costs * direction
    slope = float(terms.sum())
    if not slope < -_SLOPE_RESOLUTION * float(np.abs(terms).sum()):
        return f, None
    if arc:
        trial = np.maximum(f + direction, 0.0)
        trial *= d / trial.sum()
        if not np.array_equal(trial, f):
            trial_q = incidence @ trial
            point = (trial_q, *cost_pass(trial_q))
            if point[1] <= value + _ARMIJO * float(path_costs @ (trial - f)):
                return trial, point
    shrinking = np.flatnonzero(direction < 0)
    ratios = f[shrinking] / -direction[shrinking]
    step_max, emptied = cap, None
    if ratios.size and ratios.min() <= cap:
        k = int(np.argmin(ratios))
        step_max, emptied = float(ratios[k]), int(shrinking[k])
    delta = incidence @ direction
    step = _line_search(
        cost_pass, q, delta, slope, float((delta * delta) @ curvature), step_max, affine
    )
    moved = f + step * direction
    np.maximum(moved, 0.0, out=moved)
    if step == step_max and emptied is not None:
        moved[emptied] = 0.0
    if np.array_equal(moved, f):
        return f, None
    q = incidence @ moved  # moved is clipped at zero, so q is non-negative
    return moved, (q, *cost_pass(q))


def _toward_or_away(f, path_costs, cheapest, carried, d):
    """The Frank-Wolfe direction with the larger gap, toward the cheapest
    path or away from the costliest path carrying flow, and its largest
    step: 1, or where the costliest path empties."""
    active = np.flatnonzero(f > 0)
    worst = int(active[np.argmax(path_costs[active])])
    if carried - d * path_costs[cheapest] >= d * path_costs[worst] - carried:
        direction = -f.copy()
        direction[cheapest] += d
        return direction, 1.0
    direction = f.copy()
    direction[worst] -= d
    denom = d - f[worst]
    return direction, (f[worst] / denom if denom > 0 else 0.0)


def _line_search(cost_pass, q, delta, slope0, curve0, step_max, affine):
    """Exact line search along the link direction ``delta`` from flows ``q``.

    Returns the step in ``[0, step_max]`` where the directional derivative
    ``slope(a) = delta @ gradient(q + a*delta)``, non-decreasing for a
    convex objective, changes sign; ``slope0`` and ``curve0`` are its value
    and its derivative ``delta**2 @ curvature`` at 0, and ``cost_pass(q)``
    returns the objective's value, gradient and curvature at link flows
    ``q``. When ``affine`` (every link cost is linear) the slope is affine
    in the step, so the first Newton step is the root and needs no pass.

    Otherwise each step is Newton's from the latest trial point while it
    stays strictly inside the bracket ``[lo, hi]`` that holds the root and
    is at most half as long as the step before last. Else, or where the
    curvature is not finite and positive (as when every link the direction
    moves is empty and its cost has zero slope there, like a BPR cost of
    power above 1), the step goes to ``step_max`` while the slope there is
    unknown, then to the middle of the bracket. The search stops when the
    slope is zero up to rounding (within ``_SLOPE_RESOLUTION`` of
    ``|delta| @ |gradient|``), or when the Newton step or the bracket is
    below ``_STEP_RESOLUTION * step_max``.
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
        if abs(slope) <= _SLOPE_RESOLUTION * float(np.abs(delta) @ np.abs(gradient)):
            return a  # zero up to rounding
        if slope < 0:
            if a == step_max:  # still descending at the end
                return a
            lo = a
        else:
            hi, hi_known = a, True
        if hi - lo <= resolution:
            return 0.5 * (lo + hi)
