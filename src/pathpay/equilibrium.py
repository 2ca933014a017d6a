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
flow and the direction would take flow off it, every step clips that path
at 0 and so leaves the Newton direction; that path then leaves S and the
direction is solved again on the face of the paths that carry flow.

Every step takes one rule, Armijo backtracking along the projection arc
(Bertsekas 1982). A trial is ``max(0, f + a p)`` scaled by ``d / sum``
back onto the demand ``d``, so one step can empty any number of paths. It
is taken when its value is at most ``value + 1e-4 * c @ (trial - f)``
(Armijo's test), and its cost pass is then the next iterate's. Near an
optimum the predicted decrease ``-c @ (trial - f)`` can drop below the
objective's rounding, where Armijo's test fails on rounding alone. So a
trial that fails it is still taken if that decrease is at most ``_FLOOR``
(16 ulps) of ``|value|``, its value is within as much of ``value``, and
its gap, from its cost pass, is below the iterate's: such steps strictly
lower the gap, so they cannot cycle. Otherwise
``a`` halves, at most ``_HALVINGS`` times; a trial equal to ``f`` ends the
search. The Newton direction's first trial is ``a = 1``: on linear costs,
where no path is clipped, that is the minimum on the direction's face.

When the Newton direction is not a descent direction, or none of its
trials passes, the iteration solves the same KKT system with the identity
for ``H``. That is the projected gradient on S, ``mean(c_S) - c_S``, the
scaled gradient projection of Bertsekas & Gafni 1983 at its plainest
scaling; it descends wherever the costs on S differ, even where ``H`` is
singular. It is scaled to move at most the demand on a path, and its first
trial is the longest step that keeps every flow non-negative, or 1 if that
is shorter. A direction whose slope is within rounding of zero
(``_SLOPE_RESOLUTION`` of the slope's absolute terms) counts as no
descent; an iterate where neither direction gives a passing trial stops
the solve as stalled. Each trial costs one pass over the link costs.

The active set gains at most one path per iteration, so a solve is
cheapest from a start that already carries the optimum's paths. A cold
solve loads the demand incrementally (Sheffi 1985, ch. 5): it splits the
demand into ``K = max(1, links - nodes + 2)`` equal parts and puts each on
the cheapest path under the regime's link gradient at the flows loaded so
far, one cost pass per part. A basic optimum rides at most as many paths
as the path space has dimensions, which for one origin-destination pair
is ``K``. On the benchmark's linear and BPR chains the loaded start
carries 5 of the SO's 10 and 4 of its 9 paths, and the cold SO takes 6
and 5 iterations; on 405 parallel links at demand 1000 it carries all
405, and the SO takes 1. ``solve_ue`` starts instead from the path flows
passed as ``start``, scaled to the demand, when given; a unit step
empties the start's unused paths together, so the no-policy UE started
from the SO's path flows takes 1 to 2 and 4 iterations on those chains.

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
# set gains at most one path per iteration, so from a start carrying one
# path an optimum that uses k paths takes k - 1 iterations to reach, while
# one step can empty many paths
MAX_ITER = 400
# a direction descends only if its slope is below this fraction of the sum
# of the slope's absolute terms; smaller slopes are rounding (256 ulps)
_SLOPE_RESOLUTION = 2.0**-44
# Armijo's test: a step must give this share of its predicted decrease
_ARMIJO = 1e-4
# the objective's rounding floor, relative to its value: 16 ulps
_FLOOR = 2.0**-48
# a rejected step halves at most this many times before the direction is
# given up: 2**-50 of the first step is below double precision
_HALVINGS = 50
# the smallest objective scale the relative gap divides by
_TINY = np.finfo(float).tiny


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
    ``cost_passes`` counts the passes over the link costs: one per part of
    a cold start's incremental loading, one per iterate (a taken step's
    pass is the next iterate's) and one per rejected trial step;
    ``gap_history`` holds the relative gap at each iterate, from the start
    to the returned one (so its last entry is ``relative_gap``);
    ``newton_steps`` counts the steps on the Hessian-scaled direction, not
    on the projected gradient.
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
    the incremental loading of the demand: one finite, non-negative flow
    per path, with a positive sum, scaled to the demand. It is ignored at
    zero demand. The SO's path flows on the same ``paths`` save iterations
    where the SO rides the UE's paths, as the module docstring explains."""
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
    is None, from the incremental loading, and the solve's counters as
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
        # incremental loading: each of K equal parts of the demand goes to
        # the cheapest path at the flows loaded so far (lowest index on ties)
        parts = max(1, len(net.links) - len(net.nodes) + 2)
        part = d / parts
        f = np.zeros(n_paths)
        q = np.zeros(len(net.links))
        for _ in range(parts):
            _, gradient, _ = cost_pass(q)
            k = (incidence.T @ gradient).argmin()
            f[k] += part
            q = q + part * incidence[:, k]
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
        cheapest = int(path_costs.argmin())
        gap = float(path_costs @ f) - d * path_costs[cheapest]
        # a non-finite path cost reaches gap through path_costs @ f,
        # since 0 * inf is nan
        if not (math.isfinite(value) and math.isfinite(gap)):
            raise ConvergenceError(
                f"link costs overflow at demand {d:g} (non-finite path cost or "
                f"gap at iteration {iteration}); scale the demand or the link "
                "cost parameters down",
                achieved_gap=float("nan"),
            )
        scale = max(abs(value), _TINY)
        gap_rel = float(gap / scale)
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

        at = (cost_pass, incidence, d, f, value, path_costs)
        direction = _newton_direction(incidence, curvature, path_costs, f, cheapest)
        moved, point = _descend(*at, direction)
        if moved is f:
            # the projected gradient, in flows at any cost scale
            direction = _newton_direction(incidence, None, path_costs, f, cheapest)
            direction = direction / max(np.abs(direction).max(), _TINY) * d
            falling = direction < 0
            emptied = f[falling] / -direction[falling]
            step = max(1.0, float(emptied.min())) if emptied.size else 1.0
            moved, point = _descend(*at, direction, step)
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
    """The Newton direction on the active set, zero off it. With
    ``curvature`` None the identity stands for the Hessian, which gives the
    projected gradient on the active set."""

    def solve_on(S):
        A = incidence[:, S]
        n = S.size
        hessian = np.eye(n) if curvature is None else A.T @ (curvature[:, None] * A)
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
    active = on_face.copy()
    active[cheapest] = True
    S = np.flatnonzero(active)
    p = solve_on(S)
    if not on_face[cheapest] and p[np.searchsorted(S, cheapest)] < 0:
        S = np.flatnonzero(on_face)
        p = solve_on(S)
    direction = np.zeros(f.size)
    direction[S] = p
    return direction


def _descend(cost_pass, incidence, d, f, value, path_costs, direction, step=1.0):
    """The iterate reached from path flows ``f`` (value ``value``, path
    costs ``path_costs``) along the path ``direction`` with its
    ``(q, *cost_pass(q))``, or ``(f, None)`` when the direction does not
    descend or no trial passes. Each trial is the projected arc
    ``max(0, f + a * direction)`` put back on the demand ``d``, from
    ``a = step``; it is taken if it passes Armijo's test, or at the rounding
    floor if its gap is below ``f``'s (module docstring); else ``a`` halves,
    at most ``_HALVINGS`` times, and a trial equal to ``f`` ends the search.
    ``cost_pass(q)`` returns the objective's value, gradient and curvature
    at link flows ``q``."""
    terms = path_costs * direction
    slope = float(terms.sum())
    if not slope < -_SLOPE_RESOLUTION * float(np.abs(terms).sum()):
        return f, None
    floor = _FLOOR * abs(value)
    for _ in range(_HALVINGS + 1):
        trial = np.maximum(f + step * direction, 0.0)
        trial *= d / trial.sum()
        if not (trial != f).any():
            break
        q = incidence @ trial  # trial is clipped at zero, so q is non-negative
        point = (q, *cost_pass(q))
        predicted = float(path_costs @ (trial - f))
        if point[1] <= value + _ARMIJO * predicted:
            return trial, point
        if -predicted <= floor and abs(point[1] - value) <= floor:
            costs = incidence.T @ point[2]
            gap = float(path_costs @ f) - d * path_costs.min()
            if float(costs @ trial) - d * costs.min() < gap:
                return trial, point
        step *= 0.5
    return f, None

