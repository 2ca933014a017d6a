"""Dense two-phase primal simplex for small equality-form linear programs.

Solves ``min c.x  s.t.  A x = b, x >= 0``. Phase 1 starts from a crash
basis: after rows with a negative right-hand side are negated, a row that
owns a zero-cost column with a single +1 entry (a slack or surplus column)
starts with that column basic, and only the other rows get an artificial
variable. Pivoting follows Bland's rule (smallest eligible index enters,
smallest-index basic variable leaves on ratio ties), which cannot cycle
and makes the returned basic solution a deterministic function of the
input. Redundant equality rows are detected and dropped at the end of
phase 1. An optimal solution carries duals for every original row: the
least-norm solution of ``A_B.T y = c_B`` on its final basis ``B``.

The tableau is kept dense. The largest problems it gets are the subscriber
masters of ``scheme.solve_subscriber_lp``: a row per link and per cut, a
column per master path, per cut and per run of the VOT-mass curve. A
first master over the greedy paths is solved in closed form and never
reaches the simplex, so it gets the masters of round 2 on, after pricing
has added a path or a cut. Column generation holds the master to the
paths it prices in, so it has about links + 2 x (master paths) rows; the
cuts kept over the rounds can exceed that (a 6x6 linear grid, 60 links and
252 paths, ends at 185 x 232 with 54 paths and 125 cuts). Only a master
started over every path, when the greedy start misses the link target,
has a column per enumerated path from round 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PIVOT_TOL = 1e-10
ENTER_TOL = 1e-9
_MAX_PIVOTS = 200_000


class SimplexError(RuntimeError):
    """Numerical failure inside the simplex method."""


@dataclass(frozen=True, eq=False)
class StandardLp:
    """Equality-form LP data: minimize ``c.x`` over ``A x = b``, ``x >= 0``."""

    c: np.ndarray
    A: np.ndarray
    b: np.ndarray

    def __post_init__(self) -> None:
        c = np.atleast_1d(np.asarray(self.c, dtype=float))
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        b = np.atleast_1d(np.asarray(self.b, dtype=float))
        if A.shape != (b.size, c.size):
            raise ValueError(f"shape mismatch: A {A.shape}, b {b.shape}, c {c.shape}")
        if not (
            np.all(np.isfinite(c)) and np.all(np.isfinite(A)) and np.all(np.isfinite(b))
        ):
            raise ValueError("LP data must be finite")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)


@dataclass(frozen=True, eq=False)
class LpSolution:
    x: np.ndarray
    objective: float
    status: str                      # "optimal" | "infeasible" | "unbounded"
    iterations: int = 0
    residual: float = 0.0
    # of an optimal solution: y with c - A.T @ y >= 0 and b @ y = objective
    duals: np.ndarray | None = None

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


# an overflow leaves an inf or NaN that fails the residual check below
@np.errstate(over="ignore", invalid="ignore")
def solve_lp(lp: StandardLp) -> LpSolution:
    """Solve the LP, returning an optimal basic solution when one exists."""
    m, n = lp.A.shape
    feas_tol = 1e-7 * (1.0 + float(np.abs(lp.b).max(initial=0.0)))

    # rows with negative rhs are flipped so the starting basis is feasible
    A = lp.A.copy()
    b = lp.b.copy()
    neg = b < 0
    A[neg] *= -1.0
    b[neg] *= -1.0

    # phase 1 tableau: [A | artificials | b]; a row that owns a zero-cost
    # column whose one nonzero is +1 starts with that column basic (the
    # lowest such column), every other row with its own artificial variable
    slack = np.flatnonzero(
        (lp.c == 0) & (np.count_nonzero(A, axis=0) == 1) & (A.sum(axis=0) == 1.0)
    )
    _, owner = np.nonzero(A[:, slack].T)  # each column's row, in column order
    rows, first = np.unique(owner, return_index=True)
    basis = np.full(m, -1)
    basis[rows] = slack[first]
    art = np.flatnonzero(basis < 0)
    basis[art] = n + np.arange(art.size)
    T = np.zeros((m, n + art.size + 1))
    T[:, :n] = A
    T[art, basis[art]] = 1.0
    basis = basis.tolist()
    T[:, -1] = b
    obj = np.zeros(n + art.size + 1)
    obj[:n] = -A[art].sum(axis=0)
    obj[-1] = -b[art].sum()

    pivots, _ = _pivot_until_optimal(T, obj, basis, allow_cols=n + art.size)
    phase1_value = -obj[-1]
    if phase1_value > feas_tol:
        return LpSolution(
            x=np.zeros(n), objective=np.nan, status="infeasible", iterations=pivots
        )

    keep_rows = _drive_out_artificials(T, basis, n)
    T = T[keep_rows, :]
    basis = [basis[i] for i in keep_rows]

    # phase 2: drop artificial columns, rebuild the reduced-cost row
    T = np.hstack([T[:, :n], T[:, -1:]])
    obj = np.zeros(n + 1)
    obj[:n] = lp.c
    for i, var in enumerate(basis):
        obj -= lp.c[var] * T[i]

    more, unbounded = _pivot_until_optimal(T, obj, basis, allow_cols=n)
    pivots += more
    if unbounded:
        return LpSolution(
            x=np.zeros(n), objective=-np.inf, status="unbounded", iterations=pivots
        )

    x = np.zeros(n)
    x[basis] = T[:, -1]
    residual = float(np.abs(lp.A @ x - lp.b).max(initial=0.0))
    if not residual <= feas_tol:
        raise SimplexError(
            f"solution residual {residual:.3e} exceeds tolerance {feas_tol:.3e}"
        )
    # duals solve A_B.T y = c_B on the final basis, in the flipped rows'
    # signs. A dropped tableau row is a combination of the original rows,
    # not one of them, so the kept original rows can be dependent: the
    # system is solved over every row, and its least-norm solution taken
    duals = np.linalg.lstsq(A[:, basis].T, lp.c[basis], rcond=None)[0]
    duals[neg] *= -1.0
    return LpSolution(
        x=x,
        objective=float(lp.c @ x),
        status="optimal",
        iterations=pivots,
        residual=residual,
        duals=duals,
    )


def _pivot_until_optimal(T, obj, basis, allow_cols: int) -> tuple[int, bool]:
    """Bland-rule pivoting until no reduced cost is below -ENTER_TOL.

    Returns (pivot count, unbounded flag).
    """
    pivots = 0
    while True:
        candidates = np.flatnonzero(obj[:allow_cols] < -ENTER_TOL)
        if candidates.size == 0:
            return pivots, False
        entering = int(candidates[0])

        col = T[:, entering]
        rows = np.flatnonzero(col > PIVOT_TOL)
        if rows.size == 0:
            return pivots, True
        ratios = T[rows, -1] / col[rows]
        best = ratios.min()
        tied = rows[np.abs(ratios - best) <= PIVOT_TOL * (1 + abs(best))]
        leave_row = min(tied, key=lambda i: basis[i])

        _pivot(T, obj, basis, leave_row, entering)
        pivots += 1
        if pivots > _MAX_PIVOTS:
            raise SimplexError("pivot limit exceeded; LP appears numerically unstable")


def _pivot(T, obj, basis, row: int, col: int) -> None:
    piv = T[row, col]
    if abs(piv) < PIVOT_TOL:
        raise SimplexError("numerically singular basis (pivot below tolerance)")
    T[row] /= piv
    # only rows with a nonzero in the pivot column change
    rows = np.flatnonzero(T[:, col])
    rows = rows[rows != row]
    if rows.size:
        T[rows] -= np.outer(T[rows, col], T[row])
    if obj[col] != 0.0:
        obj -= obj[col] * T[row]
    basis[row] = col


def _drive_out_artificials(T, basis, n: int) -> list[int]:
    """Pivot zero-valued artificial variables out of the basis.

    Each artificial row pivots on its lowest nonbasic structural column with
    an entry above PIVOT_TOL. Rows whose artificial cannot be replaced by
    any structural column are linearly dependent on the others and are
    dropped; the returned list holds the surviving row indices.
    """
    keep = []
    dummy_obj = np.zeros(T.shape[1])
    basic = np.zeros(n, dtype=bool)
    basic[[var for var in basis if var < n]] = True
    for i in range(T.shape[0]):
        if basis[i] < n:
            keep.append(i)
            continue
        eligible = np.flatnonzero(~basic & (np.abs(T[i, :n]) > PIVOT_TOL))
        if eligible.size:
            swap = int(eligible[0])
            _pivot(T, dummy_obj, basis, i, swap)
            basic[swap] = True
            keep.append(i)
        # else: redundant row, dropped
    return keep
