from itertools import combinations

import numpy as np
import pytest

from _oracles import loop_drive_out_artificials
from pathpay import simplex
from pathpay.simplex import ENTER_TOL, StandardLp, solve_lp


def vertex_oracle(lp):
    """Enumerate all basic solutions and return the best feasible objective.

    Independent of the simplex path: solves every m-column square system
    directly and filters on feasibility. Only usable when the feasible set
    is bounded (callers ensure this with an explicit mass constraint).
    """
    m, n = lp.A.shape
    best = np.inf
    for cols in combinations(range(n), m):
        B = lp.A[:, cols]
        if abs(np.linalg.det(B)) < 1e-10:
            continue
        xb = np.linalg.solve(B, lp.b)
        if xb.min(initial=0.0) < -1e-9:
            continue
        x = np.zeros(n)
        x[list(cols)] = xb
        best = min(best, float(lp.c @ x))
    return best


class TestBasics:
    def test_degenerate_tie_break(self):
        lp = StandardLp(c=[1.0, 1.0], A=[[1.0, 1.0]], b=[1.0])
        sol = solve_lp(lp)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(1.0, abs=1e-12)
        # Bland's rule enters the lowest index first
        assert sol.x == pytest.approx([1.0, 0.0], abs=1e-12)

    def test_single_bound_with_slack(self):
        # min -x  s.t.  x <= 5, written with an explicit slack
        lp = StandardLp(c=[-1.0, 0.0], A=[[1.0, 1.0]], b=[5.0])
        sol = solve_lp(lp)
        assert sol.optimal
        assert sol.x[0] == pytest.approx(5.0, abs=1e-12)

    def test_infeasible(self):
        lp = StandardLp(
            c=[0.0, 0.0], A=[[1.0, 1.0], [1.0, 1.0]], b=[1.0, 2.0]
        )
        assert solve_lp(lp).status == "infeasible"

    def test_negative_rhs_infeasible(self):
        lp = StandardLp(c=[1.0], A=[[1.0]], b=[-1.0])
        assert solve_lp(lp).status == "infeasible"

    def test_unbounded(self):
        lp = StandardLp(c=[-1.0, 0.0], A=[[1.0, -1.0]], b=[0.0])
        assert solve_lp(lp).status == "unbounded"

    def test_redundant_row_dropped(self):
        lp = StandardLp(
            c=[1.0, 2.0],
            A=[[1.0, 1.0], [2.0, 2.0]],
            b=[1.0, 2.0],
        )
        sol = solve_lp(lp)
        assert sol.optimal
        assert sol.objective == pytest.approx(1.0, abs=1e-10)

    def test_iterations_logged(self):
        lp = StandardLp(c=[-1.0, 0.0], A=[[1.0, 1.0]], b=[5.0])
        assert solve_lp(lp).iterations > 0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            StandardLp(c=[1.0, 2.0], A=[[1.0]], b=[1.0])
        with pytest.raises(ValueError):
            StandardLp(c=[np.nan], A=[[1.0]], b=[1.0])


class TestNumericalFailure:
    def test_pivot_limit_raises(self, monkeypatch):
        monkeypatch.setattr(simplex, "_MAX_PIVOTS", 0)
        # x enters the slack's basis: one pivot
        lp = StandardLp(c=[-1.0, 0.0], A=[[1.0, 1.0]], b=[5.0])
        with pytest.raises(simplex.SimplexError, match="pivot limit"):
            solve_lp(lp)

    def test_residual_above_tolerance_raises(self, monkeypatch):
        # no input reaches it: the right-hand side drifts by 1 after each
        # pivoting phase, so the basic solution misses A x = b
        pivot_until_optimal = simplex._pivot_until_optimal

        def drifting(T, obj, basis, allow_cols):
            result = pivot_until_optimal(T, obj, basis, allow_cols)
            T[:, -1] += 1.0
            return result

        monkeypatch.setattr(simplex, "_pivot_until_optimal", drifting)
        lp = StandardLp(c=[-1.0, 0.0], A=[[1.0, 1.0]], b=[5.0])
        with pytest.raises(simplex.SimplexError, match="solution residual 2.000e"):
            solve_lp(lp)

    def test_ratio_ties_on_a_negative_right_hand_side(self):
        # basic variables drifted below zero, as rounding on a badly scaled
        # master can leave them: the best ratio is negative, and the rows
        # within PIVOT_TOL of it, relative to its size, still tie, so Bland's
        # rule picks the one with the lowest basic variable
        T = np.array([
            [1.0, 0.0, 1.0, 0.0, -4.0 - 4e-12],
            [1.0, 1.0, 0.0, 0.0, -4.0],
            [1.0, 0.0, 0.0, 1.0, 3.0],
        ])
        obj = np.array([-1.0, 0.0, 0.0, 0.0, 0.0])
        basis = [2, 1, 3]
        assert simplex._pivot_until_optimal(T, obj, basis, allow_cols=4) == (1, False)
        assert basis == [2, 0, 3]

    def test_pivot_below_tolerance_raises(self):
        T = np.array([[0.5 * simplex.PIVOT_TOL, 1.0, 1.0]])
        with pytest.raises(simplex.SimplexError, match="below tolerance"):
            simplex._pivot(T, np.zeros(3), [1], 0, 0)


def random_bounded_lp(rng, n, m):
    """A random LP and an interior point ``x0 > 0`` of it: feasible by
    construction, ``b = A @ x0``, and bounded by an appended mass row
    ``sum(x) = sum(x0)``."""
    A = rng.normal(size=(m, n))
    x0 = rng.uniform(0.2, 1.0, size=n)
    A = np.vstack([A, np.ones(n)])
    c = rng.normal(size=n)
    return StandardLp(c=c, A=A, b=A @ x0), x0


class TestAgainstVertexOracle:
    def _random_bounded_lp(self, rng, n, m):
        return random_bounded_lp(rng, n, m)[0]

    def test_random_instances(self):
        rng = np.random.default_rng(1234)
        for _ in range(60):
            n = int(rng.integers(2, 7))
            m = int(rng.integers(1, n))
            lp = self._random_bounded_lp(rng, n, m)
            sol = solve_lp(lp)
            assert sol.optimal, sol.status
            expect = vertex_oracle(lp)
            assert sol.objective == pytest.approx(
                expect, abs=1e-7 * (1.0 + abs(expect))
            )
            assert sol.x.min(initial=0.0) >= -1e-9
            resid = np.abs(lp.A @ sol.x - lp.b).max()
            assert resid <= 1e-7 * (1.0 + np.abs(lp.b).max())

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        lp = self._random_bounded_lp(rng, 5, 3)
        a = solve_lp(lp)
        b = solve_lp(lp)
        assert np.array_equal(a.x, b.x)
        assert a.objective == b.objective
        assert a.iterations == b.iterations


class TestCrashBasis:
    def test_matches_all_artificial_start(self):
        # A = [G | I] plus a mass row: each row with b >= 0 starts with its
        # slack basic. Doubling every row leaves the same LP with no +1
        # entry, so every row starts with an artificial variable instead.
        rng = np.random.default_rng(99)
        for _ in range(60):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(1, 5))
            A = np.vstack([np.hstack([rng.normal(size=(m, n)), np.eye(m)]),
                           np.ones(n + m)])
            b = A @ rng.uniform(0.2, 1.0, size=n + m)
            c = np.concatenate([rng.normal(size=n), np.zeros(m)])
            crash = solve_lp(StandardLp(c=c, A=A, b=b))
            plain = solve_lp(StandardLp(c=c, A=2.0 * A, b=2.0 * b))
            assert crash.optimal and plain.optimal
            assert crash.objective == pytest.approx(
                plain.objective, abs=1e-9 * (1.0 + abs(plain.objective))
            )
            expect = vertex_oracle(StandardLp(c=c, A=A, b=b))
            assert crash.objective == pytest.approx(
                expect, abs=1e-7 * (1.0 + abs(expect))
            )

    def test_no_rows(self):
        sol = solve_lp(StandardLp(c=[1.0, 2.0], A=np.zeros((0, 2)), b=[]))
        assert sol.optimal
        assert sol.x == pytest.approx([0.0, 0.0])

    def test_all_rows_crashed(self):
        # min -x0 s.t. x0 + s0 = 2, x0 + x1 + s1 = 3: s0 starts basic in
        # row 0 and x1, the lowest zero-cost +1 singleton, in row 1; phase
        # 1 makes no pivot and phase 2 one
        lp = StandardLp(
            c=[-1.0, 0.0, 0.0, 0.0],
            A=[[1.0, 0.0, 1.0, 0.0], [1.0, 1.0, 0.0, 1.0]],
            b=[2.0, 3.0],
        )
        sol = solve_lp(lp)
        assert sol.optimal
        assert sol.iterations == 1
        assert sol.x == pytest.approx([2.0, 1.0, 0.0, 0.0], abs=1e-12)


class TestDegenerateTransportation:
    def test_alternative_optima_resolved_deterministically(self):
        # 2x2 transportation with a flat objective direction
        row = np.array([3.0, 2.0])
        col = np.array([2.5, 2.5])
        A = np.array(
            [
                [1.0, 1.0, 0.0, 0.0],
                [0.0, 0.0, 1.0, 1.0],
                [1.0, 0.0, 1.0, 0.0],
                [0.0, 1.0, 0.0, 1.0],
            ]
        )
        b = np.concatenate([row, col])
        c = np.array([1.0, 1.0, 1.0, 1.0])  # every feasible point is optimal
        first = solve_lp(StandardLp(c=c, A=A, b=b))
        second = solve_lp(StandardLp(c=c, A=A, b=b))
        assert first.optimal
        assert first.objective == pytest.approx(5.0, abs=1e-9)
        assert np.array_equal(first.x, second.x)


class TestDriveOutArtificials:
    def test_matches_membership_scan(self, monkeypatch):
        # rows that are combinations of others, and zeros in the generating
        # point, leave artificial variables basic at zero after phase 1;
        # each drive-out runs on the phase-1 tableau beside the loop oracle
        real = simplex._drive_out_artificials
        outcomes = {"pivoted": 0, "dropped": 0}

        def compare(T, basis, n):
            T_loop, basis_loop = T.copy(), list(basis)
            expect = loop_drive_out_artificials(T_loop, basis_loop, n)
            artificial = sum(var >= n for var in basis)
            keep = real(T, basis, n)
            assert keep == expect
            assert basis == basis_loop
            assert np.array_equal(T, T_loop)
            outcomes["dropped"] += T.shape[0] - len(keep)
            outcomes["pivoted"] += artificial - (T.shape[0] - len(keep))
            return keep

        monkeypatch.setattr(simplex, "_drive_out_artificials", compare)
        rng = np.random.default_rng(2024)
        for _ in range(80):
            n = int(rng.integers(2, 9))
            m = int(rng.integers(1, n))
            A = rng.integers(-2, 3, size=(m, n)).astype(float)
            mix = rng.integers(-1, 2, size=(int(rng.integers(1, 4)), m))
            A = np.vstack([A, mix @ A, np.ones(n)])[rng.permutation(m + mix.shape[0] + 1)]
            x0 = rng.integers(0, 3, size=n).astype(float)
            c = rng.normal(size=n)
            sol = solve_lp(StandardLp(c=c, A=A, b=A @ x0))
            assert sol.optimal, sol.status
        assert outcomes["pivoted"] > 0 and outcomes["dropped"] > 0, outcomes


class TestDuals:
    @staticmethod
    def assert_dual_optimal(lp, sol):
        """``b @ duals`` is the objective and no reduced cost is negative
        beyond the entering tolerance, scaled like the duals."""
        assert sol.optimal, sol.status
        assert sol.duals.shape == lp.b.shape
        assert lp.b @ sol.duals == pytest.approx(
            sol.objective, rel=1e-9, abs=1e-9
        )
        reduced = lp.c - lp.A.T @ sol.duals
        scale = 1.0 + np.abs(lp.c).max() + np.abs(sol.duals).max()
        assert reduced.min() >= -ENTER_TOL * scale

    def test_random_feasible_lps(self):
        # rows negated at random, so some start flipped for a negative
        # right-hand side and their duals are flipped back
        rng = np.random.default_rng(611)
        flipped = 0
        for _ in range(60):
            n = int(rng.integers(2, 8))
            m = int(rng.integers(1, n))
            lp, _ = random_bounded_lp(rng, n, m)
            sign = rng.choice([-1.0, 1.0], size=lp.b.size)
            lp = StandardLp(c=lp.c, A=sign[:, None] * lp.A, b=sign * lp.b)
            flipped += int((lp.b < 0).sum())
            self.assert_dual_optimal(lp, solve_lp(lp))
        assert flipped > 0

    def test_redundant_rows_dropped(self, monkeypatch):
        # rows that are combinations of others: phase 1 drops a tableau row
        # for each, and the original rows it keeps can be dependent, so
        # the duals still price every column of the full system
        real = simplex._drive_out_artificials
        dropped = []

        def counted(T, basis, n):
            keep = real(T, basis, n)
            dropped.append(T.shape[0] - len(keep))
            return keep

        monkeypatch.setattr(simplex, "_drive_out_artificials", counted)
        rng = np.random.default_rng(2024)
        for _ in range(40):
            n = int(rng.integers(2, 9))
            m = int(rng.integers(1, n))
            A = rng.integers(-2, 3, size=(m, n)).astype(float)
            mix = rng.integers(-1, 2, size=(int(rng.integers(1, 4)), m))
            A = np.vstack([A, mix @ A, np.ones(n)])
            lp = StandardLp(c=rng.normal(size=n), A=A, b=A @ rng.integers(0, 3, size=n))
            self.assert_dual_optimal(lp, solve_lp(lp))
        assert sum(dropped) > 0

    def test_no_rows(self):
        sol = solve_lp(StandardLp(c=[1.0, 2.0], A=np.zeros((0, 2)), b=[]))
        assert sol.duals.shape == (0,)

    def test_not_optimal_has_no_duals(self):
        infeasible = StandardLp(c=[1.0], A=[[1.0]], b=[-1.0])
        unbounded = StandardLp(c=[-1.0, 0.0], A=[[1.0, -1.0]], b=[0.0])
        assert solve_lp(infeasible).duals is None
        assert solve_lp(unbounded).duals is None
