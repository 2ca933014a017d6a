import dataclasses
import json
import math
import re

import numpy as np
import pytest

import pathpay.equilibrium
from _instances import (
    benchmark_module,
    parallel_network,
    random_chain,
    random_grid,
    random_network,
    seeded_chain_or_grid,
    stall_grid,
)
from _oracles import frank_wolfe_oracle
from pathpay import (
    ConvergenceError,
    Link,
    LinkCostFn,
    Network,
    average_time,
    enumerate_paths,
    parse_network,
    solve_so,
    solve_ue,
)
from pathpay.equilibrium import _descend

# closed-form optima for the bundled network: equal marginal costs (SO) and
# equal travel times (UE) across each pair of parallel links
SO_FLOWS = np.array([250.0, 750.0, 450.0, 550.0])
SO_TIMES = np.array([22.5, 20.0, 17.0, 20.5])
UE_FLOWS = np.array([1500.0 / 7, 5500.0 / 7, 1700.0 / 3, 1300.0 / 3])
UE_TIME = 145.0 / 7 + 58.0 / 3


def two_link_net(a0s, a1s, demand=100.0):
    links = [
        {"id": i + 1, "from": "A", "to": "B",
         "cost": {"kind": "linear", "params": [a0, a1]}}
        for i, (a0, a1) in enumerate(zip(a0s, a1s))
    ]
    return parse_network(
        json.dumps(
            {
                "nodes": ["A", "B"],
                "links": links,
                "demand": {
                    "origin": "A",
                    "destination": "B",
                    "total": demand,
                    "subscribers": demand / 2,
                },
            }
        )
    )


def all_or_nothing(net, paths, regime):
    """Path flows with the whole demand on the cheapest path of the empty
    network, ties toward the lowest index."""
    _, gradient, _ = net.link_objective(np.zeros(len(net.links)), regime)
    start = np.zeros(len(paths))
    start[(paths.incidence.T @ gradient).argmin()] = net.demand
    return start


def wide_network():
    """405 parallel links of cost ``free + q``, ``free`` climbing from 10 by
    0.01 a link, under a demand of 1000: every link is used at both optima.
    Returns the network and ``free``."""
    free = 10.0 + 0.01 * np.arange(405)
    net = parallel_network([LinkCostFn("linear", (a, 1.0)) for a in free])
    return dataclasses.replace(net, demand=1000.0, subscriber_demand=500.0), free


class TestFixtureSolutions:
    def test_so_matches_analytic(self, demo_network):
        paths = enumerate_paths(demo_network)
        sol = solve_so(demo_network, paths)
        assert sol.link_flows == pytest.approx(SO_FLOWS, abs=1e-3)
        assert demo_network.link_times(sol.link_flows) == pytest.approx(
            SO_TIMES, abs=1e-4
        )
        assert sol.regime == "SO"
        assert sol.relative_gap <= 1e-8

    def test_ue_matches_analytic(self, demo_network):
        paths = enumerate_paths(demo_network)
        sol = solve_ue(demo_network, paths)
        assert sol.link_flows == pytest.approx(UE_FLOWS, abs=1e-3)
        assert sol.ue_time == pytest.approx(UE_TIME, abs=1e-5)

    def test_iteration_counts(self, demo_network):
        # the costs are linear, so the objective is quadratic and each Newton
        # step solves it exactly on its active set: the loaded start carries
        # every path the optimum uses, so one step reaches it
        paths = enumerate_paths(demo_network)
        for solver in (solve_so, solve_ue):
            sol = solver(demo_network, paths)
            assert (sol.iterations, sol.newton_steps) == (1, 1)

    def test_average_times(self, demo_network):
        paths = enumerate_paths(demo_network)
        assert average_time(solve_so(demo_network, paths)) == pytest.approx(
            39.55, abs=1e-3
        )
        assert average_time(solve_ue(demo_network, paths)) == pytest.approx(
            40.0476, abs=1e-3
        )


class TestEdgeCases:
    def test_zero_demand(self):
        net = two_link_net([1.0, 2.0], [0.1, 0.1], demand=0.0)
        paths = enumerate_paths(net)
        for solver in (solve_so, solve_ue):
            sol = solver(net, paths)
            assert sol.link_flows == pytest.approx([0.0, 0.0])
            assert sol.total_time == 0.0
            with pytest.raises(ValueError):
                average_time(sol)

    def test_symmetric_split(self):
        # at tol 0.6 neither path carries more than tol * demand, so the
        # certificate's spread is 0
        net = two_link_net([5.0, 5.0], [0.1, 0.1], demand=100.0)
        paths = enumerate_paths(net)
        for solver in (solve_so, solve_ue):
            for tol in (1e-8, 0.6):
                sol = solver(net, paths, tol=tol)
                assert sol.link_flows == pytest.approx([50.0, 50.0], abs=1e-6)

    def test_single_path_ue_equals_so(self):
        net = parse_network(
            json.dumps(
                {
                    "nodes": ["A", "B", "C"],
                    "links": [
                        {"id": 1, "from": "A", "to": "B",
                         "cost": {"kind": "linear", "params": [3.0, 0.01]}},
                        {"id": 2, "from": "B", "to": "C",
                         "cost": {"kind": "bpr", "params": [4.0, 50.0, 0.15, 4.0]}},
                    ],
                    "demand": {"origin": "A", "destination": "C",
                               "total": 80.0, "subscribers": 40.0},
                }
            )
        )
        paths = enumerate_paths(net)
        so = solve_so(net, paths)
        ue = solve_ue(net, paths)
        assert so.link_flows == pytest.approx(ue.link_flows, abs=1e-9)
        assert ue.ue_time == pytest.approx(float(ue.path_times[0]), rel=1e-12)

    def test_zero_cost_network(self):
        net = two_link_net([0.0, 0.0], [0.0, 0.0], demand=10.0)
        paths = enumerate_paths(net)
        sol = solve_so(net, paths)
        assert sol.total_time == 0.0
        assert average_time(sol) == 0.0

    def test_non_convergence_reports_gap(self, monkeypatch, demo_network):
        paths = enumerate_paths(demo_network)
        # the cap is MAX_ITER plus two iterations per path: here one in all
        monkeypatch.setattr(pathpay.equilibrium, "MAX_ITER", 1 - 2 * len(paths))
        with pytest.raises(ConvergenceError, match=r"no convergence in 1 iterations") as err:
            solve_so(demo_network, paths)
        assert err.value.achieved_gap > 0

    def test_wide_parallel_network(self):
        # 405 parallel links, every one used at the optimum. The cold solve
        # loads the demand in 405 parts, one per link, and a Newton step on
        # the loaded paths finishes it
        net, free = wide_network()
        n, demand = free.size, net.demand
        paths = enumerate_paths(net)
        sol = solve_so(net, paths)
        # equal marginal costs: free + 2 q = level on every link
        level = (2 * demand + free.sum()) / n
        expect = (level - free) / 2
        assert expect.min() > 0
        assert sol.link_flows == pytest.approx(expect, abs=1e-7 * demand)
        assert sol.iterations <= 2
        # from one path the active set gains one path per iteration, so the
        # solve takes more than MAX_ITER iterations: the cap grows with the
        # path count
        start = np.zeros(n)
        start[0] = demand
        ue = solve_ue(net, paths, start=start)
        # equal times: free + q = level on every link
        expect = (demand + free.sum()) / n - free
        assert expect.min() > 0
        assert ue.link_flows == pytest.approx(expect, abs=1e-7 * demand)
        assert pathpay.equilibrium.MAX_ITER < ue.iterations <= 2 * n

    def test_bad_tol(self, demo_network):
        paths = enumerate_paths(demo_network)
        with pytest.raises(ValueError):
            solve_so(demo_network, paths, tol=0.0)

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -np.inf, 1e300, 1.0, -1e-8])
    @pytest.mark.parametrize("solver", [solve_so, solve_ue])
    def test_tol_must_be_finite_below_one(self, demo_network, solver, tol):
        # nan once ran MAX_ITER iterations; inf accepted the starting point
        paths = enumerate_paths(demo_network)
        with pytest.raises(ValueError, match=r"tol must be a finite number in \(0, 1\)"):
            solver(demo_network, paths, tol=tol)

    def test_certificate_failure_names_spread(self, monkeypatch, demo_network):
        # from all-or-nothing at tol 1e-30 the UE gap reaches 0, but rounding
        # leaves the used paths' costs 7e-15 apart, above the certificate's
        # 4e-29, and the path flows stop changing before iteration 100: the
        # message must name that spread, not the met gap
        paths = enumerate_paths(demo_network)
        monkeypatch.setattr(pathpay.equilibrium, "MAX_ITER", 100)
        start = all_or_nothing(demo_network, paths, "UE")
        with pytest.raises(ConvergenceError) as err:
            solve_ue(demo_network, paths, tol=1e-30, start=start)
        assert err.value.achieved_gap <= 1e-30
        message = str(err.value)
        assert re.match(
            r"no convergence, stalled at iteration \d+ \(path flows unchanged\): "
            "relative gap ",
            message,
        )
        assert "is within tol, but the used paths' costs spread " in message
        assert "over the certificate's bound " in message

    def test_stall_stops_the_solve(self, demo_network):
        # an iterate the step leaves unchanged repeats forever: the solve
        # stops there instead of running out MAX_ITER iterations
        paths = enumerate_paths(demo_network)
        start = all_or_nothing(demo_network, paths, "UE")
        with pytest.raises(ConvergenceError) as err:
            solve_ue(demo_network, paths, tol=1e-30, start=start)
        stalled = re.match(r"no convergence, stalled at iteration (\d+) ", str(err.value))
        assert stalled is not None
        assert int(stalled.group(1)) < 100

    def test_flow_moves_between_constant_links(self):
        # links at a constant 10 and 12 min beside 5 + 0.01 q: the Hessian
        # is 0 on the constant links, so the minimum-norm Newton direction
        # never moves flow between them, and the solve stalls at iteration 2
        # without the projected gradient, which empties the 12-min link
        fns = [LinkCostFn("linear", (10.0, 0.0)), LinkCostFn("linear", (12.0, 0.0)),
               LinkCostFn("linear", (5.0, 0.01))]
        net = dataclasses.replace(parallel_network(fns), demand=1000.0, subscriber_demand=500.0)
        paths = enumerate_paths(net)
        sol = solve_ue(net, paths, start=[1.0, 1.0, 1.0])
        TestInvariants()._check_solution(net, paths, sol, 1e-8)
        expect = frank_wolfe_oracle(net, paths, "UE")
        assert sol.link_flows == pytest.approx(expect, abs=1e-7 * net.demand)
        assert sol.iterations > sol.newton_steps


def descend(net, regime, f, direction):
    """The solver's step from path flows ``f`` on ``net`` along the path
    ``direction``: the returned path flows and point, and the link flows of
    every trial the step made a cost pass at."""
    paths = enumerate_paths(net)
    trials = []

    def cost_pass(flows):
        trials.append(flows)
        return net.link_objective(flows, regime)

    value, gradient, _ = net.link_objective(paths.incidence @ f, regime)
    path_costs = paths.incidence.T @ gradient
    moved, point = _descend(
        cost_pass, paths.incidence, net.demand, f, value, path_costs, direction
    )
    return moved, point, trials


class TestBacktracking:
    # shift all 100 trips from link 1 (5 + 0.1 q) to link 2 (10 + q)
    net = two_link_net([5.0, 10.0], [0.1, 1.0], demand=100.0)
    f = np.array([100.0, 0.0])
    direction = np.array([-100.0, 100.0])

    @pytest.mark.parametrize("regime, halvings", [("UE", 4), ("SO", 3)])
    def test_overshooting_step_halves_until_armijo_holds(self, regime, halvings):
        # the unit step moves every trip to the steep link and raises the
        # objective; each halving is tried in turn, one cost pass each, and
        # the first that passes Armijo's test is taken with its pass
        moved, point, trials = descend(self.net, regime, self.f, self.direction)
        assert len(trials) == halvings + 1
        expect = self.f + 2.0**-halvings * self.direction
        assert moved.tolist() == expect.tolist()
        assert point[0] is trials[-1]
        assert point[0].tolist() == moved.tolist()  # one link per path
        value, gradient, _ = self.net.link_objective(self.f, regime)
        bound = value + pathpay.equilibrium._ARMIJO * float(gradient @ (moved - self.f))
        assert point[1] <= bound
        for flows in trials[:-1]:
            assert self.net.link_objective(flows, regime)[0] > bound

    @pytest.mark.parametrize("regime", ["UE", "SO"])
    def test_non_descent_direction_makes_no_pass(self, regime):
        moved, point, trials = descend(self.net, regime, self.f, -self.direction)
        assert moved is self.f
        assert point is None
        assert trials == []

    @pytest.mark.parametrize(
        "f, direction, passes",
        [
            # every trial moves the flows, down to 2**-50 of the direction
            ([100.0, 0.0], [-100.0, 100.0], pathpay.equilibrium._HALVINGS + 1),
            # from 2**-15 of the direction on, a trial rounds back to f
            ([50.0, 50.0], [1e-10, -1e-10], 15),
        ],
        ids=["every-halving", "rounds-to-start"],
    )
    def test_direction_that_never_passes_is_given_up(self, f, direction, passes):
        f = np.array(f)
        value, gradient, _ = self.net.link_objective(f, "UE")
        assert float(gradient @ np.array(direction)) < 0  # a descent direction
        trials = []

        def cost_pass(flows):
            # an objective that reads higher at every trial than at f
            trials.append(flows)
            return (value + 1.0, *self.net.link_objective(flows, "UE")[1:])

        incidence = np.eye(2)
        moved, point = _descend(
            cost_pass, incidence, self.net.demand, f, value, gradient, np.array(direction)
        )
        assert moved is f
        assert point is None
        assert len(trials) == passes


def bpr_chain(widths=(3, 3, 3)):
    """Series-parallel chain of BPR links (power 4) whose free-flow times and
    capacities climb with the link's place in its segment."""
    nodes = tuple(f"N{s}" for s in range(len(widths) + 1))
    links = []
    for s, width in enumerate(widths):
        for k in range(width):
            fn = LinkCostFn("bpr", (8.0 + 4.0 * k, 200.0 + 100.0 * k, 0.15, 4.0))
            links.append(Link(len(links) + 1, nodes[s], nodes[s + 1], fn))
    return Network(nodes, tuple(links), nodes[0], nodes[-1], 1000.0, 800.0)


class TestCostPasses:
    """Cost passes per iteration: unlike timings, the counts repeat exactly."""

    def test_fixture(self, demo_network):
        # at most 3 passes per iteration, on top of the loading's 3
        paths = enumerate_paths(demo_network)
        for solver in (solve_so, solve_ue):
            sol = solver(demo_network, paths)
            assert sol.cost_passes - 3 <= 3 * sol.iterations

    def test_bpr_chain(self):
        # every step is a unit Newton step that passes Armijo's test, and
        # its cost pass is the next iterate's: one pass per iterate, plus
        # the loading's 7 (9 links, 4 nodes)
        net = bpr_chain()
        paths = enumerate_paths(net)
        for solver, counts in ((solve_so, (4, 4, 12)), (solve_ue, (5, 5, 13))):
            sol = solver(net, paths)
            assert (sol.iterations, sol.newton_steps, sol.cost_passes) == counts


class TestLoading:
    """The cold start: the demand loaded in links - nodes + 2 equal parts,
    each on the cheapest path at the flows loaded before it."""

    @pytest.mark.parametrize(
        "instance, parts",
        [("fixture", 3), ("linear-3x3x3x3", 9), ("bpr-3x3x3", 7), ("wide", 405)],
    )
    @pytest.mark.parametrize("solver", [solve_so, solve_ue])
    def test_one_pass_per_part(self, monkeypatch, demo_network, instance, parts, solver):
        if instance == "fixture":
            net = demo_network
        elif instance == "wide":
            net = wide_network()[0]
        else:
            net = TestWarmStart.INSTANCES[instance]()
        paths = enumerate_paths(net)
        passes = []
        link_objective = Network.link_objective

        def counted(self, link_flows, regime):
            passes.append(link_flows)
            return link_objective(self, link_flows, regime)

        before = []
        newton_direction = pathpay.equilibrium._newton_direction

        def spy(incidence, curvature, path_costs, f, cheapest):
            before.append(len(passes))
            return newton_direction(incidence, curvature, path_costs, f, cheapest)

        monkeypatch.setattr(Network, "link_objective", counted)
        monkeypatch.setattr(pathpay.equilibrium, "_newton_direction", spy)
        sol = solver(net, paths)
        # the parts' passes, then the loaded start's, before the first step
        assert before[0] == parts + 1
        assert sol.cost_passes == len(passes)

    def test_tie_loads_the_lowest_index(self, monkeypatch):
        # links 2 and 3 are equal and cheaper than link 1: the first part
        # goes to link 2, the second to link 3, and the third, at a tie
        # again, to link 2
        net = parallel_network([LinkCostFn("linear", (a0, 0.1)) for a0 in (10.0, 5.0, 5.0)])
        net = dataclasses.replace(net, demand=30.0, subscriber_demand=15.0)
        paths = enumerate_paths(net)
        starts = []
        newton_direction = pathpay.equilibrium._newton_direction

        def spy(incidence, curvature, path_costs, f, cheapest):
            starts.append(f.copy())
            return newton_direction(incidence, curvature, path_costs, f, cheapest)

        monkeypatch.setattr(pathpay.equilibrium, "_newton_direction", spy)
        for solver in (solve_so, solve_ue):
            starts.clear()
            solver(net, paths)
            assert starts[0].tolist() == [0.0, 20.0, 10.0]

    @pytest.mark.parametrize("solver", [solve_so, solve_ue])
    def test_overflow_raises_from_cold_start(self, demo_network, solver):
        net = dataclasses.replace(demo_network, demand=1e308)
        paths = enumerate_paths(net)
        with pytest.raises(ConvergenceError) as err:
            solver(net, paths)
        assert str(err.value) == (
            "link costs overflow at demand 1e+308 (non-finite path cost or gap at "
            "iteration 1); scale the demand or the link cost parameters down"
        )
        assert math.isnan(err.value.achieved_gap)


class TestDiagnostics:
    def test_gap_history(self, demo_network):
        nets = [demo_network, bpr_chain(), two_link_net([1.0, 2.0], [0.1, 0.1], 0.0)]
        for net in nets:
            paths = enumerate_paths(net)
            for solver in (solve_so, solve_ue):
                sol = solver(net, paths)
                # one gap per iterate, the start included
                assert len(sol.gap_history) == sol.iterations + 1
                assert sol.gap_history[-1] == sol.relative_gap
                assert all(type(gap) is float for gap in sol.gap_history)
                assert 0 <= sol.newton_steps <= sol.iterations


class TestInvariants:
    def _check_solution(self, net, paths, sol, tol):
        d = net.demand
        # conservation: path flows reproduce link flows and total demand,
        # relative to the demand, so that a solve losing a tiny one fails
        assert paths.incidence @ sol.path_flows == pytest.approx(
            sol.link_flows, rel=0, abs=1e-12 * d
        )
        assert sol.path_flows.sum() == pytest.approx(d, rel=0, abs=1e-12 * d)
        assert sol.path_flows.min(initial=0.0) >= 0.0
        # reported times are exactly the times at the reported flows
        times = net.link_times(sol.link_flows)
        assert sol.path_times == pytest.approx(paths.incidence.T @ times, abs=1e-12)
        assert sol.total_time == pytest.approx(float(sol.link_flows @ times))
        # optimality certificate at the solver tolerance
        _, gradient, _ = net.link_objective(sol.link_flows, sol.regime)
        path_costs = paths.incidence.T @ gradient
        used = sol.path_flows > tol * d
        if used.any():
            excess = path_costs[used].max() - path_costs.min()
            assert excess <= tol * (1.0 + abs(path_costs.min()))

    def test_fixture_certificates(self, demo_network):
        paths = enumerate_paths(demo_network)
        for solver in (solve_so, solve_ue):
            self._check_solution(
                demo_network, paths, solver(demo_network, paths, tol=1e-8), 1e-8
            )

    def test_random_networks(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            net = random_network(rng)
            paths = enumerate_paths(net)
            so = solve_so(net, paths)
            ue = solve_ue(net, paths)
            self._check_solution(net, paths, so, 1e-8)
            self._check_solution(net, paths, ue, 1e-8)
            assert so.total_time <= ue.total_time + 1e-6 * net.demand
            # used UE paths share the equilibrium time
            used = ue.path_flows > 1e-6 * net.demand
            spread = ue.path_times[used].max() - ue.path_times[used].min()
            assert spread <= 1e-6 * (1.0 + ue.ue_time)

    def test_random_networks_match_oracle_solver(self):
        rng = np.random.default_rng(43)
        kinds = (
            lambda: LinkCostFn("linear", (rng.uniform(1.0, 30.0), rng.uniform(0.005, 0.1))),
            lambda: LinkCostFn(
                "polynomial",
                [rng.uniform(1.0, 30.0), 0.0, rng.uniform(1e-5, 1e-4), 1e-7]
            ),
            lambda: LinkCostFn("bpr", (
                rng.uniform(1.0, 30.0),
                rng.uniform(100.0, 1000.0),
                0.15,
                float(rng.choice([1.0, 1.5, 4.0])),
            )),
        )
        for _ in range(20):
            net = random_network(rng)
            links = tuple(
                dataclasses.replace(ln, cost_fn=kinds[int(rng.integers(3))]())
                for ln in net.links
            )
            net = dataclasses.replace(net, links=links)
            paths = enumerate_paths(net)
            for solver, regime in ((solve_so, "SO"), (solve_ue, "UE")):
                flows = solver(net, paths).link_flows
                expect = frank_wolfe_oracle(net, paths, regime)
                assert flows == pytest.approx(expect, abs=1e-7 * net.demand)

    def test_bit_identical_reruns(self, demo_network):
        paths = enumerate_paths(demo_network)
        for solver in (solve_so, solve_ue):
            a = solver(demo_network, paths)
            b = solver(demo_network, paths)
            assert np.array_equal(a.link_flows, b.link_flows)
            assert np.array_equal(a.path_flows, b.path_flows)
            assert a.total_time == b.total_time

    @pytest.mark.parametrize("seed", range(8))
    def test_random_chains_and_grids(self, seed):
        # chains of 2-4 segments of 2-3 links and 3x3 or 4x4 grids, with
        # linear or BPR costs: the certificate holds, the link flows match
        # the oracle and a rerun repeats every bit
        net = seeded_chain_or_grid(seed)
        paths = enumerate_paths(net)
        for solver, regime in ((solve_so, "SO"), (solve_ue, "UE")):
            sol = solver(net, paths)
            self._check_solution(net, paths, sol, 1e-8)
            expect = frank_wolfe_oracle(net, paths, regime)
            assert sol.link_flows == pytest.approx(expect, abs=1e-7 * net.demand)
            again = solver(net, paths)
            assert np.array_equal(again.path_flows, sol.path_flows)
            assert np.array_equal(again.link_flows, sol.link_flows)
            assert again.gap_history == sol.gap_history

    @pytest.mark.parametrize(
        "t0, cap, power, demand, newton_steps",
        [
            # curvatures near 1e300 beside the unit demand row of the KKT
            # system: unscaled, least squares dropped that row and the demand
            (1.0, 1e-3, 50.0, 1000.0, 16),
            # curvature overflows to inf, so no Newton direction is formed
            # and LAPACK must not see it (it printed to stderr and raised):
            # every step takes the projected gradient, an identity KKT
            (1e100, 1e-300, 4.0, 1e-300, 0),
        ],
        ids=["stiff", "overflowing-curvature"],
    )
    def test_extreme_bpr_chains(self, capfd, t0, cap, power, demand, newton_steps):
        net = random_chain(np.random.default_rng(0), (3, 2), "bpr")
        links = tuple(
            dataclasses.replace(
                ln,
                cost_fn=LinkCostFn("bpr", (t0 * (1 + 0.1 * i), cap * (1 + 0.2 * i), 0.15, power)),
            )
            for i, ln in enumerate(net.links)
        )
        net = dataclasses.replace(net, links=links, demand=demand, subscriber_demand=demand / 2)
        paths = enumerate_paths(net)
        sol = solve_so(net, paths)
        self._check_solution(net, paths, sol, 1e-8)
        # the check above holds the demand to 1e-6 absolute, which a solve
        # that lost all of a demand of 1e-300 would pass
        assert sol.path_flows.sum() == pytest.approx(demand, rel=1e-12, abs=0.0)
        assert sol.newton_steps == newton_steps
        assert capfd.readouterr().err == ""


def seeded_network(family: str, seed: int) -> Network:
    """``seeded_chain_or_grid(seed)`` ("seeded") or a 5 x 5 ``random_grid``
    ("grid"), linear on even seeds and BPR on odd ones."""
    if family == "seeded":
        return seeded_chain_or_grid(seed)
    return random_grid(np.random.default_rng(seed), 5, ("linear", "bpr")[seed % 2])


class TestRoundingFloor:
    """Near a BPR optimum a step's predicted decrease can fall below the
    objective's rounding, where Armijo's test fails on rounding alone. These
    SO and warm UE solves stopped there without the floor rule, which takes
    such a trial when it lowers the gap."""

    @staticmethod
    def solve(net, tol):
        paths = enumerate_paths(net)
        so = solve_so(net, paths, tol=tol)
        TestInvariants()._check_solution(net, paths, so, tol)
        ue = solve_ue(net, paths, tol=tol, start=so.path_flows)
        TestInvariants()._check_solution(net, paths, ue, tol)

    @pytest.mark.parametrize(
        "family, seed",
        [
            ("seeded", 711),  # the warm UE ran out of iterations
            ("seeded", 839),  # the warm UE stalled
            ("seeded", 1083),  # the SO stalled above tol
            ("seeded", 6295),
            ("grid", 109),
            ("grid", 2031),  # the SO stalled within tol, on the certificate
            ("grid", 3487),
        ],
    )
    def test_solves_at_default_tol(self, family, seed):
        self.solve(seeded_network(family, seed), 1e-8)

    def test_tight_tol_sweep(self):
        # 11 of these 300 networks stopped at this tol without the rule
        for seed in range(150):
            for family in ("seeded", "grid"):
                self.solve(seeded_network(family, seed), 1e-10)


class TestWarmStart:
    """The UE started from the SO's path flows, as the CLI solves it."""

    INSTANCES = {
        # the benchmark's two chain shapes
        "linear-3x3x3x3": lambda: random_chain(np.random.default_rng(1), (3, 3, 3, 3), "linear"),
        "bpr-3x3x3": lambda: random_chain(np.random.default_rng(1), (3, 3, 3), "bpr"),
        **{f"seeded-{seed}": (lambda seed=seed: seeded_chain_or_grid(seed)) for seed in range(8)},
    }

    @pytest.mark.parametrize("instance", ["fixture", *INSTANCES])
    def test_matches_cold_solve(self, demo_network, instance):
        net = demo_network if instance == "fixture" else self.INSTANCES[instance]()
        paths = enumerate_paths(net)
        tol = 1e-10
        so = solve_so(net, paths, tol=tol)
        cold = solve_ue(net, paths, tol=tol)
        warm = solve_ue(net, paths, tol=tol, start=so.path_flows)
        TestInvariants()._check_solution(net, paths, warm, tol)
        assert warm.link_flows == pytest.approx(cold.link_flows, abs=tol * net.demand)
        assert warm.ue_time == pytest.approx(cold.ue_time, rel=tol)
        again = solve_ue(net, paths, tol=tol, start=so.path_flows)
        assert np.array_equal(again.path_flows, warm.path_flows)

    def test_saves_iterations_on_benchmark_chains(self, tmp_path):
        # on the benchmark's chains the SO already rides the paths the cold
        # UE spends its iterations finding: 5 -> 1 on the linear chain,
        # 6 -> 4 on the BPR chain. The loaded cold SO takes 6 and 5
        for inst in benchmark_module("instances").write_workload("many-paths", 1, tmp_path):
            net = parse_network(inst.network.read_text())
            paths = enumerate_paths(net)
            so = solve_so(net, paths)
            cold = solve_ue(net, paths)
            warm = solve_ue(net, paths, start=so.path_flows)
            assert so.iterations <= {"linear-3x3x3x3": 6, "bpr-3x3x3": 5}[inst.name]
            assert warm.iterations <= 4
            assert warm.iterations < cold.iterations
            assert warm.cost_passes < cold.cost_passes

    def test_never_slower_on_seeded_instances(self):
        # over 100 seeded chains and grids, the SO and the warm UE take no
        # more iterations, and no more passes net of the loading's, than
        # they took from all-or-nothing (731 and 268 iterations, 937 and 394
        # passes); these make 323 and 246, 431 and 358. The loaded cold UE
        # beats the warm one on 12 seeds, so no seed compares the two
        so_iterations = so_passes = warm_iterations = warm_passes = 0
        for seed in range(100):
            net = seeded_chain_or_grid(seed)
            paths = enumerate_paths(net)
            so = solve_so(net, paths)
            warm = solve_ue(net, paths, start=so.path_flows)
            so_iterations += so.iterations
            so_passes += so.cost_passes - max(1, len(net.links) - len(net.nodes) + 2)
            warm_iterations += warm.iterations
            warm_passes += warm.cost_passes
        assert so_iterations <= 731
        assert so_passes <= 937
        assert warm_iterations <= 268
        assert warm_passes <= 394

    def test_one_step_empties_two_paths(self, monkeypatch):
        # the SO rides 9 of this chain's 27 paths and the UE 8; the first
        # warm step empties paths 4, 8 and 24 together, where a step that
        # stops at the first path to empty empties one
        net = self.INSTANCES["bpr-3x3x3"]()
        paths = enumerate_paths(net)
        start = solve_so(net, paths).path_flows
        iterates = []
        newton_direction = pathpay.equilibrium._newton_direction

        def spy(incidence, curvature, path_costs, f, cheapest):
            iterates.append(f.copy())
            return newton_direction(incidence, curvature, path_costs, f, cheapest)

        monkeypatch.setattr(pathpay.equilibrium, "_newton_direction", spy)
        warm = solve_ue(net, paths, start=start)
        first = iterates[1]
        assert np.flatnonzero((start > 0) & (first == 0)).tolist() == [4, 8, 24]
        assert first.sum() == pytest.approx(net.demand, rel=1e-15)
        assert (warm.iterations, warm.newton_steps, warm.cost_passes) == (5, 5, 6)

    def test_rejected_unit_step_halves(self, monkeypatch):
        # on seeded-3, a 4 x 4 BPR grid of 20 paths, the first warm unit
        # step fails Armijo's test and the halved step passes it: the
        # iteration still takes the Newton direction
        net = seeded_chain_or_grid(3)
        paths = enumerate_paths(net)
        start = solve_so(net, paths).path_flows
        steps = []

        def spy(cost_pass, incidence, d, f, value, path_costs, direction, step=1.0):
            trials = []

            def counted(flows):
                trials.append(flows)
                return cost_pass(flows)

            moved, point = _descend(counted, incidence, d, f, value, path_costs, direction, step)
            steps.append((moved is not f, len(trials)))
            return moved, point

        monkeypatch.setattr(pathpay.equilibrium, "_descend", spy)
        warm = solve_ue(net, paths, start=start)
        TestInvariants()._check_solution(net, paths, warm, 1e-8)
        assert steps[0] == (True, 2)
        assert all(step == (True, 1) for step in steps[1:])
        assert warm.newton_steps == warm.iterations == len(steps) == 4
        # the start's pass and one per trial
        assert warm.cost_passes == 1 + sum(trials for _, trials in steps)

    def test_start_at_optimum_scaled_to_demand(self, demo_network):
        # a start is scaled to the demand, so three times the optimum is
        # the optimum: the solve returns it without an iteration
        paths = enumerate_paths(demo_network)
        sol = solve_ue(demo_network, paths)
        again = solve_ue(demo_network, paths, start=3 * sol.path_flows)
        assert again.iterations == 0
        assert again.path_flows == pytest.approx(sol.path_flows, rel=1e-12)

    @pytest.mark.parametrize(
        "start, message",
        [
            ([500.0, -1.0, 0.0, 500.0], r"start\[1\] is -1\.0"),
            ([500.0, 0.0, math.nan, 500.0], r"start\[2\] is nan"),
            ([math.inf, 0.0, 0.0, 0.0], r"start\[0\] is inf"),
            ([500.0, 500.0, 0.0], r"one flow per path: shape \(3,\) for 4 paths"),
            ([[500.0, 500.0, 0.0, 0.0]], r"shape \(1, 4\) for 4 paths"),
            ([0.0, 0.0, 0.0, 0.0], r"sum to 0\.0"),
            ([1e308, 1e308, 0.0, 0.0], r"sum to inf"),
        ],
        ids=["negative", "nan", "inf", "short", "2-d", "all-zero", "overflowing-sum"],
    )
    def test_bad_start_rejected(self, demo_network, start, message):
        paths = enumerate_paths(demo_network)
        with pytest.raises(ValueError, match=message):
            solve_ue(demo_network, paths, start=start)

    def test_zero_demand_ignores_start(self):
        # the SO's path flows at zero demand are all zero, which a solve
        # with demand would reject
        net = two_link_net([1.0, 2.0], [0.1, 0.1], demand=0.0)
        paths = enumerate_paths(net)
        so = solve_so(net, paths)
        sol = solve_ue(net, paths, start=so.path_flows)
        assert sol.iterations == 0
        assert sol.path_flows.tolist() == [0.0, 0.0]


def kkt_direction(incidence, curvature, path_costs, members):
    """The Newton direction over the paths ``members``: the minimum-norm
    least-squares solution of ``[H 1; 1.T 0] [p; mu] = [-c; 0]`` with
    ``H = A.T diag(curvature) A`` on those paths' incidence columns ``A``."""
    A = incidence[:, members]
    n = A.shape[1]
    kkt = np.zeros((n + 1, n + 1))
    kkt[:n, :n] = A.T @ np.diag(curvature) @ A
    kkt[:n, n] = kkt[n, :n] = 1.0
    rhs = np.append(-path_costs[members], 0.0)
    return np.linalg.lstsq(kkt, rhs, rcond=None)[0][:n]


class TestStallGrid:
    """The seeded 5 x 5 BPR grid of ``stall_grid``, and a BPR chain like it.
    Over the used paths plus the cheapest one, the Newton direction at some
    system-optimum iterates takes flow off the cheapest path while it
    carries none, so every trial along the projected arc clips that path at
    0 and leaves the Newton direction. Taken without the re-solve on the
    face, such steps raise the SO's cost passes on the 6 x 6 BPR grids of
    seeds 1-10 from 429 to 2062, and stall the 7 x 7 grid of seed 6."""

    @pytest.mark.parametrize(
        "net, iterations, after_used",
        [
            (stall_grid(), 6, [False, False]),
            # at the first such iterate the cheapest path's index is above
            # every used path's
            (seeded_chain_or_grid(93), 4, [True, False]),
        ],
        ids=["stall-grid", "chain"],
    )
    def test_cheapest_path_leaves_the_active_set(
        self, monkeypatch, net, iterations, after_used
    ):
        paths = enumerate_paths(net)
        newton_direction = pathpay.equilibrium._newton_direction
        blocked = []

        def spy(incidence, curvature, path_costs, f, cheapest):
            direction = newton_direction(incidence, curvature, path_costs, f, cheapest)
            members = np.flatnonzero((f > 0) | (np.arange(f.size) == cheapest))
            p = kkt_direction(incidence, curvature, path_costs, members)
            if f[cheapest] == 0 and p[np.searchsorted(members, cheapest)] < 0:
                # the direction the solver takes leaves that path empty, and
                # every path it takes flow off carries some: a positive step
                # along it keeps every flow non-negative
                shrinking = direction < 0
                step_max = float((f[shrinking] / -direction[shrinking]).min())
                blocked.append((direction[cheapest], step_max, cheapest == members[-1]))
            return direction

        monkeypatch.setattr(pathpay.equilibrium, "_newton_direction", spy)
        sol = solve_so(net, paths)
        assert [last for _, _, last in blocked] == after_used
        for on_cheapest, step_max, _ in blocked:
            assert on_cheapest == 0
            assert step_max > 0
        assert sol.newton_steps == sol.iterations == iterations

    @pytest.mark.parametrize("solver, regime", [(solve_so, "SO"), (solve_ue, "UE")])
    def test_matches_oracle(self, solver, regime):
        net = stall_grid()
        paths = enumerate_paths(net)
        sol = solver(net, paths)
        TestInvariants()._check_solution(net, paths, sol, 1e-8)
        expect = frank_wolfe_oracle(net, paths, regime)
        assert sol.link_flows == pytest.approx(expect, abs=1e-7 * net.demand)
