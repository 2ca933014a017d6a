import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

import pathpay.scheme
from _instances import (
    benchmark_module, make_table, random_chain, random_grid, random_network, random_vot,
    seeded_chain_or_grid,
)
from _oracles import (
    cdf, class_path_lp, first_master_lp, full_path_master, greedy_weighted_cost,
)
from conftest import FIXTURE_DIR
from pathpay import (
    FlowSolution,
    Link,
    LinkCostFn,
    Network,
    SchemeError,
    SchemeOutcome,
    VotDistribution,
    assign_outsider,
    assign_subscriber,
    build_outcome,
    compute_payments,
    cost_report,
    discretize,
    enumerate_paths,
    parse_network,
    parse_vot,
    run_scheme,
    solve_so,
    solve_subscriber_lp,
    solve_ue,
    vot_ranks,
)
from pathpay.scheme import _greedy_decomposition
from pathpay.simplex import solve_lp

# hand-computed payments for the reference scenario: sorted times
# (43, 40.5, 39.5, 37) min, shares (0.25, 0.30, 0, 0.45), partition
# (5, 17.2, 31.6, 31.6, 45) $/h. The cumulative gap values are
# (0, 43, 74.6, 153.6)/60 $, their share-weighted mean is 82.02/60 = 1.367 $.
SORTED_TIMES = np.array([43.0, 40.5, 39.5, 37.0])
PARTITION = np.array([5.0, 17.2, 31.6, 31.6, 45.0])
RHO = np.array([0.25, 0.30, 0.0, 0.45])
EXPECTED_PAYMENTS = np.array([-1.367, 43.0 / 60 - 1.367, 74.6 / 60 - 1.367, 1.193])
# the fixture's outcome holds the three ridden paths: the reference without
# its third path, whose empty interval adds nothing to the others' payments
RIDDEN = [0, 1, 3]


class TestSubscriberLp:
    def test_fixture_path_flows(self, demo_run):
        assign = demo_run.assignment
        assert assign.subscriber_path_flows == pytest.approx(
            [0.0, 200.0, 360.0, 240.0], abs=1e-4
        )
        assert assign.outsider_path_flows == pytest.approx(
            [0.0, 50.0, 90.0, 60.0], abs=1e-4
        )

    def test_class_and_link_constraints(self, demo_run, demo_network):
        totals = demo_run.assignment.subscriber_path_flows
        share = demo_network.subscriber_demand / demo_network.demand
        assert totals.sum() == pytest.approx(demo_network.subscriber_demand, abs=1e-6)
        link_flows = demo_run.paths.incidence @ totals
        assert link_flows == pytest.approx(demo_run.so.link_flows * share, abs=1e-5)
        assert totals.min() >= 0.0

    def test_no_outsiders(self, demo_vot):
        net = parse_network(
            json.dumps(
                {
                    "nodes": ["A", "B", "C"],
                    "links": [
                        {"id": 1, "from": "A", "to": "B",
                         "cost": {"kind": "linear", "params": [10.0, 0.05]}},
                        {"id": 2, "from": "A", "to": "B",
                         "cost": {"kind": "linear", "params": [5.0, 0.02]}},
                        {"id": 3, "from": "B", "to": "C",
                         "cost": {"kind": "linear", "params": [8.0, 0.02]}},
                        {"id": 4, "from": "B", "to": "C",
                         "cost": {"kind": "linear", "params": [15.0, 0.01]}},
                    ],
                    "demand": {"origin": "A", "destination": "C",
                               "total": 1000.0, "subscribers": 1000.0},
                }
            )
        )
        dist, _ = demo_vot
        result = run_scheme(net, dist, 50)
        assert result.assignment.outsider_path_flows == pytest.approx(
            [0.0] * 4, abs=1e-9
        )

    def test_zero_subscribers_rejected(self, demo_vot, demo_run):
        dist, _ = demo_vot
        net = parse_network(
            json.dumps(
                {
                    "nodes": ["A", "B"],
                    "links": [{"id": 1, "from": "A", "to": "B",
                               "cost": {"kind": "linear", "params": [1.0, 0.1]}}],
                    "demand": {"origin": "A", "destination": "B",
                               "total": 10.0, "subscribers": 0.0},
                }
            )
        )
        with pytest.raises(SchemeError):
            run_scheme(net, dist, 10)
        # an assignment no path is ridden on has no outcome
        idle = replace(demo_run.assignment, subscriber_path_flows=np.zeros(4))
        with pytest.raises(SchemeError, match="positive subscriber demand"):
            build_outcome(idle, dist, demo_run.so.path_times)

    def test_inconsistent_inputs_rejected(self, demo_run, demo_network, demo_vot):
        so = demo_run.so
        broken = FlowSolution(
            regime="SO",
            link_flows=so.link_flows * np.array([1.0, 1.0, 0.5, 1.0]),
            path_flows=so.path_flows,
            path_times=so.path_times,
            total_time=so.total_time,
            demand=so.demand,
            relative_gap=so.relative_gap,
            iterations=so.iterations,
        )
        with pytest.raises(SchemeError):
            solve_subscriber_lp(
                broken, demo_run.classes, demo_network, demo_run.paths
            )

    def test_class_demand_mismatch_rejected(self, demo_run, demo_network, demo_vot):
        dist, M = demo_vot
        classes = discretize(dist, 0.9 * demo_network.subscriber_demand, M)
        with pytest.raises(SchemeError, match="violates flow constraints"):
            solve_subscriber_lp(demo_run.so, classes, demo_network, demo_run.paths)

    def test_cycle_left_by_greedy_start(self):
        # the flow rides both paths through the A-B cycle; taken fastest
        # first, the greedy start takes (1)+(5), (2)+(6) and (2)+(4)+(5)
        # and leaves a circulation on links 3 and 4 that its paths cannot
        # carry: no combination of them meets the link target, so the
        # master starts with every path and round 1 goes to the simplex
        f = LinkCostFn("linear", (1.0, 0.01))
        net = Network(
            ("O", "A", "B", "D"),
            tuple(
                Link(i + 1, tail, head, f)
                for i, (tail, head) in enumerate(
                    [("O", "A"), ("O", "B"), ("A", "B"), ("B", "A"), ("A", "D"), ("B", "D")]
                )
            ),
            "O", "D", demand=100.0, subscriber_demand=80.0,
        )
        paths = enumerate_paths(net)
        assert paths.labels() == ["(1)+(3)+(6)", "(1)+(5)", "(2)+(4)+(5)", "(2)+(6)"]
        flows = np.array([40.0, 0.0, 60.0, 0.0])
        so = replace(
            solve_so(net, paths),
            path_flows=flows,
            link_flows=paths.incidence @ flows,
            path_times=np.array([10.0, 1.0, 30.0, 20.0]),
        )
        classes = discretize(VotDistribution.uniform(5.0, 45.0), 80.0, 5)
        target = so.link_flows * (net.subscriber_demand / net.demand)
        incidence = paths.incidence[:, np.lexsort((np.arange(len(paths)), so.path_times))]
        taken = incidence[:, _greedy_decomposition(incidence, target, 0.0) > 0]
        fit = np.linalg.lstsq(taken, target, rcond=None)[0]
        # the final flow check's tolerance, 1e-7 x scale, in vehicles
        unit = math.ldexp(1.0, math.frexp(net.subscriber_demand)[1] - 1)
        assert np.abs(taken @ fit - target).max() > 1e-7 * (unit + target.max())
        assign = assert_matches_class_path_lp(so, classes, net, paths)
        assert assign.columns == len(paths)
        # round 1 over every path, then one more after pricing adds a cut
        assert (assign.rounds, assign.pivots) == (2, 11)
        assert assign.subscriber_path_flows.tolist() == [32.0, 0.0, 48.0, 0.0]
        assert assign.weighted_cost == 36320.0

    def test_greedy_sort_oracle_equivalence(self, demo_run):
        cost = greedy_weighted_cost(
            demo_run.classes,
            demo_run.assignment.subscriber_path_flows,
            demo_run.so.path_times,
        )
        assert demo_run.assignment.weighted_cost == pytest.approx(
            cost, rel=1e-7
        )


def clustered_empirical(rng, dist):
    """Samples bunched at both ends of the support, so middle classes are
    empty."""
    lo, hi = dist.support
    width = hi - lo
    samples = np.concatenate(
        [rng.uniform(lo, lo + 0.2 * width, 40), rng.uniform(hi - 0.1 * width, hi, 25)]
    )
    return VotDistribution.empirical(samples, support=(lo, hi))


def chain_network(widths, rng) -> Network:
    """Series of parallel-link segments with linear costs."""
    nodes = [f"N{k}" for k in range(len(widths) + 1)]
    links = []
    for seg, width in enumerate(widths):
        for _ in range(width):
            cost = LinkCostFn("linear", (
                float(rng.uniform(2.0, 20.0)), float(rng.uniform(0.005, 0.05))
            ))
            links.append(Link(len(links) + 1, nodes[seg], nodes[seg + 1], cost))
    return Network(
        nodes=tuple(nodes), links=tuple(links), origin=nodes[0],
        destination=nodes[-1], demand=1500.0, subscriber_demand=1100.0,
    )


def assert_matches_class_path_lp(so, classes, net, paths):
    full = solve_lp(class_path_lp(so, classes, net, paths))
    assert full.optimal
    assign = solve_subscriber_lp(so, classes, net, paths)
    assert assign.weighted_cost == pytest.approx(full.objective, rel=1e-9)
    return assign


def assert_matches_full_path_master(so, classes, net, paths):
    assign = solve_subscriber_lp(so, classes, net, paths)
    expect = full_path_master(so, classes, net, paths)
    assert assign.weighted_cost == pytest.approx(expect, rel=1e-9)
    return assign


def assert_one_small_round(assign, net):
    """The greedy start was optimal: one master solve, whose rows are the
    links and at most two cuts per master path."""
    assert assign.rounds == 1
    assert assign.master_shape[0] <= len(net.links) + 2 * assign.columns


def chain_or_grid(rng, shape, kind):
    """A grid of side ``shape``, or a chain of segment widths ``shape``."""
    if isinstance(shape, int):
        return random_grid(rng, shape, kind)
    return random_chain(rng, shape, kind)


def benchmark_chains(directory, seed):
    """(network, VOT distribution, classes) of the benchmark's many-paths
    chains written for ``seed``."""
    chains = []
    for inst in benchmark_module("instances").write_workload("many-paths", seed, directory):
        dist, M = parse_vot(inst.vot.read_text())
        chains.append((parse_network(inst.network.read_text()), dist, inst.classes or M))
    return chains


class TestPathTotalRouting:
    def test_objective_matches_class_path_lp(self):
        rng = np.random.default_rng(31)
        null_dims = set()
        for _ in range(12):
            net = random_network(rng)
            paths = enumerate_paths(net)
            so = solve_so(net, paths)
            null_dims.add(len(paths) - np.linalg.matrix_rank(paths.incidence))
            times = so.path_times.copy()
            times[-1] = times[0]
            # the LP is exact for any path costs, not only sums of link
            # times; with arbitrary ones the first master is often not optimal
            variants = [
                so,
                replace(so, path_times=times),
                replace(so, path_times=np.full_like(times, times[0])),
                replace(so, path_times=rng.uniform(20.0, 60.0, times.size)),
            ]
            smooth = random_vot(rng)
            for dist in (smooth, clustered_empirical(rng, smooth)):
                for M in (1, 2, 15, 60):
                    classes = discretize(dist, net.subscriber_demand, M)
                    for flows in variants:
                        assert_matches_class_path_lp(flows, classes, net, paths)
        assert null_dims == {0, 1}

    @pytest.mark.parametrize("widths", [(3, 3, 3), (2, 3), (3, 3), (2, 2, 2)])
    def test_chain_matches_class_path_lp(self, widths):
        rng = np.random.default_rng(8)
        smooth = VotDistribution.triangular(4.0, 30.0, 50.0)
        for _ in range(4):
            net = chain_network(widths, rng)
            paths = enumerate_paths(net)
            so = solve_so(net, paths)
            arbitrary = replace(so, path_times=rng.uniform(20.0, 60.0, len(paths)))
            for dist in (smooth, clustered_empirical(rng, smooth)):
                for M in (3, 10):
                    classes = discretize(dist, net.subscriber_demand, M)
                    for flows in (so, arbitrary):
                        assert_matches_class_path_lp(flows, classes, net, paths)

    @pytest.mark.parametrize("kind, widths", [("linear", (3, 3, 3, 3)), ("bpr", (3, 3, 3))])
    def test_benchmark_chains_match_class_path_lp(self, demo_vot, kind, widths):
        # chains of the benchmark's many-paths shapes at M=10; arbitrary
        # path times leave the first master short of paths and cuts, so
        # later rounds price paths in and re-solve a grown master
        rng = np.random.default_rng(15)
        dist, _ = demo_vot
        rounds = []
        for _ in range(2):
            net = random_chain(rng, widths, kind)
            paths = enumerate_paths(net)
            so = solve_so(net, paths)
            classes = discretize(dist, net.subscriber_demand, 10)
            arbitrary = replace(so, path_times=rng.uniform(20.0, 60.0, len(paths)))
            for flows in (so, arbitrary):
                assign = assert_matches_class_path_lp(flows, classes, net, paths)
                rounds.append(assign.rounds)
        assert max(rounds) > 1

    def test_fixture_many_classes_matches_class_path_lp(self, demo_run, demo_network, demo_vot):
        dist, _ = demo_vot
        classes = discretize(dist, demo_network.subscriber_demand, 400)
        assert_matches_class_path_lp(demo_run.so, classes, demo_network, demo_run.paths)

    def test_fixture_master_stays_small(self, demo_run, demo_network, demo_vot):
        # 400 classes, yet one round on a master of the 3 greedy paths: the
        # 4 link rows, then one row per cut; the columns are the paths, one
        # surplus per cut and y for the 2 runs between the paths. That round
        # is solved in closed form, so the simplex makes no pivot
        dist, _ = demo_vot
        classes = discretize(dist, demo_network.subscriber_demand, 400)
        assign = solve_subscriber_lp(
            demo_run.so, classes, demo_network, demo_run.paths
        )
        assert assign.subscriber_path_flows == pytest.approx(
            [0.0, 200.0, 360.0, 240.0], abs=1e-4
        )
        assert assign.columns == 3
        assert assign.master_shape == (4 + assign.cuts, 3 + assign.cuts + 2)
        assert assign.rounds == 1 and assign.pivots == 0

    def test_cut_met_up_to_rounding_is_skipped(self):
        # one class per ridden path, so a class bound sits on every
        # cumulative total; the master's totals land within rounding of
        # the bounds, on the far side of some, where the next piece's cut
        # is met up to 1e-13 and adds nothing but a second round
        net = random_network(np.random.default_rng(3))
        paths = enumerate_paths(net)
        so = solve_so(net, paths)
        classes = discretize(VotDistribution.uniform(5.0, 45.0), net.subscriber_demand, 10)
        totals = solve_subscriber_lp(so, classes, net, paths).subscriber_path_flows
        ridden = totals[np.lexsort((np.arange(len(paths)), so.path_times))]
        ridden = ridden[ridden > 0]
        means = np.linspace(5.0, 45.0, ridden.size)  # slowest path, lowest VOT
        classes = make_table(ridden[::-1], means)
        assign = assert_matches_class_path_lp(so, classes, net, paths)
        assert assign.rounds == 1

    @pytest.mark.parametrize("M", [100, 400])
    def test_fixture_matches_full_path_master(self, demo_run, demo_network, demo_vot, M):
        dist, _ = demo_vot
        classes = discretize(dist, demo_network.subscriber_demand, M)
        assign = assert_matches_full_path_master(
            demo_run.so, classes, demo_network, demo_run.paths
        )
        assert_one_small_round(assign, demo_network)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_benchmark_chains_match_full_path_master(self, tmp_path, seed):
        for net, dist, M in benchmark_chains(tmp_path, seed):
            paths = enumerate_paths(net)
            so = solve_so(net, paths)
            classes = discretize(dist, net.subscriber_demand, M)
            assign = assert_matches_full_path_master(so, classes, net, paths)
            assert_one_small_round(assign, net)

    @pytest.mark.parametrize(
        "shape", [(2, 3), (3, 3, 3), (2, 2, 2, 2), 3, 4, 5], ids=str
    )
    @pytest.mark.parametrize("kind", ["linear", "bpr"])
    def test_chains_and_grids_match_full_path_master(self, kind, shape):
        net = chain_or_grid(np.random.default_rng(41), shape, kind)
        dist = VotDistribution.uniform(5.0, 45.0)
        paths = enumerate_paths(net)
        so = solve_so(net, paths)
        for M in (3, 30):
            classes = discretize(dist, net.subscriber_demand, M)
            assert_matches_full_path_master(so, classes, net, paths)

    @pytest.mark.parametrize("shape", [(3, 3, 3, 3), (2, 4, 3), 3, 4, 5, 6], ids=str)
    def test_greedy_start_is_a_small_basis(self, shape):
        # fastest first, as the solver takes them: the start meets every
        # link target and its paths are independent columns, so the greedy
        # totals are the only ones its paths can carry
        rng = np.random.default_rng(42)
        for kind in ("linear", "bpr"):
            net = chain_or_grid(rng, shape, kind)
            paths = enumerate_paths(net)
            so = solve_so(net, paths)
            target = so.link_flows * (net.subscriber_demand / net.demand)
            incidence = paths.incidence[:, np.lexsort((np.arange(len(paths)), so.path_times))]
            flows = _greedy_decomposition(incidence, target, 0.0)
            taken = incidence[:, flows > 0]
            assert flows.min() >= 0.0
            assert incidence @ flows == pytest.approx(target, abs=1e-9 * target.max())
            assert np.linalg.matrix_rank(taken) == taken.shape[1]
            assert taken.shape[1] <= np.linalg.matrix_rank(paths.incidence)
            fit = np.linalg.lstsq(taken, target, rcond=None)[0]
            unit = math.ldexp(1.0, math.frexp(net.subscriber_demand)[1] - 1)
            assert np.abs(fit - flows[flows > 0]).max() <= 1e-12 * (unit + target.max())

    def test_residuals_reported(self, demo_run, demo_network):
        assign = demo_run.assignment
        totals = assign.subscriber_path_flows
        share = demo_network.subscriber_demand / demo_network.demand
        demand_err = totals.sum() - demo_run.classes.class_demand.sum()
        link_err = demo_run.paths.incidence @ totals - demo_run.so.link_flows * share
        assert assign.demand_residual == pytest.approx(abs(demand_err), abs=1e-9)
        assert assign.link_residual == pytest.approx(np.abs(link_err).max(), abs=1e-12)
        assert max(assign.demand_residual, assign.link_residual) <= 1e-9

    def test_bit_identical_reruns(self):
        rng = np.random.default_rng(8)
        net = chain_network((3, 3, 3), rng)
        paths = enumerate_paths(net)
        so = solve_so(net, paths)
        classes = discretize(VotDistribution.uniform(5.0, 45.0),
                             net.subscriber_demand, 30)
        first = solve_subscriber_lp(so, classes, net, paths)
        second = solve_subscriber_lp(so, classes, net, paths)
        assert np.array_equal(
            first.subscriber_path_flows, second.subscriber_path_flows
        )
        assert first.weighted_cost == second.weighted_cost


def assert_first_round_matches_oracle(monkeypatch, so, classes, net, paths):
    """Round 1, solved in closed form, against ``first_master_lp``: its
    totals, the greedy ones, match the simplex's within 1e-12 x scale, and
    it prices in the same paths. Those are read off the first master the
    simplex gets, round 2's; with none, the solve ended in round 1 and its
    totals are the result."""
    seen = {}
    greedy, solve_lp = pathpay.scheme._greedy_decomposition, pathpay.scheme.solve_lp

    def record_greedy(*args):
        seen["greedy"] = greedy(*args)
        return seen["greedy"]

    def record_lp(lp):
        seen.setdefault("lp", lp)
        return solve_lp(lp)

    with monkeypatch.context() as patch:
        patch.setattr(pathpay.scheme, "_greedy_decomposition", record_greedy)
        patch.setattr(pathpay.scheme, "solve_lp", record_lp)
        assign = solve_subscriber_lp(so, classes, net, paths)
    expect, priced = first_master_lp(so, classes, net, paths)

    fastest = np.lexsort((np.arange(len(paths)), so.path_times))
    unit = math.ldexp(1.0, math.frexp(net.subscriber_demand)[1] - 1)
    totals = np.empty(len(paths))
    totals[fastest] = seen["greedy"] * unit
    target = so.link_flows * (net.subscriber_demand / net.demand)
    assert np.abs(totals - expect).max() <= 1e-12 * (unit + target.max())
    if "lp" not in seen:
        assert priced == []
        assert assign.rounds == 1 and assign.pivots == 0
        assert np.array_equal(assign.subscriber_path_flows, totals)
        return assign
    by_links = {tuple(np.flatnonzero(col)): r for r, col in enumerate(paths.incidence.T)}
    link_rows = seen["lp"].A[: len(net.links)]
    master = {by_links[tuple(np.flatnonzero(col))] for col in link_rows.T if col.any()}
    assert master == set(fastest[seen["greedy"] > 0].tolist()) | set(priced)
    assert assign.rounds > 1
    return assign


def grid_instance(seed, kind):
    """A seeded 5x5 grid at M=50 on a uniform VOT, whose first master often
    prices in paths."""
    net = random_grid(np.random.default_rng(seed), 5, kind)
    paths = enumerate_paths(net)
    so = solve_so(net, paths)
    classes = discretize(VotDistribution.uniform(5.0, 45.0), net.subscriber_demand, 50)
    return so, classes, net, paths


class TestClosedFormFirstRound:
    @pytest.mark.parametrize("M", [100, 400])
    def test_fixture(self, monkeypatch, demo_run, demo_network, demo_vot, M):
        classes = discretize(demo_vot[0], demo_network.subscriber_demand, M)
        assign = assert_first_round_matches_oracle(
            monkeypatch, demo_run.so, classes, demo_network, demo_run.paths
        )
        assert assign.rounds == 1

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_benchmark_instances(self, monkeypatch, tmp_path, seed):
        instances = benchmark_module("instances")
        for workload in instances.WORKLOADS:
            for inst in instances.write_workload(workload, seed, tmp_path):
                net = parse_network(inst.network.read_text())
                dist, M = parse_vot(inst.vot.read_text())
                paths = enumerate_paths(net)
                so = solve_so(net, paths)
                classes = discretize(dist, net.subscriber_demand, inst.classes or M)
                assign = assert_first_round_matches_oracle(monkeypatch, so, classes, net, paths)
                assert assign.rounds == 1

    @pytest.mark.parametrize("seed", range(8))
    def test_seeded_chains_and_grids(self, monkeypatch, seed):
        net = seeded_chain_or_grid(seed)
        paths = enumerate_paths(net)
        so = solve_so(net, paths)
        classes = discretize(VotDistribution.uniform(5.0, 45.0), net.subscriber_demand, 50)
        assert_first_round_matches_oracle(monkeypatch, so, classes, net, paths)

    @pytest.mark.parametrize("kind", ["linear", "bpr"])
    def test_grids_that_price_paths(self, monkeypatch, kind):
        rounds = []
        for seed in range(1, 11):
            instance = grid_instance(seed, kind)
            assign = assert_first_round_matches_oracle(monkeypatch, *instance)
            if assign.rounds > 1:
                expect = full_path_master(*instance)
                assert assign.weighted_cost == pytest.approx(expect, rel=1e-9)
            rounds.append(assign.rounds)
        # 5 linear and 7 BPR seeds take 3 to 7 rounds
        assert sum(r > 1 for r in rounds) >= 5


class TestBuildOutcome:
    def test_fixture_order_and_partition(self, demo_run):
        o = demo_run.outcome
        assert o.order == (1, 3, 2)
        assert o.sorted_times == pytest.approx(SORTED_TIMES[RIDDEN], abs=1e-5)
        assert o.partition == pytest.approx([5.0, 17.2, 31.6, 45.0], abs=1e-5)
        assert o.rho == pytest.approx(RHO[RIDDEN], abs=1e-6)

    def test_zero_flow_path_has_empty_interval(self, demo_run):
        # path 0 carries no subscriber, so the outcome holds no interval,
        # share or payment for it
        o = demo_run.outcome
        assert demo_run.assignment.subscriber_path_flows[0] == 0.0
        assert 0 not in o.order
        assert len(o.partition) - 1 == len(o.rho) == len(o.payments) == 3
        assert np.all(o.rho > 0)

    @pytest.mark.parametrize("cost", [1e200, 1e307])
    def test_unused_link_cost_leaves_ridden_paths_alone(self, cost):
        # the paths through a link costing 1e200 or 1e307 carry no one; the
        # ridden paths' shares, partition points and payments are those of
        # the network without that link
        data = json.loads((FIXTURE_DIR / "network.json").read_text())
        dist, M = parse_vot((FIXTURE_DIR / "vot.json").read_text())
        data["links"][0]["cost"]["params"] = [cost, cost]
        huge = run_scheme(parse_network(json.dumps(data)), dist, M)
        del data["links"][0]
        bare = run_scheme(parse_network(json.dumps(data)), dist, M)
        assert [huge.paths.paths[p] for p in huge.outcome.order] == [
            bare.paths.paths[p] for p in bare.outcome.order
        ]
        for name in ("rho", "partition", "payments"):
            got, want = getattr(huge.outcome, name), getattr(bare.outcome, name)
            assert got.shape == want.shape, name
            assert np.abs(got - want).max() <= 1e-12, name

    def test_partition_masses_match_shares(self, demo_run, demo_vot):
        dist, _ = demo_vot
        o = demo_run.outcome
        for i in range(len(o.rho)):
            mass = cdf(dist, o.partition[i + 1]) - cdf(dist, o.partition[i])
            assert mass == pytest.approx(float(o.rho[i]), abs=1e-9)

    def test_mass_balance(self, demo_run, demo_network):
        o = demo_run.outcome
        a = demo_run.assignment
        assert o.rho.sum() == pytest.approx(1.0, abs=1e-12)
        assert a.subscriber_path_flows.sum() == pytest.approx(
            demo_network.subscriber_demand, abs=1e-6
        )
        assert a.outsider_path_flows.sum() == pytest.approx(
            demo_network.outsider_demand, abs=1e-6
        )

    def test_partition_monotone_spans_support(self, demo_run, demo_vot):
        # the outcome's support is its partition's ends, so they must be the
        # distribution's exactly: also with two of three samples on the
        # minimum, and with no mass in the top class
        dists = [
            demo_vot[0],
            VotDistribution.empirical([5.0, 5.0, 45.0], support=(5.0, 45.0)),
            VotDistribution.piecewise_linear([5.0, 30.0, 45.0], [1.0, 0.0, 0.0]),
        ]
        for dist in dists:
            o = build_outcome(demo_run.assignment, dist, demo_run.so.path_times)
            assert o.partition[0] == dist.support[0]
            assert o.partition[-1] == dist.support[1]
            assert o.support == dist.support
            assert np.all(np.diff(o.partition) >= 0)


class TestPayments:
    def test_hand_computed_reference(self):
        pay = compute_payments(SORTED_TIMES, PARTITION, RHO)
        assert pay == pytest.approx(EXPECTED_PAYMENTS, abs=1e-9)
        assert float(RHO @ pay) == pytest.approx(0.0, abs=1e-9)

    def test_fixture_pipeline_payments(self, demo_run):
        assert demo_run.outcome.payments == pytest.approx(
            EXPECTED_PAYMENTS[RIDDEN], abs=1e-5
        )

    def test_single_path(self):
        pay = compute_payments(
            np.array([12.0]), np.array([1.0, 9.0]), np.array([1.0])
        )
        assert pay == pytest.approx([0.0])

    def test_equal_times(self):
        pay = compute_payments(
            np.array([40.0, 40.0]),
            np.array([5.0, 20.0, 45.0]),
            np.array([0.5, 0.5]),
        )
        assert pay == pytest.approx([0.0, 0.0], abs=1e-15)

    def test_payment_order_and_signs(self, demo_run):
        o = demo_run.outcome
        assert np.all(np.diff(o.payments) >= -1e-12)  # faster paths pay more
        assert o.payments[0] <= 1e-12
        assert o.payments[-1] >= -1e-12

    def test_validation(self):
        with pytest.raises(SchemeError):
            compute_payments(
                np.array([10.0, 20.0]),                 # increasing: invalid
                np.array([0.0, 1.0, 2.0]),
                np.array([0.5, 0.5]),
            )
        with pytest.raises(SchemeError):
            compute_payments(
                np.array([20.0, 10.0]),
                np.array([0.0, 1.0, 2.0]),
                np.array([0.5, 0.4]),                    # shares do not sum to 1
            )

    @pytest.mark.parametrize(
        "partition, rho, message",
        [
            ([0.0, 1.0], [0.5, 0.5], "partition must have one more entry than paths"),
            ([0.0, 1.0, 2.0, 3.0], [0.5, 0.5], "partition must have one more entry"),
            ([0.0, 1.0, 2.0], [1.0], "rho must have one entry per path"),
            ([0.0, 1.0, 2.0], [0.2, 0.3, 0.5], "rho must have one entry per path"),
        ],
    )
    def test_lengths_checked(self, partition, rho, message):
        with pytest.raises(SchemeError, match=message):
            compute_payments(np.array([20.0, 10.0]), np.array(partition), np.array(rho))

    @given(
        drops=st.lists(st.floats(0.0, 10.0), min_size=1, max_size=6),
        raw_rho=st.lists(st.floats(0.01, 1.0), min_size=2, max_size=7),
        raw_cuts=st.lists(st.floats(0.0, 5.0), min_size=1, max_size=6),
    )
    def test_difference_identity(self, drops, raw_rho, raw_cuts):
        n = min(len(drops) + 1, len(raw_rho), len(raw_cuts) + 1)
        if n < 2:
            return
        drops = np.array(drops[: n - 1])
        times = 100.0 - np.concatenate([[0.0], np.cumsum(drops)])
        rho = np.array(raw_rho[:n])
        rho /= rho.sum()
        partition = 1.0 + np.concatenate([[0.0], np.cumsum(raw_cuts[: n - 1]), [99.0]])
        pay = compute_payments(times, partition, rho)
        gap_value = drops * partition[1:n] / 60.0
        for i in range(n):
            for j in range(i + 1, n):
                assert pay[j] - pay[i] == pytest.approx(
                    gap_value[i:j].sum(), abs=1e-12 * (1 + abs(pay[j]))
                )
        assert float(rho @ pay) == pytest.approx(0.0, abs=1e-12)


class TestAssignSubscriber:
    def test_low_vot_rides_slow_path(self, demo_run):
        g = assign_subscriber(demo_run.outcome, 10.0)
        assert demo_run.paths.paths[g.path] == (1, 4)
        assert g.payment == pytest.approx(-1.367, abs=1e-3)

    def test_boundary_is_right_closed(self, demo_run):
        g = assign_subscriber(demo_run.outcome, demo_run.outcome.partition[1])
        assert demo_run.paths.paths[g.path] == (1, 4)

    def test_high_vot_rides_fast_path(self, demo_run):
        g = assign_subscriber(demo_run.outcome, 40.0)
        assert demo_run.paths.paths[g.path] == (2, 3)
        assert g.payment == pytest.approx(1.193, abs=1e-3)

    def test_support_minimum_maps_to_first_nonempty(self, demo_run):
        g = assign_subscriber(demo_run.outcome, 5.0)
        assert demo_run.paths.paths[g.path] == (1, 4)

    def test_outside_support_rejected(self, demo_run):
        with pytest.raises(SchemeError):
            assign_subscriber(demo_run.outcome, 45.5)
        with pytest.raises(SchemeError):
            assign_subscriber(demo_run.outcome, 4.9)


def reference_ranks(outcome, vots):
    """Rank ``i`` holds the VOTs in ``(partition[i], partition[i+1]]``, the
    first also the support minimum: one VOT at a time, the first interval
    whose upper end is not below it."""
    uppers = outcome.partition[1:-1].tolist()
    return np.array(
        [next((i for i, upper in enumerate(uppers) if v <= upper), len(uppers))
         for v in vots]
    )


class TestVotRanks:
    def test_matches_searchsorted_on_report_grid_and_lattice(self, demo_run):
        rng = np.random.default_rng(31)
        outcomes = [demo_run.outcome] + [
            run_scheme(random_network(rng), random_vot(rng), 15).outcome
            for _ in range(10)
        ]
        for o in outcomes:
            lo, hi = o.support
            report_grid = np.linspace(lo, hi, 401)
            lattice = np.unique(
                np.concatenate([np.linspace(lo, hi, 201), o.partition])
            )
            for vots in (report_grid, lattice):
                ranks = vot_ranks(o, vots)
                assert np.array_equal(ranks, reference_ranks(o, vots))
                assert [assign_subscriber(o, v).rank for v in vots] == ranks.tolist()


class TestAssignOutsider:
    def test_degenerate_distribution(self):
        outcome = SchemeOutcome(
            order=(2, 0, 1),
            sorted_times=np.array([30.0, 20.0, 10.0]),
            partition=np.array([0.0, 1.0, 1.0, 1.0]),
            rho=np.array([1.0, 0.0, 0.0]),
            payments=np.zeros(3),
        )
        assert all(assign_outsider(outcome, seed) == 2 for seed in range(5))

    def test_law_of_large_numbers(self, demo_run):
        picks = assign_outsider(demo_run.outcome, 12345, size=1_000_000)
        counts = np.bincount(picks, minlength=4) / 1_000_000
        # paths (1,3),(1,4),(2,3),(2,4) expect shares (0, 0.25, 0.45, 0.30)
        assert counts == pytest.approx([0.0, 0.25, 0.45, 0.30], abs=0.002)

    def test_seeded_reproducibility(self, demo_run):
        a = assign_outsider(demo_run.outcome, 7, size=100)
        b = assign_outsider(demo_run.outcome, 7, size=100)
        assert np.array_equal(a, b)
        gen1 = np.random.default_rng(99)
        gen2 = np.random.default_rng(99)
        seq1 = [assign_outsider(demo_run.outcome, gen1) for _ in range(20)]
        seq2 = [assign_outsider(demo_run.outcome, gen2) for _ in range(20)]
        assert seq1 == seq2

    @given(seed=st.integers(0, 2**32 - 1), size=st.integers(0, 300))
    def test_one_draw_equals_single_draws(self, demo_run, seed, size):
        gen = np.random.default_rng(seed)
        singles = [assign_outsider(demo_run.outcome, gen) for _ in range(size)]
        batch = assign_outsider(demo_run.outcome, seed, size=size)
        assert batch.tolist() == singles


class TestCostReport:
    def test_fixture_improvements(self, demo_run, demo_ue):
        report = cost_report(demo_run.outcome, demo_ue, 401)
        assert report.improvement_subscriber_pct[0] == pytest.approx(33.6, abs=1.0)
        expected_time = float(demo_run.outcome.rho @ demo_run.outcome.sorted_times)
        outsider = (demo_ue.ue_time - expected_time) / demo_ue.ue_time * 100
        spread = np.ptp(report.improvement_outsider_pct)
        assert spread <= 1e-9
        assert report.improvement_outsider_pct[0] == pytest.approx(outsider, abs=1e-9)

    def test_zero_vot_edge(self, demo_network):
        dist = VotDistribution.uniform(0.0, 10.0)
        result = run_scheme(demo_network, dist, 20)
        report = cost_report(result.outcome, solve_ue(demo_network, result.paths), 11)
        assert report.ue_cost[0] == 0.0
        assert report.quitter_cost[0] == 0.0
        assert report.subscriber_cost[0] == pytest.approx(
            float(result.outcome.payments[0])
        )
        assert np.isnan(report.improvement_subscriber_pct[0])
        assert np.isnan(report.improvement_outsider_pct[0])

    def test_grid_of_two_hits_endpoints(self, demo_run, demo_ue, demo_vot):
        dist, _ = demo_vot
        report = cost_report(demo_run.outcome, demo_ue, 2)
        assert report.beta.tolist() == [dist.support[0], dist.support[1]]

    def test_requires_ue_solution(self, demo_run):
        with pytest.raises(SchemeError):
            cost_report(demo_run.outcome, demo_run.so, 11)

    def test_bad_grid(self, demo_run, demo_ue):
        with pytest.raises(SchemeError):
            cost_report(demo_run.outcome, demo_ue, 1)


class TestUeBaseline:
    def test_outcome_needs_no_ue(self, monkeypatch, demo_network, demo_vot, demo_run):
        # any evaluation of the UE objective raises, so the run below solves
        # no UE
        link_objective = Network.link_objective

        def so_only(net, link_flows, regime):
            if regime == "UE":
                raise AssertionError("the UE objective was evaluated")
            return link_objective(net, link_flows, regime)

        monkeypatch.setattr(Network, "link_objective", so_only)
        dist, M = demo_vot
        result = run_scheme(demo_network, dist, M)
        assert result.outcome.order == demo_run.outcome.order
        for name in ("sorted_times", "partition", "rho", "payments"):
            assert np.array_equal(
                getattr(result.outcome, name), getattr(demo_run.outcome, name)
            ), name
        with pytest.raises(AssertionError, match="UE objective"):
            solve_ue(demo_network, result.paths)


class TestRandomPipelines:
    def test_mass_balance_and_consistency(self):
        rng = np.random.default_rng(2024)
        for _ in range(15):
            net = random_network(rng)
            dist = random_vot(rng)
            result = run_scheme(net, dist, 15)
            o = result.outcome
            a = result.assignment
            assert o.rho.sum() == pytest.approx(1.0, abs=1e-12)
            assert a.subscriber_path_flows.sum() == pytest.approx(
                net.subscriber_demand, rel=1e-7
            )
            assert a.outsider_path_flows == pytest.approx(
                a.subscriber_path_flows
                * (net.outsider_demand / net.subscriber_demand),
                abs=1e-9 * (1 + net.demand),
            )
            assert np.all(np.diff(o.partition) >= 0)
            assert np.all(np.diff(o.payments) >= -1e-12)
            for i in range(len(o.rho)):
                mass = cdf(dist, o.partition[i + 1]) - cdf(dist, o.partition[i])
                assert mass == pytest.approx(float(o.rho[i]), abs=1e-9)
            cost = greedy_weighted_cost(
                result.classes, a.subscriber_path_flows, result.so.path_times
            )
            assert a.weighted_cost == pytest.approx(
                cost, rel=1e-7, abs=1e-7
            )
