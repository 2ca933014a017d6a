from dataclasses import replace

import numpy as np
import pytest

from _instances import make_table, random_network, random_vot, transportation_lp
from _oracles import (
    OracleError,
    brute_force_lp_oracle,
    greedy_weighted_cost,
    lattice_strategy_proof,
    loop_boundary_worst,
    loop_payments,
)
from pathpay import (
    SchemeOutcome,
    check_pareto,
    check_revenue_neutral,
    check_strategy_proof,
    compute_payments,
    cost_report,
    run_scheme,
    run_verification,
    solve_ue,
    vot_ranks,
)
from pathpay.simplex import solve_lp


class TestStrategyProof:
    def test_fixture_lattice(self, demo_run):
        result = check_strategy_proof(demo_run.outcome)
        assert result.passed
        assert result.worst_margin_usd >= -1e-9
        assert result.boundary_worst_abs_usd <= 1e-9

    def test_perturbed_payment_detected(self, demo_run):
        o = demo_run.outcome
        bad = o.payments.copy()
        bad[-1] += 0.10  # overcharge the fastest path
        broken = replace(o, payments=bad)
        result = check_strategy_proof(broken)
        assert not result.passed
        assert result.worst_margin_usd == pytest.approx(-0.10, abs=1e-12)
        # the profitable lie saves the whole overcharge: a subscriber at the
        # open lower end of the fastest rank declares the rank below, which
        # the midpoint of its interval stands for
        low, point = o.partition[1:3]
        assert (result.worst_true_vot, result.worst_declared_vot) == (point, low / 2 + point / 2)

    def test_declared_rank_without_inner_float(self):
        # a rank (10, 10 + ulp] holds one float, its upper end; the midpoint
        # of its ends rounds to 10, which is in the rank below
        times, rho = np.array([40.0, 30.0, 25.0]), np.array([0.3, 0.3, 0.4])
        partition = np.array([5.0, 10.0, np.nextafter(10.0, np.inf), 20.0])
        payments = compute_payments(times, partition, rho)
        payments[1] -= 0.5
        outcome = SchemeOutcome(
            order=(0, 1, 2), sorted_times=times, partition=partition, rho=rho,
            payments=payments)
        result = check_strategy_proof(outcome)
        assert not result.passed
        assert result.worst_declared_vot == partition[2]
        assert vot_ranks(outcome, result.worst_declared_vot) == 1

    @pytest.mark.parametrize(
        "ranks, overcharge, liar", [(slice(1, None), 0.003, 17.3), (slice(2, 3), 0.005, 31.7)]
    )
    def test_overcharge_between_lattice_points_detected(self, demo_run, ranks, overcharge, liar):
        # partition points off a 201-point lattice's 0.2 $/h step: a
        # subscriber just above 17.3 or 31.7 $/h gains the overcharge by
        # declaring into the rank below, less a time cost that vanishes at
        # the point, and the nearest lattice VOT above it pays more time
        # cost than that: the whole gain shows only at the rank's open
        # lower end
        o = demo_run.outcome
        partition = np.array([5.0, 17.3, 31.7, 45.0])
        payments = compute_payments(o.sorted_times, partition, o.rho)
        fair = replace(o, partition=partition, payments=payments.copy())
        assert check_strategy_proof(fair).passed
        payments[ranks] += overcharge
        result = check_strategy_proof(replace(fair, payments=payments))
        assert not result.passed
        assert result.worst_margin_usd == pytest.approx(-overcharge, abs=1e-12)
        assert result.worst_true_vot == liar

    def test_common_payment_offset(self, demo_run):
        # margins depend on payment differences only: equal payments near
        # -1e183 must leave the lie into a faster path exactly as profitable
        # as equal payments of 0, not round its time saving away
        o = demo_run.outcome
        results = [
            check_strategy_proof(replace(o, payments=np.full_like(o.payments, pay)))
            for pay in (0.0, -1e183)
        ]
        fields = [
            (r.passed, r.worst_margin_usd, r.worst_true_vot, r.worst_declared_vot,
             r.boundary_worst_abs_usd)
            for r in results
        ]
        assert fields[0] == fields[1]
        assert results[1].worst_margin_usd < -1.0

    def test_tolerance_scales_with_payment_spread(self, demo_run):
        # margins carry the payments' rounding: at 1e100 times the
        # fixture's payments a lie that gains 1e84 $ is rounding, while
        # one that gains 1e-8 $ at the fixture's scale is not
        o = demo_run.outcome
        spread = float(np.ptp(o.payments))
        result = check_strategy_proof(o)
        assert result.passed
        assert result.tolerance_usd == pytest.approx(1e-9 * (1.0 + spread), rel=1e-12)
        noisy = o.payments.copy()
        noisy[-1] -= 1e-8
        assert not check_strategy_proof(replace(o, payments=noisy)).passed
        big = replace(o, sorted_times=1e100 * o.sorted_times, payments=1e100 * o.payments)
        noisy = big.payments.copy()
        noisy[-1] -= 1e84
        result = check_strategy_proof(replace(big, payments=noisy))
        assert result.worst_margin_usd < 0
        assert result.passed

    def test_worst_pair_stable_under_one_ulp(self, demo_run):
        # one ulp on every payment once moved the fixture's reported pair
        # from (5, 5) to (31.6, 31.6) or (17.2, 17.2); a passing run now
        # reports the truthful pair at the support minimum, and a failing
        # run the first pair within tolerance of the worst
        o = demo_run.outcome
        overcharged = o.payments.copy()
        overcharged[-1] += 0.10
        reported = []
        for payments in (o.payments, overcharged):
            results = {
                (r.passed, r.worst_true_vot, r.worst_declared_vot)
                for r in (
                    check_strategy_proof(replace(o, payments=p))
                    for p in (payments, np.nextafter(payments, -np.inf),
                              np.nextafter(payments, np.inf))
                )
            }
            assert len(results) == 1
            reported += results
        lo = o.support[0]
        assert reported[0] == (True, lo, lo)
        assert reported[1][0] is False

    def test_single_path_trivially_passes(self):
        outcome = SchemeOutcome(
            order=(0,),
            sorted_times=np.array([25.0]),
            partition=np.array([2.0, 8.0]),
            rho=np.array([1.0]),
            payments=np.array([0.0]),
        )
        result = check_strategy_proof(outcome)
        assert result.passed
        assert result.worst_margin_usd == 0.0

    def test_random_instances(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            result = run_scheme(random_network(rng), random_vot(rng), 12)
            check = check_strategy_proof(result.outcome)
            assert check.passed, check


    def test_matches_lattice_search(self, demo_run):
        rng = np.random.default_rng(17)
        outcomes = [demo_run.outcome]
        for _ in range(20):
            net, dist = random_network(rng), random_vot(rng)
            outcomes.append(run_scheme(net, dist, int(rng.integers(1, 40))).outcome)
        # sample atoms at 5 and 20 $/h: an inner point on the support
        # minimum, and one repeated, so that the rank above it is two up;
        # an atom at 45 $/h leaves the top rank empty, and one holding all
        # the mass leaves only rank 0
        times, rho = np.array([40.0, 35.0, 30.0, 25.0]), np.array([0.1, 0.3, 0.2, 0.4])
        for partition in ([5.0, 5.0, 20.0, 20.0, 45.0], [5.0, 10.0, 20.0, 45.0, 45.0],
                          [45.0] * 5):
            partition = np.array(partition)
            outcomes.append(SchemeOutcome(
                order=(0, 1, 2, 3), sorted_times=times, partition=partition, rho=rho,
                payments=compute_payments(times, partition, rho)))
        # noisy payments make lying pay, so the worst pair is strict somewhere
        outcomes += [
            replace(o, payments=o.payments + rng.normal(0.0, 0.5, o.payments.size))
            for o in outcomes
        ]
        # the rank ends are the 2-point lattice's rows, and its columns hold
        # one VOT per rank, the rank's first; a finer lattice only adds rows
        # inside ranks, so its worst margin is the same float
        for o in outcomes:
            check = check_strategy_proof(o)
            tol = check.tolerance_usd
            worst, true_vot, declared = lattice_strategy_proof(o, 2, tol)
            assert (check.worst_margin_usd, check.worst_true_vot) == (worst, true_vot)
            rank = vot_ranks(o, check.worst_declared_vot)
            assert rank == vot_ranks(o, declared)
            assert rank == 0 or check.worst_declared_vot not in o.partition
            for grid in (7, 201):
                assert check.worst_margin_usd == lattice_strategy_proof(o, grid, tol)[0]
            assert check.boundary_worst_abs_usd == loop_boundary_worst(o)


class TestRevenueNeutral:
    def test_display_rounded_inputs(self):
        # shares and payments rounded to display precision still nearly cancel
        rho = np.array([0.25, 0.30, 0.0, 0.45])
        pay = np.array([-1.367, -0.650, 0.0, 1.193])
        assert abs(float(rho @ pay)) <= 1e-3

    def test_fixture_internal(self, demo_run):
        result = check_revenue_neutral(demo_run.outcome)
        assert result.passed
        assert abs(result.residual_usd) <= 1e-9 * np.abs(
            demo_run.outcome.payments
        ).max()

    def test_all_zero_payments(self):
        outcome = SchemeOutcome(
            order=(0, 1),
            sorted_times=np.array([10.0, 10.0]),
            partition=np.array([0.0, 0.5, 1.0]),
            rho=np.array([0.5, 0.5]),
            payments=np.zeros(2),
        )
        assert check_revenue_neutral(outcome).residual_usd == 0.0

    def test_unused_path_payment_leaves_tolerance(self):
        # the slowest path carries no one, so its -1e199 $ is paid by no
        # one; scaled by it, the tolerance (1e190 $) would pass the used
        # paths' 1e-3 $ residual
        outcome = SchemeOutcome(
            order=(0, 1, 2),
            sorted_times=np.array([30.0, 20.0, 10.0]),
            partition=np.array([0.0, 0.0, 0.5, 1.0]),
            rho=np.array([0.0, 0.5, 0.5]),
            payments=np.array([-1e199, -1.0, 1.002]),
        )
        result = check_revenue_neutral(outcome)
        assert result.residual_usd == pytest.approx(1e-3, rel=1e-9)
        assert result.tolerance_usd == pytest.approx(1.001e-9 + 1e-12, rel=1e-12)
        assert not result.passed

    def test_shift_breaks_neutrality(self, demo_run):
        o = demo_run.outcome
        shifted = o.payments.copy()
        shifted[0] += 1.0
        broken = replace(o, payments=shifted)
        result = check_revenue_neutral(broken)
        assert not result.passed
        assert result.residual_usd == pytest.approx(0.25, abs=1e-6)


class TestPareto:
    def test_fixture_chain(self, demo_run, demo_ue):
        report = cost_report(demo_run.outcome, demo_ue, 401)
        result = check_pareto(demo_run.outcome, report)
        assert result.passed
        assert result.worst_ue_vs_quit_usd > 0
        assert result.worst_quit_vs_join_usd > 0
        with pytest.raises(ValueError, match="cost report grid is empty"):
            check_pareto(demo_run.outcome, replace(report, beta=report.beta[:0]))

    def test_single_path_all_equal(self, demo_vot):
        import json

        from pathpay import parse_network

        net = parse_network(
            json.dumps(
                {
                    "nodes": ["A", "B"],
                    "links": [{"id": 1, "from": "A", "to": "B",
                               "cost": {"kind": "linear", "params": [5.0, 0.01]}}],
                    "demand": {"origin": "A", "destination": "B",
                               "total": 100.0, "subscribers": 60.0},
                }
            )
        )
        dist, _ = demo_vot
        result = run_scheme(net, dist, 10)
        report = cost_report(result.outcome, solve_ue(net, result.paths), 51)
        check = check_pareto(result.outcome, report)
        assert check.passed
        assert check.worst_ue_vs_quit_usd == pytest.approx(0.0, abs=1e-9)
        assert check.worst_quit_vs_join_usd == pytest.approx(0.0, abs=1e-9)

    def test_violation_between_grid_points(self, demo_ue):
        # two paths 3.5 min apart, cut at 31.65 $/h, between the report's
        # grid points 31.6 and 31.7: the quitter's cost minus the
        # subscriber's is least at the cut, where the payments leave it at
        # -1e-3 $, and at least 3e-4 $ at every grid point
        times, rho, cut = np.array([25.0, 21.5]), np.array([0.45, 0.55]), 31.65
        expected = float(rho @ times)
        low = (expected - times[0]) * cut / 60 + 1e-3
        o = SchemeOutcome(
            order=(0, 1),
            sorted_times=times,
            partition=np.array([5.0, cut, 45.0]),
            rho=rho,
            payments=np.array([low, low + (times[0] - times[1]) * cut / 60]),
        )
        report = cost_report(o, replace(demo_ue, ue_time=expected + 1.0), 401)
        assert (report.quitter_cost - report.subscriber_cost).min() >= 3e-4
        check = check_pareto(o, report)
        assert not check.passed
        assert check.worst_quit_vs_join_usd == pytest.approx(-1e-3, abs=1e-12)
        assert check.at_beta_quit_vs_join == cut
        assert check.worst_ue_vs_quit_usd == pytest.approx(5 / 60, rel=1e-12)
        assert check.at_beta_ue_vs_quit == 5.0

    def test_so_times_as_baseline_never_invert(self, demo_run, demo_ue):
        # baseline travel time lowered to the guided expectation: the first
        # chain ties, but must not invert
        o = demo_run.outcome
        expected = float(o.rho @ o.sorted_times)
        report = cost_report(o, replace(demo_ue, ue_time=expected), 101)
        check = check_pareto(o, report)
        assert check.passed
        assert check.worst_ue_vs_quit_usd == pytest.approx(0.0, abs=1e-12)


class TestPaymentReconstruction:
    def test_fixture_uniqueness(self, demo_run):
        o = demo_run.outcome
        looped = loop_payments(o.sorted_times, o.partition, o.rho)
        assert looped == pytest.approx(o.payments, abs=1e-12)

    def test_random_outcomes(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(1, 7))
            times = np.sort(rng.uniform(10.0, 60.0, n))[::-1]
            rho = rng.uniform(0.05, 1.0, n)
            rho /= rho.sum()
            partition = np.sort(rng.uniform(1.0, 50.0, n + 1))
            direct = compute_payments(times, partition, rho)
            looped = loop_payments(times, partition, rho)
            assert looped == pytest.approx(direct, abs=1e-12)


class TestBruteForceOracle:
    def test_equal_times_flat_objective(self):
        table = make_table([4.0, 6.0], [2.0, 5.0])
        times = np.array([30.0, 30.0])
        totals = np.array([7.0, 3.0])
        best = brute_force_lp_oracle(table, totals, times, step=1.0)
        # every feasible allocation costs the same
        expect = 30.0 * float(table.class_demand @ table.class_mean)
        assert best == pytest.approx(expect, rel=1e-12)

    def test_two_by_two_matches_simplex(self):
        table = make_table([5.0, 5.0], [10.0, 30.0])
        times = np.array([50.0, 20.0])
        totals = np.array([6.0, 4.0])
        lp = transportation_lp(
            table.class_demand, table.class_mean, totals, times
        )
        sol = solve_lp(lp)
        best = brute_force_lp_oracle(table, totals, times, step=1.0)
        assert sol.optimal
        assert sol.objective == pytest.approx(best, abs=1e-7 * (1 + abs(best)))

    def test_reduced_fixture_agreement(self, demo_run):
        # three classes, margins rounded onto a 20-unit lattice
        step = 20.0
        demands = np.array([160.0, 240.0, 400.0])
        totals = np.array([0.0, 200.0, 360.0, 240.0])
        means = np.array([11.0, 24.0, 38.0])
        table = make_table(demands, means)
        times = demo_run.so.path_times
        lp = transportation_lp(demands, means, totals, times)
        sol = solve_lp(lp)
        best = brute_force_lp_oracle(table, totals, times, step=step)
        assert sol.optimal
        assert sol.objective == pytest.approx(best, abs=1e-7 * (1 + abs(best)))
        greedy = greedy_weighted_cost(table, totals, times)
        assert greedy == pytest.approx(best, abs=1e-7 * (1 + abs(best)))

    def test_errors(self):
        table = make_table([1.5], [2.0])
        with pytest.raises(OracleError):
            brute_force_lp_oracle(table, np.array([1.5]), np.array([5.0]), step=1.0)
        table = make_table([2.0], [2.0])
        with pytest.raises(OracleError):
            brute_force_lp_oracle(table, np.array([3.0]), np.array([5.0]), step=1.0)
        big = make_table(np.ones(6), np.arange(6.0))
        with pytest.raises(OracleError):
            brute_force_lp_oracle(big, np.array([6.0]), np.array([5.0]), step=1.0)


class TestVerificationReport:
    def test_fixture_report(self, demo_run, demo_ue):
        report = cost_report(demo_run.outcome, demo_ue, 401)
        ver = run_verification(demo_run.outcome, report)
        assert ver.passed
        data = ver.to_dict()
        assert data["passed"] is True
        assert "grid" not in data["strategy_proof"]
        assert abs(data["revenue_neutral"]["residual_usd"]) <= 1e-9
