"""Acceptance suite: one test per release criterion, each checked at its
stated tolerance and reporting a PASS/FAIL line (run with ``pytest -s``).
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from _instances import (
    random_network,
    random_transportation_instance,
    random_vot,
    transportation_lp,
)
from _oracles import brute_force_lp_oracle
from conftest import FIXTURE_DIR
from pathpay import (
    average_time,
    build_outcome,
    check_pareto,
    check_revenue_neutral,
    check_strategy_proof,
    compute_payments,
    cost_report,
    discretize,
    enumerate_paths,
    run_scheme,
    solve_so,
    solve_subscriber_lp,
    solve_ue,
)
from pathpay.cli import main as cli_main
from pathpay.simplex import solve_lp

N_RANDOM_INSTANCES = 100


@contextmanager
def criterion(num: int, text: str):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {num:2d} FAIL: {text}")
        raise
    print(f"ACCEPTANCE {num:2d} PASS: {text}")


@pytest.fixture(scope="session")
def random_suite():
    """100 randomized parallel-serial instances run through the pipeline."""
    cases = []
    for seed in range(N_RANDOM_INSTANCES):
        rng = np.random.default_rng(seed)
        net = random_network(rng)
        dist = random_vot(rng)
        result = run_scheme(net, dist, 20)
        report = cost_report(result.outcome, solve_ue(net, result.paths), 401)
        cases.append((result.outcome, report))
    return cases


def test_criterion_1_link_flow_tables(demo_network):
    with criterion(1, "UE and SO link flows/times reproduced in under 1 s"):
        paths = enumerate_paths(demo_network)
        start = time.perf_counter()
        so = solve_so(demo_network, paths)
        ue = solve_ue(demo_network, paths)
        elapsed = time.perf_counter() - start
        assert so.link_flows == pytest.approx([250, 750, 450, 550], abs=1.0)
        assert demo_network.link_times(so.link_flows) == pytest.approx(
            [22.5, 20.0, 17.0, 20.5], abs=0.05
        )
        assert ue.link_flows == pytest.approx([214, 786, 567, 433], abs=1.0)
        assert demo_network.link_times(ue.link_flows) == pytest.approx(
            [20.7, 20.7, 19.3, 19.3], abs=0.05
        )
        assert elapsed < 1.0, f"solves took {elapsed:.3f} s"


def test_criterion_2_average_times(demo_network):
    with criterion(2, "average travel times 40.1 (UE) and 39.6 (SO) +- 0.1 min"):
        paths = enumerate_paths(demo_network)
        assert average_time(solve_ue(demo_network, paths)) == pytest.approx(
            40.1, abs=0.1
        )
        assert average_time(solve_so(demo_network, paths)) == pytest.approx(
            39.6, abs=0.1
        )


def test_criterion_3_scheme_table(demo_run):
    with criterion(3, "path flows, VOT partition and payments reproduced"):
        assign = demo_run.assignment
        assert assign.subscriber_path_flows == pytest.approx(
            [0, 200, 360, 240], abs=1.0
        )
        assert assign.outsider_path_flows == pytest.approx(
            [0, 50, 90, 60], abs=1.0
        )
        o = demo_run.outcome
        assert o.partition[1] == pytest.approx(17.2, abs=0.05)
        assert o.partition[2] == pytest.approx(31.6, abs=0.05)
        assert o.payments == pytest.approx(
            [-1.37, -0.65, 1.19], abs=0.01
        )


def test_criterion_4_payment_consistency():
    with criterion(4, "payments recomputed from display-rounded inputs"):
        pay = compute_payments(
            np.array([43.0, 40.5, 39.5, 37.0]),
            np.array([5.0, 17.2, 31.6, 31.6, 45.0]),
            np.array([0.25, 0.30, 0.0, 0.45]),
        )
        assert pay[0] == pytest.approx(-1.37, abs=0.005)
        assert pay[1] == pytest.approx(-0.65, abs=0.005)
        assert pay[3] == pytest.approx(1.19, abs=0.005)
        rho = np.array([0.25, 0.30, 0.0, 0.45])
        assert abs(float(rho @ pay)) <= 1e-9


def test_criterion_5_strategy_proof(demo_run, random_suite):
    with criterion(5, "no profitable VOT misreport on fixture or 100 random runs"):
        check = check_strategy_proof(demo_run.outcome, grid=201)
        assert check.worst_margin_usd >= -1e-9
        assert check.boundary_worst_abs_usd <= 1e-9
        for outcome, _ in random_suite:
            result = check_strategy_proof(outcome, grid=201)
            assert result.worst_margin_usd >= -1e-9, result
            assert result.boundary_worst_abs_usd <= 1e-9, result


def test_criterion_6_revenue_neutral(demo_run, random_suite):
    with criterion(6, "expected charges equal expected subsidies everywhere"):
        checks = [check_revenue_neutral(demo_run.outcome)] + [
            check_revenue_neutral(outcome) for outcome, _ in random_suite
        ]
        for result in checks:
            assert result.passed, result


def test_criterion_7_pareto_chain(demo_run, demo_ue, random_suite):
    with criterion(7, "joining beats quitting beats no-policy, for every VOT"):
        report = cost_report(demo_run.outcome, demo_ue, 401)
        assert check_pareto(demo_run.outcome, report).passed
        assert report.improvement_subscriber_pct[0] == pytest.approx(34.0, abs=1.0)
        assert np.ptp(report.improvement_outsider_pct) <= 0.01
        for rnd_outcome, rnd_report in random_suite:
            assert check_pareto(rnd_outcome, rnd_report).passed


def test_criterion_8_lp_oracle_equivalence():
    with criterion(8, "simplex matches exhaustive lattice oracle on small LPs"):
        rng = np.random.default_rng(321)
        for _ in range(25):
            table, totals, times = random_transportation_instance(rng)
            lp = transportation_lp(
                table.class_demand, table.class_mean, totals, times
            )
            sol = solve_lp(lp)
            assert sol.optimal
            best = brute_force_lp_oracle(table, totals, times, step=1.0)
            assert sol.objective == pytest.approx(
                best, abs=1e-7 * (1.0 + abs(best))
            )


def test_criterion_9_class_count_insensitivity(demo_network, demo_vot):
    with criterion(9, "payments stable between 50 and 200 VOT classes"):
        dist, _ = demo_vot
        paths = enumerate_paths(demo_network)
        so = solve_so(demo_network, paths)
        payments = {}
        for M in (50, 200):
            classes = discretize(dist, demo_network.subscriber_demand, M)
            assign = solve_subscriber_lp(so, classes, demo_network, paths)
            payments[M] = build_outcome(assign, dist, so.path_times).payments
        assert np.abs(payments[50] - payments[200]).max() <= 0.01


def test_criterion_10_deterministic_outputs(tmp_path):
    with criterion(10, "identical scheme runs produce byte-identical files"):
        outputs = []
        for name in ("run1", "run2"):
            out = tmp_path / name
            code = cli_main(
                [
                    "scheme",
                    "--network", str(FIXTURE_DIR / "network.json"),
                    "--vot", str(FIXTURE_DIR / "vot.json"),
                    "--out", str(out),
                ]
            )
            assert code == 0
            outputs.append(
                tuple(
                    (out / f).read_bytes()
                    for f in ("scheme.json", "scheme.txt", "verification.json")
                )
            )
        assert outputs[0] == outputs[1]
