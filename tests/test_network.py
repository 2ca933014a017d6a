import json
import time

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import pathpay.network
from _instances import parallel_network, random_network
from _oracles import recursive_paths
from pathpay import (
    LinkCostFn,
    NetworkError,
    PathCountError,
    enumerate_paths,
    parse_network,
)


def make_net(links, nodes, origin, destination, total=10.0, subscribers=5.0):
    return parse_network(
        json.dumps(
            {
                "nodes": nodes,
                "links": links,
                "demand": {
                    "origin": origin,
                    "destination": destination,
                    "total": total,
                    "subscribers": subscribers,
                },
            }
        )
    )


LINEAR = {"kind": "linear", "params": [1.0, 0.1]}


class TestParse:
    def test_demo_fixture(self, demo_network):
        assert len(demo_network.links) == 4
        assert demo_network.demand == 1000.0
        assert demo_network.subscriber_demand == 800.0
        assert demo_network.outsider_demand == 200.0

    def test_single_link_zero_demand(self):
        net = make_net(
            [{"id": 1, "from": "A", "to": "B", "cost": LINEAR}],
            ["A", "B"],
            "A",
            "B",
            total=0.0,
            subscribers=0.0,
        )
        assert net.demand == 0.0

    def test_origin_equals_destination(self):
        with pytest.raises(NetworkError):
            make_net(
                [{"id": 1, "from": "A", "to": "B", "cost": LINEAR}],
                ["A", "B"],
                "A",
                "A",
            )

    def test_malformed_json(self):
        with pytest.raises(NetworkError):
            parse_network("{not json")
        with pytest.raises(NetworkError, match="invalid JSON"):
            parse_network('{"nodes": ' + "1" * 5000 + "}")

    def test_unknown_cost_kind(self):
        with pytest.raises(NetworkError):
            make_net(
                [{"id": 1, "from": "A", "to": "B",
                  "cost": {"kind": "cubic", "params": [1.0]}}],
                ["A", "B"],
                "A",
                "B",
            )

    def test_negative_demand(self):
        with pytest.raises(NetworkError):
            make_net(
                [{"id": 1, "from": "A", "to": "B", "cost": LINEAR}],
                ["A", "B"],
                "A",
                "B",
                total=-1.0,
                subscribers=0.0,
            )

    def test_disconnected(self):
        with pytest.raises(NetworkError):
            make_net(
                [{"id": 1, "from": "A", "to": "B", "cost": LINEAR}],
                ["A", "B", "C"],
                "A",
                "C",
            )

    def test_duplicate_link_ids(self):
        with pytest.raises(NetworkError):
            make_net(
                [
                    {"id": 1, "from": "A", "to": "B", "cost": LINEAR},
                    {"id": 1, "from": "A", "to": "B", "cost": LINEAR},
                ],
                ["A", "B"],
                "A",
                "B",
            )

    def test_subscribers_above_total(self):
        with pytest.raises(NetworkError):
            make_net(
                [{"id": 1, "from": "A", "to": "B", "cost": LINEAR}],
                ["A", "B"],
                "A",
                "B",
                total=10.0,
                subscribers=11.0,
            )


class TestEnumerate:
    def test_demo_paths(self, demo_network):
        ps = enumerate_paths(demo_network)
        assert ps.paths == ((1, 3), (1, 4), (2, 3), (2, 4))

    def test_serial_chain(self):
        net = make_net(
            [
                {"id": 1, "from": "A", "to": "B", "cost": LINEAR},
                {"id": 2, "from": "B", "to": "C", "cost": LINEAR},
                {"id": 3, "from": "C", "to": "D", "cost": LINEAR},
            ],
            ["A", "B", "C", "D"],
            "A",
            "D",
        )
        ps = enumerate_paths(net)
        assert ps.paths == ((1, 2, 3),)

    def test_complete_digraph_exceeds_budget(self, monkeypatch):
        nodes = [f"n{i}" for i in range(5)]
        links = []
        lid = 1
        for a in nodes:
            for b in nodes:
                if a != b:
                    links.append({"id": lid, "from": a, "to": b, "cost": LINEAR})
                    lid += 1
        net = make_net(links, nodes, "n0", "n4")

        # independent count of simple paths by a separate recursive search
        adj = {n: [] for n in nodes}
        for e in links:
            adj[e["from"]].append(e["to"])

        def count(node, seen):
            if node == "n4":
                return 1
            total = 0
            for nxt in adj[node]:
                if nxt not in seen:
                    total += count(nxt, seen | {nxt})
            return total

        n_simple = count("n0", {"n0"})
        assert n_simple > 2
        monkeypatch.setattr(pathpay.network, "MAX_PATHS", 2)
        with pytest.raises(PathCountError, match="more than 2 simple paths; reduce the network"):
            enumerate_paths(net)
        monkeypatch.setattr(pathpay.network, "MAX_PATHS", n_simple)
        assert len(enumerate_paths(net)) == n_simple

    def test_matches_recursive_search(self, demo_network):
        nets = [demo_network] + [
            random_network(np.random.default_rng(seed)) for seed in range(100)
        ]
        # random digraphs on 7 nodes: links into the origin, out of the
        # destination, cycles and nodes that cannot reach the destination
        nodes = [f"n{i}" for i in range(7)]
        pairs = [(a, b) for a in nodes for b in nodes if a != b]
        for seed in range(100):
            rng = np.random.default_rng(seed)
            chosen = rng.choice(len(pairs), size=14, replace=False)
            links = [
                {"id": int(lid), "from": pairs[k][0], "to": pairs[k][1], "cost": LINEAR}
                for lid, k in zip(rng.permutation(100)[:14] + 1, chosen)
            ]
            links.append({"id": 101, "from": "n0", "to": "n6", "cost": LINEAR})
            nets.append(make_net(links, nodes, "n0", "n6"))
        for net in nets:
            assert enumerate_paths(net).paths == recursive_paths(net)

    def test_dead_end_clique_is_not_walked(self):
        # a 12-node clique behind one link from the origin holds ~10^8
        # simple partial paths, none of which reaches the destination
        k = 12
        clique = [f"k{i}" for i in range(k)]
        links = [
            {"id": 1, "from": "O", "to": "D", "cost": LINEAR},
            {"id": 2, "from": "O", "to": clique[0], "cost": LINEAR},
        ]
        links += [
            {"id": len(links) + 1 + n, "from": a, "to": b, "cost": LINEAR}
            for n, (a, b) in enumerate((a, b) for a in clique for b in clique if a != b)
        ]
        net = make_net(links, ["O", "D", *clique], "O", "D")
        start = time.perf_counter()
        assert enumerate_paths(net).paths == ((1,),)
        assert time.perf_counter() - start < 1.0

    def test_deterministic(self, demo_network):
        a = enumerate_paths(demo_network)
        b = enumerate_paths(demo_network)
        assert a.paths == b.paths
        assert np.array_equal(a.incidence, b.incidence)

    def test_incidence_column_sums(self, demo_network):
        ps = enumerate_paths(demo_network)
        lengths = ps.incidence.sum(axis=0)
        assert lengths.tolist() == [len(p) for p in ps.paths]


def link_values(fn, flow):
    """Time, marginal cost, integral and derivative of one cost function at
    one flow, from a one-link network: its travel time, its gradient under
    the system-optimal objective, and the value and curvature of the
    Beckmann potential."""
    net = parallel_network([fn])
    q = np.array([flow])
    _, marginal, _ = net.link_objective(q, "SO")
    integral, _, slope = net.link_objective(q, "UE")
    return net.link_times(q)[0], marginal[0], integral, slope[0]


class TestCostFns:
    def test_table_value(self):
        time, _, _, _ = link_values(LinkCostFn("linear", (10.0, 0.05)), 250.0)
        assert time == pytest.approx(22.5, abs=1e-12)

    def test_zero_flow_marginal_equals_cost(self):
        fns = [
            LinkCostFn("linear", (7.0, 0.3)),
            LinkCostFn("polynomial", [2.0, 0.1, 0.01]),
            LinkCostFn("bpr", (5.0, 100.0, 0.15, 4.0)),
        ]
        for fn in fns:
            time, marginal, _, _ = link_values(fn, 0.0)
            assert time == pytest.approx(fn.params[0], rel=1e-12)
            assert marginal == pytest.approx(time)

    def test_hand_marginal(self):
        time, marginal, _, _ = link_values(LinkCostFn("linear", (5.0, 0.02)), 750.0)
        assert time == pytest.approx(20.0)
        assert marginal == pytest.approx(35.0)

    def test_negative_flow_rejected(self):
        net = parallel_network([LinkCostFn("linear", (1.0, 1.0))])
        with pytest.raises(NetworkError):
            net.link_times([-0.5])

    def test_bad_params(self):
        with pytest.raises(NetworkError):
            LinkCostFn("linear", (-1.0, 0.0))
        with pytest.raises(NetworkError):
            LinkCostFn("bpr", (1.0, 10.0, 0.15, 0.5))
        with pytest.raises(NetworkError):
            LinkCostFn("polynomial", [1.0, -2.0])
        # non-finite parameters given to the constructor, which the parser
        # rejects before it
        for params in ((np.nan, 1.0), (1.0, np.inf)):
            with pytest.raises(NetworkError, match="parameters must be finite"):
                LinkCostFn("linear", params)

    def test_bpr_shape(self):
        net = parallel_network([LinkCostFn("bpr", (10.0, 500.0, 0.15, 4.0))])
        assert net.link_times([500.0])[0] == pytest.approx(11.5)
        assert net.link_times([0.0])[0] == pytest.approx(10.0)


def cost_fn_strategy():
    linear = st.tuples(
        st.floats(0.0, 100.0), st.floats(0.0, 10.0)
    ).map(lambda p: LinkCostFn("linear", p))
    poly = st.lists(st.floats(0.0, 5.0), min_size=1, max_size=4).map(
        lambda p: LinkCostFn("polynomial", p)
    )
    bpr = st.tuples(
        st.floats(0.1, 50.0),
        st.floats(10.0, 1000.0),
        st.floats(0.0, 2.0),
        st.floats(1.0, 6.0),
    ).map(lambda p: LinkCostFn("bpr", p))
    return st.one_of(linear, poly, bpr)


@given(fn=cost_fn_strategy(), q1=st.floats(0.0, 1000.0), q2=st.floats(0.0, 1000.0))
def test_cost_monotone(fn, q1, q2):
    lo, hi = parallel_network([fn, fn]).link_times(sorted((q1, q2)))
    assert hi >= lo - 1e-9 * (1.0 + abs(hi))


@given(fn=cost_fn_strategy(), q=st.floats(0.01, 1000.0))
@example(fn=LinkCostFn("bpr", (33, 10, 2, 1.5)), q=0.01)
def test_derivative_matches_finite_difference(fn, q):
    # near zero flow the third derivative of a power-p cost grows like
    # q**(p-3); a step relative to q keeps the central difference's
    # truncation error at (p-1)(p-2)/6 * 1e-8 of the derivative
    h = 1e-4 * q
    below, above = parallel_network([fn, fn]).link_times([q - h, q + h])
    numeric = (above - below) / (2 * h)
    *_, exact = link_values(fn, q)
    assert abs(exact - numeric) <= 1e-6 * (1.0 + abs(exact))


@given(fn=cost_fn_strategy(), q=st.floats(0.0, 1000.0))
def test_marginal_at_least_cost(fn, q):
    time, marginal, _, _ = link_values(fn, q)
    assert marginal >= time - 1e-12


def reference_values(fn, q):
    """Time, marginal and integral of one link by the closed forms per kind."""
    if fn.kind == "bpr":
        t0, cap, alpha, power = fn.params
        time = t0 * (1.0 + alpha * (q / cap) ** power)
        slope = t0 * alpha * power * q ** (power - 1.0) / cap**power
        integral = t0 * (q + alpha * q * (q / cap) ** power / (power + 1.0))
    else:
        c = fn.params
        time = sum(ck * q**k for k, ck in enumerate(c))
        slope = sum(k * ck * q ** (k - 1) for k, ck in enumerate(c) if k)
        integral = sum(ck * q ** (k + 1) / (k + 1) for k, ck in enumerate(c))
    return time, time + q * slope, integral


# linear, polynomials of degree 0-4 and BPR (its power drawn from [1, 6], so
# mostly non-integer), each at zero flow or at a flow drawn from [0, 1000]
mixed_link = st.tuples(
    st.one_of(
        cost_fn_strategy(),
        st.lists(st.floats(0.0, 5.0), min_size=1, max_size=5).map(
            lambda p: LinkCostFn("polynomial", p)
        ),
    ),
    st.one_of(st.just(0.0), st.floats(0.0, 1000.0)),
)


@given(links=st.lists(mixed_link, min_size=1, max_size=8))
def test_compiled_costs_match_per_link(links):
    fns = [fn for fn, _ in links]
    q = np.array([flow for _, flow in links])
    net = parallel_network(fns)
    per_link = np.array([link_values(fn, f)[:3] for fn, f in links])
    # the same arithmetic link by link and all at once: equal up to rounding
    rtol = 8 * np.finfo(float).eps
    np.testing.assert_allclose(net.link_times(q), per_link[:, 0], rtol=rtol, atol=0.0)
    _, marginals, _ = net.link_objective(q, "SO")
    np.testing.assert_allclose(marginals, per_link[:, 1], rtol=rtol, atol=0.0)
    potential, _, _ = net.link_objective(q, "UE")
    assert potential == pytest.approx(per_link[:, 2].sum(), rel=1e-12, abs=1e-300)
    # and both agree with the closed forms, summed in another order
    reference = np.array([reference_values(fn, f) for fn, f in links])
    np.testing.assert_allclose(per_link, reference, rtol=1e-12, atol=1e-12)


def reference_curvatures(fn, q):
    """``2 t' + q t''`` and ``t'`` of one link by the closed forms per kind:
    the curvatures of the system-optimal and user-equilibrium objectives."""
    if fn.kind == "bpr":
        t0, cap, alpha, power = fn.params
        scale = t0 * alpha * power * q ** (power - 1.0) / cap**power
        return scale * (power + 1.0), scale
    c = fn.params
    slope = sum(k * ck * q ** (k - 1) for k, ck in enumerate(c) if k)
    curve = sum(k * (k + 1) * ck * q ** (k - 1) for k, ck in enumerate(c) if k)
    return curve, slope


@given(links=st.lists(mixed_link, min_size=1, max_size=8))
def test_link_objective_matches_public_methods(links):
    fns = [fn for fn, _ in links]
    q = np.array([flow for _, flow in links])
    net = parallel_network(fns)
    times = net.link_times(q)
    _, marginals, integrals = np.array([reference_values(fn, f) for fn, f in links]).T
    so_curvature, ue_curvature = np.array(
        [reference_curvatures(fn, f) for fn, f in links]
    ).T
    so = net.link_objective(q, "SO")
    ue = net.link_objective(q, "UE")
    # the SO value is total time at the link times and the UE gradient is
    # the link times themselves
    assert so[0] == pytest.approx(float(q @ times), rel=1e-12, abs=1e-300)
    np.testing.assert_allclose(ue[1], times, rtol=8 * np.finfo(float).eps, atol=0.0)
    # the rest match the closed forms
    assert ue[0] == pytest.approx(float(integrals.sum()), rel=1e-12, abs=1e-300)
    for fused, reference in ((so[1], marginals), (so[2], so_curvature), (ue[2], ue_curvature)):
        np.testing.assert_allclose(fused, reference, rtol=1e-12, atol=1e-12)


def test_unused_powers_do_not_overflow():
    # q**5 and (q/1)**2 overflow at these flows, but only a link whose own
    # cost has that power may see them
    fns = [
        LinkCostFn("linear", (1.0, 2.0)),
        LinkCostFn("polynomial", [1.0, 0.0, 0.0, 0.0, 1e-300]),
        LinkCostFn("bpr", (2.0, 10.0, 0.15, 4.0)),
    ]
    q = np.array([1e100, 1e60, 1e50])
    net = parallel_network(fns)
    times, marginals, integrals = np.array(
        [reference_values(fn, f) for fn, f in zip(fns, q)]
    ).T
    so_curvature, ue_curvature = np.array(
        [reference_curvatures(fn, f) for fn, f in zip(fns, q)]
    ).T
    so = net.link_objective(q, "SO")
    ue = net.link_objective(q, "UE")
    for compiled, values in (
        (net.link_times(q), times),
        (so[1], marginals),
        (so[2], so_curvature),
        (ue[1], times),
        (ue[2], ue_curvature),
    ):
        assert np.all(np.isfinite(values))
        np.testing.assert_allclose(compiled, values, rtol=1e-12)
    assert so[0] == pytest.approx(float(q @ times), rel=1e-12)
    assert ue[0] == pytest.approx(float(integrals.sum()), rel=1e-12)


def test_linear_costs():
    assert parallel_network([LinkCostFn("linear", (1.0, 0.5))]).linear_costs
    assert parallel_network([LinkCostFn("polynomial", [2.0])]).linear_costs
    curved = (LinkCostFn("polynomial", [1.0, 0.0, 1e-3]), LinkCostFn("bpr", (1.0, 9.0, 0.0, 1.0)))
    for fn in curved:
        assert not parallel_network([LinkCostFn("linear", (1.0, 0.5)), fn]).linear_costs


def test_network_rejects_negative_flow():
    net = parallel_network(
        [LinkCostFn("linear", (1.0, 0.5)), LinkCostFn("bpr", (2.0, 10.0, 0.15, 4.0))]
    )
    with pytest.raises(NetworkError, match="non-negative"):
        net.link_times([3.0, -1e-9])
