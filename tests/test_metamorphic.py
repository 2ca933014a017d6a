"""Metamorphic relations of the whole pipeline: a change to the inputs
whose effect on every output is known, so it holds whatever optimal
decomposition the solvers pick.

Scaling the VOT support by 2^k scales every VOT-valued output (partition,
payments, weighted cost) by exactly 2^k and leaves the flows bit for bit:
the subscriber master is solved in power-of-two flow and VOT units, so the
solve is the same one at every k.

Scaling the demand by 2^k, with every linear slope by 2^-k or every BPR
capacity by 2^k, leaves every link time as it was, so the SO is the same
solve in flows 2^k times larger: every path's subscriber and outsider flow,
the demands and the weighted cost scale by exactly 2^k, and every time,
share, VOT bound and payment stays bit for bit.

Permuting the links' order and ids in the network file leaves the SO and UE
link flows, mapped back to the old ids, and the weighted cost in place up
to rounding, and every ``passed`` flag as it was. Path flows and payments
are not compared: the paths are enumerated in another order, and an
optimum's decomposition into them need not be unique.

Adding an origin-destination link that is dear at zero flow leaves every
existing path's record and every ``passed`` flag in place, and the new path
carries no one. The records match up to the solver tolerance, not bit for
bit: the cold start loads the demand in ``links - nodes + 2`` parts, so one
more link changes the iterates.

Splitting a link into two in series through a new node, each half with half
its constant term, leaves every path's time and record in place up to
rounding, and every ``passed`` flag as it was; the paths through it gain the
new link's id after the old one.
"""

import io
import json
import math
from contextlib import redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pathpay.scheme
from _instances import network_document, random_grid, seeded_chain_or_grid
from conftest import FIXTURE_DIR
from pathpay import (
    VotDistribution, build_outcome, cost_report, discretize, enumerate_paths,
    run_verification, solve_so, solve_subscriber_lp, solve_ue,
)
from pathpay.cli import DEFAULT_REPORT_GRID, main
from pathpay.equilibrium import DEFAULT_TOL

# how each VOT parameter scales with the VOT: a density is per $/h
VOT_POWER = {"knots": 1, "samples": 1, "density": -1}


def scaled(value, k):
    """``value`` (a number, a list of them or None) times 2^k."""
    if isinstance(value, list):
        return [scaled(v, k) for v in value]
    return None if value is None else math.ldexp(value, k)


def scaled_vot_document(doc: dict, k: int) -> dict:
    """The VOT file ``doc`` with its support, and its knots, densities or
    samples with it, scaled by 2^k."""
    params = {key: scaled(v, k * VOT_POWER[key]) for key, v in doc.get("params", {}).items()}
    return {**doc, "support": scaled(doc["support"], k), "params": params}


def passed_flags(verification: dict) -> dict:
    """The ``passed`` flag of a verification.json document and of each of
    its checks."""
    return {name: v if name == "passed" else v["passed"] for name, v in verification.items()}


def fixture_scheme(monkeypatch, tmp_path, k):
    """``pathpay scheme`` on the fixture with its VOT scaled by 2^k:
    scheme.json, verification.json and the subscriber LP's rounds."""
    doc = json.loads((FIXTURE_DIR / "vot.json").read_text())
    vot = tmp_path / f"vot{k}.json"
    vot.write_text(json.dumps(scaled_vot_document(doc, k)))
    out = tmp_path / f"out{k}"
    solved = []
    solve = pathpay.scheme.solve_subscriber_lp

    def record(*args):
        solved.append(solve(*args))
        return solved[-1]

    with monkeypatch.context() as patch:
        patch.setattr(pathpay.scheme, "solve_subscriber_lp", record)
        with redirect_stdout(io.StringIO()):
            code = main(["scheme", "--network", str(FIXTURE_DIR / "network.json"),
                         "--vot", str(vot), "--out", str(out)])
    assert code == 0
    scheme = json.loads((out / "scheme.json").read_text())
    verification = json.loads((out / "verification.json").read_text())
    return scheme, verification, solved[0].rounds


def test_fixture_scheme_scales_with_the_vot(monkeypatch, tmp_path):
    base, base_checks, base_rounds = fixture_scheme(monkeypatch, tmp_path, 0)
    for k in range(-6, 7):
        scheme, checks, rounds = fixture_scheme(monkeypatch, tmp_path, k)
        assert rounds == base_rounds
        assert passed_flags(checks) == passed_flags(base_checks)
        assert scheme["weighted_cost"] == scaled(base["weighted_cost"], k)
        for path, ref in zip(scheme["paths"], base["paths"], strict=True):
            for key in ("time_min", "subscribers", "outsiders", "share"):
                assert path[key] == ref[key]
            for key in ("vot_low", "vot_high", "payment_usd"):
                assert path[key] == scaled(ref[key], k)


def assert_scheme_scales_with_the_vot(net, ks):
    """The stages of `pathpay scheme` past the SO and UE, which the VOT does
    not enter, on ``net`` under a VOT uniform on [5, 45] * 2^k for each k
    in ``ks``: every flow, the rounds, the order and every ``passed`` flag
    bit for bit as at k = 0, and every VOT-valued output 2^k times it."""
    paths = enumerate_paths(net)
    so = solve_so(net, paths)
    ue = solve_ue(net, paths, start=so.path_flows)
    runs = {}
    for k in (0, *ks):
        dist = VotDistribution.uniform(math.ldexp(5.0, k), math.ldexp(45.0, k))
        assign = solve_subscriber_lp(so, discretize(dist, net.subscriber_demand, 50), net, paths)
        outcome = build_outcome(assign, dist, so.path_times)
        verification = run_verification(outcome, cost_report(outcome, ue, DEFAULT_REPORT_GRID))
        runs[k] = assign, outcome, passed_flags(verification.to_dict())
    base, base_outcome, base_flags = runs[0]
    for k in ks:
        assign, outcome, flags = runs[k]
        assert np.array_equal(assign.subscriber_path_flows, base.subscriber_path_flows)
        assert np.array_equal(assign.outsider_path_flows, base.outsider_path_flows)
        assert assign.weighted_cost == math.ldexp(base.weighted_cost, k)
        assert assign.rounds == base.rounds
        assert outcome.order == base_outcome.order
        assert np.array_equal(outcome.partition, np.ldexp(base_outcome.partition, k))
        assert np.array_equal(outcome.payments, np.ldexp(base_outcome.payments, k))
        assert flags == base_flags


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("kind", ["linear", "bpr"])
def test_grid_scheme_scales_with_the_vot(kind, seed):
    # at k = 20 and 40 the cut rows once carried raw VOTs, and the simplex
    # broke on them
    assert_scheme_scales_with_the_vot(
        random_grid(np.random.default_rng(seed), 5, kind), (-40, -20, 20, 40)
    )


@settings(max_examples=30)
@given(seed=st.integers(0, 2**16), grid=st.booleans(), k=st.integers(-40, 40))
def test_drawn_scheme_scales_with_the_vot(seed, grid, k):
    # a 5 x 5 grid, whose subscriber master reaches the simplex on most
    # seeds, or a small chain or grid, of either cost kind
    if grid:
        net = random_grid(np.random.default_rng(seed), 5, ("linear", "bpr")[seed % 2])
    else:
        net = seeded_chain_or_grid(seed)
    assert_scheme_scales_with_the_vot(net, (k,))


def scaled_demand_document(doc: dict, k: int) -> dict:
    """The network file ``doc`` with its demands scaled by 2^k, and with
    them its linear slopes by 2^-k and its BPR capacities by 2^k."""
    links = []
    for link in doc["links"]:
        kind, (t0, scale, *rest) = link["cost"]["kind"], link["cost"]["params"]
        scale = math.ldexp(scale, -k if kind == "linear" else k)
        links.append({**link, "cost": {"kind": kind, "params": [t0, scale, *rest]}})
    demand = doc["demand"]
    return {**doc, "links": links,
            "demand": {**demand, "total": scaled(demand["total"], k),
                       "subscribers": scaled(demand["subscribers"], k)}}


def scheme_files(tmp_path, doc: dict, name: str, *options: str) -> tuple[dict, dict]:
    """scheme.json and verification.json of ``pathpay scheme`` with the
    flags ``options`` on the network file ``doc`` under the fixture's VOT."""
    network = tmp_path / f"{name}.json"
    network.write_text(json.dumps(doc))
    out = tmp_path / name
    with redirect_stdout(io.StringIO()):
        assert main(["scheme", "--network", str(network), "--vot",
                     str(FIXTURE_DIR / "vot.json"), "--out", str(out), *options]) == 0
    return (json.loads((out / "scheme.json").read_text()),
            json.loads((out / "verification.json").read_text()))


# seeds 0-7 hold chains and grids, each with linear and with BPR costs
@pytest.mark.parametrize("seed", range(8))
def test_scheme_scales_with_the_demand(tmp_path, seed):
    doc = network_document(seeded_chain_or_grid(seed))
    base, base_checks = scheme_files(tmp_path, doc, "base")
    for k in (-20, -3, 3, 20):
        scheme, checks = scheme_files(tmp_path, scaled_demand_document(doc, k), f"k{k}")
        assert passed_flags(checks) == passed_flags(base_checks)
        for key in ("subscriber_demand", "outsider_demand", "weighted_cost"):
            assert scheme[key] == scaled(base[key], k)
        for key in ("so_relative_gap", "ue_relative_gap", "vot_classes"):
            assert scheme[key] == base[key]
        for path, ref in zip(scheme["paths"], base["paths"], strict=True):
            for key in ("subscribers", "outsiders"):
                assert path[key] == scaled(ref[key], k)
            for key in ("label", "time_min", "share", "vot_low", "vot_high", "payment_usd"):
                assert path[key] == ref[key]


def permuted_links(doc: dict, rng: np.random.Generator) -> tuple[dict, dict]:
    """The network file ``doc`` with its links in a shuffled order under
    shuffled ids, and the map from each new id to the old one."""
    links = doc["links"]
    old_ids = [link["id"] for link in links]
    new_ids = [int(i) for i in rng.permutation(old_ids)]
    shuffled = [{**links[i], "id": new_ids[i]} for i in rng.permutation(len(links))]
    return {**doc, "links": shuffled}, dict(zip(new_ids, old_ids))


def scheme_and_equilibria(tmp_path, doc: dict, name: str) -> dict:
    """``pathpay equilibria`` and ``pathpay scheme`` on the network file
    ``doc`` under the fixture's VOT: the SO and UE link flows by link id,
    the weighted cost and the ``passed`` flags."""
    network = tmp_path / f"{name}.json"
    network.write_text(json.dumps(doc))
    out = tmp_path / name
    with redirect_stdout(io.StringIO()):
        assert main(["equilibria", "--network", str(network), "--out", str(out)]) == 0
        assert main(["scheme", "--network", str(network), "--vot",
                     str(FIXTURE_DIR / "vot.json"), "--out", str(out)]) == 0
    equilibria = json.loads((out / "equilibria.json").read_text())
    return {
        "flows": {regime: dict(zip(equilibria["links"], equilibria[regime]["flows"]))
                  for regime in ("so", "ue")},
        "weighted_cost": json.loads((out / "scheme.json").read_text())["weighted_cost"],
        "passed": passed_flags(json.loads((out / "verification.json").read_text())),
    }


@pytest.mark.parametrize(
    "instance", ["fixture", *(f"{kind}-{seed}" for kind in ("linear", "bpr") for seed in (1, 2, 3))]
)
def test_permuted_links(tmp_path, instance):
    if instance == "fixture":
        doc = json.loads((FIXTURE_DIR / "network.json").read_text())
    else:
        kind, seed = instance.split("-")
        doc = network_document(random_grid(np.random.default_rng(int(seed)), 5, kind))
    permuted, old_id = permuted_links(doc, np.random.default_rng(0))
    assert [link["id"] for link in permuted["links"]] != [link["id"] for link in doc["links"]]
    base = scheme_and_equilibria(tmp_path, doc, "base")
    run = scheme_and_equilibria(tmp_path, permuted, "permuted")
    demand = doc["demand"]["total"]
    for regime, flows in run["flows"].items():
        mapped = {old_id[i]: flow for i, flow in flows.items()}
        assert mapped.keys() == base["flows"][regime].keys()
        for i, flow in mapped.items():
            assert flow == pytest.approx(base["flows"][regime][i], abs=1e-12 * demand)
    assert run["weighted_cost"] == pytest.approx(base["weighted_cost"], rel=1e-12)
    assert run["passed"] == base["passed"]


def with_dear_link(doc: dict, cost: float) -> dict:
    """The network file ``doc`` with one more link, from the origin to the
    destination at the constant time ``cost``, under an id above the rest:
    its path is enumerated last and every other path keeps its label."""
    link = {"id": max(other["id"] for other in doc["links"]) + 1,
            "from": doc["demand"]["origin"], "to": doc["demand"]["destination"],
            "cost": {"kind": "linear", "params": [cost, 0.0]}}
    return {**doc, "links": [*doc["links"], link]}


# seeds 0-7 hold chains and grids, each with linear and with BPR costs
@pytest.mark.parametrize("seed", range(8))
def test_dear_link_is_left_unused(tmp_path, seed):
    doc = network_document(seeded_chain_or_grid(seed))
    base, base_checks = scheme_files(tmp_path, doc, "base")
    network = tmp_path / "base.json"
    with redirect_stdout(io.StringIO()):
        assert main(["equilibria", "--network", str(network), "--out", str(tmp_path / "eq")]) == 0
    ue_time = json.loads((tmp_path / "eq" / "equilibria.json").read_text())["ue"]["equilibrium_time_min"]
    top = max(ue_time, *(path["time_min"] for path in base["paths"]))
    # the SO routes by marginal cost, t + q t'(q): at most 2 t on a linear
    # link and (1 + power) t = 5 t on these BPR links. So at 10 times every
    # time the new link is dearer at the margin than every used path; just
    # above the times, the SO of the seed-0 chain puts 43% of its users on it
    scheme, checks = scheme_files(tmp_path, with_dear_link(doc, 10 * top), "dear")
    assert passed_flags(checks) == passed_flags(base_checks)
    *paths, new = scheme["paths"]
    assert (new["subscribers"], new["outsiders"], new["share"]) == (0.0, 0.0, 0.0)
    assert new["payment_usd"] is None
    # each solve stops at a relative gap of at most DEFAULT_TOL. The SO and
    # UE objectives are strongly convex in the link flows, so a gap g leaves
    # the flows and times within O(sqrt(g)) of the optimum, relative to
    # their scale, and the LP outputs follow them. Measured: 1.8e-8 of the
    # largest time on the seed-3 BPR grid, rounding on the linear seeds
    for path, ref in zip(paths, base["paths"], strict=True):
        assert (path["label"], path["path"]) == (ref["label"], ref["path"])
        assert_record_near(path, ref, record_scales(doc, top))


def test_dear_link_solves_at_a_tight_tol(tmp_path):
    # the seed-7 network of the test above, a 3x3 BPR grid, with its dear
    # link: one more part in the cold start's loading, after which the SO
    # needs steps at the objective's rounding floor to reach --tol 1e-10
    net = seeded_chain_or_grid(7)
    paths = enumerate_paths(net)
    so = solve_so(net, paths)
    top = max(solve_ue(net, paths, start=so.path_flows).ue_time, so.path_times.max())
    doc = with_dear_link(network_document(net), 10 * top)
    scheme, checks = scheme_files(tmp_path, doc, "dear", "--tol", "1e-10")
    assert scheme["so_relative_gap"] <= 1e-10
    assert all(passed_flags(checks).values())
    assert scheme["paths"][-1]["subscribers"] == 0.0


def record_scales(doc: dict, top: float) -> dict:
    """The scale of each numeric field of a scheme.json path record on the
    network file ``doc`` under the fixture's VOT, with ``top`` the largest
    path time."""
    hi = json.loads((FIXTURE_DIR / "vot.json").read_text())["support"][1]
    return {"time_min": top, "subscribers": doc["demand"]["total"],
            "outsiders": doc["demand"]["total"], "share": 1.0, "vot_low": hi,
            "vot_high": hi, "payment_usd": hi * top / 60}


def assert_record_near(path: dict, ref: dict, scales: dict) -> None:
    """Each field of ``scales`` in the path record ``path`` is None where
    ``ref``'s is, and otherwise within sqrt(DEFAULT_TOL) of its scale."""
    rel = math.sqrt(DEFAULT_TOL)
    for key, size in scales.items():
        if ref[key] is None:
            assert path[key] is None
        else:
            assert path[key] == pytest.approx(ref[key], abs=rel * size)


def with_split_link(doc: dict) -> tuple[dict, int]:
    """The network file ``doc`` with its first link split in two in series
    through a new node, each half with half the constant term: a linear
    ``(a0/2, a1/2)``, a BPR ``t0/2`` with the rest unchanged. The second half
    takes an id above the rest, which is returned too."""
    first, *rest = doc["links"]
    kind, params = first["cost"]["kind"], first["cost"]["params"]
    if kind == "linear":
        half = [params[0] / 2, params[1] / 2]
    else:
        half = [params[0] / 2, *params[1:]]
    new_id = max(link["id"] for link in doc["links"]) + 1
    cost = {"kind": kind, "params": half}
    halves = [{**first, "to": "split", "cost": cost},
              {"id": new_id, "from": "split", "to": first["to"], "cost": cost}]
    return {**doc, "nodes": [*doc["nodes"], "split"], "links": [*halves, *rest]}, new_id


# seeds 0-7 hold chains and grids, each with linear and with BPR costs
@pytest.mark.parametrize("seed", range(8))
def test_split_link_leaves_the_scheme(tmp_path, seed):
    doc = network_document(seeded_chain_or_grid(seed))
    base, base_checks = scheme_files(tmp_path, doc, "base")
    split, new_id = with_split_link(doc)
    scheme, checks = scheme_files(tmp_path, split, "split")
    assert passed_flags(checks) == passed_flags(base_checks)
    top = max(path["time_min"] for path in base["paths"])
    first = doc["links"][0]["id"]
    # ids keep their order along every path, so the paths keep theirs
    for path, ref in zip(scheme["paths"], base["paths"], strict=True):
        ids = [j for i in ref["path"] for j in ((i, new_id) if i == first else (i,))]
        assert path["path"] == ids
        # the cold start loads as many parts (one more link and one more
        # node), so the solves differ by rounding: measured 1.2e-15 of the
        # largest time, and 1.7e-13 $ on a payment
        eps = np.finfo(float).eps
        assert path["time_min"] == pytest.approx(ref["time_min"], abs=16 * eps * top)
        assert_record_near(path, ref, record_scales(doc, top))
