import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pathpay.equilibrium
import pathpay.scheme
import pathpay.simplex
from _instances import (
    benchmark_module, network_document, parallel_network, random_chain, random_grid,
)
from _oracles import dict_scheme_files, per_user_assignments
from conftest import FIXTURE_DIR
from pathpay import LinkCostFn, cli, parse_network, parse_vot, run_scheme
from pathpay.cli import main

NETWORK = str(FIXTURE_DIR / "network.json")
VOT = str(FIXTURE_DIR / "vot.json")


def run(args):
    return main(args)


def single_error_line(capsys) -> str:
    """The one line of stderr, which must be an ``error:`` line."""
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    return lines[0]


def parsed_json(text: str):
    """The document in ``text`` with every float literal and every
    object's keys, in file order, as the parser met them."""
    floats, key_lists = [], []

    def keep_keys(pairs):
        key_lists.append([key for key, _ in pairs])
        return dict(pairs)

    def keep_float(literal):
        floats.append(literal)
        return float(literal)

    data = json.loads(text, object_pairs_hook=keep_keys, parse_float=keep_float)
    return data, floats, key_lists


def fixture_network_with(tmp_path, link: int, params) -> str:
    """The fixture network with link index ``link``'s params replaced,
    written under ``tmp_path``."""
    data = json.loads(Path(NETWORK).read_text())
    data["links"][link]["cost"]["params"] = params
    network = tmp_path / "network.json"
    network.write_text(json.dumps(data))
    return str(network)


@pytest.fixture(scope="module")
def fixture_outputs(tmp_path_factory):
    """The fixture's JSON and CSV outputs, written once for the class below."""
    out = tmp_path_factory.mktemp("outputs")
    with redirect_stdout(io.StringIO()):
        assert main(["equilibria", "--network", NETWORK, "--out", str(out)]) == 0
        for command in ("scheme", "improvement"):
            assert main([command, "--network", NETWORK, "--vot", VOT, "--out", str(out)]) == 0
    return out


class TestOutputFormat:
    JSON_FILES = ("equilibria.json", "scheme.json", "verification.json")

    def test_json_floats_are_repr(self, fixture_outputs):
        # every float is spelled in its shortest round-trip form
        for name in self.JSON_FILES:
            text = (fixture_outputs / name).read_text(encoding="utf-8")
            data, floats, _ = parsed_json(text)
            assert floats, name
            assert [repr(float(f)) for f in floats] == floats, name
            assert text == json.dumps(data, indent=2, sort_keys=True) + "\n", name

    def test_json_keys_sorted(self, fixture_outputs):
        for name in self.JSON_FILES:
            _, _, key_lists = parsed_json((fixture_outputs / name).read_text(encoding="utf-8"))
            assert key_lists, name
            for keys in key_lists:
                assert keys == sorted(keys), name

    def test_verification_keys(self, fixture_outputs):
        # the file is the report's fields: a field added to a result
        # reaches it, so this set changes with it
        data = json.loads((fixture_outputs / "verification.json").read_text())
        assert {key: sorted(value) if isinstance(value, dict) else None
                for key, value in data.items()} == {
            "passed": None,
            "strategy_proof": [
                "boundary_worst_abs_usd", "passed", "tolerance_usd",
                "worst_declared_vot", "worst_margin_usd", "worst_true_vot",
            ],
            "revenue_neutral": ["passed", "residual_usd", "tolerance_usd"],
            "pareto": [
                "at_beta_quit_vs_join", "at_beta_ue_vs_quit", "passed",
                "worst_quit_vs_join_usd", "worst_ue_vs_quit_usd",
            ],
        }

    def test_improvement_cells_are_repr(self, fixture_outputs):
        rows = list(csv.reader(io.StringIO((fixture_outputs / "improvement.csv").read_text())))
        assert rows[0] == ["beta", "subscriber_cost", "quitter_cost", "ue_cost",
                           "improvement_subscriber_pct", "improvement_outsider_pct"]
        cells = [cell for row in rows[1:] for cell in row]
        assert len(cells) == 401 * 6
        assert cells == [repr(float(cell)) for cell in cells]

    def test_nan_improvement_cells_empty(self, tmp_path):
        # a VOT support starting at 0 gives a no-policy cost of 0 at beta 0,
        # where the improvement percentages are NaN
        vot = tmp_path / "vot.json"
        vot.write_text(json.dumps({"kind": "uniform", "support": [0.0, 45.0], "M": 20}))
        out = tmp_path / "o"
        with redirect_stdout(io.StringIO()):
            assert main(["improvement", "--network", NETWORK, "--vot", str(vot),
                         "--grid", "5", "--out", str(out)]) == 0
        rows = list(csv.reader(io.StringIO((out / "improvement.csv").read_text())))[1:]
        assert len(rows) == 5
        assert rows[0][0] == "0.0" and rows[0][4:] == ["", ""]
        for row in rows[1:]:
            assert all(row) and row == [repr(float(cell)) for cell in row]

    def test_json_writer_refuses_non_finite(self, tmp_path):
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                cli._write_json(tmp_path / "x.json", {"v": [1.0, value]})

    @pytest.mark.parametrize("case", ["empty", "generator", "one_block", "block_and_one",
                                      "empty_block_and_one"])
    def test_block_writer(self, tmp_path, case):
        block = cli._WRITE_BLOCK
        strings = [f"s{i}\n" for i in range(block + 1)]
        lines = {"empty": (), "generator": (s for s in strings),
                 "one_block": strings[:block], "block_and_one": strings,
                 # a block of empty strings does not end the file
                 "empty_block_and_one": [""] * block + ["last"]}[case]
        expected = "head\n" + "".join(strings if case == "generator" else lines)
        cli._write(tmp_path / "f", "head\n", lines)
        assert (tmp_path / "f").read_text(encoding="utf-8") == expected


def test_outputs_independent_of_hash_seed(tmp_path):
    # the iteration order of a set of strings follows PYTHONHASHSEED in a
    # fresh process; no output file may
    src = str(FIXTURE_DIR.parent / "src")
    written = []
    for seed in ("0", "1"):
        out = tmp_path / seed
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run(
            [sys.executable, "-m", "pathpay.cli", "scheme", "--network", NETWORK,
             "--vot", VOT, "--out", str(out)],
            env=env, capture_output=True, text=True,
        )
        assert (done.returncode, done.stderr) == (0, "")
        written.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
    assert sorted(written[0]) == ["scheme.json", "scheme.txt", "verification.json"]
    assert written[0] == written[1]


class TestEquilibria:
    def test_fixture_tables(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert run(["equilibria", "--network", NETWORK, "--out", str(out)]) == 0
        text = (out / "equilibria.txt").read_text()
        assert "SO flow" in text and "UE flow" in text
        assert "Average time (min)" in text
        data = json.loads((out / "equilibria.json").read_text())
        assert data["so"]["flows"] == pytest.approx([250, 750, 450, 550], abs=1e-3)
        assert data["ue"]["times_min"] == pytest.approx(
            [20.714, 20.714, 19.333, 19.333], abs=1e-3
        )
        assert data["ue"]["average_min"] == pytest.approx(40.048, abs=1e-3)
        assert data["so"]["average_min"] == pytest.approx(39.55, abs=1e-3)
        assert "SO flow" in capsys.readouterr().out

    def test_zero_demand_rows(self, tmp_path):
        net = tmp_path / "net.json"
        net.write_text(
            json.dumps(
                {
                    "nodes": ["A", "B"],
                    "links": [{"id": 1, "from": "A", "to": "B",
                               "cost": {"kind": "linear", "params": [1.0, 0.1]}}],
                    "demand": {"origin": "A", "destination": "B",
                               "total": 0.0, "subscribers": 0.0},
                }
            )
        )
        out = tmp_path / "o"
        assert run(["equilibria", "--network", str(net), "--out", str(out)]) == 0
        data = json.loads((out / "equilibria.json").read_text())
        assert data["so"]["flows"] == [0.0]
        assert data["ue"]["flows"] == [0.0]

    def test_missing_file(self, tmp_path, capsys):
        assert run(["equilibria", "--network", "nope.json",
                    "--out", str(tmp_path)]) == 1
        assert "error:" in capsys.readouterr().err


class TestScheme:
    def test_fixture_outputs(self, tmp_path):
        out = tmp_path / "o"
        assert run(["scheme", "--network", NETWORK, "--vot", VOT,
                    "--out", str(out)]) == 0
        data = json.loads((out / "scheme.json").read_text())
        by_label = {e["label"]: e for e in data["paths"]}
        assert by_label["(1)+(4)"]["payment_usd"] == pytest.approx(-1.367, abs=1e-3)
        assert by_label["(2)+(4)"]["payment_usd"] == pytest.approx(-0.650, abs=1e-3)
        assert by_label["(2)+(3)"]["payment_usd"] == pytest.approx(1.193, abs=1e-3)
        assert by_label["(1)+(4)"]["subscribers"] == pytest.approx(200.0, abs=1e-3)
        assert by_label["(1)+(4)"]["vot_low"] == pytest.approx(5.0, abs=1e-6)
        assert by_label["(1)+(4)"]["vot_high"] == pytest.approx(17.2, abs=1e-4)
        assert by_label["(1)+(3)"]["share"] == 0.0
        ver = json.loads((out / "verification.json").read_text())
        assert ver["passed"] is True
        text = (out / "scheme.txt").read_text()
        assert "Payment ($)" in text
        assert "-" in text  # the empty path renders as a dash

    def test_readme_table(self, fixture_outputs):
        readme = (FIXTURE_DIR.parent / "README.md").read_text(encoding="utf-8")
        block = readme.split("For the bundled fixture, `scheme` reproduces:\n\n```\n", 1)[1]
        table = block.split("```", 1)[0].splitlines()
        text = (fixture_outputs / "scheme.txt").read_text(encoding="utf-8")
        assert table == text.splitlines()[:6]

    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert run(["scheme", "--network", NETWORK, "--vot", VOT,
                        "--out", str(out)]) == 0
        for name in ("scheme.json", "scheme.txt", "verification.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_files_match_dict_oracle(self, tmp_path, monkeypatch):
        # scheme.txt and scheme.json, written from columns, equal byte for
        # byte what one dict per path through json.dumps gives: on the
        # fixture (an unused path, so null cells), every benchmark instance
        # of seeds 1-3, parallel links (single-link paths), a one-link
        # network, and a chain and a grid with two-digit link ids
        seen = {}
        for name in ("_run_with_baseline", "run_verification"):
            def kept(*args, _call=getattr(cli, name), _name=name):
                seen[_name] = _call(*args)
                return seen[_name]

            monkeypatch.setattr(cli, name, kept)

        cases = [("fixture", NETWORK, VOT, None)]
        bench = benchmark_module("instances")
        for seed in (1, 2, 3):
            for workload in bench.WORKLOADS:
                for inst in bench.write_workload(workload, seed, tmp_path / f"seed{seed}"):
                    cases.append((f"{workload} {inst.name} seed {seed}", inst.network,
                                  inst.vot, inst.classes))
        rng = np.random.default_rng(3)
        parallel = network_document(parallel_network(
            [LinkCostFn("linear", (10.0 + k, 0.01 + 0.002 * k)) for k in range(12)]))
        parallel["demand"].update(total=1000.0, subscribers=800.0)
        networks = {"parallel": parallel,
                    "one link": network_document(random_chain(rng, (1,), "linear")),
                    "chain": network_document(random_chain(rng, (1, 3, 2, 4), "bpr")),
                    "grid": network_document(random_grid(rng, 4, "linear"))}
        for name, document in networks.items():
            network = tmp_path / f"{name}.json"
            network.write_text(json.dumps(document))
            cases.append((name, network, VOT, None))

        out = tmp_path / "o"
        nulls = 0
        for name, network, vot, classes in cases:
            argv = ["scheme", "--network", str(network), "--vot", str(vot), "--out", str(out)]
            if classes is not None:
                argv += ["--classes", str(classes)]
            with redirect_stdout(io.StringIO()):
                assert main(argv) == 0, name
            net, result, ue, _ = seen["_run_with_baseline"]
            text, document = dict_scheme_files(net, result, ue, seen["run_verification"])
            assert (out / "scheme.txt").read_bytes() == text.encode(), name
            assert (out / "scheme.json").read_bytes() == document.encode(), name
            nulls += document.count("null")
        assert len(cases) == 1 + 3 * 6 + 4 and nulls > 0

    @pytest.mark.parametrize("field", ["payment", "path time"])
    def test_non_finite_value_is_one_error_line(self, tmp_path, capsys, monkeypatch, field):
        # a value JSON cannot hold stops the run before any file is written
        solve = cli.run_scheme

        def broken(*args, **kwargs):
            result = solve(*args, **kwargs)
            if field == "payment":
                payments = result.outcome.payments.copy()
                payments[0] = math.nan
                outcome = dataclasses.replace(result.outcome, payments=payments)
                return dataclasses.replace(result, outcome=outcome)
            times = result.so.path_times.copy()
            times[-1] = math.inf
            return dataclasses.replace(result, so=dataclasses.replace(result.so, path_times=times))

        monkeypatch.setattr(cli, "run_scheme", broken)
        out = tmp_path / "o"
        assert run(["scheme", "--network", NETWORK, "--vot", VOT, "--out", str(out)]) == 1
        assert "not JSON compliant" in single_error_line(capsys)
        assert not out.exists()

    def test_class_override(self, tmp_path):
        out = tmp_path / "o"
        assert run(["scheme", "--network", NETWORK, "--vot", VOT,
                    "--classes", "50", "--out", str(out)]) == 0
        data = json.loads((out / "scheme.json").read_text())
        assert data["vot_classes"] == 50


@pytest.mark.parametrize("command", ["equilibria", "scheme", "improvement", "assign"])
def test_rerun_replaces_output_files(tmp_path, command):
    # a rerun writes each output as a new file: a longer stale file leaves
    # no tail, and a symlink in an output's place is replaced, not followed
    roster = tmp_path / "roster.csv"
    roster.write_text("user_id,role,vot\nu1,subscriber,20\nu2,outsider,\n")
    argv = [command, "--network", NETWORK]
    argv += {"equilibria": [], "assign": ["--vot", VOT, "--roster", str(roster)]}.get(
        command, ["--vot", VOT])

    def outputs(out):
        with redirect_stdout(io.StringIO()):
            assert main(argv + ["--out", str(out)]) == 0
        return {f.name: f.read_bytes() for f in sorted(out.iterdir())}

    expected = outputs(tmp_path / "fresh")
    out = tmp_path / "rerun"
    out.mkdir()
    for name, data in expected.items():
        (out / name).write_bytes(b"stale" * (len(data) + 1))
    linked = tmp_path / "elsewhere.txt"
    linked.write_text("not an output")
    first = out / min(expected)
    first.unlink()
    first.symlink_to(linked)
    assert outputs(out) == expected
    assert not first.is_symlink()
    assert linked.read_text() == "not an output"


@pytest.mark.parametrize("command, name", [("scheme", "scheme.json"),
                                           ("assign", "assignments.csv")])
def test_output_path_that_is_a_directory(tmp_path, capsys, command, name):
    roster = tmp_path / "roster.csv"
    roster.write_text("user_id,role,vot\nu1,subscriber,20\n")
    out = tmp_path / "o"
    (out / name).mkdir(parents=True)
    argv = [command, "--network", NETWORK, "--vot", VOT, "--out", str(out)]
    if command == "assign":
        argv += ["--roster", str(roster)]
    assert run(argv) == 1
    assert name in single_error_line(capsys)


class TestInputBoundary:
    @pytest.mark.parametrize(
        "file, path, value, field",
        [
            ("network", ["demand", "total"], "nan", "demand.total"),
            ("network", ["demand", "total"], True, "demand.total"),
            ("network", ["demand", "subscribers"], None, "demand.subscribers"),
            ("network", ["links", 1, "cost", "params"], ["1", 2],
             "links[1].cost.params[0]"),
            ("network", ["links", 0, "id"], False, "links[0].id"),
            ("network", ["links", 2, "from"], 2, "links[2].from"),
            ("vot", ["support"], [None, 5], "support[0]"),
            ("vot", ["M"], True, "M"),
            ("vot", ["M"], 2.5, "M"),
            ("vot", ["params", "knots", 1], "x", "params.knots[1]"),
            ("vot", ["params", "density"], 1.0, "params.density"),
            ("vot", ["support"], [0, 1e308], "support"),
            ("vot", ["M"], 10**12, "M"),
        ],
    )
    def test_bad_field_named(self, tmp_path, capsys, file, path, value, field):
        bad = self.scheme_on_edited(tmp_path, file, path, value)
        assert single_error_line(capsys).startswith(f"error: {bad}: {field} must be")

    @pytest.mark.parametrize(
        "file, path, value, message",
        [
            ("network", ["links", 0, "cost"], {"kind": "polynomial", "params": []},
             "links[0].cost: polynomial cost needs at least one coefficient"),
            ("network", ["links", 0, "cost"], {"kind": "bpr", "params": [10.0, 100.0]},
             "links[0].cost: bpr cost needs params (t0, cap, alpha, power)"),
            ("network", ["links", 0, "to"], "A", "link 1: self-loops are not allowed"),
            ("network", ["nodes"], ["A", "B", "C", "B"], "duplicate node names"),
            ("network", ["demand", "destination"], "Z", "unknown endpoint node 'Z'"),
            ("network", [], [], "top-level JSON value must be an object"),
            ("network", ["demand"], [1000.0], "'demand' must be an object"),
            # an integer beyond the float range
            ("network", ["demand", "total"], 10**399, "demand.total must be a finite number"),
            ("vot", ["params", "knots"], [5.0, 17.2, 17.2, 45.0],
             "knots must be strictly increasing"),
            ("vot", ["params", "knots"], [10.0, 17.2, 31.6, 45.0],
             "piecewise_linear knots must span the declared support"),
            ("vot", [], {"kind": "empirical", "support": [5.0, 45.0]},
             "empirical distribution needs params.samples"),
        ],
        ids=["polynomial-no-params", "bpr-two-params", "self-loop", "duplicate-nodes",
             "unknown-destination", "top-level-list", "demand-list", "huge-integer",
             "repeated-knots", "knots-short-of-support", "empirical-no-samples"],
    )
    def test_malformed_input_one_error_line(self, tmp_path, capsys, file, path, value,
                                            message):
        bad = self.scheme_on_edited(tmp_path, file, path, value)
        assert single_error_line(capsys).startswith(f"error: {bad}: {message}")

    @staticmethod
    def scheme_on_edited(tmp_path, file, path, value):
        """Run ``scheme`` on the fixture with the ``file`` input's entry at
        ``path`` set to ``value`` (the whole document for an empty path),
        assert that it exits 1 and return the edited file's path."""
        inputs = {"network": NETWORK, "vot": VOT}
        data = json.loads(Path(inputs[file]).read_text())
        if path:
            parent = data
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = value
        else:
            data = value
        inputs[file] = tmp_path / f"{file}.json"
        inputs[file].write_text(json.dumps(data))
        assert run(["scheme", "--network", str(inputs["network"]),
                    "--vot", str(inputs["vot"]), "--out", str(tmp_path / "o")]) == 1
        return inputs[file]

    @pytest.mark.parametrize(
        "content, message",
        [
            (b'{"nodes": [}', "invalid JSON: "),
            (b'{"nodes": ["\xff"]}', "'utf-8' codec can't decode byte 0xff"),
            (b"[" * 100_000, "maximum recursion depth exceeded"),
        ],
        ids=["invalid-json", "not-utf8", "deep-nesting"],
    )
    @pytest.mark.parametrize("file", ["network", "vot"])
    def test_unreadable_input_named(self, tmp_path, capsys, file, content, message):
        bad = tmp_path / f"{file}.json"
        bad.write_bytes(content)
        inputs = {"network": NETWORK, "vot": VOT, file: str(bad)}
        commands = [["scheme", "--vot", inputs["vot"]]]
        if file == "network":
            commands.append(["equilibria"])
        for command in commands:
            assert run([*command, "--network", inputs["network"],
                        "--out", str(tmp_path / "o")]) == 1
            assert single_error_line(capsys).startswith(f"error: {bad}: {message}")


    @pytest.mark.parametrize("classes", ["0", "10001", "1000000000"])
    def test_class_flag_bounded(self, tmp_path, capsys, classes):
        start = time.perf_counter()
        assert run(["scheme", "--network", NETWORK, "--vot", VOT, "--classes", classes,
                    "--out", str(tmp_path / "o")]) == 1
        assert time.perf_counter() - start < 1.0
        assert single_error_line(capsys).startswith("error: --classes must be")

    @pytest.mark.parametrize("grid", ["0", "1", "1000000000"])
    @pytest.mark.parametrize("command", ["improvement"])
    def test_grid_flag_bounded(self, tmp_path, capsys, command, grid):
        start = time.perf_counter()
        assert run([command, "--network", NETWORK, "--vot", VOT, "--grid", grid,
                    "--out", str(tmp_path / "o")]) == 1
        assert time.perf_counter() - start < 1.0
        line = single_error_line(capsys)
        assert line == "error: --grid must be an integer in [2, 100000]"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("tol", ["nan", "inf", "1e300", "1", "0", "-0.5"])
    @pytest.mark.parametrize("command", ["equilibria", "scheme", "improvement", "assign"])
    def test_tol_flag_bounded(self, tmp_path, capsys, command, tol):
        # --tol nan once ran 100 000 iterations; inf and 1e300 passed the
        # cold start after none
        argv = [command, "--network", NETWORK, "--tol", tol, "--out", str(tmp_path / "o")]
        if command != "equilibria":
            argv += ["--vot", VOT]
        if command == "assign":
            argv += ["--roster", str(tmp_path / "roster.csv")]
        start = time.perf_counter()
        assert run(argv) == 1
        assert time.perf_counter() - start < 1.0
        assert single_error_line(capsys) == "error: --tol must be a finite number in (0, 1)"
        assert not (tmp_path / "o").exists()

    def test_negative_seed_rejected_before_solve(self, tmp_path, capsys, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("run_scheme called with a negative seed")

        monkeypatch.setattr(cli, "run_scheme", no_solve)
        roster = tmp_path / "roster.csv"
        roster.write_text("user_id,role,vot\nu1,outsider,\n")
        assert run(["assign", "--network", NETWORK, "--vot", VOT, "--roster", str(roster),
                    "--seed", "-1", "--out", str(tmp_path / "o")]) == 1
        assert single_error_line(capsys) == "error: --seed must be a non-negative integer"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "params",
        [
            {"samples": [0.0, 1e-323, 45.0]},
            {"knots": [0.0, 1e-310], "density": [1.0, 2.0]},
        ],
    )
    def test_density_overflow_is_one_error_line(self, tmp_path, capsys, params):
        kind = "empirical" if "samples" in params else "piecewise_linear"
        support = [0.0, 45.0] if "samples" in params else params["knots"]
        vot = tmp_path / "vot.json"
        vot.write_text(json.dumps({"kind": kind, "support": support, "params": params}))
        assert run(["scheme", "--network", NETWORK, "--vot", str(vot),
                    "--out", str(tmp_path / "o")]) == 1
        assert "too close together" in single_error_line(capsys)

    def test_failed_verification_is_one_error_line(self, tmp_path, capsys, monkeypatch):
        # a $1 discount on the fastest path pays every slower subscriber
        # to declare into it, and breaks revenue neutrality
        compute_payments = pathpay.scheme.compute_payments

        def discounted(*args):
            payments = compute_payments(*args)
            payments[-1] -= 1.0
            return payments

        monkeypatch.setattr(pathpay.scheme, "compute_payments", discounted)
        out = tmp_path / "o"
        assert run(["scheme", "--network", NETWORK, "--vot", VOT, "--out", str(out)]) == 1
        assert "verification failed" in single_error_line(capsys)
        check = json.loads((out / "verification.json").read_text())
        assert not check["strategy_proof"]["passed"]

    def test_simplex_failure_is_one_error_line(self, tmp_path, capsys, monkeypatch):
        # the fixture's first master is solved in closed form; on this grid
        # it prices in paths, so a later round reaches the simplex, which
        # raises SimplexError with no pivot allowed
        network = tmp_path / "grid.json"
        network.write_text(json.dumps(network_document(
            random_grid(np.random.default_rng(1), 5, "linear"))))
        monkeypatch.setattr(pathpay.simplex, "_MAX_PIVOTS", 0)
        assert run(["scheme", "--network", str(network), "--vot", VOT,
                    "--out", str(tmp_path / "o")]) == 1
        assert single_error_line(capsys) == (
            "error: pivot limit exceeded; LP appears numerically unstable"
        )

    def test_negative_lp_flow_is_one_error_line(self, tmp_path, capsys, monkeypatch):
        # the grid's first master prices in paths, so the simplex solves
        # round 2; a total it returns at -1e-6 subscriber demands is far
        # below rounding and stops the run
        network = tmp_path / "grid.json"
        network.write_text(json.dumps(network_document(
            random_grid(np.random.default_rng(1), 5, "linear"))))
        solve_lp = pathpay.scheme.solve_lp

        def negative_total(lp):
            sol = solve_lp(lp)
            x = sol.x.copy()
            x[0] = -1e-6
            return dataclasses.replace(sol, x=x)

        monkeypatch.setattr(pathpay.scheme, "solve_lp", negative_total)
        out = tmp_path / "o"
        assert run(["scheme", "--network", str(network), "--vot", VOT, "--out", str(out)]) == 1
        assert single_error_line(capsys) == "error: LP produced a significantly negative flow"
        assert not out.exists()

    def test_failed_cost_ordering_is_one_error_line(self, tmp_path, capsys, monkeypatch):
        # $1 more on every payment makes subscribing cost more than quitting
        compute_payments = pathpay.scheme.compute_payments
        monkeypatch.setattr(pathpay.scheme, "compute_payments",
                            lambda *args: compute_payments(*args) + 1.0)
        out = tmp_path / "o"
        assert run(["improvement", "--network", NETWORK, "--vot", VOT, "--out", str(out)]) == 1
        assert single_error_line(capsys) == (
            "error: cost ordering no-policy >= quitter >= subscriber failed"
        )
        assert len((out / "improvement.csv").read_text().splitlines()) == 402

    def test_tiny_subscriber_demand_passes(self, tmp_path):
        # the subscriber LP is solved in units of the subscriber demand, so
        # a tiny one routes like the fixture's 800: the same shares, and
        # outsider flows that add up to the outsider demand (absolute
        # tolerances once let them sum to 1.12x it at 1e-10 and 2.2x at
        # 1e-12, on two paths)
        data = json.loads(Path(NETWORK).read_text())
        for subscribers in (1e-6, 1e-10, 1e-12):
            data["demand"]["subscribers"] = subscribers
            network = tmp_path / f"network-{subscribers}.json"
            network.write_text(json.dumps(data))
            out = tmp_path / f"o-{subscribers}"
            with redirect_stdout(io.StringIO()):
                assert run(["scheme", "--network", str(network), "--vot", VOT,
                            "--out", str(out)]) == 0
            assert json.loads((out / "verification.json").read_text())["passed"] is True
            scheme = json.loads((out / "scheme.json").read_text())
            outsiders = sum(entry["outsiders"] for entry in scheme["paths"])
            assert outsiders == pytest.approx(scheme["outsider_demand"], rel=1e-9)
            shares = {entry["label"]: entry["share"] for entry in scheme["paths"]}
            assert shares == pytest.approx(
                {"(1)+(3)": 0.0, "(1)+(4)": 0.25, "(2)+(3)": 0.45, "(2)+(4)": 0.30},
                abs=1e-9,
            )

    def test_huge_costs_pass_strategy_proofness(self, tmp_path, capsys):
        # every link cost scaled by 3e100 or 7e99 leaves misreport margins
        # of rounding size (the worst are -7.8e84 and -1.9e84 $ beside
        # payments near 4e100 and 1e100 $); the tolerance scales with the
        # payments' spread. At 1e100 the exact greedy totals round to a
        # worst margin of exactly 0, which would not show the tolerance
        for factor in (3e100, 7e99):
            data = json.loads(Path(NETWORK).read_text())
            for link in data["links"]:
                link["cost"]["params"] = [factor * p for p in link["cost"]["params"]]
            network = tmp_path / f"network-{factor}.json"
            network.write_text(json.dumps(data))
            out = tmp_path / f"o-{factor}"
            assert run(["scheme", "--network", str(network), "--vot", VOT,
                        "--out", str(out)]) == 0
            assert capsys.readouterr().err == ""
            check = json.loads((out / "verification.json").read_text())["strategy_proof"]
            paid = [p["payment_usd"] for p in json.loads(
                (out / "scheme.json").read_text())["paths"] if p["payment_usd"] is not None]
            assert check["passed"] and check["worst_margin_usd"] < 0
            spread = max(paid) - min(paid)
            assert check["tolerance_usd"] == pytest.approx(1e-9 * (1 + spread), rel=1e-9)

    @pytest.mark.parametrize("link, cost", [(1, 1e300), (0, 1e200), (1, 1e200)])
    def test_misreport_gain_beside_huge_payments(self, tmp_path, capsys, link, cost):
        # a link costing 1e300 or 1e200 leaves both paths through it unused,
        # and their time drops must not reach the used paths' payments:
        # rounded to one value near 0 or -1e183 $, those would let a
        # subscriber on the slower path gain $1.84 by declaring into the
        # faster one. The used paths (3.5 min apart, cut at 31.6 $/h, shares
        # 0.45 and 0.55) pay 1.0138 $ and -0.8295 $, and no misreport pays
        # beyond rounding: with link 1 priced up, the SO's last bits leave
        # the worst margin one rounding of those payments (2**-52 $) below 0
        out = tmp_path / "o"
        assert run(["scheme", "--network", fixture_network_with(tmp_path, link, [cost, cost]),
                    "--vot", VOT, "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        paths = json.loads((out / "scheme.json").read_text())["paths"]
        used = [p["payment_usd"] for p in paths if p["share"] > 0]
        assert used == pytest.approx([1.0138333333333333, -0.8295], abs=1e-12)
        check = json.loads((out / "verification.json").read_text())["strategy_proof"]
        assert check["passed"] and check["worst_margin_usd"] == {0: 0.0, 1: -(2.0**-52)}[link]

    def test_unused_path_payments_leave_revenue_tolerance(self, tmp_path, capsys):
        # with link index 0 at 1e200 the paths through it carry no one: they
        # have no interval and no payment, and the expected payment is 0
        # within a tolerance set by what subscribers pay
        out = tmp_path / "o"
        assert run(["scheme", "--network", fixture_network_with(tmp_path, 0, [1e200, 1e200]),
                    "--vot", VOT, "--out", str(out)]) == 0
        unused = [p for p in json.loads((out / "scheme.json").read_text())["paths"]
                  if p["share"] == 0.0]
        assert [p["label"] for p in unused] == ["(1)+(3)", "(1)+(4)"]
        assert all(p[key] is None for p in unused
                   for key in ("vot_low", "vot_high", "payment_usd"))
        check = json.loads((out / "verification.json").read_text())["revenue_neutral"]
        assert check["passed"]
        assert abs(check["residual_usd"]) <= 1e-15
        paid = 0.45 * 1.0138333333333333 + 0.55 * 0.8295
        assert check["tolerance_usd"] == pytest.approx(1e-9 * paid + 1e-12, rel=1e-9)

    @pytest.mark.parametrize("command", ["scheme", "improvement"])
    def test_lp_overflow_leaves_stderr_empty(self, tmp_path, command):
        # link costs near 1e307 overflow in the subscriber LP's tableau, on
        # unused paths only; no numpy warning may reach stderr
        src = str(FIXTURE_DIR.parent / "src")
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run(
            [sys.executable, "-m", "pathpay.cli", command,
             "--network", fixture_network_with(tmp_path, 0, [1e307, 1e307]),
             "--vot", VOT, "--out", str(tmp_path / "o")],
            env=env, capture_output=True, text=True,
        )
        assert (done.returncode, done.stderr) == (0, "")

    def test_cost_overflow_stops_at_once(self, tmp_path, capsys):
        data = json.loads(Path(NETWORK).read_text())
        data["demand"]["total"] = 1e308
        network = tmp_path / "network.json"
        network.write_text(json.dumps(data))
        start = time.perf_counter()
        assert run(["equilibria", "--network", str(network),
                    "--out", str(tmp_path / "o")]) == 1
        assert time.perf_counter() - start < 1.0
        line = single_error_line(capsys)
        assert "overflow" in line and "demand" in line


@pytest.mark.parametrize("command", ["equilibria", "scheme"])
def test_long_series_chain(tmp_path, capsys, command):
    # one path of 1 500 links, deeper than Python's default recursion limit
    n = 1500
    nodes = [f"v{i}" for i in range(n + 1)]
    links = [
        {"id": i + 1, "from": nodes[i], "to": nodes[i + 1],
         "cost": {"kind": "linear", "params": [0.01, 1e-5]}}
        for i in range(n)
    ]
    demand = {"origin": nodes[0], "destination": nodes[-1],
              "total": 1000.0, "subscribers": 800.0}
    network = tmp_path / "network.json"
    network.write_text(json.dumps({"nodes": nodes, "links": links, "demand": demand}))
    argv = [command, "--network", str(network), "--out", str(tmp_path / "o")]
    if command == "scheme":
        argv += ["--vot", VOT]
    assert run(argv) == 0
    assert capsys.readouterr().err == ""


def test_parser_built_once(tmp_path):
    # every call shares one parser, and no flag or default of one call
    # reaches the next: each parse starts from a fresh namespace
    parser = cli.build_parser()
    inputs = ["--network", NETWORK, "--vot", VOT]
    roster = tmp_path / "roster.csv"
    roster.write_text("user_id,role,vot\nu1,subscriber,20\nu2,outsider,\n")
    with redirect_stdout(io.StringIO()):
        assert main(["scheme", *inputs, "--classes", "400", "--out", str(tmp_path / "a")]) == 0
        assert main(["scheme", *inputs, "--out", str(tmp_path / "b")]) == 0
        assert main(["assign", *inputs, "--roster", str(roster),
                     "--out", str(tmp_path / "c")]) == 0
    assert cli.build_parser() is parser
    classes = [json.loads((tmp_path / out / "scheme.json").read_text())["vot_classes"]
               for out in ("a", "b")]
    assert classes == [400, 100]
    assert (tmp_path / "c" / "assignments.csv").read_text().startswith("user_id,")
    assert vars(parser.parse_args(["scheme", *inputs])) == {
        "command": "scheme", "network": NETWORK, "vot": VOT, "classes": None,
        "tol": pathpay.equilibrium.DEFAULT_TOL, "out": "out", "func": cli.cmd_scheme,
    }
    assert vars(parser.parse_args(["assign", *inputs, "--roster", str(roster)])) == {
        "command": "assign", "network": NETWORK, "vot": VOT, "classes": None,
        "tol": pathpay.equilibrium.DEFAULT_TOL, "out": "out", "roster": str(roster),
        "seed": 0, "func": cli.cmd_assign,
    }


@pytest.mark.parametrize("command, solves", [("scheme", 1), ("improvement", 1), ("assign", 0)])
def test_ue_solved_only_when_read(tmp_path, monkeypatch, command, solves):
    # scheme and improvement solve the user equilibrium once, for the cost
    # report; assign never needs it
    calls = []
    solve_ue = cli.solve_ue

    def counted(*args, **kwargs):
        calls.append(args)
        return solve_ue(*args, **kwargs)

    monkeypatch.setattr(cli, "solve_ue", counted)
    argv = [command, "--network", NETWORK, "--vot", VOT, "--out", str(tmp_path / "o")]
    if command == "assign":
        roster = tmp_path / "roster.csv"
        roster.write_text("user_id,role,vot\nu1,subscriber,20\nu2,outsider,\n")
        argv += ["--roster", str(roster)]
    assert run(argv) == 0
    assert len(calls) == solves


def test_outputs_leave_solver_diagnostics_out(tmp_path, monkeypatch):
    # the gap history, the Newton step count and the subscriber master's
    # rounds, columns, shape, pivots and residuals explain a solve; like
    # the cost passes, they never reach an output file
    def outputs(out):
        with redirect_stdout(io.StringIO()):
            assert main(["equilibria", "--network", NETWORK, "--out", str(out)]) == 0
            assert main(["scheme", "--network", NETWORK, "--vot", VOT, "--out", str(out)]) == 0
        return {f.name: f.read_bytes() for f in sorted(out.iterdir())}

    expected = outputs(tmp_path / "expected")
    solve = pathpay.equilibrium._projected_newton

    def altered(*args):
        f, q, stats = solve(*args)
        history = stats["gap_history"] + (0.5,)
        return f, q, {**stats, "gap_history": history, "newton_steps": 7}

    monkeypatch.setattr(pathpay.equilibrium, "_projected_newton", altered)
    route = pathpay.scheme.solve_subscriber_lp

    def rerouted(*args):
        return dataclasses.replace(
            route(*args), rounds=9, cuts=99, columns=5, master_shape=(1, 2),
            pivots=7, demand_residual=0.25, link_residual=0.5,
        )

    monkeypatch.setattr(pathpay.scheme, "solve_subscriber_lp", rerouted)
    assert outputs(tmp_path / "o") == expected
    assert {"equilibria.json", "scheme.json"} <= expected.keys()


def numpy_on_openblas() -> bool:
    """Whether numpy's BLAS is OpenBLAS, the one OPENBLAS_NUM_THREADS sets."""
    try:
        name = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except TypeError:  # numpy before 1.26 has no mode
        name = " ".join(getattr(np.__config__, "blas_opt_info", {}).get("libraries", []))
    return "openblas" in name.lower()


@pytest.mark.skipif(not numpy_on_openblas(), reason="numpy's BLAS is not OpenBLAS")
def test_blas_threads_leave_outputs_unchanged(tmp_path):
    # the Newton directions come from LAPACK least squares; on 120 parallel
    # links, every one used, the active set reaches 120 paths, and OpenBLAS
    # splits products that large across threads: one thread and two must
    # write the same bytes
    free = 10.0 + 0.01 * np.arange(120)
    net = parallel_network([LinkCostFn("linear", (a, 1.0)) for a in free])
    net = dataclasses.replace(net, demand=1000.0, subscriber_demand=500.0)
    network = tmp_path / "network.json"
    network.write_text(json.dumps(network_document(net)))
    src = str(FIXTURE_DIR.parent / "src")
    written = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run(
            [sys.executable, "-m", "pathpay.cli", "scheme", "--network", str(network),
             "--vot", VOT, "--out", str(out)],
            env=env, capture_output=True, text=True,
        )
        assert (done.returncode, done.stderr) == (0, "")
        written.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
    assert len(written[0]) == 3
    assert written[0] == written[1]


@pytest.mark.parametrize("command", ["equilibria", "assign"])
def test_utf8_files_under_c_locale(tmp_path, command):
    # input and output files are UTF-8 whatever the locale: a C locale's
    # default encoding is ASCII, which holds neither a node "Å" nor a user "José"
    network = json.loads(Path(NETWORK).read_text(encoding="utf-8"))
    for link in network["links"]:
        link.update({end: "Å" for end in ("from", "to") if link[end] == "B"})
    network["nodes"] = ["A", "Å", "C"]
    (tmp_path / "network.json").write_text(json.dumps(network, ensure_ascii=False),
                                           encoding="utf-8")
    argv = [command, "--network", str(tmp_path / "network.json")]
    if command == "assign":
        roster = "user_id,role,vot\nJosé,subscriber,20\nZoë,outsider,\n"
        (tmp_path / "roster.csv").write_text(roster, encoding="utf-8")
        argv += ["--vot", VOT, "--roster", str(tmp_path / "roster.csv")]

    with redirect_stdout(io.StringIO()):
        assert main([*argv, "--out", str(tmp_path / "expected")]) == 0
    src = str(FIXTURE_DIR.parent / "src")
    env = dict(os.environ, LC_ALL="C", LANG="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-m", "pathpay.cli", *argv, "--out", str(tmp_path / "o")],
        env=env, capture_output=True, text=True,
    )
    assert (done.returncode, done.stderr) == (0, "")
    expected = sorted((tmp_path / "expected").iterdir())
    assert [f.name for f in sorted((tmp_path / "o").iterdir())] == [f.name for f in expected]
    for f in expected:
        assert (tmp_path / "o" / f.name).read_bytes() == f.read_bytes()
    if command == "assign":
        assert "José,subscriber" in (tmp_path / "o" / "assignments.csv").read_text(
            encoding="utf-8"
        )


def test_byte_order_marks_skipped(tmp_path):
    # spreadsheet exports start a file with a UTF-8 byte order mark; with
    # one, every input file gives the same outputs as without
    texts = {"network.json": Path(NETWORK).read_text(encoding="utf-8"),
             "vot.json": Path(VOT).read_text(encoding="utf-8"),
             "roster.csv": "user_id,role,vot\nu1,subscriber,20\nu2,outsider,\n"}
    written = []
    for bom in ("", "\ufeff"):
        inputs = tmp_path / f"in{len(bom)}"
        inputs.mkdir()
        for name, text in texts.items():
            (inputs / name).write_text(bom + text, encoding="utf-8")
        files = ["--network", str(inputs / "network.json"), "--vot", str(inputs / "vot.json")]
        out = str(tmp_path / f"out{len(bom)}")
        with redirect_stdout(io.StringIO()):
            assert main(["scheme", *files, "--out", out]) == 0
            assert main(["assign", *files, "--roster", str(inputs / "roster.csv"),
                         "--out", out]) == 0
        written.append({f.name: f.read_bytes() for f in sorted(Path(out).iterdir())})
    assert len(written[0]) == 4
    assert written[0] == written[1]


class TestImprovement:
    def test_default_grid(self, tmp_path):
        out = tmp_path / "o"
        assert run(["improvement", "--network", NETWORK, "--vot", VOT,
                    "--out", str(out)]) == 0
        lines = (out / "improvement.csv").read_text().strip().splitlines()
        assert lines[0].split(",")[0] == "beta"
        assert len(lines) == 402  # header + 401 grid rows

    def test_grid_two_emits_endpoints(self, tmp_path):
        out = tmp_path / "o"
        assert run(["improvement", "--network", NETWORK, "--vot", VOT,
                    "--grid", "2", "--out", str(out)]) == 0
        lines = (out / "improvement.csv").read_text().strip().splitlines()
        assert len(lines) == 3
        assert float(lines[1].split(",")[0]) == 5.0
        assert float(lines[2].split(",")[0]) == 45.0

    def test_grid_over_one_write_block(self, tmp_path):
        # every row, in grid order, across the writer's block edge
        grid = cli._WRITE_BLOCK + 2
        out = tmp_path / "o"
        with redirect_stdout(io.StringIO()):
            assert run(["improvement", "--network", NETWORK, "--vot", VOT,
                        "--grid", str(grid), "--out", str(out)]) == 0
        rows = list(csv.reader(io.StringIO((out / "improvement.csv").read_text())))
        assert len(rows) == grid + 1
        assert [row[0] for row in rows[1:]] == [
            repr(beta) for beta in np.linspace(5.0, 45.0, grid).tolist()
        ]


class TestAssign:
    def write_roster(self, path, rows):
        lines = ["user_id,role,vot"] + [",".join(r) for r in rows]
        path.write_text("\n".join(lines) + "\n")

    def test_mixed_roster(self, tmp_path):
        roster = tmp_path / "roster.csv"
        self.write_roster(
            roster,
            [("u1", "subscriber", "40"), ("u2", "outsider", ""),
             ("u3", "subscriber", "10")],
        )
        out = tmp_path / "o"
        assert run(["assign", "--network", NETWORK, "--vot", VOT,
                    "--roster", str(roster), "--seed", "7",
                    "--out", str(out)]) == 0
        lines = (out / "assignments.csv").read_text().strip().splitlines()
        assert lines[0] == "user_id,role,path,time_min,payment_usd"
        u1 = lines[1].split(",")
        assert u1[2] == "(2)+(3)" and u1[4] == "1.19"
        u3 = lines[3].split(",")
        assert u3[2] == "(1)+(4)" and u3[4] == "-1.37"
        u2 = lines[2].split(",")
        assert u2[1] == "outsider" and u2[4] == ""

    def test_seeded_determinism(self, tmp_path):
        roster = tmp_path / "roster.csv"
        self.write_roster(roster, [(f"u{i}", "outsider", "") for i in range(20)])
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run(["assign", "--network", NETWORK, "--vot", VOT,
                        "--roster", str(roster), "--seed", "42",
                        "--out", str(out)]) == 0
            outs.append((out / "assignments.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_missing_vot_rejected(self, tmp_path, capsys):
        roster = tmp_path / "roster.csv"
        self.write_roster(roster, [("u1", "subscriber", "")])
        assert run(["assign", "--network", NETWORK, "--vot", VOT,
                    "--roster", str(roster), "--out", str(tmp_path / "o")]) == 1
        assert "missing VOT" in capsys.readouterr().err

    def test_unknown_role_rejected(self, tmp_path, capsys):
        roster = tmp_path / "roster.csv"
        self.write_roster(roster, [("u1", "driver", "10")])
        assert run(["assign", "--network", NETWORK, "--vot", VOT,
                    "--roster", str(roster), "--out", str(tmp_path / "o")]) == 1
        assert "unknown role" in capsys.readouterr().err

    def test_vot_out_of_support_rejected(self, tmp_path, capsys):
        roster = tmp_path / "roster.csv"
        self.write_roster(roster, [("u1", "subscriber", "99")])
        assert run(["assign", "--network", NETWORK, "--vot", VOT,
                    "--roster", str(roster), "--out", str(tmp_path / "o")]) == 1
        assert "error:" in capsys.readouterr().err

    # str.strip() drops the separators \x1c-\x1f but float() does not, so
    # the VOT test and its message must read the cell alike
    @pytest.mark.parametrize("vot", ["abc", "nan", "99", "\x1f20\x1f", "\x1c30", "20\x1e"])
    def test_bad_vot_located(self, tmp_path, capsys, vot):
        roster = tmp_path / "roster.csv"
        self.write_roster(
            roster, [("u1", "subscriber", "40"), ("u2", "subscriber", vot)]
        )
        assert run(["assign", "--network", NETWORK, "--vot", VOT,
                    "--roster", str(roster), "--out", str(tmp_path / "o")]) == 1
        line = single_error_line(capsys)
        assert line.startswith("error: line 3: subscriber 'u2': ")
        assert repr(vot) in line or "declared VOT 99" in line

    @pytest.mark.parametrize(
        "text",
        [
            "user_id,role,vot\nu1,subscriber,40\n\nu2,driver,10\n",
            'user_id,role,vot\n"u\n1",subscriber,40\nu2,driver,10\n',
        ],
        ids=["blank_line", "quoted_newline"],
    )
    def test_line_number_counts_physical_lines(self, tmp_path, capsys, text):
        roster = tmp_path / "roster.csv"
        roster.write_text(text)
        assert run(["assign", "--network", NETWORK, "--vot", VOT,
                    "--roster", str(roster), "--out", str(tmp_path / "o")]) == 1
        assert single_error_line(capsys) == "error: line 4: unknown role 'driver'"

    # 5000 rows make a roster of about 120 KB, decoded in several chunks
    @pytest.mark.parametrize("good_rows", [1, 5000], ids=["small", "over-64kb"])
    @pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
    def test_undecodable_byte_located(self, tmp_path, capsys, monkeypatch, good_rows, newline):
        def no_solve(*args, **kwargs):
            raise AssertionError("run_scheme called on a bad roster")

        monkeypatch.setattr(cli, "run_scheme", no_solve)
        rows = [b"user_id,role,vot"] + [b"user%05d,subscriber,20" % i for i in range(good_rows)]
        roster = tmp_path / "roster.csv"
        roster.write_bytes(newline.join(rows + [b"u\xff,outsider,", b"u\xfe,outsider,", b""]))
        assert run(["assign", "--network", NETWORK, "--vot", VOT,
                    "--roster", str(roster), "--out", str(tmp_path / "o")]) == 1
        assert single_error_line(capsys) == f"error: line {good_rows + 2}: not UTF-8 text"

    def test_oversized_field_located(self, tmp_path, capsys):
        roster = tmp_path / "roster.csv"
        limit = csv.field_size_limit()
        self.write_roster(roster, [("u1", "outsider", ""), ("x" * (limit + 1), "outsider", "")])
        assert run(["assign", "--network", NETWORK, "--vot", VOT,
                    "--roster", str(roster), "--out", str(tmp_path / "o")]) == 1
        assert single_error_line(capsys) == (
            f"error: line 3: field larger than field limit ({limit})"
        )

    FAULTS = [
        (("u2", "subscriber", "99"),
         "line 3: subscriber 'u2': declared VOT 99 outside [5, 45]; "
         "clamp it to the support or re-declare"),
        (("u3", "driver", "10"), "line 3: unknown role 'driver'"),
        (("u4", "subscriber", ""), "line 3: subscriber 'u4' missing VOT"),
        (("u5", "subscriber", "abc"),
         "line 3: subscriber 'u5': VOT 'abc' is not a finite number"),
    ]

    @pytest.mark.parametrize("first", range(len(FAULTS)))
    def test_earliest_fault_reported(self, tmp_path, capsys, first):
        faults = self.FAULTS[first:] + self.FAULTS[:first]
        roster = tmp_path / "roster.csv"
        self.write_roster(
            roster, [("u1", "outsider", "")] + [row for row, _ in faults]
        )
        assert run(["assign", "--network", NETWORK, "--vot", VOT,
                    "--roster", str(roster), "--out", str(tmp_path / "o")]) == 1
        assert single_error_line(capsys) == f"error: {faults[0][1]}"

    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    @pytest.mark.parametrize("fault", range(len(FAULTS)))
    def test_bad_roster_fails_before_solve(self, tmp_path, capsys, monkeypatch, fault, where):
        def no_solve(*args, **kwargs):
            raise AssertionError("run_scheme called on a bad roster")

        monkeypatch.setattr(cli, "run_scheme", no_solve)
        good = [(f"g{i}", "subscriber" if i % 2 else "outsider", "20" if i % 2 else "")
                for i in range(6)]
        row, message = self.FAULTS[fault]
        at = {"first": 0, "middle": 3, "last": len(good)}[where]
        roster = tmp_path / "roster.csv"
        self.write_roster(roster, good[:at] + [row] + good[at:])
        assert run(["assign", "--network", NETWORK, "--vot", VOT,
                    "--roster", str(roster), "--out", str(tmp_path / "o")]) == 1
        assert single_error_line(capsys) == (
            "error: " + message.replace("line 3:", f"line {at + 2}:")
        )

    @settings(max_examples=40)
    @given(data=st.data())
    def test_batch_matches_per_user_answers(self, demo_run, tmp_path_factory, data):
        outcome = demo_run.outcome
        labels = demo_run.paths.labels()
        lo, hi = outcome.support
        vot = st.one_of(
            st.sampled_from([lo, hi, *outcome.partition.tolist()]),
            st.floats(lo, hi),
        )
        user = st.text(alphabet='u1 ,"\n\r', max_size=4)
        role = st.sampled_from(
            ["subscriber", " Subscriber", "SUBSCRIBER\t", "outsider", " Outsider"]
        )
        users = data.draw(st.lists(
            st.tuples(user, role, vot, st.booleans()),
            max_size=60,
        ))
        seed = data.draw(st.integers(0, 2**32 - 1))
        header = data.draw(st.permutations(["user_id", "role", "vot", "note"]))
        at = {name: i for i, name in enumerate(header)}
        # a row cut after its role and VOT cells has no user id when the
        # user_id column comes later; it reads as None and is written empty
        needed = max(at["role"], at["vot"]) + 1
        cut = needed if at["user_id"] >= needed else None

        rows, answers = [header], []
        for u, r, v, short in users:
            cells = {"user_id": u, "role": r, "note": "n,1",
                     "vot": repr(v) if r.strip().lower() == "subscriber" else ""}
            row = [cells[name] for name in header]
            if short and cut is not None:
                row, u = row[:cut], None
            rows.append(row)
            answers.append((u, r.strip().lower(), v))
        work = tmp_path_factory.mktemp("batch")
        assert self.assigned(work, rows, seed) == (
            per_user_assignments(outcome, labels, answers, seed).encode()
        )

    def assigned(self, work, rows, seed) -> bytes:
        """``assignments.csv`` from ``pathpay assign`` on the fixture over a
        roster of ``rows``, every field quoted, since csv.writer leaves a
        bare \\r unquoted."""
        with open(work / "roster.csv", "w", encoding="utf-8", newline="") as roster:
            csv.writer(roster, lineterminator="\n", quoting=csv.QUOTE_ALL).writerows(rows)
        with redirect_stdout(io.StringIO()):
            assert main(["assign", "--network", NETWORK, "--vot", VOT,
                         "--roster", str(work / "roster.csv"), "--seed", str(seed),
                         "--out", str(work / "o")]) == 0
        return (work / "o" / "assignments.csv").read_bytes()

    def test_odd_ids_at_write_block_edges(self, demo_run, tmp_path):
        # row j * block starts write block j, since no id here is wide
        # enough to cut a block short; each id that csv.writer quotes, a row
        # cut short before its id, an empty id and an id ending in NUL sit
        # just before, at and just after some block edge, and the last row
        # is cut short. The writer's fixed-width strings drop trailing NULs,
        # so the NUL id checks that the writer keeps them; the csv module
        # reads a NUL from Python 3.11 on
        block = cli._ROW_BLOCK
        special = ["a,b", 'say "hi"', "cr\rid", "lf\nid", None, ""]
        special += ["nul\0"] if sys.version_info >= (3, 11) else []
        n = len(special) * block + 3
        odd = {j * block + d: special[(j + d) % len(special)]
               for j in range(1, len(special) + 1) for d in (-1, 0, 1)}
        odd[n - 1] = None
        lo, hi = demo_run.outcome.support
        rows, answers = [["role", "vot", "user_id"]], []
        for k in range(n):
            user = odd.get(k, f"u{k}")
            role = "subscriber" if k % 3 else "outsider"
            vot = lo + (hi - lo) * (k % 97) / 96 if role == "subscriber" else None
            rows.append([role, "" if vot is None else repr(vot)]
                        + ([] if user is None else [user]))
            answers.append((user, role, vot))
        assert self.assigned(tmp_path, rows, 3) == per_user_assignments(
            demo_run.outcome, demo_run.paths.labels(), answers, 3).encode()

    # spellings of a subscriber's VOT on the support (0.5, 45), each with
    # whether the plain grammar takes it: [0-9]*\.?[0-9]* with 1 to 15
    # digits, inside the support
    PLAIN_SUPPORT = (0.5, 45.0)
    VOT_SPELLINGS = {
        "20": True, "007.50": True, "5.": True, ".5": True, "0.5": True, "45": True,
        "45.0": True, "12.3456789012345": True, "45.0000000000000": True,
        "000000000000045": True, "0000000000000045": False,
        "12.34567890123456": False, "045.0000000000000": False,
        repr(math.nextafter(0.5, 0.0)): False, repr(math.nextafter(45.0, math.inf)): False,
        "0.4": False, "45.01": False, "+5": False, "5e0": False, " 5": False, "5 ": False,
        "1_0": False, "-5": False, "": False, ".": False, "5..": False, "1.2.3": False,
        "nan": False, "inf": False,
        "\u0665": False,  # an Arabic-Indic five, which float() reads
    }
    OTHER_ROLES = ["Subscriber", "subscribEr", "Outsider", " outsider", "driver", ""]
    # ways out of the plain grammar, one per roster: those in a row, and
    # those of the roster as a whole
    GRAMMAR_ROW_FAULTS = ["vot", "role", "short", "long", "long_then_short", "short_then_long", "stray"]
    GRAMMAR_FAULTS = [None] * 4 + GRAMMAR_ROW_FAULTS + ["no_vot_column", "long_line"]

    @settings(max_examples=300)
    @given(data=st.data())
    def test_plain_reader_matches_csv_reader(self, data):
        # rosters in the plain grammar and, with one fault, just outside
        # it: the plain reader takes exactly those in it, and there gives
        # the csv reader's ids and, bit for bit, its VOTs
        fault = data.draw(st.sampled_from(self.GRAMMAR_FAULTS))
        extra = data.draw(st.lists(st.sampled_from(["note", "vot", "role", "user_id", ""]),
                                   max_size=2))
        header = data.draw(st.permutations(["user_id", "role", "vot", *extra]))
        last = {name: i for i, name in enumerate(header)}
        good_vots = [v for v, ok in self.VOT_SPELLINGS.items() if ok]
        users = data.draw(st.lists(st.tuples(
            st.text(alphabet="u7 _-\u00e9\u20ac", max_size=4),
            st.sampled_from(["subscriber", "outsider"]),
            st.sampled_from(good_vots), st.sampled_from(list(self.VOT_SPELLINGS)),
        ), min_size=2 * (fault in self.GRAMMAR_ROW_FAULTS), max_size=8))
        rows = [[{"user_id": u, "role": r, "vot": v if r == "subscriber" else junk}.get(name, "n")
                 if last[name] == j else "zz" for j, name in enumerate(header)]
                for u, r, v, junk in users]

        i = data.draw(st.integers(0, max(len(rows) - 2, 0)))
        if fault == "vot":
            rows[i][last["role"]] = "subscriber"
            rows[i][last["vot"]] = data.draw(st.sampled_from(
                [v for v, ok in self.VOT_SPELLINGS.items() if not ok]))
        elif fault == "role":
            rows[i][last["role"]] = data.draw(st.sampled_from(self.OTHER_ROLES))
        elif fault in ("short", "long"):
            rows[i] = rows[i][:-1] if fault == "short" else rows[i] + ["x"]
        elif fault in ("long_then_short", "short_then_long"):
            # the commas still number two rows' worth
            longer, shorter = (i, i + 1) if fault == "long_then_short" else (i + 1, i)
            rows[longer].append("x")
            del rows[shorter][-1]
        elif fault == "stray":  # marked by \x01 in a user id
            u = rows[i][last["user_id"]]
            at = data.draw(st.integers(0, len(u)))
            rows[i][last["user_id"]] = u[:at] + "\x01" + u[at:]
        elif fault == "no_vot_column":
            header = ["vote" if name == "vot" else name for name in header]

        lines = [",".join(header)]
        for row in rows:
            lines += [""] * data.draw(st.integers(0, 1)) + [",".join(row)]
        text = (data.draw(st.sampled_from(["", "\ufeff"])) + "\n".join(lines)
                + data.draw(st.sampled_from(["", "\n"]))).encode("utf-8")
        if fault == "stray":
            text = text.replace(b"\x01", data.draw(st.sampled_from([b'"', b"\r", b"\0", b"\xff"])))
        # a line as long as the csv field limit is plain; one byte longer is not
        lines = text.removeprefix("\ufeff".encode()).split(b"\n")
        limit = max(map(len, lines)) - (fault == "long_line")
        # a small block puts block edges inside lines and characters
        block = data.draw(st.sampled_from([8, 64, cli._READ_BLOCK]))

        default_limit = csv.field_size_limit(limit)
        try:
            with mock.patch.object(cli, "_READ_BLOCK", block):
                read = cli._read_plain_roster(text, self.PLAIN_SUPPORT)
            assert (read is not None) == (fault is None)
            if read is not None:
                ids, vots = cli._read_roster(text, self.PLAIN_SUPPORT)
        finally:
            csv.field_size_limit(default_limit)
        if read is not None:
            cells, starts, ends, plain_vots = read
            assert [cells[a:b].decode() for a, b in zip(starts, ends)] == ids
            assert plain_vots.view(np.int64).tolist() == np.array(vots).view(np.int64).tolist()

    @pytest.mark.parametrize("text", [
        # a role that is "subscriber" in its first eight bytes only
        b"user_id,role,vot\nu1,subscribEr,20\n",
        # a quote, CR, NUL or non-UTF-8 byte in an id
        b'user_id,role,vot\n"u1",outsider,\n',
        b"user_id,role,vot\nu\r1,outsider,\n",
        b"user_id,role,vot\nu\x001,outsider,\n",
        b"user_id,role,vot\nu\xff1,outsider,\n",
        # a long line, then a short one, and the other way round: the
        # commas number two lines' worth, and read in order from the first
        # line's start each second line's fields would look plain
        b"note,user_id,role,vot\nn,u1,outsider,,x\nu2,outsider,\n",
        b"user_id,role,vot,note,more\nu1,outsider,,n\na,u2,outsider,,n,m\n",
    ], ids=["role", "quote", "cr", "nul", "not-utf8", "long-short", "short-long"])
    def test_plain_reader_declines_just_outside(self, text):
        assert cli._read_plain_roster(text, self.PLAIN_SUPPORT) is None

    def plain_assigned(self, work, text: str, seed) -> bytes:
        """``assignments.csv`` from ``pathpay assign`` on the fixture over
        the roster ``text``, which must be read by the numpy reader."""
        (work / "roster.csv").write_bytes(text.encode("utf-8"))
        with mock.patch.object(cli, "_read_roster", side_effect=AssertionError("csv reader")):
            with redirect_stdout(io.StringIO()):
                assert main(["assign", "--network", NETWORK, "--vot", VOT,
                             "--roster", str(work / "roster.csv"), "--seed", str(seed),
                             "--out", str(work / "o")]) == 0
        return (work / "o" / "assignments.csv").read_bytes()

    @settings(max_examples=30)
    @given(data=st.data())
    def test_plain_batch_matches_per_user_answers(self, demo_run, tmp_path_factory, data):
        outcome = demo_run.outcome
        lo, hi = outcome.support
        # short decimals: the support's ends, near each partition point and
        # anywhere between, in cents
        vot = st.one_of(
            st.sampled_from([repr(lo), repr(hi), f"{hi:.13f}", f"00{lo:g}."]
                            + [f"{p:.12g}" for p in outcome.partition[1:-1]]),
            st.integers(round(lo * 100), round(hi * 100)).map(lambda c: f"{c / 100:.2f}"),
        )
        user = st.text(alphabet="u7 _-\u00e9\u20ac", max_size=5)
        users = data.draw(st.lists(
            st.tuples(user, st.sampled_from(["subscriber", "outsider"]), vot, st.booleans()),
            max_size=60,
        ))
        header = data.draw(st.permutations(["user_id", "role", "vot", "note"]))
        seed = data.draw(st.integers(0, 2**32 - 1))
        lines, answers = [",".join(header)], []
        for u, r, v, blank in users:
            cells = {"user_id": u, "role": r, "note": "n 1", "vot": v if r == "subscriber" else ""}
            lines += [""] * blank + [",".join(cells[name] for name in header)]
            answers.append((u, r, float(v) if r == "subscriber" else None))
        text = data.draw(st.sampled_from(["", "\ufeff"])) + "\n".join(lines)
        text += data.draw(st.sampled_from(["", "\n"]))
        work = tmp_path_factory.mktemp("plain")
        assert self.plain_assigned(work, text, seed) == (
            per_user_assignments(outcome, demo_run.paths.labels(), answers, seed).encode()
        )

    def test_plain_rows_at_block_edges(self, demo_run, tmp_path):
        # an unquoted roster read by the numpy reader: over one read block
        # of bytes (_READ_BLOCK, or an eighth of a larger roster) and two
        # write blocks of rows, one of them cut short by a 5000-byte id;
        # blank lines, and no final line end
        block = cli._ROW_BLOCK
        lo, hi = demo_run.outcome.support
        lines, answers = ["role,user_id,vot"], []
        for k in range(2 * block + 3):
            user = "L" * 5000 if k == block + 7 else f"u{k % 1000}" + "\u00e9" * (k % 3)
            role = "subscriber" if k % 3 else "outsider"
            vot = f"{lo + (hi - lo) * (k % 97) / 96:.6f}" if role == "subscriber" else ""
            lines += [""] * (k % 500 == 0) + [f"{role},{user},{vot}"]
            answers.append((user, role, float(vot) if vot else None))
        text = "\n".join(lines)
        size = len(text.encode())
        assert size > max(cli._READ_BLOCK, size // 8)
        assert self.plain_assigned(tmp_path, text, 5) == per_user_assignments(
            demo_run.outcome, demo_run.paths.labels(), answers, 5).encode()

    @pytest.mark.parametrize("workload", ["many-classes", "many-paths"])
    def test_benchmark_rosters_match_per_user_answers(self, tmp_path, workload):
        (inst,) = [i for i in benchmark_module("instances").write_workload(workload, 1, tmp_path)
                   if i.roster is not None]
        net = parse_network(inst.network.read_text())
        dist, M = parse_vot(inst.vot.read_text())
        result = run_scheme(net, dist, inst.classes or M)
        with open(inst.roster, newline="") as roster:
            users = [(user, role, float(vot) if role == "subscriber" else None)
                     for user, role, vot in list(csv.reader(roster))[1:]]
        argv = ["assign", "--network", str(inst.network), "--vot", str(inst.vot),
                "--roster", str(inst.roster), "--seed", "1", "--out", str(tmp_path / "o")]
        if inst.classes is not None:
            argv += ["--classes", str(inst.classes)]
        with redirect_stdout(io.StringIO()):
            assert main(argv) == 0
        assert (tmp_path / "o" / "assignments.csv").read_bytes() == per_user_assignments(
            result.outcome, result.paths.labels(), users, 1).encode()


ROSTER_ROWS = [
    ["user_id", "role", "vot"],
    ["u1", "subscriber", "40"],
    ["u2", "outsider", ""],
    ["u3", "subscriber", "10"],
]

FUZZ_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 300),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=4),
    st.lists(st.floats(-5.0, 60.0), max_size=4),
    st.just({}),
)


def json_paths(obj, path=()):
    """Every position in a parsed JSON document, the root last."""
    items = obj.items() if isinstance(obj, dict) else (
        enumerate(obj) if isinstance(obj, list) else ()
    )
    for key, value in items:
        yield from json_paths(value, (*path, key))
    yield path


@st.composite
def mutated_json(draw, text: str) -> str:
    """The document with one value replaced or deleted, or cut short."""
    doc = json.loads(text)
    op = draw(st.sampled_from(["replace", "delete", "truncate"]))
    if op == "truncate":
        return text[: draw(st.integers(0, len(text) - 1))]
    path = draw(st.sampled_from(list(json_paths(doc))))
    if not path:
        return json.dumps(draw(FUZZ_VALUES))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if op == "delete":
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(FUZZ_VALUES)
    return json.dumps(doc)


@st.composite
def mutated_roster(draw) -> str:
    """The roster with one cell changed, a row cut or padded, a blank row
    inserted, a newline quoted into a cell, or the text cut short or given
    a stray character."""
    rows = [list(row) for row in ROSTER_ROWS]
    op = draw(st.sampled_from([
        "cell", "short_row", "long_row", "blank_row", "quoted_newline",
        "truncate", "insert",
    ]))
    i = draw(st.integers(0, len(rows) - 1))
    if op == "cell":
        rows[i][draw(st.integers(0, 2))] = draw(st.text(max_size=6))
    elif op == "short_row":
        rows[i] = rows[i][: draw(st.integers(0, 2))]
    elif op == "long_row":
        rows[i].append(draw(st.text(max_size=3)))
    elif op == "blank_row":
        rows.insert(i, [])
    elif op == "quoted_newline":  # the writer quotes a cell holding a newline
        j = draw(st.integers(0, 2))
        at = draw(st.integers(0, len(rows[i][j])))
        rows[i][j] = rows[i][j][:at] + "\n" + rows[i][j][at:]
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    text = buf.getvalue()
    if op == "truncate":
        text = text[: draw(st.integers(0, len(text) - 1))]
    elif op == "insert":
        at = draw(st.integers(0, len(text)))
        stray = draw(st.sampled_from(['"', "\x00", ",", "\n", "\r"]))
        text = text[:at] + stray + text[at:]
    return text


class TestInputFuzz:
    @settings(max_examples=150)
    @given(data=st.data())
    def test_mutated_inputs_exit_cleanly(self, tmp_path_factory, data):
        command = data.draw(
            st.sampled_from(["equilibria", "scheme", "improvement", "assign"])
        )
        targets = {"equilibria": ["network"], "assign": ["network", "vot", "roster"]}
        target = data.draw(st.sampled_from(targets.get(command, ["network", "vot"])))
        work = tmp_path_factory.mktemp("fuzz")
        files = {"network": Path(NETWORK), "vot": Path(VOT)}
        if command == "assign":
            files["roster"] = work / "roster.csv"
            files["roster"].write_text(
                "".join(",".join(row) + "\n" for row in ROSTER_ROWS), encoding="utf-8"
            )
        if target == "roster":
            text = data.draw(mutated_roster())
        else:
            text = data.draw(mutated_json(files[target].read_text(encoding="utf-8")))
        files[target] = work / f"mutated-{target}"
        files[target].write_text(text, encoding="utf-8")

        argv = [command, "--network", str(files["network"]), "--out", str(work / "o")]
        if command != "equilibria":
            argv += ["--vot", str(files["vot"])]
        if command == "assign":
            argv += ["--roster", str(files["roster"])]
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1)
        if code == 1:
            lines = err.getvalue().splitlines()
            assert "Traceback" not in err.getvalue()
            assert len(lines) == 1 and lines[0].startswith("error: "), lines
