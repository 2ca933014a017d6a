"""Benchmark-side tracing of the scheme pipeline.

The traced run calls each stage of ``run_scheme`` + ``cost_report`` +
``run_verification`` (and, for instances with a roster, the per-user
queries of ``pathpay assign``) through its public function, with a span
around each call. The solvers receive a :class:`CountingNetwork`, which
counts and times every ``link_times`` / ``link_marginals`` call, and the
LPs that ``scheme`` hands to ``simplex.solve_lp`` are watched for their
shape and pivot count. Spans are kept in memory and written out when the
run ends. The same code with no tracer and a plain ``Network`` gives the
untraced time of the same stages.
"""

from __future__ import annotations

import contextlib
import csv
import json
from dataclasses import dataclass, field, fields
from pathlib import Path
from time import perf_counter

import numpy as np

import pathpay.cli
import pathpay.scheme
from pathpay.cli import DEFAULT_REPORT_GRID, DEFAULT_SP_GRID
from pathpay.equilibrium import solve_so, solve_ue
from pathpay.network import Network, enumerate_paths, parse_network
from pathpay.scheme import (
    assign_outsider,
    assign_subscriber,
    build_outcome,
    cost_report,
    solve_subscriber_lp,
)
from pathpay.verify import run_verification
from pathpay.vot import discretize, parse_vot


@dataclass
class CostMeter:
    calls: int = 0
    seconds: float = 0.0


@dataclass(frozen=True, eq=False)
class CountingNetwork(Network):
    """A ``Network`` that counts and times its link cost evaluations."""

    meter: CostMeter = field(default_factory=CostMeter)

    @classmethod
    def of(cls, net: Network) -> CountingNetwork:
        return cls(**{f.name: getattr(net, f.name) for f in fields(Network)})

    def link_times(self, link_flows):
        start = perf_counter()
        try:
            return super().link_times(link_flows)
        finally:
            self.meter.calls += 1
            self.meter.seconds += perf_counter() - start

    def link_marginals(self, link_flows):
        start = perf_counter()
        try:
            return super().link_marginals(link_flows)
        finally:
            self.meter.calls += 1
            self.meter.seconds += perf_counter() - start


@contextlib.contextmanager
def _wrapping(module, wrappers: dict):
    """Replace ``module.<name>`` with ``wrappers[name](original)`` while the
    block runs. Names the module no longer has are left alone."""
    saved = {name: getattr(module, name) for name in wrappers if hasattr(module, name)}
    for name, original in saved.items():
        setattr(module, name, wrappers[name](original))
    try:
        yield
    finally:
        for name, original in saved.items():
            setattr(module, name, original)


@dataclass
class LpMeter:
    rows: int = 0
    cols: int = 0
    pivots: int = 0


def watch_lp(meter: LpMeter):
    """Record the tableau shape and the pivots of every LP that ``scheme``
    solves through ``simplex.solve_lp`` while the block runs. A ``scheme``
    that no longer calls it leaves the meter at zero."""

    def wrap(solve):
        def watched(lp):
            solution = solve(lp)
            meter.rows, meter.cols = lp.A.shape
            meter.pivots += solution.iterations
            return solution

        return watched

    return _wrapping(pathpay.scheme, {"solve_lp": wrap})


# the library functions ``pathpay.cli`` calls; the rest of an invocation's
# time is the CLI's own (argument parsing, file reading, formatting, writing)
LIBRARY_CALLS = (
    "parse_network", "parse_vot", "run_scheme", "cost_report", "run_verification",
    "assign_subscriber", "assign_outsider",
)


def time_library_calls(meter: CostMeter):
    """Count and time the CLI's calls into the library while the block runs."""

    def wrap(function):
        def timed(*args, **kwargs):
            start = perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                meter.calls += 1
                meter.seconds += perf_counter() - start

        return timed

    return _wrapping(pathpay.cli, dict.fromkeys(LIBRARY_CALLS, wrap))


class Tracer:
    """Spans (name, start, end, parent, instance id) kept in memory."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, instance: str):
        record = {
            "name": name,
            "instance": instance,
            "parent": self._open[-1] if self._open else None,
            "start": perf_counter(),
            "end": None,
        }
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record["end"] = perf_counter()
            self._open.pop()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": self.spans}, indent=0) + "\n")


@contextlib.contextmanager
def _no_span(name: str, instance: str):
    yield {}


@dataclass(frozen=True)
class Roster:
    subscriber_vots: list[float]
    outsiders: int

    @classmethod
    def read(cls, path: Path) -> Roster:
        vots, outsiders = [], 0
        with open(path, newline="") as handle:
            for row in csv.DictReader(handle):
                if row["role"] == "subscriber":
                    vots.append(float(row["vot"]))
                else:
                    outsiders += 1
        return cls(vots, outsiders)

    @property
    def users(self) -> int:
        return len(self.subscriber_vots) + self.outsiders


@dataclass
class StageRun:
    """One pass over an instance's stages. ``scheme_s`` covers the stages
    of ``pathpay scheme``: parsing through verification."""

    scheme_s: float
    passed: bool
    layers: dict  # per-layer values of a traced run, else empty


def run_stages(
    inst, iid: str, roster: Roster | None, tol: float, seed: int, tracer: Tracer | None
) -> StageRun:
    """Run ``inst`` stage by stage; ``iid`` tags its spans and must be
    unique per call."""
    span = tracer.span if tracer else _no_span
    network_text = inst.network.read_text()
    vot_text = inst.vot.read_text()

    with span("stages", iid):
        t0 = perf_counter()
        with span("network.parse", iid):
            net = parse_network(network_text)
        with span("vot.parse", iid):
            dist, M = parse_vot(vot_text)
        M = inst.classes or M
        if tracer:
            net = CountingNetwork.of(net)
        with span("network.enumerate", iid):
            paths = enumerate_paths(net)
        with span("equilibrium.so", iid):
            so = solve_so(net, paths, tol=tol)
        with span("equilibrium.ue", iid):
            ue = solve_ue(net, paths, tol=tol)
        with span("vot.discretize", iid):
            classes = discretize(dist, net.subscriber_demand, M)
        lp = LpMeter()
        with span("scheme.lp", iid), watch_lp(lp) if tracer else contextlib.nullcontext():
            assignment = solve_subscriber_lp(so, classes, net, paths)
        with span("scheme.outcome", iid):
            outcome = build_outcome(assignment, dist, so.path_times)
        with span("scheme.report", iid):
            report = cost_report(outcome, ue, DEFAULT_REPORT_GRID)
        with span("verify.check", iid):
            verification = run_verification(outcome, report, sp_grid=DEFAULT_SP_GRID)
        scheme_s = perf_counter() - t0
        if roster is not None:
            rng = np.random.default_rng(seed)
            with span("scheme.assign", iid):
                for vot in roster.subscriber_vots:
                    assign_subscriber(outcome, vot)
            with span("scheme.outsider", iid):
                for _ in range(roster.outsiders):
                    assign_outsider(outcome, rng)

    layers = {}
    if tracer:
        lo, hi = outcome.support
        # the strategy-proofness lattice: the grid the check reports, with
        # the outcome's partition points spliced in
        grid = verification.strategy_proof.grid
        lattice = np.union1d(np.linspace(lo, hi, grid), outcome.partition)
        layers = {
            "network.paths": len(paths),
            "network.cost_evals": net.meter.calls,
            "network.cost_eval_s": net.meter.seconds,
            "equilibrium.so_iters": so.iterations,
            "equilibrium.ue_iters": ue.iterations,
            "vot.classes": M,
            "scheme.lp_rows": lp.rows,
            "scheme.lp_cols": lp.cols,
            "simplex.pivots": lp.pivots,
            "verify.lattice": int(lattice.size),
        }
        for record in tracer.spans:
            if record["instance"] == iid:
                layers[record["name"] + "_s"] = record["end"] - record["start"]
    return StageRun(scheme_s, verification.passed, layers)
