"""pathpay benchmark: seeded workloads driven through the real CLI.

    python3 benchmarks/bench.py --workload many-classes --seed 1 --seconds 35 --trace 0

The benchmark writes one workload's inputs from ``--seed`` (see
``instances.py``), then calls ``pathpay.cli.main`` in-process, one
invocation at a time (a closed loop with one client), with BLAS pinned to
one thread. Every invocation's outputs are checked. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

``--trace 0`` times whole invocations and reports the end-to-end metrics.
Their times are scaled to a reference host speed with a calibration kernel
timed right before each invocation (see ``CALIBRATION_S``); the raw values
are printed beside them.
``--trace 1`` runs each instance through the CLI, timing its calls into the
library, then through its stages untraced and traced (``tracing.py``),
reports the per-layer metrics and writes the spans to ``.bench_out/``.

Workloads (each instance is one ``pathpay scheme`` invocation, plus one
``pathpay assign`` when it has a roster):

* ``many-classes``: the fixture network at ``--classes 400`` under the
  fixture's own VOT file, a seeded valley density and a fixed peak density
  (``assign`` on the peak only). The dense subscriber LP (404 x 1600) takes
  ~85% of the traced stages, and its pivot count depends on the density's
  shape.
* ``many-paths``: series-parallel chains at M=10: (3,3,3,3) with linear
  costs (81 paths) and (3,3,3) with BPR costs (27 paths, ``assign`` on this
  one). Frank-Wolfe takes ~90% of the traced stages, the LP ~6%.
* ``roster``: the fixture at M=100, then ``assign`` over 100 000 users
  (80% subscribers). One solve followed by many per-user queries; the only
  workload where the CLI and the query functions outweigh the solvers.

Which end-to-end metric each per-layer metric should move, and where:

* ``equilibrium.*``, ``network.cost_eval*``, ``network.enumerate_s``,
  ``network.paths``: ``scheme_s`` on many-paths (and the solve inside
  ``guided_per_s``).
* ``scheme.lp_*``, ``simplex.pivots``: ``scheme_s`` on many-classes.
* ``scheme.assign_us``, ``scheme.outsider_us``, ``cli.self_s``:
  ``guided_per_s`` on roster.
* ``scheme.outcome_s``, ``scheme.report_s``, ``verify.*``, ``vot.discretize_s``,
  ``vot.classes``: below 1% everywhere; they guard against work moved there.
* ``network.parse_s``, ``vot.parse_s``: ``setup_s`` on every workload.

Counts come from the program where it exposes them: iterations from the
``FlowSolution``, the LP's tableau shape and pivots from what ``scheme``
hands to ``simplex.solve_lp`` and gets back, the lattice from the grid the
strategy-proofness check reports plus the outcome's partition points.
``cli.self_s`` is a traced invocation's wall time minus its time inside the
library functions ``pathpay.cli`` calls, in the same invocation.
``trace.overhead_s`` is the traced minus the untraced time of the stages of
``pathpay scheme``, run back to back. The instrumentation (two clock reads
per cost evaluation, a dozen spans) costs less than the run-to-run noise of
a 1-2 s solve, so on many-classes and many-paths it can read negative.
"""

from __future__ import annotations

import os

# pin BLAS before numpy is imported; the loop is one client on one thread
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_out"

TOL = 1e-8
OUTSIDER_SEED = 7
# On a shared 2-vCPU host the same 0.2 s solve runs at two speeds ~1.4x
# apart, in phases of seconds to minutes, so the raw medians of ten 35 s
# runs spread up to 0.35 (quartile distance over median). So a fixed
# calibration kernel is timed right before every timed invocation and
# set-up, and the end-to-end times are scaled to a reference host speed by
# CALIBRATION_S / (the run's median calibration time). In two traces (5 and
# 7 minutes) of fixed solves (fixture, BPR chain, peak at M=400) alternating
# with the kernel, the spread of 30-35 s window medians fell from 0.08-0.19
# raw to 0.03-0.07 scaled. Scaling each sample by the calibration right
# before it did better there (0.02-0.05), but with only ~5 samples per
# instance in a run it added the kernel's own noise: over two sets of ten
# runs it moved the many-classes median by 7%, the run-wide factor by 2%.
# Per-layer times are not scaled. Set-up is sampled every SETUP_EVERY_S
# across the run rather than all at once.
CALIBRATION_S = 0.0125  # the kernel's median time on the host of baseline.json
SETUP_EVERY_S = 2.0

END_TO_END = {
    "scheme_s": "s",
    "guided_per_s": "users/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "network.parse_s": "s",
    "vot.parse_s": "s",
    "network.enumerate_s": "s",
    "network.paths": "count",
    "network.cost_evals": "count",
    "network.cost_eval_s": "s",
    "equilibrium.so_s": "s",
    "equilibrium.ue_s": "s",
    "equilibrium.so_iters": "count",
    "equilibrium.ue_iters": "count",
    "equilibrium.evals_per_iter": "ratio",
    "vot.discretize_s": "s",
    "vot.classes": "count",
    "scheme.lp_s": "s",
    "scheme.lp_rows": "count",
    "scheme.lp_cols": "count",
    "simplex.pivots": "count",
    "scheme.outcome_s": "s",
    "scheme.report_s": "s",
    "verify.check_s": "s",
    "verify.lattice": "count",
    "scheme.assign_us": "us",
    "scheme.outsider_us": "us",
    "cli.self_s": "s",
    "trace.stages_s": "s",
    "trace.overhead_s": "s",
}
COUNTS = [name for name, unit in PER_LAYER.items() if unit == "count"]
STAGES = [
    "network.parse_s", "vot.parse_s", "network.enumerate_s", "equilibrium.so_s",
    "equilibrium.ue_s", "vot.discretize_s", "scheme.lp_s", "scheme.outcome_s",
    "scheme.report_s", "verify.check_s", "scheme.assign_s", "scheme.outsider_s",
]

# criterion 3 of the acceptance suite, by path label: (value, tolerance)
FIXTURE_SUBSCRIBERS = {"(1)+(3)": 0.0, "(1)+(4)": 200.0, "(2)+(3)": 360.0, "(2)+(4)": 240.0}
FIXTURE_PAYMENTS = {"(1)+(4)": -1.37, "(2)+(4)": -0.65, "(2)+(3)": 1.19}
FIXTURE_PARTITION = (17.2, 31.6)

# the calibration kernel's dense part: row updates of an LP-sized tableau
_TABLEAU = np.random.default_rng(0).random((104, 400))


def calibration_s() -> float:
    """Time one run of a fixed kernel that mixes what pathpay spends its time
    on: an interpreter loop, small-array numpy calls (as in Frank-Wolfe) and
    dense row updates (as in the simplex). It does not use pathpay."""
    start = perf_counter()
    acc = 0.0
    for i in range(20_000):
        acc += (i % 7) * 0.5
    x = np.arange(8, dtype=float)
    for _ in range(2_000):
        x = np.minimum(x * 1.0001 + 0.5, 100.0)
    tableau = _TABLEAU.copy()
    for r in range(40):
        tableau -= 1e-3 * np.outer(tableau[:, r], tableau[r])
    return perf_counter() - start


if not (SRC / "pathpay" / "__init__.py").is_file():
    sys.exit(f"bench: no pathpay sources under {SRC}")
sys.path.insert(0, str(SRC))

import pathpay  # noqa: E402
from pathpay import cli  # noqa: E402

from instances import WORKLOADS, Instance, write_workload  # noqa: E402
from tracing import CostMeter, Roster, Tracer, run_stages, time_library_calls  # noqa: E402

if Path(pathpay.__file__).resolve().parent != SRC / "pathpay":
    sys.exit(f"bench: imported pathpay from {pathpay.__file__}, not {SRC}")


class Runner:
    """Invokes the CLI and checks every invocation's outputs.

    ``scheme`` and ``assign`` return the invocation's wall time and append
    it to ``walls[instance, command]``, or to ``failed_walls[...]`` when the
    invocation fails. The calibration time measured right before each
    invocation goes to ``calibrations``."""

    def __init__(self, work: Path) -> None:
        self.out = work / "out"
        self.attempted = 0
        self.failures: list[str] = []
        self.walls: dict[tuple[str, str], list[float]] = {}
        self.failed_walls: dict[tuple[str, str], list[float]] = {}
        self.calibrations: list[float] = []
        self.digests: dict[tuple[str, str], str] = {}
        self.schemes: dict[str, dict] = {}
        self.rosters: dict[Path, Roster] = {}

    def scheme(self, inst: Instance) -> float:
        out = self.out / inst.name / "scheme"
        argv = ["scheme", "--network", str(inst.network), "--vot", str(inst.vot)]
        if inst.classes is not None:
            argv += ["--classes", str(inst.classes)]
        return self._invoke(inst, "scheme", argv, out, self._check_scheme)

    def assign(self, inst: Instance) -> float:
        out = self.out / inst.name / "assign"
        argv = [
            "assign", "--network", str(inst.network), "--vot", str(inst.vot),
            "--roster", str(inst.roster), "--seed", str(OUTSIDER_SEED),
        ]
        if inst.classes is not None:
            argv += ["--classes", str(inst.classes)]
        return self._invoke(inst, "assign", argv, out, self._check_assign)

    def roster(self, inst: Instance) -> Roster:
        if inst.roster not in self.rosters:
            self.rosters[inst.roster] = Roster.read(inst.roster)
        return self.rosters[inst.roster]

    def _invoke(self, inst, command, argv, out, check) -> float:
        self.attempted += 1
        argv = argv + ["--tol", repr(TOL), "--out", str(out)]
        stderr = io.StringIO()
        self.calibrations.append(calibration_s())
        start = perf_counter()
        try:
            with redirect_stdout(io.StringIO()), redirect_stderr(stderr):
                code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects its arguments
            code = exc.code
        except Exception:  # a crash is one failed invocation, not a failed benchmark
            code = "exception"
            stderr.write(traceback.format_exc())
        wall = perf_counter() - start

        key = (inst.name, command)
        if code != 0:
            lines = stderr.getvalue().strip().splitlines() or [""]
            problems = [f"exit {code}: {lines[-1]}"]
        elif key in self.digests:
            # outputs that repeat checked bytes need no second check
            same = _digest(out) == self.digests[key]
            problems = [] if same else ["output differs from an earlier run of the same instance"]
        else:
            try:
                problems = check(inst, out)
            except (OSError, ValueError, LookupError, TypeError) as exc:
                problems = [f"unreadable output: {exc!r}"]
            if not problems:
                self.digests[key] = _digest(out)
        if problems:
            self.failures.append(f"{inst.name} {command}: " + "; ".join(problems))
        walls = self.failed_walls if problems else self.walls
        walls.setdefault(key, []).append(wall)
        return wall

    def median_wall(self, command: str, inst: Instance) -> float:
        """Median passing wall time, or of the failing ones when none passed."""
        key = (inst.name, command)
        return statistics.median(self.walls.get(key) or self.failed_walls[key])

    def _check_scheme(self, inst: Instance, out: Path) -> list[str]:
        problems = []
        verification = json.loads((out / "verification.json").read_text())
        if verification["passed"] is not True:
            problems.append("verification.json does not pass")
        scheme = json.loads((out / "scheme.json").read_text())
        for key in ("so_relative_gap", "ue_relative_gap"):
            if not scheme[key] <= TOL:
                problems.append(f"{key} {scheme[key]:.3e} > tol {TOL:g}")
        if inst.fixture:
            problems += _check_fixture_table(scheme)
        self.schemes.setdefault(inst.name, scheme)
        return problems

    def _check_assign(self, inst: Instance, out: Path) -> list[str]:
        scheme = self.schemes.get(inst.name)
        if scheme is None:
            return ["no scheme output to check the assignments against"]
        by_label = {p["label"]: p for p in scheme["paths"]}
        used = sorted((p for p in scheme["paths"] if p["share"] > 0), key=lambda p: p["vot_high"])
        # row by row, so that the check adds no memory to the CLI's peak
        with open(inst.roster, newline="") as users, open(out / "assignments.csv", newline="") as rows:
            pairs = itertools.zip_longest(csv.DictReader(users), csv.DictReader(rows))
            for n, (user, row) in enumerate(pairs):
                problem = _check_row(user, row, by_label, used) if user and row else (
                    f"roster and assignments differ in length after {n} rows"
                )
                if problem:
                    return [problem]
        return []


def _check_row(user: dict, row: dict, by_label: dict, used: list[dict]) -> str | None:
    """The problem with one assignment row, or None. ``used`` holds the
    scheme's used paths from slowest to fastest."""
    path = by_label.get(row["path"])
    if row["user_id"] != user["user_id"] or row["role"] != user["role"]:
        return f"row for {user['user_id']} is {row['user_id']}/{row['role']}"
    if path is None or path["share"] <= 0:
        return f"{row['user_id']}: unused path {row['path']!r}"
    if row["time_min"] != f"{path['time_min']:.1f}":
        return f"{row['user_id']}: time {row['time_min']} on {row['path']}"
    if user["role"] == "subscriber":
        vot = float(user["vot"])
        inside = path["vot_low"] < vot <= path["vot_high"] or (
            vot == used[0]["vot_low"] and path is used[0]
        )
        if not inside or row["payment_usd"] != f"{path['payment_usd']:.2f}":
            return f"{row['user_id']}: VOT {vot} got {row['path']} {row['payment_usd']}"
    elif row["payment_usd"] != "":
        return f"{row['user_id']}: outsider charged {row['payment_usd']}"
    return None


def _check_fixture_table(scheme: dict) -> list[str]:
    paths = {p["label"]: p for p in scheme["paths"]}
    problems = []
    for label, value in FIXTURE_SUBSCRIBERS.items():
        if abs(paths[label]["subscribers"] - value) > 1.0:
            problems.append(f"{label} subscribers {paths[label]['subscribers']:.2f}")
    for label, value in FIXTURE_PAYMENTS.items():
        if abs(paths[label]["payment_usd"] - value) > 0.01:
            problems.append(f"{label} payment {paths[label]['payment_usd']:.4f}")
    inner = sorted({p["vot_high"] for p in paths.values() if p["share"] > 0})[:-1]
    if len(inner) != 2 or any(abs(a - b) > 0.05 for a, b in zip(inner, FIXTURE_PARTITION)):
        problems.append(f"partition {inner}")
    return problems


def _digest(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


SETUP_CODE = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import pathpay
for arg in sys.argv[2:]:
    kind, path = arg.split("=", 1)
    text = open(path).read()
    try:
        pathpay.parse_network(text) if kind == "network" else pathpay.parse_vot(text)
    except ValueError:
        pass  # the invocations on this input fail and are counted there
print(time.perf_counter() - start)
"""


def measure_setup(instances: list[Instance]) -> float:
    """Fresh-process ``import pathpay`` plus parsing of every input file."""
    files = sorted({f"network={i.network}" for i in instances} | {f"vot={i.vot}" for i in instances})
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(SRC), *files],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def run_cycles(seconds: float, body) -> int:
    """Call ``body(cycle)`` for whole cycles, stopping at the cycle boundary
    nearest to ``seconds``; returns the number of cycles run."""
    start = perf_counter()
    cycle = 0
    while True:
        body(cycle)
        cycle += 1
        elapsed = perf_counter() - start
        if elapsed + 0.5 * elapsed / cycle >= seconds:
            return cycle


def end_to_end(runner: Runner, instances: list[Instance], seconds: float) -> dict:
    runner.walls.clear()  # drop the warm-up
    runner.failed_walls.clear()
    runner.calibrations.clear()
    setup: list[float] = []
    last_setup = -SETUP_EVERY_S

    def cycle(_):
        nonlocal last_setup
        for inst in instances:
            if perf_counter() - last_setup >= SETUP_EVERY_S:
                runner.calibrations.append(calibration_s())
                setup.append(measure_setup(instances))
                last_setup = perf_counter()
            runner.scheme(inst)
            if inst.roster is not None:
                runner.assign(inst)

    cycles = run_cycles(seconds, cycle)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    calibration = statistics.median(runner.calibrations)
    scale = CALIBRATION_S / calibration
    print(
        f"{cycles} cycles over {len(instances)} instances; calibration median "
        f"{1e3 * calibration:.3f} ms over {len(runner.calibrations)} samples "
        f"(reference {1e3 * CALIBRATION_S:.2f} ms): times below are scaled by {scale:.4f}"
    )
    scheme_s, assign_s, users = [], [], 0
    print("median raw wall per instance:")
    for inst in instances:
        scheme_s.append(runner.median_wall("scheme", inst))
        line = f"  {inst.name}: scheme {scheme_s[-1]:.4f} s"
        if inst.roster is not None:
            assign_s.append(runner.median_wall("assign", inst))
            users += runner.roster(inst).users
            line += f", assign {assign_s[-1]:.4f} s"
        print(line)
    metrics = {
        "scheme_s": statistics.fmean(scheme_s) * scale,
        "guided_per_s": users / (sum(assign_s) * scale),
        "setup_s": statistics.median(setup) * scale,
        "peak_rss_mb": rss_mb,
    }
    print(f"scheme_s: {metrics['scheme_s']:.6g} s (mean over instances of the median of {cycles})")
    print(f"guided_per_s: {metrics['guided_per_s']:.6g} users/s ({users} users over {len(assign_s)} assign invocations)")
    print(f"setup_s: {metrics['setup_s']:.6g} s (median of {len(setup)} fresh processes)")
    print(f"peak_rss_mb: {rss_mb:.6g} MB")
    return metrics


def per_layer(runner: Runner, instances: list[Instance], seconds: float, work: Path) -> tuple[dict, list[str]]:
    """Per-layer metrics: per instance means within a cycle, medians over
    cycles. Also returns the problems found outside the CLI invocations."""
    tracer = Tracer()
    cycles: list[dict] = []
    problems = []

    def cycle(k):
        sums: dict[str, float] = {}
        cli_self, overhead = [], []
        done = subscribers = outsiders = 0
        for inst in instances:
            roster = runner.roster(inst) if inst.roster is not None else None
            for command in ("scheme", "assign") if roster is not None else ("scheme",):
                library = CostMeter()
                with time_library_calls(library):
                    wall = getattr(runner, command)(inst)
                cli_self.append(wall - library.seconds)
            try:
                plain = run_stages(inst, f"{inst.name}#{k}/plain", None, TOL, OUTSIDER_SEED, None)
                traced = run_stages(inst, f"{inst.name}#{k}", roster, TOL, OUTSIDER_SEED, tracer)
            except (ValueError, RuntimeError) as exc:  # bad input; its invocations failed too
                problems.append(f"{inst.name}: stage-by-stage run failed: {exc}")
                continue
            if not (plain.passed and traced.passed):
                problems.append(f"{inst.name}: verification fails in the stage-by-stage run")
            done += 1
            overhead.append(traced.scheme_s - plain.scheme_s)
            if roster is not None:
                subscribers += len(roster.subscriber_vots)
                outsiders += roster.outsiders
            for name, value in traced.layers.items():
                sums[name] = sums.get(name, 0.0) + value
        if not done:
            return
        layers = {name: value / done for name, value in sums.items()}
        iters = sums["equilibrium.so_iters"] + sums["equilibrium.ue_iters"]
        layers["equilibrium.evals_per_iter"] = sums["network.cost_evals"] / max(iters, 1)
        layers["scheme.assign_us"] = 1e6 * sums.get("scheme.assign_s", 0.0) / max(subscribers, 1)
        layers["scheme.outsider_us"] = 1e6 * sums.get("scheme.outsider_s", 0.0) / max(outsiders, 1)
        layers["cli.self_s"] = statistics.fmean(cli_self)
        layers["trace.stages_s"] = layers["stages_s"]
        layers["trace.overhead_s"] = statistics.fmean(overhead)
        cycles.append(layers)

    n_cycles = run_cycles(seconds, cycle)
    tracer.write(work.parent / f"trace-{work.name.removesuffix('-trace1')}.json")
    if not cycles:
        return {name: 0.0 for name in PER_LAYER}, problems
    metrics = {}
    for name in PER_LAYER:
        values = [c[name] for c in cycles]
        if name in COUNTS and len(set(values)) > 1:
            problems.append(f"count {name} differs between cycles: {values}")
        metrics[name] = values[0] if name in COUNTS else statistics.median(values)

    print(f"{n_cycles} traced cycles over {len(instances)} instances")
    total = statistics.median(c["stages_s"] for c in cycles)
    for name in STAGES:
        value = statistics.median(c.get(name, 0.0) for c in cycles)
        print(f"  stage {name}: {value:.6g} s ({value / total:.1%} of the traced stages)")
    for name, unit in PER_LAYER.items():
        print(f"{name}: {metrics[name]:.6g} {unit}")
    return metrics, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="pathpay benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--malformed", action="store_true",
        help="truncate the first instance's network file (its invocations must count as failed)",
    )
    args = parser.parse_args(argv)

    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    instances = write_workload(args.workload, args.seed, work / "inputs")
    if args.malformed:
        text = instances[0].network.read_text()
        instances[0].network.write_text(text[: len(text) // 2])

    runner = Runner(work)
    runner.scheme(instances[0])  # warm-up: first calls pay numpy set-up; not timed
    if args.trace:
        metrics, problems = per_layer(runner, instances, args.seconds, work)
        units = PER_LAYER
    else:
        metrics, problems = end_to_end(runner, instances, args.seconds), []
        units = END_TO_END
    shutil.rmtree(work, ignore_errors=True)

    failed = len(runner.failures)
    for failure in (runner.failures + problems)[:10]:
        print(f"FAILED {failure}")
    print(f"fail_frac: {failed / runner.attempted:.6g} ratio ({failed} of {runner.attempted} invocations)")
    result = {
        "correct": not problems and failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
