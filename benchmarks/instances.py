"""Seeded input files for the benchmark workloads.

Every workload is a list of instances. An instance is a network file, a VOT
file, an optional ``--classes`` override and an optional roster CSV (when
set, the instance also gets one ``pathpay assign`` invocation). The same
seed writes byte-identical files; another seed writes different instances
of the same shapes: another valley density, relabelled chains and another
roster. The other parts stay fixed, because solve cost is chaotic in their
parameters, as the comments below explain with the measurements.

Run it on its own to look at the inputs:

    python3 benchmarks/instances.py --seed 1 --out .bench_out/inputs
"""

from __future__ import annotations

import argparse
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("many-classes", "many-paths", "roster")

VOT_LO, VOT_HI = 5.0, 45.0

# The bundled fixture (fixtures/network.json and fixtures/vot.json), kept
# here so that the benchmark's inputs do not change when the fixtures do.
FIXTURE_NETWORK = {
    "nodes": ["A", "B", "C"],
    "links": [
        {"id": 1, "from": "A", "to": "B", "cost": {"kind": "linear", "params": [10.0, 0.05]}},
        {"id": 2, "from": "A", "to": "B", "cost": {"kind": "linear", "params": [5.0, 0.02]}},
        {"id": 3, "from": "B", "to": "C", "cost": {"kind": "linear", "params": [8.0, 0.02]}},
        {"id": 4, "from": "B", "to": "C", "cost": {"kind": "linear", "params": [15.0, 0.01]}},
    ],
    "demand": {"origin": "A", "destination": "C", "total": 1000.0, "subscribers": 800.0},
}
FIXTURE_VOT = {
    "kind": "piecewise_linear",
    "support": [VOT_LO, VOT_HI],
    "params": {
        "knots": [5.0, 17.2, 31.6, 45.0],
        "density": [
            0.020491803278688527,
            0.020491803278688527,
            0.021174863387978138,
            0.045989315716499474,
        ],
    },
    "M": 100,
}

# Densities at five equally spaced knots on [5, 45]. The pivot count of the
# dense Bland-rule subscriber LP is chaotic in the density: a 1% change of a
# rising, falling or flat density moves it between ~1 400 and ~17 000, and
# one seed in five sends a jittered peak from ~1 450 to ~10 000. The valley
# varies least under seeded jitter (knots +-3, densities +-15%): seeds 1-10
# give 8 850 to 13 306 pivots. So it is the one the seed varies; the peak
# runs at fixed parameters and is the cheap end (~0.45 s at M=400 against
# ~2.2 s for the fixture and the valley). Rising, falling and flat densities
# are left out: with them one cycle over the instances took ~11 s, a run
# held about three samples per instance, and the ten-seed spread of
# scheme_s reached 0.46 of its median.
SEEDED_SHAPES = {"valley": (1.0, 0.5, 0.2, 0.5, 1.0)}
FIXED_SHAPES = {"peak": (0.2, 0.6, 1.0, 0.6, 0.2)}
MANY_CLASSES_M = 400

CHAIN_SHAPES = (("linear", (3, 3, 3, 3)), ("bpr", (3, 3, 3)))
CHAIN_M = 10
# Frank-Wolfe's cost is chaotic in the link costs: with +-3% cost jitter
# the same chain shape took from 0.6 to 1.2 s per solve depending on the
# seed. So the chain costs come from a fixed stream (CHAIN_COST_SEED), and
# the seed shuffles segments and parallel links, which relabels links and
# paths but leaves every iterate the same. The ladders keep every link
# clearly in use at both equilibria; a link on the edge of use made a BPR
# chain's iteration count range from 90 to 340.
CHAIN_JITTER = 0.03
CHAIN_COST_SEED = 2020

ROSTER_USERS = {"many-classes": 10_000, "many-paths": 5_000, "roster": 100_000}
SUBSCRIBER_SHARE = 0.8


@dataclass(frozen=True)
class Instance:
    name: str
    network: Path
    vot: Path
    classes: int | None = None
    roster: Path | None = None
    fixture: bool = False  # the bundled fixture: its criterion-3 table applies


def _dump(path: Path, obj) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n")
    return path


def _density_vot(density, knots=None) -> dict:
    knots = np.linspace(VOT_LO, VOT_HI, len(density)) if knots is None else knots
    return {
        "kind": "piecewise_linear",
        "support": [VOT_LO, VOT_HI],
        "params": {"knots": [float(k) for k in knots], "density": [float(d) for d in density]},
    }


def _jittered_vot(rng: np.random.Generator, base) -> dict:
    knots = np.linspace(VOT_LO, VOT_HI, len(base))
    knots[1:-1] += rng.uniform(-3.0, 3.0, len(base) - 2)
    density = np.asarray(base) * rng.uniform(0.85, 1.15, len(base))
    return _density_vot(density.round(5), knots.round(3))


def _chain(costs: np.random.Generator, order: np.random.Generator, kind: str, widths) -> dict:
    """Series-parallel chain: segment s has widths[s] parallel links whose
    free-flow times and capacities climb a fixed ladder, jittered by
    ``costs``. ``order`` shuffles the segments and the links within each,
    which relabels links and paths but leaves the equilibria unchanged."""
    segments = []
    for width in widths:
        segment = []
        for k in range(width):
            j0, j1 = costs.uniform(1.0 - CHAIN_JITTER, 1.0 + CHAIN_JITTER, 2)
            t0 = round((8.0 + 4.0 * k) * j0, 4)
            if kind == "linear":
                segment.append([t0, round((0.03 - 0.008 * k) * j1, 6)])
            else:
                segment.append([t0, round((200.0 + 100.0 * k) * j1, 2), 0.15, 4.0])
        segments.append(segment)
    nodes = [f"N{s}" for s in range(len(widths) + 1)]
    links = []
    for s, seg in enumerate(order.permutation(len(segments))):
        for k in order.permutation(len(segments[seg])):
            links.append(
                {
                    "id": len(links) + 1,
                    "from": nodes[s],
                    "to": nodes[s + 1],
                    "cost": {"kind": kind, "params": segments[seg][k]},
                }
            )
    return {
        "nodes": nodes,
        "links": links,
        "demand": {
            "origin": nodes[0],
            "destination": nodes[-1],
            "total": 1000.0,
            "subscribers": 800.0,
        },
    }


def _roster(rng: np.random.Generator, users: int, path: Path) -> Path:
    subscriber = rng.random(users) < SUBSCRIBER_SHARE
    vots = rng.uniform(VOT_LO, VOT_HI, users)
    lines = ["user_id,role,vot"]
    for i in range(users):
        if subscriber[i]:
            lines.append(f"u{i:06d},subscriber,{vots[i]:.2f}")
        else:
            lines.append(f"u{i:06d},outsider,")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")
    return path


def write_workload(workload: str, seed: int, directory: Path) -> list[Instance]:
    """Write one workload's inputs for ``seed`` under ``directory``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    # one stream per workload, so a workload's inputs do not depend on the others
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    d = Path(directory) / workload
    roster = _roster(rng, ROSTER_USERS[workload], d / "roster.csv")

    if workload == "roster":
        return [
            Instance(
                "fixture",
                _dump(d / "fixture.network.json", FIXTURE_NETWORK),
                _dump(d / "fixture.vot.json", FIXTURE_VOT),
                roster=roster,
                fixture=True,
            )
        ]

    if workload == "many-classes":
        network = _dump(d / "fixture.network.json", FIXTURE_NETWORK)
        vots = {"fixture": FIXTURE_VOT}
        vots.update({name: _jittered_vot(rng, base) for name, base in SEEDED_SHAPES.items()})
        vots.update({name: _density_vot(base) for name, base in FIXED_SHAPES.items()})
        return [
            Instance(
                name,
                network,
                _dump(d / f"{name}.vot.json", vot),
                classes=MANY_CLASSES_M,
                # assign redoes the whole solve, so it runs on the cheapest instance only
                roster=roster if name == "peak" else None,
                fixture=name == "fixture",
            )
            for name, vot in vots.items()
        ]

    vot = _dump(d / "uniform.vot.json", {"kind": "uniform", "support": [VOT_LO, VOT_HI], "M": CHAIN_M})
    instances = []
    costs = np.random.default_rng(CHAIN_COST_SEED)
    for kind, widths in CHAIN_SHAPES:
        name = f"{kind}-{'x'.join(map(str, widths))}"
        network = _dump(d / f"{name}.network.json", _chain(costs, rng, kind, widths))
        # assign redoes the whole solve, so it runs on the cheaper chain only
        instances.append(Instance(name, network, vot, roster=roster if kind == "bpr" else None))
    return instances


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory to write into")
    args = parser.parse_args(argv)
    for workload in WORKLOADS:
        for inst in write_workload(workload, args.seed, Path(args.out)):
            print(workload, inst.name, inst.network, inst.vot, inst.roster or "")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
