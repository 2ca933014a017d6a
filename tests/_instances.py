"""Random problem instances shared by the property and acceptance tests.

``random_network`` draws chains of parallel-link segments (2 to 4 links
total) with linear costs; ``random_grid`` and ``random_chain`` draw the
larger directed grids and series-parallel chains, with linear or BPR costs,
that the solver tests use. VOT distributions are uniform or triangular with
positive support. Everything is driven by a caller-provided numpy Generator
so runs are reproducible.
"""

from __future__ import annotations

import functools
import importlib.util
import sys
from pathlib import Path

import numpy as np

from pathpay import (
    Link,
    LinkCostFn,
    Network,
    VotClassTable,
    VotDistribution,
)
from pathpay.simplex import StandardLp

SEGMENT_SHAPES = [(2,), (3,), (4,), (2, 2), (1, 3), (1, 2)]


def random_network(rng: np.random.Generator) -> Network:
    shape = SEGMENT_SHAPES[int(rng.integers(len(SEGMENT_SHAPES)))]
    nodes = [f"N{k}" for k in range(len(shape) + 1)]
    links = []
    lid = 1
    for seg, width in enumerate(shape):
        for _ in range(width):
            links.append(
                Link(
                    id=lid,
                    tail=nodes[seg],
                    head=nodes[seg + 1],
                    cost_fn=LinkCostFn("linear", (
                        float(rng.uniform(1.0, 30.0)),
                        float(rng.uniform(0.005, 0.1)),
                    )),
                )
            )
            lid += 1
    demand = float(rng.uniform(50.0, 3000.0))
    share = float(rng.uniform(0.2, 0.95))
    return Network(
        nodes=tuple(nodes),
        links=tuple(links),
        origin=nodes[0],
        destination=nodes[-1],
        demand=demand,
        subscriber_demand=share * demand,
    )


def parallel_network(fns) -> Network:
    """One link per cost function, all from A to B, with unit demand."""
    links = tuple(Link(i + 1, "A", "B", fn) for i, fn in enumerate(fns))
    return Network(("A", "B"), links, "A", "B", demand=1.0, subscriber_demand=0.0)


def random_vot(rng: np.random.Generator) -> VotDistribution:
    lo = float(rng.uniform(0.5, 20.0))
    hi = lo + float(rng.uniform(5.0, 40.0))
    if rng.random() < 0.5:
        return VotDistribution.uniform(lo, hi)
    mode = float(rng.uniform(lo, hi))
    return VotDistribution.triangular(lo, mode, hi)


def make_table(class_demand, class_mean) -> VotClassTable:
    class_demand = np.asarray(class_demand, dtype=float)
    class_mean = np.asarray(class_mean, dtype=float)
    return VotClassTable(
        M=class_demand.size,
        boundaries=np.linspace(0.0, 1.0, class_demand.size + 1),
        class_demand=class_demand,
        class_mean=class_mean,
    )


def transportation_lp(class_demand, class_mean, totals, times) -> StandardLp:
    """Equality-form LP for a pure class-to-path allocation problem."""
    class_demand = np.asarray(class_demand, dtype=float)
    totals = np.asarray(totals, dtype=float)
    M, R = class_demand.size, totals.size
    A = np.zeros((M + R, M * R))
    b = np.zeros(M + R)
    for m in range(M):
        A[m, m * R : (m + 1) * R] = 1.0
        b[m] = class_demand[m]
    for r in range(R):
        A[M + r, r::R] = 1.0
        b[M + r] = totals[r]
    c = (np.asarray(class_mean)[:, None] * np.asarray(times)[None, :]).ravel()
    return StandardLp(c=c, A=A, b=b)


def random_transportation_instance(rng: np.random.Generator, step: float = 1.0):
    """Small random allocation instance with lattice-friendly margins."""
    M = int(rng.integers(2, 4))
    R = int(rng.integers(2, 4))
    demands = rng.integers(1, 7, size=M).astype(float) * step
    total_units = int(demands.sum() / step)
    split = rng.multinomial(total_units, np.full(R, 1.0 / R))
    totals = split.astype(float) * step
    means = np.sort(rng.uniform(1.0, 40.0, size=M))
    times = rng.uniform(5.0, 50.0, size=R)
    return make_table(demands, means), totals, times


def _probe_cost(rng: np.random.Generator, kind: str, t0_range, slope_range):
    t0 = float(rng.uniform(*t0_range))
    if kind == "linear":
        return LinkCostFn("linear", (t0, float(rng.uniform(*slope_range))))
    return LinkCostFn("bpr", (t0, float(rng.uniform(200.0, 500.0)), 0.15, 4.0))


def random_grid(rng: np.random.Generator, n: int, kind: str) -> Network:
    """Directed n x n grid with links going right and down, from the top
    left corner to the bottom right one: C(2n-2, n-1) paths. Costs are
    ``linear`` (a0 in [2, 6], a1 in [0.005, 0.02]) or ``bpr`` (t0 in
    [2, 6], cap in [200, 500], alpha 0.15, power 4); demand 3000, of which
    2400 subscribe."""
    nodes = tuple(f"{r}.{c}" for r in range(n) for c in range(n))
    links = []
    for r in range(n):
        for c in range(n):
            for dr, dc in ((0, 1), (1, 0)):
                if r + dr < n and c + dc < n:
                    fn = _probe_cost(rng, kind, (2.0, 6.0), (0.005, 0.02))
                    links.append(
                        Link(len(links) + 1, f"{r}.{c}", f"{r + dr}.{c + dc}", fn)
                    )
    return Network(nodes, tuple(links), nodes[0], nodes[-1], 3000.0, 2400.0)


def random_chain(rng: np.random.Generator, widths, kind: str) -> Network:
    """Series-parallel chain, segment s holding widths[s] parallel links,
    with ``linear`` (a0 in [5, 15], a1 in [0.01, 0.05]) or ``bpr`` (t0 in
    [5, 15], cap in [200, 500], alpha 0.15, power 4) costs; demand 1000,
    of which 800 subscribe."""
    nodes = tuple(f"N{s}" for s in range(len(widths) + 1))
    links = []
    for s, width in enumerate(widths):
        for _ in range(width):
            fn = _probe_cost(rng, kind, (5.0, 15.0), (0.01, 0.05))
            links.append(Link(len(links) + 1, nodes[s], nodes[s + 1], fn))
    return Network(nodes, tuple(links), nodes[0], nodes[-1], 1000.0, 800.0)


def seeded_chain_or_grid(seed: int) -> Network:
    """A chain of 2-4 segments of 2-3 links (seed % 4 < 2) or a 3x3 or 4x4
    grid, with linear (even seed) or BPR (odd seed) costs."""
    rng = np.random.default_rng([12, seed])
    kind = ("linear", "bpr")[seed % 2]
    if seed % 4 < 2:
        widths = tuple(int(w) for w in rng.integers(2, 4, size=rng.integers(2, 5)))
        return random_chain(rng, widths, kind)
    return random_grid(rng, int(rng.integers(3, 5)), kind)


def stall_grid() -> Network:
    """The seeded 5 x 5 BPR grid (70 paths) on which, at one system-optimum
    iterate, the cheapest path carries no flow and the Newton direction over
    the used paths plus that one takes flow off it: a ratio test over that
    set allows no positive step."""
    return random_grid(np.random.default_rng(6), 5, "bpr")


def network_document(net: Network) -> dict:
    """The network file that parses back to ``net``."""
    return {
        "nodes": list(net.nodes),
        "links": [
            {
                "id": ln.id,
                "from": ln.tail,
                "to": ln.head,
                "cost": {"kind": ln.cost_fn.kind, "params": list(ln.cost_fn.params)},
            }
            for ln in net.links
        ],
        "demand": {
            "origin": net.origin,
            "destination": net.destination,
            "total": net.demand,
            "subscribers": net.subscriber_demand,
        },
    }


@functools.cache
def benchmark_module(name: str):
    """``benchmarks/<name>.py`` loaded as a module: ``instances``, the
    benchmark's seeded input writer, or ``tracing``, its stage-by-stage run."""
    spec = importlib.util.spec_from_file_location(
        f"bench_{name}", Path(__file__).resolve().parent.parent / "benchmarks" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look themselves up
    spec.loader.exec_module(module)
    return module
