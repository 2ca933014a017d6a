"""Random problem instances shared by the property and acceptance tests.

Networks are chains of parallel-link segments (2 to 4 links total) with
linear costs; VOT distributions are uniform or triangular with positive
support. Everything is driven by a caller-provided numpy Generator so runs
are reproducible.
"""

from __future__ import annotations

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
                    cost_fn=LinkCostFn.linear(
                        float(rng.uniform(1.0, 30.0)),
                        float(rng.uniform(0.005, 0.1)),
                    ),
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
