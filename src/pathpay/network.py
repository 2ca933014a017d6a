"""Road network model: links with congestion cost functions, a single
origin-destination demand record, and exhaustive simple-path enumeration.

Networks are loaded from JSON (see :func:`parse_network` for the schema) and
are immutable once built, so they can be shared freely between solvers. On
first use a network compiles its links' cost functions into coefficient
arrays. Link costs then have two evaluators, each one pass of a few numpy
calls over all links: the link travel times, and a solver's objective
value, link gradient and link curvature together.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

# the most simple paths enumeration accepts: the path solvers and the
# subscriber LP work on dense links x paths arrays
MAX_PATHS = 10_000

COST_KINDS = ("linear", "polynomial", "bpr")


class NetworkError(ValueError):
    """Malformed or inconsistent network input."""


class PathCountError(NetworkError):
    """The network has more than ``MAX_PATHS`` simple paths."""


@dataclass(frozen=True)
class LinkCostFn:
    """Congestion cost (travel time, minutes) as a function of link flow.

    Supported kinds:

    * ``linear``      params ``(a0, a1)``: ``t(q) = a0 + a1*q``
    * ``polynomial``  params ``(c0, .., cn)``: ``t(q) = sum c_k q^k``
    * ``bpr``         params ``(t0, cap, alpha, power)``:
      ``t(q) = t0 * (1 + alpha * (q/cap)**power)``

    All parameter choices accepted here give a non-negative, convex,
    differentiable and (weakly) increasing ``t`` on ``q >= 0``, with a
    closed-form marginal cost ``t(q) + q * t'(q)``.
    """

    kind: str
    params: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.kind not in COST_KINDS:
            raise NetworkError(f"unknown cost function kind: {self.kind!r}")
        p = tuple(float(v) for v in self.params)
        object.__setattr__(self, "params", p)
        if not all(np.isfinite(p)):
            raise NetworkError("cost function parameters must be finite")
        if self.kind == "linear":
            if len(p) != 2:
                raise NetworkError("linear cost needs params (a0, a1)")
            if p[0] < 0 or p[1] < 0:
                raise NetworkError("linear cost needs a0 >= 0 and a1 >= 0")
        elif self.kind == "polynomial":
            if not p:
                raise NetworkError("polynomial cost needs at least one coefficient")
            if any(c < 0 for c in p):
                raise NetworkError("polynomial coefficients must be non-negative")
        else:  # bpr
            if len(p) != 4:
                raise NetworkError("bpr cost needs params (t0, cap, alpha, power)")
            t0, cap, alpha, power = p
            if t0 <= 0 or cap <= 0 or alpha < 0 or power < 1:
                raise NetworkError(
                    "bpr cost needs t0 > 0, cap > 0, alpha >= 0 and power >= 1"
                )


@dataclass(frozen=True, eq=False)
class _CostArrays:
    """Cost functions compiled into coefficient arrays, one column per link.

    Every cost is a polynomial plus a power term,
    ``t(q) = sum_k c_k q**k + beta * s**p`` with ``s = q / cap``: a linear
    cost is the polynomial ``(a0, a1)``, a BPR cost the constant ``t0`` plus
    ``beta = t0 * alpha``, and ``beta`` is zero on polynomial links. So each
    quantity below is a sum of per-link coefficients times basis functions
    of the flow that all quantities share: the powers ``q**j`` for ``j``
    below the highest degree plus two and, when some link has
    ``beta > 0``, ``s**(p-1), s**p, s**(p+1)``.

    ==================  =======================  ===============================
    quantity            coefficient of ``q**j``  power term
    ==================  =======================  ===============================
    ``q t``             ``c_(j-1)``              ``beta*cap * s**(p+1)``
    ``t + q t'``        ``(j+1) c_j``            ``beta*(p+1) * s**p``
    ``2 t' + q t''``    ``(j+1)(j+2) c_(j+1)``   ``beta*p*(p+1)/cap * s**(p-1)``
    ``integral of t``   ``c_(j-1) / j``          ``beta*cap/(p+1) * s**(p+1)``
    ``t``               ``c_j``                  ``beta * s**p``
    ``t'``              ``(j+1) c_(j+1)``        ``beta*p/cap * s**(p-1)``
    ==================  =======================  ===============================

    The first three rows are the value terms, gradient and curvature of the
    system-optimal objective ``sum q t``; the last three those of the
    Beckmann potential, whose gradient is ``t``. Every basis function is
    finite at zero flow, as ``p >= 1``.
    """

    coef: np.ndarray  # (quantity, basis function, link)
    exponents: np.ndarray  # (basis function, link): j, capped per link
    inv_cap: np.ndarray | None  # None when no link has a power term
    base_power: np.ndarray | None  # p - 1, for the first power term

    @classmethod
    def compile(cls, fns) -> _CostArrays:
        n = len(fns)
        degree = np.array([0 if fn.kind == "bpr" else len(fn.params) - 1 for fn in fns])
        J = degree.max() + 2  # q t and its integral have one degree more than t
        c = np.zeros((J + 1, n))  # c_k, zero-padded so that c_(j+1) exists
        beta, cap, p = np.zeros(n), np.ones(n), np.ones(n)
        for i, fn in enumerate(fns):
            if fn.kind == "bpr":
                t0, cap[i], alpha, p[i] = fn.params
                c[0, i], beta[i] = t0, t0 * alpha
            else:
                c[: len(fn.params), i] = fn.params
        j = np.arange(J)[:, None]
        # a link's coefficients vanish beyond q**(degree+1), and its basis
        # stops there too: a power it does not use cannot overflow to inf
        # and turn its zero coefficient into nan
        exponents = np.minimum(j, degree + 1).astype(float)
        below = np.vstack([np.zeros(n), c[: J - 1]])  # c_(j-1)
        poly = (
            below,
            (j + 1) * c[:J],
            (j + 1) * (j + 2) * c[1:],
            below / np.maximum(j, 1),
            c[:J],
            (j + 1) * c[1:],
        )
        if not beta.any():
            return cls(np.stack(poly), exponents, None, None)
        zero = np.zeros(n)
        power = (
            (zero, zero, beta * cap),
            (zero, beta * (p + 1), zero),
            (beta * p * (p + 1) / cap, zero, zero),
            (zero, zero, beta * cap / (p + 1)),
            (zero, beta, zero),
            (beta * p / cap, zero, zero),
        )
        coef = np.stack([np.vstack([a, *b]) for a, b in zip(poly, power)])
        # s = 0 on links without a power term, for the same reason
        inv_cap = np.divide(1.0, cap, out=np.zeros(n), where=beta > 0)
        return cls(coef, exponents, inv_cap, p - 1.0)

    def evaluate(self, q, rows):
        """The quantities ``rows`` (an index or a slice into the table) at
        the flows ``q``, a 1-d array."""
        J = len(self.exponents)
        basis = np.empty((self.coef.shape[1], q.size))
        np.power(q, self.exponents, out=basis[:J])
        if self.base_power is not None:
            # one power per link, shared by the three power terms
            s = q * self.inv_cap
            np.power(s, self.base_power, out=basis[J])
            np.multiply(basis[J], s, out=basis[J + 1])
            np.multiply(basis[J + 1], s, out=basis[J + 2])
        return np.einsum("...bl,bl->...l", self.coef[rows], basis)


# rows of the _CostArrays table
_TIME = 4
_OBJECTIVE_ROWS = {"SO": slice(0, 3), "UE": slice(3, 6)}


@dataclass(frozen=True)
class Link:
    id: int
    tail: str
    head: str
    cost_fn: LinkCostFn

    def __post_init__(self) -> None:
        if self.tail == self.head:
            raise NetworkError(f"link {self.id}: self-loops are not allowed")


@dataclass(frozen=True)
class Network:
    """Directed network with one origin-destination demand record.

    ``demand`` is the total trip rate; ``subscriber_demand`` is the share of
    it enrolled in the payment scheme (the rest are outsiders).
    """

    nodes: tuple[str, ...]
    links: tuple[Link, ...]
    origin: str
    destination: str
    demand: float
    subscriber_demand: float

    def __post_init__(self) -> None:
        node_set = set(self.nodes)
        if len(node_set) != len(self.nodes):
            raise NetworkError("duplicate node names")
        if self.origin == self.destination:
            raise NetworkError("origin and destination must differ")
        for endpoint in (self.origin, self.destination):
            if endpoint not in node_set:
                raise NetworkError(f"unknown endpoint node {endpoint!r}")
        ids = [ln.id for ln in self.links]
        if len(set(ids)) != len(ids):
            raise NetworkError("duplicate link ids")
        for ln in self.links:
            if ln.tail not in node_set or ln.head not in node_set:
                raise NetworkError(f"link {ln.id} references unknown nodes")
        if self.demand < 0:
            raise NetworkError("demand must be non-negative")
        if not 0 <= self.subscriber_demand <= self.demand:
            raise NetworkError("subscriber demand must lie in [0, demand]")
        if not any(
            ln.tail == self.origin and ln.head in self._leads_to_destination
            for ln in self.links
        ):
            raise NetworkError(
                f"no path from {self.origin!r} to {self.destination!r}"
            )

    @cached_property
    def _leads_to_destination(self) -> frozenset[str]:
        """The destination and every node with a path to it that avoids the
        origin: the only nodes a simple origin-destination path can enter."""
        tails: dict[str, list[str]] = {}
        for ln in self.links:
            tails.setdefault(ln.head, []).append(ln.tail)
        seen = {self.destination}
        stack = [self.destination]
        while stack:
            for node in tails.get(stack.pop(), ()):
                if node not in seen and node != self.origin:
                    seen.add(node)
                    stack.append(node)
        return frozenset(seen)

    @property
    def outsider_demand(self) -> float:
        return self.demand - self.subscriber_demand

    @cached_property
    def _costs(self) -> _CostArrays:
        return _CostArrays.compile([ln.cost_fn for ln in self.links])

    def link_times(self, link_flows) -> np.ndarray:
        """Per-link travel times at the given flow vector."""
        q = np.asarray(link_flows, dtype=float)
        if np.any(q < 0):
            raise NetworkError("link flow must be non-negative")
        return self._costs.evaluate(q, _TIME)

    def link_objective(self, link_flows, regime: str):
        """Value, link gradient and link curvature of the ``"SO"`` objective
        (total time ``sum q t``) or the ``"UE"`` one (the Beckmann potential
        ``sum integral t``) at the given flow vector, in one pass over the
        links. For solvers: the flows are not checked, so they must already
        be non-negative."""
        terms, gradient, curvature = self._costs.evaluate(
            link_flows, _OBJECTIVE_ROWS[regime]
        )
        return float(terms.sum()), gradient, curvature


@dataclass(frozen=True, eq=False)
class PathSet:
    """All simple origin-destination paths, in a fixed deterministic order.

    ``paths[r]`` is the link-id sequence of path r; ``incidence[a, r]`` is 1
    when path r uses the link at position a of ``Network.links``.
    """

    paths: tuple[tuple[int, ...], ...]
    incidence: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        self.incidence.setflags(write=False)

    def __len__(self) -> int:
        return len(self.paths)

    def labels(self) -> list[str]:
        """Human-readable path names like ``(1)+(3)``."""
        return ["+".join(f"({lid})" for lid in p) for p in self.paths]


def enumerate_paths(net: Network) -> PathSet:
    """Enumerate every simple origin->destination path by depth-first search.

    Paths are ordered lexicographically by their link-id sequence, which makes
    the result reproducible across runs. The search keeps its own stack, so
    path length is not bounded by Python's recursion limit, and it enters
    only nodes that lead to the destination without passing the origin
    (found once, by a backward search from the destination): a dead-end
    subnetwork costs one pass, not a walk over its simple paths. Raises
    :class:`PathCountError` as soon as more than ``MAX_PATHS`` paths exist;
    this toolkit targets small networks where exhaustive enumeration is
    practical.
    """
    by_tail: dict[str, list[Link]] = {}
    for ln in net.links:
        if ln.head in net._leads_to_destination:
            by_tail.setdefault(ln.tail, []).append(ln)
    for outgoing in by_tail.values():
        outgoing.sort(key=lambda ln: ln.id)

    found: list[tuple[int, ...]] = []
    trail: list[int] = []  # link ids of the partial path
    heads: list[str] = []  # the nodes it entered
    visited = {net.origin}
    # one iterator over the outgoing links of each node on the partial path
    stack = [iter(by_tail[net.origin])]
    while stack:
        ln = next(stack[-1], None)
        if ln is None:  # every way on from this node is explored: back up
            stack.pop()
            if heads:
                visited.remove(heads.pop())
                trail.pop()
        elif ln.head == net.destination:
            if len(found) >= MAX_PATHS:
                raise PathCountError(f"more than {MAX_PATHS} simple paths; reduce the network")
            found.append((*trail, ln.id))
        elif ln.head not in visited:
            visited.add(ln.head)
            heads.append(ln.head)
            trail.append(ln.id)
            stack.append(iter(by_tail.get(ln.head, ())))

    index = {ln.id: pos for pos, ln in enumerate(net.links)}
    incidence = np.zeros((len(net.links), len(found)))
    for r, path in enumerate(found):
        for lid in path:
            incidence[index[lid], r] = 1.0
    return PathSet(paths=tuple(found), incidence=incidence)


def parse_network(text: str) -> Network:
    """Build a validated :class:`Network` from its JSON description.

    Schema::

        {
          "nodes": ["A", "B", ...],
          "links": [{"id": 1, "from": "A", "to": "B",
                     "cost": {"kind": "linear", "params": [10.0, 0.05]}}, ...],
          "demand": {"origin": "A", "destination": "C",
                     "total": 1000.0, "subscribers": 800.0}
        }
    """
    try:
        raw = json.loads(text)
    except ValueError as exc:  # also integers too long to convert
        raise NetworkError(f"invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise NetworkError("top-level JSON value must be an object")

    for key in ("nodes", "links", "demand"):
        if key not in raw:
            raise NetworkError(f"missing required key {key!r}")

    nodes = raw["nodes"]
    if not isinstance(nodes, list) or not all(isinstance(n, str) for n in nodes):
        raise NetworkError("'nodes' must be a list of strings")

    links = []
    if not isinstance(raw["links"], list):
        raise NetworkError("'links' must be a list")
    for i, entry in enumerate(raw["links"]):
        where = f"links[{i}]"
        if not isinstance(entry, dict):
            raise NetworkError(f"{where} must be an object")
        _require(entry, ("id", "from", "to", "cost"), where)
        cost = entry["cost"]
        if not isinstance(cost, dict):
            raise NetworkError(f"{where}.cost must be an object")
        _require(cost, ("kind", "params"), f"{where}.cost")
        kind = string_field(cost["kind"], f"{where}.cost.kind")
        params = numbers_field(cost["params"], f"{where}.cost.params")
        try:
            cost_fn = LinkCostFn(kind, tuple(params))
        except NetworkError as exc:
            raise NetworkError(f"{where}.cost: {exc}") from None
        links.append(
            Link(
                id=integer_field(entry["id"], f"{where}.id"),
                tail=string_field(entry["from"], f"{where}.from"),
                head=string_field(entry["to"], f"{where}.to"),
                cost_fn=cost_fn,
            )
        )

    dem = raw["demand"]
    if not isinstance(dem, dict):
        raise NetworkError("'demand' must be an object")
    _require(dem, ("origin", "destination", "total"), "demand")
    return Network(
        nodes=tuple(nodes),
        links=tuple(links),
        origin=string_field(dem["origin"], "demand.origin"),
        destination=string_field(dem["destination"], "demand.destination"),
        demand=number_field(dem["total"], "demand.total"),
        subscriber_demand=number_field(
            dem.get("subscribers", 0.0), "demand.subscribers"
        ),
    )


def _require(obj: dict, keys, where: str) -> None:
    for key in keys:
        if key not in obj:
            raise NetworkError(f"{where} is missing key {key!r}")


# Checks for values read from the JSON input files, shared by the network and
# VOT parsers: each refuses what JSON can hold but the field cannot (bools,
# strings, null, non-finite numbers) with a message that names the field.


def number_field(value, name: str, error=NetworkError) -> float:
    """A finite JSON number, as a float."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            if math.isfinite(value):
                return float(value)
        except OverflowError:  # an integer beyond the float range
            pass
    raise error(f"{name} must be a finite number, got {value!r:.40}")


def numbers_field(value, name: str, error=NetworkError) -> list[float]:
    """A JSON list of finite numbers, as floats."""
    if not isinstance(value, list):
        raise error(f"{name} must be a list of numbers, got {value!r:.40}")
    return [number_field(v, f"{name}[{k}]", error) for k, v in enumerate(value)]


def integer_field(value, name: str, error=NetworkError) -> int:
    """A JSON integer (not a bool)."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise error(f"{name} must be an integer, got {value!r:.40}")


def string_field(value, name: str) -> str:
    """A JSON string."""
    if isinstance(value, str):
        return value
    raise NetworkError(f"{name} must be a string, got {value!r:.40}")
