"""Value-of-time (VOT) distributions over a bounded support.

A distribution answers two questions for the payment scheme: the quantile
(inverse cdf) of a mass, which cuts the partition, and the split of the
subscriber population into equal-width VOT classes with per-class demand and
mean VOT, which the subscriber LP prices.

Every kind shares one representation: a piecewise-linear pdf given by knot
positions, the density at the knots, the cdf at the knots and one density
slope per segment; the support is the first and last knot. ``uniform``,
``triangular`` and ``piecewise_linear`` densities are continuous. An
``empirical`` sample becomes the density whose cdf runs linearly between the
distinct sample values: its segments are flat (slope 0) and each knot holds
the density of the segment to its right. The queries are array formulas over
this representation. A class table sums mass and moment terms into the
class ``[b_m, b_{m+1})`` their start lies in, the last class also holding
the support maximum: one term per distinct sample value of an empirical
distribution, its share ``np.diff(cum, prepend=0)``, and one closed-form term
per piece of a continuous density cut at the class boundaries and the knots.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .network import integer_field, number_field, numbers_field

DEFAULT_CLASS_COUNT = 100
# largest accepted class count: payments are stable by M = 50-200, the
# class table and the VOT-mass curve the subscriber LP cuts on are M-long,
# and the LP may add a cut per class for every path-time gap
MAX_CLASS_COUNT = 10_000

VOT_KINDS = ("uniform", "triangular", "piecewise_linear", "empirical")

_EMPTY_CLASS_MASS = 1e-12
# largest accepted VOT ($/h): the closed-form class moments cube the support
# bound, and the subscriber LP multiplies VOTs by demands, so a wider support
# overflows double precision
MAX_VOT = 1e100


class VotError(ValueError):
    """Invalid VOT distribution specification or query."""


@dataclass(frozen=True, eq=False)
class VotDistribution:
    """Bounded continuous VOT distribution in $/hour.

    Build instances through :meth:`uniform`, :meth:`triangular`,
    :meth:`piecewise_linear` or :meth:`empirical` rather than directly.
    """

    kind: str
    knots: np.ndarray = field(repr=False)       # pdf knot positions
    density: np.ndarray = field(repr=False)     # pdf values at knots
    cum: np.ndarray = field(repr=False)         # cdf values at knots
    slope: np.ndarray = field(repr=False)       # pdf slope on each segment

    @property
    def support(self) -> tuple[float, float]:
        """(lo, hi) in $/hour: the first and last knot."""
        return float(self.knots[0]), float(self.knots[-1])

    # -- constructors ------------------------------------------------------

    @classmethod
    def uniform(cls, lo: float, hi: float) -> VotDistribution:
        _check_support(lo, hi)
        h = 1.0 / (hi - lo)
        return cls._from_pdf_knots("uniform", [lo, hi], [h, h])

    @classmethod
    def triangular(cls, lo: float, mode: float, hi: float) -> VotDistribution:
        _check_support(lo, hi)
        if not lo <= mode <= hi:
            raise VotError("triangular mode must lie within the support")
        peak = 2.0 / (hi - lo)
        if mode == lo:
            knots, dens = [lo, hi], [peak, 0.0]
        elif mode == hi:
            knots, dens = [lo, hi], [0.0, peak]
        else:
            knots, dens = [lo, mode, hi], [0.0, peak, 0.0]
        return cls._from_pdf_knots("triangular", knots, dens)

    @classmethod
    def piecewise_linear(cls, knots, density) -> VotDistribution:
        return cls._from_pdf_knots("piecewise_linear", knots, density)

    @classmethod
    def empirical(cls, samples, support) -> VotDistribution:
        s = np.sort(np.asarray(samples, dtype=float))
        if s.size == 0:
            raise VotError("empirical distribution needs at least one sample")
        if not np.all(np.isfinite(s)):
            raise VotError("samples must be finite")
        lo, hi = map(float, support)
        _check_support(lo, hi)
        if s[0] < lo or s[-1] > hi:
            raise VotError("samples must lie within the support")
        # continuous cdf through (distinct sample value, cumulative share)
        knots, counts = np.unique(s, return_counts=True)
        cum = np.cumsum(counts) / s.size
        if knots[0] > lo:
            knots, cum = np.r_[lo, knots], np.r_[0.0, cum]
        if knots[-1] < hi:
            knots, cum = np.r_[knots, hi], np.r_[cum, 1.0]
        cum[-1] = 1.0
        with np.errstate(over="ignore"):  # _build rejects an overflow
            seg = np.diff(cum) / np.diff(knots)
        # one density per knot, as for the other kinds: the last knot
        # repeats the last segment's
        return cls._build("empirical", knots, np.r_[seg, seg[-1]], cum, np.zeros_like(seg))

    @classmethod
    def _from_pdf_knots(cls, kind, knots, density) -> VotDistribution:
        x = np.asarray(knots, dtype=float)
        p = np.asarray(density, dtype=float)
        if x.ndim != 1 or x.size < 2 or p.shape != x.shape:
            raise VotError("need matching 1-d knot and density arrays (>= 2 knots)")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(p))):
            raise VotError("knots and densities must be finite")
        if np.any(np.diff(x) <= 0):
            raise VotError("knots must be strictly increasing")
        _check_support(x[0], x[-1])
        if np.any(p < 0):
            raise VotError("density must be non-negative")
        seg_mass = 0.5 * (p[:-1] + p[1:]) * np.diff(x)
        total = float(seg_mass.sum())
        if total <= 0:
            raise VotError("density must have positive total mass")
        with np.errstate(over="ignore", invalid="ignore"):  # _build rejects an overflow
            p = p / total
            slope = np.diff(p) / np.diff(x)
        # the running sum can round above 1 before the last knot
        cum = np.minimum(np.concatenate([[0.0], np.cumsum(seg_mass / total)]), 1.0)
        cum[-1] = 1.0
        return cls._build(kind, x, p, cum, slope)

    @classmethod
    def _build(cls, kind, knots, density, cum, slope) -> VotDistribution:
        if not (np.all(np.isfinite(density)) and np.all(np.isfinite(slope))):
            raise VotError("density overflows: knots or samples are too close together")
        return cls(kind=kind, knots=knots, density=density, cum=cum, slope=slope)

    # -- queries -----------------------------------------------------------

    def inverse_cdf(self, u):
        """Smallest b with cdf(b) >= u, for u in [0, 1].

        ``inverse_cdf(0)`` is the support minimum and ``inverse_cdf(1)`` the
        support maximum.
        """
        u = np.asarray(u, dtype=float)
        if not np.all((u >= 0.0) & (u <= 1.0)):
            raise VotError("inverse_cdf argument must lie in [0, 1]")
        k = np.maximum(np.searchsorted(self.cum, u, side="left") - 1, 0)
        x0 = self.knots[k]
        delta = u - self.cum[k]
        p0 = self.density[k]
        # root of p0*dx + slope*dx^2/2 = delta, in the form that stays exact
        # as the slope goes to 0. A mass below the first knot's cdf (a sample
        # atom at the support minimum) maps to the first knot; where p0*p0
        # overflows, the segment is narrower than 1/p0 and dx rounds to 0.
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            root = np.sqrt(np.maximum(p0 * p0 + 2.0 * self.slope[k] * delta, 0.0))
            dx = 2.0 * delta / (p0 + root)
        val = x0 + np.clip(dx, 0.0, self.knots[k + 1] - x0)
        val = np.where(u == 0.0, self.knots[0], np.where(u == 1.0, self.knots[-1], val))
        return val if val.ndim else float(val)


@dataclass(frozen=True, eq=False)
class VotClassTable:
    """Equal-width discretization of a VOT distribution.

    Class m covers ``[boundaries[m], boundaries[m + 1])``, and the last class
    also holds the support maximum. ``class_demand[m]`` is the subscriber
    flow whose VOT falls in class m and ``class_mean[m]`` the average VOT of
    that class.
    """

    M: int
    boundaries: np.ndarray
    class_demand: np.ndarray
    class_mean: np.ndarray


def discretize(dist: VotDistribution, subscriber_demand: float, M: int) -> VotClassTable:
    """Split subscriber demand into M equal-width VOT classes in one pass
    over every kind's mass and moment terms (see the module docstring),
    summed per class in position order. A class mean is its moment over its
    mass, or its midpoint for a class of negligible mass.
    """
    check_class_count(M)
    if not 0 <= subscriber_demand < np.inf:
        raise VotError("subscriber demand must be finite and non-negative")
    lo, hi = dist.support
    boundaries = lo + (hi - lo) * np.arange(M + 1) / M
    boundaries[-1] = hi

    if dist.kind == "empirical":
        start = dist.knots
        mass = np.diff(dist.cum, prepend=0.0)
        moment = mass * start
    else:
        cuts = np.union1d(boundaries, dist.knots)
        start = cuts[:-1]
        k = np.searchsorted(dist.knots, start, side="right") - 1
        x0, p0, slope = dist.knots[k], dist.density[k], dist.slope[k]
        ta, tb = start - x0, cuts[1:] - x0
        mass = p0 * (tb - ta) + 0.5 * slope * (tb * tb - ta * ta)
        moment = (
            x0 * p0 * (tb - ta)
            + (p0 + x0 * slope) * (tb * tb - ta * ta) / 2.0
            # float_power is the scalar libm pow, which ** on an array is not
            + slope * (np.float_power(tb, 3) - np.float_power(ta, 3)) / 3.0
        )
    cls = np.minimum(np.searchsorted(boundaries, start, side="right") - 1, M - 1)
    mass = np.bincount(cls, weights=mass, minlength=M)
    moment = np.bincount(cls, weights=moment, minlength=M)
    means = np.divide(
        moment, mass,
        out=0.5 * (boundaries[:-1] + boundaries[1:]),
        where=mass >= _EMPTY_CLASS_MASS,
    )
    return VotClassTable(
        M=M,
        boundaries=boundaries,
        class_demand=subscriber_demand * np.clip(mass, 0.0, None),
        class_mean=means,
    )


def check_class_count(M: int, name: str = "M") -> None:
    """Reject a class count outside [1, MAX_CLASS_COUNT]; ``name`` is the
    field or flag it came from."""
    if not 1 <= M <= MAX_CLASS_COUNT:
        raise VotError(f"{name} must be an integer in [1, {MAX_CLASS_COUNT}]")


def parse_vot(text: str) -> tuple[VotDistribution, int]:
    """Load a distribution and its class count from JSON.

    Schema::

        {
          "kind": "uniform" | "triangular" | "piecewise_linear" | "empirical",
          "support": [lo, hi],
          "params": {...},       # per kind, see below
          "M": 100               # optional, defaults to 100, at most 10 000
        }

    ``params`` holds ``{}`` for uniform, ``{"mode": m}`` for triangular,
    ``{"knots": [...], "density": [...]}`` for piecewise_linear and
    ``{"samples": [...]}`` for empirical.
    """
    try:
        raw = json.loads(text)
    except ValueError as exc:  # also integers too long to convert
        raise VotError(f"invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise VotError("top-level JSON value must be an object")
    for key in ("kind", "support"):
        if key not in raw:
            raise VotError(f"missing required key {key!r}")
    kind = raw["kind"]
    if kind not in VOT_KINDS:
        raise VotError(f"unknown distribution kind: {kind!r}")
    support = raw["support"]
    if not (isinstance(support, list) and len(support) == 2):
        raise VotError("'support' must be [lo, hi]")
    lo, hi = numbers_field(support, "support", VotError)
    _check_support(lo, hi)
    params = raw.get("params", {})
    if not isinstance(params, dict):
        raise VotError("'params' must be an object")

    if kind == "uniform":
        dist = VotDistribution.uniform(lo, hi)
    elif kind == "triangular":
        if "mode" not in params:
            raise VotError("triangular distribution needs params.mode")
        mode = number_field(params["mode"], "params.mode", VotError)
        dist = VotDistribution.triangular(lo, mode, hi)
    elif kind == "piecewise_linear":
        try:
            knots = numbers_field(params["knots"], "params.knots", VotError)
            density = numbers_field(params["density"], "params.density", VotError)
        except KeyError as exc:
            raise VotError(f"piecewise_linear needs params.{exc.args[0]}") from exc
        dist = VotDistribution.piecewise_linear(knots, density)
        if abs(dist.support[0] - lo) > 1e-9 or abs(dist.support[1] - hi) > 1e-9:
            raise VotError("piecewise_linear knots must span the declared support")
    else:
        if "samples" not in params:
            raise VotError("empirical distribution needs params.samples")
        samples = numbers_field(params["samples"], "params.samples", VotError)
        dist = VotDistribution.empirical(samples, support=(lo, hi))

    M = integer_field(raw.get("M", DEFAULT_CLASS_COUNT), "M", VotError)
    check_class_count(M)
    return dist, M


def _check_support(lo: float, hi: float) -> None:
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise VotError("support bounds must be finite")
    if not 0 <= lo < hi:
        raise VotError("support must satisfy 0 <= lo < hi")
    if hi > MAX_VOT:
        raise VotError(f"support must be within [0, {MAX_VOT:g}] $/h")
