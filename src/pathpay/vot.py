"""Value-of-time (VOT) distributions over a bounded support.

A distribution answers three questions for the payment scheme: the cdf mass
below a VOT, the quantile (inverse cdf) of a mass, and the split of the
subscriber population into equal-width VOT classes with per-class demand and
mean VOT.

Continuous kinds (``uniform``, ``triangular``, ``piecewise_linear``) share a
single representation: a piecewise-linear pdf given by knot positions and
densities. ``empirical`` distributions interpolate the cdf of a finite
sample instead.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .network import integer_field, number_field, numbers_field

DEFAULT_CLASS_COUNT = 100

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
    support: tuple[float, float]
    knots: np.ndarray = field(repr=False)       # pdf knot positions
    density: np.ndarray = field(repr=False)     # pdf values at knots
    cum: np.ndarray = field(repr=False)         # cdf values at knots
    samples: np.ndarray | None = field(default=None, repr=False)

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
    def empirical(cls, samples, support=None) -> VotDistribution:
        s = np.sort(np.asarray(samples, dtype=float))
        if s.size == 0:
            raise VotError("empirical distribution needs at least one sample")
        if not np.all(np.isfinite(s)):
            raise VotError("samples must be finite")
        lo, hi = (float(s[0]), float(s[-1])) if support is None else map(float, support)
        _check_support(lo, hi)
        if s[0] < lo or s[-1] > hi:
            raise VotError("samples must lie within the support")
        # continuous cdf through (distinct sample value, cumulative share)
        values, counts = np.unique(s, return_counts=True)
        xs = [lo]
        cs = [0.0]
        running = 0
        for v, c in zip(values, counts):
            running += int(c)
            if v == xs[-1]:
                cs[-1] = running / s.size
            else:
                xs.append(float(v))
                cs.append(running / s.size)
        if xs[-1] < hi:
            xs.append(hi)
            cs.append(1.0)
        cs[-1] = 1.0
        knots = np.asarray(xs)
        cum = np.asarray(cs)
        widths = np.diff(knots)
        dens = np.zeros_like(knots)
        if widths.size:
            seg = np.diff(cum) / widths
            # mid-knot density is not used for empirical queries; keep the
            # left-segment value so pdf() still integrates to one
            dens[:-1] = seg
            dens[-1] = seg[-1]
        return cls(
            kind="empirical",
            support=(lo, hi),
            knots=knots,
            density=dens,
            cum=cum,
            samples=s,
        )

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
        if np.any(p < 0):
            raise VotError("density must be non-negative")
        seg_mass = 0.5 * (p[:-1] + p[1:]) * np.diff(x)
        total = float(seg_mass.sum())
        if total <= 0:
            raise VotError("density must have positive total mass")
        p = p / total
        cum = np.concatenate([[0.0], np.cumsum(seg_mass / total)])
        cum[-1] = 1.0
        return cls(
            kind=kind,
            support=(float(x[0]), float(x[-1])),
            knots=x,
            density=p,
            cum=cum,
        )

    # -- queries -----------------------------------------------------------

    def pdf(self, b):
        """Density at b ($/hour), zero outside the support."""
        x = np.asarray(b, dtype=float)
        lo, hi = self.support
        idx = np.clip(np.searchsorted(self.knots, x, side="right") - 1, 0, len(self.knots) - 2)
        x0 = self.knots[idx]
        w = self.knots[idx + 1] - x0
        if self.kind == "empirical":
            val = self.density[idx]
        else:
            slope = (self.density[idx + 1] - self.density[idx]) / w
            val = self.density[idx] + slope * (x - x0)
        val = np.where((x < lo) | (x > hi), 0.0, val)
        return val if val.ndim else float(val)

    def cdf(self, b):
        """P(VOT <= b); 0 below the support and 1 above it."""
        x = np.asarray(b, dtype=float)
        if self.kind == "empirical":
            val = np.interp(x, self.knots, self.cum)
        else:
            idx = np.clip(
                np.searchsorted(self.knots, x, side="right") - 1, 0, len(self.knots) - 2
            )
            x0 = self.knots[idx]
            w = self.knots[idx + 1] - x0
            slope = (self.density[idx + 1] - self.density[idx]) / w
            dx = np.clip(x - x0, 0.0, w)
            val = self.cum[idx] + self.density[idx] * dx + 0.5 * slope * dx * dx
        val = np.clip(val, 0.0, 1.0)
        val = np.where(x <= self.support[0], 0.0, val)
        val = np.where(x >= self.support[1], 1.0, val)
        return val if val.ndim else float(val)

    def inverse_cdf(self, u):
        """Smallest b with cdf(b) >= u, for u in [0, 1].

        ``inverse_cdf(0)`` is the support minimum and ``inverse_cdf(1)`` the
        support maximum.
        """
        arr = np.asarray(u, dtype=float)
        out = np.empty_like(arr)
        for pos, val in np.ndenumerate(arr):
            out[pos] = self._inverse_cdf_scalar(float(val))
        return out if arr.ndim else float(out)

    def _inverse_cdf_scalar(self, u: float) -> float:
        if not 0.0 <= u <= 1.0:
            raise VotError("inverse_cdf argument must lie in [0, 1]")
        lo, hi = self.support
        if u == 0.0:
            return lo
        if u == 1.0:
            return hi
        k = int(np.searchsorted(self.cum, u, side="left")) - 1
        k = max(k, 0)
        x0 = self.knots[k]
        w = self.knots[k + 1] - x0
        delta = u - self.cum[k]
        if self.kind == "empirical":
            rise = self.cum[k + 1] - self.cum[k]
            return float(x0 + delta / rise * w)
        p0 = self.density[k]
        slope = (self.density[k + 1] - p0) / w
        disc = p0 * p0 + 2.0 * slope * delta
        root = np.sqrt(max(disc, 0.0))
        denom = p0 + root
        dx = w if denom <= 0 else 2.0 * delta / denom
        return float(x0 + min(dx, w))

    def mean(self) -> float:
        if self.kind == "empirical":
            return float(self.samples.mean())
        mass, moment = self._mass_and_moment(*self.support)
        return moment / mass

    def _mass_and_moment(self, a: float, b: float) -> tuple[float, float]:
        """Closed-form (integral of pdf, integral of x*pdf) over [a, b]."""
        mass = 0.0
        moment = 0.0
        for k in range(len(self.knots) - 1):
            x0, x1 = self.knots[k], self.knots[k + 1]
            lo = max(a, x0)
            hi = min(b, x1)
            if hi <= lo:
                continue
            p0 = self.density[k]
            if self.kind == "empirical":
                slope = 0.0
            else:
                slope = (self.density[k + 1] - p0) / (x1 - x0)
            ta, tb = lo - x0, hi - x0
            mass += p0 * (tb - ta) + 0.5 * slope * (tb * tb - ta * ta)
            moment += (
                x0 * p0 * (tb - ta)
                + (p0 + x0 * slope) * (tb * tb - ta * ta) / 2.0
                + slope * (tb**3 - ta**3) / 3.0
            )
        return mass, moment


@dataclass(frozen=True, eq=False)
class VotClassTable:
    """Equal-width discretization of a VOT distribution.

    ``class_demand[m]`` is the subscriber flow whose VOT falls in class m and
    ``class_mean[m]`` the average VOT of that class.
    """

    M: int
    boundaries: np.ndarray
    class_demand: np.ndarray
    class_mean: np.ndarray

    @property
    def total_demand(self) -> float:
        return float(self.class_demand.sum())


def discretize(dist: VotDistribution, subscriber_demand: float, M: int) -> VotClassTable:
    """Split subscriber demand into M equal-width VOT classes.

    Class demand comes from the cdf mass of each interval (sample counts for
    empirical distributions); the class mean is the conditional mean of the
    distribution on the interval, falling back to the interval midpoint for
    classes of negligible mass.
    """
    if M < 1:
        raise VotError("class count M must be >= 1")
    if subscriber_demand < 0:
        raise VotError("subscriber demand must be non-negative")
    lo, hi = dist.support
    boundaries = lo + (hi - lo) * np.arange(M + 1) / M
    boundaries[-1] = hi

    masses = np.empty(M)
    means = np.empty(M)
    if dist.kind == "empirical":
        width = (hi - lo) / M
        bins = np.minimum(((dist.samples - lo) / width).astype(int), M - 1)
        counts = np.bincount(bins, minlength=M)
        masses[:] = counts / dist.samples.size
        for m in range(M):
            if counts[m]:
                means[m] = dist.samples[bins == m].mean()
            else:
                means[m] = 0.5 * (boundaries[m] + boundaries[m + 1])
    else:
        for m in range(M):
            a, b = boundaries[m], boundaries[m + 1]
            mass, moment = dist._mass_and_moment(a, b)
            masses[m] = mass
            means[m] = moment / mass if mass >= _EMPTY_CLASS_MASS else 0.5 * (a + b)
    masses = np.clip(masses, 0.0, None)

    return VotClassTable(
        M=M,
        boundaries=boundaries,
        class_demand=subscriber_demand * masses,
        class_mean=means,
    )


def parse_vot(text: str) -> tuple[VotDistribution, int]:
    """Load a distribution and its class count from JSON.

    Schema::

        {
          "kind": "uniform" | "triangular" | "piecewise_linear" | "empirical",
          "support": [lo, hi],
          "params": {...},       # per kind, see below
          "M": 100               # optional, defaults to 100
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
    if M < 1:
        raise VotError("M must be a positive integer")
    return dist, M


def _check_support(lo: float, hi: float) -> None:
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise VotError("support bounds must be finite")
    if not 0 <= lo < hi:
        raise VotError("support must satisfy 0 <= lo < hi")
    if hi > MAX_VOT:
        raise VotError(f"support must be within [0, {MAX_VOT:g}] $/h")
