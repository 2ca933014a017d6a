import json

import numpy as np
import pytest
from hypothesis import given, reject, strategies as st

from _oracles import cdf, loop_discretize, loop_mass_and_moment, scalar_inverse_cdf
from pathpay import VotDistribution, VotError, discretize, parse_vot
from pathpay.vot import MAX_CLASS_COUNT


def dist_strategy():
    """Distributions with strictly positive interior density."""
    uniform = st.tuples(st.floats(0.0, 20.0), st.floats(5.0, 40.0)).map(
        lambda p: VotDistribution.uniform(p[0], p[0] + p[1])
    )
    tri = st.tuples(
        st.floats(0.0, 20.0), st.floats(5.0, 40.0), st.floats(0.01, 0.99)
    ).map(
        lambda p: VotDistribution.triangular(p[0], p[0] + p[2] * p[1], p[0] + p[1])
    )
    pl = st.tuples(
        st.floats(0.0, 10.0),
        st.lists(st.floats(0.05, 3.0), min_size=2, max_size=6),
        st.lists(st.floats(0.5, 8.0), min_size=1, max_size=5),
    ).map(_build_pl)
    return st.one_of(uniform, tri, pl)


def _grid_samples(args):
    """An empirical distribution of samples on a 1/100 grid of its support,
    and the samples."""
    lo, width, ticks = args
    samples = lo + np.array(ticks) / 100 * width
    return VotDistribution.empirical(samples, support=(lo, lo + width)), samples


def loop_mean(dist) -> float:
    """The mean of a continuous distribution, one knot segment at a time."""
    mass, moment = loop_mass_and_moment(dist, *dist.support)
    return moment / mass


def _build_pl(args):
    lo, dens, widths = args
    n = min(len(dens), len(widths) + 1)
    knots = lo + np.concatenate([[0.0], np.cumsum(widths[: n - 1])])
    return VotDistribution.piecewise_linear(knots, dens[:n])


@st.composite
def any_dist(draw):
    """A distribution of any of the four kinds and the samples it was drawn
    from (None for the continuous kinds): triangular modes at the support
    ends, piecewise-linear densities with zero knots, and empirical samples
    with ties and samples on the support ends."""
    lo = draw(st.one_of(st.just(0.0), st.floats(0.5, 20.0)))
    width = draw(st.floats(1.0, 60.0))
    hi = lo + width
    kind = draw(st.sampled_from(["uniform", "triangular", "piecewise_linear", "empirical"]))
    frac = st.one_of(st.sampled_from([0.0, 1.0]), st.integers(0, 8).map(lambda i: i / 8),
                     st.floats(0.0, 1.0))
    try:
        if kind == "uniform":
            return VotDistribution.uniform(lo, hi), None
        if kind == "triangular":
            return VotDistribution.triangular(lo, min(lo + draw(frac) * width, hi), hi), None
        if kind == "piecewise_linear":
            inner = draw(st.lists(st.integers(1, 99), max_size=5, unique=True))
            knots = lo + width * np.array([0.0, *sorted(inner), 100.0]) / 100.0
            dens = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.05, 5.0)),
                                 min_size=knots.size, max_size=knots.size))
            if not any(dens):
                dens[0] = 1.0
            return VotDistribution.piecewise_linear(knots, dens), None
        samples = lo + width * np.array(draw(st.lists(frac, min_size=1, max_size=40)))
        samples = np.minimum(samples, hi)
        return VotDistribution.empirical(samples, support=(lo, hi)), samples
    except VotError as exc:
        # a mode or samples a subnormal apart (test_density_overflow_rejected)
        if "too close together" not in str(exc):
            raise
        reject()


class TestCdf:
    def test_uniform_identity(self):
        d = VotDistribution.uniform(0.0, 1.0)
        assert cdf(d, 0.25) == pytest.approx(0.25, abs=1e-12)

    def test_triangular_endpoints(self):
        d = VotDistribution.triangular(5.0, 20.0, 45.0)
        assert cdf(d, 5.0) == 0.0
        assert cdf(d, 45.0) == 1.0
        assert cdf(d, 4.0) == 0.0
        assert cdf(d, 50.0) == 1.0

    def test_calibrated_fixture_quantiles(self, demo_vot):
        dist, _ = demo_vot
        assert cdf(dist, 17.2) == pytest.approx(0.25, abs=1e-12)
        assert cdf(dist, 31.6) == pytest.approx(0.55, abs=1e-12)

    def test_knot_cdf_never_above_one(self):
        # the running sum of segment masses rounds to 1 + 2**-52 at the
        # fourth knot here
        dist = VotDistribution.piecewise_linear(
            [4.15923533, 9.59823538, 12.79764717, 16.31700014, 17.91670604],
            [0.72956286, 4.16299029, 4.29224148, 0.0, 0.0],
        )
        assert dist.cum.max() == 1.0
        quantiles = dist.inverse_cdf(dist.cum)
        assert np.all((quantiles >= dist.knots[0]) & (quantiles <= dist.knots[-1]))

    @given(drawn=any_dist())
    def test_knot_cdf_monotone_within_unit_interval(self, drawn):
        dist, _ = drawn
        assert dist.cum[0] >= 0.0 and dist.cum[-1] == 1.0
        assert np.all(np.diff(dist.cum) >= 0.0)
        assert dist.cum.max() <= 1.0

    def test_pdf_normalized(self, demo_vot):
        dist, _ = demo_vot
        grid = np.linspace(*dist.support, 200_001)
        pdf = np.interp(grid, dist.knots, dist.density)
        area = np.sum(0.5 * (pdf[1:] + pdf[:-1]) * np.diff(grid))  # trapezoid rule
        assert area == pytest.approx(1.0, abs=1e-9)


class TestInverseCdf:
    def test_uniform_midpoint(self):
        d = VotDistribution.uniform(5.0, 45.0)
        assert d.inverse_cdf(0.5) == pytest.approx(25.0, abs=1e-12)

    def test_fixture_quantile(self, demo_vot):
        dist, _ = demo_vot
        assert dist.inverse_cdf(0.25) == pytest.approx(17.2, abs=1e-9)
        assert dist.inverse_cdf(0.55) == pytest.approx(31.6, abs=1e-9)

    def test_endpoints(self, demo_vot):
        dist, _ = demo_vot
        assert dist.inverse_cdf(0.0) == dist.support[0]
        assert dist.inverse_cdf(1.0) == dist.support[1]

    def test_out_of_range(self, demo_vot):
        dist, _ = demo_vot
        with pytest.raises(VotError):
            dist.inverse_cdf(-0.01)
        with pytest.raises(VotError):
            dist.inverse_cdf(1.01)

    @given(dist=dist_strategy(), frac=st.floats(0.001, 0.999))
    def test_round_trip(self, dist, frac):
        lo, hi = dist.support
        x = lo + frac * (hi - lo)
        assert dist.inverse_cdf(cdf(dist, x)) == pytest.approx(
            x, abs=1e-9 * (hi - lo)
        )

    @given(dist=dist_strategy(), u=st.floats(0.001, 0.999))
    def test_against_bisection_oracle(self, dist, u):
        lo, hi = dist.support
        a, b = lo, hi
        for _ in range(80):
            mid = 0.5 * (a + b)
            if cdf(dist, mid) >= u:
                b = mid
            else:
                a = mid
        assert dist.inverse_cdf(u) == pytest.approx(b, abs=1e-8 * (hi - lo))

    def test_array_with_one_bad_entry_raises(self, demo_vot):
        dist, _ = demo_vot
        for bad in (-0.01, 1.01, np.nan):
            with pytest.raises(VotError):
                dist.inverse_cdf(np.array([[0.2, 0.5], [bad, 0.9]]))

    def test_scalar_in_scalar_out(self, demo_vot):
        dist, _ = demo_vot
        assert type(dist.inverse_cdf(0.3)) is float
        assert dist.inverse_cdf([0.3]).shape == (1,)


class TestOracles:
    """The array queries against per-point and per-class loops."""

    @given(drawn=any_dist(), extra=st.lists(st.floats(0.0, 1.0), max_size=20))
    def test_inverse_cdf_matches_scalar(self, drawn, extra):
        dist, _ = drawn
        u = np.array([0.0, 1.0, *dist.cum, *extra])
        expected = [scalar_inverse_cdf(dist, float(v)) for v in u]
        lo, hi = dist.support
        assert dist.inverse_cdf(u) == pytest.approx(expected, rel=0, abs=1e-9 * (hi - lo))

    @given(drawn=any_dist(), M=st.integers(1, 400))
    def test_discretize_matches_loop(self, drawn, M):
        dist, samples = drawn
        table = discretize(dist, 800.0, M)
        demand, mean = loop_discretize(dist, 800.0, M, samples)
        lo, hi = dist.support
        assert table.class_demand == pytest.approx(demand, rel=0, abs=1e-12 * 800.0)
        assert table.class_mean == pytest.approx(mean, rel=0, abs=1e-9 * (hi - lo))

    @pytest.mark.parametrize("M", [1, 7, 400])
    def test_many_knots_match_loop(self, M):
        # 2 000 knots, so a class spans many segments: every boundary of 7
        # classes and every fourth of 400 is a knot, and one run of 20 knots
        # in every 200 has zero density
        rng = np.random.default_rng(11)
        lo, hi = 5.0, 45.0
        on_boundaries = np.r_[lo + (hi - lo) * np.arange(8) / 7,
                              lo + (hi - lo) * np.arange(0, 401, 4) / 400]
        knots = np.union1d(on_boundaries, rng.uniform(lo, hi, 1_893))
        assert knots.size == 2_000
        density = rng.uniform(0.0, 3.0, knots.size)
        density[(np.arange(knots.size) // 20) % 10 == 3] = 0.0
        dist = VotDistribution.piecewise_linear(knots, density)
        table = discretize(dist, 800.0, M)
        demand, mean = loop_discretize(dist, 800.0, M)
        assert table.class_demand == pytest.approx(demand, rel=0, abs=1e-12 * 800.0)
        assert table.class_mean == pytest.approx(mean, rel=0, abs=1e-9 * (hi - lo))


class TestDiscretize:
    def test_uniform_split(self):
        d = VotDistribution.uniform(0.0, 10.0)
        table = discretize(d, 100.0, 2)
        assert table.class_demand == pytest.approx([50.0, 50.0], abs=1e-9)
        assert table.class_mean == pytest.approx([2.5, 7.5], abs=1e-9)

    def test_single_class_mean(self, demo_vot):
        dist, _ = demo_vot
        table = discretize(dist, 800.0, 1)
        assert table.class_demand == pytest.approx([800.0])
        assert table.class_mean[0] == pytest.approx(loop_mean(dist), rel=1e-12)

    def test_fixture_against_trapezoid_oracle(self, demo_vot):
        dist, _ = demo_vot
        M = 100
        table = discretize(dist, 800.0, M)
        assert table.class_demand.sum() == pytest.approx(800.0, abs=1e-9 * 800.0)
        assert np.all(np.diff(table.class_mean) >= -1e-12)
        assert np.all(table.class_mean >= table.boundaries[:-1] - 1e-12)
        assert np.all(table.class_mean <= table.boundaries[1:] + 1e-12)

        # brute numerical integration on a million-point grid
        n = 1_000_000
        grid = np.linspace(*dist.support, n + 1)
        pdf = np.interp(grid, dist.knots, dist.density)
        dx = grid[1] - grid[0]
        cum_mass = np.concatenate([[0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2 * dx)])
        xpdf = grid * pdf
        cum_moment = np.concatenate(
            [[0.0], np.cumsum((xpdf[1:] + xpdf[:-1]) / 2 * dx)]
        )
        stride = n // M
        for m in range(M):
            mass = cum_mass[(m + 1) * stride] - cum_mass[m * stride]
            moment = cum_moment[(m + 1) * stride] - cum_moment[m * stride]
            assert table.class_demand[m] == pytest.approx(800.0 * mass, abs=1e-6 * 800)
            assert table.class_mean[m] == pytest.approx(moment / mass, abs=1e-5)

    def test_zero_mass_class_uses_midpoint(self):
        d = VotDistribution.piecewise_linear([0.0, 1.0, 2.0, 3.0], [0.0, 0.0, 1.0, 1.0])
        table = discretize(d, 9.0, 3)
        assert table.class_demand[0] == pytest.approx(0.0, abs=1e-12)
        assert table.class_mean[0] == pytest.approx(0.5)
        assert np.all(np.diff(table.class_mean) >= 0)

    def test_bad_args(self, demo_vot):
        dist, _ = demo_vot
        with pytest.raises(VotError):
            discretize(dist, 10.0, 0)
        with pytest.raises(VotError):
            discretize(dist, -1.0, 4)
        for demand in (np.nan, np.inf):
            with pytest.raises(VotError, match="finite"):
                discretize(dist, demand, 4)
        with pytest.raises(VotError, match="M must be"):
            discretize(dist, 10.0, MAX_CLASS_COUNT + 1)

    @given(
        drawn=st.one_of(
            dist_strategy().map(lambda d: (d, None)),
            # samples on a 1/100 grid of the support: ties and both ends
            st.tuples(
                st.floats(0.0, 20.0),
                st.floats(5.0, 40.0),
                st.lists(st.integers(0, 100), min_size=1, max_size=40),
            ).map(_grid_samples),
        ),
        M=st.integers(1, 40),
    )
    def test_mass_weighted_means_reconstruct_mean(self, drawn, M):
        # the empirical mean is the drawn samples', not the distribution's
        dist, samples = drawn
        table = discretize(dist, 1000.0, M)
        mean = loop_mean(dist) if samples is None else float(np.mean(samples))
        recon = float(table.class_demand @ table.class_mean) / 1000.0
        assert recon == pytest.approx(mean, abs=1e-6 * max(mean, 1e-9))
        single = discretize(dist, 1000.0, 1).class_mean[0]
        assert single == pytest.approx(mean, abs=1e-6 * max(mean, 1e-9))

    @given(dist=dist_strategy(), M=st.integers(1, 30))
    def test_refinement_stability(self, dist, M):
        t1 = discretize(dist, 500.0, M)
        t2 = discretize(dist, 500.0, 2 * M)
        assert t1.class_demand.sum() == pytest.approx(
            t2.class_demand.sum(), abs=1e-9 * 500.0
        )
        w1 = float(t1.class_demand @ t1.class_mean)
        w2 = float(t2.class_demand @ t2.class_mean)
        assert abs(w1 - w2) <= 1e-6 * 500.0 * max(loop_mean(dist), 1e-9)


class TestEmpirical:
    def test_class_counts_and_means(self):
        samples = [1.0, 1.0, 3.0, 5.0, 9.0]
        d = VotDistribution.empirical(samples, support=(0.0, 10.0))
        table = discretize(d, 10.0, 2)
        assert table.class_demand == pytest.approx([6.0, 4.0])
        assert table.class_mean[0] == pytest.approx(np.mean([1.0, 1.0, 3.0]))
        assert table.class_mean[1] == pytest.approx(np.mean([5.0, 9.0]))

    def test_sample_on_boundary_starts_its_class(self):
        # each sample sits on the lower boundary of its own class
        d = VotDistribution.empirical([0.3, 0.4, 0.5], support=(0.0, 1.0))
        table = discretize(d, 3.0, 10)
        assert np.flatnonzero(table.class_demand).tolist() == [3, 4, 5]
        assert table.class_demand[[3, 4, 5]] == pytest.approx([1.0, 1.0, 1.0])
        assert table.class_mean[[3, 4, 5]].tolist() == [0.3, 0.4, 0.5]

    def test_cdf_monotone_continuous(self):
        d = VotDistribution.empirical([2.0, 2.0, 4.0, 8.0], support=(0.0, 10.0))
        grid = np.linspace(0.0, 10.0, 1001)
        vals = cdf(d, grid)
        assert np.all(np.diff(vals) >= -1e-15)
        assert vals[0] == 0.0 and vals[-1] == 1.0
        # no jumps: continuity on a fine grid
        assert np.max(np.abs(np.diff(vals))) < 0.05

    def test_inverse_round_trip(self):
        d = VotDistribution.empirical([1.0, 2.0, 3.0, 4.0], support=(0.0, 5.0))
        for u in (0.1, 0.4, 0.75, 0.99):
            assert cdf(d, d.inverse_cdf(u)) == pytest.approx(u, abs=1e-12)

    def test_atom_at_support_minimum(self):
        # two of three samples sit on the support minimum: masses up to 2/3
        # have no smallest quantile and map to the minimum, not below it
        d = VotDistribution.empirical([0.0, 0.0, 1.0], support=(0.0, 1.0))
        assert d.inverse_cdf([0.5, 2 / 3]).tolist() == [0.0, 0.0]
        # the cdf counts the atom only above the minimum
        assert cdf(d, 0.0) == 0.0
        assert cdf(d, 1e-9) == pytest.approx(2 / 3, abs=1e-9)
        assert d.inverse_cdf(5 / 6) == pytest.approx(0.5, abs=1e-12)
        all_at_minimum = VotDistribution.empirical([0.0], support=(0.0, 1.0))
        assert all_at_minimum.inverse_cdf(0.5) == 0.0

    def test_density_overflow_rejected(self):
        with pytest.raises(VotError, match="too close together"):
            VotDistribution.empirical([0.0, 5e-324, 1.0], support=(0.0, 1.0))


class TestParse:
    def test_parse_fixture(self, demo_vot):
        dist, M = demo_vot
        assert dist.kind == "piecewise_linear"
        assert dist.support == (5.0, 45.0)
        assert M == 100

    def test_parse_uniform_and_triangular(self):
        d, M = parse_vot(
            '{"kind": "uniform", "support": [1.0, 9.0], "params": {}, "M": 10}'
        )
        assert d.kind == "uniform" and M == 10
        d, M = parse_vot(
            '{"kind": "triangular", "support": [0.0, 10.0],'
            ' "params": {"mode": 2.5}}'
        )
        assert d.kind == "triangular" and M == 100

    def test_parse_empirical(self):
        d, _ = parse_vot(
            '{"kind": "empirical", "support": [0.0, 4.0],'
            ' "params": {"samples": [1.0, 2.0, 3.0]}}'
        )
        assert d.kind == "empirical"

    def test_parse_errors(self):
        with pytest.raises(VotError):
            parse_vot("not json")
        with pytest.raises(VotError):
            parse_vot('{"kind": "cauchy", "support": [0, 1], "params": {}}')
        with pytest.raises(VotError):
            parse_vot('{"kind": "triangular", "support": [0, 1], "params": {}}')
        with pytest.raises(VotError):
            parse_vot('{"kind": "uniform", "support": [3.0, 1.0], "params": {}}')
        with pytest.raises(VotError):
            parse_vot(
                '{"kind": "uniform", "support": [0.0, 1.0], "params": {}, "M": 0}'
            )
        with pytest.raises(VotError, match="M must be an integer in"):
            parse_vot(
                '{"kind": "uniform", "support": [0.0, 1.0], "params": {}, "M": 10001}'
            )

    def test_bad_distributions(self):
        with pytest.raises(VotError):
            VotDistribution.uniform(5.0, 5.0)
        with pytest.raises(VotError):
            VotDistribution.triangular(0.0, 2.0, 1.0)
        with pytest.raises(VotError):
            VotDistribution.piecewise_linear([0.0, 1.0], [0.0, 0.0])
        with pytest.raises(VotError):
            VotDistribution.piecewise_linear([0.0, 1.0], [1.0, -0.5])
        with pytest.raises(VotError):
            VotDistribution.empirical([], support=(0.0, 1.0))
        with pytest.raises(VotError):
            VotDistribution.empirical([5.0], support=(0.0, 1.0))
        # non-finite values given to the constructors, which the parser
        # rejects before them
        with pytest.raises(VotError, match="samples must be finite"):
            VotDistribution.empirical([0.5, np.nan], support=(0.0, 1.0))
        with pytest.raises(VotError, match="knots and densities must be finite"):
            VotDistribution.piecewise_linear([0.0, np.inf], [1.0, 1.0])
        with pytest.raises(VotError, match="knots and densities must be finite"):
            VotDistribution.piecewise_linear([0.0, 1.0], [1.0, np.nan])
        with pytest.raises(VotError, match="support bounds must be finite"):
            VotDistribution.uniform(0.0, np.inf)

    @pytest.mark.parametrize(
        "knots, message",
        [([-5.0, 5.0], r"support must satisfy 0 <= lo < hi"),
         ([0.0, 1e200], r"support must be within \[0, 1e\+100\] \$/h")],
    )
    def test_piecewise_linear_support_checked(self, knots, message):
        # unchecked, knots [-5, 5] gave negative partition points and
        # payments, and [0, 1e200] overflowed into an infeasible
        # subscriber LP
        with pytest.raises(VotError, match=message):
            VotDistribution.piecewise_linear(knots, [1.0, 1.0])
