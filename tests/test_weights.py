"""Weight families, product moments, and moment tables."""

import json
import math

import mpmath
import numpy as np
import pytest

from mixedmop import (BrownianConfig, MultiIndexPair, Weight, WeightFamily,
                      config_to_weights, moment_table_for, weights_from_json)
from mixedmop.weights import (AccuracyError, adaptive_gauss_legendre,
                              basis_center_scale, build_moment_table,
                              family_interval, gaussian_pair_moments,
                              gaussian_pair_tail_moments,
                              gaussian_product_params, transition_weight)

from conftest import quad_product_moment

SQRT_PI = math.sqrt(math.pi)


class TestWeightBasics:
    def test_gaussian_evaluates_shifted_exponential(self):
        w = Weight.gaussian(1.0, 2.0, 3.0)
        xs = np.array([-1.0, 1.0, 2.5])
        expect = 3.0 * np.exp(-((xs - 1.0) ** 2) / 4.0)
        np.testing.assert_allclose(w(xs), expect, rtol=1e-15)

    def test_interval_covers_twelve_spreads(self):
        w = Weight.gaussian(2.0, 4.0, 1.0)
        lo, hi = w.interval()
        assert lo == 2.0 - 12.0 * 2.0 and hi == 2.0 + 12.0 * 2.0

    def test_rejects_nonpositive_variance(self):
        with pytest.raises(ValueError):
            Weight.gaussian(0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            Weight.gaussian(0.0, -1.0, 1.0)

    def test_rejects_nonpositive_amplitude(self):
        with pytest.raises(ValueError):
            Weight.gaussian(0.0, 1.0, 0.0)

    def test_family_stacks_values(self):
        fam = WeightFamily([Weight.gaussian(0.0, 1.0, 1.0),
                            Weight.gaussian(1.0, 1.0, 2.0)])
        vals = fam.values(np.array([0.0, 1.0]))
        assert vals.shape == (2, 2)
        assert vals[0, 0] == 1.0 and vals[1, 1] == 2.0

    def test_family_rejects_empty(self):
        with pytest.raises(ValueError):
            WeightFamily([])

    @pytest.mark.parametrize("build", [
        lambda: Weight.gaussian(True, 1.0),
        lambda: Weight.gaussian(0.0, "1.0"),
        lambda: Weight.gaussian(0.0, 1.0, None),
        lambda: transition_weight(0.5, 0.0, 2.5),
        lambda: transition_weight(0.5, 0.0, True),
        lambda: transition_weight(0.5, 0.0, 0),
        lambda: transition_weight("0.5", 0.0, 1),
        lambda: transition_weight(0.5, False, 1),
    ], ids=["bool-center", "str-variance", "none-amplitude", "float-scale",
            "bool-scale", "zero-scale", "str-time", "bool-start"])
    def test_constructors_refuse_coerced_values(self, build):
        with pytest.raises(ValueError):
            build()


def plain_moments(w1: Weight, w2: Weight, kmax: int):
    """The table row of integral x^k w1 w2 dx, k = 0..kmax (unshifted,
    unscaled basis)."""
    table = build_moment_table(WeightFamily([w1]), WeightFamily([w2]), kmax,
                               center=0.0, scale=1.0)
    return table.values[0, 0]


class TestTransition:
    def test_transition_at_origin(self):
        # value 1/sqrt(pi) at t=0.5, a=x=0, unscaled
        assert transition_weight(0.5, 0.0, 1)(0.0) == pytest.approx(
            1.0 / SQRT_PI, rel=1e-15)

    def test_transition_scaled_peak(self):
        # n=4 at the center quadruples the exponent and doubles the peak
        assert transition_weight(0.5, 1.0, 4)(1.0) == pytest.approx(
            2.0 / SQRT_PI, rel=1e-15)

    def test_transition_integrates_to_one(self):
        from scipy.integrate import quad
        w = transition_weight(0.3, 0.7, 2)
        val, _ = quad(lambda x: float(w(x)), -10.0, 10.0)
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_transition_rejects_bad_time(self):
        for t in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                transition_weight(t, 0.0, 1)

    def test_transition_weight_matches_function(self):
        # sqrt(n / (2 pi t)) exp(-n (x - a)^2 / (2 t)) at t = 0.25, a = -1, n = 3
        w = transition_weight(0.25, -1.0, 3)
        xs = np.linspace(-2, 0, 7)
        expect = math.sqrt(3 / (2 * math.pi * 0.25)) * np.exp(
            -3 * (xs + 1.0) ** 2 / 0.5)
        np.testing.assert_allclose(w(xs), expect, rtol=1e-14)


class TestProductMoments:
    def test_frozen_gaussian_moments(self, unit_gaussian):
        # product e^{-x^2}: k=0 -> sqrt(pi), k=1 -> 0, k=2 -> sqrt(pi)/2
        vals = plain_moments(unit_gaussian, unit_gaussian, 2)
        assert vals[0] == pytest.approx(SQRT_PI, rel=1e-15)
        assert vals[1] == 0.0
        assert vals[2] == pytest.approx(SQRT_PI / 2.0, rel=1e-15)

    def test_odd_moments_exactly_zero_for_shared_center(self):
        w1 = Weight.gaussian(0.7, 0.9, 1.1)
        w2 = Weight.gaussian(0.7, 1.4, 0.8)
        vals = gaussian_pair_moments(w1, w2, 9, center=0.7, scale=1.0)
        assert all(vals[k] == 0.0 for k in range(1, 10, 2))

    def test_closed_form_matches_quadrature_oracle(self):
        rng = np.random.default_rng(20240817)
        for _ in range(12):
            w1 = Weight.gaussian(rng.uniform(-2, 2), rng.uniform(0.4, 2.0),
                                 rng.uniform(0.5, 1.5))
            w2 = Weight.gaussian(rng.uniform(-2, 2), rng.uniform(0.4, 2.0),
                                 rng.uniform(0.5, 1.5))
            vals = plain_moments(w1, w2, 6)
            for k in (0, 1, 3, 6):
                expect = quad_product_moment(w1, w2, k)
                assert vals[k] == pytest.approx(expect, abs=2e-12 + 1e-11 * abs(expect))

    def test_closed_form_matches_internal_quadrature(self):
        # the same pair through the library's adaptive Gauss-Legendre rule
        # on the overlap of the two weights' intervals
        w1 = Weight.gaussian(-0.4, 0.8, 1.0)
        w2 = Weight.gaussian(0.9, 1.1, 0.7)
        closed = plain_moments(w1, w2, 7)
        lo = max(w1.interval()[0], w2.interval()[0])
        hi = min(w1.interval()[1], w2.interval()[1])
        quadrature, _ = adaptive_gauss_legendre(
            lambda x: np.vander(x, 8, increasing=True).T * (w1(x) * w2(x)),
            lo, hi)
        np.testing.assert_allclose(closed, quadrature, rtol=1e-11, atol=1e-12)

    def test_tail_moments_match_quadrature_oracle(self):
        from scipy.integrate import quad

        rng = np.random.default_rng(37)
        for _ in range(8):
            w1 = Weight.gaussian(rng.uniform(-2, 2), rng.uniform(0.2, 2.0),
                                 rng.uniform(0.5, 1.5))
            w2 = Weight.gaussian(rng.uniform(-2, 2), rng.uniform(0.2, 2.0),
                                 rng.uniform(0.5, 1.5))
            c, s = rng.uniform(-1, 1), rng.uniform(0.5, 2.0)
            lo, hi = np.sort(rng.uniform(-2.5, 2.5, 2))
            tails = gaussian_pair_tail_moments(w1, w2, 6, lo, hi, c, s)
            for k in range(7):
                def f(x):
                    return ((x - c) / s) ** k * w1(x) * w2(x)
                want = (quad(f, -np.inf, lo, epsabs=1e-15, epsrel=1e-13)[0]
                        + quad(f, hi, np.inf, epsabs=1e-15, epsrel=1e-13)[0])
                assert tails[k] == pytest.approx(want, rel=1e-12, abs=1e-15)

    def test_tails_of_an_empty_box_are_the_moments(self):
        w1 = Weight.gaussian(-0.4, 0.8, 1.0)
        w2 = Weight.gaussian(0.9, 1.1, 0.7)
        for end in (-3.0, 0.2, 4.0):
            np.testing.assert_allclose(
                gaussian_pair_tail_moments(w1, w2, 7, end, end, 0.3, 1.4),
                gaussian_pair_moments(w1, w2, 7, 0.3, 1.4),
                rtol=1e-13, atol=1e-15)
        # and a box far wider than the product has none
        assert not gaussian_pair_tail_moments(w1, w2, 7, -60.0, 60.0).any()

    def test_product_params_reproduce_pointwise_product(self):
        w1 = Weight.gaussian(-1.0, 0.5, 2.0)
        w2 = Weight.gaussian(2.0, 1.5, 0.5)
        mean, var, amp = gaussian_product_params(w1, w2)
        xs = np.linspace(-3, 4, 11)
        np.testing.assert_allclose(
            w1(xs) * w2(xs), amp * np.exp(-((xs - mean) ** 2) / (2 * var)),
            rtol=1e-13, atol=1e-300)


G = Weight.gaussian


def _table_problem(w1, w2, n, m):
    pair = MultiIndexPair.balanced(n, m)
    return moment_table_for(pair, w1, w2)


def _two_start_table(k):
    w1, w2, pair = config_to_weights(BrownianConfig(
        starts=((-1.0, k), (1.0, k)), ends=((0.0, 2 * k),), time=0.5))
    return moment_table_for(pair, w1, w2)


def _wp_table(shift=0.0):
    return _table_problem(WeightFamily([G(shift - 0.5, 0.8), G(shift + 0.6, 1.2)]),
                          WeightFamily([G(shift, 1.0), G(shift + 0.3, 0.6)]),
                          [3, 2], [2, 3])


# The tables the CLI builds for wp, wp with every center shifted by 1e3 and
# by 1e6, p3, two-start 6 + 6, and a Hermite N(0, 1) x N(0, 1) table of
# orders up to 44.
ENCLOSED_TABLES = {
    "wp": _wp_table,
    "wp_shift_1e3": lambda: _wp_table(1e3),
    "wp_shift_1e6": lambda: _wp_table(1e6),
    "p3": lambda: _table_problem(
        WeightFamily([G(-0.8, 0.7), G(0.1, 1.1), G(0.9, 0.9)]),
        WeightFamily([G(-0.4, 1.0), G(0.3, 0.6), G(0.7, 1.3)]),
        [2, 2, 2], [2, 2, 2]),
    "hermite": lambda: build_moment_table(WeightFamily([G(0.0, 1.0)]),
                                          WeightFamily([G(0.0, 1.0)]), 44),
    "two_start_6": lambda: _two_start_table(6),
}


@pytest.mark.parametrize("name", list(ENCLOSED_TABLES))
def test_double_table_within_its_interval_enclosure(name):
    """A proof of the double table's rounding, not of its formula.

    gaussian_pair_moments runs again in mpmath.iv at 60 digits on the same
    weights, basis center and scale: every enclosure holds the exact value
    of the recursion that the double table rounds, since mpmath rounds its
    interval operations, exp, sqrt and pi outward.  The same code runs on
    both sides, so a wrong formula would pass; the quadrature comparisons
    of TestProductMoments check the formula.  The double entries lie
    within 32 units of 2^-53 of the enclosure's midpoint, relative to it
    (measured at most 8.7, 11.4, 5.8, 8.4, 1.6 and 9.5 in table order; a
    product mean formed in absolute coordinates reads 8,607 and 1.06e7
    units on the shifted tables), and are exactly 0 where the enclosure is
    [0, 0].
    """
    table = ENCLOSED_TABLES[name]()
    iv = mpmath.iv
    prec = iv.prec
    iv.dps = 60
    try:
        enclosures = [[gaussian_pair_moments(a, b, table.kmax, table.center,
                                             table.scale, iv)
                       for b in table.w2] for a in table.w1]
        for j, l, k in np.ndindex(table.values.shape):
            e, d = enclosures[j][l][k], table.values[j, l, k]
            if e.a == 0 and e.b == 0:
                assert d == 0.0, (j, l, k)
                continue
            mid = abs(e.mid)
            assert (e.delta / mid).b < 1e-50, (j, l, k)
            assert (abs(iv.mpf(d) - e.mid) / mid).b <= 32 * 2.0 ** -53, (j, l, k)
    finally:
        iv.prec = prec


class TestAdaptiveQuadrature:
    def test_polynomial_is_exact(self):
        val, err = adaptive_gauss_legendre(lambda x: x ** 6 - x + 2.0,
                                           -1.0, 2.0)
        expect = (2.0 ** 7 + 1.0) / 7.0 - (4.0 - 1.0) / 2.0 + 2.0 * 3.0
        assert val == pytest.approx(expect, rel=1e-14)
        assert err < 1e-10

    def test_reports_failure_with_achieved_bound(self):
        # a needle the capped rule cannot resolve
        def needle(x):
            return 1.0 / (1e-12 + (x - 0.123456) ** 2)
        with pytest.raises(AccuracyError) as info:
            adaptive_gauss_legendre(needle, -1.0, 1.0, abs_tol=1e-12,
                                    rel_tol=1e-12)
        assert info.value.achieved > 1e-12
        assert info.value.value is not None

    def test_vector_integrand(self):
        val, _ = adaptive_gauss_legendre(
            lambda x: np.stack([np.ones_like(x), x, x ** 2]), 0.0, 1.0)
        np.testing.assert_allclose(val, [1.0, 0.5, 1.0 / 3.0], rtol=1e-12)


class TestBasisAndTable:
    def test_center_is_mean_of_centers(self):
        fam1 = WeightFamily([Weight.gaussian(-1.0, 1.0, 1.0)])
        fam2 = WeightFamily([Weight.gaussian(3.0, 1.0, 1.0)])
        c, s = basis_center_scale(fam1, fam2)
        assert c == pytest.approx(1.0)
        assert s >= 2.0  # covers half the center range plus a spread

    def test_scale_tracks_narrow_families(self):
        # a narrow family gets its own spread, keeping scaled moments O(1)
        fam = WeightFamily([Weight.gaussian(0.0, 1e-4, 1.0)])
        _, s = basis_center_scale(fam, fam)
        assert s == pytest.approx(1e-2, rel=1e-12)

    def test_table_entries_match_oracle(self):
        w1 = WeightFamily([Weight.gaussian(-0.5, 0.7, 1.0),
                           Weight.gaussian(1.0, 1.2, 0.6)])
        w2 = WeightFamily([Weight.gaussian(0.2, 0.9, 1.1)])
        table = build_moment_table(w1, w2, 5)
        c, s = table.center, table.scale
        for j in range(2):
            for k in range(6):
                # oracle computes the same shifted-scaled moment directly
                wj, wl = w1[j], w2[0]
                from scipy.integrate import quad
                lo, hi = family_interval(w1, w2)
                expect, _ = quad(lambda x: ((x - c) / s) ** k * wj(x) * wl(x),
                                 lo, hi, limit=300, epsabs=1e-13)
                assert table.values[j, 0, k] == pytest.approx(
                    expect, abs=3e-12 + 1e-10 * abs(expect))

    def test_swapped_table_transposes_families(self):
        w1 = WeightFamily([Weight.gaussian(-1.0, 1.0, 1.0)])
        w2 = WeightFamily([Weight.gaussian(0.5, 0.8, 1.0),
                           Weight.gaussian(1.5, 1.1, 0.9)])
        table = build_moment_table(w1, w2, 4)
        sw = table.swapped()
        for l in range(2):
            for k in range(5):
                assert sw.values[l, 0, k] == table.values[0, l, k]
        assert sw.center == table.center and sw.scale == table.scale

    def test_rank_override_center_scale(self):
        w = WeightFamily([Weight.gaussian(0.0, 1.0, 1.0)])
        t1 = build_moment_table(w, w, 4, center=0.0, scale=2.0)
        t2 = build_moment_table(w, w, 4)
        assert t1.scale == 2.0
        assert t1.values[0, 0, 2] == pytest.approx(t2.values[0, 0, 2] / 4.0,
                                                   rel=1e-12)


class TestJsonConfig:
    def test_round_trip(self):
        w1 = WeightFamily([Weight.gaussian(-1.0, 0.5, 1.0)])
        w2 = WeightFamily([Weight.gaussian(1.0, 1.5, 0.7),
                           Weight.gaussian(2.0, 1.0, 1.0)])
        blob = json.dumps({
            key: [{"kind": "gaussian", "center": w.center,
                   "variance": w.variance, "amplitude": w.amplitude}
                  for w in fam] for key, fam in (("w1", w1), ("w2", w2))})
        r1, r2 = weights_from_json(json.loads(blob))
        assert len(r1) == 1 and len(r2) == 2
        assert r2[1].center == 2.0

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            weights_from_json({"w1": [{"kind": "cauchy", "center": 0.0}],
                               "w2": []})

    def test_rejects_missing_families(self):
        with pytest.raises((KeyError, ValueError)):
            weights_from_json({"w1": []})
