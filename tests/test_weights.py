"""Weight families, product moments, and moment tables."""

import json
import math

import numpy as np
import pytest

from mixedmop import Weight, WeightFamily, weights_from_json
from mixedmop.weights import (AccuracyError, adaptive_gauss_legendre,
                              basis_center_scale, build_moment_table,
                              family_interval, gaussian_pair_moments,
                              gaussian_product_params, gaussian_transition,
                              product_moment, product_moment_quadrature,
                              transition_weight, weights_to_json_dict)

from conftest import csv_oracle_bytes, quad_product_moment

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

    def test_tabulated_requires_declared_support(self):
        w = Weight.tabulated(lambda x: np.exp(-np.abs(x) ** 3), (-4.0, 4.0))
        assert w.interval() == (-4.0, 4.0)
        assert w(0.0) == 1.0

    def test_family_stacks_values(self):
        fam = WeightFamily([Weight.gaussian(0.0, 1.0, 1.0),
                            Weight.gaussian(1.0, 1.0, 2.0)])
        vals = fam.values(np.array([0.0, 1.0]))
        assert vals.shape == (2, 2)
        assert vals[0, 0] == 1.0 and vals[1, 1] == 2.0

    def test_family_rejects_empty(self):
        with pytest.raises(ValueError):
            WeightFamily([])


class TestTransition:
    def test_transition_at_origin(self):
        # value 1/sqrt(pi) at t=0.5, a=x=0, unscaled
        assert gaussian_transition(0.5, 0.0, 0.0, 1) == pytest.approx(
            1.0 / SQRT_PI, rel=1e-15)

    def test_transition_scaled_peak(self):
        # n=4 at the center quadruples the exponent and doubles the peak
        assert gaussian_transition(0.5, 1.0, 1.0, 4) == pytest.approx(
            2.0 / SQRT_PI, rel=1e-15)

    def test_transition_integrates_to_one(self):
        from scipy.integrate import quad
        val, _ = quad(lambda x: gaussian_transition(0.3, 0.7, x, 2),
                      -10.0, 10.0)
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_transition_rejects_bad_time(self):
        for t in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                transition_weight(t, 0.0, 1)

    def test_transition_weight_matches_function(self):
        w = transition_weight(0.25, -1.0, 3)
        xs = np.linspace(-2, 0, 7)
        np.testing.assert_allclose(w(xs), gaussian_transition(0.25, -1.0, xs, 3),
                                   rtol=1e-14)


class TestProductMoments:
    def test_frozen_gaussian_moments(self, unit_gaussian):
        # product e^{-x^2}: k=0 -> sqrt(pi), k=1 -> 0, k=2 -> sqrt(pi)/2
        assert product_moment(unit_gaussian, unit_gaussian, 0).value == \
            pytest.approx(SQRT_PI, rel=1e-15)
        assert product_moment(unit_gaussian, unit_gaussian, 1).value == 0.0
        assert product_moment(unit_gaussian, unit_gaussian, 2).value == \
            pytest.approx(SQRT_PI / 2.0, rel=1e-15)

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
            for k in (0, 1, 3, 6):
                got = product_moment(w1, w2, k)
                expect = quad_product_moment(w1, w2, k)
                assert got.value == pytest.approx(expect, abs=2e-12 + 1e-11 * abs(expect))
                assert abs(got.value - expect) <= max(got.error_bound, 5e-13)

    def test_closed_form_matches_internal_quadrature(self):
        w1 = Weight.gaussian(-0.4, 0.8, 1.0)
        w2 = Weight.gaussian(0.9, 1.1, 0.7)
        for k in range(8):
            a = product_moment(w1, w2, k).value
            b = product_moment_quadrature(w1, w2, k).value
            assert a == pytest.approx(b, abs=1e-12 + 1e-11 * abs(b))

    def test_product_params_reproduce_pointwise_product(self):
        w1 = Weight.gaussian(-1.0, 0.5, 2.0)
        w2 = Weight.gaussian(2.0, 1.5, 0.5)
        mean, var, amp = gaussian_product_params(w1, w2)
        xs = np.linspace(-3, 4, 11)
        np.testing.assert_allclose(
            w1(xs) * w2(xs), amp * np.exp(-((xs - mean) ** 2) / (2 * var)),
            rtol=1e-13, atol=1e-300)

    def test_tabulated_pair_uses_quadrature(self):
        w1 = Weight.tabulated(lambda x: np.where(np.abs(x) <= 3.0,
                                                 np.exp(-x ** 2), 0.0),
                              (-3.0, 3.0))
        w2 = Weight.gaussian(0.0, 0.5, 1.0)
        got = product_moment(w1, w2, 2).value
        expect = quad_product_moment(w1, w2, 2)
        assert got == pytest.approx(expect, rel=1e-9)


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
        assert info.value.achieved is not None
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
                assert table.entry(j, 0, k) == pytest.approx(
                    expect, abs=3e-12 + 1e-10 * abs(expect))

    def test_swapped_table_transposes_families(self):
        w1 = WeightFamily([Weight.gaussian(-1.0, 1.0, 1.0)])
        w2 = WeightFamily([Weight.gaussian(0.5, 0.8, 1.0),
                           Weight.gaussian(1.5, 1.1, 0.9)])
        table = build_moment_table(w1, w2, 4)
        sw = table.swapped()
        for l in range(2):
            for k in range(5):
                assert sw.entry(l, 0, k) == table.entry(0, l, k)
        assert sw.center == table.center and sw.scale == table.scale

    def test_table_csv_round_trip_precision(self, tmp_path):
        w = WeightFamily([Weight.gaussian(0.0, 1.0, 1.0)])
        table = build_moment_table(w, w, 3)
        path = tmp_path / "table.csv"
        table.to_csv(str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "j,l,k,value,error_bound"
        first = lines[1].split(",")
        assert float(first[3]) == table.entry(0, 0, 0)

    def test_table_csv_bytes_match_oracle(self, tmp_path):
        w1 = WeightFamily([Weight.gaussian(-0.5, 0.8, 1.0),
                           Weight.gaussian(0.6, 1.2, 1.0)])
        w2 = WeightFamily([Weight.gaussian(0.3, 0.6, 1.0)])
        for table in (build_moment_table(w1, w2, 5),
                      build_moment_table(w1, w2, 5).swapped()):
            path = tmp_path / "table.csv"
            table.to_csv(str(path))
            rows = [(j, l, k, table.values[j, l, k], table.accuracy[j, l, k])
                    for j in range(len(table.w1)) for l in range(len(table.w2))
                    for k in range(table.kmax + 1)]
            assert path.read_bytes() == csv_oracle_bytes(
                ("j", "l", "k", "value", "error_bound"), rows)

    def test_rank_override_center_scale(self):
        w = WeightFamily([Weight.gaussian(0.0, 1.0, 1.0)])
        t1 = build_moment_table(w, w, 4, center=0.0, scale=2.0)
        t2 = build_moment_table(w, w, 4)
        assert t1.scale == 2.0
        assert t1.entry(0, 0, 2) == pytest.approx(t2.entry(0, 0, 2) / 4.0,
                                                  rel=1e-12)


class TestJsonConfig:
    def test_round_trip(self):
        w1 = WeightFamily([Weight.gaussian(-1.0, 0.5, 1.0)])
        w2 = WeightFamily([Weight.gaussian(1.0, 1.5, 0.7),
                           Weight.gaussian(2.0, 1.0, 1.0)])
        blob = json.dumps(weights_to_json_dict(w1, w2))
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
