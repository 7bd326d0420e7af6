"""Projection kernel: biorthogonal route, CD route, and their agreement."""

import math

import numpy as np
import pytest

from mixedmop import (BiorthogonalSystem, BrownianConfig, DegeneratePair,
                      MultiIndexPair, NotNormalizable, Weight, WeightFamily,
                      build_biorthogonal, build_cd_data, build_moment_table,
                      check_normality, config_to_weights, kernel_cd_band,
                      kernel_cd_diagonal, kernel_cd_grid, kernel_direct_grid,
                      kernel_rh_grid, kernel_routes_report, transition_weight)
from mixedmop.kernel import (idempotence_residual, relative_discrepancy,
                             trace_quadrature)
from mixedmop.weights import _leggauss

from conftest import assert_band_matches_oracle, band_grids, \
    cd_diagonal_oracle, cd_grid_oracle, cd_terms, form_derivative_oracle, \
    form_oracle, kernel_at, monic_orthogonal_oracle, random_balanced_parts, \
    random_gaussian_families, richardson_extrapolate

SQRT_PI = math.sqrt(math.pi)


def rank_one_system(unit_gaussian):
    fam = WeightFamily([unit_gaussian])
    pair = MultiIndexPair.balanced([1], [1])
    return build_biorthogonal(pair, fam, fam)


class TestBiorthogonal:
    def test_frozen_gram_and_inverse(self, unit_gaussian):
        sys = rank_one_system(unit_gaussian)
        np.testing.assert_allclose(sys.gram, [[SQRT_PI]], rtol=1e-12)
        np.testing.assert_allclose(sys.transform, [[1.0 / SQRT_PI]],
                                   rtol=1e-12)

    def test_inverse_identity_random_configs(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            p, q = rng.integers(1, 4, size=2)
            total = int(rng.integers(max(p, q), 9))
            n = random_balanced_parts(rng, p, total)
            m = random_balanced_parts(rng, q, total)
            w1, w2 = random_gaussian_families(rng, p, q)
            sys = build_biorthogonal(MultiIndexPair.balanced(n, m), w1, w2)
            eye = sys.transform @ sys.gram
            assert np.max(np.abs(eye - np.eye(total))) < 1e-12

    def test_duplicated_weights_degenerate(self, unit_gaussian):
        fam = WeightFamily([unit_gaussian, unit_gaussian])
        pair = MultiIndexPair.balanced([1, 1], [2])
        w2 = WeightFamily([Weight.gaussian(0.0, 1.0, 1.0)])
        with pytest.raises(DegeneratePair) as info:
            build_biorthogonal(pair, fam, w2)
        assert info.value.report is not None
        # one exception family: a handler of NotNormalizable catches it
        assert isinstance(info.value, NotNormalizable)

    @pytest.mark.parametrize("build", [
        build_biorthogonal,
        lambda pair, w1, w2, table: check_normality(pair, table)],
        ids=["build_biorthogonal", "check_normality"])
    def test_short_table_is_refused(self, build):
        # a caller's table that stops short of the orders the Gram matrix
        # or the rank tests need is refused, not silently extended
        rng = np.random.default_rng(9)
        w1, w2 = random_gaussian_families(rng, 2, 2)
        pair = MultiIndexPair.balanced([2, 1], [1, 2])
        with pytest.raises(ValueError, match="kmax=1 too small, need 2"):
            build(pair, w1, w2, build_moment_table(w1, w2, 1))

    def test_dimension_and_layouts(self):
        rng = np.random.default_rng(9)
        w1, w2 = random_gaussian_families(rng, 2, 2)
        pair = MultiIndexPair.balanced([2, 1], [1, 2])
        sys = build_biorthogonal(pair, w1, w2)
        assert sys.dimension == 3
        assert len(sys.f_layout) == len(sys.g_layout) == 3

    @pytest.mark.parametrize("build", [
        build_biorthogonal, build_cd_data,
        lambda pair, w1, w2: check_normality(
            pair, build_moment_table(w1, w2, 8))],
        ids=["build_biorthogonal", "build_cd_data", "check_normality"])
    def test_part_count_must_match_family(self, build):
        # n = [2] on two w1 weights would drop the second weight
        w1, w2 = random_gaussian_families(np.random.default_rng(13), 2, 1)
        with pytest.raises(ValueError, match="families have 2 and 1 weight"):
            build(MultiIndexPair.balanced([2], [2]), w1, w2)


class TestKernelDirect:
    def test_rank_one_closed_form(self, unit_gaussian):
        sys = rank_one_system(unit_gaussian)
        for x, y in ((0.0, 0.0), (0.7, -0.3), (1.5, 1.5)):
            expect = math.exp(-0.5 * x * x) * math.exp(-0.5 * y * y) / SQRT_PI
            assert kernel_at(kernel_direct_grid, sys, x, y) == pytest.approx(
                expect, rel=1e-12)

    def test_value_at_origin(self, unit_gaussian):
        sys = rank_one_system(unit_gaussian)
        assert kernel_at(kernel_direct_grid, sys, 0.0, 0.0) == pytest.approx(
            1.0 / SQRT_PI, rel=1e-12)

    def test_grid_matches_pointwise(self, unit_gaussian):
        rng = np.random.default_rng(17)
        w1, w2 = random_gaussian_families(rng, 1, 2)
        pair = MultiIndexPair.balanced([3], [2, 1])
        sys = build_biorthogonal(pair, w1, w2)
        xs = np.linspace(-1.5, 1.5, 5)
        ys = np.linspace(-1.0, 2.0, 4)
        K = kernel_direct_grid(sys, xs, ys)
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                assert K[i, j] == pytest.approx(
                    kernel_at(kernel_direct_grid, sys, x, y), rel=1e-13,
                    abs=1e-15)

    def test_trace_equals_dimension(self):
        rng = np.random.default_rng(19)
        for p, q, total in ((1, 1, 3), (2, 2, 5)):
            n = random_balanced_parts(rng, p, total)
            m = random_balanced_parts(rng, q, total)
            w1, w2 = random_gaussian_families(rng, p, q)
            sys = build_biorthogonal(MultiIndexPair.balanced(n, m), w1, w2)
            trace, err = trace_quadrature(sys)
            assert abs(trace - total) < max(1e-8, 10.0 * err)

    def test_reproducing_property(self):
        rng = np.random.default_rng(21)
        w1, w2 = random_gaussian_families(rng, 2, 1)
        sys = build_biorthogonal(MultiIndexPair.balanced([2, 1], [3]), w1, w2)
        xs = np.linspace(-1.0, 1.0, 4)
        resid, quad_est = idempotence_residual(sys, xs, xs)
        assert resid < 1e-8
        assert quad_est < 1e-10


class TestCdRoute:
    def test_solve_count_rank_one(self, unit_gaussian):
        fam = WeightFamily([unit_gaussian])
        data = build_cd_data(MultiIndexPair.balanced([1], [1]), fam, fam)
        assert (data.p, data.q) == (1, 1)
        assert (len(data.x_forms), len(data.y_forms)) == (2, 2)

    def test_solve_count_one_two(self):
        rng = np.random.default_rng(25)
        w1, w2 = random_gaussian_families(rng, 1, 2)
        data = build_cd_data(MultiIndexPair.balanced([3], [2, 1]), w1, w2)
        total = len(data.x_forms) + len(data.y_forms)
        assert total == 6
        assert (data.p, data.q) == (1, 2)
        # CD term order: the p type II solves, then the q type I solves,
        # each y-side form the swapped partner of its x-side form
        assert [s.normalization.kind for s in data.x_forms] == ["II", "I", "I"]
        assert [s.normalization.kind for s in data.y_forms] == ["I", "II", "II"]
        assert [s.pair.n.parts for s in data.x_forms] == [(4,), (3,), (3,)]
        assert [s.pair.m.parts for s in data.y_forms] == [(2,), (3,), (3,)]

    def test_transition_weight_solves_clean(self):
        # two starting and two ending points, four walkers
        w1 = WeightFamily([transition_weight(0.5, a, 4) for a in (-1.0, 1.0)])
        w2 = WeightFamily([transition_weight(0.5, b, 4) for b in (-0.5, 1.5)])
        data = build_cd_data(MultiIndexPair.balanced([2, 2], [2, 2]), w1, w2)
        assert data.max_residual() < 1e-8

    def test_agrees_with_direct_off_diagonal(self, unit_gaussian):
        sys = rank_one_system(unit_gaussian)
        data = build_cd_data(sys.pair, sys.w1, sys.w2)
        for x, y in ((0.4, -0.2), (1.0, 0.0), (-1.3, 0.9)):
            assert kernel_at(kernel_cd_grid, data, x, y) == pytest.approx(
                kernel_at(kernel_direct_grid, sys, x, y), rel=1e-10, abs=1e-13)

    def test_agrees_with_direct_mixed_config(self):
        rng = np.random.default_rng(27)
        w1, w2 = random_gaussian_families(rng, 2, 2)
        pair = MultiIndexPair.balanced([2, 2], [3, 1])
        sys = build_biorthogonal(pair, w1, w2)
        data = build_cd_data(pair, w1, w2)
        xs = np.linspace(-1.8, 1.8, 9)
        ys = xs + 0.37  # keep clear of the diagonal band
        Kd = kernel_direct_grid(sys, xs, ys)
        Kc = kernel_cd_grid(data, xs, ys)
        assert relative_discrepancy(Kd, Kc) < 1e-9

    def test_grid_handles_band_entries(self, unit_gaussian):
        fam = WeightFamily([unit_gaussian])
        pair = MultiIndexPair.balanced([3], [3])
        sys = build_biorthogonal(pair, fam, fam)
        data = build_cd_data(pair, fam, fam)
        delta = data.delta_diag
        xs = np.array([-1.0, 0.0, 0.5, 0.5 + 0.5 * delta, 1.2])
        K = kernel_cd_grid(data, xs, xs)
        assert np.all(np.isfinite(K))
        Kd = kernel_direct_grid(sys, xs, xs)
        assert relative_discrepancy(Kd, K) < 1e-9

    def test_numerator_swap_antisymmetry(self):
        rng = np.random.default_rng(33)
        w1, w2 = random_gaussian_families(rng, 2, 1)
        pair = MultiIndexPair.balanced([2, 1], [3])
        data = build_cd_data(pair, w1, w2)
        swapped = build_cd_data(MultiIndexPair.balanced([3], [2, 1]), w2, w1)
        def numerator(data, x, y):
            # (x - y) K(x, y): the CD combination of the neighbor forms
            return sum(float(sign * a.form(x) * b.form(y))
                       for sign, a, b in cd_terms(data))

        for x, y in ((0.3, -0.8), (1.1, 0.2)):
            a = numerator(data, x, y)
            b = numerator(swapped, y, x)
            assert a == pytest.approx(-b, rel=1e-10, abs=1e-13)
            # the same value read through either orientation of the kernel
            assert kernel_at(kernel_cd_grid, data, x, y) == pytest.approx(
                kernel_at(kernel_cd_grid, swapped, y, x), rel=1e-10, abs=1e-13)

    def test_reduces_to_orthogonal_polynomials(self):
        # both families the same single gaussian: the kernel collapses to
        # w1(x) w2(y) sum_j P_j(x) P_j(y) / h_j with P_j monic orthogonal
        # for the product weight
        w = Weight.gaussian(0.0, 1.0, 1.0)
        fam = WeightFamily([w])
        count = 3
        pair = MultiIndexPair.balanced([count], [count])
        sys = build_biorthogonal(pair, fam, fam)
        product = Weight.gaussian(0.0, 0.5, 1.0)
        coeffs, hs = monic_orthogonal_oracle(product, (-9.0, 9.0), count)
        for x, y in ((0.0, 0.0), (0.8, -0.4), (-1.2, 1.7)):
            series = sum(
                np.polynomial.polynomial.polyval(x, coeffs[j])
                * np.polynomial.polynomial.polyval(y, coeffs[j]) / hs[j]
                for j in range(count))
            expect = w(x) * w(y) * series
            assert kernel_at(kernel_direct_grid, sys, x, y) == pytest.approx(
                expect, rel=1e-8, abs=1e-12)

    def test_diagonal_against_direct_grid(self, unit_gaussian):
        rng = np.random.default_rng(35)
        w1, w2 = random_gaussian_families(rng, 1, 2)
        pair = MultiIndexPair.balanced([4], [2, 2])
        sys = build_biorthogonal(pair, w1, w2)
        data = build_cd_data(pair, w1, w2)
        xs = np.linspace(-2.0, 2.0, 50)
        diag_cd = kernel_cd_diagonal(data, xs)
        diag_direct = np.diag(kernel_direct_grid(sys, xs, xs))
        assert relative_discrepancy(diag_direct, diag_cd) < 1e-7

    def test_diagonal_against_finite_difference(self, unit_gaussian):
        fam = WeightFamily([unit_gaussian])
        data = build_cd_data(MultiIndexPair.balanced([3], [3]), fam, fam)
        x = 0.6
        hs = (0.2, 0.1, 0.05, 0.025)
        vals = [kernel_at(kernel_cd_grid, data, x + h, x - h) for h in hs]
        # equal families make K symmetric, so the centered values are even
        # in h: extrapolate the ladder in h^2
        extr = richardson_extrapolate(vals, [h * h for h in hs])
        assert complex(extr).imag == 0.0
        assert complex(extr).real == pytest.approx(
            kernel_cd_diagonal(data, x), abs=1e-8)

    def test_diagonal_value_at_origin(self, unit_gaussian):
        fam = WeightFamily([unit_gaussian])
        data = build_cd_data(MultiIndexPair.balanced([1], [1]), fam, fam)
        assert kernel_cd_diagonal(data, 0.0) == pytest.approx(1.0 / SQRT_PI,
                                                              rel=1e-10)


G = Weight.gaussian
WP = (WeightFamily([G(-0.5, 0.8), G(0.6, 1.2)]),
      WeightFamily([G(0.0, 1.0), G(0.3, 0.6)]))


class TestCdBand:
    @pytest.mark.parametrize("grid", ["off", "mixed"])
    def test_grid_band_matches_scalar_oracle(self, grid):
        pair = MultiIndexPair.balanced([3, 2], [2, 3])
        data = build_cd_data(pair, *WP)
        xs, ys = band_grids(data.delta_diag)[grid]
        K = kernel_cd_grid(data, xs, ys)
        assert_band_matches_oracle(data, xs, ys, K, expect_exact=grid == "mixed")
        sys = build_biorthogonal(pair, *WP)
        assert relative_discrepancy(kernel_direct_grid(sys, xs, ys), K) < 1e-9

    def test_empty_and_all_diagonal_band(self):
        data = build_cd_data(MultiIndexPair.balanced([3, 2], [2, 3]), *WP)
        assert kernel_cd_band(data, np.array([]), np.array([])).shape == (0,)
        xs = np.array([-0.4, 0.1, 0.9])
        assert np.array_equal(kernel_cd_band(data, xs, xs),
                              kernel_cd_diagonal(data, xs))


class TestRoutesReport:
    def test_report_keys_and_health(self, unit_gaussian):
        fam = WeightFamily([unit_gaussian])
        pair = MultiIndexPair.balanced([2], [2])
        sys = build_biorthogonal(pair, fam, fam)
        data = build_cd_data(pair, fam, fam)
        xs = np.linspace(-1.5, 1.5, 7)
        rep = kernel_routes_report(sys, data, xs, xs,
                                   kernel_direct_grid(sys, xs, xs),
                                   kernel_cd_grid(data, xs, xs))
        for key in ("dimension", "trace", "trace_deviation",
                    "idempotence_residual", "gram_condition",
                    "max_solve_residual", "direct_vs_cd"):
            assert key in rep
        assert rep["dimension"] == 2
        assert rep["trace_deviation"] < 1e-8
        assert rep["direct_vs_cd"] < 1e-10
        assert "direct_vs_rh" not in rep

    def test_report_includes_rh_grid_when_given(self, unit_gaussian):
        fam = WeightFamily([unit_gaussian])
        pair = MultiIndexPair.balanced([1], [1])
        sys = build_biorthogonal(pair, fam, fam)
        data = build_cd_data(pair, fam, fam)
        xs = np.linspace(-1.0, 1.0, 3)
        fake = kernel_direct_grid(sys, xs, xs)
        rep = kernel_routes_report(sys, data, xs, xs, fake,
                                   kernel_cd_grid(data, xs, xs), rh_grid=fake)
        assert rep["direct_vs_rh"] == 0.0
        assert rep["cd_vs_rh"] < 1e-10


# ---------------------------------------------------------------------------
# Stacked form evaluation against the per-form loops


STACK_CONFIGS = {
    "wp": (*WP, [3, 2], [2, 3]),
    "p3": (WeightFamily([G(-0.8, 0.7), G(0.1, 1.1), G(0.9, 0.9)]),
           WeightFamily([G(-0.4, 1.0), G(0.3, 0.6), G(0.7, 1.3)]),
           [2, 2, 2], [2, 2, 2]),
    # the neighbor solves of both take the extended fallback
    "hermite12": (WeightFamily([G(0.0, 1.0)]), WeightFamily([G(0.0, 1.0)]),
                  [12], [12]),
    "two_start_5": None,
}
# the default cd-check grid, whose band is the diagonal alone, and a grid
# whose band holds every cell
DEFAULT_GRID = np.linspace(-2.0, 2.0, 41)
BAND_GRID = np.linspace(-1e-5, 1e-5, 9)


@pytest.fixture(scope="module", params=list(STACK_CONFIGS))
def stack_data(request):
    config = STACK_CONFIGS[request.param]
    if config is None:
        w1, w2, pair = config_to_weights(BrownianConfig(
            starts=((-1.0, 5), (1.0, 5)), ends=((0.0, 10),), time=0.5))
    else:
        w1, w2, n, m = config
        pair = MultiIndexPair.balanced(n, m)
    return build_cd_data(pair, w1, w2)


def weight_calls(monkeypatch, fn):
    """Number of Weight.__call__ calls made by fn()."""
    calls = []
    exact = Weight.__call__

    def counted(self, x):
        calls.append(1)
        return exact(self, x)

    with monkeypatch.context() as patch:
        patch.setattr(Weight, "__call__", counted)
        fn()
    return len(calls)


class TestStackedForms:
    @pytest.mark.parametrize("grid", [DEFAULT_GRID, BAND_GRID],
                             ids=["default", "band"])
    def test_values_and_derivatives_bitwise(self, stack_data, grid):
        for forms, stack in ((stack_data.x_forms, stack_data.x_stack),
                             (stack_data.y_forms, stack_data.y_stack)):
            assert np.array_equal(stack.values(grid), np.stack(
                [form_oracle(s, grid) for s in forms]))
            assert np.array_equal(stack.derivatives(grid), np.stack(
                [form_derivative_oracle(s, grid) for s in forms]))
            for s in forms:
                assert np.array_equal(s.form(grid), form_oracle(s, grid))

    @pytest.mark.parametrize("grid", [DEFAULT_GRID, BAND_GRID],
                             ids=["default", "band"])
    def test_grids_bitwise(self, stack_data, grid):
        band = np.abs(grid[:, None] - grid[None, :]) <= stack_data.delta_diag
        assert np.count_nonzero(band) == (grid.size if grid is DEFAULT_GRID
                                          else grid.size ** 2)
        K_cd = kernel_cd_grid(stack_data, grid, grid)
        assert np.array_equal(K_cd, cd_grid_oracle(stack_data, grid, grid))
        # the RH read-off is the CD sum with Y's block factors: same bits
        assert np.array_equal(
            kernel_rh_grid(stack_data, grid, grid).view(np.int64),
            K_cd.view(np.int64))

    def test_diagonal_bitwise_on_array_and_scalar(self, stack_data):
        assert np.array_equal(kernel_cd_diagonal(stack_data, DEFAULT_GRID),
                              cd_diagonal_oracle(stack_data, DEFAULT_GRID))
        value = kernel_cd_diagonal(stack_data, 0.3)
        assert type(value) is float
        assert value == float(cd_diagonal_oracle(stack_data, 0.3))

    @pytest.mark.parametrize("config", ["wp", "p3"])
    def test_one_weight_call_per_weight_and_point_set(self, config,
                                                      monkeypatch):
        w1, w2, n, m = STACK_CONFIGS[config]
        data = build_cd_data(MultiIndexPair.balanced(n, m), w1, w2)
        p, q = len(n), len(m)
        # forms on xs and ys, then the l'Hopital diagonal: a per-form loop
        # made 64 (wp) and 144 (p3) calls here
        assert weight_calls(monkeypatch, lambda: kernel_cd_grid(
            data, DEFAULT_GRID, DEFAULT_GRID)) == 2 * (p + q)
        # an off-diagonal band adds a fixed number, whatever its cell count
        band = [weight_calls(monkeypatch, lambda: kernel_cd_grid(data, xs, xs))
                for xs in (BAND_GRID, np.linspace(-1e-5, 1e-5, 17))]
        assert band[0] == band[1] <= 3 * (p + q)


class TestIdempotence:
    def test_basis_values_once_per_point_set(self, monkeypatch):
        w1, w2, n, m = STACK_CONFIGS["wp"]
        sys = build_biorthogonal(MultiIndexPair.balanced(n, m), w1, w2)
        xs = np.linspace(-2.0, 2.0, 41)
        # the products of the three direct grids, as the residual defines them
        lo, hi = sys.interval()
        results = []
        for degree in (256, 384):
            nodes, wts = _leggauss(degree)
            zs = 0.5 * (hi + lo) + 0.5 * (hi - lo) * nodes
            wz = 0.5 * (hi - lo) * wts
            results.append(kernel_direct_grid(sys, xs, zs) @ (
                wz[:, None] * kernel_direct_grid(sys, zs, xs)))
        K = kernel_direct_grid(sys, xs, xs)
        want = (float(np.max(np.abs(results[-1] - K))),
                float(np.max(np.abs(results[-1] - results[0]))))

        calls = []
        for name in ("f_values", "g_values"):
            exact = getattr(BiorthogonalSystem, name)
            monkeypatch.setattr(BiorthogonalSystem, name,
                                lambda self, x, exact=exact, name=name: (
                                    calls.append(name), exact(self, x))[1])
        assert idempotence_residual(sys, xs, xs) == want
        assert sorted(calls) == ["f_values"] * 3 + ["g_values"] * 3
