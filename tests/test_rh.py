"""Riemann-Hilbert route: quadrature backends, Y/X assembly, certificates."""

import cmath
import copy
import math
from functools import cached_property

import numpy as np
import pytest
from scipy.integrate import quad

from mixedmop import (AccuracyError, BrownianConfig, MixedMopSolution,
                      MultiIndexPair, RhSystem, Weight, WeightFamily,
                      build_cd_data, config_to_weights, kernel_cd_grid,
                      kernel_direct_grid, kernel_rh_grid,
                      rh_verification_report, verify_jump)
from mixedmop.kernel import build_biorthogonal, relative_discrepancy
from mixedmop.mop import FormStack
from mixedmop import rh
from mixedmop._util import write_csv
from mixedmop.rh import (BRANCHES, MATRIX_CSV_HEADER, SERIES_RADIUS,
                         adaptive_panel_integral, asymptotic_errors,
                         cauchy_transform, gaussian_cauchy_moments,
                         jump_matrix, matrix_rows)

from conftest import assert_band_matches_oracle, band_grids, \
    csv_oracle_bytes, faddeeva_cauchy_gaussian, kernel_at, rh_poly_block_oracle

SQRT_PI = math.sqrt(math.pi)


def gaussian_callable(center, variance, amplitude):
    def f(xs):
        xs = np.asarray(xs, dtype=float)
        return amplitude * np.exp(-0.5 * (xs - center) ** 2 / variance)
    return f


def rank_one_pair():
    fam = WeightFamily([Weight.gaussian(0.0, 1.0, 1.0)])
    return MultiIndexPair.balanced([1], [1]), fam, fam


class TestOracleSelfCheck:
    def test_faddeeva_matches_quadrature_far_from_axis(self):
        z = 0.8 + 0.7j
        c, v, a = 0.3, 0.8, 1.1

        def integrand(x):
            return a * math.exp(-0.5 * (x - c) ** 2 / v) / (x - z)

        re, _ = quad(lambda x: integrand(x).real, -12, 12, limit=300)
        im, _ = quad(lambda x: integrand(x).imag, -12, 12, limit=300)
        got = faddeeva_cauchy_gaussian([1.0], c, v, a, z)
        assert got == pytest.approx(complex(re, im), rel=1e-10)

    def test_faddeeva_polynomial_factor(self):
        z = -0.4 + 1.3j
        c, v, a = -0.2, 0.6, 0.9
        coeffs = [0.3, -1.2, 0.4]

        def integrand(x):
            poly = coeffs[0] + coeffs[1] * x + coeffs[2] * x * x
            return poly * a * math.exp(-0.5 * (x - c) ** 2 / v) / (x - z)

        re, _ = quad(lambda x: integrand(x).real, -12, 12, limit=300)
        im, _ = quad(lambda x: integrand(x).imag, -12, 12, limit=300)
        got = faddeeva_cauchy_gaussian(coeffs, c, v, a, z)
        assert got == pytest.approx(complex(re, im), rel=1e-10)

    def test_faddeeva_lower_half_plane_is_conjugate(self):
        z = 0.5 + 0.9j
        up = faddeeva_cauchy_gaussian([1.0, 0.5], 0.1, 0.7, 1.0, z)
        down = faddeeva_cauchy_gaussian([1.0, 0.5], 0.1, 0.7, 1.0, z.conjugate())
        assert down == pytest.approx(up.conjugate(), rel=1e-13)


class TestPanelQuadrature:
    def test_matches_scipy_on_smooth_integrand(self):
        val, err = adaptive_panel_integral(np.cos, -1.0, 3.0)
        expect, _ = quad(math.cos, -1.0, 3.0)
        assert val.real == pytest.approx(expect, abs=1e-12)
        assert err < 1e-11

    def test_polynomial_is_exact(self):
        val, _ = adaptive_panel_integral(lambda x: x ** 7 - 2 * x ** 3, 0.0, 2.0)
        assert val.real == pytest.approx(2.0 ** 8 / 8 - 2 * 2.0 ** 4 / 4,
                                         rel=1e-14)

    def test_empty_interval(self):
        val, err = adaptive_panel_integral(np.exp, 1.0, 1.0)
        assert val == 0.0 and err == 0.0

    def test_unresolvable_needle_raises(self):
        def needle(x):
            return 1.0 / (1e-14 + (x - 0.3) ** 2)

        with pytest.raises(AccuracyError) as info:
            adaptive_panel_integral(needle, 0.0, 1.0, max_depth=8)
        assert info.value.achieved > 0


class TestCauchyTransform:
    def test_far_from_axis_matches_oracle(self):
        c, v, a = 0.2, 0.9, 1.3
        f = gaussian_callable(c, v, a)
        for z in (1.0 + 1.5j, -2.0 - 0.8j, 3.0 + 0.3j):
            val, err = cauchy_transform(f, (-13.0, 13.0), z, spread=1.0)
            expect = faddeeva_cauchy_gaussian([1.0], c, v, a, z)
            assert val == pytest.approx(expect, rel=1e-9)
            assert err < 1e-9

    def test_near_axis_subtraction_branch(self):
        c, v, a = 0.0, 1.0, 1.0
        f = gaussian_callable(c, v, a)
        for im in (1e-2, 1e-3, 1e-4):
            z = complex(0.4, im)
            val, _ = cauchy_transform(f, (-13.0, 13.0), z, spread=1.0)
            expect = faddeeva_cauchy_gaussian([1.0], c, v, a, z)
            assert val == pytest.approx(expect, rel=1e-8)

    def test_real_argument_rejected(self):
        # a real z needs a side
        f = gaussian_callable(0.0, 1.0, 1.0)
        for side in (None, "0"):
            with pytest.raises(ValueError):
                cauchy_transform(f, (-13.0, 13.0), 0.5 + 0.0j, side,
                                 spread=1.0)

    def test_side_ignored_off_axis(self):
        f = gaussian_callable(0.0, 1.0, 1.0)
        for z in (0.4 + 1e-3j, 1.0 - 1.5j):
            plain = cauchy_transform(f, (-13.0, 13.0), z, spread=1.0)
            for side in "+-":
                assert cauchy_transform(f, (-13.0, 13.0), z, side,
                                        spread=1.0) == plain


class TestBoundaryValues:
    """Boundary values of cauchy_transform on the real line (Plemelj)."""

    def test_plemelj_matches_faddeeva_on_minus_side(self):
        c, v, a = 0.1, 0.8, 1.0
        f = gaussian_callable(c, v, a)
        for x in (-0.7, 0.0, 1.2):
            val, err = cauchy_transform(f, (-13.0, 13.0), x, "-", spread=1.0)
            expect = faddeeva_cauchy_gaussian([1.0], c, v, a, complex(x))
            assert val == pytest.approx(expect, rel=1e-9)
            assert err < 1e-9

    def test_plemelj_sides_differ_by_residue(self):
        f = gaussian_callable(0.0, 1.0, 1.0)
        x = 0.3
        plus, _ = cauchy_transform(f, (-13.0, 13.0), x, "+", spread=1.0)
        minus, _ = cauchy_transform(f, (-13.0, 13.0), x, "-", spread=1.0)
        assert (plus - minus) == pytest.approx(
            2j * math.pi * math.exp(-0.5 * x * x), rel=1e-12)

    def test_boundary_values_are_limits_from_each_side(self):
        # the value from above (below) is the limit of the transform at
        # x + i d (x - i d), which falls linearly in d
        f = gaussian_callable(0.1, 0.8, 1.0)
        x = 0.45
        for side, sign in (("+", 1), ("-", -1)):
            edge, _ = cauchy_transform(f, (-13.0, 13.0), x, side, spread=1.0)
            near, _ = cauchy_transform(f, (-13.0, 13.0), complex(x, sign * 1e-6),
                                       spread=1.0)
            assert abs(edge - near) < 1e-5

    @pytest.mark.parametrize("x", [0.25, -2.2, 5.9, 6.1, -6.5])
    def test_plemelj_matches_closed_form_boundary_values(self, x):
        # both closed-form branches (recursion below |zeta| = 6, series
        # plus residue beyond it) against principal value + (+/-) i pi f
        for side, sign in (("+", 1), ("-", -1)):
            C, series = gaussian_cauchy_moments(np.array([complex(x)]), 7,
                                                sign)
            assert bool(series[0]) == (abs(x) >= SERIES_RADIUS)
            for j in range(8):
                want, _ = cauchy_transform(
                    lambda t, j=j: t ** j * np.exp(-t * t), (-13.0, 13.0),
                    x, side, spread=1.0)
                assert abs(C[0, j] - want) <= 1e-10 * (1 + abs(want)), (side, j)
                # the imaginary part is the residue term exactly
                assert C[0, j].imag == pytest.approx(
                    sign * math.pi * x ** j * math.exp(-x * x), rel=1e-12,
                    abs=1e-300)

    def test_outside_interval_rejected(self):
        f = gaussian_callable(0.0, 1.0, 1.0)
        for x in (2.0, -1.0, 1.0):
            with pytest.raises(ValueError):
                cauchy_transform(f, (-1.0, 1.0), x, "+", spread=1.0)


class TestJumpMatrix:
    def test_block_structure(self):
        w1 = WeightFamily([Weight.gaussian(-1.0, 1.0, 1.0),
                           Weight.gaussian(1.0, 1.0, 1.0)])
        w2 = WeightFamily([Weight.gaussian(0.0, 1.0, 1.0)])
        J = jump_matrix(w1, w2, 0.4)
        assert J.shape == (3, 3)
        np.testing.assert_array_equal(np.diag(J), np.ones(3))
        np.testing.assert_array_equal(J[2, :2], np.zeros(2))
        expect = np.array([w1[0](0.4) * w2[0](0.4),
                           w1[1](0.4) * w2[0](0.4)])
        np.testing.assert_allclose(J[:2, 2], expect, rtol=1e-15)

    def test_determinant_is_exactly_one(self):
        w1 = WeightFamily([Weight.gaussian(-0.5, 0.8, 1.2),
                           Weight.gaussian(0.5, 1.1, 0.9)])
        w2 = WeightFamily([Weight.gaussian(0.0, 1.0, 1.0),
                           Weight.gaussian(0.3, 0.7, 1.0)])
        for x in (-1.0, 0.0, 0.6):
            assert np.linalg.det(jump_matrix(w1, w2, x)) == 1.0


class TestYMatrix:
    def test_frozen_rank_one_values(self):
        pair, w1, w2 = rank_one_pair()
        system = RhSystem(pair, w1, w2)
        Y = system.y_matrix(2j)
        assert Y.shape == (2, 2)
        assert Y[0, 0] == pytest.approx(2j, abs=1e-12)
        assert abs(np.linalg.det(Y) - 1.0) < 1e-8

    def test_entries_against_faddeeva_oracle(self):
        pair, w1, w2 = rank_one_pair()
        system = RhSystem(pair, w1, w2)
        z = 0.6 + 0.9j
        Y = system.y_matrix(z)
        # row 1: A(x) = x against the product weight e^{-x^2}
        expect01 = faddeeva_cauchy_gaussian([0.0, 1.0], 0.0, 0.5, 1.0, z) \
            / (2j * math.pi)
        assert Y[0, 1] == pytest.approx(expect01, rel=1e-9)
        # row 2: the normalized constant form, weight e^{-x^2}/sqrt(pi)
        expect11 = -faddeeva_cauchy_gaussian([1.0 / SQRT_PI], 0.0, 0.5, 1.0, z)
        assert Y[1, 1] == pytest.approx(expect11, rel=1e-9)
        assert Y[1, 0] == pytest.approx(-2j * math.pi * (1.0 / SQRT_PI) * z ** 0,
                                        rel=1e-12)

    def test_eval_y_boundary_needs_side(self):
        pair, w1, w2 = rank_one_pair()
        system = RhSystem(pair, w1, w2)
        for side in (None, "0"):
            with pytest.raises(ValueError):
                system.y_matrix(0.5, side)

    def test_determinant_one_off_axis_mixed_config(self):
        w1 = WeightFamily([Weight.gaussian(-0.8, 0.9, 1.0),
                           Weight.gaussian(0.8, 1.1, 1.0)])
        w2 = WeightFamily([Weight.gaussian(0.0, 1.0, 1.0)])
        system = RhSystem(MultiIndexPair.balanced([2, 1], [3]), w1, w2)
        for z in (1.5j, 1.0 - 0.7j, -2.0 + 0.4j):
            Y = system.y_matrix(z)
            assert abs(np.linalg.det(Y) - 1.0) < 1e-7

    def test_asymptotic_decay(self):
        pair, w1, w2 = rank_one_pair()
        system = RhSystem(pair, w1, w2)
        asym = asymptotic_errors(system)
        assert all(r >= 1.8 for r in asym["ratios"])
        assert asym["errors"][0] > asym["errors"][-1]


class TestXMatrix:
    def test_transpose_inverse_consistency(self):
        pair, w1, w2 = rank_one_pair()
        system = RhSystem(pair, w1, w2)
        z = 1.0 + 1.0j
        Y = system.y_matrix(z)
        X = system.x_matrix(z)
        assert np.max(np.abs(X.T @ Y - np.eye(2))) < 1e-7

    def test_transpose_inverse_mixed_config(self):
        w1 = WeightFamily([Weight.gaussian(-0.8, 0.9, 1.0),
                           Weight.gaussian(0.8, 1.1, 1.0)])
        w2 = WeightFamily([Weight.gaussian(-0.3, 1.0, 1.0),
                           Weight.gaussian(0.5, 0.8, 1.0)])
        system = RhSystem(MultiIndexPair.balanced([2, 1], [2, 1]), w1, w2)
        Y = system.y_matrix(1.0 + 1.0j)
        X = system.x_matrix(1.0 + 1.0j)
        assert np.max(np.abs(X.T @ Y - np.eye(4))) < 1e-7

    def test_jump_with_lower_triangular_factor(self):
        pair, w1, w2 = rank_one_pair()
        system = RhSystem(pair, w1, w2)
        x = 0.2
        JX = np.eye(2)
        W = np.outer(w1.values(np.array([x])).ravel(),
                     w2.values(np.array([x])).ravel())
        JX[1:, :1] = -W.T
        Xp = system.x_matrix(x, "+")
        Xm = system.x_matrix(x, "-")
        norm = float(np.max(np.abs(Xp)))
        assert float(np.max(np.abs(Xp - Xm @ JX))) < 1e-6 * max(norm, 1.0)

    def test_asymptotics_with_negated_exponents(self):
        pair, w1, w2 = rank_one_pair()
        system = RhSystem(pair, w1, w2)
        errors = []
        for R in (10.0, 20.0, 40.0):
            z = complex(0.0, R)
            X = system.x_matrix(z)
            scales = np.array([z ** nl for nl in pair.n.parts]
                              + [z ** (-mk) for mk in pair.m.parts])
            errors.append(float(np.max(np.abs(X * scales[None, :]
                                              - np.eye(2)))))
        assert errors[0] / errors[1] >= 1.8
        assert errors[1] / errors[2] >= 1.8

    def test_eval_x_boundary_side(self):
        # the two boundary values of X differ only in its Cauchy columns
        pair, w1, w2 = rank_one_pair()
        system = RhSystem(pair, w1, w2)
        plus = system.x_matrix(0.1, "+")
        minus = system.x_matrix(0.1, "-")
        assert plus.shape == (2, 2)
        np.testing.assert_array_equal(plus[:, 1:], minus[:, 1:])
        assert np.all(plus[:, :1] != minus[:, :1])


class TestJumpVerification:
    def test_rank_one_at_origin(self):
        pair, w1, w2 = rank_one_pair()
        system = RhSystem(pair, w1, w2)
        rep, = verify_jump(system, [0.0])
        assert set(rep) == {"x", "residual", "y_norm", "passed"}
        assert rep["passed"]
        assert rep["residual"] < 1e-6 * max(rep["y_norm"], 1.0)
        Yp = system.y_matrix(0.0, "+")
        assert rep["y_norm"] == float(np.max(np.abs(Yp)))

    def test_polynomial_columns_carry_no_jump(self):
        pair, w1, w2 = rank_one_pair()
        system = RhSystem(pair, w1, w2)
        x = 0.35
        J = jump_matrix(w1, w2, x)
        Ym = system.y_matrix(complex(x, -1e-2))
        np.testing.assert_array_equal((Ym @ J)[:, :1], Ym[:, :1])
        # the one-sided boundary values share the entire block
        plus = system.y_matrix(x, "+")
        minus = system.y_matrix(x, "-")
        np.testing.assert_array_equal(plus[:, :1], minus[:, :1])

    @pytest.mark.parametrize("degree", [5, 7])
    def test_hermite_jump_holds_and_can_fail(self, degree, monkeypatch):
        fam = WeightFamily([G(0.0, 1.0)])
        system = RhSystem(MultiIndexPair.balanced([degree], [degree]), fam, fam)
        rep, _ = rh_verification_report(system)
        assert rep["passed"]["jump"]
        for detail in rep["jump_details"]:
            assert detail["residual"] <= 1e-12 * max(detail["y_norm"], 1.0)

        exact = rh.gaussian_cauchy_moments

        def perturbed(zeta, degree, side=0):
            # Y+ off by 0.1 % at every point taken from above
            C, series = exact(zeta, degree, side)
            above = np.expand_dims(np.asarray(side) == 1, -1)
            return np.where(above, C * 1.001, C), series

        monkeypatch.setattr(rh, "gaussian_cauchy_moments", perturbed)
        rep, _ = rh_verification_report(system)
        assert not rep["passed"]["jump"]
        assert rep["passed"]["det"]


class TestRhKernelRoute:
    def test_matches_cd_pointwise(self):
        pair, w1, w2 = rank_one_pair()
        data = build_cd_data(pair, w1, w2)
        for x, y in ((0.5, -0.1), (1.2, 0.3), (-0.9, 1.1)):
            assert kernel_at(kernel_rh_grid, data, x, y) == pytest.approx(
                kernel_at(kernel_cd_grid, data, x, y), rel=1e-10, abs=1e-13)

    def test_matches_direct_on_grid(self):
        w1 = WeightFamily([Weight.gaussian(-0.8, 0.9, 1.0),
                           Weight.gaussian(0.8, 1.1, 1.0)])
        w2 = WeightFamily([Weight.gaussian(0.0, 1.0, 1.0)])
        pair = MultiIndexPair.balanced([2, 1], [3])
        sys = build_biorthogonal(pair, w1, w2)
        data = build_cd_data(pair, w1, w2)
        xs = np.linspace(-1.5, 1.5, 11)
        K_rh = kernel_rh_grid(data, xs, xs)
        K_d = kernel_direct_grid(sys, xs, xs)
        K_cd = kernel_cd_grid(data, xs, xs)
        assert relative_discrepancy(K_d, K_rh) < 1e-7
        assert relative_discrepancy(K_cd, K_rh) < 1e-10

    def test_grid_handles_diagonal_band(self):
        pair, w1, w2 = rank_one_pair()
        data = build_cd_data(pair, w1, w2)
        xs = np.array([0.0, 0.3, 0.3 + 0.2 * data.delta_diag])
        K = kernel_rh_grid(data, xs, xs)
        assert np.all(np.isfinite(K))
        assert K.dtype == np.float64
        assert K[0, 0] == pytest.approx(1.0 / SQRT_PI, rel=1e-10)

    @pytest.mark.parametrize("grid", ["off", "mixed"])
    def test_grid_band_matches_scalar_oracle(self, grid):
        w1, w2, n, m = WP
        data = build_cd_data(MultiIndexPair.balanced(n, m), w1, w2)
        xs, ys = band_grids(data.delta_diag)[grid]
        K = kernel_rh_grid(data, xs, ys)
        assert_band_matches_oracle(data, xs, ys, K, expect_exact=grid == "mixed")
        assert relative_discrepancy(kernel_cd_grid(data, xs, ys), K) < 1e-10

    def test_returns_real_scalar(self):
        pair, w1, w2 = rank_one_pair()
        data = build_cd_data(pair, w1, w2)
        K = kernel_rh_grid(data, np.array([0.7]), np.array([-0.2]))
        assert K.shape == (1, 1) and K.dtype == np.float64


class TestVerificationReport:
    def test_report_keys_and_certificates(self):
        pair, w1, w2 = rank_one_pair()
        system = RhSystem(pair, w1, w2)
        rep, _ = rh_verification_report(system)
        for key in ("det_residuals", "det_max", "x_y_consistency", "x_y_max",
                    "x_y_floor_max", "jump_points", "jump_residuals", "jump_details",
                    "asymptotic_errors", "asymptotic_ratios", "passed"):
            assert key in rep
        assert len(rep["det_residuals"]) == 20
        assert len(rep["jump_residuals"]) == 10
        assert rep["passed"] == {"det": True, "inverse_transpose": True,
                                 "jump": True, "asymptotics": True}

    @pytest.mark.parametrize("config", ["wp", "p3"])
    def test_inverse_transpose_at_rounding_floor(self, config):
        # X^T Y - I sits at the rounding floor (p + q) u max|X| max|Y|
        w1, w2, n, m = {"wp": WP, "p3": P3}[config]
        rep, _ = rh_verification_report(
            RhSystem(MultiIndexPair.balanced(n, m), w1, w2))
        assert 0.0 < rep["x_y_max"] <= 2.0 * rep["x_y_floor_max"]

    def test_report_is_seed_deterministic(self):
        pair, w1, w2 = rank_one_pair()
        system = RhSystem(pair, w1, w2)
        a, _ = rh_verification_report(system, seed=7)
        b, _ = rh_verification_report(system, seed=7)
        assert a["z_points"] == b["z_points"]
        assert a["det_residuals"] == b["det_residuals"]

    def test_matrix_csv_layout(self, tmp_path):
        path = tmp_path / "y.csv"
        write_csv(str(path), MATRIX_CSV_HEADER,
                  matrix_rows(np.array([[1.0 + 2.0j, 0.0], [3.0, -1.0j]])))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "row,col,re,im"
        assert len(lines) == 5
        first = lines[1].split(",")
        assert first[:2] == ["0", "0"]
        assert float(first[2]) == 1.0 and float(first[3]) == 2.0

    def test_matrix_csv_bytes_match_oracle(self, tmp_path):
        matrix = np.array([[1.0 + 2.0j, complex(-0.0, -0.0), 1.0 / 3.0],
                           [3.0, -1.0j, 1e-300 - 7.25j]])
        path = tmp_path / "y.csv"
        write_csv(str(path), MATRIX_CSV_HEADER, matrix_rows(matrix))
        rows = [(r, c, matrix[r, c].real, matrix[r, c].imag)
                for r in range(2) for c in range(3)]
        assert path.read_bytes() == csv_oracle_bytes(("row", "col", "re", "im"),
                                                     rows)
        assert path.read_text().splitlines()[2] == "0,1,-0,-0"


# ---------------------------------------------------------------------------
# Closed-form Cauchy transforms against the panel route and mpmath


G = Weight.gaussian
WP = (WeightFamily([G(-0.5, 0.8), G(0.6, 1.2)]),
      WeightFamily([G(0.0, 1.0), G(0.3, 0.6)]), [3, 2], [2, 3])
P3 = (WeightFamily([G(-0.8, 0.7), G(0.1, 1.1), G(0.9, 0.9)]),
      WeightFamily([G(-0.4, 1.0), G(0.3, 0.6), G(0.7, 1.3)]),
      [2, 2, 2], [2, 2, 2])


def panel_twin(system):
    """The same system (same solves) with every Cauchy entry by panels:
    cauchy_transform of each form times each column weight, times the
    block's row factor."""
    twin = copy.copy(system)
    twin.branch_counts = dict.fromkeys(BRANCHES, 0)
    data = system.data

    def cauchy_block(name, zs, sides):
        block = rh._block_table(data)[name]
        forms = {"y": data.x_forms, "x": data.y_forms}[name]
        out = np.array([[[cauchy_transform(
            lambda xs, s=sol, w=wl: s.form(xs) * w(xs), system.interval, z,
            side, spread=data.table.scale)[0] for wl in block.weights]
            for sol in forms] for z, side in zip(zs, sides)])
        return out * block.cauchy_factors[:, None]

    twin._cauchy_block = cauchy_block
    return twin


def mp_cauchy_moment(j, zeta):
    import mpmath
    with mpmath.workdps(30):
        z = mpmath.mpc(zeta.real, zeta.imag)
        val = mpmath.quad(lambda t: t ** j * mpmath.exp(-t * t) / (t - z),
                          [-mpmath.inf, z.real, mpmath.inf])
    return complex(val)


class TestClosedFormCauchy:
    @pytest.mark.parametrize("config", [WP, P3], ids=["wp", "p3"])
    def test_entries_match_panel_route(self, config):
        w1, w2, n, m = config
        system = RhSystem(MultiIndexPair.balanced(n, m), w1, w2)
        panel = panel_twin(system)
        rep, _ = rh_verification_report(system)
        points = [(complex(pt["re"], pt["im"]), None) for pt in rep["z_points"]]
        points += [(10j, None), (20j, None), (40j, None)]
        # boundary values on the real line: the panel twin takes them by
        # cauchy_transform with a side
        points += [(x, side) for x in rep["jump_points"] for side in "+-"]
        for z, side in points:
            for fn in ("y_matrix", "x_matrix"):
                got = getattr(system, fn)(z, side)
                want = getattr(panel, fn)(z, side)
                assert np.all(np.abs(got - want) <= 1e-10 * (1 + np.abs(want))), \
                    (fn, z, side)
        assert panel.branch_counts["recursion"] == 0
        assert sorted(rep["cauchy_branches"]) == ["asymptotic_series",
                                                  "recursion"]
        assert rep["cauchy_branches"]["asymptotic_series"] > 0

    def test_hermite_seven_asymptotics_match_panel_route(self):
        fam = WeightFamily([G(0.0, 1.0)])
        system = RhSystem(MultiIndexPair.balanced([7], [7]), fam, fam)
        closed = asymptotic_errors(system)["errors"]
        panel = asymptotic_errors(panel_twin(system))["errors"]
        assert closed == pytest.approx(panel, rel=1e-6)
        assert closed == pytest.approx([0.935, 0.531, 0.275], abs=5e-4)

    @pytest.mark.parametrize("zeta", [
        3.0 * cmath.exp(0.05j), 3.0 * cmath.exp(-2.3j),
        9.0 * cmath.exp(0.4j), 9.0 * cmath.exp(-0.5j * math.pi)],
        ids=["inner-upper", "inner-lower", "outer-upper", "outer-lower"])
    def test_moments_match_mpmath(self, zeta):
        C, series = gaussian_cauchy_moments(np.array([zeta]), 10)
        assert bool(series[0]) == (abs(zeta) >= SERIES_RADIUS)
        for j in range(11):
            want = mp_cauchy_moment(j, zeta)
            assert abs(C[0, j] - want) <= 1e-10 * abs(want), j

    @pytest.mark.parametrize("zeta", [5.9 * cmath.exp(0.01j),
                                      6.1 * cmath.exp(-0.8j)],
                             ids=["inside-upper", "outside-lower"])
    def test_moments_at_switch_radius(self, zeta):
        # Where the branches meet, both lose digits as 6^j / Gamma((j+1)/2):
        # about 2e-8 relative at j = 10 and 3e-9 at j = 7.
        C, _ = gaussian_cauchy_moments(np.array([zeta]), 10)
        for j in range(11):
            want = mp_cauchy_moment(j, zeta)
            bound = 1e-7 if j > 7 else 1e-8
            assert abs(C[0, j] - want) <= bound * abs(want), j

    def test_real_argument_rejected(self):
        with pytest.raises(ValueError):
            gaussian_cauchy_moments(np.array([0.5 + 0.0j]), 3)
        with pytest.raises(ValueError):
            RhSystem(*rank_one_pair()).y_matrix(0.5)


# ---------------------------------------------------------------------------
# Array evaluation: a batch of points against one call per point


HERMITE5 = (WeightFamily([G(0.0, 1.0)]), WeightFamily([G(0.0, 1.0)]),
            [5], [5])
# off the axis, out in the series branch (|zeta| >= 6), and on the real line
BATCH_POINTS = np.array([0.3 + 0.7j, -1.1 - 0.4j, 0.2 - 1.9j, 8j, 0.5 - 9j,
                         0.2, -0.45, 1.3])


def assert_batch_matches_points(system, points, sides):
    batch_sys = copy.copy(system)
    batch_sys.branch_counts = dict.fromkeys(BRANCHES, 0)
    single_sys = copy.copy(system)
    single_sys.branch_counts = dict.fromkeys(BRANCHES, 0)
    for side in sides:
        for fn in ("y_matrix", "x_matrix"):
            batch = getattr(batch_sys, fn)(points, side)
            assert batch.shape[0] == len(points)
            for z, got in zip(points, batch):
                want = getattr(single_sys, fn)(z, side)
                assert got.shape == want.shape
                assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want)), \
                    (fn, z, side)
    assert batch_sys.branch_counts == single_sys.branch_counts
    return batch_sys.branch_counts


class TestBatchEvaluation:
    @pytest.mark.parametrize("config", [WP, P3, HERMITE5],
                             ids=["wp", "p3", "hermite5"])
    def test_batch_equals_single_points(self, config):
        w1, w2, n, m = config
        system = RhSystem(MultiIndexPair.balanced(n, m), w1, w2)
        counts = assert_batch_matches_points(system, BATCH_POINTS, "+-")
        assert counts["recursion"] > 0 and counts["asymptotic_series"] > 0

    def test_polynomial_values_round_per_point(self):
        # bitwise: each point of an array rounds as it would alone, so the
        # cancelling high-degree sums of Hermite (12) match too
        fam = WeightFamily([G(0.0, 1.0)])
        system = RhSystem(MultiIndexPair.balanced([12], [12]), fam, fam)
        zs = np.random.default_rng(3).uniform(-2.0, 2.0, (40, 2)) @ [1, 1j]
        for stack in (system.data.x_stack, system.data.y_stack):
            np.testing.assert_array_equal(
                stack.poly_values(zs),
                np.stack([stack.poly_values(z) for z in zs], axis=-1))

    def test_jump_helpers_batch_equal_single_points(self):
        w1, w2, n, m = WP
        system = RhSystem(MultiIndexPair.balanced(n, m), w1, w2)
        xs = np.array([-0.7, 0.1, 0.9])
        J = jump_matrix(w1, w2, xs)
        reports = verify_jump(system, xs)
        assert len(reports) == len(xs)
        for x, Jx, rep in zip(xs, J, reports):
            np.testing.assert_array_equal(Jx, jump_matrix(w1, w2, x))
            assert rep == verify_jump(system, [x])[0]

    @pytest.mark.parametrize("config", [WP, P3, HERMITE5],
                             ids=["wp", "p3", "hermite5"])
    def test_mixed_sides_equal_per_group_calls(self, config):
        # bitwise, sign bits included: off-axis points, boundary values
        # from both sides (7.5 in the series branch) and the radii in one
        # call round as in a call of their own group
        w1, w2, n, m = config
        system = RhSystem(MultiIndexPair.balanced(n, m), w1, w2)
        zs = BATCH_POINTS[np.iscomplex(BATCH_POINTS)]
        xs = np.array([-0.7, 0.1, 0.9, 0.2, -0.45, 1.3, 7.5])
        radii = 1j * np.array([10.0, 20.0, 40.0])
        points = np.concatenate([zs, xs, xs, radii])
        sides = ([None] * zs.size + ["+"] * xs.size + ["-"] * xs.size
                 + [None] * radii.size)
        mixed_sys, group_sys = copy.copy(system), copy.copy(system)
        mixed_sys.branch_counts = dict.fromkeys(BRANCHES, 0)
        group_sys.branch_counts = dict.fromkeys(BRANCHES, 0)
        for fn in ("y_matrix", "x_matrix"):
            mixed = getattr(mixed_sys, fn)(points, sides)
            groups = getattr(group_sys, fn)
            want = np.concatenate([groups(zs), groups(xs, "+"),
                                   groups(xs, "-"), groups(radii)])
            np.testing.assert_array_equal(bits(mixed), bits(want))
        assert mixed_sys.branch_counts == group_sys.branch_counts

    def test_sides_must_match_points(self):
        system = RhSystem(*rank_one_pair())
        with pytest.raises(ValueError, match="2 sides for 3 points"):
            system.y_matrix(np.array([0.1, 0.2, 0.3]), ["+", "-"])

    def test_report_evaluates_in_few_array_calls(self, monkeypatch):
        # one Y call at the det points, Y+ and Y- at the jump points and
        # the three radii, and one X call at the det points: a per-point
        # loop would call the closed form 63 times
        calls = []
        exact = rh.gaussian_cauchy_moments

        def counted(zeta, degree, side=0):
            calls.append(np.shape(zeta))
            return exact(zeta, degree, side)

        matrix_calls = []
        for fn in ("y_matrix", "x_matrix"):
            def recorded(system, z, side=None, fn=fn, exact=getattr(RhSystem, fn)):
                matrix_calls.append(fn)
                return exact(system, z, side)
            monkeypatch.setattr(RhSystem, fn, recorded)
        monkeypatch.setattr(rh, "gaussian_cauchy_moments", counted)
        w1, w2, n, m = WP
        rep, _ = rh_verification_report(
            RhSystem(MultiIndexPair.balanced(n, m), w1, w2))
        assert sorted(matrix_calls) == ["x_matrix", "y_matrix"]
        assert len(calls) <= 2
        assert sum(math.prod(shape) for shape in calls) == sum(
            rep["cauchy_branches"].values())

    @pytest.mark.parametrize("seed", [0, 7, 42, 2024])
    def test_report_draws_equal_scalar_uniforms(self, seed):
        # the reference: one rng.uniform call per real part, imaginary part
        # and sign, then the 10 jump points
        system = RhSystem(*rank_one_pair())
        lo, hi = system.interval
        span = hi - lo
        rng = np.random.default_rng(seed)
        want = []
        for _ in range(20):
            re = rng.uniform(lo + 0.25 * span, hi - 0.25 * span)
            im = rng.uniform(0.1, 2.0) * (1 if rng.uniform() < 0.5 else -1)
            want.append({"re": re, "im": im})
        xs = np.sort(rng.uniform(lo + 0.3 * span, hi - 0.3 * span, 10))
        rep, _ = rh_verification_report(system, seed=seed)
        assert rep["z_points"] == want
        assert rep["jump_points"] == xs.tolist()

    @pytest.mark.parametrize("config", [WP, P3], ids=["wp", "p3"])
    def test_report_slices_equal_separate_calls(self, config):
        # the one Y pass gives the jump rows and asymptotics of calls of
        # their own, and Y at the det points
        w1, w2, n, m = config
        system = RhSystem(MultiIndexPair.balanced(n, m), w1, w2)
        rep, y0 = rh_verification_report(system)
        assert rep["jump_details"] == verify_jump(system, rep["jump_points"])
        asym = asymptotic_errors(system)
        assert rep["asymptotic_errors"] == asym["errors"]
        assert rep["asymptotic_ratios"] == asym["ratios"]
        z0 = complex(rep["z_points"][0]["re"], rep["z_points"][0]["im"])
        np.testing.assert_array_equal(bits(y0), bits(system.y_matrix(z0)))

    def test_misaligned_points_fail_inverse_transpose(self, monkeypatch):
        # X evaluated at the det points in reverse order no longer pairs
        # with Y, while Y alone still has unit determinant
        system = RhSystem(*rank_one_pair())
        assert rh_verification_report(system)[0]["passed"]["inverse_transpose"]
        exact = system.x_matrix
        monkeypatch.setattr(system, "x_matrix", lambda z, side=None: exact(
            np.asarray(z)[::-1], side))
        rep, _ = rh_verification_report(system)
        assert not rep["passed"]["inverse_transpose"]
        assert rep["x_y_max"] > 1e-3
        assert rep["passed"]["det"]


# ---------------------------------------------------------------------------
# The polynomial blocks of Y and X from the CD form stacks


def brownian_problem(starts, ends, t):
    """(pair, w1, w2) of a Brownian configuration as a weight problem."""
    w1, w2, pair = config_to_weights(BrownianConfig.from_json_dict(
        {"starts": starts, "ends": ends, "t": t, "n_scaling": True}))
    return pair, w1, w2


def hermite_problem(degree):
    fam = WeightFamily([G(0.0, 1.0)])
    return MultiIndexPair.balanced([degree], [degree]), fam, fam


STACK_PROBLEMS = {
    "wp": (MultiIndexPair.balanced(WP[2], WP[3]), WP[0], WP[1]),
    "p3": (MultiIndexPair.balanced(P3[2], P3[3]), P3[0], P3[1]),
    "hermite1": hermite_problem(1),
    "hermite12": hermite_problem(12),
    # zero-padded degree-0 rows in a stack of degree-1 rows
    "two_start_1": brownian_problem([[-1.0, 1], [1.0, 1]], [[0.0, 2]], 0.5),
    "br": brownian_problem([[-1.0, 1], [0.0, 1], [1.0, 1]],
                           [[-1.0, 1], [0.5, 1], [1.0, 1]], 0.5),
}


def bits(a):
    return np.ascontiguousarray(a).view(np.int64)


class TestPolynomialBlocksFromStacks:
    @pytest.mark.parametrize("problem", sorted(STACK_PROBLEMS))
    def test_blocks_match_per_form_horner_bit_for_bit(self, problem):
        # sign bits count: a padded stack that wrote the real and imaginary
        # parts separately would leave -0 where the per-form Horner has +0
        system = RhSystem(*STACK_PROBLEMS[problem])
        data, p = system.data, system.data.p
        rep, _ = rh_verification_report(system)
        zs = np.array([complex(pt["re"], pt["im"]) for pt in rep["z_points"]])
        cases = [(zs, None), (1j * np.array([10.0, 20.0, 40.0]), None)]
        cases += [(np.array(rep["jump_points"]), side) for side in "+-"]
        for points, side in cases:
            blocks = {"y": system.y_matrix(points, side)[..., :p],
                      "x": system.x_matrix(points, side)[..., p:]}
            for name, got in blocks.items():
                want = rh_poly_block_oracle(data, name, points)
                assert np.array_equal(bits(got), bits(want)), (name, side)

    def test_closed_form_path_calls_no_solution_method(self, monkeypatch):
        system = RhSystem(*STACK_PROBLEMS["wp"])

        def refuse(*args, **kwargs):
            raise AssertionError("per-solution evaluation")

        for name, attr in list(vars(MixedMopSolution).items()):
            if isinstance(attr, cached_property):
                monkeypatch.setattr(MixedMopSolution, name, property(refuse))
            elif callable(attr) and not name.startswith("__"):
                monkeypatch.setattr(MixedMopSolution, name, refuse)
        with pytest.raises(AssertionError):
            system.data.x_forms[0].form(0.0)
        rep, _ = rh_verification_report(system)
        assert sorted(rep["cauchy_branches"]) == ["asymptotic_series",
                                                  "recursion"]
        xs = np.linspace(-2.0, 2.0, 41)
        kernel_rh_grid(system.data, xs, xs)

    def test_one_stack_evaluation_per_matrix(self, monkeypatch):
        system = RhSystem(*STACK_PROBLEMS["p3"])
        calls = []
        exact = FormStack.poly_values

        def counted(stack, x):
            calls.append(stack)
            return exact(stack, x)

        monkeypatch.setattr(FormStack, "poly_values", counted)
        zs = np.array([0.3 + 0.7j, -1.1 - 0.4j, 8j])
        for fn, stack in (("y_matrix", system.data.x_stack),
                          ("x_matrix", system.data.y_stack)):
            calls.clear()
            getattr(system, fn)(zs)
            assert len(calls) == 1 and calls[0] is stack
