"""Riemann-Hilbert route: quadrature backends, Y/X assembly, certificates."""

import cmath
import copy
import math

import numpy as np
import pytest
from scipy.integrate import quad

from mixedmop import (AccuracyError, MultiIndexPair, RhSystem, Weight,
                      WeightFamily, build_cd_data, eval_X, eval_Y,
                      kernel_cd, kernel_cd_grid, kernel_direct_grid,
                      kernel_rh, kernel_rh_grid, rh_verification_report,
                      verify_jump)
from mixedmop.kernel import build_biorthogonal, relative_discrepancy
from mixedmop.rh import (BRANCHES, JUMP_DELTAS, SERIES_RADIUS,
                         adaptive_panel_integral, asymptotic_errors,
                         cauchy_boundary_plemelj, cauchy_transform,
                         gaussian_cauchy_moments, jump_matrix,
                         richardson_extrapolate, write_matrix_csv)

from conftest import assert_band_matches_oracle, band_grids, \
    csv_oracle_bytes, faddeeva_cauchy_gaussian

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
        f = gaussian_callable(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            cauchy_transform(f, (-13.0, 13.0), 0.5 + 0.0j, spread=1.0)


class TestBoundaryValues:
    def test_plemelj_matches_faddeeva_on_minus_side(self):
        c, v, a = 0.1, 0.8, 1.0
        f = gaussian_callable(c, v, a)
        for x in (-0.7, 0.0, 1.2):
            val, err = cauchy_boundary_plemelj(f, (-13.0, 13.0), x, "-")
            expect = faddeeva_cauchy_gaussian([1.0], c, v, a, complex(x))
            assert val == pytest.approx(expect, rel=1e-9)
            assert err < 1e-9

    def test_plemelj_sides_differ_by_residue(self):
        f = gaussian_callable(0.0, 1.0, 1.0)
        x = 0.3
        plus, _ = cauchy_boundary_plemelj(f, (-13.0, 13.0), x, "+")
        minus, _ = cauchy_boundary_plemelj(f, (-13.0, 13.0), x, "-")
        assert (plus - minus) == pytest.approx(
            2j * math.pi * math.exp(-0.5 * x * x), rel=1e-12)

    def test_plemelj_agrees_with_richardson_ladder(self):
        f = gaussian_callable(0.0, 1.0, 1.0)
        x = 0.25
        expect, _ = cauchy_boundary_plemelj(f, (-13.0, 13.0), x, "+")
        vals = [cauchy_transform(f, (-13.0, 13.0), complex(x, d), spread=1.0)[0]
                for d in JUMP_DELTAS]
        ladder = complex(richardson_extrapolate(vals, JUMP_DELTAS))
        assert ladder == pytest.approx(expect, abs=2e-7)

    def test_outside_interval_rejected(self):
        f = gaussian_callable(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            cauchy_boundary_plemelj(f, (-1.0, 1.0), 2.0, "+")


class TestJumpMatrix:
    def test_block_structure(self):
        w1 = WeightFamily([Weight.gaussian(-1.0, 1.0, 1.0),
                           Weight.gaussian(1.0, 1.0, 1.0)])
        w2 = WeightFamily([Weight.gaussian(0.0, 1.0, 1.0)])
        J = jump_matrix(w1, w2, 0.4).value
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
            assert np.linalg.det(jump_matrix(w1, w2, x).value) == 1.0


class TestYMatrix:
    def test_frozen_rank_one_values(self):
        pair, w1, w2 = rank_one_pair()
        system = RhSystem(pair, w1, w2)
        Y, acc = system.y_matrix(2j)
        assert Y.shape == (2, 2)
        assert Y[0, 0] == pytest.approx(2j, abs=1e-12)
        assert abs(np.linalg.det(Y) - 1.0) < 1e-8
        assert np.max(acc) < 1e-9

    def test_entries_against_faddeeva_oracle(self):
        pair, w1, w2 = rank_one_pair()
        system = RhSystem(pair, w1, w2)
        z = 0.6 + 0.9j
        Y, _ = system.y_matrix(z)
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
        with pytest.raises(ValueError):
            eval_Y(pair, w1, w2, 0.5)

    def test_determinant_one_off_axis_mixed_config(self):
        w1 = WeightFamily([Weight.gaussian(-0.8, 0.9, 1.0),
                           Weight.gaussian(0.8, 1.1, 1.0)])
        w2 = WeightFamily([Weight.gaussian(0.0, 1.0, 1.0)])
        system = RhSystem(MultiIndexPair.balanced([2, 1], [3]), w1, w2)
        for z in (1.5j, 1.0 - 0.7j, -2.0 + 0.4j):
            Y, _ = system.y_matrix(z)
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
        Y, _ = system.y_matrix(z)
        X, _ = system.x_matrix(z)
        assert np.max(np.abs(X.T @ Y - np.eye(2))) < 1e-7

    def test_transpose_inverse_mixed_config(self):
        w1 = WeightFamily([Weight.gaussian(-0.8, 0.9, 1.0),
                           Weight.gaussian(0.8, 1.1, 1.0)])
        w2 = WeightFamily([Weight.gaussian(-0.3, 1.0, 1.0),
                           Weight.gaussian(0.5, 0.8, 1.0)])
        system = RhSystem(MultiIndexPair.balanced([2, 1], [2, 1]), w1, w2)
        Y, _ = system.y_matrix(1.0 + 1.0j)
        X, _ = system.x_matrix(1.0 + 1.0j)
        assert np.max(np.abs(X.T @ Y - np.eye(4))) < 1e-7

    def test_jump_with_lower_triangular_factor(self):
        pair, w1, w2 = rank_one_pair()
        system = RhSystem(pair, w1, w2)
        x = 0.2
        JX = np.eye(2)
        W = np.outer(w1.values(np.array([x])).ravel(),
                     w2.values(np.array([x])).ravel())
        JX[1:, :1] = -W.T
        diffs = []
        for d in JUMP_DELTAS:
            Xp, _ = system.x_matrix(complex(x, d))
            Xm, _ = system.x_matrix(complex(x, -d))
            diffs.append(Xp - Xm @ JX)
        extrap = richardson_extrapolate(diffs, JUMP_DELTAS)
        norm = float(np.max(np.abs(Xp)))
        assert float(np.max(np.abs(extrap))) < 1e-6 * max(norm, 1.0)

    def test_asymptotics_with_negated_exponents(self):
        pair, w1, w2 = rank_one_pair()
        system = RhSystem(pair, w1, w2)
        errors = []
        for R in (10.0, 20.0, 40.0):
            z = complex(0.0, R)
            X, _ = system.x_matrix(z)
            scales = np.array([z ** nl for nl in pair.n.parts]
                              + [z ** (-mk) for mk in pair.m.parts])
            errors.append(float(np.max(np.abs(X * scales[None, :]
                                              - np.eye(2)))))
        assert errors[0] / errors[1] >= 1.8
        assert errors[1] / errors[2] >= 1.8

    def test_eval_x_boundary_side(self):
        pair, w1, w2 = rank_one_pair()
        ev = eval_X(pair, w1, w2, 0.1, side="+")
        assert ev.side == "+"
        assert ev.matrix.shape == (2, 2)


class TestJumpVerification:
    def test_rank_one_at_origin(self):
        pair, w1, w2 = rank_one_pair()
        system = RhSystem(pair, w1, w2)
        rep = verify_jump(system, 0.0)
        assert rep["passed"]
        assert rep["extrapolated_residual"] < 1e-6 * max(rep["y_norm"], 1.0)
        assert rep["deltas"] == list(JUMP_DELTAS)
        assert len(rep["residuals_per_delta"]) == len(JUMP_DELTAS)

    def test_polynomial_columns_carry_no_jump(self):
        pair, w1, w2 = rank_one_pair()
        system = RhSystem(pair, w1, w2)
        x = 0.35
        J = jump_matrix(w1, w2, x).value
        Ym, _ = system.y_matrix(complex(x, -1e-2))
        np.testing.assert_array_equal((Ym @ J)[:, :1], Ym[:, :1])
        # the extrapolated one-sided boundary values share the entire block
        plus = eval_Y(pair, w1, w2, x, side="+", system=system).matrix
        minus = eval_Y(pair, w1, w2, x, side="-", system=system).matrix
        assert np.max(np.abs(plus[:, :1] - minus[:, :1])) < 1e-8


class TestRhKernelRoute:
    def test_matches_cd_pointwise(self):
        pair, w1, w2 = rank_one_pair()
        data = build_cd_data(pair, w1, w2)
        for x, y in ((0.5, -0.1), (1.2, 0.3), (-0.9, 1.1)):
            assert kernel_rh(data, x, y) == pytest.approx(
                kernel_cd(data, x, y), rel=1e-10, abs=1e-13)

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
        val = kernel_rh(data, 0.7, -0.2)
        assert isinstance(val, float)


class TestVerificationReport:
    def test_report_keys_and_certificates(self):
        pair, w1, w2 = rank_one_pair()
        system = RhSystem(pair, w1, w2)
        rep = rh_verification_report(system, det_points=6, jump_points=3)
        for key in ("det_residuals", "det_max", "x_y_consistency", "x_y_max",
                    "jump_points", "jump_residuals", "jump_details",
                    "asymptotic_errors", "asymptotic_ratios", "passed"):
            assert key in rep
        assert len(rep["det_residuals"]) == 6
        assert len(rep["jump_residuals"]) == 3
        assert rep["passed"] == {"det": True, "inverse_transpose": True,
                                 "jump": True, "asymptotics": True}

    def test_report_is_seed_deterministic(self):
        pair, w1, w2 = rank_one_pair()
        system = RhSystem(pair, w1, w2)
        a = rh_verification_report(system, seed=7, det_points=2, jump_points=1)
        b = rh_verification_report(system, seed=7, det_points=2, jump_points=1)
        assert a["z_points"] == b["z_points"]
        assert a["det_residuals"] == b["det_residuals"]

    def test_matrix_csv_layout(self, tmp_path):
        path = tmp_path / "y.csv"
        write_matrix_csv(str(path), np.array([[1.0 + 2.0j, 0.0],
                                              [3.0, -1.0j]]))
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
        write_matrix_csv(str(path), matrix)
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
    """The same system (same solves) with every Cauchy entry by panels."""
    twin = copy.copy(system)
    twin._closed = None
    twin.branch_counts = dict.fromkeys(BRANCHES, 0)
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
        rep = rh_verification_report(system)
        zs = [complex(pt["re"], pt["im"]) for pt in rep["z_points"]]
        zs += [complex(x, s * JUMP_DELTAS[-1]) for x in rep["jump_points"]
               for s in (1, -1)]
        zs += [10j, 20j, 40j]
        p = len(w1)
        cauchy_columns = {"y_matrix": np.s_[:, p:], "x_matrix": np.s_[:, :p]}
        for z in zs:
            for fn, cols in cauchy_columns.items():
                got, acc = getattr(system, fn)(z)
                want, _ = getattr(panel, fn)(z)
                assert np.all(np.abs(got - want) <= 1e-10 * (1 + np.abs(want))), \
                    (fn, z)
                assert np.all(acc[cols] > 0) and np.all(acc[cols] < 1e-9)
        assert system.branch_counts["panel"] == 0
        assert panel.branch_counts["recursion"] == 0
        assert rep["cauchy_branches"]["panel"] == 0
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
        C, err, series = gaussian_cauchy_moments(np.array([zeta]), 10)
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
        C, _, _ = gaussian_cauchy_moments(np.array([zeta]), 10)
        for j in range(11):
            want = mp_cauchy_moment(j, zeta)
            bound = 1e-7 if j > 7 else 1e-8
            assert abs(C[0, j] - want) <= bound * abs(want), j

    def test_real_argument_rejected(self):
        with pytest.raises(ValueError):
            gaussian_cauchy_moments(np.array([0.5 + 0.0j]), 3)

    def test_tabulated_family_uses_panels(self):
        pair, w1, w2 = rank_one_pair()
        gauss = gaussian_callable(0.0, 1.0, 1.0)
        tab = WeightFamily([Weight.tabulated(gauss, (-12.0, 12.0))])
        system = RhSystem(pair, tab, tab)
        Y, acc = system.y_matrix(1.0 + 1.0j)
        assert system.branch_counts == {"recursion": 0,
                                        "asymptotic_series": 0, "panel": 2}
        closed = RhSystem(pair, w1, w2)
        Yc, _ = closed.y_matrix(1.0 + 1.0j)
        assert closed.branch_counts["panel"] == 0
        np.testing.assert_allclose(Y, Yc, rtol=1e-9, atol=1e-12)
