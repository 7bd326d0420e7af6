"""Multi-index pairs, the orthogonality system, solves, and normality."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from mixedmop import (BrownianConfig, MultiIndex, MultiIndexPair,
                      Normalization, NotNormalizable, Weight, WeightFamily,
                      check_normality, moment_table_for, solve_mixed)
from mixedmop import mop
from mixedmop.mop import (EXTENDED_MAX_UNKNOWNS, moment_matrix, numerical_rank,
                          affine_rebase, pair_layouts)
from mixedmop.weights import build_moment_table

from conftest import classical_type1, classical_type2, nullspace_oracle, \
    random_balanced_parts, random_gaussian_families

SQRT_PI = math.sqrt(math.pi)


class TestMultiIndex:
    def test_size_and_bump(self):
        n = MultiIndex((2, 3))
        assert n.size == 5
        assert n.bumped(1, 1).parts == (2, 4)
        assert n.bumped(0, -1).parts == (1, 3)

    def test_rejects_negative_parts(self):
        with pytest.raises(ValueError):
            MultiIndex((1, -1))

    def test_pair_relations(self):
        assert MultiIndexPair.defining([2], [1]).relation == "defining"
        assert MultiIndexPair.balanced([2, 1], [3]).relation == "balanced"

    def test_pair_rejects_wrong_totals(self):
        with pytest.raises(ValueError):
            MultiIndexPair.defining([2], [2])
        with pytest.raises(ValueError):
            MultiIndexPair.balanced([2], [1])

    def test_balanced_rejects_zero_parts(self):
        with pytest.raises(ValueError):
            MultiIndexPair.balanced([2, 0], [1, 1])
        with pytest.raises(ValueError):
            MultiIndexPair.balanced([1, 1], [2, 0])

    def test_defining_allows_zero_condition_side(self):
        pair = MultiIndexPair.defining([1], [0])
        assert pair.m.parts == (0,)

    def test_first_index_parts_stay_positive(self):
        with pytest.raises(ValueError):
            MultiIndexPair.defining([0, 1], [0])

    @pytest.mark.parametrize("build", [
        lambda: MultiIndex((2.9, 1)),
        lambda: MultiIndex((2, "1")),
        lambda: MultiIndexPair.balanced([True, 2.5], [1, 2]),
        lambda: MultiIndexPair.defining([3], [np.float64(2.0)]),
        lambda: Normalization.type2(True),
        lambda: Normalization("I", 0.0),
        lambda: BrownianConfig(starts=((-1.0, 1.7), (1.0, 1)),
                               ends=((-1.0, 1), (1.0, 1)), time=0.5),
        lambda: BrownianConfig(starts=((-1.0, 1), (1.0, 1)),
                               ends=((-1.0, True), (1.0, 1)), time=0.5),
        lambda: BrownianConfig(starts=((False, 1),), ends=((0.0, 1),),
                               time=0.5),
        lambda: BrownianConfig(starts=(("0.5", 1),), ends=((0.0, 1),),
                               time=0.5),
    ], ids=["float-part", "str-part", "bool-and-float-parts",
            "numpy-float-part", "bool-normalization-index",
            "float-normalization-index", "float-multiplicity",
            "bool-multiplicity", "bool-point", "str-point"])
    def test_constructors_refuse_inexact_values(self, build):
        with pytest.raises(ValueError):
            build()
        # integers of either kind, and real points, are taken as given
        assert MultiIndex((np.int64(2), 1)).parts == (2, 1)
        cfg = BrownianConfig(starts=((np.float32(-1.0), np.int32(1)), (1, 1)),
                             ends=((-1.0, 1), (1.0, 1)), time=0.5)
        assert cfg.starts == ((-1.0, 1), (1.0, 1))


class TestOrthogonalityMatrix:
    def test_frozen_one_by_two(self, unit_gaussian):
        # n=(2), m=(1): single row of zeroth and first product moments
        fam = WeightFamily([unit_gaussian])
        pair = MultiIndexPair.defining([2], [1])
        table = moment_table_for(pair, fam, fam)
        M = moment_matrix(table.values, *pair_layouts(pair, table))
        assert M.shape == (1, 2)
        np.testing.assert_allclose(M, [[SQRT_PI, 0.0]], atol=1e-14)

    def test_shape_counts_conditions_and_coefficients(self):
        rng = np.random.default_rng(7)
        w1, w2 = random_gaussian_families(rng, 2, 2)
        pair = MultiIndexPair.defining([2, 2], [2, 1])
        table = moment_table_for(pair, w1, w2)
        M = moment_matrix(table.values, *pair_layouts(pair, table))
        assert M.shape == (3, 4)

    def test_two_weight_row_contains_cross_moments(self):
        w1 = WeightFamily([Weight.gaussian(-1.0, 1.0, 1.0),
                           Weight.gaussian(1.0, 1.0, 1.0)])
        w2 = WeightFamily([Weight.gaussian(0.0, 1.0, 1.0)])
        pair = MultiIndexPair.defining([1, 1], [1])
        table = moment_table_for(pair, w1, w2)
        M = moment_matrix(table.values, *pair_layouts(pair, table))
        assert M.shape == (1, 2)
        for col, j in ((0, 0), (1, 1)):
            expect, _ = quad(lambda x: w1[j](x) * w2[0](x), -14, 14,
                             limit=300, epsabs=1e-13)
            assert M[0, col] == pytest.approx(expect, rel=1e-10)


class TestSolveMixed:
    def test_degree_one_solution_is_x(self, unit_gaussian):
        fam = WeightFamily([unit_gaussian])
        pair = MultiIndexPair.defining([2], [1])
        table = moment_table_for(pair, fam, fam)
        sol = solve_mixed(pair, table, Normalization.type2(0))
        np.testing.assert_allclose(sol.polynomials_original()[0], [0.0, 1.0],
                                   atol=1e-14)

    def test_empty_condition_set_gives_constant_one(self, unit_gaussian):
        fam = WeightFamily([unit_gaussian])
        pair = MultiIndexPair.defining([1], [0])
        table = moment_table_for(pair, fam, fam)
        sol = solve_mixed(pair, table, Normalization.type2(0))
        np.testing.assert_allclose(sol.polynomials_original()[0], [1.0])

    def test_residual_small_for_mixed_two_by_two(self):
        w1 = WeightFamily([Weight.gaussian(-1.0, 1.0, 1.0),
                           Weight.gaussian(1.0, 1.0, 1.0)])
        w2 = WeightFamily([Weight.gaussian(-0.5, 1.0, 1.0),
                           Weight.gaussian(0.5, 1.0, 1.0)])
        pair = MultiIndexPair.defining([2, 2], [2, 1])
        table = moment_table_for(pair, w1, w2)
        sol = solve_mixed(pair, table, Normalization.type2(0))
        assert sol.residual < 1e-10

    def test_against_nullspace_oracle(self):
        # the solved direction must align with the one-dimensional null space
        rng = np.random.default_rng(11)
        for _ in range(6):
            p, q = rng.integers(1, 3, size=2)
            total = int(rng.integers(max(p, q) + 1, 7))
            n = random_balanced_parts(rng, p, total)
            m = random_balanced_parts(rng, q, total - 1)
            w1, w2 = random_gaussian_families(rng, p, q)
            pair = MultiIndexPair.defining(n, m)
            table = moment_table_for(pair, w1, w2)
            M = moment_matrix(table.values, *pair_layouts(pair, table))
            ns = nullspace_oracle(M)
            if ns.shape[1] != 1:
                continue
            sol = solve_mixed(pair, table, Normalization.type2(0))
            vec = np.concatenate(sol.coeffs)
            cosang = abs(ns[:, 0] @ vec) / (np.linalg.norm(vec))
            assert 1.0 - cosang < 1e-8

    def test_orthogonality_by_independent_quadrature(self):
        rng = np.random.default_rng(23)
        w1, w2 = random_gaussian_families(rng, 2, 1)
        pair = MultiIndexPair.defining([2, 1], [2])
        table = moment_table_for(pair, w1, w2)
        sol = solve_mixed(pair, table, Normalization.type1(0))
        scale = max(np.max(np.abs(np.concatenate(sol.coeffs))), 1.0)
        for j in range(2):
            val, _ = quad(lambda x: float(sol.form(x)) * x ** j * w2[0](x),
                          -16, 16, limit=400, epsabs=1e-13)
            assert abs(val) / scale < 1e-8

    def test_type1_normalization_integral_is_one(self):
        rng = np.random.default_rng(29)
        w1, w2 = random_gaussian_families(rng, 1, 2)
        pair = MultiIndexPair.defining([3], [1, 1])
        table = moment_table_for(pair, w1, w2)
        for k in range(2):
            sol = solve_mixed(pair, table, Normalization.type1(k))
            power = pair.m.parts[k]
            val, _ = quad(lambda x: float(sol.form(x)) * x ** power * w2[k](x),
                          -16, 16, limit=400, epsabs=1e-13)
            assert val == pytest.approx(1.0, abs=1e-8)

    def test_type2_leading_coefficient_exact(self):
        w1 = WeightFamily([Weight.gaussian(-2.0, 0.7, 1.0),
                           Weight.gaussian(1.5, 1.3, 0.8)])
        w2 = WeightFamily([Weight.gaussian(0.3, 1.1, 1.2)])
        pair = MultiIndexPair.defining([3, 2], [4])
        table = moment_table_for(pair, w1, w2)
        for k in range(2):
            sol = solve_mixed(pair, table, Normalization.type2(k))
            poly = sol.polynomials_original()[k]
            assert poly[-1] == 1.0
            assert len(poly) - 1 == pair.n.parts[k] - 1

    def test_two_normalizations_are_proportional(self, unit_gaussian):
        fam2 = WeightFamily([Weight.gaussian(0.0, 1.0, 1.0),
                             Weight.gaussian(1.0, 1.0, 1.0)])
        fam1 = WeightFamily([unit_gaussian])
        pair = MultiIndexPair.defining([3], [1, 1])
        table = moment_table_for(pair, fam1, fam2)
        a = np.concatenate(solve_mixed(pair, table,
                                       Normalization.type2(0)).coeffs)
        b = np.concatenate(solve_mixed(pair, table,
                                       Normalization.type1(1)).coeffs)
        cosang = abs(a @ b) / (np.linalg.norm(a) * np.linalg.norm(b))
        assert 1.0 - cosang < 1e-10

    def test_not_normalizable_carries_report(self):
        w = Weight.gaussian(0.5, 1.0, 1.0)
        w1 = WeightFamily([Weight.gaussian(-1.0, 1.0, 1.0),
                           Weight.gaussian(1.0, 1.0, 1.0)])
        w2 = WeightFamily([w, w])  # duplicated second-family weight
        pair = MultiIndexPair.defining([2, 1], [1, 1])
        table = moment_table_for(pair, w1, w2)
        with pytest.raises(NotNormalizable) as info:
            solve_mixed(pair, table, Normalization.type2(0))
        assert info.value.report is not None
        assert info.value.report.kernel_dimension >= 2

    def test_extended_precision_agrees_with_double(self, unit_gaussian):
        fam = WeightFamily([unit_gaussian])
        pair = MultiIndexPair.defining([4], [3])
        table = moment_table_for(pair, fam, fam)
        d = solve_mixed(pair, table, Normalization.type2(0))
        e = mop._solve_mixed_extended(pair, table, Normalization.type2(0))
        assert d.precision == "double"
        np.testing.assert_allclose(np.concatenate(e.coeffs),
                                   np.concatenate(d.coeffs),
                                   rtol=1e-12, atol=1e-14)
        assert e.precision == "extended"

    def test_extended_type1_agrees_with_double(self):
        # the type I row is scale^{m_k} times the moment row of order m_k
        # in both precisions; a family off the origin puts the basis center
        # away from 0, which the row no longer reads
        w1 = WeightFamily([Weight.gaussian(-0.6, 0.8, 1.0),
                           Weight.gaussian(0.7, 1.2, 0.9)])
        w2 = WeightFamily([Weight.gaussian(0.4, 1.0, 1.1)])
        pair = MultiIndexPair.defining([3, 2], [4])
        table = moment_table_for(pair, w1, w2)
        d = solve_mixed(pair, table, Normalization.type1(0))
        e = mop._solve_mixed_extended(pair, table, Normalization.type1(0))
        np.testing.assert_allclose(np.concatenate(e.coeffs),
                                   np.concatenate(d.coeffs), rtol=1e-9)
        # the residual of the returned doubles: their rounding, no more
        assert 1e-30 < e.residual < 1e-15

    @pytest.mark.parametrize("degree, kind", [
        *[pytest.param(d, "II", id=str(d)) for d in (11, 19, 25, 31)],
        *[pytest.param(d, "I", id=f"I-{d}") for d in (11, 19, 25, 31)]])
    def test_hermite_past_the_double_gate_falls_back(self, unit_gaussian,
                                                     degree, kind):
        # double calls these systems singular; extended solves them.  The
        # product weight is exp(-x^2), so the type II answer is H_d / 2^d,
        # and the type I polynomial, the same direction with integral
        # A x^d e^{-x^2} dx = 1, is H_d / (sqrt(pi) d!).
        fam = WeightFamily([unit_gaussian])
        pair = MultiIndexPair.defining([degree + 1], [degree])
        norm = Normalization.type2(0) if kind == "II" else Normalization.type1(0)
        sol = solve_mixed(pair, moment_table_for(pair, fam, fam), norm)
        assert sol.precision == "extended"
        want = np.polynomial.hermite.herm2poly([0.0] * degree + [1.0]) \
            / (2.0 ** degree if kind == "II" else SQRT_PI * math.factorial(degree))
        got = sol.polynomials_original()[0]
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("degree", [11, 19])
    def test_extended_residual_is_that_of_the_doubles(self, unit_gaussian,
                                                      degree):
        # On N(0, 0.7) the scaled-basis coefficients are not dyadic, so the
        # doubles returned miss the 60-digit solution and their residual
        # shows it.  On N(0, 1) they are H_d / 2^d, exact in double, and
        # the residual stays at the 60-digit moments' level.
        pair = MultiIndexPair.defining([degree + 1], [degree])
        narrow = WeightFamily([Weight.gaussian(0.0, 0.7, 1.0)])
        unit = WeightFamily([unit_gaussian])
        sols = [solve_mixed(pair, moment_table_for(pair, fam, fam),
                            Normalization.type2(0)) for fam in (narrow, unit)]
        assert [s.precision for s in sols] == ["extended", "extended"]
        assert 1e-30 < sols[0].residual < 1e-9
        assert sols[1].residual < 1e-60

    def test_hermite_twenty_solves_exactly(self, unit_gaussian):
        # an interval solve proves the degree-20 system nonsingular; the
        # monic answer H_20 / 2^20 has double coefficients and comes out exact
        fam = WeightFamily([unit_gaussian])
        pair = MultiIndexPair.defining([21], [20])
        sol = solve_mixed(pair, moment_table_for(pair, fam, fam),
                          Normalization.type2(0))
        assert sol.precision == "extended"
        want = np.polynomial.hermite.herm2poly([0.0] * 20 + [1.0]) / 2.0 ** 20
        np.testing.assert_array_equal(sol.polynomials_original()[0], want)

    def test_fallback_only_for_small_systems(self, unit_gaussian, monkeypatch):
        calls = []

        def extended(pair, table, normalization):
            calls.append(pair.n.size)
            return "extended"

        def hermite(size):
            pair = MultiIndexPair.defining([size], [size - 1])
            return solve_mixed(pair, moment_table_for(pair, fam, fam),
                               Normalization.type2(0))

        monkeypatch.setattr(mop, "_solve_mixed_extended", extended)
        fam = WeightFamily([unit_gaussian])
        assert hermite(EXTENDED_MAX_UNKNOWNS) == "extended"
        with pytest.raises(NotNormalizable, match="exceeds the extended cap"):
            hermite(EXTENDED_MAX_UNKNOWNS + 1)
        assert calls == [EXTENDED_MAX_UNKNOWNS]


class TestClassicalReductions:
    def test_type1_single_gaussian_constant(self, squared_exp_gaussian):
        # weight e^{-x^2}: normalized constant form 1/sqrt(pi) e^{-x^2}
        sol = classical_type1(WeightFamily([squared_exp_gaussian]), [1])
        np.testing.assert_allclose(sol.polynomials_original()[0],
                                   [1.0 / SQRT_PI], rtol=1e-12)

    def test_type1_even_weight_parity(self, unit_gaussian):
        sol = classical_type1(WeightFamily([unit_gaussian]), [2])
        coeffs = sol.polynomials_original()[0]
        # degree-1 polynomial for an even weight: odd part only
        assert abs(coeffs[0]) < 1e-12 * max(abs(coeffs[1]), 1.0)

    def test_type1_two_weight_solvable(self):
        fam = WeightFamily([Weight.gaussian(-2.0, 0.5, 1.0),
                            Weight.gaussian(2.0, 0.5, 1.0)])
        sol = classical_type1(fam, [2, 2])
        assert sol.residual < 1e-10

    def test_type2_degree_one(self, squared_exp_gaussian):
        sol = classical_type2(WeightFamily([squared_exp_gaussian]), [1])
        np.testing.assert_allclose(sol.polynomials_original()[0], [0.0, 1.0],
                                   atol=1e-13)

    def test_type2_degree_two_frozen(self, squared_exp_gaussian):
        # Gram-Schmidt on moments {sqrt(pi), 0, sqrt(pi)/2}: x^2 - 1/2
        sol = classical_type2(WeightFamily([squared_exp_gaussian]), [2])
        np.testing.assert_allclose(sol.polynomials_original()[0],
                                   [-0.5, 0.0, 1.0], atol=1e-12)

    @pytest.mark.parametrize("degree", [11, 15, 19, 20, 25])
    def test_type2_hermite_through_extended_fallback(self, squared_exp_gaussian,
                                                     degree):
        # on e^{-x^2} the monic polynomial is H_d / 2^d, whose coefficients
        # are doubles; g = N(0, 1) and W / g = N(0, 1) split e^{-x^2} exactly
        sol = classical_type2(WeightFamily([squared_exp_gaussian]), [degree])
        want = np.polynomial.hermite.herm2poly([0] * degree + [1]) / 2.0 ** degree
        assert sol.precision == "extended"
        np.testing.assert_array_equal(sol.polynomials_original()[0], want)

    def test_type2_duplicated_weights_degenerate(self, unit_gaussian):
        fam = WeightFamily([unit_gaussian, unit_gaussian])
        with pytest.raises(NotNormalizable):
            classical_type2(fam, [1, 1])


class TestNormality:
    def test_simple_gaussian_pair_is_normal(self, unit_gaussian):
        fam = WeightFamily([unit_gaussian])
        pair = MultiIndexPair.defining([2], [1])
        table = moment_table_for(pair, fam, fam)
        rep = check_normality(pair, table)
        assert rep.normal
        assert rep.kernel_dimension == 1
        assert all(rep.typeI_admissible) and all(rep.typeII_admissible)

    def test_duplicated_weight_not_normal(self):
        w = Weight.gaussian(0.5, 1.0, 1.0)
        w1 = WeightFamily([Weight.gaussian(-1.0, 1.0, 1.0),
                           Weight.gaussian(1.0, 1.0, 1.0)])
        w2 = WeightFamily([w, w])
        pair = MultiIndexPair.defining([2, 1], [1, 1])
        table = moment_table_for(pair, w1, w2)
        rep = check_normality(pair, table)
        assert not rep.normal
        assert rep.kernel_dimension >= 2

    def test_rank_invariant_under_basis_change(self):
        rng = np.random.default_rng(31)
        w1, w2 = random_gaussian_families(rng, 2, 1)
        pair = MultiIndexPair.defining([2, 2], [3])
        kmax = moment_table_for(pair, w1, w2).kmax
        for center, scale in ((0.0, 1.0), (0.5, 2.0), (-1.0, 3.0)):
            table = build_moment_table(w1, w2, kmax, center=center,
                                       scale=scale)
            rep = check_normality(pair, table)
            assert rep.kernel_dimension == 1

    def test_report_serializes(self, unit_gaussian):
        fam = WeightFamily([unit_gaussian])
        pair = MultiIndexPair.defining([2], [1])
        table = moment_table_for(pair, fam, fam)
        d = check_normality(pair, table).to_json_dict()
        assert d["kernel_dimension"] == 1
        assert isinstance(d["typeI_admissible"], list)


class TestBasisConversion:
    def test_shifted_to_monomial_round_trip(self):
        rng = np.random.default_rng(3)
        coeffs = rng.standard_normal(5)
        c, s = 0.7, 2.3
        mono = affine_rebase(coeffs, -c / s, 1.0 / s)
        xs = np.linspace(-2, 2, 9)
        u = (xs - c) / s
        np.testing.assert_allclose(np.polynomial.polynomial.polyval(xs, mono),
                                   np.polynomial.polynomial.polyval(u, coeffs),
                                   rtol=1e-12)

    def test_numerical_rank_thresholds(self):
        M = np.diag([1.0, 1e-6, 1e-14])
        rank, _ = numerical_rank(M)
        assert rank == 2
