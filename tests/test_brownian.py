"""Non-intersecting Brownian motion: density, kernel, correlations, sampling."""

import math

import numpy as np
import pytest
from scipy.integrate import dblquad, quad

from mixedmop import (AccuracyError, BrownianConfig, config_to_weights,
                      correlation_kernel, km_density, r1_grid,
                      r_m, sample_paths, sample_positions,
                      sample_projection_dpp)
from mixedmop import brownian
from mixedmop.brownian import (andreief_quadrature, chi_square_report,
                               equal_mass_bins, gram_normalization,
                               write_density_grid_csv, write_paths_csv,
                               write_samples_csv)
from mixedmop.kernel import kernel_direct_grid, trace_quadrature
from mixedmop.weights import _leggauss
from mixedmop._util import CSV_BLOCK_ROWS

from conftest import (csv_oracle_bytes, kernel_at, quadrature_dpp_oracle,
                      tensor_normalization)


def two_walker_config(t=0.5):
    return BrownianConfig(starts=((-1.0, 1), (1.0, 1)),
                          ends=((-1.0, 1), (1.0, 1)), time=t)


def window_4sd(cfg):
    """The mean positions widened by 4 bridge standard deviations."""
    t = cfg.time
    means = (1.0 - t) * cfg.flat_starts() + t * cfg.flat_ends()
    sd = cfg.bridge_sd()
    return means.min() - 4.0 * sd, means.max() + 4.0 * sd


class TestConfig:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            BrownianConfig(starts=(), ends=((0.0, 1),), time=0.5)

    def test_rejects_zero_multiplicity(self):
        with pytest.raises(ValueError):
            BrownianConfig(starts=((0.0, 0),), ends=((0.0, 0),), time=0.5)

    def test_rejects_unsorted_points(self):
        with pytest.raises(ValueError):
            BrownianConfig(starts=((1.0, 1), (-1.0, 1)),
                           ends=((-1.0, 1), (1.0, 1)), time=0.5)

    def test_rejects_unbalanced_totals(self):
        with pytest.raises(ValueError):
            BrownianConfig(starts=((0.0, 2),), ends=((0.0, 1),), time=0.5)

    def test_rejects_bad_time(self):
        for t in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(ValueError):
                BrownianConfig(starts=((0.0, 1),), ends=((0.0, 1),), time=t)

    def test_counting_and_flattening(self):
        cfg = BrownianConfig(starts=((-1.0, 2), (1.0, 2)),
                             ends=((-2.0, 1), (0.0, 2), (2.0, 1)), time=0.25)
        assert cfg.walkers == 4
        assert cfg.n_scale == 4
        assert not cfg.distinct
        np.testing.assert_array_equal(cfg.flat_starts(), [-1, -1, 1, 1])
        np.testing.assert_array_equal(cfg.flat_ends(), [-2, 0, 0, 2])

    def test_scaling_toggle(self):
        cfg = BrownianConfig(starts=((-1.0, 2), (1.0, 2)),
                             ends=((-1.0, 2), (1.0, 2)), time=0.5,
                             variance_scaling=False)
        assert cfg.n_scale == 1

    def test_bridge_box_covers_means(self):
        cfg = two_walker_config(0.5)
        lo, hi = cfg.bridge_box()
        assert lo < -1.0 and hi > 1.0


class TestConfigWeights:
    def test_symmetric_single_walker(self):
        cfg = BrownianConfig(starts=((0.0, 1),), ends=((0.0, 1),), time=0.5)
        w1, w2, pair = config_to_weights(cfg)
        for fam in (w1, w2):
            assert len(fam) == 1
            w = fam[0]
            assert w.center == 0.0
            assert w.variance == pytest.approx(0.5)
            assert w.amplitude == pytest.approx(1.0 / math.sqrt(math.pi),
                                                rel=1e-14)
        assert pair.relation == "balanced"

    def test_variance_scaling_divides_by_walker_count(self):
        cfg = BrownianConfig(starts=((-1.0, 2), (1.0, 2)),
                             ends=((-1.0, 2), (1.0, 2)), time=0.5)
        w1, _, _ = config_to_weights(cfg)
        assert w1[0].variance == pytest.approx(0.5 / 4)
        unscaled = BrownianConfig(starts=cfg.starts, ends=cfg.ends, time=0.5,
                                  variance_scaling=False)
        v1, _, _ = config_to_weights(unscaled)
        assert v1[0].variance == pytest.approx(0.5)

    def test_multiplicity_bookkeeping(self):
        cfg = BrownianConfig(starts=((-1.0, 2), (1.0, 2)),
                             ends=((-1.0, 1), (0.0, 2), (1.0, 1)), time=0.5)
        _, _, pair = config_to_weights(cfg)
        assert pair.n.parts == (2, 2)
        assert pair.m.parts == (1, 2, 1)


class TestKmDensity:
    def test_single_walker_is_bridge_marginal(self):
        a, b, t = 0.3, -0.4, 0.3
        cfg = BrownianConfig(starts=((a, 1),), ends=((b, 1),), time=t,
                             variance_scaling=False)
        dens = km_density(cfg)
        mean = (1.0 - t) * a + t * b
        var = t * (1.0 - t)
        for x in (-1.0, mean, 0.8):
            expect = math.exp(-0.5 * (x - mean) ** 2 / var) \
                / math.sqrt(2.0 * math.pi * var)
            assert dens([x]) == pytest.approx(expect, rel=1e-8)

    def test_coincident_points_vanish(self):
        dens = km_density(two_walker_config())
        for x in (-0.5, 0.0, 1.2):
            assert abs(dens([x, x])) < 1e-12

    def test_density_integrates_to_one(self):
        dens = km_density(two_walker_config())
        lo, hi = dens.box
        total, err = dblquad(lambda y, x: dens([x, y]), lo, hi, lo, hi,
                             epsabs=1e-8)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_normalization_routes_agree(self):
        for cfg in (two_walker_config(0.5), two_walker_config(0.25)):
            dens = km_density(cfg)
            assert dens.z_n == pytest.approx(dens.z_n_gram, rel=1e-8)
            assert dens.z_n_accuracy < 1e-8 * max(dens.z_n, 1e-300)

    def test_gram_route_standalone(self):
        cfg = two_walker_config()
        w1, w2, _ = config_to_weights(cfg)
        z = gram_normalization(w1, w2, 2)
        assert z > 0.0

    def test_confluent_config_rejected(self):
        cfg = BrownianConfig(starts=((0.0, 2),), ends=((-1.0, 1), (1.0, 1)),
                             time=0.5)
        with pytest.raises(ValueError):
            km_density(cfg)

    def test_five_walkers_normalize(self):
        pts = tuple((float(i), 1) for i in range(5))
        cfg = BrownianConfig(starts=pts, ends=pts, time=0.5)
        dens = km_density(cfg)
        w1, w2, _ = config_to_weights(cfg)
        assert dens.z_n == pytest.approx(gram_normalization(w1, w2, 5),
                                         rel=1e-8)

    def test_unsettled_normalization_reports_gap(self, monkeypatch):
        monkeypatch.setattr(brownian, "NORMALIZATION_DEGREES", (16, 32))
        pts = tuple((float(i), 1) for i in range(6))
        cfg = BrownianConfig(starts=pts, ends=pts, time=0.5)
        with pytest.raises(AccuracyError) as info:
            km_density(cfg)
        assert info.value.achieved > 0.0

    @pytest.mark.parametrize("walkers", [6, 8, 10, 12])
    def test_ladder_settles_on_gram_route(self, walkers):
        pts = tuple((float(i), 1) for i in range(walkers))
        dens = km_density(BrownianConfig(starts=pts, ends=pts, time=0.5))
        assert abs(dens.z_n - dens.z_n_gram) / abs(dens.z_n) <= 1e-8

    @pytest.mark.parametrize("walkers", [2, 3])
    @pytest.mark.parametrize("degree", [16, 32])
    def test_andreief_quadrature_matches_tensor_oracle(self, walkers, degree):
        starts = tuple((-1.0 + 0.9 * i, 1) for i in range(walkers))
        ends = tuple((-0.8 + 1.1 * i, 1) for i in range(walkers))
        cfg = BrownianConfig(starts=starts, ends=ends, time=0.4)
        w1, w2, _ = config_to_weights(cfg)
        box = cfg.bridge_box()
        assert andreief_quadrature(w1, w2, box, degree) == pytest.approx(
            tensor_normalization(w1, w2, box, degree), rel=1e-13)

    def test_batch_evaluation(self):
        dens = km_density(two_walker_config())
        pts = np.array([[-0.8, 0.6], [0.1, 0.9], [-1.5, -0.2]])
        batch = dens.density(pts)
        assert batch.shape == (3,)
        for row, val in zip(pts, batch):
            assert val == pytest.approx(dens(row), rel=1e-14)


class TestCorrelationKernel:
    def test_trace_counts_walkers_confluent(self):
        cfg = BrownianConfig(starts=((0.0, 2),), ends=((-1.0, 1), (1.0, 1)),
                             time=0.5)
        system = correlation_kernel(cfg)
        trace, err = trace_quadrature(system)
        assert abs(trace - 2.0) < max(1e-8, 10.0 * err)

    def test_determinantal_identity_two_walkers(self):
        cfg = two_walker_config()
        dens = km_density(cfg)
        system = correlation_kernel(cfg)
        rng = np.random.default_rng(3)
        lo, hi = window_4sd(cfg)
        for _ in range(20):
            x = np.sort(rng.uniform(lo, hi, 2))
            if x[1] - x[0] < 1e-6:
                continue
            lhs = 2.0 * dens(x)
            rhs = r_m(system, x)
            assert abs(lhs - rhs) / (1.0 + abs(lhs)) < 1e-6

    def test_determinantal_identity_three_walkers(self):
        cfg = BrownianConfig(starts=((-1.0, 1), (0.0, 1), (1.0, 1)),
                             ends=((-1.0, 1), (0.0, 1), (1.0, 1)), time=0.5)
        dens = km_density(cfg)
        system = correlation_kernel(cfg)
        rng = np.random.default_rng(5)
        lo, hi = window_4sd(cfg)
        for _ in range(20):
            x = np.sort(rng.uniform(lo, hi, 3))
            if np.min(np.diff(x)) < 1e-6:
                continue
            lhs = 6.0 * dens(x)
            rhs = r_m(system, x)
            assert abs(lhs - rhs) / (1.0 + abs(lhs)) < 1e-6

    def test_r1_is_kernel_diagonal(self):
        system = correlation_kernel(two_walker_config())
        for x in (-1.0, 0.0, 0.7):
            assert r_m(system, [x]) == pytest.approx(
                kernel_at(kernel_direct_grid, system, x, x), rel=1e-13)
        xs = np.linspace(-2, 2, 9)
        np.testing.assert_allclose(
            r1_grid(system, xs),
            np.diag(kernel_direct_grid(system, xs, xs)), rtol=1e-12)

    def test_r2_vanishes_on_diagonal(self):
        system = correlation_kernel(two_walker_config())
        for x in (-0.6, 0.4):
            assert abs(r_m(system, [x, x])) < 1e-10

    def test_r2_marginalizes_to_r1(self):
        cfg = two_walker_config()
        system = correlation_kernel(cfg)
        lo, hi = cfg.bridge_box()
        for x in (-0.9, 0.3):
            val, _ = quad(lambda y: r_m(system, [x, y]), lo, hi,
                          limit=300, epsabs=1e-9)
            expect = (cfg.walkers - 1) * r_m(system, [x])
            assert val == pytest.approx(expect, abs=1e-6)

    def test_r2_nonnegative_at_distinct_points(self):
        system = correlation_kernel(two_walker_config())
        rng = np.random.default_rng(7)
        pts = rng.uniform(-2.0, 2.0, (30, 2))
        for x, y in pts:
            assert r_m(system, [x, y]) > -1e-10

    def test_r_m_rejects_too_many_points(self):
        system = correlation_kernel(two_walker_config())
        with pytest.raises(ValueError):
            r_m(system, [0.0, 0.5, 1.0])

    def test_confluence_toward_multiplicity_two(self):
        ends = ((-0.7, 1), (0.7, 1))
        limit = correlation_kernel(
            BrownianConfig(starts=((0.0, 2),), ends=ends, time=0.5))
        probes = [(-0.5, 0.2), (0.0, 0.0), (0.4, -0.3), (0.8, 0.8)]
        sups = []
        for eta in (0.2, 0.1, 0.05):
            system = correlation_kernel(
                BrownianConfig(starts=((-eta, 1), (0.0, 1),), ends=ends,
                               time=0.5))
            sups.append(max(abs(kernel_at(kernel_direct_grid, system, x, y)
                                - kernel_at(kernel_direct_grid, limit, x, y))
                            for x, y in probes))
        assert sups[0] > sups[1] > sups[2]

    def test_rank_full_up_to_eight_walkers(self):
        cfg = BrownianConfig(starts=((-1.0, 4), (1.0, 4)),
                             ends=((-2.0, 2), (0.0, 4), (2.0, 2)), time=0.5)
        system = correlation_kernel(cfg)
        assert system.dimension == 8
        assert np.isfinite(system.condition)


class TestPositionSampling:
    @pytest.mark.filterwarnings("ignore:position sampler")
    def test_seed_determinism(self):
        dens = km_density(two_walker_config())
        a = sample_positions(dens, 200, seed=11, burn_in=500, thinning=5)
        b = sample_positions(dens, 200, seed=11, burn_in=500, thinning=5)
        np.testing.assert_array_equal(a.samples, b.samples)
        assert a.acceptance_rate == b.acceptance_rate

    @pytest.mark.filterwarnings("ignore:position sampler")
    def test_different_seeds_differ(self):
        dens = km_density(two_walker_config())
        a = sample_positions(dens, 100, seed=1, burn_in=300, thinning=2)
        b = sample_positions(dens, 100, seed=2, burn_in=300, thinning=2)
        assert not np.array_equal(a.samples, b.samples)

    @pytest.mark.filterwarnings("ignore:position sampler")
    def test_sample_shape_and_diagnostics(self):
        dens = km_density(two_walker_config())
        out = sample_positions(dens, 350, seed=3, burn_in=600, thinning=4)
        assert out.samples.shape == (350, 2)
        assert 0.05 < out.acceptance_rate < 0.7
        assert len(out.psrf) == 2
        assert out.warning == (not out.converged)
        assert out.chains == 4

    def test_short_chains_warn_but_return(self):
        dens = km_density(two_walker_config())
        with pytest.warns(UserWarning, match="may not have converged"):
            out = sample_positions(dens, 60, seed=8, burn_in=100, thinning=1)
        assert out.samples.shape == (60, 2)
        assert out.warning

    def test_single_walker_moments(self):
        a, b, t = 0.2, -0.5, 0.4
        cfg = BrownianConfig(starts=((a, 1),), ends=((b, 1),), time=t,
                             variance_scaling=False)
        dens = km_density(cfg)
        out = sample_positions(dens, 20_000, seed=42)
        mean = (1.0 - t) * a + t * b
        var = t * (1.0 - t)
        draws = out.samples[:, 0]
        # 4 nominal standard errors, widened for thinning autocorrelation
        se_mean = math.sqrt(var / draws.size)
        assert abs(draws.mean() - mean) < 8.0 * se_mean
        assert draws.var() == pytest.approx(var, rel=0.05)

    @pytest.mark.filterwarnings("ignore:position sampler")
    def test_exchangeability_of_pooled_statistics(self):
        dens = km_density(two_walker_config())
        out = sample_positions(dens, 400, seed=9, burn_in=500, thinning=4)
        flipped = out.samples[:, ::-1]
        assert np.sort(out.samples.ravel()).tolist() == \
            np.sort(flipped.ravel()).tolist()
        np.testing.assert_array_equal(np.sort(out.samples, axis=1),
                                      np.sort(flipped, axis=1))


def three_walker_config():
    return BrownianConfig(starts=((-1.0, 1), (0.0, 1), (1.0, 1)),
                          ends=((-1.0, 1), (0.5, 1), (1.0, 1)), time=0.5)


class TestExactSampler:
    def test_seed_determinism_and_block_independence(self, monkeypatch):
        cfg = three_walker_config()
        system = correlation_kernel(cfg)
        box = cfg.bridge_box()
        a = sample_projection_dpp(system, box, 300, seed=11)
        b = sample_projection_dpp(system, box, 300, seed=11)
        c = sample_projection_dpp(system, box, 300, seed=12)
        monkeypatch.setattr(brownian, "DPP_BLOCK", 1)
        one = sample_projection_dpp(system, box, 300, seed=11)
        np.testing.assert_array_equal(a.samples, b.samples)
        assert not np.array_equal(a.samples, c.samples)
        np.testing.assert_array_equal(one.samples, a.samples)
        assert a.samples.shape == (300, 3)
        assert np.all(np.diff(a.samples, axis=1) > 0.0)
        assert a.mass_deviation_max < 1e-9
        assert a.inversion_residual_max < 1e-11

    @pytest.mark.parametrize("block", [1, 7])
    @pytest.mark.parametrize("cfg", [
        BrownianConfig(starts=tuple((i - 2.5, 1) for i in range(6)),
                       ends=tuple((0.9 * (i - 2.5) + 0.1, 1) for i in range(6)),
                       time=0.5),
        BrownianConfig(starts=((-1.0, 3), (1.0, 3)), ends=((0.0, 6),),
                       time=0.5),
    ], ids=["six-distinct", "two-start-3+3"])
    def test_block_independence_beyond_three_walkers(self, monkeypatch, cfg,
                                                     block):
        # numpy may pick another matmul loop for a one-draw stack whose
        # operand is a strided view; the stacked products must not see it
        system = correlation_kernel(cfg)
        box = cfg.bridge_box()
        want = sample_projection_dpp(system, box, 100, seed=11)
        monkeypatch.setattr(brownian, "DPP_BLOCK", block)
        got = sample_projection_dpp(system, box, 100, seed=11)
        np.testing.assert_array_equal(got.samples, want.samples)

    @pytest.mark.parametrize("setting, value, message, tolerance", [
        ("INVERSION_MAX_STEPS", 1, "inverse-CDF search left 50 draws with a "
         "relative miss up to ", brownian.INVERSION_TOL),
        ("DPP_NODES", 4, "panel series density at step 0 misses phi^T M psi "
         "by ", brownian.MASS_TOL),
    ], ids=["step-cap", "series-degree"])
    def test_accuracy_gates_raise(self, monkeypatch, setting, value, message,
                                  tolerance):
        cfg = three_walker_config()
        system = correlation_kernel(cfg)
        monkeypatch.setattr(brownian, setting, value)
        with pytest.raises(AccuracyError) as info:
            sample_projection_dpp(system, cfg.bridge_box(), 50, seed=1)
        assert str(info.value).startswith(message)
        assert info.value.achieved > tolerance

    def test_two_walker_histogram_matches_one_point_density(self):
        # criterion 6's configuration and draw count
        cfg = two_walker_config()
        system = correlation_kernel(cfg)
        draws = sample_projection_dpp(system, cfg.bridge_box(), 100_000,
                                      seed=20240822)
        rep = chi_square_report(draws.samples, system, cfg.bridge_box())
        assert rep["points"] == 200_000
        assert rep["p_value"] > 0.01

    def test_single_walker_bridge_marginal(self):
        a, b, t = 0.2, -0.5, 0.4
        cfg = BrownianConfig(starts=((a, 1),), ends=((b, 1),), time=t,
                             variance_scaling=False)
        draws = sample_projection_dpp(correlation_kernel(cfg),
                                      cfg.bridge_box(), 100_000, seed=42)
        x = draws.samples[:, 0]
        mean, var = (1.0 - t) * a + t * b, t * (1.0 - t)
        # i.i.d. standard errors; the variance SE uses the Gaussian fourth
        # moment 3 var^2
        assert abs(x.mean() - mean) < 3.0 * math.sqrt(var / x.size)
        assert abs(x.var(ddof=1) - var) < 3.0 * math.sqrt(2.0 * var ** 2 / x.size)

    def test_two_point_statistic_matches_r2(self):
        cfg = three_walker_config()
        system = correlation_kernel(cfg)
        lo, hi = cfg.bridge_box()
        nodes, wts = _leggauss(200)
        xs = 0.5 * (lo + hi) + 0.5 * (hi - lo) * nodes
        ws = 0.5 * (hi - lo) * wts
        K = kernel_direct_grid(system, xs, xs)
        d = np.diag(K)
        r2 = d[:, None] * d[None, :] - K * K.T
        expected = float((ws * xs) @ r2 @ (ws * xs))

        draws = sample_projection_dpp(system, (lo, hi), 20_000, seed=5)
        X = draws.samples
        stat = X.sum(axis=1) ** 2 - (X ** 2).sum(axis=1)  # sum over i != j
        se = stat.std(ddof=1) / math.sqrt(stat.size)
        assert abs(stat.mean() - expected) < 4.0 * se

    @pytest.mark.parametrize("cfg, count", [
        (three_walker_config(), 400),
        (BrownianConfig(starts=((-0.6, 1), (0.5, 1)),
                        ends=((-0.4, 1), (0.8, 1)), time=0.4), 400),
        (BrownianConfig(starts=((-1.0, 3), (1.0, 3)), ends=((0.0, 6),),
                        time=0.5), 150),
    ], ids=["br", "two", "two-start-3+3"])
    def test_series_inversion_matches_quadrature_oracle(self, cfg, count):
        system = correlation_kernel(cfg)
        box = cfg.bridge_box()
        draws = sample_projection_dpp(system, box, count, seed=931)
        want = quadrature_dpp_oracle(system, box, count, seed=931)
        np.testing.assert_allclose(draws.samples, want, rtol=0.0, atol=1e-10)
        assert 0.0 <= draws.series_residual_max <= 1e-9

    def test_narrowed_box_raises(self):
        cfg = two_walker_config()
        lo, hi = cfg.bridge_box()
        with pytest.raises(AccuracyError, match="conditional mass"):
            sample_projection_dpp(correlation_kernel(cfg), (lo + 1.0, hi - 1.0),
                                  50, seed=1)


class TestChiSquare:
    def test_equal_mass_edges(self):
        cfg = two_walker_config()
        system = correlation_kernel(cfg)
        edges = equal_mass_bins(system, cfg.bridge_box())
        assert edges.shape == (41,)
        assert edges[0] == -np.inf and edges[-1] == np.inf
        assert np.all(np.diff(edges[1:-1]) > 0)

    def test_sampler_matches_one_point_density(self):
        cfg = two_walker_config()
        dens = km_density(cfg)
        system = correlation_kernel(cfg)
        out = sample_positions(dens, 20_000, seed=42)
        rep = chi_square_report(out.samples, system, cfg.bridge_box())
        assert rep["bins"] == 40
        assert rep["degrees_of_freedom"] == 39
        assert rep["points"] == 40_000
        assert sum(rep["observed"]) == 40_000
        assert rep["p_value"] > 0.001

    def test_p_value_matches_scipy_stats(self):
        from scipy import stats

        cfg = two_walker_config()
        system = correlation_kernel(cfg)
        rng = np.random.default_rng(3)
        for shift in (0.0, 0.05, 0.2):
            pts = rng.normal(shift, 0.7, (2000, 2))
            rep = chi_square_report(pts, system, cfg.bridge_box())
            want = stats.chi2.sf(rep["statistic"], rep["degrees_of_freedom"])
            assert rep["p_value"] == pytest.approx(want, rel=1e-12, abs=1e-300)

    def test_report_detects_wrong_density(self):
        cfg = two_walker_config()
        system = correlation_kernel(cfg)
        rng = np.random.default_rng(0)
        bogus = rng.normal(3.0, 0.3, (5000, 2))
        rep = chi_square_report(bogus, system, cfg.bridge_box())
        assert rep["p_value"] < 1e-6


class TestPathSampling:
    def test_single_walker_accepts_everything(self):
        cfg = BrownianConfig(starts=((0.0, 1),), ends=((0.3, 1),), time=0.5,
                             variance_scaling=False)
        grid = np.linspace(0.0, 1.0, 65)
        bundles = sample_paths(cfg, grid, 50, seed=1)
        assert bundles.acceptance_rate == 1.0
        assert bundles.count == 50
        assert bundles.paths.shape == (50, 1, 65)
        np.testing.assert_allclose(bundles.paths[:, 0, 0], 0.0, atol=1e-15)
        np.testing.assert_allclose(bundles.paths[:, 0, -1], 0.3, atol=1e-14)

    def test_accepted_bundles_stay_ordered(self):
        cfg = two_walker_config()
        grid = np.linspace(0.0, 1.0, 65)
        bundles = sample_paths(cfg, grid, 200, seed=2)
        assert np.all(np.diff(bundles.paths, axis=1) > 0.0)
        assert 0.0 < bundles.acceptance_rate <= 1.0

    def test_seed_determinism(self):
        cfg = two_walker_config()
        grid = np.linspace(0.0, 1.0, 65)
        a = sample_paths(cfg, grid, 40, seed=5)
        b = sample_paths(cfg, grid, 40, seed=5)
        np.testing.assert_array_equal(a.paths, b.paths)

    def test_grid_validation(self):
        cfg = two_walker_config()
        with pytest.raises(ValueError):
            sample_paths(cfg, np.linspace(0.0, 1.0, 32), 10, seed=1)
        with pytest.raises(ValueError):
            sample_paths(cfg, np.linspace(0.1, 1.0, 65), 10, seed=1)
        with pytest.raises(ValueError):
            sample_paths(cfg, np.linspace(0.0, 0.9, 65), 10, seed=1)

    def test_confluent_config_rejected(self):
        cfg = BrownianConfig(starts=((0.0, 2),), ends=((-1.0, 1), (1.0, 1)),
                             time=0.5)
        with pytest.raises(ValueError):
            sample_paths(cfg, np.linspace(0.0, 1.0, 65), 10, seed=1)

    def test_too_close_aborts(self):
        # four walkers a nanometer apart: grid rejection cannot resolve the
        # ordering, so the acceptance-rate floor must trip
        pts = tuple((i * 1e-9, 1) for i in range(4))
        cfg = BrownianConfig(starts=pts, ends=pts, time=0.5)
        with pytest.raises(AccuracyError):
            sample_paths(cfg, np.linspace(0.0, 1.0, 65), 2000, seed=1)

    def test_positions_at_observation_time_match_kernel(self):
        cfg = two_walker_config(0.5)
        system = correlation_kernel(cfg)
        grid = np.linspace(0.0, 1.0, 65)
        bundles = sample_paths(cfg, grid, 3000, seed=42)
        at_t = bundles.paths[:, :, 32]
        assert grid[32] == 0.5
        rep = chi_square_report(at_t, system, cfg.bridge_box())
        # grid rejection is an approximation; looser gate than the
        # positions sampler
        assert rep["p_value"] > 0.001


class TestCsvWriters:
    def test_density_grid(self, tmp_path):
        path = tmp_path / "density.csv"
        write_density_grid_csv(str(path), [0.0, 0.5], [1.0, 2.0])
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "x,r1"
        assert len(lines) == 3

    def test_samples(self, tmp_path):
        path = tmp_path / "samples.csv"
        write_samples_csv(str(path), np.array([[0.1, 0.2], [0.3, 0.4]]))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "x1,x2"
        assert len(lines) == 3

    def test_paths(self, tmp_path):
        cfg = BrownianConfig(starts=((0.0, 1),), ends=((0.0, 1),), time=0.5,
                             variance_scaling=False)
        bundles = sample_paths(cfg, np.linspace(0.0, 1.0, 65), 2, seed=3)
        path = tmp_path / "paths.csv"
        write_paths_csv(str(path), bundles)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "time,path_index,position,bundle"
        assert len(lines) == 1 + 2 * 1 * 65

    def test_paths_bytes_match_row_loop(self, tmp_path):
        bundles = sample_paths(two_walker_config(), np.linspace(0.0, 1.0, 65),
                               7, seed=4)
        rows = []
        for bi in range(bundles.count):
            for wi in range(bundles.paths.shape[1]):
                for ti, t in enumerate(bundles.times):
                    rows.append((t, wi, bundles.paths[bi, wi, ti], bi))
        path = tmp_path / "paths.csv"
        write_paths_csv(str(path), bundles)
        assert path.read_bytes() == csv_oracle_bytes(
            ("time", "path_index", "position", "bundle"), rows)

    def test_density_grid_bytes_match_oracle(self, tmp_path):
        xs = np.array([-0.5, -0.0, 0.0, 1.0 / 3.0, 2.0])
        r1 = np.array([0.1, 1e-300, 2.0, -0.0, math.pi])
        path = tmp_path / "density.csv"
        write_density_grid_csv(str(path), xs, r1)
        assert path.read_bytes() == csv_oracle_bytes(("x", "r1"), zip(xs, r1))
        assert path.read_text().splitlines()[2] == "-0,1e-300"

    def test_samples_bytes_match_oracle(self, tmp_path):
        # more rows than one write block, so the block seams are covered
        samples = np.random.default_rng(5).standard_normal(
            (2 * CSV_BLOCK_ROWS + 3, 3))
        samples[7, 1] = -0.0
        path = tmp_path / "samples.csv"
        write_samples_csv(str(path), samples)
        assert path.read_bytes() == csv_oracle_bytes(("x1", "x2", "x3"),
                                                     samples.tolist())
