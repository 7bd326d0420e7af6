"""Acceptance battery: one test per release criterion.

Each test prints a single `[PASS]`/`[FAIL]` line before its assertions
run, so `pytest tests/test_acceptance.py -v -s` reads as a checklist.
Stated runtime budgets are asserted alongside the tolerances.
"""

import itertools
import math
import time

import numpy as np
import pytest
from numpy.polynomial import polynomial as P

from mixedmop import (BrownianConfig, MultiIndexPair, Weight, WeightFamily,
                      build_biorthogonal, build_cd_data, check_normality,
                      correlation_kernel, kernel_cd_grid,
                      kernel_direct_grid, kernel_rh_grid, km_density,
                      moment_table_for, r_m, sample_positions)
from mixedmop.brownian import chi_square_report
from mixedmop.kernel import (idempotence_residual, relative_discrepancy,
                             trace_quadrature)
from mixedmop.rh import RhSystem, rh_verification_report
from mixedmop.weights import gaussian_product_params

from conftest import (andreief_ladder, classical_type1, classical_type2,
                      kernel_at, monic_orthogonal_oracle, random_balanced_parts,
                      random_gaussian_families)

SEED = 20240822


def criterion_line(num: int, label: str, ok: bool, detail: str = "") -> None:
    tail = f"  [{detail}]" if detail else ""
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {label}{tail}")


def family_grid(w1: WeightFamily, w2: WeightFamily, count: int) -> np.ndarray:
    ws = list(w1) + list(w2)
    lo = min(w.center - 3.5 * math.sqrt(w.variance) for w in ws)
    hi = max(w.center + 3.5 * math.sqrt(w.variance) for w in ws)
    return np.linspace(lo, hi, count)


@pytest.fixture(scope="module")
def route_battery():
    """25 randomized Gaussian configurations shared by criteria 1 and 2."""
    rng = np.random.default_rng(SEED)
    records = []
    routes_elapsed = laws_elapsed = 0.0
    for _ in range(25):
        p, q = (int(v) for v in rng.integers(1, 4, 2))
        total = int(rng.integers(max(2, p, q), 9))
        n = random_balanced_parts(rng, p, total)
        m = random_balanced_parts(rng, q, total)
        w1, w2 = random_gaussian_families(rng, p, q)
        pair = MultiIndexPair.balanced(n, m)

        t0 = time.perf_counter()
        table = moment_table_for(pair, w1, w2)
        system = build_biorthogonal(pair, w1, w2, table)
        data = build_cd_data(pair, w1, w2, table)
        xs = family_grid(w1, w2, 30)
        Kd = kernel_direct_grid(system, xs, xs)
        Kcd = kernel_cd_grid(data, xs, xs)
        Krh = kernel_rh_grid(data, xs, xs)
        route = max(relative_discrepancy(Kd, Kcd),
                    relative_discrepancy(Kd, Krh),
                    relative_discrepancy(Kcd, Krh))
        t1 = time.perf_counter()
        trace, _ = trace_quadrature(system)
        idem, _ = idempotence_residual(system, xs, xs)
        t2 = time.perf_counter()

        routes_elapsed += t1 - t0
        laws_elapsed += t2 - t1
        records.append({"config": (p, q, tuple(n), tuple(m)),
                        "route": route,
                        "trace_deviation": abs(trace - total),
                        "idempotence": idem})
    return {"records": records, "routes_elapsed": routes_elapsed,
            "laws_elapsed": laws_elapsed}


def test_criterion_1_three_route_agreement(route_battery):
    worst = max(r["route"] for r in route_battery["records"])
    elapsed = route_battery["routes_elapsed"]
    ok = worst < 1e-7 and elapsed < 120.0
    criterion_line(1, "three-route kernel agreement, 25 configs",
                   ok, f"max discrepancy {worst:.2e}, {elapsed:.1f}s")
    for r in route_battery["records"]:
        assert r["route"] < 1e-7, r["config"]
    assert elapsed < 120.0


def test_criterion_2_projection_laws(route_battery):
    worst_trace = max(r["trace_deviation"] for r in route_battery["records"])
    worst_idem = max(r["idempotence"] for r in route_battery["records"])
    ok = worst_trace < 1e-8 and worst_idem < 1e-6
    criterion_line(2, "trace and idempotence laws", ok,
                   f"trace {worst_trace:.2e}, idempotence {worst_idem:.2e}")
    for r in route_battery["records"]:
        assert r["trace_deviation"] < 1e-8, r["config"]
        assert r["idempotence"] < 1e-6, r["config"]


def test_criterion_3_rh_certification():
    G = Weight.gaussian
    configs = [
        ([G(0.0, 1.0, 1.0)], [G(0.0, 1.0, 1.0)], [1], [1]),
        ([G(-0.6, 0.8, 1.0), G(0.7, 1.2, 0.9)], [G(0.1, 1.0, 1.0)],
         [2, 1], [3]),
        ([G(-0.5, 0.6, 1.0), G(0.5, 1.3, 1.1)],
         [G(0.2, 0.5, 1.0), G(-0.3, 1.1, 0.8)], [2, 2], [3, 1]),
    ]
    t0 = time.perf_counter()
    reports = []
    for w1s, w2s, n, m in configs:
        system = RhSystem(MultiIndexPair.balanced(n, m),
                          WeightFamily(w1s), WeightFamily(w2s))
        reports.append(rh_verification_report(system, seed=SEED)[0])
    elapsed = time.perf_counter() - t0

    det_max = max(r["det_max"] for r in reports)
    xy_max = max(r["x_y_max"] for r in reports)
    ok = (det_max < 1e-7 and xy_max < 1e-7 and elapsed < 180.0
          and all(all(r["passed"].values()) for r in reports))
    criterion_line(3, "RH certification (det, X^T Y, jump, asymptotics)",
                   ok, f"det {det_max:.1e}, X^T Y {xy_max:.1e}, {elapsed:.1f}s")
    for rep in reports:
        assert rep["det_max"] < 1e-7
        assert rep["x_y_max"] < 1e-7
        assert len(rep["det_residuals"]) == 20
        assert len(rep["jump_residuals"]) == 10
        for detail in rep["jump_details"]:
            assert detail["residual"] < \
                1e-6 * max(detail["y_norm"], 1.0)
        assert all(ratio >= 1.8 for ratio in rep["asymptotic_ratios"])
        assert rep["passed"] == {"det": True, "inverse_transpose": True,
                                 "jump": True, "asymptotics": True}
    assert elapsed < 180.0


def test_criterion_4_classical_reductions():
    G = Weight.gaussian

    # single weight on each side: the rank-N Christoffel-Darboux kernel of
    # the product weight, with the orthogonal family from an independent
    # moment-determinant oracle
    w1 = G(0.3, 0.8, 1.0)
    w2 = G(-0.2, 1.2, 1.0)
    count = 4
    system = build_biorthogonal(MultiIndexPair.balanced([count], [count]),
                                WeightFamily([w1]), WeightFamily([w2]))
    center, variance, _ = gaussian_product_params(w1, w2)
    half = 10.0 * math.sqrt(variance)
    coeffs, hs = monic_orthogonal_oracle(lambda x: w1(x) * w2(x),
                                         (center - half, center + half),
                                         count)
    xs = np.linspace(center - 3.0, center + 3.0, 25)
    Kd = kernel_direct_grid(system, xs, xs)
    series = np.zeros_like(Kd)
    for cf, h in zip(coeffs[:count], hs[:count]):
        px = P.polyval(xs, cf)
        series += np.outer(px, px) / h
    oracle = series * np.outer(w1(xs), w2(xs))
    rel_single = float(np.max(np.abs(Kd - oracle)) / np.max(np.abs(Kd)))

    # one weight against two: (x - y) K(x, y) w11(y) / w11(x) collapses to
    # the nearest-neighbor assembly; the undetermined constants are fitted,
    # the unit coefficient on the leading product is asserted
    w11 = G(0.1, 0.9, 1.0)
    w21, w22 = G(0.4, 0.7, 1.0), G(-0.5, 1.3, 1.0)
    m = (2, 2)
    system = build_biorthogonal(MultiIndexPair.balanced([4], list(m)),
                                WeightFamily([w11]), WeightFamily([w21, w22]))
    W = WeightFamily([G(*gaussian_product_params(w11, w21)),
                      G(*gaussian_product_params(w11, w22))])
    P_m = classical_type2(W, m).polynomials_original()[0]
    P_down = [classical_type2(W, (1, 2)).polynomials_original()[0],
              classical_type2(W, (2, 1)).polynomials_original()[0]]
    Q_m = classical_type1(W, m)
    Q_up = [classical_type1(W, (3, 2)),
            classical_type1(W, (2, 3))]

    xs = np.linspace(-1.6, 1.9, 12)
    ys = np.linspace(-1.8, 1.7, 12) + 0.083
    K = kernel_direct_grid(system, xs, ys)
    T = (xs[:, None] - ys[None, :]) * K * w11(ys)[None, :] / w11(xs)[:, None]
    design = np.stack([
        np.outer(P.polyval(xs, P_m), Q_m.form(ys)).ravel(),
        -np.outer(P.polyval(xs, P_down[0]), Q_up[0].form(ys)).ravel(),
        -np.outer(P.polyval(xs, P_down[1]), Q_up[1].form(ys)).ravel(),
    ], axis=1)
    fit, *_ = np.linalg.lstsq(design, T.ravel(), rcond=None)
    alpha, h_fitted = float(fit[0]), [-float(v) for v in fit[1:]]
    rel_pair = float(np.max(np.abs(design @ fit - T.ravel()))
                     / np.max(np.abs(T)))

    ok = rel_single < 1e-8 and abs(alpha - 1.0) < 1e-8 and rel_pair < 1e-8
    criterion_line(4, "classical reductions", ok,
                   f"single {rel_single:.1e}, pair {rel_pair:.1e}, "
                   f"alpha-1 {alpha - 1.0:.1e}, "
                   f"fitted h {h_fitted[0]:.4e} {h_fitted[1]:.4e}")
    assert rel_single < 1e-8
    assert abs(alpha - 1.0) < 1e-8
    assert rel_pair < 1e-8


def test_criterion_5_determinantal_identity():
    rng = np.random.default_rng(SEED)
    t0 = time.perf_counter()
    worst_overall = 0.0
    for walkers, starts, ends, t in (
        (2, ((-1.0, 1), (1.0, 1)), ((-0.8, 1), (0.9, 1)), 0.5),
        (3, ((-1.1, 1), (0.0, 1), (1.2, 1)),
         ((-0.9, 1), (0.2, 1), (1.0, 1)), 0.4),
    ):
        config = BrownianConfig(starts=starts, ends=ends, time=t)
        density = km_density(config)
        oracle, _ = andreief_ladder(density.w1, density.w2, density.box)
        assert abs(density.z_n - oracle) < 1e-8 * density.z_n
        system = correlation_kernel(config)
        a = np.array([pos for pos, _ in starts])
        b = np.array([pos for pos, _ in ends])
        mean = (1.0 - t) * a + t * b
        # points concentrated where the process lives; far tails underflow
        # the density and make a relative comparison vacuous
        spread = 1.5 * math.sqrt(t * (1.0 - t) / walkers)
        worst = 0.0
        for _ in range(200):
            pts = np.sort(mean + spread * rng.standard_normal(walkers))
            lhs = math.factorial(walkers) * density(pts)
            rhs = r_m(system, pts)
            worst = max(worst, abs(lhs - rhs) / abs(rhs))
        assert worst < 1e-6, walkers
        worst_overall = max(worst_overall, worst)
    elapsed = time.perf_counter() - t0
    ok = worst_overall < 1e-6 and elapsed < 120.0
    criterion_line(5, "n! density = det kernel, 200 points each", ok,
                   f"worst rel {worst_overall:.2e}, {elapsed:.1f}s")
    assert elapsed < 120.0


def test_criterion_6_mcmc_validation():
    t0 = time.perf_counter()
    config = BrownianConfig(starts=((-1.0, 1), (1.0, 1)),
                            ends=((-1.0, 1), (1.0, 1)), time=0.5)
    draws = sample_positions(km_density(config), 100_000, SEED)
    report = chi_square_report(draws.samples, correlation_kernel(config),
                               config.bridge_box())

    a, b, t = 0.2, -0.5, 0.4
    single = BrownianConfig(starts=((a, 1),), ends=((b, 1),), time=t,
                            variance_scaling=False)
    marginal = sample_positions(km_density(single), 100_000, SEED + 1)
    x = marginal.samples[:, 0]
    # batch means absorb what autocorrelation the thinned chains retain
    batches = x.reshape(100, -1)
    se_mean = batches.mean(axis=1).std(ddof=1) / 10.0
    se_var = batches.var(axis=1, ddof=1).std(ddof=1) / 10.0
    mean_dev = abs(x.mean() - ((1.0 - t) * a + t * b))
    var_dev = abs(x.var(ddof=1) - t * (1.0 - t))
    elapsed = time.perf_counter() - t0

    ok = (report["p_value"] > 0.01 and draws.converged
          and mean_dev < 3.0 * se_mean and var_dev < 3.0 * se_var
          and elapsed < 300.0)
    criterion_line(6, "MCMC histogram and bridge marginal", ok,
                   f"chi2 p {report['p_value']:.3f}, mean dev "
                   f"{mean_dev / se_mean:.2f} SE, var dev "
                   f"{var_dev / se_var:.2f} SE, {elapsed:.0f}s")
    assert draws.converged
    assert report["degrees_of_freedom"] == 39
    assert report["p_value"] > 0.01
    assert marginal.converged
    assert mean_dev < 3.0 * se_mean
    assert var_dev < 3.0 * se_var
    assert elapsed < 300.0


def _compositions(total, parts, minimum):
    if parts == 1:
        return [(total,)] if total >= minimum else []
    out = []
    for first in range(minimum, total - minimum * (parts - 1) + 1):
        out.extend((first,) + rest
                   for rest in _compositions(total - first, parts - 1, minimum))
    return out


def test_criterion_7_normality_battery():
    # scale separation keeps every moment block far from the rank
    # threshold; nearly equal variances drift toward the duplicated
    # degeneracy by total degree 8
    G = Weight.gaussian
    w1s = [G(-0.4, 0.5, 1.0), G(0.4, 1.1, 1.0), G(0.0, 2.2, 1.0)]
    w2s = [G(0.3, 0.45, 1.0), G(-0.3, 1.0, 1.0), G(0.1, 2.0, 1.0)]

    t0 = time.perf_counter()
    checked = 0
    failures = []
    for p, q in itertools.product((1, 2, 3), repeat=2):
        w1 = WeightFamily(w1s[:p])
        w2 = WeightFamily(w2s[:q])
        largest = MultiIndexPair.defining([9 - p] + [1] * (p - 1),
                                          [8 - 1] + [0] * (q - 1))
        table = moment_table_for(largest, w1, w2)
        for total in range(max(1, p), 9):
            for n in _compositions(total, p, 1):
                for m in _compositions(total - 1, q, 0):
                    rep = check_normality(MultiIndexPair.defining(n, m),
                                          table)
                    checked += 1
                    if not (rep.normal and rep.kernel_dimension == 1
                            and all(rep.typeI_admissible)
                            and all(rep.typeII_admissible)):
                        failures.append((p, q, n, m))

    dup = Weight.gaussian(0.5, 1.0, 1.0)
    counter = check_normality(
        MultiIndexPair.defining([2, 1], [1, 1]),
        moment_table_for(MultiIndexPair.defining([2, 1], [1, 1]),
                         WeightFamily([G(-1.0, 1.0, 1.0), G(1.0, 1.0, 1.0)]),
                         WeightFamily([dup, dup])))
    elapsed = time.perf_counter() - t0

    ok = not failures and not counter.normal and elapsed < 30.0
    criterion_line(7, "normality battery, every pair with |n| <= 8", ok,
                   f"{checked} pairs, {len(failures)} failures, "
                   f"counterexample kernel dim {counter.kernel_dimension}, "
                   f"{elapsed:.1f}s")
    assert failures == []
    assert not counter.normal
    assert counter.kernel_dimension >= 2
    assert elapsed < 30.0


def test_criterion_8_confluence_continuity():
    rng = np.random.default_rng(SEED)
    probes = [(float(x), float(y)) for x, y in rng.uniform(-1.0, 1.0, (10, 2))]
    ends = ((-0.7, 1), (0.7, 1))
    limit = correlation_kernel(BrownianConfig(starts=((0.0, 2),), ends=ends,
                                              time=0.5))
    sups = []
    for eta in (0.2, 0.1, 0.05):
        separated = correlation_kernel(
            BrownianConfig(starts=((-eta, 1), (0.0, 1)), ends=ends, time=0.5))
        sups.append(max(abs(kernel_at(kernel_direct_grid, separated, x, y)
                            - kernel_at(kernel_direct_grid, limit, x, y))
                        for x, y in probes))

    ok = sups[0] > sups[1] > sups[2]
    criterion_line(8, "confluence toward the multiplicity kernel", ok,
                   "sup diffs " + " > ".join(f"{s:.4f}" for s in sups))
    assert sups[0] > sups[1] > sups[2]
