"""Shared fixtures and independent oracles.

The oracles deliberately avoid the library's own quadrature and solver
paths: product moments come from scipy's adaptive quadrature, monic
orthogonal polynomials from a Hankel-system Gram-Schmidt construction,
Cauchy transforms from the Faddeeva function, the Karlin-McGregor
normalization from the plain tensor-grid sum, the exact sampler's
inverse-CDF step from Gauss-Legendre quadrature of the exact integrand and
its shared and grouped contractions from a one-draw-at-a-time sampler, and
null spaces from an SVD performed outside the solver.  The CSV oracle
formats cell by cell from each value's Python type; the band oracle
evaluates the CD kernel near the diagonal one cell at a time, and the
defining-system oracle writes each solve's square system out from its
definition, one system at a time.  The classical reductions are not
oracles: they are the library's mixed solve between Gaussians.
"""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from numpy.polynomial import polynomial as P
from scipy import integrate, linalg, special

from mixedmop import (MultiIndexPair, Normalization, Weight, WeightFamily,
                      kernel_cd_diagonal, moment_table_for, solve_mixed)
from mixedmop import brownian, rh
from mixedmop.mop import moment_matrix


# ---------------------------------------------------------------------------
# Quadrature oracle for product moments


def quad_product_moment(w1: Weight, w2: Weight, k: int) -> float:
    """integral x^k w1 w2 dx by scipy adaptive quadrature."""
    lo1, hi1 = w1.interval()
    lo2, hi2 = w2.interval()
    lo, hi = max(lo1, lo2), min(hi1, hi2)
    if hi <= lo:
        return 0.0
    val, _ = integrate.quad(lambda x: x ** k * w1(x) * w2(x), lo, hi,
                            limit=400, epsabs=1e-13, epsrel=1e-12)
    return val


# ---------------------------------------------------------------------------
# Gram-Schmidt oracle for classical monic orthogonal polynomials


def monic_orthogonal_oracle(weight, interval, count):
    """Monic orthogonal polynomials P_0..P_{count} and norms h_j for a
    scalar weight callable, via moment Hankel systems.

    Returns (coeff_list, h_list) with coefficients in ascending monomial
    order and h_j = integral P_j x^j w dx.
    """
    lo, hi = interval
    mom = []
    for j in range(2 * count + 2):
        v, _ = integrate.quad(lambda x, j=j: x ** j * weight(x), lo, hi,
                              limit=400, epsabs=1e-12, epsrel=1e-12)
        mom.append(v)
    mom = np.array(mom)
    coeffs = []
    hs = []
    for deg in range(count + 1):
        if deg == 0:
            c = np.array([1.0])
        else:
            H = np.array([[mom[i + j] for i in range(deg)] for j in range(deg)])
            rhs = -np.array([mom[deg + j] for j in range(deg)])
            c = np.concatenate([np.linalg.solve(H, rhs), [1.0]])
        coeffs.append(c)
        hs.append(float(sum(ci * mom[i + deg] for i, ci in enumerate(c))))
    return coeffs, hs


# ---------------------------------------------------------------------------
# Classical reductions as mixed solves between Gaussians


def _split_off_wide_gaussian(weights):
    """({g}, {W_l / g}) for a gaussian g wider than every W_l: g has
    variance V = 2 max v_l and the mean of the centers c, so W_l / g has
    variance v_l V / (V - v_l), mean (c_l V - c v_l) / (V - v_l), and its
    value there as amplitude."""
    V = 2.0 * max(w.variance for w in weights)
    g = Weight.gaussian(float(np.mean([w.center for w in weights])), V)
    quotients = []
    for w in weights:
        mean = (w.center * V - g.center * w.variance) / (V - w.variance)
        quotients.append(Weight.gaussian(mean, w.variance * V / (V - w.variance),
                                         float(w(mean) / g(mean))))
    return WeightFamily([g]), WeightFamily(quotients)


def classical_type2(weights, m):
    """The monic type II multiple orthogonal polynomial P of degree |m| on
    the family W: integral P x^j W_k dx = 0 for j < m_k.  It is the mixed
    type II solve of ({g}, {W_k / g}) with n = (|m| + 1,), whose one
    polynomial is P: .polynomials_original()[0]."""
    g, quotients = _split_off_wide_gaussian(weights)
    pair = MultiIndexPair.defining((sum(m) + 1,), m)
    return solve_mixed(pair, moment_table_for(pair, g, quotients),
                       Normalization.type2(0))


def classical_type1(weights, n):
    """The type I form Q = sum_l A_l W_l, deg A_l <= n_l - 1, with integral
    Q x^j dx = 0 for j <= |n| - 2 and 1 at j = |n| - 1.  It is the mixed
    type I solve of ({W_l / g}, {g}) with m = (|n| - 1,), whose form is
    Q / g; returned on the family W, so that .form is Q itself."""
    g, quotients = _split_off_wide_gaussian(weights)
    pair = MultiIndexPair.defining(n, (sum(n) - 1,))
    sol = solve_mixed(pair, moment_table_for(pair, quotients, g),
                      Normalization.type1(0))
    return dataclasses.replace(sol, weights=weights)


# ---------------------------------------------------------------------------
# Faddeeva-function oracle for Cauchy transforms of polynomial x Gaussian


def _gauss_line_moments(count):
    # integral u^j e^{-u^2} du over the real line
    out = [math.sqrt(math.pi), 0.0]
    for j in range(2, count + 1):
        out.append(0.5 * (j - 1) * out[j - 2])
    return out


def faddeeva_cauchy_gaussian(poly_coeffs, center, variance, amplitude,
                             z: complex) -> complex:
    """integral (sum_i c_i x^i) * amp * e^{-(x-center)^2/(2 variance)} / (x-z) dx
    via the Faddeeva function w(zeta) and the moment recursion
    C_j = G_{j-1} + zeta C_{j-1}."""
    s = math.sqrt(2.0 * variance)
    zeta = (z - center) / s
    if zeta.imag > 0:
        C0 = 1j * math.pi * special.wofz(zeta)
    else:
        C0 = np.conj(1j * math.pi * special.wofz(np.conj(zeta)))
    deg = len(poly_coeffs) - 1
    G = _gauss_line_moments(max(deg, 1))
    C = [C0]
    for j in range(1, deg + 1):
        C.append(G[j - 1] + zeta * C[j - 1])
    total = 0.0 + 0.0j
    for i, ci in enumerate(poly_coeffs):
        if ci == 0.0:
            continue
        # x^i = (center + s u)^i expanded binomially; the s du from the
        # substitution cancels against the 1/(s (u - zeta)) in the kernel
        for j in range(i + 1):
            total += (ci * math.comb(i, j) * center ** (i - j) * s ** j
                      * C[j])
    return amplitude * total


# ---------------------------------------------------------------------------
# Extrapolation to a zero step


def richardson_extrapolate(values, steps):
    """Polynomial (Lagrange) extrapolation of values(step) to step = 0."""
    out = 0.0
    for i, (vi, si) in enumerate(zip(values, steps)):
        wi = 1.0
        for j, sj in enumerate(steps):
            if j != i:
                wi *= sj / (sj - si)
        out = out + wi * np.asarray(vi, dtype=complex)
    return out


# ---------------------------------------------------------------------------
# Tensor-grid oracle for the Karlin-McGregor normalization


def tensor_normalization(w1: WeightFamily, w2: WeightFamily, box, degree):
    """integral over box^n of det[w1_i(x_j)] det[w2_i(x_j)] as the plain
    degree^n tensor Gauss-Legendre sum, each determinant on the grid built
    as a signed sum over the n! permutations."""
    n = len(w1)
    lo, hi = box
    nodes, wts = np.polynomial.legendre.leggauss(degree)
    h = 0.5 * (hi - lo)
    xs = 0.5 * (lo + hi) + h * nodes
    letters = "abcdefgh"[:n]
    spec = ",".join(letters) + "->" + letters

    def det_on_grid(values):
        out = np.zeros((degree,) * n)
        for perm in itertools.permutations(range(n)):
            sign = np.linalg.det(np.eye(n)[list(perm)])
            out += sign * np.einsum(spec, *[values[p] for p in perm])
        return out

    total = det_on_grid(w1.values(xs)) * det_on_grid(w2.values(xs))
    for _ in range(n):
        total = np.tensordot(h * wts, total, axes=(0, 0))
    return float(total)


# ---------------------------------------------------------------------------
# Quadrature oracle for the exact sampler's inverse-CDF step


def _partial_mass(system, M, lo, x):
    """int_lo^x phi^T M psi by Gauss-Legendre on [lo, x], and the integrand
    at x, from fresh basis evaluations."""
    t, w = np.polynomial.legendre.leggauss(brownian.DPP_NODES)
    half = 0.5 * (x - lo)
    pts = np.concatenate([(lo + half)[:, None] + half[:, None] * t,
                          x[:, None]], axis=1)
    phi, psi = brownian._phi_psi(system, pts)
    rho = np.einsum("adk,dac,cdk->dk", phi, M, psi)
    return half * (rho[:, :-1] * w).sum(axis=1), rho[:, -1]


def _invert_by_quadrature(system, M, lo, hi, x, residual, scale):
    """Safeguarded Newton on the exact integrand: x in [lo, hi] with
    int_lo^x phi^T M psi = residual to INVERSION_TOL * scale."""
    edge = lo
    x, lo, hi = x.copy(), lo.copy(), hi.copy()
    active = np.arange(x.size)
    for _ in range(brownian.INVERSION_MAX_STEPS):
        xa = x[active]
        mass, rho = _partial_mass(system, M[active], edge[active], xa)
        miss = mass - residual[active]
        done = np.abs(miss) <= brownian.INVERSION_TOL * scale[active]
        below = miss < 0.0
        lo[active] = np.where(below, xa, lo[active])
        hi[active] = np.where(below, hi[active], xa)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = xa - miss / rho
        inside = (step > lo[active]) & (step < hi[active])
        x[active] = np.where(done, xa, np.where(
            inside, step, 0.5 * (lo[active] + hi[active])))
        active = active[~done]
        if active.size == 0:
            return x
    raise AssertionError("quadrature inversion did not converge")


def quadrature_dpp_oracle(system, box, count, seed):
    """The chain-rule sampler of `sample_projection_dpp` with the same
    uniforms, panel cumulants and panel search, but each point refined by
    Newton on Gauss-Legendre quadrature of phi^T M psi over [panel edge, x]
    instead of on the panel's Legendre series.  Returns the sorted draws."""
    n = system.dimension
    u = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(seed))).random((count, n))
    left_edge, right_edge = brownian._panel_edges(system, box)
    cumulants, _ = brownian._panel_series(system, left_edge, right_edge)
    out = np.empty((count, n))
    M = np.tile(np.eye(n), (count, 1, 1))
    rows = np.arange(count)
    for k in range(n):
        cdf = np.maximum.accumulate(M.reshape(count, n * n) @ cumulants.T,
                                    axis=1)
        mass = cdf[:, -1]
        target = u[:, k] * mass
        panel = np.count_nonzero(cdf[:, 1:-1] <= target[:, None], axis=1)
        left, right = cdf[rows, panel], cdf[rows, panel + 1]
        lo, hi = left_edge[panel], right_edge[panel]
        frac = np.divide(target - left, right - left,
                         out=np.full(count, 0.5), where=right > left)
        x = _invert_by_quadrature(system, M, lo, hi,
                                  lo + np.clip(frac, 0.0, 1.0) * (hi - lo),
                                  target - left, mass)
        out[:, k] = x
        phi, psi = brownian._phi_psi(system, x)
        Mpsi = np.einsum("iab,bi->ia", M, psi)
        phiM = np.einsum("ai,iab->ib", phi, M)
        denom = np.einsum("ia,ia->i", phiM, psi.T)
        M = M - Mpsi[:, :, None] * phiM[:, None, :] / denom[:, None, None]
    return np.sort(out, axis=1)


# ---------------------------------------------------------------------------
# Per-draw oracle for the exact sampler's contractions


def _invert_by_legval(coef, lo, hi, x, residual, scale):
    """Safeguarded Newton on each draw's panel series, evaluated by
    numpy's Clenshaw `legval`; coef has shape (L, 2, draws).  Returns the
    points, the largest relative miss and the series density there."""
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    out, rho_at = np.empty_like(x), np.empty_like(x)
    worst = 0.0
    active = np.arange(x.size)
    for _ in range(brownian.INVERSION_MAX_STEPS):
        rho, mass = np.polynomial.legendre.legval(
            (x - mid) / half, coef, tensor=False)
        miss = mass - residual
        done = np.abs(miss) <= brownian.INVERSION_TOL * scale
        below = miss < 0.0
        lo, hi = np.where(below, x, lo), np.where(below, hi, x)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = x - miss / rho
        step = np.where((step > lo) & (step < hi), step, 0.5 * (lo + hi))
        if done.any():
            worst = max(worst, float(np.max(np.abs(miss[done]) / scale[done])))
            out[active[done]], rho_at[active[done]] = x[done], rho[done]
            keep = ~done
            active = active[keep]
            if active.size == 0:
                return out, worst, rho_at
            coef = coef[..., keep]
            step, lo, hi, mid, half, residual, scale = (
                a[keep] for a in (step, lo, hi, mid, half, residual, scale))
        x = step
    raise AssertionError("series inversion did not converge")


def _bisect_one_draw(cdf_at, target, panels):
    """The panel p with C(e_p) <= target < C(e_{p+1}) of one draw, by
    bisection between edge 0 (CDF 0) and edge `panels`, and the CDF at its
    two edges."""
    lo, hi, left, right = 0, panels, 0.0, cdf_at(panels)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        value = cdf_at(mid)
        if value <= target:
            lo, left = mid, value
        else:
            hi, right = mid, value
    return lo, left, right


def per_draw_dpp_oracle(system, box, count, seed):
    """The chain-rule sampler of `sample_projection_dpp` one draw at a time:
    at every step, the first included, each draw's panel is found by its own
    bisection on the CDF at single edges (one dot product of its M with the
    edge's cumulants each), its panel's density series is contracted with
    its M, the CDF series is numpy's `legint` of it, and both are inverted
    by `legval`.  Returns the sorted draws and the three certificates (mass
    deviation, inversion miss, series gap)."""
    n = system.dimension
    u = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(seed))).random((count, n))
    left_edge, right_edge = brownian._panel_edges(system, box)
    panels = left_edge.size
    cumulants, series = brownian._panel_series(system, left_edge, right_edge)
    out = np.empty((count, n))
    M = np.tile(np.eye(n), (count, 1, 1))
    mass_dev = inversion = series_gap = 0.0
    for k in range(n):
        panel = np.empty(count, dtype=int)
        mass, left, right = np.empty(count), np.empty(count), np.empty(count)
        density = np.empty((brownian.DPP_NODES, count))
        for d in range(count):
            flat = M[d].reshape(-1)
            mass[d] = flat @ cumulants[panels]
            panel[d], left[d], right[d] = _bisect_one_draw(
                lambda e: flat @ cumulants[e], u[d, k] * mass[d], panels)
            density[:, d] = flat @ series[panel[d]]
        mass_dev = max(mass_dev, float(np.max(np.abs(mass - (n - k)))) / (n - k))
        target = u[:, k] * mass
        lo, hi = left_edge[panel], right_edge[panel]
        frac = np.divide(target - left, right - left,
                         out=np.full(count, 0.5), where=right > left)
        integral = np.polynomial.legendre.legint(density, lbnd=-1, axis=0)
        coef = np.stack([np.vstack([density, np.zeros((1, count))]),
                         integral * (0.5 * (hi - lo))], axis=1)
        x, resid, rho = _invert_by_legval(
            coef, lo, hi, lo + np.clip(frac, 0.0, 1.0) * (hi - lo),
            target - left, mass)
        inversion = max(inversion, resid)
        out[:, k] = x
        phi, psi = (np.ascontiguousarray(v.T)
                    for v in brownian._phi_psi(system, x))
        Mpsi = np.matmul(M, psi[:, :, None])
        phiM = np.matmul(phi[:, None, :], M)
        denom = np.matmul(phiM, psi[:, :, None])[:, 0, 0]
        series_gap = max(series_gap, float(
            np.max(np.abs(rho - denom) * (hi - lo))) / (n - k))
        M = M - Mpsi * phiM / denom[:, None, None]
    return np.sort(out, axis=1), (mass_dev, inversion, series_gap)


# ---------------------------------------------------------------------------
# Null-space oracle


def nullspace_oracle(M: np.ndarray) -> np.ndarray:
    return linalg.null_space(M, rcond=1e-10)


# ---------------------------------------------------------------------------
# Cell-by-cell CSV oracle


def _csv_cell(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return "%.17g" % float(value)


def csv_oracle_bytes(header, rows) -> bytes:
    """CSV text of a header and row tuples, one cell at a time: integers by
    str, floats by %.17g, lines joined by newlines with one at the end."""
    lines = [",".join(header)]
    lines.extend(",".join(_csv_cell(v) for v in row) for row in rows)
    return ("\n".join(lines) + "\n").encode()


def kernel_grid_rows(xs, Kd, Kcd):
    """The (x, y, K_direct, K_cd, abs_diff) rows of kernel_grid.csv by a
    per-cell loop over the xs x xs grid."""
    return [(x, y, Kd[i, j], Kcd[i, j], abs(Kd[i, j] - Kcd[i, j]))
            for i, x in enumerate(xs) for j, y in enumerate(xs)]


# ---------------------------------------------------------------------------
# One-point evaluation of the grid routes


def kernel_at(route, system, x: float, y: float) -> float:
    """K(x, y) from a grid route (kernel_direct_grid, kernel_cd_grid or
    kernel_rh_grid) on the one-point grid {x} x {y}."""
    return float(route(system, np.array([x], dtype=float),
                       np.array([y], dtype=float))[0, 0])


# ---------------------------------------------------------------------------
# Scalar oracle for the CD kernel inside the diagonal band


def band_value_oracle(data, x: float, y: float) -> float:
    """CD value at one cell with |x - y| <= delta_diag: the l'Hopital limit
    on the exact diagonal, else divided differences of the x-side forms
    against the y-side values, one scalar form evaluation at a time."""
    if x == y:
        return float(kernel_cd_diagonal(data, x))
    h = x - y
    acc = 0.0
    # the p type II terms first, then the q type I terms
    for sign, a, b in cd_terms(data):
        dd = (float(a.form(x)) - float(a.form(y))) / h
        acc += sign * dd * float(b.form(y))
    return acc


# ---------------------------------------------------------------------------
# Per-form oracles for the stacked CD evaluation


def form_oracle(sol, x):
    """Q(x) of one solution, one polyval and one weight call per weight."""
    x = np.asarray(x, dtype=float)
    u = (x - sol.center) / sol.scale
    out = np.zeros_like(u)
    for cf, w in zip(sol.coeffs, sol.weights):
        out = out + P.polyval(u, cf) * w(x)
    return out


def poly_values_oracle(sol, x):
    """A_l(x) for every l of one solution: polyval per weight on real input;
    on complex input Horner's rule per polynomial on the real and imaginary
    parts of u, (x.real - center) / scale and x.imag / scale, each started
    from its own leading coefficient and written into the output part by
    part."""
    x = np.asarray(x)
    if not np.iscomplexobj(x):
        return np.stack([P.polyval((x - sol.center) / sol.scale, cf)
                         for cf in sol.coeffs])
    ur, ui = (x.real - sol.center) / sol.scale, x.imag / sol.scale
    out = np.empty((len(sol.coeffs),) + x.shape, dtype=complex)
    for k, cf in enumerate(sol.coeffs):
        re, im = np.full(x.shape, cf[-1]), np.zeros(x.shape)
        for c in cf[-2::-1]:
            re, im = c + (re * ur - im * ui), re * ui + im * ur
        out.real[k], out.imag[k] = re, im
    return out


def rh_poly_block_oracle(data, name, points):
    """The polynomial columns of Y (name "y") or X ("x") at points, shape
    (Z, p + q, columns), from poly_values_oracle form by form."""
    forms = data.x_forms if name == "y" else data.y_forms
    factors = rh._block_table(data)[name].poly_factors
    return np.moveaxis(factors[:, None, None] * np.stack(
        [poly_values_oracle(s, points) for s in forms]), -1, 0)


def form_derivative_oracle(sol, x):
    """dQ/dx of one solution with polyder per weight (gaussian weights)."""
    x = np.asarray(x, dtype=float)
    u = (x - sol.center) / sol.scale
    out = np.zeros_like(u)
    for cf, w in zip(sol.coeffs, sol.weights):
        dcf = P.polyder(cf) if len(cf) > 1 else np.zeros(1)
        out = out + (P.polyval(u, dcf) / sol.scale) * w(x)
        out = out + P.polyval(u, cf) * (-(x - w.center) / w.variance * w(x))
    return out


def neighbour_solves_oracle(pair, table):
    """The 2(p+q) neighbour solves of the CD route in term order, each by
    its own solve_mixed call on the table or its swap, as the CD data
    stores them: x-side type II (n + e_j, m) and type I (n, m - e_k), then
    y-side type I (m, n - e_j) and type II (m + e_k, n).  A failing solve
    raises as solve_mixed does."""
    n, m = pair.n, pair.m
    swapped = table.swapped()
    specs = ([(table, "II", j, n.bumped(j, 1), m) for j in range(len(n))]
             + [(table, "I", k, n, m.bumped(k, -1)) for k in range(len(m))]
             + [(swapped, "I", j, m, n.bumped(j, -1)) for j in range(len(n))]
             + [(swapped, "II", k, m.bumped(k, 1), n) for k in range(len(m))])
    return [solve_mixed(MultiIndexPair.defining(a.parts, b.parts), t,
                        Normalization(kind, k))
            for t, kind, k, a, b in specs]


def square_system_oracle(values, scale, normalization, n, m):
    """The defining system (A, b, lead) of the pair (n, m) on the moment
    array values, written out from the definition: the conditions are the
    moment_matrix of the two layouts, and the closing row is the unit row
    at the monic coefficient (type II, right-hand side scale^(n_k - 1)) or
    scale^(m_k) times the shifted moments of orders i + m_k, integral Q
    x^{m_k} w2_k dx less the terms the conditions zero (type I, right-hand
    side 1).  lead is None for type I."""
    cols = [(l, i) for l, deg in enumerate(n) for i in range(deg)]
    rows = [(k, j) for k, deg in enumerate(m) for j in range(deg)]
    k = normalization.index
    A = np.zeros((len(cols), len(cols)), dtype=values.dtype)
    A[:-1] = moment_matrix(values, cols, rows)
    b = np.zeros(len(cols), dtype=values.dtype)
    if normalization.kind == "II":
        lead = cols.index((k, n[k] - 1))
        A[-1, lead] = 1
        b[-1] = scale ** (n[k] - 1)
        return A, b, lead
    A[-1] = scale ** m[k] * moment_matrix(values, cols, [(k, m[k])])[0]
    b[-1] = 1
    return A, b, None


def expanded_type1_row(values, center, scale, n, m, k):
    """The type I closing row integral Q x^{m_k} w2_k dx in full: the
    shifted moments of orders i + t weighted by the binomial expansion of
    x^{m_k} in u = (x - center) / scale and summed in order t = 0..m_k.
    A reference for the reduced row, which drops the terms t < m_k."""
    cols = [(l, i) for l, deg in enumerate(n) for i in range(deg)]
    shifted = moment_matrix(values, cols, [(k, t) for t in range(m[k] + 1)])
    row = 0
    for t in range(m[k] + 1):
        c = math.comb(m[k], t) * center ** (m[k] - t) * scale ** t
        row = row + c * shifted[t]
    return row


def assert_same_solutions(got, want):
    """Pairs, normalizations, coefficients (bit for bit), residuals and
    precisions agree, solution by solution."""
    assert len(got) == len(want)
    for s, o in zip(got, want):
        assert (s.pair, s.normalization) == (o.pair, o.normalization)
        assert [c.tobytes() for c in s.coeffs] == [c.tobytes() for c in o.coeffs]
        assert (s.residual, s.precision) == (o.residual, o.precision)


def cd_terms(data):
    """(sign, x-side form, y-side form) of each term of the CD numerator."""
    return [(1.0 if r < data.p else -1.0, a, b)
            for r, (a, b) in enumerate(zip(data.x_forms, data.y_forms))]


def cd_diagonal_oracle(data, x):
    """K(x, x) summed term by term from per-form derivatives and values."""
    x = np.asarray(x, dtype=float)
    acc = np.zeros_like(x)
    for sign, a, b in cd_terms(data):
        acc = acc + sign * form_derivative_oracle(a, x) * form_oracle(b, x)
    return acc


def cd_band_oracle(data, x, y):
    """kernel_cd_band term by term from per-form values."""
    out = np.empty(x.shape)
    diag = x == y
    out[diag] = cd_diagonal_oracle(data, x[diag])
    xo, yo = x[~diag], y[~diag]
    acc = np.zeros(xo.shape)
    for sign, a, b in cd_terms(data):
        acc = acc + sign * (form_oracle(a, xo) - form_oracle(a, yo)) \
            / (xo - yo) * form_oracle(b, yo)
    out[~diag] = acc
    return out


def cd_grid_oracle(data, xs, ys):
    """kernel_cd_grid from per-form values, with cd_band_oracle on the band."""
    p = data.p
    X = np.stack([form_oracle(s, xs) for s in data.x_forms])
    Y = np.stack([form_oracle(s, ys) for s in data.y_forms])
    N = np.einsum("jx,jy->xy", X[:p], Y[:p]) - np.einsum("kx,ky->xy", X[p:], Y[p:])
    denom = xs[:, None] - ys[None, :]
    band = np.abs(denom) <= data.delta_diag
    out = np.empty_like(N)
    np.divide(N, denom, out=out, where=~band)
    ix, iy = np.nonzero(band)
    out[ix, iy] = cd_band_oracle(data, xs[ix], ys[iy])
    return out


def band_grids(delta):
    """(xs, ys) grids whose band cells lie strictly off the diagonal, and a
    mixed pair that also hits the exact diagonal."""
    xs = np.linspace(-2.0, 2.0, 41)
    off = (xs, xs + delta / 3.0)
    mixed = (xs, np.concatenate([xs[:20], xs[20:30] + delta / 3.0,
                                 xs[30:] - 0.9 * delta]))
    return {"off": off, "mixed": mixed}


def assert_band_matches_oracle(data, xs, ys, K, expect_exact):
    ix, iy = np.nonzero(np.abs(xs[:, None] - ys[None, :]) <= data.delta_diag)
    exact = xs[ix] == ys[iy]
    assert ix.size >= 20 and (np.any(exact) == expect_exact)
    assert np.count_nonzero(~exact) >= 20
    want = np.array([band_value_oracle(data, float(xs[i]), float(ys[j]))
                     for i, j in zip(ix, iy)])
    assert np.max(np.abs(K[ix, iy] - want) / (1.0 + np.abs(want))) <= 1e-13


# ---------------------------------------------------------------------------
# Shared configurations


@pytest.fixture
def unit_gaussian():
    return Weight.gaussian(0.0, 1.0, 1.0)


@pytest.fixture
def squared_exp_gaussian():
    # the weight e^{-x^2}
    return Weight.gaussian(0.0, 0.5, 1.0)


def random_gaussian_families(rng, p, q):
    """Well-separated random Gaussian families for property tests."""
    def fam(count, base):
        ws = []
        for i in range(count):
            center = base + 1.6 * i + rng.uniform(-0.3, 0.3)
            variance = rng.uniform(0.5, 1.4)
            amplitude = rng.uniform(0.6, 1.4)
            ws.append(Weight.gaussian(center, variance, amplitude))
        return WeightFamily(ws)
    return fam(p, rng.uniform(-1.0, -0.5)), fam(q, rng.uniform(-0.6, 0.2))


def random_balanced_parts(rng, count, total):
    """count positive integers summing to total."""
    cuts = np.sort(rng.choice(np.arange(1, total), size=count - 1,
                              replace=False)) if count > 1 else np.array([], int)
    parts = np.diff(np.concatenate([[0], cuts, [total]]))
    return [int(v) for v in parts]
