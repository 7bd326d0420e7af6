"""Shared fixtures and independent oracles.

The oracles deliberately avoid the library's own quadrature and solver
paths: product moments come from scipy's adaptive quadrature, monic
orthogonal polynomials from a Hankel-system Gram-Schmidt construction,
Cauchy transforms from the Faddeeva function, the Karlin-McGregor
normalization from the plain tensor-grid sum, and null spaces from an SVD
performed outside the solver.  The CSV oracle formats cell by cell from
each value's Python type; the band oracle evaluates the CD kernel near the
diagonal one cell at a time.
"""

import itertools
import math

import numpy as np
import pytest
from scipy import integrate, linalg, special

from mixedmop import Weight, WeightFamily, kernel_cd_diagonal


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
# Scalar oracle for the CD kernel inside the diagonal band


def band_value_oracle(data, x: float, y: float) -> float:
    """CD value at one cell with |x - y| <= delta_diag: the l'Hopital limit
    on the exact diagonal, else divided differences of the x-side forms
    against the y-side values, one scalar form evaluation at a time."""
    if x == y:
        return float(kernel_cd_diagonal(data, x))
    h = x - y
    acc = 0.0
    for j in range(data.p):
        dd = (float(data.x_type2[j].form(x)) - float(data.x_type2[j].form(y))) / h
        acc += dd * float(data.y_type1[j].form(y))
    for k in range(data.q):
        dd = (float(data.x_type1[k].form(x)) - float(data.x_type1[k].form(y))) / h
        acc -= dd * float(data.y_type2[k].form(y))
    return acc


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
