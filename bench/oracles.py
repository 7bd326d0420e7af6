"""Reference computations made apart from mixedmop.

Nothing here imports the library.  Weights are (center, variance, amplitude)
triples for amplitude * exp(-(x - center)^2 / (2 variance)); moments come
from scipy.integrate.quad, solves from dense numpy linear algebra, Cauchy
transforms of polynomial-times-Gaussian integrands from the Faddeeva
function, and the Hermite reference from numpy.polynomial.hermite.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
from scipy import integrate, special

SQRT_2PI = math.sqrt(2.0 * math.pi)


def weight_triples(raw: list[dict]) -> list[tuple[float, float, float]]:
    return [(float(w["center"]), float(w["variance"]), float(w.get("amplitude", 1.0)))
            for w in raw]


def transition_triples(points, time: float, n_scale: int) -> list[tuple[float, float, float]]:
    """Brownian transition densities from each point over ``time``, with the
    variance divided by ``n_scale``; one triple per point (multiplicities
    enter through the multi-index)."""
    var = time / n_scale
    return [(float(a), var, 1.0 / math.sqrt(2.0 * math.pi * var)) for a in points]


def _evaluate(w, x):
    c, v, a = w
    return a * np.exp(-((np.asarray(x, dtype=float) - c) ** 2) / (2.0 * v))


def gaussian_product(w1, w2) -> tuple[float, float, float]:
    """(mean, variance, amplitude) of the product of two Gaussian weights."""
    (c1, v1, a1), (c2, v2, a2) = w1, w2
    var = 1.0 / (1.0 / v1 + 1.0 / v2)
    mean = var * (c1 / v1 + c2 / v2)
    amp = a1 * a2 * math.exp(-((c1 - c2) ** 2) / (2.0 * (v1 + v2)))
    return mean, var, amp


def quad_moments(w1, w2, rmax: int, shift: float = 0.0) -> np.ndarray:
    """integral (x - shift)^r w1(x) w2(x) dx for r = 0..rmax, by quad."""
    mean, var, _ = gaussian_product(w1, w2)
    sd = math.sqrt(var)
    lo, hi = mean - 40.0 * sd, mean + 40.0 * sd
    out = np.empty(rmax + 1)
    # quad warns when roundoff stops it short of epsrel = 1e-13; the values
    # are still far inside the tolerances they are checked against.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        for r in range(rmax + 1):
            out[r], _ = integrate.quad(
                lambda x: (x - shift) ** r * _evaluate(w1, x) * _evaluate(w2, x),
                lo, hi, points=[mean], epsabs=0.0, epsrel=1e-13, limit=400)
    return out


# ---------------------------------------------------------------------------
# Projection kernel by a dense Gram solve


class GramKernel:
    """K(x, y) = f(x)^T B^{-T} g(y) for the raw bases (x - c)^i w1_l(x),
    i < n_l, and (y - c)^j w2_k(y), j < m_k, with B their quad Gram matrix."""

    def __init__(self, w1, w2, n, m):
        self.w1, self.w2, self.n, self.m = list(w1), list(w2), list(n), list(m)
        self.shift = float(np.mean([w[0] for w in self.w1 + self.w2]))
        self.f_layout = [(l, i) for l, nl in enumerate(self.n) for i in range(nl)]
        self.g_layout = [(k, j) for k, mk in enumerate(self.m) for j in range(mk)]
        rmax = max(self.n) + max(self.m)
        mom = {(l, k): quad_moments(self.w1[l], self.w2[k], rmax, self.shift)
               for l in range(len(self.n)) for k in range(len(self.m))}
        self.gram = np.array([[mom[l, k][i + j] for k, j in self.g_layout]
                              for l, i in self.f_layout])
        self.condition = float(np.linalg.cond(self.gram))

    def _basis(self, layout, weights, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return np.stack([(x - self.shift) ** i * _evaluate(weights[l], x)
                         for l, i in layout])

    def values(self, xs, ys) -> np.ndarray:
        """K at the point pairs (xs[k], ys[k])."""
        F = self._basis(self.f_layout, self.w1, xs)
        G = self._basis(self.g_layout, self.w2, ys)
        return np.einsum("an,an->n", F, np.linalg.solve(self.gram.T, G))


# ---------------------------------------------------------------------------
# Mixed solves by a dense system in plain monomials


def solve_mixed(w1, w2, n, m, kind: str, index: int) -> list[np.ndarray]:
    """Coefficients (lowest degree first, plain x) of A_l, deg A_l < n_l, with
    Q = sum_l A_l w1_l orthogonal to x^j w2_k for j < m_k, normalized so A_index
    is monic (kind "II") or integral Q x^{m_index} w2_index = 1 (kind "I")."""
    rmax = max(n) + max(m) + 1
    mom = {(l, k): quad_moments(w1[l], w2[k], rmax)
           for l in range(len(n)) for k in range(len(m))}
    cols = [(l, i) for l, nl in enumerate(n) for i in range(nl)]
    rows = [[mom[l, k][i + j] for l, i in cols]
            for k, mk in enumerate(m) for j in range(mk)]
    if kind == "II":
        rows.append([1.0 if (l, i) == (index, n[index] - 1) else 0.0 for l, i in cols])
    else:
        rows.append([mom[l, index][i + m[index]] for l, i in cols])
    A = np.array(rows)
    b = np.zeros(len(rows))
    b[-1] = 1.0
    x = np.linalg.solve(A, b)
    out, pos = [], 0
    for nl in n:
        out.append(x[pos:pos + nl])
        pos += nl
    return out


def orthogonality_residual(coeffs, w1, w2, m) -> float:
    """max over (k, j < m_k) of |integral Q x^j w2_k| relative to the sum of
    the absolute terms, with quad moments."""
    worst = 0.0
    for k, mk in enumerate(m):
        moms = [quad_moments(w1[l], w2[k], len(cf) + mk) for l, cf in enumerate(coeffs)]
        for j in range(mk):
            terms = np.concatenate([cf * mom[j:j + len(cf)]
                                    for cf, mom in zip(coeffs, moms)])
            worst = max(worst, abs(terms.sum()) / max(np.abs(terms).sum(), 1e-300))
    return worst


def type1_normalization(coeffs, w1, w2, m, index: int) -> float:
    """integral Q x^{m_index} w2_index dx, by quad moments."""
    mi = m[index]
    return float(sum(np.dot(cf, quad_moments(w1[l], w2[index], len(cf) + mi)[mi:mi + len(cf)])
                     for l, cf in enumerate(coeffs)))


def monic_hermite(degree: int) -> np.ndarray:
    """H_d / 2^d in power-series coefficients, lowest degree first: the monic
    orthogonal polynomial for exp(-x^2)."""
    return np.polynomial.hermite.herm2poly([0.0] * degree + [1.0]) / 2.0 ** degree


# ---------------------------------------------------------------------------
# Cauchy transforms in closed form


def _cauchy_gaussian_powers(mean, var, amp, z: complex, rmax: int) -> np.ndarray:
    """integral x^r G(x) / (x - z) dx for r = 0..rmax, G = amp exp(-(x-mean)^2/(2 var)).

    C_0 comes from the Faddeeva function w (int e^{-t^2}/(t - zeta) dt =
    i pi w(zeta) for Im zeta > 0), the rest from C_r = M_{r-1} + z C_{r-1}.
    """
    sd = math.sqrt(var)
    zeta = (z - mean) / (math.sqrt(2.0) * sd)
    if zeta.imag > 0:
        c0 = 1j * math.pi * special.wofz(zeta)
    else:
        c0 = -1j * math.pi * special.wofz(-zeta)
    e = [1.0, mean]
    for r in range(2, rmax + 1):
        e.append(mean * e[r - 1] + (r - 1) * var * e[r - 2])
    moments = amp * SQRT_2PI * sd * np.array(e[:rmax + 1])
    out = np.empty(rmax + 1, dtype=complex)
    out[0] = amp * c0
    for r in range(1, rmax + 1):
        out[r] = moments[r - 1] + z * out[r - 1]
    return out


def cauchy_of_form(coeffs, w1, w_other, z: complex) -> complex:
    """integral sum_l A_l(x) w1_l(x) w_other(x) / (x - z) dx in closed form."""
    total = 0.0 + 0.0j
    for l, cf in enumerate(coeffs):
        mean, var, amp = gaussian_product(w1[l], w_other)
        powers = _cauchy_gaussian_powers(mean, var, amp, z, max(len(cf) - 1, 0))
        total += complex(np.dot(cf, powers[:len(cf)]))
    return total


def y_cauchy_column(w1, w2, n, m, z: complex, column: int = 0) -> np.ndarray:
    """Column p + column of the Riemann-Hilbert matrix Y(z) for the balanced
    pair (n, m): rows k < p hold C[Q^II_k w2]/(2 pi i) for the type II
    neighbour (n + e_k, m); rows p + k hold -C[Q^I_k w2] for the type I
    neighbour (n, m - e_k)."""
    p, q = len(n), len(m)
    w_col = w2[column]
    out = np.empty(p + q, dtype=complex)
    for k in range(p):
        nk = list(n)
        nk[k] += 1
        cf = solve_mixed(w1, w2, nk, m, "II", k)
        out[k] = cauchy_of_form(cf, w1, w_col, z) / (2j * math.pi)
    for k in range(q):
        mk = list(m)
        mk[k] -= 1
        cf = solve_mixed(w1, w2, n, mk, "I", k)
        out[p + k] = -cauchy_of_form(cf, w1, w_col, z)
    return out


# ---------------------------------------------------------------------------
# Brownian bridges


def batch_means_z(values: np.ndarray, expected: float, batches: int = 40) -> float:
    """(mean - expected) / SE, with the SE from contiguous batch means."""
    values = np.asarray(values, dtype=float)
    size = values.size // batches
    means = values[:size * batches].reshape(batches, size).mean(axis=1)
    se = means.std(ddof=1) / math.sqrt(batches)
    return float((values.mean() - expected) / se)


def centre_of_mass_law(starts, ends, time: float, n_scale: int) -> tuple[float, float]:
    """Mean and variance of the walkers' centre of mass at ``time``.

    Non-intersection conditions only the walkers' relative motion, which is
    independent of the centre of mass, so the centre of mass keeps the law of
    the average of independent bridges (each with variance t(1-t)/n_scale).
    """
    starts = np.asarray(starts, dtype=float)
    ends = np.asarray(ends, dtype=float)
    mean = (1.0 - time) * starts.mean() + time * ends.mean()
    var = time * (1.0 - time) / (n_scale * starts.size)
    return float(mean), float(var)
