"""Riemann-Hilbert characterization: matrix assembly and verification.

The (p+q) x (p+q) matrix Y is assembled entrywise from the neighbor solves:
polynomial entries in the first p columns, Cauchy transforms of form-times-
weight products in the last q.  Its inverse transpose X comes from the
swapped-orientation solves.  For all-Gaussian families every Cauchy entry
is a polynomial times a Gaussian, evaluated in closed form through the
Faddeeva function; tabulated families go through adaptive panel quadrature.
Verification checks the four defining properties numerically: the
multiplicative jump across the real line (boundary values by Richardson
extrapolation in the offset), the diagonal power asymptotics at large |z|,
unit determinant, and X^T Y = I.  The
kernel can also be read off Y's polynomial block together with the swapped
forms, with no Cauchy boundary values involved.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ._util import write_csv
from .kernel import CdKernelData, DiagonalRegion, build_cd_data, kernel_cd_band
from .mop import MultiIndexPair
from .weights import (AccuracyError, ProductMomentTable, WeightFamily,
                      family_interval, gaussian_product_params, _leggauss)

TWO_PI_I = 2j * math.pi

# Below this |Im z| (in units of the basis scale) the transform switches to
# singularity subtraction; boundary values use the Richardson ladder.
NEAR_AXIS_FACTOR = 0.05
JUMP_DELTAS = (1e-2, 5e-3, 2.5e-3)

_PANEL_DEGREE = 24

# Closed form.  With t = (x - mean) / sqrt(2 var) for a product Gaussian,
# C_j(zeta) = int t^j e^{-t^2} / (t - zeta) dt.  For |zeta| < SERIES_RADIUS
# the C_j come from C_0 = i pi w(zeta) by the forward recursion, whose error
# grows like |zeta|^j; beyond it from the truncated large-|zeta| series,
# whose error falls like exp(-|zeta|^2).  Where they meet both lose digits as
# 6^j / Gamma((j+1)/2): up to 3e-9 relative at j = 7 and 2e-8 at j = 10.
SERIES_RADIUS = 6.0
SERIES_TERMS = 80
# Relative accuracy of scipy.special.wofz (largest seen against mpmath on
# |zeta| <= 6.5: 1.1e-14).
WOFZ_REL = 2e-14
_EPS = float(np.finfo(float).eps)
BRANCHES = ("recursion", "asymptotic_series", "panel")


def _gl_panel(f: Callable, a: float, b: float):
    nodes, wts = _leggauss(_PANEL_DEGREE)
    xs = 0.5 * (a + b) + 0.5 * (b - a) * nodes
    return 0.5 * (b - a) * np.sum(wts * f(xs))


def adaptive_panel_integral(f: Callable, a: float, b: float, *,
                            abs_tol: float = 1e-11,
                            max_depth: int = 52) -> tuple[complex, float]:
    """Recursive bisection quadrature with per-panel Gauss-Legendre rules.

    Panels refine toward any feature (in particular a pole just off the
    contour) until the local two-level estimate settles; the local budget is
    proportional to panel width so the global error stays below abs_tol.
    """
    if b <= a:
        return 0.0 + 0.0j, 0.0
    total = b - a
    noise = abs_tol * 1e-3

    def rec(lo, hi, whole, depth):
        mid = 0.5 * (lo + hi)
        left = _gl_panel(f, lo, mid)
        right = _gl_panel(f, mid, hi)
        err = abs(left + right - whole)
        budget = max(abs_tol * (hi - lo) / total, noise)
        if err <= budget or depth >= max_depth:
            return left + right, err
        lval, lerr = rec(lo, mid, left, depth + 1)
        rval, rerr = rec(mid, hi, right, depth + 1)
        return lval + rval, lerr + rerr

    whole = _gl_panel(f, a, b)
    value, err = rec(a, b, whole, 0)
    if err > 100.0 * abs_tol:
        raise AccuracyError("panel quadrature did not settle",
                            value=value, achieved=err)
    return value, err


def cauchy_transform(f: Callable, interval: tuple[float, float], z: complex, *,
                     spread: float, abs_tol: float = 1e-11) -> tuple[complex, float]:
    """integral f(x) / (x - z) dx over the interval, z off the real line.

    Near the axis (|Im z| < 0.05 * spread) the constant term is subtracted
    and reinstated through the exact log primitive, which keeps the
    remaining integrand's pole residue O(f' * Im z).
    """
    a, b = interval
    zim = z.imag
    if zim == 0.0:
        raise ValueError("cauchy_transform needs Im z != 0; use the boundary "
                         "evaluators for real arguments")
    x0 = float(np.clip(z.real, a, b))
    pieces = [(a, x0), (x0, b)] if a < x0 < b else [(a, b)]

    if abs(zim) < NEAR_AXIS_FACTOR * spread and a < z.real < b:
        fx0 = complex(np.asarray(f(np.array([x0])), dtype=float)[0])

        def g(xs):
            return (f(xs) - fx0.real) / (xs - z)

        total = fx0 * (cmath.log(b - z) - cmath.log(a - z))
        err = 0.0
        for lo, hi in pieces:
            val, e = adaptive_panel_integral(g, lo, hi, abs_tol=abs_tol)
            total += val
            err += e
        return total, err

    def g(xs):
        return f(xs) / (xs - z)

    total = 0.0 + 0.0j
    err = 0.0
    for lo, hi in pieces:
        val, e = adaptive_panel_integral(g, lo, hi, abs_tol=abs_tol)
        total += val
        err += e
    return total, err


def cauchy_boundary_plemelj(f: Callable, interval: tuple[float, float],
                            x: float, side: str, *,
                            abs_tol: float = 1e-11) -> tuple[complex, float]:
    """Boundary value of the Cauchy transform by Sokhotski-Plemelj:
    principal value plus (+/-) i pi f(x).  Cross-check for the Richardson
    route; x must lie inside the interval."""
    a, b = interval
    if not a < x < b:
        raise ValueError("Plemelj evaluation needs x inside the interval")
    fx = float(np.asarray(f(np.array([x])), dtype=float)[0])

    def g(xs):
        return (f(xs) - fx) / (xs - x)

    pv = fx * math.log((b - x) / (x - a))
    err = 0.0
    for lo, hi in ((a, x), (x, b)):
        val, e = adaptive_panel_integral(g, lo, hi, abs_tol=abs_tol)
        pv += val.real
        err += e
    sgn = {"+": 1.0, "-": -1.0}[side]
    return pv + sgn * 1j * math.pi * fx, err


def _line_moments(count: int) -> np.ndarray:
    """G_k = int t^k e^{-t^2} dt over the real line, k < count."""
    G = np.zeros(count)
    G[0] = math.sqrt(math.pi)
    for k in range(2, count, 2):
        G[k] = 0.5 * (k - 1) * G[k - 2]
    return G


def gaussian_cauchy_moments(zeta, degree: int
                            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """C_j(zeta) = int t^j e^{-t^2} / (t - zeta) dt for j = 0..degree.

    Returns (C, err, series): C and its error estimate err with shape
    zeta.shape + (degree + 1,), and the mask of arguments that took the
    asymptotic series (|zeta| >= SERIES_RADIUS) instead of the recursion.
    """
    from scipy.special import wofz

    zeta = np.asarray(zeta, dtype=complex)
    if np.any(zeta.imag == 0.0):
        raise ValueError("closed-form Cauchy transform needs Im z != 0")
    G = _line_moments(degree + SERIES_TERMS)
    C = np.empty(zeta.shape + (degree + 1,), dtype=complex)
    err = np.empty(C.shape)
    series = np.abs(zeta) >= SERIES_RADIUS

    near = zeta[~series]
    if near.size:
        # C_0 = i pi w(zeta) above the axis, -i pi w(-zeta) below it.
        sgn = np.sign(near.imag)
        c = sgn * 1j * math.pi * wofz(sgn * near)
        e = WOFZ_REL * np.abs(c)
        cs, es = [c], [e]
        for j in range(1, degree + 1):
            step = near * c
            c = G[j - 1] + step
            e = np.abs(near) * e + _EPS * (G[j - 1] + np.abs(step))
            cs.append(c)
            es.append(e)
        C[~series] = np.stack(cs, axis=-1)
        err[~series] = np.stack(es, axis=-1)

    far = zeta[series]
    if far.size:
        # C_j = -sum_k G_{j+k} / zeta^{k+1}, cut at its smallest term.
        k = np.arange(SERIES_TERMS)
        Gjk = G[np.arange(degree + 1)[:, None] + k[None, :]]
        terms = -Gjk * ((1.0 / far)[:, None] ** (k + 1))[:, None, :]
        mag = np.abs(terms)
        stop = np.argmin(np.where(Gjk > 0.0, mag, np.inf), axis=-1)
        keep = k <= stop[..., None]
        C[series] = np.sum(np.where(keep, terms, 0.0), axis=-1)
        err[series] = (_EPS * np.sum(np.where(keep, mag, 0.0), axis=-1)
                       + np.take_along_axis(mag, stop[..., None], axis=-1)[..., 0])
    return C, err, series


def _rebased(coeffs: np.ndarray, alpha: float, beta: float, size: int) -> np.ndarray:
    """Coefficients in t of sum_i coeffs[i] (alpha + beta t)^i, padded to size."""
    out = np.zeros(size)
    for c in reversed(np.asarray(coeffs, dtype=float)):
        out[1:] = alpha * out[1:] + beta * out[:-1]
        out[0] = alpha * out[0] + c
    return out


def richardson_extrapolate(values: Sequence[np.ndarray],
                           deltas: Sequence[float]) -> np.ndarray:
    """Polynomial extrapolation of values(delta) to delta = 0 (Lagrange)."""
    deltas = [float(d) for d in deltas]
    out = np.zeros_like(np.asarray(values[0], dtype=complex))
    for i, (vi, di) in enumerate(zip(values, deltas)):
        wi = 1.0
        for j, dj in enumerate(deltas):
            if j != i:
                wi *= dj / (dj - di)
        out = out + wi * np.asarray(vi, dtype=complex)
    return out


def _zpow(z: complex, k: int) -> complex:
    """z**k through the log, steady at large |z| and large k."""
    if k == 0:
        return 1.0 + 0.0j
    return cmath.exp(k * cmath.log(z))


@dataclass(frozen=True)
class JumpMatrix:
    """The unipotent jump [[I, W(x)], [0, I]] with W = w1(x)^T w2(x)."""

    x: float
    value: np.ndarray


def jump_matrix(w1: WeightFamily, w2: WeightFamily, x: float) -> JumpMatrix:
    p, q = len(w1), len(w2)
    J = np.eye(p + q)
    W = np.outer(w1.values(x).ravel(), w2.values(x).ravel())
    J[:p, p:] = W
    return JumpMatrix(x=float(x), value=J)


@dataclass(frozen=True)
class RhEvaluation:
    """One evaluation of Y (or X) with per-entry error bounds."""

    pair: MultiIndexPair
    z: complex
    matrix: np.ndarray
    accuracy: np.ndarray
    side: str | None = None

    def determinant(self) -> complex:
        return complex(np.linalg.det(self.matrix))


class RhSystem:
    """Cached neighbor solves plus geometry for repeated Y/X evaluations.

    The Cauchy columns of Y (the last q) and of X (the first p) pair the
    forms of one orientation with the weights of the other.  For
    all-Gaussian families each form-times-weight product is a sum of
    polynomials times product Gaussians; their coefficients in the
    Gaussians' own variables are tabulated here once, so that an evaluation
    is one Faddeeva call per product Gaussian and a contraction.
    branch_counts tallies the Cauchy evaluations by branch: one per product
    Gaussian and z for the closed form, one per entry and z for the panel.
    """

    def __init__(self, pair: MultiIndexPair, w1: WeightFamily, w2: WeightFamily,
                 table: ProductMomentTable | None = None,
                 data: CdKernelData | None = None, *, precision: str = "double"):
        w1 = w1 if isinstance(w1, WeightFamily) else WeightFamily(w1)
        w2 = w2 if isinstance(w2, WeightFamily) else WeightFamily(w2)
        if data is None:
            data = build_cd_data(pair, w1, w2, table, precision=precision)
        self.pair = pair
        self.w1 = w1
        self.w2 = w2
        self.data = data
        self.p = len(w1)
        self.q = len(w2)
        self.interval = family_interval(w1, w2)
        self.spread = data.table.scale
        self.branch_counts = dict.fromkeys(BRANCHES, 0)
        # (forms, column weights, row factors) of the Cauchy blocks
        self._blocks = {
            "y": (data.x_type2 + data.x_type1, w2,
                  np.array([1.0 / TWO_PI_I] * self.p + [-1.0] * self.q)),
            "x": (data.y_type1 + data.y_type2, w1,
                  np.array([-1.0] * self.p + [-1.0 / TWO_PI_I] * self.q)),
        }
        self._closed = None
        if w1.all_gaussian and w2.all_gaussian:
            self._closed = self._closed_form_terms()

    def _closed_form_terms(self) -> dict:
        """Product Gaussians of (w1_j, w2_l) and, per block, the tensor
        T[r, l, j, d]: amplitude times coefficient d (in that Gaussian's t) of
        form r's polynomial on its weight j, against column weight l."""
        params = np.array([[gaussian_product_params(a, b) for b in self.w2]
                           for a in self.w1])
        mean, var, amp = params[..., 0], params[..., 1], params[..., 2]
        sigma = np.sqrt(2.0 * var)
        forms = self._blocks["y"][0] + self._blocks["x"][0]
        size = max(len(cf) for sol in forms for cf in sol.coeffs)

        terms = {}
        for side, (sols, weights, _) in self._blocks.items():
            T = np.zeros((len(sols), len(weights), len(sols[0].coeffs), size))
            for r, sol in enumerate(sols):
                for l in range(len(weights)):
                    for j, cf in enumerate(sol.coeffs):
                        g = (j, l) if side == "y" else (l, j)
                        T[r, l, j] = amp[g] * _rebased(
                            cf, (mean[g] - sol.center) / sol.scale,
                            sigma[g] / sol.scale, size)
            terms[side] = T
        return {"mean": mean, "sigma": sigma, "degree": size - 1, **terms}

    def _cauchy_block(self, side: str, z: complex) -> tuple[np.ndarray, np.ndarray]:
        """Row factor times the Cauchy transform of form r times column
        weight l, for every (r, l) of the block, with error bounds."""
        sols, weights, factors = self._blocks[side]
        if self._closed is None:
            block = np.zeros((len(sols), len(weights)), dtype=complex)
            acc = np.zeros(block.shape)
            for l, wl in enumerate(weights):
                for r, sol in enumerate(sols):
                    val, err = cauchy_transform(
                        lambda xs, s=sol, w=wl: s.form(xs) * w(xs),
                        self.interval, z, spread=self.spread)
                    block[r, l] = val * factors[r]
                    acc[r, l] = err * abs(factors[r])
            self.branch_counts["panel"] += block.size
            return block, acc
        cf = self._closed
        zeta = (z - cf["mean"]) / cf["sigma"]
        C, err, series = gaussian_cauchy_moments(zeta, cf["degree"])
        n_series = int(np.count_nonzero(series))
        self.branch_counts["asymptotic_series"] += n_series
        self.branch_counts["recursion"] += series.size - n_series
        spec = "rljd,jld->rl" if side == "y" else "rljd,ljd->rl"
        T = cf[side]
        block = np.einsum(spec, T, C) * factors[:, None]
        acc = np.einsum(spec, np.abs(T), err) * np.abs(factors)[:, None]
        return block, acc

    # -- Y ------------------------------------------------------------------

    def y_matrix(self, z: complex) -> tuple[np.ndarray, np.ndarray]:
        p, q = self.p, self.q
        Y = np.zeros((p + q, p + q), dtype=complex)
        acc = np.zeros((p + q, p + q))
        for k in range(p):
            Y[k, :p] = self.data.x_type2[k].poly_values(z)
        for k in range(q):
            Y[p + k, :p] = -TWO_PI_I * self.data.x_type1[k].poly_values(z)
        Y[:, p:], acc[:, p:] = self._cauchy_block("y", z)
        return Y, acc

    # -- X = Y^{-T} ---------------------------------------------------------

    def x_matrix(self, z: complex) -> tuple[np.ndarray, np.ndarray]:
        p, q = self.p, self.q
        X = np.zeros((p + q, p + q), dtype=complex)
        acc = np.zeros((p + q, p + q))
        X[:, :p], acc[:, :p] = self._cauchy_block("x", z)
        for k in range(p):
            X[k, p:] = TWO_PI_I * self.data.y_type1[k].poly_values(z)
        for k in range(q):
            X[p + k, p:] = self.data.y_type2[k].poly_values(z)
        return X, acc

    def _boundary(self, matrix_fn, x: float, side: str,
                  deltas: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
        sgn = {"+": 1.0, "-": -1.0}[side]
        mats, accs = zip(*(matrix_fn(complex(x, sgn * d)) for d in deltas))
        extrap = richardson_extrapolate(mats, deltas)
        quad_acc = np.max(np.stack(accs), axis=0)
        ladder_gap = np.abs(extrap - mats[-1])
        return extrap, quad_acc + ladder_gap


def eval_Y(pair: MultiIndexPair, w1: WeightFamily, w2: WeightFamily, z, *,
           table: ProductMomentTable | None = None,
           data: CdKernelData | None = None, side: str | None = None,
           deltas: Sequence[float] = JUMP_DELTAS,
           system: RhSystem | None = None) -> RhEvaluation:
    """Evaluate Y at z; real z needs side '+'/'-' (Richardson boundary value)."""
    rhs = system or RhSystem(pair, w1, w2, table, data)
    zc = complex(z)
    if zc.imag == 0.0:
        if side not in ("+", "-"):
            raise ValueError("real z requires side '+' or '-'")
        mat, acc = rhs._boundary(rhs.y_matrix, zc.real, side, deltas)
        return RhEvaluation(pair=pair, z=zc, matrix=mat, accuracy=acc, side=side)
    mat, acc = rhs.y_matrix(zc)
    return RhEvaluation(pair=pair, z=zc, matrix=mat, accuracy=acc)


def eval_X(pair: MultiIndexPair, w1: WeightFamily, w2: WeightFamily, z, *,
           table: ProductMomentTable | None = None,
           data: CdKernelData | None = None, side: str | None = None,
           deltas: Sequence[float] = JUMP_DELTAS,
           system: RhSystem | None = None) -> RhEvaluation:
    """Evaluate the inverse transpose X directly from the swapped solves."""
    rhs = system or RhSystem(pair, w1, w2, table, data)
    zc = complex(z)
    if zc.imag == 0.0:
        if side not in ("+", "-"):
            raise ValueError("real z requires side '+' or '-'")
        mat, acc = rhs._boundary(rhs.x_matrix, zc.real, side, deltas)
        return RhEvaluation(pair=pair, z=zc, matrix=mat, accuracy=acc, side=side)
    mat, acc = rhs.x_matrix(zc)
    return RhEvaluation(pair=pair, z=zc, matrix=mat, accuracy=acc)


def verify_jump(system: RhSystem, x: float, *,
                deltas: Sequence[float] = JUMP_DELTAS,
                tol: float = 1e-6) -> dict:
    """Richardson-extrapolated residual of Y+ = Y- J at a real point."""
    J = jump_matrix(system.w1, system.w2, x).value
    diffs = []
    norms = []
    for d in deltas:
        Yp, _ = system.y_matrix(complex(x, d))
        Ym, _ = system.y_matrix(complex(x, -d))
        diffs.append(Yp - Ym @ J)
        norms.append(float(np.max(np.abs(Yp))))
    extrap = richardson_extrapolate(diffs, deltas)
    residual = float(np.max(np.abs(extrap)))
    y_norm = norms[-1]
    return {
        "x": float(x),
        "deltas": [float(d) for d in deltas],
        "residuals_per_delta": [float(np.max(np.abs(D))) for D in diffs],
        "extrapolated_residual": residual,
        "y_norm": y_norm,
        "passed": residual < tol * max(y_norm, 1.0),
    }


def asymptotic_errors(system: RhSystem, radii: Sequence[float] = (10.0, 20.0, 40.0)
                      ) -> dict:
    """|| Y(iR) diag(z^-n, z^m) - I || for increasing R, with decay ratios."""
    n_parts = system.pair.n.parts
    m_parts = system.pair.m.parts
    errors = []
    for R in radii:
        z = complex(0.0, float(R))
        Y, _ = system.y_matrix(z)
        scales = np.array([_zpow(z, -nl) for nl in n_parts]
                          + [_zpow(z, +mk) for mk in m_parts])
        scaled = Y * scales[None, :]
        errors.append(float(np.max(np.abs(scaled - np.eye(len(scales))))))
    ratios = [errors[i] / errors[i + 1] for i in range(len(errors) - 1)]
    return {"radii": [float(r) for r in radii], "errors": errors, "ratios": ratios}


# ---------------------------------------------------------------------------
# Kernel through the Riemann-Hilbert matrix


def _rh_row_column(data: CdKernelData, x, y):
    """Column Y+(x) [w1, 0]^T (through the polynomial block) and the row
    [0, w2(y)] Y+^{-1}(y) (through the swapped forms), both complex."""
    p, q = data.p, data.q
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    w1x = data.table.w1.values(x)
    col = np.zeros((p + q, x.size), dtype=complex)
    for k in range(p):
        col[k] = np.einsum("lx,lx->x", data.x_type2[k].poly_values(x), w1x)
    for k in range(q):
        col[p + k] = -TWO_PI_I * np.einsum(
            "lx,lx->x", data.x_type1[k].poly_values(x), w1x)
    row = np.zeros((p + q, y.size), dtype=complex)
    for k in range(p):
        row[k] = TWO_PI_I * data.y_type1[k].form(y)
    for k in range(q):
        row[p + k] = data.y_type2[k].form(y)
    return col, row


def kernel_rh(data: CdKernelData, x: float, y: float) -> float:
    """K(x, y) via the Y-matrix contraction; DiagonalRegion inside the band."""
    if abs(x - y) <= data.delta_diag:
        raise DiagonalRegion(x, y, data.delta_diag)
    col, row = _rh_row_column(data, x, y)
    val = complex(np.sum(row[:, 0] * col[:, 0])) / (TWO_PI_I * (x - y))
    if abs(val.imag) > 1e-10 * (1.0 + abs(val.real)):
        raise AccuracyError(f"kernel_rh produced imaginary part {val.imag:.3e}")
    return val.real


def kernel_rh_grid(data: CdKernelData, xs, ys) -> np.ndarray:
    """The Y-route kernel on the product grid xs x ys: the Y-matrix row
    times column over 2 pi i (x - y) off the band |x - y| <= delta_diag,
    the shared CD band values (kernel_cd_band) on its cells."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    col, row = _rh_row_column(data, xs, ys)
    N = np.einsum("rx,ry->xy", col, row)
    denom = TWO_PI_I * (xs[:, None] - ys[None, :])
    band = np.abs(xs[:, None] - ys[None, :]) <= data.delta_diag
    out = np.empty(N.shape, dtype=complex)
    np.divide(N, denom, out=out, where=~band)
    imag_max = float(np.max(np.abs(out.imag[~band]))) if np.any(~band) else 0.0
    real = out.real.copy()
    ix, iy = np.nonzero(band)
    real[ix, iy] = kernel_cd_band(data, xs[ix], ys[iy])
    if imag_max > 1e-9 * (1.0 + float(np.max(np.abs(real)))):
        raise AccuracyError(f"kernel_rh grid imaginary part {imag_max:.3e}")
    return real


# ---------------------------------------------------------------------------
# Verification report


def rh_verification_report(system: RhSystem, *, seed: int = 42,
                           det_points: int = 20, jump_points: int = 10,
                           radii: Sequence[float] = (10.0, 20.0, 40.0),
                           tol: float = 1e-7, jump_tol: float = 1e-6,
                           deltas: Sequence[float] = JUMP_DELTAS) -> dict:
    """The four RH certificates: det, X^T Y, jump, asymptotics.

    This certifies that the assembled matrix satisfies the defining
    conditions within tolerance; it does not certify uniqueness.
    """
    counts_before = dict(system.branch_counts)
    rng = np.random.default_rng(seed)
    lo, hi = system.interval
    span = hi - lo
    zs = []
    for _ in range(det_points):
        re = rng.uniform(lo + 0.25 * span, hi - 0.25 * span)
        im = rng.uniform(0.1, 2.0) * (1 if rng.uniform() < 0.5 else -1)
        zs.append(complex(re, im))

    det_residuals = []
    xy_residuals = []
    for z in zs:
        Y, _ = system.y_matrix(z)
        X, _ = system.x_matrix(z)
        det_residuals.append(abs(np.linalg.det(Y) - 1.0))
        xy_residuals.append(float(np.max(np.abs(X.T @ Y - np.eye(Y.shape[0])))))

    xs_real = np.sort(rng.uniform(lo + 0.3 * span, hi - 0.3 * span, jump_points))
    jump_reports = [verify_jump(system, float(x), deltas=deltas, tol=jump_tol)
                    for x in xs_real]
    asym = asymptotic_errors(system, radii)

    return {
        "pair": system.pair.to_json_dict(),
        "z_points": [{"re": z.real, "im": z.imag} for z in zs],
        "det_residuals": det_residuals,
        "det_max": max(det_residuals),
        "x_y_consistency": xy_residuals,
        "x_y_max": max(xy_residuals),
        "jump_points": [r["x"] for r in jump_reports],
        "jump_residuals": [r["extrapolated_residual"] for r in jump_reports],
        "jump_details": jump_reports,
        "asymptotic_errors": asym["errors"],
        "asymptotic_ratios": asym["ratios"],
        "cauchy_branches": {b: system.branch_counts[b] - counts_before[b]
                            for b in BRANCHES},
        "passed": {
            "det": max(det_residuals) < tol,
            "inverse_transpose": max(xy_residuals) < tol,
            "jump": all(r["passed"] for r in jump_reports),
            "asymptotics": all(r >= 1.8 for r in asym["ratios"]),
        },
    }


MATRIX_CSV_HEADER = ("row", "col", "re", "im")


def matrix_rows(matrix: np.ndarray) -> np.ndarray:
    """(row, col, re, im) for every entry, row-major, as one array."""
    row, col = np.indices(matrix.shape).reshape(2, -1)
    return np.column_stack([row, col, matrix.real.ravel(), matrix.imag.ravel()])


def write_matrix_csv(path: str, matrix: np.ndarray) -> None:
    write_csv(path, MATRIX_CSV_HEADER, matrix_rows(matrix))
