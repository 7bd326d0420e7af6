"""Riemann-Hilbert characterization: matrix assembly and verification.

Y and X read the two form stacks of the CD data, one array evaluation per
matrix: the (p+q) x (p+q) matrix Y has a row per form of x_stack, its
polynomials in the first p columns and Cauchy transforms of form-times-w2
products in the last q; its inverse transpose X takes the swapped forms of
y_stack, Cauchy columns against w1 first.  The weights are Gaussian, so
every Cauchy entry is a polynomial times a Gaussian, evaluated in closed
form through the Faddeeva function from the stack coefficients rebased once
per product Gaussian; on the real line that gives the boundary values Y+
and Y- exactly, as Plemelj limits.  Verification checks the four defining
properties numerically: the multiplicative jump Y+ = Y- J on the real
line, the diagonal power asymptotics at large |z|, unit determinant, and
X^T Y = I.  The kernel read off Y and X is the CD sum with Y's block
factors (kernel_rh_grid); no Cauchy value enters it.
"""

from __future__ import annotations

import cmath
import math
from typing import Callable, NamedTuple

import numpy as np

from .kernel import CdKernelData, _cd_sum, build_cd_data
from .mop import FormStack, MultiIndexPair, affine_rebase
from .weights import (AccuracyError, WeightFamily, family_interval,
                      gaussian_product_params, _leggauss)

TWO_PI_I = 2j * math.pi

# Below this |Im z| (in units of the basis scale) the transform switches to
# singularity subtraction.
NEAR_AXIS_FACTOR = 0.05
# Boundary sides: "+" from above the real line, "-" from below.
SIDES = {"+": 1, "-": -1}

_PANEL_DEGREE = 24

# Closed form.  With t = (x - mean) / sqrt(2 var) for a product Gaussian,
# C_j(zeta) = int t^j e^{-t^2} / (t - zeta) dt.  For |zeta| < SERIES_RADIUS
# the C_j come from C_0 = i pi w(zeta) by the forward recursion, whose error
# grows like |zeta|^j; beyond it from the truncated large-|zeta| series,
# whose error falls like exp(-|zeta|^2).  Where they meet both lose digits as
# 6^j / Gamma((j+1)/2): up to 3e-9 relative at j = 7 and 2e-8 at j = 10.
SERIES_RADIUS = 6.0
SERIES_TERMS = 80
BRANCHES = ("recursion", "asymptotic_series")


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
    No library path calls it: with cauchy_transform it is the tests' oracle
    of the closed form, and stays here while bench/tracing.py wraps both by
    name (ROADMAP item 10 moves them into tests/).
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


def cauchy_transform(f: Callable, interval: tuple[float, float], z: complex,
                     side: str | None = None, *, spread: float,
                     abs_tol: float = 1e-11) -> tuple[complex, float]:
    """integral f(x) / (x - z) dx over the interval.

    A real z must lie inside the interval and needs side '+' or '-': the
    boundary value from above or below, principal value plus or minus
    i pi f(z) (Sokhotski-Plemelj); off the real line side is not read.  On
    the axis and near it (|Im z| < 0.05 * spread) the constant term is
    subtracted and reinstated through the exact log primitive, which keeps
    the remaining integrand's pole residue O(f' * Im z).  No library path
    calls it (see adaptive_panel_integral).
    """
    a, b = interval
    z = complex(z)
    inside = a < z.real < b
    if z.imag == 0.0 and not (inside and side in SIDES):
        raise ValueError("a real z needs side '+' or '-' inside the interval")
    x0 = float(np.clip(z.real, a, b))
    fx0, total = 0.0, 0.0 + 0.0j
    if inside and abs(z.imag) < NEAR_AXIS_FACTOR * spread:
        fx0 = float(np.asarray(f(np.array([x0])), dtype=float)[0])
        if z.imag == 0.0:
            total = fx0 * (math.log((b - x0) / (x0 - a))
                           + SIDES[side] * 1j * math.pi)
        else:
            total = fx0 * (cmath.log(b - z) - cmath.log(a - z))

    def g(xs):
        return (f(xs) - fx0) / (xs - z)

    err = 0.0
    for lo, hi in ([(a, x0), (x0, b)] if inside else [(a, b)]):
        val, e = adaptive_panel_integral(g, lo, hi, abs_tol=abs_tol)
        total += val
        err += e
    return total, err


def _line_moments(count: int) -> np.ndarray:
    """G_k = int t^k e^{-t^2} dt over the real line, k < count."""
    G = np.zeros(count)
    G[0] = math.sqrt(math.pi)
    for k in range(2, count, 2):
        G[k] = 0.5 * (k - 1) * G[k - 2]
    return G


def gaussian_cauchy_moments(zeta, degree: int, side: int = 0
                            ) -> tuple[np.ndarray, np.ndarray]:
    """C_j(zeta) = int t^j e^{-t^2} / (t - zeta) dt for j = 0..degree.

    Off the real line the half plane of zeta decides; a real zeta needs
    side = +1 or -1 and gets the boundary value from above or below.
    Returns (C, series): C with shape zeta.shape + (degree + 1,), and the
    mask of arguments that took the asymptotic series (|zeta| >=
    SERIES_RADIUS) instead of the recursion.
    """
    from scipy.special import wofz

    zeta = np.asarray(zeta, dtype=complex)
    sgn = np.where(zeta.imag == 0.0, side, np.sign(zeta.imag))
    if np.any(sgn == 0):
        raise ValueError("closed-form Cauchy transform of a real argument "
                         "needs side +1 or -1")
    G = _line_moments(degree + SERIES_TERMS)
    C = np.empty(zeta.shape + (degree + 1,), dtype=complex)
    series = np.abs(zeta) >= SERIES_RADIUS

    near = zeta[~series]
    if near.size:
        # C_0 = s i pi w(s zeta) with s the side; on the real line this is
        # the Plemelj limit, since wofz takes real arguments.
        s = sgn[~series]
        cs = [s * 1j * math.pi * wofz(s * near)]
        for j in range(1, degree + 1):
            cs.append(G[j - 1] + near * cs[-1])
        C[~series] = np.stack(cs, axis=-1)

    far = zeta[series]
    if far.size:
        # C_j = -sum_k G_{j+k} / zeta^{k+1}, cut at its smallest term.
        k = np.arange(SERIES_TERMS)
        Gjk = G[np.arange(degree + 1)[:, None] + k[None, :]]
        terms = -Gjk * ((1.0 / far)[:, None] ** (k + 1))[:, None, :]
        stop = np.argmin(np.where(Gjk > 0.0, np.abs(terms), np.inf), axis=-1)
        far_C = np.sum(np.where(k <= stop[..., None], terms, 0.0), axis=-1)
        # On the real line the series is the principal value; the residue
        # s i pi zeta^j e^{-zeta^2} completes the boundary value.
        axis = far.imag == 0.0
        x = np.where(axis, far.real, 0.0)
        res = np.where(axis, sgn[series] * 1j * math.pi * np.exp(-x * x), 0)
        for j in range(degree + 1):
            far_C[:, j] += res
            res = res * x
        C[series] = far_C
    return C, series


def jump_matrix(w1: WeightFamily, w2: WeightFamily, x) -> np.ndarray:
    """The unipotent jump [[I, W(x)], [0, I]] with W = w1(x)^T w2(x): one
    (p+q) x (p+q) matrix at a real x, a stack of them at an array of x."""
    x = np.asarray(x, dtype=float)
    p, q = len(w1), len(w2)
    J = np.broadcast_to(np.eye(p + q), x.shape + (p + q, p + q)).copy()
    J[..., :p, p:] = np.einsum("j...,l...->...jl", w1.values(x), w2.values(x))
    return J


class _Block(NamedTuple):
    """One of Y = [P | C] and X = [C | P].  Row r holds poly_factors[r]
    times the polynomials of the stack's form r and cauchy_factors[r] times
    the Cauchy transforms of that form times each column weight."""

    stack: FormStack
    weights: WeightFamily
    cauchy_factors: np.ndarray
    poly_factors: np.ndarray


def _block_table(data: CdKernelData) -> dict[str, _Block]:
    """The blocks of Y (the (w1, w2) forms, Cauchy columns against w2) and
    of X (the swapped forms, Cauchy columns against w1)."""
    p, q = data.p, data.q
    return {
        "y": _Block(data.x_stack, data.table.w2,
                    np.array([1.0 / TWO_PI_I] * p + [-1.0] * q),
                    np.array([1.0] * p + [-TWO_PI_I] * q)),
        "x": _Block(data.y_stack, data.table.w1,
                    np.array([-1.0] * p + [-1.0 / TWO_PI_I] * q),
                    np.array([TWO_PI_I] * p + [1.0] * q)),
    }


class RhSystem:
    """Cached neighbor solves plus geometry for repeated Y/X evaluations.

    Both families must be all-Gaussian (ValueError otherwise).  The Cauchy
    columns of Y (the last q) and of X (the first p) pair the forms of one
    orientation with the weights of the other; each form-times-weight
    product is a sum of polynomials times product Gaussians, whose
    coefficients in the Gaussians' own variables are tabulated here once,
    so that an evaluation is one Faddeeva call per product Gaussian and a
    contraction.  A real z needs side '+' or '-' and gives that boundary
    value of the Cauchy columns; the polynomial columns carry no jump.
    branch_counts tallies the evaluations by closed-form branch, one per
    product Gaussian and z.
    """

    def __init__(self, pair: MultiIndexPair, w1: WeightFamily, w2: WeightFamily):
        if not (w1.all_gaussian and w2.all_gaussian):
            raise ValueError("RhSystem needs all-gaussian weight families")
        self.pair = pair
        self.w1 = w1
        self.w2 = w2
        self.data = build_cd_data(pair, w1, w2)
        self.interval = family_interval(w1, w2)
        self.branch_counts = dict.fromkeys(BRANCHES, 0)
        self._blocks = _block_table(self.data)
        self._closed = self._closed_form_terms()

    def _closed_form_terms(self) -> dict:
        """Per block, the mean and sigma of the product Gaussian of (column
        weight l, form weight j) and the tensor T[r, l, j, d]: amplitude
        times coefficient d (in that Gaussian's t) of form r's polynomial on
        its weight j, padded to one length for both blocks."""
        size = max(b.stack.coeffs.shape[-1] for b in self._blocks.values())
        terms = {}
        for name, (stack, weights, _, _) in self._blocks.items():
            params = np.array([[gaussian_product_params(a, b)
                                for b in stack.weights] for a in weights])
            mean, var, amp = np.moveaxis(params, -1, 0)
            sigma = np.sqrt(2.0 * var)
            coeffs = np.zeros(stack.coeffs.shape[:-1] + (size,))
            coeffs[..., :stack.coeffs.shape[-1]] = stack.coeffs
            T = amp[..., None] * affine_rebase(
                coeffs[:, None], (mean - stack.center) / stack.scale,
                sigma / stack.scale)
            terms[name] = (mean, sigma, T)
        return terms

    def _cauchy_block(self, name: str, zs: np.ndarray, side: str | None
                      ) -> np.ndarray:
        """Row factor times the Cauchy transform of form r times column
        weight l, for every (r, l) of the block at each of the points zs,
        shape (Z, rows, columns); on the real line the boundary value from
        the given side."""
        mean, sigma, T = self._closed[name]
        zeta = (zs.astype(complex)[:, None, None] - mean) / sigma
        C, series = gaussian_cauchy_moments(zeta, T.shape[-1] - 1,
                                            SIDES.get(side, 0))
        n_series = int(np.count_nonzero(series))
        self.branch_counts["asymptotic_series"] += n_series
        self.branch_counts["recursion"] += series.size - n_series
        return (np.einsum("rljd,zljd->zrl", T, C)
                * self._blocks[name].cauchy_factors[:, None])

    def _matrix(self, name: str, z, side: str | None) -> np.ndarray:
        """Y or X at z: (N, N) at a scalar z, (Z, N, N) at a 1-D array."""
        zs = np.asarray(z)
        points = zs.reshape(-1)
        block = self._blocks[name]
        poly = block.poly_factors[:, None] * np.moveaxis(
            block.stack.poly_values(points), -1, 0)
        cauchy = self._cauchy_block(name, points, side)
        out = np.concatenate([poly, cauchy] if name == "y" else [cauchy, poly],
                             axis=-1)
        return out.reshape(zs.shape + out.shape[1:])

    def y_matrix(self, z, side: str | None = None) -> np.ndarray:
        """Y(z) = [P | C]; a real z takes the boundary value from side.
        A scalar z gives the (N, N) matrix, a 1-D array of points the
        (Z, N, N) stack; side holds for every real point of the call."""
        return self._matrix("y", z, side)

    def x_matrix(self, z, side: str | None = None) -> np.ndarray:
        """X(z) = Y(z)^{-T} = [C | P] from the swapped-orientation forms,
        with the shapes of y_matrix."""
        return self._matrix("x", z, side)


def verify_jump(system: RhSystem, xs) -> list[dict]:
    """Residual max|Y+ - Y- J| of the jump condition at each real point of
    xs, passed below 1e-6 max(max|Y+|, 1); one dict per point."""
    xs = np.asarray(xs, dtype=float).reshape(-1)
    J = jump_matrix(system.w1, system.w2, xs)
    Yp = system.y_matrix(xs, "+")
    Ym = system.y_matrix(xs, "-")
    residuals = np.max(np.abs(Yp - Ym @ J), axis=(-2, -1))
    y_norms = np.max(np.abs(Yp), axis=(-2, -1))
    return [{"x": x, "residual": r, "y_norm": y,
             "passed": r < 1e-6 * max(y, 1.0)}
            for x, r, y in zip(xs.tolist(), residuals.tolist(),
                               y_norms.tolist())]


def asymptotic_errors(system: RhSystem) -> dict:
    """|| Y(iR) diag(z^-n, z^m) - I || for R = 10, 20, 40, with decay ratios."""
    zs = 1j * np.array([10.0, 20.0, 40.0])
    Y = system.y_matrix(zs)
    # z**k through the log, steady at large |z| and large k
    powers = np.array([-nl for nl in system.pair.n.parts]
                      + list(system.pair.m.parts))
    scales = np.exp(powers[None, :] * np.log(zs)[:, None])
    scaled = Y * scales[:, None, :]
    errors = np.max(np.abs(scaled - np.eye(len(powers))), axis=(-2, -1)).tolist()
    ratios = [errors[i] / errors[i + 1] for i in range(len(errors) - 1)]
    return {"errors": errors, "ratios": ratios}


# ---------------------------------------------------------------------------
# Kernel through the Riemann-Hilbert matrix


def kernel_rh_grid(data: CdKernelData, xs, ys) -> np.ndarray:
    """[0, w2(y)] Y+^{-1}(y) Y+(x) [w1(x), 0]^T / (2 pi i (x - y)) on the
    grid xs x ys.  Its column and row are the polynomial blocks of Y and X
    against w1 and w2: forms r of x_stack and y_stack times the blocks'
    poly_factors.  So it is the CD sum with term factors pf_y pf_x / 2 pi i,
    which must be real (they are the CD signs); AccuracyError otherwise."""
    blocks = _block_table(data)
    c = blocks["y"].poly_factors * blocks["x"].poly_factors / TWO_PI_I
    imag = float(np.max(np.abs(c.imag)))
    if imag != 0.0:
        raise AccuracyError(f"kernel_rh_grid term factor with imaginary part "
                            f"{imag:.3e}", achieved=imag)
    return _cd_sum(data, xs, ys, c.real)


# ---------------------------------------------------------------------------
# Verification report


def rh_verification_report(system: RhSystem, *, seed: int = 42,
                           tol: float = 1e-7) -> tuple[dict, np.ndarray]:
    """The four RH certificates: det and X^T Y at 20 random points off the
    real line, the jump at 10 random points on it, and the asymptotics.
    Returns the report and Y at the first of the 20 points.

    This certifies that the assembled matrix satisfies the defining
    conditions within tolerance; it does not certify uniqueness.
    """
    counts_before = dict(system.branch_counts)
    rng = np.random.default_rng(seed)
    lo, hi = system.interval
    span = hi - lo
    zs = []
    for _ in range(20):
        re = rng.uniform(lo + 0.25 * span, hi - 0.25 * span)
        im = rng.uniform(0.1, 2.0) * (1 if rng.uniform() < 0.5 else -1)
        zs.append(complex(re, im))

    points = np.array(zs)
    Y = system.y_matrix(points)
    X = system.x_matrix(points)
    size = Y.shape[-1]
    det_residuals = np.abs(np.linalg.det(Y) - 1.0).tolist()
    xy_residuals = np.max(np.abs(np.swapaxes(X, -2, -1) @ Y - np.eye(size)),
                          axis=(-2, -1)).tolist()
    # rounding floor of X^T Y: (p + q) u max|X| max|Y| with u = 2^-52
    xy_floors = size * 2.0 ** -52 * (np.max(np.abs(X), axis=(-2, -1))
                                     * np.max(np.abs(Y), axis=(-2, -1)))

    xs_real = np.sort(rng.uniform(lo + 0.3 * span, hi - 0.3 * span, 10))
    jump_reports = verify_jump(system, xs_real)
    asym = asymptotic_errors(system)

    report = {
        "pair": system.pair.to_json_dict(),
        "z_points": [{"re": z.real, "im": z.imag} for z in zs],
        "det_residuals": det_residuals,
        "det_max": max(det_residuals),
        "x_y_consistency": xy_residuals,
        "x_y_max": max(xy_residuals),
        "x_y_floor_max": float(np.max(xy_floors)),
        "jump_points": [r["x"] for r in jump_reports],
        "jump_residuals": [r["residual"] for r in jump_reports],
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
    return report, Y[0]


MATRIX_CSV_HEADER = ("row", "col", "re", "im")


def matrix_rows(matrix: np.ndarray) -> np.ndarray:
    """(row, col, re, im) for every entry, row-major, as one array."""
    row, col = np.indices(matrix.shape).reshape(2, -1)
    return np.column_stack([row, col, matrix.real.ravel(), matrix.imag.ravel()])

