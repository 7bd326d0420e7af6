"""Projection kernels: biorthogonal-basis route and Christoffel-Darboux route.

For a balanced pair (|n| = |m|) the kernel projects onto
F = span{x^i w1_l : i < n_l} parallel to the annihilator of
G = span{x^j w2_k : j < m_k}.  The direct route biorthogonalizes the raw
bases through the Gram matrix; the CD route assembles the same kernel from
2(p+q) neighbor solves and a single division by (x - y).  The two routes
share nothing past the moment table, which is what makes their agreement a
meaningful check.

The projection laws (trace |n|, idempotence) are integrated by Gauss-Hermite
quadrature on each product Gaussian w1_l w2_k from basis values, which is
exact for all-gaussian families and independent of the moment table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .mop import (FormStack, MixedMopSolution, MultiIndexPair, Normalization,
                  NotNormalizable, check_normality, moment_matrix,
                  moment_table_for, pair_layouts, rank_threshold, solve_terms)
from .weights import ProductMomentTable, WeightFamily, gaussian_product_params

# Width of the guarded band around the diagonal, in units of the basis scale.
DIAG_BAND_FACTOR = 1e-4


class DegeneratePair(NotNormalizable):
    """F_n intersects the annihilator of G_m: no projection kernel exists."""


# ---------------------------------------------------------------------------
# Direct (biorthogonal) route


@dataclass(frozen=True)
class BiorthogonalSystem:
    """Biorthogonal bases of F and G, packaged for kernel evaluation.

    B is the Gram matrix of the raw bases, C its (refined) inverse; the
    kernel is K(x, y) = f(x)^T C^T g(y) with f, g the raw basis value
    vectors.
    """

    pair: MultiIndexPair
    table: ProductMomentTable
    f_layout: tuple[tuple[int, int], ...]
    g_layout: tuple[tuple[int, int], ...]
    gram: np.ndarray
    transform: np.ndarray
    condition: float

    @property
    def dimension(self) -> int:
        return len(self.f_layout)

    @property
    def w1(self) -> WeightFamily:
        return self.table.w1

    @property
    def w2(self) -> WeightFamily:
        return self.table.w2

    def f_values(self, x) -> np.ndarray:
        return _basis_values(self.f_layout, self.table.w1, self.table.center,
                             self.table.scale, x)

    def g_values(self, x) -> np.ndarray:
        return _basis_values(self.g_layout, self.table.w2, self.table.center,
                             self.table.scale, x)

    @cached_property
    def quadrature_grams(self) -> tuple[np.ndarray, np.ndarray]:
        """Q[b, a] = integral g_b f_a dx by the exact rule, then by the check
        rule, each of C's shape.

        Block (k, l) of Q integrates a polynomial of degree n_l + m_k - 2
        times the product Gaussian w1_l w2_k, which (n_l + m_k) // 2 + 1
        Gauss-Hermite nodes placed on that product integrate exactly; the
        check rule takes one node more.  Both rules' nodes go through one
        f_values and one g_values call, and the moment table is not read:
        the projection laws check the basis evaluation against the moments
        that built C.
        """
        n, m = self.pair.n.parts, self.pair.m.parts
        rule, node_k, node_l, zs, wz = [], [], [], [], []
        for extra in (0, 1):
            for k, wk in enumerate(self.w2):
                for l, wl in enumerate(self.w1):
                    if n[l] and m[k]:
                        mean, var, _ = gaussian_product_params(wl, wk)
                        t, w = _hermgauss((n[l] + m[k]) // 2 + 1 + extra)
                        sd = math.sqrt(2.0 * var)
                        zs.append(mean + sd * t)
                        wz.append(sd * w)
                        rule += [extra] * t.size
                        node_k += [k] * t.size
                        node_l += [l] * t.size
        zs, wz = np.concatenate(zs), np.concatenate(wz)
        f_weight = np.array([l for l, _ in self.f_layout])[:, None]
        g_weight = np.array([k for k, _ in self.g_layout])[:, None]
        F = np.where(f_weight == node_l, self.f_values(zs), 0.0)
        G = np.where(g_weight == node_k, self.g_values(zs) * wz, 0.0)
        exact = np.array(rule) == 0
        return G[:, exact] @ F[:, exact].T, G[:, ~exact] @ F[:, ~exact].T

    def diagonal(self, x) -> np.ndarray:
        """K(x, x) at the points x."""
        return np.einsum("an,ja,jn->n", self.f_values(x), self.transform,
                         self.g_values(x))


@lru_cache(maxsize=None)
def _hermgauss(count: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Hermite nodes t and weights w e^(t^2): the rule for integral
    v(t) dt applied to values v = p e^(-t^2), exact for p of degree below
    2 count."""
    t, w = np.polynomial.hermite.hermgauss(count)
    w = w * np.exp(t * t)
    t.setflags(write=False)
    w.setflags(write=False)
    return t, w


def _basis_values(layout, family, center, scale, x) -> np.ndarray:
    x = np.atleast_1d(np.asarray(x, dtype=float))
    u = (x - center) / scale
    max_pow = max(i for _, i in layout)
    pows = np.vander(u, max_pow + 1, increasing=True).T
    wvals = family.values(x)
    return np.stack([pows[i] * wvals[l] for l, i in layout])


def build_biorthogonal(pair: MultiIndexPair, w1: WeightFamily, w2: WeightFamily,
                       table: ProductMomentTable | None = None) -> BiorthogonalSystem:
    """Gram-matrix biorthogonalization of the raw F and G bases.

    Raises DegeneratePair, with the normality report attached, when the
    Gram matrix is numerically singular.
    """
    if pair.relation != "balanced":
        raise ValueError("kernel construction needs a balanced pair (|n| = |m|)")
    if table is None:
        table = moment_table_for(pair, w1, w2)

    f_layout, g_layout = pair_layouts(pair, table)
    B = moment_matrix(table.values, f_layout, g_layout).T

    U, svals, Vt = np.linalg.svd(B)
    if svals[-1] <= rank_threshold(B.shape, svals[0]):
        report = check_normality(pair, table)
        raise DegeneratePair(
            f"Gram matrix singular for pair n={pair.n.parts} m={pair.m.parts}",
            report=report)
    C = Vt.T @ np.diag(1.0 / svals) @ U.T
    C = C + C @ (np.eye(B.shape[0]) - B @ C)
    cond = float(svals[0] / svals[-1])

    return BiorthogonalSystem(pair=pair, table=table,
                              f_layout=tuple(f_layout), g_layout=tuple(g_layout),
                              gram=B, transform=C, condition=cond)


def kernel_direct_grid(sys: BiorthogonalSystem, xs, ys) -> np.ndarray:
    """K on the product grid xs x ys, shape (len(xs), len(ys))."""
    F = sys.f_values(np.asarray(xs, dtype=float))
    return F.T @ sys.transform.T @ sys.g_values(np.asarray(ys, dtype=float))


def trace_quadrature(sys: BiorthogonalSystem) -> tuple[float, float]:
    """integral K(x, x) dx = sum C o Q by the exact product-Gaussian rule
    (BiorthogonalSystem.quadrature_grams), and its change under the check
    rule, which is rounding only; equals |n| for a projection."""
    exact, check = (float(np.sum(sys.transform * Q))
                    for Q in sys.quadrature_grams)
    return exact, abs(check - exact)


def idempotence_residual(sys: BiorthogonalSystem, xs, ys) -> tuple[float, float]:
    """max |integral K(x,z)K(z,y) dz - K(x,y)| over the grid, with the
    integral F^T C^T Q C^T G by the exact product-Gaussian rule
    (BiorthogonalSystem.quadrature_grams), and the largest change of the
    integral under the check rule, which is rounding only."""
    F = sys.f_values(np.asarray(xs, dtype=float))
    G = sys.g_values(np.asarray(ys, dtype=float))
    left = F.T @ sys.transform.T
    exact, check = (Q @ sys.transform.T @ G for Q in sys.quadrature_grams)
    resid = float(np.max(np.abs(left @ (exact - G))))
    quad_est = float(np.max(np.abs(left @ (check - exact))))
    return resid, quad_est


# ---------------------------------------------------------------------------
# Christoffel-Darboux route


@dataclass(frozen=True)
class CdKernelData:
    """The 2(p+q) neighbor solves feeding the CD numerator, in term order.

    x_forms holds the p type II solves (n + e_j, m), then the q type I solves
    (n, m - e_k), in the (w1, w2) orientation; they take the first kernel
    argument.  y_forms[r] is the swapped (w2, w1) orientation partner of
    x_forms[r], type I (m, n - e_j) then type II (m + e_k, n), and takes the
    second argument.  Term r carries sign +1 for r < p and -1 after.  Every
    stored pair is defining in its own orientation.  build_cd_data lists
    each solve as a term (swap, normalization, defining pair) and hands all
    of them to mop.solve_terms, the one solve driver, which solve_mixed
    runs on a single term.  x_stack and y_stack evaluate each orientation's
    forms as one array.
    """

    pair: MultiIndexPair
    table: ProductMomentTable
    x_forms: tuple[MixedMopSolution, ...]
    y_forms: tuple[MixedMopSolution, ...]
    x_stack: FormStack
    y_stack: FormStack
    delta_diag: float

    @property
    def p(self) -> int:
        return len(self.pair.n)

    @property
    def q(self) -> int:
        return len(self.pair.m)

    @property
    def solutions(self) -> tuple[MixedMopSolution, ...]:
        return self.x_forms + self.y_forms

    @property
    def precision(self) -> str:
        """'extended' when any neighbor solve fell back to it, else 'double'."""
        fell_back = any(s.precision == "extended" for s in self.solutions)
        return "extended" if fell_back else "double"

    def max_residual(self) -> float:
        return max(s.residual for s in self.solutions)

    @property
    def signs(self) -> np.ndarray:
        """The sign of each term of the CD numerator."""
        return np.array([1.0] * self.p + [-1.0] * self.q)


def build_cd_data(pair: MultiIndexPair, w1: WeightFamily, w2: WeightFamily,
                  table: ProductMomentTable | None = None) -> CdKernelData:
    """Run the neighbor solves the CD formula needs, both orientations.

    It lists the 2(p+q) terms (swap, normalization, defining pair) and
    hands them to mop.solve_terms, which stacks them by kind (the type II
    solves have |n| + 1 unknowns and the type I solves |n|) and solves each
    stack by one SVD call, each solve bitwise equal to solve_mixed on it
    alone.  Solves that fail the double rank gate then go, in term order,
    to the extended fallback; the first that fails there raises its
    NotNormalizable, whose message names the failing pair.  The data's
    precision property reports whether any solve fell back.
    """
    if pair.relation != "balanced":
        raise ValueError("CD data needs a balanced pair (|n| = |m|)")
    if table is None:
        table = moment_table_for(pair, w1, w2)
    pair_layouts(pair, table)
    n, m = pair.n, pair.m
    # (swap, normalization, defining pair); a swapped term reads the table
    # with the families exchanged
    I, II, P = Normalization.type1, Normalization.type2, MultiIndexPair
    terms = ([(False, II(j), P(n.bumped(j, +1), m)) for j in range(len(n))]
             + [(False, I(k), P(n, m.bumped(k, -1))) for k in range(len(m))]
             + [(True, I(j), P(m, n.bumped(j, -1))) for j in range(len(n))]
             + [(True, II(k), P(m.bumped(k, +1), n)) for k in range(len(m))])
    forms = solve_terms(table, terms)
    half = len(n) + len(m)
    x_forms, y_forms = tuple(forms[:half]), tuple(forms[half:])
    return CdKernelData(pair=pair, table=table, x_forms=x_forms, y_forms=y_forms,
                        x_stack=FormStack.of(x_forms),
                        y_stack=FormStack.of(y_forms),
                        delta_diag=DIAG_BAND_FACTOR * table.scale)


def _term_sum(terms: np.ndarray) -> np.ndarray:
    """Sum over the first (term) axis from zero, one term after another."""
    acc = np.zeros(terms.shape[1:])
    for term in terms:
        acc = acc + term
    return acc


def kernel_cd_diagonal(data: CdKernelData, x) -> np.ndarray | float:
    """K(x, x) by l'Hopital: the x-derivative of the numerator at y = x."""
    acc = kernel_cd_band(data, x, x)
    return float(acc) if acc.ndim == 0 else acc


def _band_slopes(data: CdKernelData, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """slope_r at the cells (x[i], y[i]): the l'Hopital derivative of x-side
    form r on the exact diagonal, else its divided difference [Q_r(x) -
    Q_r(y)] / (x - y) (N(y, y) = 0 dropped), which stays accurate as
    x - y -> 0."""
    slope = np.empty((len(data.x_forms),) + x.shape)
    diag = x == y
    if diag.any():
        slope[:, diag] = data.x_stack.derivatives(x[diag])
    if not diag.all():
        xo, yo = x[~diag], y[~diag]
        ends = data.x_stack.values(np.concatenate([xo, yo]))
        slope[:, ~diag] = (ends[:, :xo.size] - ends[:, xo.size:]) / (xo - yo)
    return slope


def kernel_cd_band(data: CdKernelData, x, y) -> np.ndarray:
    """K at the cells (x[i], y[i]) of the band |x - y| <= delta, all at once:
    sum_r sign_r slope_r Q~_r(y), with slope_r from _band_slopes."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    factors = data.signs.reshape(data.signs.shape + (1,) * x.ndim)
    return _term_sum(factors * _band_slopes(data, x, y) * data.y_stack.values(y))


def cd_sum(data: CdKernelData, xs, ys, factors: np.ndarray) -> np.ndarray:
    """For each factor set f of the stack factors (F, R): sum_r f[r] Q_r(x)
    Q~_r(y) / (x - y) on the grid xs x ys (p and q terms summed apart) off
    the band |x - y| <= delta_diag, and sum_r f[r] slope_r Q~_r(y)
    (_band_slopes) on its cells; shape (F, len(xs), len(ys)).  The forms,
    the band cells and their slopes are evaluated once for all F grids."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    p = data.p
    Xv = data.x_stack.values(xs)
    Yv = data.y_stack.values(ys)
    denom = xs[:, None] - ys[None, :]
    band = np.abs(denom) <= data.delta_diag
    ix, iy = np.nonzero(band)
    slope = _band_slopes(data, xs[ix], ys[iy])
    Yb = data.y_stack.values(ys[iy])
    out = np.empty((len(factors),) + denom.shape)
    for f, grid in zip(factors, out):
        X = f[:, None] * Xv
        N = np.einsum("jx,jy->xy", X[:p], Yv[:p]) + np.einsum("kx,ky->xy", X[p:], Yv[p:])
        np.divide(N, denom, out=grid, where=~band)
        grid[ix, iy] = _term_sum(f[:, None] * slope * Yb)
    return out


def kernel_cd_grid(data: CdKernelData, xs, ys) -> np.ndarray:
    """CD kernel on the product grid xs x ys: the numerator over x - y off
    the band |x - y| <= delta_diag, kernel_cd_band on its cells."""
    return cd_sum(data, xs, ys, data.signs[None])[0]


# ---------------------------------------------------------------------------
# Route comparison and export


def relative_discrepancy(A: np.ndarray, B: np.ndarray) -> float:
    """max |A - B| / (1 + |A|), the route-agreement metric."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    return float(np.max(np.abs(A - B) / (1.0 + np.abs(A))))


def kernel_routes_report(sys: BiorthogonalSystem, data: CdKernelData,
                         xs, ys, direct_grid: np.ndarray, cd_grid: np.ndarray,
                         *, rh_grid: np.ndarray | None = None) -> dict:
    """Trace, idempotence, and pairwise agreement of the route grids already
    evaluated on xs x ys (direct, CD, and optionally RH)."""
    trace, trace_err = trace_quadrature(sys)
    idem, idem_quad = idempotence_residual(sys, xs, ys)
    report = {
        "dimension": sys.dimension,
        "trace": trace,
        "trace_quadrature_bound": trace_err,
        "trace_deviation": abs(trace - sys.dimension),
        "idempotence_residual": idem,
        "idempotence_quadrature_estimate": idem_quad,
        "gram_condition": sys.condition,
        "max_solve_residual": data.max_residual(),
        "direct_vs_cd": relative_discrepancy(direct_grid, cd_grid),
    }
    if rh_grid is not None:
        report["direct_vs_rh"] = relative_discrepancy(direct_grid, rh_grid)
        report["cd_vs_rh"] = relative_discrepancy(cd_grid, rh_grid)
    return report

