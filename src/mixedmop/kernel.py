"""Projection kernels: biorthogonal-basis route and Christoffel-Darboux route.

For a balanced pair (|n| = |m|) the kernel projects onto
F = span{x^i w1_l : i < n_l} parallel to the annihilator of
G = span{x^j w2_k : j < m_k}.  The direct route biorthogonalizes the raw
bases through the Gram matrix; the CD route assembles the same kernel from
2(p+q) neighbor solves and a single division by (x - y).  The two routes
share nothing past the moment table, which is what makes their agreement a
meaningful check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .mop import (MixedMopSolution, MultiIndexPair, Normalization,
                  NotNormalizable, check_normality, column_layout,
                  moment_table_for, solve_mixed)
from .weights import (ProductMomentTable, WeightFamily, adaptive_gauss_legendre,
                      family_interval, _leggauss)

# Width of the guarded band around the diagonal, in units of the basis scale.
DIAG_BAND_FACTOR = 1e-4


class DegeneratePair(RuntimeError):
    """F_n intersects the annihilator of G_m: no projection kernel exists."""

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class DiagonalRegion(ValueError):
    """Raised by the off-diagonal CD ratio inside |x - y| <= delta_diag."""

    def __init__(self, x: float, y: float, delta: float):
        super().__init__(
            f"|x - y| = {abs(x - y):.3e} inside the diagonal band {delta:.3e}; "
            "use the diagonal evaluator or the direct route")
        self.x, self.y, self.delta = x, y, delta


# ---------------------------------------------------------------------------
# Direct (biorthogonal) route


@dataclass(frozen=True)
class BiorthogonalSystem:
    """Biorthogonal bases of F and G, packaged for kernel evaluation.

    B is the Gram matrix of the raw bases, C its (refined) inverse; the
    kernel is K(x, y) = f(x)^T C^T g(y) with f, g the raw basis value
    vectors.  The represented kernel is invariant under the basis ordering.
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

    def interval(self) -> tuple[float, float]:
        return family_interval(self.table.w1, self.table.w2)


def _basis_values(layout, family, center, scale, x) -> np.ndarray:
    x = np.atleast_1d(np.asarray(x, dtype=float))
    u = (x - center) / scale
    max_pow = max(i for _, i in layout)
    pows = np.vander(u, max_pow + 1, increasing=True).T
    wvals = family.values(x)
    return np.stack([pows[i] * wvals[l] for l, i in layout])


def build_biorthogonal(pair: MultiIndexPair, w1: WeightFamily, w2: WeightFamily,
                       table: ProductMomentTable | None = None, *,
                       f_order: Sequence[int] | None = None,
                       g_order: Sequence[int] | None = None) -> BiorthogonalSystem:
    """Gram-matrix biorthogonalization of the raw F and G bases.

    Optional f_order/g_order permute the raw bases (the kernel must not care;
    tests exercise that).  Raises DegeneratePair, with the normality report
    attached, when the Gram matrix is numerically singular.
    """
    if pair.relation != "balanced":
        raise ValueError("kernel construction needs a balanced pair (|n| = |m|)")
    w1 = w1 if isinstance(w1, WeightFamily) else WeightFamily(w1)
    w2 = w2 if isinstance(w2, WeightFamily) else WeightFamily(w2)
    if table is None:
        table = moment_table_for(pair, w1, w2)

    f_layout = column_layout(pair.n.parts)
    g_layout = column_layout(pair.m.parts)
    if f_order is not None:
        f_layout = [f_layout[i] for i in f_order]
    if g_order is not None:
        g_layout = [g_layout[i] for i in g_order]

    B = np.empty((len(f_layout), len(g_layout)))
    for a, (l, i) in enumerate(f_layout):
        for b, (k, j) in enumerate(g_layout):
            B[a, b] = table.entry(l, k, i + j)

    U, svals, Vt = np.linalg.svd(B)
    tau = max(B.shape) * svals[0] * 1e-10
    if svals[-1] <= tau:
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


def kernel_direct(sys: BiorthogonalSystem, x, y):
    """K(x, y) through the biorthogonalized bases; scalars in, scalar out."""
    F = sys.f_values(x)
    G = sys.g_values(y)
    val = F.T @ sys.transform.T @ G
    if np.isscalar(x) or np.asarray(x).ndim == 0:
        return float(val[0, 0])
    return val


def kernel_direct_grid(sys: BiorthogonalSystem, xs, ys) -> np.ndarray:
    """K on the product grid xs x ys, shape (len(xs), len(ys))."""
    F = sys.f_values(np.asarray(xs, dtype=float))
    G = sys.g_values(np.asarray(ys, dtype=float))
    return F.T @ sys.transform.T @ G


def trace_quadrature(sys: BiorthogonalSystem, *, abs_tol: float = 1e-10) -> tuple[float, float]:
    """integral K(x, x) dx by adaptive quadrature; equals |n| for a projection."""
    lo, hi = sys.interval()

    def diag(xs):
        F = sys.f_values(xs)
        G = sys.g_values(xs)
        return np.einsum("an,ja,jn->n", F, sys.transform, G)

    val, err = adaptive_gauss_legendre(diag, lo, hi, abs_tol=abs_tol, rel_tol=1e-12)
    return float(val), float(err)


def idempotence_residual(sys: BiorthogonalSystem, xs, ys) -> tuple[float, float]:
    """max |integral K(x,z)K(z,y) dz - K(x,y)| over the grid, plus a
    quadrature stability estimate from the two finest node sets."""
    lo, hi = sys.interval()
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    K = kernel_direct_grid(sys, xs, ys)
    results = []
    for degree in (256, 384):
        nodes, wts = _leggauss(degree)
        zs = 0.5 * (hi + lo) + 0.5 * (hi - lo) * nodes
        wz = 0.5 * (hi - lo) * wts
        Kxz = kernel_direct_grid(sys, xs, zs)
        Kzy = kernel_direct_grid(sys, zs, ys)
        results.append(Kxz @ (wz[:, None] * Kzy))
    resid = float(np.max(np.abs(results[-1] - K)))
    quad_est = float(np.max(np.abs(results[-1] - results[0])))
    return resid, quad_est


# ---------------------------------------------------------------------------
# Christoffel-Darboux route


@dataclass(frozen=True)
class CdKernelData:
    """The 2(p+q) neighbor solves feeding the CD numerator.

    x_type2[j] and x_type1[k] live in the (w1, w2) orientation and are
    evaluated at the first kernel argument; y_type1[j] and y_type2[k] live in
    the swapped (w2, w1) orientation and take the second argument.  Every
    stored pair is defining in its own orientation.
    """

    pair: MultiIndexPair
    table: ProductMomentTable
    x_type2: tuple[MixedMopSolution, ...]
    x_type1: tuple[MixedMopSolution, ...]
    y_type1: tuple[MixedMopSolution, ...]
    y_type2: tuple[MixedMopSolution, ...]
    delta_diag: float

    @property
    def p(self) -> int:
        return len(self.x_type2)

    @property
    def q(self) -> int:
        return len(self.x_type1)

    def max_residual(self) -> float:
        sols = self.x_type2 + self.x_type1 + self.y_type1 + self.y_type2
        return max(s.residual for s in sols)

    def terms(self) -> list[tuple[float, MixedMopSolution, MixedMopSolution]]:
        """(sign, x-side form, y-side form) of each term of the CD numerator."""
        return ([(1.0, a, b) for a, b in zip(self.x_type2, self.y_type1)]
                + [(-1.0, a, b) for a, b in zip(self.x_type1, self.y_type2)])


def build_cd_data(pair: MultiIndexPair, w1: WeightFamily, w2: WeightFamily,
                  table: ProductMomentTable | None = None, *,
                  precision: str = "double") -> CdKernelData:
    """Run the neighbor solves the CD formula needs, both orientations.

    NotNormalizable from any solve is re-raised with the offending
    (orientation, normalization kind, index) attached as context.
    """
    if pair.relation != "balanced":
        raise ValueError("CD data needs a balanced pair (|n| = |m|)")
    w1 = w1 if isinstance(w1, WeightFamily) else WeightFamily(w1)
    w2 = w2 if isinstance(w2, WeightFamily) else WeightFamily(w2)
    if table is None:
        table = moment_table_for(pair, w1, w2)
    swapped = table.swapped()
    n, m = pair.n, pair.m

    def run(orientation, kind, k, spair, stable, normalization):
        try:
            return solve_mixed(spair, stable, normalization, precision=precision)
        except NotNormalizable as exc:
            raise NotNormalizable(str(exc), report=exc.report,
                                  context=(orientation, kind, k)) from exc

    x_type2 = tuple(
        run("x", "II", j,
            MultiIndexPair.defining(n.bumped(j, +1).parts, m.parts),
            table, Normalization.type2(j))
        for j in range(len(n)))
    x_type1 = tuple(
        run("x", "I", k,
            MultiIndexPair.defining(n.parts, m.bumped(k, -1).parts),
            table, Normalization.type1(k))
        for k in range(len(m)))
    y_type1 = tuple(
        run("y", "I", j,
            MultiIndexPair.defining(m.parts, n.bumped(j, -1).parts),
            swapped, Normalization.type1(j))
        for j in range(len(n)))
    y_type2 = tuple(
        run("y", "II", k,
            MultiIndexPair.defining(m.bumped(k, +1).parts, n.parts),
            swapped, Normalization.type2(k))
        for k in range(len(m)))

    return CdKernelData(pair=pair, table=table, x_type2=x_type2, x_type1=x_type1,
                        y_type1=y_type1, y_type2=y_type2,
                        delta_diag=DIAG_BAND_FACTOR * table.scale)


def cd_numerator(data: CdKernelData, x, y):
    """(x - y) K(x, y): the CD bilinear combination of neighbor forms."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    acc = np.zeros(np.broadcast(x, y).shape)
    for sign, a, b in data.terms():
        acc = acc + sign * a.form(x) * b.form(y)
    return acc


def kernel_cd(data: CdKernelData, x: float, y: float) -> float:
    """Off-diagonal CD evaluation; raises DiagonalRegion inside the band."""
    if abs(x - y) <= data.delta_diag:
        raise DiagonalRegion(x, y, data.delta_diag)
    return float(cd_numerator(data, x, y)) / (x - y)


def kernel_cd_diagonal(data: CdKernelData, x) -> np.ndarray | float:
    """K(x, x) by l'Hopital: the x-derivative of the numerator at y = x."""
    x = np.asarray(x, dtype=float)
    acc = np.zeros_like(x)
    for sign, a, b in data.terms():
        acc = acc + sign * a.form_derivative(x) * b.form(x)
    if acc.ndim == 0:
        return float(acc)
    return acc


def kernel_cd_band(data: CdKernelData, x, y) -> np.ndarray:
    """K at the cells (x[i], y[i]) of the band |x - y| <= delta, all at once:
    the l'Hopital limit on the exact diagonal, else the divided differences
    K = [N(x, y) - N(y, y)] / (x - y) of the x-side forms, with N(y, y) = 0
    dropped, which stay accurate as x - y -> 0."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    out = np.empty(x.shape)
    diag = x == y
    out[diag] = kernel_cd_diagonal(data, x[diag])
    xo, yo = x[~diag], y[~diag]
    acc = np.zeros(xo.shape)
    for sign, a, b in data.terms():
        acc = acc + sign * (a.form(xo) - a.form(yo)) / (xo - yo) * b.form(yo)
    out[~diag] = acc
    return out


def kernel_cd_grid(data: CdKernelData, xs, ys) -> np.ndarray:
    """CD kernel on the product grid xs x ys: the numerator over x - y off
    the band |x - y| <= delta_diag, kernel_cd_band on its cells."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    Ax = np.stack([data.x_type2[j].form(xs) for j in range(data.p)])
    By = np.stack([data.y_type1[j].form(ys) for j in range(data.p)])
    Cx = np.stack([data.x_type1[k].form(xs) for k in range(data.q)])
    Dy = np.stack([data.y_type2[k].form(ys) for k in range(data.q)])
    N = np.einsum("jx,jy->xy", Ax, By) - np.einsum("kx,ky->xy", Cx, Dy)
    denom = xs[:, None] - ys[None, :]
    band = np.abs(denom) <= data.delta_diag
    out = np.empty_like(N)
    np.divide(N, denom, out=out, where=~band)
    ix, iy = np.nonzero(band)
    out[ix, iy] = kernel_cd_band(data, xs[ix], ys[iy])
    return out


# ---------------------------------------------------------------------------
# Route comparison and export


def relative_discrepancy(A: np.ndarray, B: np.ndarray) -> float:
    """max |A - B| / (1 + |A|), the route-agreement metric."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    return float(np.max(np.abs(A - B) / (1.0 + np.abs(A))))


def kernel_routes_report(sys: BiorthogonalSystem, data: CdKernelData,
                         xs, ys, *, rh_grid: np.ndarray | None = None) -> dict:
    """Trace, idempotence, and pairwise route agreement on the given grid."""
    Kd = kernel_direct_grid(sys, xs, ys)
    Kcd = kernel_cd_grid(data, xs, ys)
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
        "direct_vs_cd": relative_discrepancy(Kd, Kcd),
    }
    if rh_grid is not None:
        report["direct_vs_rh"] = relative_discrepancy(Kd, rh_grid)
        report["cd_vs_rh"] = relative_discrepancy(Kcd, rh_grid)
    return report

