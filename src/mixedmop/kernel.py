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

from dataclasses import dataclass

import numpy as np

from .mop import (FormStack, MixedMopSolution, MultiIndexPair, Normalization,
                  NotNormalizable, check_normality, moment_matrix,
                  moment_table_for, pair_layouts, rank_threshold, solve_mixed)
from .weights import (ProductMomentTable, WeightFamily, adaptive_gauss_legendre,
                      _leggauss)

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

    def components(self) -> list[tuple[float, float]]:
        """The union of the weights' intervals as sorted disjoint pieces: the
        hull `family_interval(w1, w2)` alone when they overlap into one piece,
        else one piece per separated cluster, so that quadrature spends no
        nodes on the gaps."""
        return merge_intervals(w.interval() for w in self.w1 + self.w2)

    def diagonal(self, x) -> np.ndarray:
        """K(x, x) at the points x."""
        return np.einsum("an,ja,jn->n", self.f_values(x), self.transform,
                         self.g_values(x))


def merge_intervals(spans) -> list[tuple[float, float]]:
    """The union of the intervals (lo, hi) as sorted disjoint pieces."""
    spans = sorted(spans)
    merged = [spans[0]]
    for lo, hi in spans[1:]:
        if lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged


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
    if svals[-1] <= rank_threshold(B.shape, svals):
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
    return _direct_product(sys, sys.f_values(np.asarray(xs, dtype=float)),
                           sys.g_values(np.asarray(ys, dtype=float)))


def _direct_product(sys: BiorthogonalSystem, F: np.ndarray, G: np.ndarray
                    ) -> np.ndarray:
    """K from the F basis values at the rows and the G values at the columns."""
    return F.T @ sys.transform.T @ G


def trace_quadrature(sys: BiorthogonalSystem) -> tuple[float, float]:
    """integral K(x, x) dx by adaptive quadrature on each of the weights'
    components, summed with the components' error bounds; equals |n| for
    a projection."""
    parts = [adaptive_gauss_legendre(sys.diagonal, lo, hi, abs_tol=1e-10,
                                     rel_tol=1e-12)
             for lo, hi in sys.components()]
    return float(sum(v for v, _ in parts)), float(sum(e for _, e in parts))


def idempotence_residual(sys: BiorthogonalSystem, xs, ys) -> tuple[float, float]:
    """max |integral K(x,z)K(z,y) dz - K(x,y)| over the grid, plus a
    quadrature stability estimate from the two finest node sets (that many
    Gauss-Legendre nodes on each of the weights' components)."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    F, G = sys.f_values(xs), sys.g_values(ys)
    K = _direct_product(sys, F, G)
    parts = sys.components()
    results = []
    for degree in (256, 384):
        nodes, wts = _leggauss(degree)
        zs = np.concatenate([0.5 * (hi + lo) + 0.5 * (hi - lo) * nodes
                             for lo, hi in parts])
        wz = np.concatenate([0.5 * (hi - lo) * wts for lo, hi in parts])
        Kxz = _direct_product(sys, F, sys.g_values(zs))
        Kzy = _direct_product(sys, sys.f_values(zs), G)
        results.append(Kxz @ (wz[:, None] * Kzy))
    resid = float(np.max(np.abs(results[-1] - K)))
    quad_est = float(np.max(np.abs(results[-1] - results[0])))
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
    stored pair is defining in its own orientation.  x_stack and y_stack
    evaluate each orientation's forms as one array.
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

    Each solve picks its own arithmetic (see solve_mixed); the data's
    precision property reports whether any fell back to extended.
    NotNormalizable from a solve propagates as raised; its message names
    the failing pair.
    """
    if pair.relation != "balanced":
        raise ValueError("CD data needs a balanced pair (|n| = |m|)")
    if table is None:
        table = moment_table_for(pair, w1, w2)
    tables = {"x": table, "y": table.swapped()}
    n, m = pair.n, pair.m

    def run(orientation, kind, k, n_side, m_side):
        spair = MultiIndexPair.defining(n_side.parts, m_side.parts)
        return solve_mixed(spair, tables[orientation], Normalization(kind, k))

    x_forms = tuple([run("x", "II", j, n.bumped(j, +1), m) for j in range(len(n))]
                    + [run("x", "I", k, n, m.bumped(k, -1)) for k in range(len(m))])
    y_forms = tuple([run("y", "I", j, m, n.bumped(j, -1)) for j in range(len(n))]
                    + [run("y", "II", k, m.bumped(k, +1), n) for k in range(len(m))])
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


def kernel_cd_band(data: CdKernelData, x, y, factors=None) -> np.ndarray:
    """K at the cells (x[i], y[i]) of the band |x - y| <= delta, all at once:
    sum_r factors[r] (data.signs by default) slope_r Q~_r(y), with slope_r
    the l'Hopital derivative of x-side form r on the exact diagonal, else
    its divided difference [Q_r(x) - Q_r(y)] / (x - y) (N(y, y) = 0
    dropped), which stays accurate as x - y -> 0."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    factors = data.signs if factors is None else factors
    slope = np.empty(factors.shape + x.shape)
    diag = x == y
    if diag.any():
        slope[:, diag] = data.x_stack.derivatives(x[diag])
    if not diag.all():
        xo, yo = x[~diag], y[~diag]
        ends = data.x_stack.values(np.concatenate([xo, yo]))
        slope[:, ~diag] = (ends[:, :xo.size] - ends[:, xo.size:]) / (xo - yo)
    return _term_sum(factors.reshape(factors.shape + (1,) * x.ndim) * slope
                     * data.y_stack.values(y))


def _cd_sum(data: CdKernelData, xs, ys, factors: np.ndarray) -> np.ndarray:
    """sum_r factors[r] Q_r(x) Q~_r(y) / (x - y) on the grid xs x ys (p and
    q terms summed apart) off the band, kernel_cd_band on its cells."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    p = data.p
    X = factors[:, None] * data.x_stack.values(xs)
    Y = data.y_stack.values(ys)
    N = np.einsum("jx,jy->xy", X[:p], Y[:p]) + np.einsum("kx,ky->xy", X[p:], Y[p:])
    denom = xs[:, None] - ys[None, :]
    band = np.abs(denom) <= data.delta_diag
    out = np.empty_like(N)
    np.divide(N, denom, out=out, where=~band)
    ix, iy = np.nonzero(band)
    out[ix, iy] = kernel_cd_band(data, xs[ix], ys[iy], factors)
    return out


def kernel_cd_grid(data: CdKernelData, xs, ys) -> np.ndarray:
    """CD kernel on the product grid xs x ys: the numerator over x - y off
    the band |x - y| <= delta_diag, kernel_cd_band on its cells."""
    return _cd_sum(data, xs, ys, data.signs)


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

