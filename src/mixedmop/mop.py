"""Mixed-type multiple orthogonal polynomials: assembly, solving, normality.

A solve looks for polynomials A_1..A_p with deg A_l <= n_l - 1 such that the
linear form Q(x) = sum_l A_l(x) w1_l(x) is orthogonal to x^j w2_k(x) for
j < m_k, k = 1..q.  With |n| = |m| + 1 that is |m| homogeneous conditions on
|n| coefficients; one normalization row (type I: a unit weighted moment,
type II: a monic leading coefficient) closes the square system.  All linear
algebra runs in the table's shifted-scaled monomial basis; everything the
caller sees is in the original variable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate, compress
from typing import Literal, Sequence

import numpy as np
from numpy.polynomial import polynomial as P

from ._util import exact_int
from .weights import (AccuracyError, ProductMomentTable, WeightFamily,
                      build_moment_table, checked_power, gaussian_pair_moments)

# Singular values below max(rows, cols) * s_max * RANK_RTOL count as zero.
RANK_RTOL = 1e-10
EXTENDED_DPS = 60
# Largest solve that falls back to extended arithmetic, whose cost grows
# like n^3: Hermite degree 31 solves at 32 unknowns in about 0.13 s.
EXTENDED_MAX_UNKNOWNS = 32


class NotNormalizable(RuntimeError):
    """The requested pair/normalization admits no (unique) solution.

    Carries the NormalityReport explaining which rank condition failed.
    """

    def __init__(self, message: str, report: "NormalityReport | None" = None):
        super().__init__(message)
        self.report = report


@dataclass(frozen=True)
class MultiIndex:
    """An ordered tuple of polynomial-degree budgets, one per weight."""

    parts: tuple[int, ...]

    def __post_init__(self):
        parts = tuple(exact_int(v, "multi-index part") for v in self.parts)
        object.__setattr__(self, "parts", parts)
        if len(parts) == 0:
            raise ValueError("a multi-index needs at least one part")
        if any(v < 0 for v in parts):
            raise ValueError("multi-index parts must be >= 0")

    @cached_property
    def size(self) -> int:
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __getitem__(self, k: int) -> int:
        return self.parts[k]

    def bumped(self, k: int, step: int) -> "MultiIndex":
        parts = list(self.parts)
        parts[k] += step
        return MultiIndex(tuple(parts))


@dataclass(frozen=True)
class MultiIndexPair:
    """A pair (n, m) of multi-indices with its defining/balanced relation.

    Positive parts are required in n always, and in m as well for balanced
    pairs; a defining pair may carry zero parts in m (a weight contributing
    no orthogonality conditions), which is exactly what the neighbor solves
    of the kernel construction produce.
    """

    n: MultiIndex
    m: MultiIndex

    def __post_init__(self):
        n = self.n if isinstance(self.n, MultiIndex) else MultiIndex(tuple(self.n))
        m = self.m if isinstance(self.m, MultiIndex) else MultiIndex(tuple(self.m))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", m)
        if n.size == m.size + 1:
            rel = "defining"
        elif n.size == m.size:
            rel = "balanced"
        else:
            raise ValueError(
                f"|n|={n.size} and |m|={m.size} fit neither |n|=|m|+1 nor |n|=|m|")
        object.__setattr__(self, "_relation", rel)
        if any(v < 1 for v in n.parts):
            raise ValueError("first multi-index must have parts >= 1")
        if rel == "balanced" and any(v < 1 for v in m.parts):
            raise ValueError("balanced pairs need parts >= 1 on both sides")

    @property
    def relation(self) -> str:
        return self._relation

    @staticmethod
    def defining(n: Sequence[int], m: Sequence[int]) -> "MultiIndexPair":
        pair = MultiIndexPair(MultiIndex(tuple(n)), MultiIndex(tuple(m)))
        if pair.relation != "defining":
            raise ValueError("pair is not defining: need |n| = |m| + 1")
        return pair

    @staticmethod
    def balanced(n: Sequence[int], m: Sequence[int]) -> "MultiIndexPair":
        pair = MultiIndexPair(MultiIndex(tuple(n)), MultiIndex(tuple(m)))
        if pair.relation != "balanced":
            raise ValueError("pair is not balanced: need |n| = |m|")
        return pair

    def to_json_dict(self) -> dict:
        return {"n": list(self.n.parts), "m": list(self.m.parts)}


@dataclass(frozen=True)
class Normalization:
    """Which closing row to append: type I (unit moment against x^{m_k} w2_k)
    or type II (A_k monic of degree n_k - 1)."""

    kind: Literal["I", "II"]
    index: int

    def __post_init__(self):
        if self.kind not in ("I", "II"):
            raise ValueError("normalization kind must be 'I' or 'II'")
        object.__setattr__(self, "index",
                           exact_int(self.index, "normalization index"))
        if self.index < 0:
            raise ValueError("normalization index must be >= 0")

    @staticmethod
    def type1(k: int) -> "Normalization":
        return Normalization("I", k)

    @staticmethod
    def type2(k: int) -> "Normalization":
        return Normalization("II", k)


# ---------------------------------------------------------------------------
# Enumeration and assembly


@lru_cache(maxsize=1024)
def column_layout(n_parts: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """(weight, shifted power i) with i < n_weight, weight-major: the order
    of the unknowns of a solve and, for the m side, of its conditions.
    Computed once per multi-index and shared, hence a tuple."""
    return tuple((l, i) for l, deg in enumerate(n_parts) for i in range(deg))


def moment_matrix(values: np.ndarray, cols: Sequence[tuple[int, int]],
                  rows: Sequence[tuple[int, int]]) -> np.ndarray:
    """values[l, k, i + j] at row (k, j) and column (l, i), for a moment
    array values[w1 index, w2 index, order] of floats or of mpf objects:
    the gather of the normality tests and the kernel's Gram matrix."""
    return moment_stack(values, [(False, cols, rows)])[0]


def moment_stack(values: np.ndarray, layouts: Sequence[tuple]) -> np.ndarray:
    """The moment_matrix of each layout (swap, cols, rows), stacked, all of
    one shape; where swap is set the entry is values[k, l, i + j], the
    families exchanged.  One flat gather reads them all.  Raises ValueError
    when a weight index falls outside values (l past its w1 axis and k past
    its w2 axis, or the other way round where swap is set), or when values
    stops short of the orders the layouts need."""
    p, q, K = values.shape
    need, col_offsets, row_offsets = 0, [], []
    for swap, cols, rows in layouts:
        if cols and rows:
            (ls, powers), (ks, orders) = zip(*cols), zip(*rows)
            col_count, row_count = (q, p) if swap else (p, q)
            if not (0 <= min(ls) and max(ls) < col_count
                    and 0 <= min(ks) and max(ks) < row_count):
                raise ValueError(f"layout weight index outside the table's "
                                 f"{p} x {q} weight pairs")
            need = max(need, max(powers) + max(orders))
        col_step, row_step = (K, q * K) if swap else (q * K, K)
        col_offsets.append([l * col_step + i for l, i in cols])
        row_offsets.append([k * row_step + j for k, j in rows])
    if need >= K:
        raise ValueError(f"table kmax={K - 1} too small, need {need}")
    count = len(layouts)
    index = (np.array(row_offsets, dtype=int).reshape(count, -1, 1)
             + np.array(col_offsets, dtype=int).reshape(count, 1, -1))
    return values.reshape(-1)[index]


def pair_layouts(pair: MultiIndexPair, table: ProductMomentTable
                 ) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """The column layouts of pair.n and pair.m.  Raises ValueError unless
    n has one part per weight of table.w1 and m one per weight of table.w2:
    the one check wherever a pair meets a table."""
    if len(pair.n) != len(table.w1) or len(pair.m) != len(table.w2):
        raise ValueError(
            f"pair has {len(pair.n)} part(s) in n and {len(pair.m)} in m, but "
            f"the families have {len(table.w1)} and {len(table.w2)} weight(s)")
    return column_layout(pair.n.parts), column_layout(pair.m.parts)


def moment_table_for(pair: MultiIndexPair, w1: WeightFamily,
                     w2: WeightFamily) -> ProductMomentTable:
    """A table sized for the pair, its +-e_k neighbors, and normalization
    rows: orders up to max(n) + max(m) + 4."""
    return build_moment_table(w1, w2, max(pair.n.parts) + max(pair.m.parts) + 4)


def square_systems(values: np.ndarray, scale, terms: Sequence[tuple]
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """The defining systems of a stack of terms (swap, normalization,
    defining pair) of one kind and one size |n|, as _solve_square takes
    them: A (S, N, N), b (S, N) and, for type II, each monic coefficient's
    index (None for type I).  A term with swap set reads values with the
    families exchanged, its pair's n side on w2 and m side on w1.  A and b
    have the dtype of values, and scale its arithmetic: a float, or an
    mpmath (interval) number with values an object array.

    The first |m| rows are the conditions, moment_stack's layouts (swap,
    n, m).  The last row closes the system.  Type II: the unit row at the
    u^{n_k - 1} coefficient of A_k, right-hand side scale^{n_k - 1} (A_k
    monic in x).  Type I: integral Q x^{m_k} w2_k dx = 1.  In u = (x - c)
    / scale, x^{m_k} is scale^{m_k} u^{m_k} plus lower powers of u, which
    the conditions make orthogonal to Q, so the row is scale^{m_k} times
    the moment row of order m_k, read by the same gather.  Raises
    ValueError for a normalization index past its side, or as
    moment_stack does, and AccuracyError when a power of the scale
    overflows a double or a double type I row is not finite.
    """
    kind, size = terms[0][1].kind, terms[0][2].n.size
    layouts, leads, powers = [], [], []
    for swap, norm, pair in terms:
        k = norm.index
        if k >= len(pair.n if kind == "II" else pair.m):
            raise ValueError(f"type {kind} index out of range")
        cols, rows = column_layout(pair.n.parts), column_layout(pair.m.parts)
        if kind == "II":
            leads.append(sum(pair.n.parts[:k + 1]) - 1)
            powers.append(checked_power(scale, pair.n[k] - 1,
                                        "defining system: type II right-hand side"))
        else:
            rows += ((k, pair.m[k]),)
            powers.append(checked_power(scale, pair.m[k],
                                        "defining system: type I closing row"))
        layouts.append((swap, cols, rows))
    G = moment_stack(values, layouts)
    count = len(terms)
    A = np.zeros((count, size, size), dtype=values.dtype)
    A[:, :-1] = G[:, :size - 1]
    b = np.zeros((count, size), dtype=values.dtype)
    powers = np.array(powers, dtype=values.dtype)
    if kind == "II":
        lead = np.array(leads)
        A[np.arange(count), -1, lead] = 1
        b[:, -1] = powers
        return A, b, lead
    A[:, -1] = powers[:, None] * G[:, -1]
    if A.dtype == float and not np.isfinite(A[:, -1]).all():
        raise AccuracyError("defining system: type I closing row is not finite")
    b[:, -1] = 1
    return A, b, None


@dataclass(frozen=True)
class MixedMopSolution:
    """Solved coefficients of the form Q(x) = sum_l A_l(x) w1_l(x).

    coeffs are per-weight arrays in the shifted-scaled basis of (center,
    scale).  residual is max|A x - b| / max(1, max|A| max|x|), entrywise
    maxima, of the solved system A x = b at the returned doubles, after any
    exactness post-processing; an extended solve reads A and b at
    EXTENDED_DPS digits.
    """

    pair: MultiIndexPair
    normalization: Normalization
    weights: WeightFamily
    center: float
    scale: float
    coeffs: tuple[np.ndarray, ...]
    residual: float
    precision: str = "double"

    @cached_property
    def _stack(self) -> "FormStack":
        return FormStack.of((self,))

    def form(self, x) -> np.ndarray:
        """Q(x) = sum_l A_l(x) w1_l(x) on real input."""
        return self._stack.values(x)[0]

    def polynomials_original(self) -> list[np.ndarray]:
        """Coefficient arrays of A_l in the plain monomial basis.

        The type II contract makes the selected polynomial monic exactly;
        the basis change can smudge the leading 1 by a rounding ulp, so it
        is reinstated here.
        """
        out = [affine_rebase(cf, -self.center / self.scale, 1.0 / self.scale)
               for cf in self.coeffs]
        if self.normalization.kind == "II":
            k = self.normalization.index
            if len(out[k]) > 0:
                out[k][-1] = 1.0
        return out

    def to_json_dict(self) -> dict:
        return {
            "pair": self.pair.to_json_dict(),
            "normalization": {"kind": self.normalization.kind,
                              "index": self.normalization.index},
            "basis": {"center": self.center, "scale": self.scale},
            "coefficients_original": [list(map(float, cf))
                                      for cf in self.polynomials_original()],
            "coefficients_shifted": [list(map(float, cf)) for cf in self.coeffs],
            "residual": self.residual,
            "precision": self.precision,
        }


@dataclass(frozen=True)
class FormStack:
    """The forms Q_r = sum_l A_rl w_l of R solutions, evaluated as one
    array; the solutions must share their weight family, center and scale.

    coeffs[r, l] holds the shifted-basis coefficients of A_rl, padded with
    zeros at the high-degree end to one length D, and derivative_coeffs[r,
    l] those of dA_rl/du.  One Horner recurrence (polyval's, on the whole
    (R, L) stack) and one evaluation of each weight per point set give
    every value bitwise equal to the per-form, per-weight evaluation.
    """

    weights: WeightFamily
    center: float
    scale: float
    coeffs: np.ndarray
    derivative_coeffs: np.ndarray

    @staticmethod
    def of(solutions: Sequence[MixedMopSolution]) -> "FormStack":
        first = solutions[0]
        size = max(len(cf) for s in solutions for cf in s.coeffs)
        shape = (len(solutions), len(first.weights))
        coeffs = np.zeros(shape + (size,))
        derivative = np.zeros(shape + (max(size - 1, 1),))
        for r, s in enumerate(solutions):
            for l, cf in enumerate(s.coeffs):
                coeffs[r, l, :len(cf)] = cf
                derivative[r, l, :len(cf) - 1] = cf[1:] * np.arange(1, len(cf))
        return FormStack(weights=first.weights, center=first.center,
                         scale=first.scale, coeffs=coeffs,
                         derivative_coeffs=derivative)

    def _polyval(self, coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
        return P.polyval((x - self.center) / self.scale,
                         np.moveaxis(coeffs, -1, 0))

    def poly_values(self, x) -> np.ndarray:
        """A_rl(x), shape (R, L) + x.shape, on real or complex input.

        Complex input runs Horner's rule on the real and imaginary parts of
        u = (x - center) / scale, each formed as the real path forms u, so
        each point of an array rounds as it would alone (numpy's vector
        complex product may fuse multiply-adds where its scalar one does
        not), and the real part at a real point is the real path's value.
        """
        x = np.asarray(x)
        if not np.iscomplexobj(x):
            return self._polyval(self.coeffs, np.asarray(x, dtype=float))
        ur, ui = (x.real - self.center) / self.scale, x.imag / self.scale
        shape = self.coeffs.shape[:-1]
        cs = np.moveaxis(self.coeffs, -1, 0).reshape((-1,) + shape + (1,) * x.ndim)
        re, im = cs[-1], np.zeros(shape + x.shape)
        for c in cs[-2::-1]:
            re, im = c + (re * ur - im * ui), re * ui + im * ur
        return re + 1j * im

    def values(self, x) -> np.ndarray:
        """Q_r(x), shape (R,) + x.shape, on real input."""
        x = np.asarray(x, dtype=float)
        A = self.poly_values(x)
        out = np.zeros(A.shape[:1] + x.shape)
        for l, wx in enumerate(self.weights.values(x)):
            out = out + A[:, l] * wx
        return out

    def derivatives(self, x) -> np.ndarray:
        """dQ_r/dx, shape (R,) + x.shape, on real input; needs gaussian
        weights (analytic derivative)."""
        x = np.asarray(x, dtype=float)
        A = self.poly_values(x)
        dA = self._polyval(self.derivative_coeffs, x)
        out = np.zeros(A.shape[:1] + x.shape)
        for l, w in enumerate(self.weights):
            wx = w(x)
            out = out + (dA[:, l] / self.scale) * wx
            out = out + A[:, l] * (w.log_derivative_factor(x) * wx)
        return out


def affine_rebase(coeffs, alpha, beta) -> np.ndarray:
    """Coefficients in t of sum_i coeffs[..., i] (alpha + beta t)^i, by one
    Horner step per coefficient over the leading axes, which broadcast with
    alpha and beta.  The last axis keeps its length."""
    coeffs = np.asarray(coeffs, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    out = np.zeros(np.broadcast_shapes(coeffs.shape[:-1], alpha.shape, beta.shape)
                   + coeffs.shape[-1:])
    for i in reversed(range(coeffs.shape[-1])):
        out[..., 1:] = alpha[..., None] * out[..., 1:] + beta[..., None] * out[..., :-1]
        out[..., 0] = alpha * out[..., 0] + coeffs[..., i]
    return out


def rank_threshold(shape: tuple[int, ...], s_max):
    """The singular value at or below which a matrix of this shape with
    largest singular value s_max counts as rank-deficient; for a stack of
    shape (S, rows, cols), one per matrix from s_max of shape (S,)."""
    return max(shape[-2:]) * s_max * RANK_RTOL


def numerical_rank(M: np.ndarray) -> tuple[int, np.ndarray]:
    """(rank, singular values) at the rank_threshold."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if M.size == 0:
        return 0, np.zeros(0)
    svals = np.linalg.svd(M, compute_uv=False)
    return int(np.sum(svals > rank_threshold(M.shape, svals[0]))), svals


def _solve_square(A: np.ndarray, b: np.ndarray, lead: np.ndarray | None
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Solve the stack of square systems A[s] x = b[s], A (S, N, N) and b
    (S, N), through one SVD call.

    A system passes the rank gate when its smallest singular value exceeds
    rank_threshold.  The passing ones are solved from the SVD with one step
    of iterative refinement; with lead given (type II systems) each x is
    rescaled so that x[lead[s]] equals b[s, -1] exactly.  Returns (ok, x,
    residual): ok (S,) marks the passing systems, and x (P, N) and the
    scale-normalized residual max|A x - b| / max(1, max|A| max|x|) (P,)
    belong to them, in order.  Failing systems are not solved.
    """
    U, svals, Vt = np.linalg.svd(A)
    ok = svals[:, -1] > rank_threshold(A.shape, svals[:, 0])
    if not ok.all():
        A, b, U, svals, Vt = A[ok], b[ok], U[ok], svals[ok], Vt[ok]
        lead = None if lead is None else lead[ok]
    V, Ut, s = Vt.mT, U.mT, svals[..., None]
    rhs = b[..., None]
    x = V @ ((Ut @ rhs) / s)
    x = (x + V @ ((Ut @ (rhs - A @ x)) / s))[..., 0]
    if lead is not None:
        rows = np.arange(len(x))
        last = b[:, -1]
        x *= (last / x[rows, lead])[:, None]
        x[rows, lead] = last
    scale_res = np.maximum(1.0, abs(A).max(axis=(1, 2)) * abs(x).max(axis=1))
    residual = abs((A @ x[..., None])[..., 0] - b).max(axis=1) / scale_res
    return ok, x, residual


def solve_mixed(pair: MultiIndexPair, table: ProductMomentTable,
                normalization: Normalization) -> MixedMopSolution:
    """Solve the square (conditions + normalization) system for the pair:
    solve_terms on the one term (False, normalization, pair), after the
    checks that the pair is defining and fits the table's families.
    Raises ValueError when either fails or the normalization index is past
    its side, and NotNormalizable as solve_terms does.
    """
    if pair.relation != "defining":
        raise ValueError("solve_mixed needs a defining pair (|n| = |m| + 1)")
    pair_layouts(pair, table)
    return solve_terms(table, [(False, normalization, pair)])[0]


def solve_terms(table: ProductMomentTable, terms: Sequence[tuple]
                ) -> list[MixedMopSolution]:
    """The solution of each term (swap, normalization, defining pair), in
    term order; a term with swap set is solved on table.swapped(), which is
    built only when some term is swapped.

    The terms are stacked by kind and size, and each stack is assembled by
    square_systems and solved by one SVD call (_solve_square): a solution
    does not depend on the terms stacked with it.  Terms that fail the
    double rank gate, or whose double solution has a coefficient or a
    residual that is not finite, then go, in term order, to
    EXTENDED_DPS-digit interval LU (_solve_mixed_extended) when the system
    has at most EXTENDED_MAX_UNKNOWNS unknowns.  The first term that fails
    its last arithmetic raises NotNormalizable, carrying the NormalityReport
    of its pair.
    """
    stacks = {}
    for r, (_, norm, pair) in enumerate(terms):
        stacks.setdefault((norm.kind, pair.n.size), []).append(r)
    tables = (table, table.swapped() if any([t[0] for t in terms]) else None)
    solutions = [None] * len(terms)
    for group in stacks.values():
        ok, x, residual = _solve_square(*square_systems(
            table.values, table.scale, [terms[r] for r in group]))
        finite = np.isfinite(x).all(axis=1) & np.isfinite(residual)
        for r, x_r, res in compress(zip(compress(group, ok.tolist()), x,
                                        residual.tolist()), finite.tolist()):
            swap, norm, pair = terms[r]
            solutions[r] = _solution(pair, tables[swap], norm, x_r, res, "double")
    for r, (swap, norm, pair) in enumerate(terms):
        if solutions[r] is not None:
            continue
        on = tables[swap]
        if pair.n.size <= EXTENDED_MAX_UNKNOWNS:
            solutions[r] = _solve_mixed_extended(pair, on, norm)
        else:
            raise NotNormalizable(
                f"size {pair.n.size} exceeds the extended cap for pair n={pair.n.parts} "
                f"m={pair.m.parts} ({norm.kind}, k={norm.index})",
                report=check_normality(pair, on))
    return solutions


def _solution(pair: MultiIndexPair, table: ProductMomentTable,
              normalization: Normalization, x: np.ndarray, residual: float,
              precision: str) -> MixedMopSolution:
    """The solution whose coefficients, weight after weight, are x."""
    ends = [0, *accumulate(pair.n.parts)]
    coeffs = tuple(x[a:b] for a, b in zip(ends, ends[1:]))
    return MixedMopSolution(pair=pair, normalization=normalization,
                            weights=table.w1, center=table.center,
                            scale=table.scale, coeffs=coeffs,
                            residual=residual, precision=precision)


# ---------------------------------------------------------------------------
# Extended precision


def _solve_mixed_extended(pair: MultiIndexPair, table: ProductMomentTable,
                          normalization: Normalization) -> MixedMopSolution:
    """The solve of a system that failed the double rank gate: interval LU
    at EXTENDED_DPS digits on square_systems of gaussian_pair_moments in
    mpmath.iv, which proves the system nonsingular or raises
    NotNormalizable.  Returns the midpoints rounded to nearest doubles;
    AccuracyError when one is not finite."""
    import mpmath

    iv, prec = mpmath.iv, mpmath.iv.prec
    iv.dps = EXTENDED_DPS
    try:
        kmax = max(pair.n.parts) + max(pair.m.parts) + 2
        values = np.array([[gaussian_pair_moments(wa, wb, kmax, table.center,
                                                  table.scale, iv)
                            for wb in table.w2] for wa in table.w1])
        A, b, _ = square_systems(values, iv.mpf(table.scale),
                                 [(False, normalization, pair)])
        try:
            x = iv.lu_solve(iv.matrix(A[0].tolist()), iv.matrix(b[0].tolist()))
        except (ZeroDivisionError, TypeError):  # no provably nonzero pivot
            raise NotNormalizable(
                f"not proven nonsingular at {EXTENDED_DPS} digits for pair "
                f"n={pair.n.parts} m={pair.m.parts}",
                report=check_normality(pair, table)) from None
        xs = np.array([float(mpmath.mpf(v.mid)) for v in x])
        if not np.isfinite(xs).all():
            raise AccuracyError(f"extended solve for pair n={pair.n.parts} "
                                f"m={pair.m.parts}: a coefficient is not finite")
        mid = np.frompyfunc(lambda v: mpmath.mpf(iv.mpf(v).mid), 1, 1)
        with mpmath.workdps(EXTENDED_DPS):
            A, b = mid(A[0]), mid(b[0])
            scale_res = max(1, abs(A).max() * abs(xs).max())
            residual = float(abs(A @ xs - b).max() / scale_res)
    finally:
        iv.prec = prec
    return _solution(pair, table, normalization, xs, residual, "extended")


# ---------------------------------------------------------------------------
# Normality


@dataclass(frozen=True)
class NormalityReport:
    """Rank-based answers to which solves the pair admits.

    kernel_dimension is dim(F_n intersect G_m-perp); a defining pair is
    normal exactly when it equals 1 and F_n has full dimension |n|.  The
    admissibility flags test the shifted pairs whose triviality licenses
    each normalization.  condition_estimate is None when the orthogonality
    matrix is rank-deficient.
    """

    pair: MultiIndexPair
    f_dimension_ok: bool
    kernel_dimension: int
    orthogonality_rank: int
    typeI_admissible: tuple[bool, ...]
    typeII_admissible: tuple[bool, ...]
    condition_estimate: float | None

    @property
    def normal(self) -> bool:
        return self.f_dimension_ok and self.kernel_dimension == 1

    def to_json_dict(self) -> dict:
        return {
            "pair": self.pair.to_json_dict(),
            "f_dimension_ok": self.f_dimension_ok,
            "kernel_dimension": self.kernel_dimension,
            "orthogonality_rank": self.orthogonality_rank,
            "normal": self.normal,
            "typeI_admissible": list(self.typeI_admissible),
            "typeII_admissible": list(self.typeII_admissible),
            "condition_estimate": self.condition_estimate,
        }


def check_normality(pair: MultiIndexPair, table: ProductMomentTable) -> NormalityReport:
    """Rank tests behind normality and both normalization admissibilities.
    Raises moment_matrix's ValueError when the table stops short of them.

    The tests run in double precision whatever arithmetic a solve of the
    pair ended in: after the extended fallback they describe the double
    system, not the solve (Hermite 11, 12 and 19 read normal False and
    f_dimension_ok False beside a correct extended solution)."""
    cols, rows = pair_layouts(pair, table)
    M = moment_matrix(table.values, cols, rows)
    rank, svals = numerical_rank(M)
    kernel_dim = pair.n.size - rank
    if svals.size and svals[-1] > 0 and rank == min(M.shape):
        cond = float(svals[0] / svals[min(M.shape) - 1])
    elif svals.size:
        cond = None  # rank-deficient: unbounded, written as JSON null
    else:
        cond = 1.0

    # F_n must be |n|-dimensional: Gram matrix of the raw basis u^i w1_l.
    gram_kmax = 2 * max(pair.n.parts)
    ftable = build_moment_table(table.w1, table.w1, gram_kmax,
                                center=table.center, scale=table.scale)
    G = moment_matrix(ftable.values, cols, cols)
    grank, _ = numerical_rank(G)
    f_ok = grank == pair.n.size

    # type I at k needs full column rank for (n, m + e_k), type II for (n - e_k, m)
    def rank_of(n, m):
        return numerical_rank(moment_matrix(table.values, column_layout(n.parts),
                                            column_layout(m.parts)))[0]

    typeI = tuple(rank_of(pair.n, pair.m.bumped(k, +1)) == pair.n.size
                  for k in range(len(pair.m)))
    typeII = tuple(rank_of(pair.n.bumped(k, -1), pair.m) == pair.n.size - 1
                   for k in range(len(pair.n)))
    return NormalityReport(pair=pair, f_dimension_ok=f_ok,
                           kernel_dimension=kernel_dim,
                           orthogonality_rank=rank,
                           typeI_admissible=typeI,
                           typeII_admissible=typeII,
                           condition_estimate=cond)
