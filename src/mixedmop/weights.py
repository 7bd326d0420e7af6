"""Gaussian weight families on the real line and their product-moment tables.

Everything downstream (solvers, kernels, Riemann-Hilbert assembly) consumes
weights only through evaluation and through integrals of the form

    integral x^k  w1_j(x) w2_l(x) dx,

and a product of two Gaussians is a Gaussian, so this module owns the one
route to those numbers: an exact recursion on the product Gaussian, in
double or in any mpmath arithmetic.  Moment tables are stored in a
shifted-scaled monomial basis u = (x - c)/s to keep the downstream linear
systems tolerably conditioned; public results are always reported in the
original variable.  Adaptive Gauss-Legendre quadrature stays here for the
integrals that are not moments, such as the Brownian one-point density's
mass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from types import SimpleNamespace
from typing import Callable, Sequence

import numpy as np

from ._util import exact_int, json_number, known_keys, real_number

# Truncation rule: 12 spreads of a Gaussian carry all mass to ~1e-31.
TAIL_SIGMAS = 12.0
# Largest |center| of a gaussian weight in standard deviations: beyond it a
# double rounds the center by over 2e-4 sd, and squaring it can overflow.
MAX_CENTER_SIGMAS = 1e12
# The keys of a weight entry in a JSON config.
WEIGHT_KEYS = ("kind", "center", "variance", "amplitude")

# Degree ladder for the doubling quadrature rules.
MIN_QUAD_DEGREE = 16
MAX_QUAD_DEGREE = 512

TWO_PI = 2.0 * math.pi
# The default arithmetic of the gaussian-product formulas: double, under
# the names mpmath and mpmath.iv give theirs.
_DOUBLE = SimpleNamespace(mpf=float, exp=math.exp, sqrt=math.sqrt, pi=math.pi)


class AccuracyError(RuntimeError):
    """A number came out inexact or not finite; carries the best value and
    its bound where there is one."""

    def __init__(self, message: str, value=None, achieved: float | None = None):
        super().__init__(message)
        self.value = value
        self.achieved = achieved


def checked_power(base, exponent: int, quantity: str):
    """base ** exponent, where a double's OverflowError becomes an
    AccuracyError naming the quantity (mpmath numbers do not overflow)."""
    try:
        return base ** exponent
    except OverflowError as exc:
        raise AccuracyError(f"{quantity} overflows a double "
                            f"({base!r} ** {exponent})") from exc


@dataclass(frozen=True)
class Weight:
    """The gaussian weight amplitude * exp(-(x-center)^2 / (2*variance)),
    with variance and amplitude positive and finite and |center| at most
    MAX_CENTER_SIGMAS standard deviations (ValueError otherwise)."""

    center: float = 0.0
    variance: float = 1.0
    amplitude: float = 1.0

    def __post_init__(self):
        if not (self.variance > 0.0) or not math.isfinite(self.variance):
            raise ValueError("gaussian weight needs variance > 0")
        if not (self.amplitude > 0.0) or not math.isfinite(self.amplitude):
            raise ValueError("gaussian weight needs amplitude > 0")
        if not abs(self.center) <= MAX_CENTER_SIGMAS * math.sqrt(self.variance):
            raise ValueError(f"gaussian weight needs |center| <= {MAX_CENTER_SIGMAS:g}"
                             f" sd, got center {self.center!r}")

    @staticmethod
    def gaussian(center: float, variance: float, amplitude: float = 1.0) -> "Weight":
        return Weight(center=real_number(center, "center"),
                      variance=real_number(variance, "variance"),
                      amplitude=real_number(amplitude, "amplitude"))

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return self.amplitude * np.exp(-((x - self.center) ** 2) / (2.0 * self.variance))

    def interval(self) -> tuple[float, float]:
        """Interval outside which the weight is treated as zero."""
        sd = math.sqrt(self.variance)
        return self.center - TAIL_SIGMAS * sd, self.center + TAIL_SIGMAS * sd

    def log_derivative_factor(self, x):
        """w'(x) / w(x)."""
        x = np.asarray(x, dtype=float)
        return -(x - self.center) / self.variance


class WeightFamily(tuple):
    """An ordered, nonempty tuple of weights playing one side of a pairing."""

    def __new__(cls, weights: Sequence[Weight]):
        weights = tuple(weights)
        if not weights:
            raise ValueError("a weight family needs at least one weight")
        if not all(isinstance(w, Weight) for w in weights):
            raise TypeError("WeightFamily holds Weight instances")
        return super().__new__(cls, weights)

    def interval(self) -> tuple[float, float]:
        los, his = zip(*(w.interval() for w in self))
        return min(los), max(his)

    def values(self, x) -> np.ndarray:
        """Stacked evaluations, shape (len(self),) + shape(x)."""
        x = np.asarray(x, dtype=float)
        return np.stack([w(x) for w in self])


def transition_weight(t: float, a: float, n: int = 1) -> Weight:
    """The Brownian transition density sqrt(n / (2 pi t)) exp(-n (x - a)^2
    / (2 t)) as a gaussian Weight; t must lie in the open unit interval,
    where the bridge endpoints do not pin the motion, and n >= 1."""
    t, n = real_number(t, "time"), exact_int(n, "variance scale n")
    if not (0.0 < t < 1.0 and n >= 1):
        raise ValueError(f"need time in (0, 1) and n >= 1, got t={t}, n={n}")
    var = t / n
    return Weight.gaussian(a, var, 1.0 / math.sqrt(TWO_PI * var))


# ---------------------------------------------------------------------------
# Gaussian products and closed-form moments


def gaussian_product_params(w1: Weight, w2: Weight, ar=_DOUBLE, center=0.0
                            ) -> tuple[float, float, float]:
    """(mean - center, variance, amplitude) of the product of two gaussian
    weights, in the arithmetic ar: a namespace of the number type mpf, exp,
    sqrt and pi.  It is double by default; mpmath and mpmath.iv compute at
    their working precision, the weights' doubles entering as ar.mpf of
    them, exactly.  The mean is formed as ((c1 - center) v2 + (c2 - center)
    v1) / (v1 + v2), in the frame of center: far from the origin the
    centers' offsets from a nearby center are exact, where the absolute
    mean minus the center would cancel.  center 0 gives the absolute mean.
    """
    v1, v2 = ar.mpf(w1.variance), ar.mpf(w2.variance)
    c1, c2 = ar.mpf(w1.center), ar.mpf(w2.center)
    c = ar.mpf(center)
    v = v1 + v2
    var = v1 * v2 / v
    mean = ((c1 - c) * v2 + (c2 - c) * v1) / v
    dist2 = checked_power(c1 - c2, 2, "gaussian product: squared center distance")
    amp = ar.mpf(w1.amplitude) * ar.mpf(w2.amplitude) * ar.exp(-dist2 / (2 * v))
    return mean, var, amp


def gaussian_pair_moments(w1: Weight, w2: Weight, kmax: int,
                          center: float = 0.0, scale: float = 1.0,
                          ar=_DOUBLE) -> np.ndarray:
    """Moments integral u^k w1 w2 dx for k = 0..kmax, u = (x-center)/scale,
    in the arithmetic ar (as gaussian_product_params takes it): a float
    array by default, else an object array of ar's numbers.

    Uses the three-term recursion m_k = mu m_{k-1} + (k-1) sigma^2 m_{k-2}
    on the product Gaussian, whose mean mu is formed in the basis frame
    (gaussian_product_params with center).  When both centers coincide
    with the basis center mu is exactly 0, and so are the odd moments.
    This is the one home of the formula: the double table, the extended
    fallback's interval table and the tests' enclosures all come from it.
    """
    offset, var, amp = gaussian_product_params(w1, w2, ar, center)
    scale = ar.mpf(scale)
    mu = offset / scale
    sig2 = var / checked_power(scale, 2, "moment table: squared basis scale")
    out = [amp * scale * ar.sqrt(2 * ar.pi * sig2)]
    if kmax >= 1:
        out.append(mu * out[0])
    for k in range(2, kmax + 1):
        out.append(mu * out[k - 1] + (k - 1) * sig2 * out[k - 2])
    return np.array(out, dtype=float if ar is _DOUBLE else object)


# ---------------------------------------------------------------------------
# Quadrature


@lru_cache(maxsize=None)
def leggauss(degree: int):
    """The Gauss-Legendre rule of the degree on [-1, 1], (nodes, weights),
    computed once per degree."""
    return np.polynomial.legendre.leggauss(degree)


def adaptive_gauss_legendre(f: Callable, a: float, b: float, *,
                            abs_tol: float = 1e-12,
                            rel_tol: float = 1e-10) -> tuple[float, float]:
    """Integrate a vectorized integrand on [a, b], doubling the degree.

    Stops when two successive estimates agree to abs_tol or rel_tol; raises
    AccuracyError (carrying the last value and achieved bound) past the cap.
    Works for real- or complex-valued integrands and for vector outputs
    (convergence is then on the max entry).
    """
    if b <= a:
        return 0.0, 0.0
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    prev = None
    degree = MIN_QUAD_DEGREE
    while degree <= MAX_QUAD_DEGREE:
        nodes, wts = leggauss(degree)
        vals = np.asarray(f(mid + half * nodes))
        est = half * np.tensordot(vals, wts, axes=(vals.ndim - 1, 0))
        if prev is not None:
            err = float(np.max(np.abs(est - prev)))
            tol = max(abs_tol, rel_tol * float(np.max(np.abs(est))))
            if err <= tol:
                return est, err
        prev = est
        degree *= 2
    raise AccuracyError(
        f"Gauss-Legendre did not converge on [{a:g}, {b:g}] at degree "
        f"{MAX_QUAD_DEGREE}", value=est, achieved=err)


# ---------------------------------------------------------------------------
# Basis placement and moment tables


def basis_center_scale(*families: WeightFamily) -> tuple[float, float]:
    """Shifted-scaled monomial basis (x - c)/s shared by both weight families.

    c is the mean of the weight centers, s the family spread: the largest
    standard deviation plus half the center range.
    """
    centers = [w.center for fam in families for w in fam]
    sd = max(math.sqrt(w.variance) for fam in families for w in fam)
    return float(np.mean(centers)), sd + 0.5 * (max(centers) - min(centers))


def family_interval(*families: WeightFamily) -> tuple[float, float]:
    los, his = zip(*(fam.interval() for fam in families))
    return min(los), max(his)


@dataclass(frozen=True)
class ProductMomentTable:
    """Moments integral u^k w1_j w2_l dx in the shared shifted-scaled basis.

    values has shape (p, q, kmax+1).
    """

    w1: WeightFamily
    w2: WeightFamily
    center: float
    scale: float
    kmax: int
    values: np.ndarray

    def swapped(self) -> "ProductMomentTable":
        """The same table with the two families' roles exchanged."""
        return ProductMomentTable(
            w1=self.w2, w2=self.w1, center=self.center, scale=self.scale,
            kmax=self.kmax, values=self.values.transpose(1, 0, 2))


def build_moment_table(w1: WeightFamily, w2: WeightFamily, kmax: int, *,
                       center: float | None = None,
                       scale: float | None = None) -> ProductMomentTable:
    """Tabulate every pairwise product moment up to order kmax.

    The basis placement may be overridden (tests exercise invariance of rank
    decisions under that choice); by default it is derived from both
    families.
    """
    if kmax < 0:
        raise ValueError("kmax must be >= 0")
    auto_c, auto_s = basis_center_scale(w1, w2)
    c = auto_c if center is None else float(center)
    s = auto_s if scale is None else float(scale)
    if not s > 0.0:
        raise ValueError("basis scale must be positive")

    values = np.zeros((len(w1), len(w2), kmax + 1))
    for j, a in enumerate(w1):
        for l, b in enumerate(w2):
            values[j, l] = gaussian_pair_moments(a, b, kmax, c, s)
    bad = np.argwhere(~np.isfinite(values))
    if bad.size:
        j, l, k = (int(v) for v in bad[0])
        raise AccuracyError(f"moment table entry is not finite: weight pair "
                            f"({j}, {l}), order {k} (value {values[j, l, k]})")
    return ProductMomentTable(w1=w1, w2=w2, center=c, scale=s, kmax=kmax,
                              values=values)


# ---------------------------------------------------------------------------
# JSON interface


def _weight_from_dict(d: dict) -> Weight:
    try:
        kind = d["kind"]
    except (TypeError, KeyError) as exc:
        raise ValueError("weight entry must be an object with a 'kind'") from exc
    if kind != "gaussian":
        raise ValueError(f"unsupported weight kind in config: {kind!r}")
    known_keys(d, WEIGHT_KEYS, "a weight entry")
    try:
        return Weight.gaussian(json_number(d["center"], "center"),
                               json_number(d["variance"], "variance"),
                               json_number(d.get("amplitude", 1.0), "amplitude"))
    except KeyError as exc:
        raise ValueError(f"gaussian weight needs 'center' and 'variance': missing {exc}") from exc


def weights_from_json(data: dict) -> tuple[WeightFamily, WeightFamily]:
    """The two weight families of a config dict's 'w1' and 'w2' lists."""
    if not isinstance(data, dict) or "w1" not in data or "w2" not in data:
        raise ValueError("weight config must provide 'w1' and 'w2' lists")
    w1 = WeightFamily([_weight_from_dict(d) for d in data["w1"]])
    w2 = WeightFamily([_weight_from_dict(d) for d in data["w2"]])
    return w1, w2

