"""Weight families on the real line and their product-moment tables.

Everything downstream (solvers, kernels, Riemann-Hilbert assembly) consumes
weights only through evaluation and through integrals of the form

    integral x^k  w1_j(x) w2_l(x) dx,

so this module owns the two routes to those numbers: an exact recursion for
Gaussian pairs and adaptive Gauss-Legendre quadrature for everything else.
Moment tables are stored in a shifted-scaled monomial basis u = (x - c)/s to
keep the downstream linear systems tolerably conditioned; public results are
always reported in the original variable.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple, Sequence

import numpy as np

from ._util import json_number, write_csv

# Truncation rule: 12 spreads of a Gaussian carry all mass to ~1e-31.
TAIL_SIGMAS = 12.0
# Largest |center| of a gaussian weight in standard deviations: beyond it a
# double rounds the center by over 2e-4 sd, and squaring it can overflow.
MAX_CENTER_SIGMAS = 1e12

# Degree ladder for the doubling quadrature rules.
MIN_QUAD_DEGREE = 16
MAX_QUAD_DEGREE = 512

TWO_PI = 2.0 * math.pi


class AccuracyError(RuntimeError):
    """Quadrature failed to converge; carries the best value and its bound."""

    def __init__(self, message: str, value=None, achieved: float | None = None):
        super().__init__(message)
        self.value = value
        self.achieved = achieved


@dataclass(frozen=True)
class Weight:
    """A nonnegative weight with finite moments of every order.

    Two kinds exist.  ``gaussian`` is amplitude * exp(-(x-center)^2 /
    (2*variance)) and supports closed-form product moments.  ``tabulated``
    wraps a callable together with a declared finite support interval; all
    integrals against it are truncated to that interval, which is the
    integrability/decay declaration required of the caller.
    """

    kind: str
    center: float = 0.0
    variance: float = 1.0
    amplitude: float = 1.0
    fn: Callable[[np.ndarray], np.ndarray] | None = None
    support: tuple[float, float] | None = None

    def __post_init__(self):
        if self.kind == "gaussian":
            if not (self.variance > 0.0) or not math.isfinite(self.variance):
                raise ValueError("gaussian weight needs variance > 0")
            if not (self.amplitude > 0.0) or not math.isfinite(self.amplitude):
                raise ValueError("gaussian weight needs amplitude > 0")
            if not abs(self.center) <= MAX_CENTER_SIGMAS * math.sqrt(self.variance):
                raise ValueError(f"gaussian weight needs |center| <= {MAX_CENTER_SIGMAS:g}"
                                 f" sd, got center {self.center!r}")
        elif self.kind == "tabulated":
            if self.fn is None:
                raise ValueError("tabulated weight needs a callable")
            if self.support is None:
                raise ValueError("tabulated weight must declare a support interval")
            lo, hi = self.support
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise ValueError("tabulated support must be a finite interval")
        else:
            raise ValueError(f"unknown weight kind {self.kind!r}")

    @staticmethod
    def gaussian(center: float, variance: float, amplitude: float = 1.0) -> "Weight":
        return Weight(kind="gaussian", center=float(center), variance=float(variance),
                      amplitude=float(amplitude))

    @staticmethod
    def tabulated(fn: Callable, support: tuple[float, float]) -> "Weight":
        return Weight(kind="tabulated", fn=fn,
                      support=(float(support[0]), float(support[1])))

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "gaussian":
            return self.amplitude * np.exp(-((x - self.center) ** 2) / (2.0 * self.variance))
        return np.asarray(self.fn(x), dtype=float)

    def interval(self) -> tuple[float, float]:
        """Interval outside which the weight is treated as zero."""
        if self.kind == "gaussian":
            sd = math.sqrt(self.variance)
            return self.center - TAIL_SIGMAS * sd, self.center + TAIL_SIGMAS * sd
        return self.support

    def log_derivative_factor(self, x):
        """d/dx of the weight, for gaussian kind only."""
        if self.kind != "gaussian":
            raise ValueError("derivative available for gaussian weights only")
        x = np.asarray(x, dtype=float)
        return -(x - self.center) / self.variance * self(x)

    def to_json_dict(self) -> dict:
        if self.kind != "gaussian":
            raise ValueError("only gaussian weights serialize to JSON")
        return {"kind": "gaussian", "center": self.center,
                "variance": self.variance, "amplitude": self.amplitude}


class WeightFamily(tuple):
    """An ordered, nonempty tuple of weights playing one side of a pairing."""

    def __new__(cls, weights: Sequence[Weight]):
        weights = tuple(weights)
        if not weights:
            raise ValueError("a weight family needs at least one weight")
        if not all(isinstance(w, Weight) for w in weights):
            raise TypeError("WeightFamily holds Weight instances")
        return super().__new__(cls, weights)

    @property
    def all_gaussian(self) -> bool:
        return all(w.kind == "gaussian" for w in self)

    def interval(self) -> tuple[float, float]:
        los, his = zip(*(w.interval() for w in self))
        return min(los), max(his)

    def values(self, x) -> np.ndarray:
        """Stacked evaluations, shape (len(self),) + shape(x)."""
        x = np.asarray(x, dtype=float)
        return np.stack([w(x) for w in self])


def gaussian_transition(t: float, a: float, x, n: int = 1):
    """Brownian transition density with optional 1/n variance scaling.

    Returns sqrt(n / (2 pi t)) * exp(-n (x-a)^2 / (2 t)); rejects t outside
    the open unit interval, where the bridge endpoints pin the motion.
    """
    if not (0.0 < t < 1.0):
        raise ValueError(f"time must lie in (0, 1), got {t}")
    if n < 1:
        raise ValueError("scaling parameter n must be >= 1")
    x = np.asarray(x, dtype=float)
    return math.sqrt(n / (TWO_PI * t)) * np.exp(-n * (x - a) ** 2 / (2.0 * t))


def transition_weight(t: float, a: float, n: int = 1) -> Weight:
    """The transition density packaged as a gaussian Weight."""
    if not (0.0 < t < 1.0):
        raise ValueError(f"time must lie in (0, 1), got {t}")
    var = t / n
    return Weight.gaussian(a, var, 1.0 / math.sqrt(TWO_PI * var))


# ---------------------------------------------------------------------------
# Gaussian products and closed-form moments


def gaussian_product_params(w1: Weight, w2: Weight) -> tuple[float, float, float]:
    """(mean, variance, amplitude) of the product of two gaussian weights."""
    v = w1.variance + w2.variance
    var = w1.variance * w2.variance / v
    mean = (w1.center * w2.variance + w2.center * w1.variance) / v
    amp = w1.amplitude * w2.amplitude * math.exp(-((w1.center - w2.center) ** 2) / (2.0 * v))
    return mean, var, amp


def gaussian_pair_moments(w1: Weight, w2: Weight, kmax: int,
                          center: float = 0.0, scale: float = 1.0) -> np.ndarray:
    """Moments integral u^k w1 w2 dx for k = 0..kmax, u = (x-center)/scale.

    Uses the three-term recursion m_k = mu m_{k-1} + (k-1) sigma^2 m_{k-2}
    on the product Gaussian.  When both centers coincide with the basis
    center the odd moments are exactly zero by symmetry and are pinned to 0.0
    rather than trusted to rounding.
    """
    mean, var, amp = gaussian_product_params(w1, w2)
    mu = (mean - center) / scale
    sig2 = var / scale**2
    out = np.empty(kmax + 1)
    m0 = amp * scale * math.sqrt(TWO_PI * sig2)
    out[0] = m0
    if kmax >= 1:
        out[1] = mu * m0
    for k in range(2, kmax + 1):
        out[k] = mu * out[k - 1] + (k - 1) * sig2 * out[k - 2]
    if w1.center == w2.center == center:
        out[1::2] = 0.0
    return out


# ---------------------------------------------------------------------------
# Quadrature


@lru_cache(maxsize=None)
def _leggauss(degree: int):
    return np.polynomial.legendre.leggauss(degree)


@lru_cache(maxsize=None)
def _hermgauss(degree: int):
    return np.polynomial.hermite.hermgauss(degree)


def adaptive_gauss_legendre(f: Callable, a: float, b: float, *,
                            abs_tol: float = 1e-12, rel_tol: float = 1e-10,
                            max_degree: int = MAX_QUAD_DEGREE) -> tuple[float, float]:
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
    while degree <= max_degree:
        nodes, wts = _leggauss(degree)
        vals = np.asarray(f(mid + half * nodes))
        est = half * np.tensordot(vals, wts, axes=(vals.ndim - 1, 0))
        if prev is not None:
            err = float(np.max(np.abs(est - prev)))
            tol = max(abs_tol, rel_tol * float(np.max(np.abs(est))))
            if err <= tol:
                return est, err
        prev = est
        degree *= 2
    achieved = float(np.max(np.abs(est - prev))) if prev is not None else math.inf
    raise AccuracyError(
        f"Gauss-Legendre did not converge on [{a:g}, {b:g}] at degree {max_degree}",
        value=est, achieved=achieved)


def _gauss_hermite_pair_moment(w1: Weight, w2: Weight, k: int) -> tuple[float, float]:
    """Gauss-Hermite route for a gaussian pair, recentered at the product mean."""
    mean, var, amp = gaussian_product_params(w1, w2)
    sd = math.sqrt(var)
    prev = None
    degree = MIN_QUAD_DEGREE
    while degree <= MAX_QUAD_DEGREE:
        nodes, wts = _hermgauss(degree)
        xs = mean + math.sqrt(2.0) * sd * nodes
        est = amp * math.sqrt(2.0) * sd * float(np.sum(wts * xs**k))
        if prev is not None:
            err = abs(est - prev)
            if err <= max(1e-12, 1e-10 * abs(est)):
                return est, err
        prev = est
        degree *= 2
    raise AccuracyError("Gauss-Hermite moment did not converge", value=prev)


class MomentValue(NamedTuple):
    value: float
    error_bound: float


def product_moment(w1: Weight, w2: Weight, k: int) -> MomentValue:
    """integral x^k w1(x) w2(x) dx with an absolute error bound.

    Gaussian pairs go through the exact recursion (bound is a rounding-level
    estimate); any pair involving a tabulated weight goes through adaptive
    quadrature on the intersection of the declared supports and raises
    AccuracyError, with the achieved bound attached, if that fails to settle.
    """
    if k < 0:
        raise ValueError("moment order must be >= 0")
    if w1.kind == "gaussian" and w2.kind == "gaussian":
        vals = gaussian_pair_moments(w1, w2, k)
        return MomentValue(float(vals[k]), (k + 2) * 2e-16 * abs(float(vals[k])))
    return product_moment_quadrature(w1, w2, k)


def product_moment_quadrature(w1: Weight, w2: Weight, k: int) -> MomentValue:
    """Quadrature route for the same integral; the fallback and the oracle."""
    if w1.kind == "gaussian" and w2.kind == "gaussian":
        val, err = _gauss_hermite_pair_moment(w1, w2, k)
        return MomentValue(val, err)
    lo1, hi1 = w1.interval()
    lo2, hi2 = w2.interval()
    lo, hi = max(lo1, lo2), min(hi1, hi2)
    if hi <= lo:
        return MomentValue(0.0, 0.0)
    val, err = adaptive_gauss_legendre(lambda x: x**k * w1(x) * w2(x), lo, hi)
    return MomentValue(float(val), float(err))


# ---------------------------------------------------------------------------
# Basis placement and moment tables


def basis_center_scale(*families: WeightFamily) -> tuple[float, float]:
    """Shifted-scaled monomial basis (x - c)/s shared by both weight families.

    c is the mean of the weight centers, s the family spread (largest
    standard deviation plus half the center range), floored away from zero.
    """
    centers: list[float] = []
    sds: list[float] = []
    for fam in families:
        for w in fam:
            if w.kind == "gaussian":
                centers.append(w.center)
                sds.append(math.sqrt(w.variance))
            else:
                lo, hi = w.support
                centers.append(0.5 * (lo + hi))
                sds.append(0.25 * (hi - lo))
    c = float(np.mean(centers))
    s = max(sds) + 0.5 * (max(centers) - min(centers))
    if not (s > 0.0 and math.isfinite(s)):
        s = 1.0
    return c, float(s)


def family_interval(*families: WeightFamily) -> tuple[float, float]:
    los, his = zip(*(fam.interval() for fam in families))
    return min(los), max(his)


@dataclass(frozen=True)
class ProductMomentTable:
    """Moments integral u^k w1_j w2_l dx in the shared shifted-scaled basis.

    values has shape (p, q, kmax+1); accuracy holds an absolute error bound
    per entry (rounding-level for gaussian pairs, quadrature bound else).
    """

    w1: WeightFamily
    w2: WeightFamily
    center: float
    scale: float
    kmax: int
    values: np.ndarray
    accuracy: np.ndarray

    def entry(self, j: int, l: int, k: int) -> float:
        if k > self.kmax:
            raise ValueError(f"moment order {k} exceeds table kmax={self.kmax}")
        return float(self.values[j, l, k])

    def swapped(self) -> "ProductMomentTable":
        """The same table with the two families' roles exchanged."""
        return ProductMomentTable(
            w1=self.w2, w2=self.w1, center=self.center, scale=self.scale,
            kmax=self.kmax, values=self.values.transpose(1, 0, 2),
            accuracy=self.accuracy.transpose(1, 0, 2))

    def to_csv(self, path: str) -> None:
        """One row (j, l, k, value, error_bound) per entry, k fastest."""
        index = np.indices(self.values.shape).reshape(3, -1)
        write_csv(path, ("j", "l", "k", "value", "error_bound"),
                  np.column_stack([*index, self.values.ravel(),
                                   self.accuracy.ravel()]))


def _quad_pair_moments(w1: Weight, w2: Weight, kmax: int,
                       center: float, scale: float) -> tuple[np.ndarray, np.ndarray]:
    lo1, hi1 = w1.interval()
    lo2, hi2 = w2.interval()
    lo, hi = max(lo1, lo2), min(hi1, hi2)
    if hi <= lo:
        return np.zeros(kmax + 1), np.zeros(kmax + 1)

    def integrand(x):
        u = (x - center) / scale
        pows = np.vander(u, kmax + 1, increasing=True).T
        return pows * (w1(x) * w2(x))

    vals, err = adaptive_gauss_legendre(integrand, lo, hi)
    return np.asarray(vals, dtype=float), np.full(kmax + 1, err)


def build_moment_table(w1: WeightFamily, w2: WeightFamily, kmax: int, *,
                       center: float | None = None,
                       scale: float | None = None) -> ProductMomentTable:
    """Tabulate every pairwise product moment up to order kmax.

    The basis placement may be overridden (tests exercise invariance of rank
    decisions under that choice); by default it is derived from both
    families.
    """
    w1 = w1 if isinstance(w1, WeightFamily) else WeightFamily(w1)
    w2 = w2 if isinstance(w2, WeightFamily) else WeightFamily(w2)
    if kmax < 0:
        raise ValueError("kmax must be >= 0")
    auto_c, auto_s = basis_center_scale(w1, w2)
    c = auto_c if center is None else float(center)
    s = auto_s if scale is None else float(scale)
    if not s > 0.0:
        raise ValueError("basis scale must be positive")

    values = np.zeros((len(w1), len(w2), kmax + 1))
    accuracy = np.zeros_like(values)
    rounding = (np.arange(kmax + 1) + 2) * 2e-16
    for j, a in enumerate(w1):
        for l, b in enumerate(w2):
            if a.kind == "gaussian" and b.kind == "gaussian":
                values[j, l] = gaussian_pair_moments(a, b, kmax, c, s)
                accuracy[j, l] = rounding * np.abs(values[j, l])
            else:
                values[j, l], accuracy[j, l] = _quad_pair_moments(a, b, kmax, c, s)
    return ProductMomentTable(w1=w1, w2=w2, center=c, scale=s, kmax=kmax,
                              values=values, accuracy=accuracy)


# ---------------------------------------------------------------------------
# JSON interface


def _weight_from_dict(d: dict) -> Weight:
    try:
        kind = d["kind"]
    except (TypeError, KeyError) as exc:
        raise ValueError("weight entry must be an object with a 'kind'") from exc
    if kind != "gaussian":
        raise ValueError(f"unsupported weight kind in config: {kind!r}")
    try:
        return Weight.gaussian(json_number(d["center"], "center"),
                               json_number(d["variance"], "variance"),
                               json_number(d.get("amplitude", 1.0), "amplitude"))
    except KeyError as exc:
        raise ValueError(f"gaussian weight needs 'center' and 'variance': missing {exc}") from exc


def weights_from_json(source) -> tuple[WeightFamily, WeightFamily]:
    """Load the two weight families from a config dict, JSON text, or path."""
    if isinstance(source, str):
        try:
            data = json.loads(source)
        except json.JSONDecodeError:
            with open(source) as fh:
                data = json.load(fh)
    else:
        data = source
    if not isinstance(data, dict) or "w1" not in data or "w2" not in data:
        raise ValueError("weight config must provide 'w1' and 'w2' lists")
    w1 = WeightFamily([_weight_from_dict(d) for d in data["w1"]])
    w2 = WeightFamily([_weight_from_dict(d) for d in data["w2"]])
    return w1, w2


def weights_to_json_dict(w1: WeightFamily, w2: WeightFamily) -> dict:
    return {"w1": [w.to_json_dict() for w in w1],
            "w2": [w.to_json_dict() for w in w2]}
