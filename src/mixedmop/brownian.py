"""Non-intersecting Brownian motions with several starting and ending points.

Walkers start at points a_j (multiplicity n_j), end at b_k (multiplicity
m_k), and are observed at an intermediate time t.  The positions form a
determinantal process whose kernel is the projection kernel of the mixed
orthogonality problem with Gaussian transition weights.  This module wires
the configuration to the weight families, provides the joint density in
Karlin-McGregor form with a certified normalization constant, the m-point
correlation functions, an exact chain-rule sampler of the positions, and
two Monte Carlo validators: a Metropolis sampler of the joint density and a
bridge simulator with grid non-intersection rejection.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import legendre

from ._util import exact_int, json_count, json_number, real_number, write_csv
from .kernel import BiorthogonalSystem, build_biorthogonal, kernel_direct_grid
from .mop import MultiIndexPair
from .weights import (TAIL_SIGMAS, AccuracyError, WeightFamily,
                      gaussian_pair_moments, gaussian_product_params, leggauss,
                      transition_weight)

MAX_PATH_WALKERS = 4
# Gauss-Legendre degrees per axis tried for the Karlin-McGregor normalization.
NORMALIZATION_DEGREES = (16, 32, 64, 128, 256, 512)
MCMC_BURN_IN = 10_000
MCMC_THIN = 10
MCMC_CHAINS = 4
ACCEPTANCE_WINDOW = (0.23, 0.40)
PSRF_LIMIT = 1.05
# Exact position sampler: Gauss-Legendre panels over the box's pieces with
# mass (`_panel_edges`), nodes per panel (one more than the degree of each
# panel's Legendre series), draws per block, the relative tolerance on each
# conditional mass (n - k) and on the series density, and the inverse-CDF
# search's relative tolerance and step cap.
DPP_PANELS = 64
DPP_NODES = 20
DPP_BLOCK = 2048
MASS_TOL = 1e-9
INVERSION_TOL = 1e-12
INVERSION_MAX_STEPS = 60
PATH_MIN_GRID = 64
PATH_MIN_ACCEPTANCE = 1e-5
# Equal-mass bins of the chi-squared goodness-of-fit test.
CHI_SQUARE_BINS = 40


@dataclass(frozen=True)
class BrownianConfig:
    """Start/end points with multiplicities, observation time, and the
    variance convention (True scales the transition variance by 1/n)."""

    starts: tuple[tuple[float, int], ...]
    ends: tuple[tuple[float, int], ...]
    time: float
    variance_scaling: bool = True

    def __post_init__(self):
        def parsed(label, pts):
            return tuple((real_number(a, f"{label} point"),
                          exact_int(k, f"{label} multiplicity")) for a, k in pts)

        starts, ends = parsed("start", self.starts), parsed("end", self.ends)
        object.__setattr__(self, "starts", starts)
        object.__setattr__(self, "ends", ends)
        if not starts or not ends:
            raise ValueError("starts and ends must be nonempty")
        for label, pts in (("starts", starts), ("ends", ends)):
            if any(k < 1 for _, k in pts):
                raise ValueError(f"{label} multiplicities must be >= 1")
            xs = [a for a, _ in pts]
            if any(x2 <= x1 for x1, x2 in zip(xs, xs[1:])):
                raise ValueError(f"{label} points must be strictly increasing")
        if sum(k for _, k in starts) != sum(k for _, k in ends):
            raise ValueError("total start and end multiplicities must agree "
                             "(paths are conserved)")
        if not 0.0 < self.time < 1.0:
            raise ValueError("observation time must lie strictly in (0, 1)")
        config_to_weights(self)  # refuses points too far out for the variance

    @property
    def walkers(self) -> int:
        return sum(k for _, k in self.starts)

    @property
    def n_scale(self) -> int:
        return self.walkers if self.variance_scaling else 1

    @property
    def distinct(self) -> bool:
        return all(k == 1 for _, k in self.starts + self.ends)

    def flat_starts(self) -> np.ndarray:
        return np.repeat([a for a, _ in self.starts],
                         [k for _, k in self.starts]).astype(float)

    def flat_ends(self) -> np.ndarray:
        return np.repeat([b for b, _ in self.ends],
                         [k for _, k in self.ends]).astype(float)

    def bridge_sd(self) -> float:
        t = self.time
        return math.sqrt(t * (1.0 - t) / self.n_scale)

    def bridge_box(self) -> tuple[float, float]:
        """Box containing the observed positions to 8 bridge standard
        deviations (i-th ordered start pairs with i-th end)."""
        t = self.time
        means = (1.0 - t) * self.flat_starts() + t * self.flat_ends()
        half = 8.0 * self.bridge_sd()
        return float(means.min() - half), float(means.max() + half)

    @classmethod
    def from_json_dict(cls, d: dict) -> "BrownianConfig":
        """Parse a JSON config.  Points and t must be finite JSON numbers
        and multiplicities JSON integers >= 1 (booleans are neither), so no
        input is silently rounded or coerced into different physics."""
        try:
            starts = tuple((json_number(a, "start point"),
                            json_count(k, "multiplicity")) for a, k in d["starts"])
            ends = tuple((json_number(b, "end point"),
                          json_count(k, "multiplicity")) for b, k in d["ends"])
            t = json_number(d["t"], "t")
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"invalid brownian config: {exc}") from exc
        scaling = d.get("n_scaling", True)
        if not isinstance(scaling, bool):
            raise ValueError("invalid brownian config: n_scaling must be a "
                             f"JSON boolean, got {scaling!r}")
        return cls(starts=starts, ends=ends, time=t, variance_scaling=scaling)


def config_to_weights(config: BrownianConfig
                      ) -> tuple[WeightFamily, WeightFamily, MultiIndexPair]:
    """Gaussian transition weights at the observation time: p weights
    centered at the starts with variance t/n_scale, q at the ends with
    variance (1-t)/n_scale, and the balanced multi-index pair of
    multiplicities."""
    t = config.time
    ns = config.n_scale
    w1 = WeightFamily([transition_weight(t, a, ns) for a, _ in config.starts])
    w2 = WeightFamily([transition_weight(1.0 - t, b, ns) for b, _ in config.ends])
    pair = MultiIndexPair.balanced([k for _, k in config.starts],
                                   [k for _, k in config.ends])
    return w1, w2, pair


# ---------------------------------------------------------------------------
# Karlin-McGregor joint density


@dataclass(frozen=True)
class KarlinMcGregorDensity:
    """Joint position density (1/Z) det[w1_j(x_k)] det[w2_j(x_k)].

    The determinant product is permutation-symmetric, so evaluation accepts
    coordinates in any order.  z_n is the Gauss-Legendre quadrature of the
    n-fold integral over the bridge box, evaluated by the discrete Andreief
    identity, and z_n_accuracy the change over its last degree doubling;
    z_n_gram is the independent closed-form cross-check
    n! det[int w1_i w2_j].
    """

    config: BrownianConfig
    w1: WeightFamily
    w2: WeightFamily
    z_n: float
    z_n_accuracy: float
    z_n_gram: float
    box: tuple[float, float]

    @property
    def walkers(self) -> int:
        return self.config.walkers

    def _dets(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        flat = X.reshape(-1)
        W1 = self.w1.values(flat).reshape(len(self.w1), *X.shape)
        W2 = self.w2.values(flat).reshape(len(self.w2), *X.shape)
        # (batch, row j, column k) = weight_j(x_k)
        d1 = np.linalg.det(np.moveaxis(W1, 0, -2))
        d2 = np.linalg.det(np.moveaxis(W2, 0, -2))
        return d1, d2

    def density(self, positions) -> float | np.ndarray:
        X = np.asarray(positions, dtype=float)
        scalar = X.ndim == 1
        X = np.atleast_2d(X)
        if X.shape[-1] != self.walkers:
            raise ValueError(f"expected {self.walkers} coordinates")
        d1, d2 = self._dets(X)
        vals = d1 * d2 / self.z_n
        return float(vals[0]) if scalar else vals

    __call__ = density


def andreief_quadrature(w1: WeightFamily, w2: WeightFamily,
                        box: tuple[float, float], degree: int) -> float:
    """integral over box^n of det[w1_i(x_j)] det[w2_i(x_j)] by the tensor
    Gauss-Legendre rule of the given degree on each axis, evaluated as
    n! det[sum_k h w_k w1_i(x_k) w2_j(x_k)] (h the half-width of the box).

    By the discrete Andreief (Cauchy-Binet) identity this equals the degree^n
    tensor sum exactly, at O(n^2 degree) cost instead of O(n! degree^n).
    """
    lo, hi = box
    h = 0.5 * (hi - lo)
    nodes, wts = leggauss(degree)
    xs = 0.5 * (lo + hi) + h * nodes
    G = (w1.values(xs) * (h * wts)) @ w2.values(xs).T
    return float(math.factorial(len(w1)) * np.linalg.det(G))


def gram_normalization(w1: WeightFamily, w2: WeightFamily, n: int) -> float:
    """n! det[ integral w1_i w2_j ], the Andreief identity route."""
    G = np.array([[gaussian_pair_moments(wa, wb, 0)[0] for wb in w2] for wa in w1])
    return float(math.factorial(n) * np.linalg.det(G))


def km_density(config: BrownianConfig) -> KarlinMcGregorDensity:
    """Joint density for distinct points.  z_n is Gauss-Legendre quadrature
    by the discrete Andreief identity (`andreief_quadrature`) at doubling
    degrees until two values agree to 1e-9 relative, cross-checked against
    the closed-form Gram route (`gram_normalization`)."""
    if not config.distinct:
        raise ValueError("the Karlin-McGregor determinant form needs all "
                         "multiplicities equal to 1; use the kernel for "
                         "confluent configurations")
    w1, w2, _ = config_to_weights(config)
    box = config.bridge_box()
    z = andreief_quadrature(w1, w2, box, NORMALIZATION_DEGREES[0])
    for degree in NORMALIZATION_DEGREES[1:]:
        prev, z = z, andreief_quadrature(w1, w2, box, degree)
        z_acc = abs(z - prev)
        if z_acc <= 1e-9 * max(abs(z), 1e-300):
            break
    else:
        raise AccuracyError(
            f"normalization quadrature did not settle at degree "
            f"{NORMALIZATION_DEGREES[-1]}", value=z, achieved=z_acc)
    if z <= 0.0:
        raise AccuracyError(f"normalization came out nonpositive ({z:.3e})")
    return KarlinMcGregorDensity(config=config, w1=w1, w2=w2, z_n=z,
                                 z_n_accuracy=z_acc,
                                 z_n_gram=gram_normalization(w1, w2, len(w1)),
                                 box=box)


# ---------------------------------------------------------------------------
# Correlation kernel and m-point functions


def correlation_kernel(config: BrownianConfig) -> BiorthogonalSystem:
    """Projection kernel of the position process (multiplicities allowed)."""
    w1, w2, pair = config_to_weights(config)
    return build_biorthogonal(pair, w1, w2)


def r_m(system: BiorthogonalSystem, points) -> float:
    """m-point correlation function det[K(x_i, x_j)], m <= total walkers."""
    pts = np.atleast_1d(np.asarray(points, dtype=float))
    if pts.size > system.dimension:
        raise ValueError(f"at most {system.dimension} points")
    K = kernel_direct_grid(system, pts, pts)
    if pts.size == 1:
        return float(K[0, 0])
    return float(np.linalg.det(K))


def r1_grid(system: BiorthogonalSystem, xs) -> np.ndarray:
    """The one-point function r1(x) = K(x, x) at the points xs."""
    return system.diagonal(xs)


# ---------------------------------------------------------------------------
# Exact sampling of the position process


@dataclass(frozen=True)
class DppSamples:
    """Exact draws of the position process (rows ascending) with the
    certificates of the chain rule: the largest relative miss of a
    conditional mass against n - k, the largest inversion residual
    |C(x) - u mass| / mass, and the largest gap between the panel series
    density and the exact phi^T M psi at a drawn point, times the panel
    width over n - k."""

    samples: np.ndarray
    mass_deviation_max: float
    inversion_residual_max: float
    series_residual_max: float


def _phi_psi(system: BiorthogonalSystem, x: np.ndarray
             ) -> tuple[np.ndarray, np.ndarray]:
    """phi = C f and psi = g at the points x, each of shape (n,) + x.shape,
    so that K(x, y) = phi(x) . psi(y).  Elementwise arithmetic only: a
    point's values do not depend on what else is evaluated with it."""
    flat = x.reshape(-1)
    F = system.f_values(flat)
    C = system.transform
    phi = sum(C[:, c, None] * F[c] for c in range(len(F)))
    shape = (len(F),) + x.shape
    return phi.reshape(shape), system.g_values(flat).reshape(shape)


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


def _panel_edges(system: BiorthogonalSystem, box: tuple[float, float]
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Left and right ends of the sampler's DPP_PANELS panels.

    K(x, x) is a sum of polynomials times the Gaussian products w1_j w2_k,
    so the panels cover only the box's intersection with the products'
    TAIL_SIGMAS-sd intervals (products that underflow to 0 are left out),
    merged into disjoint pieces.  The panels are split among the pieces by
    length (largest remainder, at least one per piece) and are equal within
    a piece; one piece covering the box gives
    np.linspace(box[0], box[1], DPP_PANELS + 1).
    """
    spans = []
    for wa in system.w1:
        for wb in system.w2:
            mean, var, amp = gaussian_product_params(wa, wb)
            half = TAIL_SIGMAS * math.sqrt(var)
            lo, hi = max(box[0], mean - half), min(box[1], mean + half)
            if amp > 0.0 and lo < hi:
                spans.append((lo, hi))
    pieces = merge_intervals(spans) if spans else [box]
    length = np.array([hi - lo for lo, hi in pieces])
    share = max(DPP_PANELS - len(pieces), 0) * length / length.sum()
    counts = 1 + np.floor(share).astype(int)
    spare = max(DPP_PANELS, len(pieces)) - counts.sum()
    counts[np.argsort(np.floor(share) - share, kind="stable")[:spare]] += 1
    edges = [np.linspace(lo, hi, c + 1) for (lo, hi), c in zip(pieces, counts)]
    return (np.concatenate([e[:-1] for e in edges]),
            np.concatenate([e[1:] for e in edges]))


@lru_cache(maxsize=None)
def _legendre_map(nodes: int) -> np.ndarray:
    """(nodes, nodes) map from values v_q at the Gauss-Legendre nodes on
    [-1, 1] to the Legendre coefficients of their degree nodes - 1
    interpolant.  By the discrete orthogonality of the rule,
    c_l = (l + 1/2) sum_q w_q P_l(t_q) v_q."""
    t, w = leggauss(nodes)
    # C order: legvander returns a Fortran-ordered view, and the layout of
    # this operand decides how BLAS sums the coefficients
    interp = np.ascontiguousarray(
        legendre.legvander(t, nodes - 1) * w[:, None] * (np.arange(nodes) + 0.5))
    interp.setflags(write=False)
    return interp


def _panel_series(system: BiorthogonalSystem, lo: np.ndarray, hi: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """For each product phi_a psi_b (term a n + b) on the panels [lo, hi]:
    its integral over the panels before each panel edge by Gauss-Legendre,
    shape (panels + 1, n*n), edge-major (row 0 is 0, row e ends panel
    e - 1), and on each panel the DPP_NODES Legendre coefficients in
    s = (x - mid) / half of the product's node interpolant, shape
    (panels, n*n, DPP_NODES)."""
    t, w = leggauss(DPP_NODES)
    half = 0.5 * (hi - lo)
    pts = 0.5 * (lo + hi)[:, None] + half[:, None] * t
    phi, psi = _phi_psi(system, pts)
    n, panels = phi.shape[:2]
    values = (phi[:, None] * psi[None]).reshape(n * n, panels, DPP_NODES)
    cumulants = np.concatenate([np.zeros((n * n, 1)),
                                np.cumsum(values @ w * half, axis=-1)], axis=-1)
    series = values @ _legendre_map(DPP_NODES)
    return (np.ascontiguousarray(cumulants.T),
            np.ascontiguousarray(series.transpose(1, 0, 2)))


@lru_cache(maxsize=None)
def _monic_legendre(terms: int) -> tuple[np.ndarray, np.ndarray]:
    """For l < terms: beta_l = l^2 / (4 l^2 - 1) of the monic Legendre
    recurrence p_{l+1} = s p_l - beta_l p_{l-1}, and the leading coefficients
    k_l = (2 l)! / (2^l l!^2), so that P_l = k_l p_l."""
    l = np.arange(terms)
    beta = l ** 2 / (4.0 * l ** 2 - 1.0)
    lead = np.array([math.comb(2 * j, j) / 2.0 ** j for j in range(terms)])
    for v in (beta, lead):
        v.setflags(write=False)
    return beta, lead


def _legendre_series(s: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """For each column d, the series sum_l coef[l, d] P_l(s[d]) ([0]) and its
    integral from -1 to s[d] ([1]), shape (2, d).  P_0 .. P_L (L = len(coef))
    come once at each s from the three-term recurrence, the integrals of
    P_0 .. P_{L-1} from them by
    int_{-1}^s P_l = (P_{l+1} - P_{l-1}) / (2 l + 1) (s + 1 for l = 0),
    and both sums from one contraction.  The columns run in chunks of at
    most DPP_BLOCK // 2, so the (L + 1, 2, chunk) table of P_l and their
    integrals stays at most half a block wide.  Each column's values do not
    depend on the other columns or on their number."""
    width = max(DPP_BLOCK // 2, 1)
    out = np.empty((2, s.size))
    for a in range(0, s.size, width):
        out[:, a:a + width] = _legendre_chunk(s[a:a + width],
                                              coef[:, a:a + width])
    return out


def _legendre_chunk(s: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """_legendre_series on one chunk of columns, its table filled in place."""
    terms = len(coef)
    beta, lead = _monic_legendre(terms + 1)
    pq = np.empty((terms + 1, 2, s.size))
    p = pq[:, 0]
    p[0] = 1.0
    p[1] = s
    for l in range(1, terms):
        np.multiply(s, p[l], out=p[l + 1])
        p[l + 1] -= beta[l] * p[l - 1]
    p *= lead[:, None]
    np.add(s, 1.0, out=pq[0, 1])
    integrals = pq[1:terms, 1]
    np.subtract(p[2:], p[:-2], out=integrals)
    integrals /= (2.0 * np.arange(1, terms) + 1.0)[:, None]
    return np.einsum("lkd,ld->kd", pq[:terms], coef)


def _find_panels(cdf_at, target: np.ndarray, mass: np.ndarray, panels: int
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each draw's panel p with C(e_p) <= target < C(e_{p+1}), by bisection
    over the edge index: cdf_at(e) is every draw's CDF at its edge e[d], and
    edge 0 (CDF 0) and edge `panels` (CDF mass) bracket every target in
    [0, mass).  Returns p and the CDF at the panel's two edges."""
    lo = np.zeros(target.shape, dtype=np.intp)
    hi = np.full(target.shape, panels)
    left, right = np.zeros_like(target), mass
    for _ in range((panels - 1).bit_length()):
        mid = (lo + hi) // 2
        value = cdf_at(mid)
        below = value <= target
        lo, left = np.where(below, mid, lo), np.where(below, value, left)
        hi, right = np.where(below, hi, mid), np.where(below, right, value)
    return lo, left, right


def _invert_in_panel(coef: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                     x: np.ndarray, residual: np.ndarray, scale: np.ndarray
                     ) -> tuple[np.ndarray, float, np.ndarray]:
    """x in the panel [lo, hi] with (integral from lo to x of the density
    series) = residual, per draw, from the starting points x.  coef[l] are
    the Legendre coefficients of each draw's density series in
    s = (x - mid) / half on its panel, shape (L, draws).

    Newton steps on the series, replaced by bisection whenever a step
    leaves the bracket, until the miss is below INVERSION_TOL * scale.  A
    draw that is done keeps its x, and is evaluated again unchanged, until
    at least half of the draws still held are done; only then are the
    others compacted into fresh arrays, so that each compaction copies at
    most half of the coefficients.  Every operation is per draw, so the
    points do not depend on when the compaction happens.  Returns the
    points, the largest miss relative to scale, and the series density at
    the points.
    """
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    out, rho_at = np.empty_like(x), np.empty_like(x)
    worst = 0.0
    index = np.arange(x.size)
    for _ in range(INVERSION_MAX_STEPS):
        rho, integral = _legendre_series((x - mid) / half, coef)
        miss = half * integral - residual
        done = np.abs(miss) <= INVERSION_TOL * scale
        if 2 * np.count_nonzero(done) >= done.size:
            worst = max(worst, float(np.max(np.abs(miss[done]) / scale[done])))
            out[index[done]], rho_at[index[done]] = x[done], rho[done]
            keep = ~done
            index = index[keep]
            if index.size == 0:
                return out, worst, rho_at
            coef = coef[:, keep]
            x, lo, hi, mid, half, residual, scale, miss, rho, done = (
                a[keep] for a in (x, lo, hi, mid, half, residual, scale, miss,
                                  rho, done))
        below = miss < 0.0
        lo, hi = np.where(below, x, lo), np.where(below, hi, x)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = x - miss / rho
        step = np.where((step > lo) & (step < hi), step, 0.5 * (lo + hi))
        x = np.where(done, x, step)
    # only the draws still searching count
    left = ~done
    achieved = float(np.max(np.abs(miss[left]) / scale[left]))
    raise AccuracyError(
        f"inverse-CDF search left {np.count_nonzero(left)} draws with a "
        f"relative miss up to {achieved:.2e} after {INVERSION_MAX_STEPS} steps "
        f"(tolerance {INVERSION_TOL:.0e})", achieved=achieved)


def sample_projection_dpp(system: BiorthogonalSystem, box: tuple[float, float],
                          count: int, seed: int) -> DppSamples:
    """Exact draws of the rank-n projection process K(x, y) = phi(x).psi(y)
    by the chain rule (Hough-Krishnapur-Peres-Virag, Probab. Surveys 3,
    2006).

    With k points X drawn, the next has density phi^T M_k psi / (n - k),
    M_k = I - Psi_X (Phi_X^T Psi_X)^{-1} Phi_X^T, kept by the rank-one
    update M <- M - M psi(x) phi(x)^T M / (phi(x)^T M psi(x)).  Its CDF at
    a panel edge (`_panel_edges`) is the contraction of M with the panel
    cumulants of phi_a psi_b there; each draw's panel is found by bisection
    over the edge index, M is contracted with that panel's Legendre series
    of the products' density, and the draw is refined by safeguarded Newton
    on the series and its integral.  At k = 0, M = I for every draw, so the
    edge CDF and the panel series are contracted once; later steps group
    the draws by panel, so that each panel's series slab serves all of its
    draws without a copy.  Each conditional mass must equal tr M_k = n - k
    to MASS_TOL relative, and the series density must match the exact
    phi^T M psi at each drawn point to MASS_TOL (n - k) / panel width, or
    AccuracyError is raised.  Draws run in blocks of DPP_BLOCK from uniforms
    drawn up front, and every per-draw operation is elementwise or a stacked
    per-draw product on contiguous operands, so the output does not depend
    on the block size.  The block's memory is held down instead by chunking:
    the series runs over at most half a block of columns at a time
    (`_legendre_series`), the Newton search compacts its draws only once
    half of them are done (`_invert_in_panel`), and each step's block-sized
    products are freed before the next step's panel search.
    """
    n = system.dimension
    uniforms = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(seed))).random((count, n))
    left_edge, right_edge = _panel_edges(system, box)
    panels = left_edge.size
    cumulants, series = _panel_series(system, left_edge, right_edge)
    # at step 0 every draw has M = I: its edge CDF and its panel's series are
    # one row of the stacked products that later steps take per draw
    eye = np.eye(n).reshape(1, 1, n * n)
    first_cdf = np.matmul(eye, cumulants[:, :, None])[:, 0, 0]
    first_series = np.ascontiguousarray(np.matmul(eye, series)[:, 0].T)
    out = np.empty((count, n))
    mass_dev = inversion = series_gap = 0.0
    for start in range(0, count, DPP_BLOCK):
        u = uniforms[start:start + DPP_BLOCK]
        size = u.shape[0]
        M = np.tile(np.eye(n), (size, 1, 1))
        for k in range(n):
            flat = M.reshape(size, 1, n * n)
            if k == 0:
                def cdf_at(edge):
                    return first_cdf[edge]
            else:
                def cdf_at(edge):
                    return np.matmul(flat, cumulants[edge][:, :, None])[:, 0, 0]
            mass = cdf_at(np.full(size, panels))
            dev = float(np.max(np.abs(mass - (n - k)))) / (n - k)
            mass_dev = max(mass_dev, dev)
            if not dev <= MASS_TOL:
                raise AccuracyError(
                    f"conditional mass at step {k} misses n - k = {n - k} by "
                    f"{dev:.2e} relative (tolerance {MASS_TOL:.0e}); the box "
                    f"[{box[0]:.6g}, {box[1]:.6g}] or its panel quadrature "
                    "misses mass", value=float(mass.min()), achieved=dev)
            target = u[:, k] * mass
            panel, left, right = _find_panels(cdf_at, target, mass, panels)
            if k == 0:
                coef = first_series[:, panel]
            else:
                # each panel's draws times the panel's shared series slab
                coef = np.empty((DPP_NODES, size))
                order = np.argsort(panel, kind="stable")
                for group in np.split(
                        order, np.flatnonzero(np.diff(panel[order])) + 1):
                    coef[:, group] = np.matmul(flat[group],
                                               series[panel[group[0]]])[:, 0].T
            lo, hi = left_edge[panel], right_edge[panel]
            frac = np.divide(target - left, right - left,
                             out=np.full(size, 0.5), where=right > left)
            x, resid, rho = _invert_in_panel(
                coef, lo, hi, lo + np.clip(frac, 0.0, 1.0) * (hi - lo),
                target - left, mass)
            inversion = max(inversion, resid)
            out[start:start + size, k] = x
            phi, psi = (np.ascontiguousarray(v.T) for v in _phi_psi(system, x))
            Mpsi = np.matmul(M, psi[:, :, None])
            phiM = np.matmul(phi[:, None, :], M)
            denom = np.matmul(phiM, psi[:, :, None])[:, 0, 0]
            gap = float(np.max(np.abs(rho - denom) * (hi - lo))) / (n - k)
            series_gap = max(series_gap, gap)
            if not gap <= MASS_TOL:
                raise AccuracyError(
                    f"panel series density at step {k} misses phi^T M psi "
                    f"by {gap:.2e} of n - k = {n - k} per panel width "
                    f"(tolerance {MASS_TOL:.0e}); the panels are too wide "
                    f"for degree {DPP_NODES - 1}", achieved=gap)
            # in place: the same arithmetic without two block-sized temporaries
            update = Mpsi * phiM
            update /= denom[:, None, None]
            M -= update
            # freed before the next panel search rather than when rebound
            del update, Mpsi, phiM, phi, psi, denom, coef, x, rho
    return DppSamples(samples=np.sort(out, axis=1), mass_deviation_max=mass_dev,
                      inversion_residual_max=inversion,
                      series_residual_max=series_gap)


# ---------------------------------------------------------------------------
# Metropolis sampling of the joint density


@dataclass(frozen=True)
class PositionSamples:
    """Draws from the joint density with the chain diagnostics attached."""

    samples: np.ndarray
    acceptance_rate: float
    proposal_scale: np.ndarray
    psrf: tuple[float, ...]
    converged: bool
    seed: int
    chains: int
    burn_in: int
    thinning: int

    @property
    def warning(self) -> bool:
        return not self.converged


def _chain_blocks(seed: int, chains: int, dim: int):
    """Per-chain RNG streams from one seed; each yields (steps, normal
    proposals, uniform thresholds) blocks in lockstep order."""
    streams = [np.random.Generator(np.random.PCG64(s))
               for s in np.random.SeedSequence(seed).spawn(chains)]

    def draw(n_steps: int):
        props = np.stack([g.standard_normal((n_steps, dim)) for g in streams],
                         axis=1)
        us = np.stack([g.uniform(size=n_steps) for g in streams], axis=1)
        return props, us

    return draw


def sample_positions(density: KarlinMcGregorDensity, count: int, seed: int, *,
                     burn_in: int = MCMC_BURN_IN, thinning: int = MCMC_THIN
                     ) -> PositionSamples:
    """Random-walk Metropolis on the symmetrized joint density.

    MCMC_CHAINS chains run in lockstep, one vectorized walk; proposal scales
    adapt per chain during burn-in toward the acceptance window, then freeze.
    Convergence is judged by split-chain potential scale reduction on the
    sorted coordinates (sorting removes the label-switching symmetry).
    """
    n = density.walkers
    cfg = density.config
    t = cfg.time
    means = (1.0 - t) * cfg.flat_starts() + t * cfg.flat_ends()
    sd = cfg.bridge_sd()
    chains = MCMC_CHAINS

    per_chain = -(-count // chains)
    keep_steps = per_chain * thinning
    total_steps = burn_in + keep_steps
    draw = _chain_blocks(seed, chains, n)

    X = means[None, :] + 0.4 * sd * draw(1)[0][0]
    dens = density.density(X)
    scale = np.full(chains, sd, dtype=float)

    kept = np.empty((per_chain, chains, n))
    accepted_tail = 0
    window_acc = np.zeros(chains)
    window_len = 0
    step = 0
    kept_i = 0
    while step < total_steps:
        block = min(512, total_steps - step)
        props, us = draw(block)
        for b in range(block):
            prop = X + scale[:, None] * props[b]
            pdens = density.density(prop)
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = np.where(dens > 0.0, pdens / dens, np.inf)
            take = us[b] < ratio
            X = np.where(take[:, None], prop, X)
            dens = np.where(take, pdens, dens)
            window_acc += take
            window_len += 1
            if step < burn_in:
                if window_len == 200:
                    rate = window_acc / window_len
                    lo, hi = ACCEPTANCE_WINDOW
                    adjust = np.exp(0.6 * (rate - 0.5 * (lo + hi)))
                    scale = np.clip(scale * adjust, 1e-4 * sd, 50.0 * sd)
                    window_acc[:] = 0.0
                    window_len = 0
            else:
                accepted_tail += int(take.sum())
                if (step - burn_in) % thinning == thinning - 1:
                    kept[kept_i] = X
                    kept_i += 1
            step += 1
            if step == burn_in:
                window_acc[:] = 0.0
                window_len = 0

    acc_rate = accepted_tail / (keep_steps * chains)
    psrf = _split_chain_psrf(np.sort(kept, axis=-1))
    samples = kept.reshape(per_chain * chains, n)[:count]
    converged = all(r <= PSRF_LIMIT for r in psrf)
    if not converged:
        warnings.warn(f"position sampler may not have converged: "
                      f"max PSRF {max(psrf):.4f} > {PSRF_LIMIT}")
    return PositionSamples(samples=samples, acceptance_rate=float(acc_rate),
                           proposal_scale=scale, psrf=psrf, converged=converged,
                           seed=int(seed), chains=chains, burn_in=burn_in,
                           thinning=thinning)


def _split_chain_psrf(kept_sorted: np.ndarray) -> tuple[float, ...]:
    """Potential scale reduction per coordinate, each chain split in half."""
    steps, chains, n = kept_sorted.shape
    half = steps // 2
    if half < 2:
        # too few draws to estimate within-segment variance
        return tuple(math.inf for _ in range(n))
    segs = np.concatenate([kept_sorted[:half], kept_sorted[half:2 * half]],
                          axis=1)
    m, length = segs.shape[1], segs.shape[0]
    out = []
    for j in range(n):
        x = segs[:, :, j]
        seg_means = x.mean(axis=0)
        seg_vars = x.var(axis=0, ddof=1)
        W = seg_vars.mean()
        B = length * seg_means.var(ddof=1)
        var_plus = (length - 1) / length * W + B / length
        out.append(float(math.sqrt(var_plus / W)) if W > 0 else math.inf)
    return tuple(out)


# ---------------------------------------------------------------------------
# Bridge simulation with grid non-intersection


@dataclass(frozen=True)
class PathBundles:
    """Accepted bridge bundles on the time grid (bundle, walker, time)."""

    times: np.ndarray
    paths: np.ndarray
    acceptance_rate: float
    attempted: int

    @property
    def count(self) -> int:
        return self.paths.shape[0]


def sample_paths(config: BrownianConfig, time_grid, count: int, seed: int
                 ) -> PathBundles:
    """Independent Brownian bridges kept only when strictly ordered at every
    grid time.  This is a grid approximation of non-intersection: crossings
    between grid times go undetected, so the positions sampler remains the
    authoritative validator.
    """
    if not config.distinct:
        raise ValueError("bridge sampling needs distinct start and end points")
    n = config.walkers
    if n > MAX_PATH_WALKERS:
        raise ValueError(f"at most {MAX_PATH_WALKERS} walkers")
    times = np.asarray(time_grid, dtype=float)
    if times.ndim != 1 or times.size < PATH_MIN_GRID:
        raise ValueError(f"time grid needs at least {PATH_MIN_GRID} points")
    if times[0] != 0.0 or times[-1] != 1.0 or np.any(np.diff(times) <= 0.0):
        raise ValueError("time grid must increase strictly from 0 to 1")

    a = config.flat_starts()
    b = config.flat_ends()
    dts = np.diff(times)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))

    accepted = []
    attempted = got = 0
    # batches of max(64, count) bundles until enough are accepted; the
    # normals come from the stream in the same order at any batch size
    batch = max(64, count)
    while got < count:
        incr = rng.standard_normal((batch, n, dts.size)) * np.sqrt(
            dts / config.n_scale)
        W = np.concatenate([np.zeros((batch, n, 1)), np.cumsum(incr, axis=-1)],
                           axis=-1)
        drift = W[:, :, -1:] - (b - a)[None, :, None]
        paths = a[None, :, None] + W - times[None, None, :] * drift
        ok = np.all(np.diff(paths, axis=1) > 0.0, axis=(1, 2)) if n > 1 \
            else np.ones(batch, dtype=bool)
        attempted += batch
        accepted.append(paths[ok])
        got += accepted[-1].shape[0]
        rate = got / attempted
        if attempted >= 200_000 and rate < PATH_MIN_ACCEPTANCE:
            raise AccuracyError(
                f"bundle acceptance rate {rate:.2e} is below "
                f"{PATH_MIN_ACCEPTANCE:.0e}; starting or ending points are "
                "probably too close together for grid rejection to work")
    paths = np.concatenate(accepted, axis=0)[:count]
    return PathBundles(times=times, paths=paths,
                       acceptance_rate=got / attempted, attempted=attempted)


# ---------------------------------------------------------------------------
# Goodness of fit against the kernel route


def equal_mass_bins(system: BiorthogonalSystem, box: tuple[float, float]
                    ) -> np.ndarray:
    """CHI_SQUARE_BINS bin edges carrying equal r1/n mass, from a
    trapezoid CDF on 4096 points.

    Outer edges are pushed to +-inf so every draw lands in some bin.
    """
    lo, hi = box
    xs = np.linspace(lo, hi, 4096)
    dens = np.maximum(r1_grid(system, xs), 0.0)
    cdf = np.concatenate([[0.0], np.cumsum(
        0.5 * (dens[1:] + dens[:-1]) * np.diff(xs))])
    cdf /= cdf[-1]
    qs = np.arange(1, CHI_SQUARE_BINS) / CHI_SQUARE_BINS
    inner = np.interp(qs, cdf, xs)
    return np.concatenate([[-np.inf], inner, [np.inf]])


def chi_square_report(samples: np.ndarray, system: BiorthogonalSystem,
                      box: tuple[float, float]) -> dict:
    """Chi-squared comparison of pooled sample coordinates against the
    one-point correlation, on equal-mass bins."""
    from scipy.special import chdtrc

    pooled = np.asarray(samples, dtype=float).ravel()
    bins = CHI_SQUARE_BINS
    edges = equal_mass_bins(system, box)
    observed, _ = np.histogram(pooled, bins=edges)
    expected = np.full(bins, pooled.size / bins)
    statistic = float(np.sum((observed - expected) ** 2 / expected))
    dof = bins - 1
    p_value = float(chdtrc(dof, statistic))
    return {
        "bins": bins,
        "points": int(pooled.size),
        "statistic": statistic,
        "degrees_of_freedom": dof,
        "p_value": p_value,
        "observed": observed.tolist(),
        "expected_per_bin": float(pooled.size / bins),
    }


# ---------------------------------------------------------------------------
# CSV writers


def write_density_grid_csv(path: str, xs, r1_values) -> None:
    write_csv(path, ("x", "r1"), np.column_stack([xs, r1_values]))


def write_samples_csv(path: str, samples: np.ndarray) -> None:
    header = tuple(f"x{i + 1}" for i in range(samples.shape[1]))
    write_csv(path, header, samples)


def write_paths_csv(path: str, bundles: PathBundles) -> None:
    """One row per bundle, walker and time point, time fastest.  The table
    is filled in place, column by column, so no column is built apart."""
    count, walkers, steps = bundles.paths.shape
    table = np.empty((count, walkers, steps, 4))
    table[..., 0] = bundles.times
    table[..., 1] = np.arange(walkers)[:, None]
    table[..., 2] = bundles.paths
    table[..., 3] = np.arange(count)[:, None, None]
    write_csv(path, ("time", "path_index", "position", "bundle"),
              table.reshape(-1, 4))
