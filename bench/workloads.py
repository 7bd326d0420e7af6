"""The four workloads: seeded inputs, the CLI operations of one pass, and the
checks of their artifacts against the references in ``oracles``.

A seed moves weight centres, variances, Brownian points and grid ends by a
few percent and picks the families of the solve sweep and the cells that are
checked.  Sizes (grid counts, draw counts, multi-indices) do not depend on
the seed, so every seed asks for the same amount of work.  The known faults
use fixed inputs, so they fail on every seed.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import oracles

# Reference configurations (ROADMAP "Baseline").
WP = {"w1": [(-0.5, 0.8), (0.6, 1.2)], "w2": [(0.0, 1.0), (0.3, 0.6)]}
P3 = {"w1": [(-0.8, 0.7), (0.1, 1.1), (0.9, 0.9)],
      "w2": [(-0.4, 1.0), (0.3, 0.6), (0.7, 1.3)]}
BR = {"starts": (-1.0, 0.0, 1.0), "ends": (-1.0, 0.5, 1.0), "t": 0.5,
      "count": 4_000}
TWO_WALKERS = {"starts": (-0.6, 0.5), "ends": (-0.4, 0.8), "t": 0.4,
               "count": 1_000}
PATHS = {"count": 50, "time_points": 128}

GRID_POINTS = 200          # grid-export: x = y grids of 200 points per side
CHECKED_CELLS = 40         # seeded cells compared with the Gram-solve kernel
HERMITE_DEGREES = range(1, 13)
HERMITE_FAULT_DEGREE = 11  # degree >= 11 is reported singular (known fault)
TWO_START_WALKERS = range(1, 6)
TWO_START_FAULT = 5        # 5 + 5 walkers is reported singular (known fault)
SWEEP_SHAPES = (           # (n, m, normalization kind, index); |n| = |m| + 1
    ([2], [1], "II", 0), ([3], [2], "I", 0), ([4], [3], "II", 0), ([5], [4], "I", 0),
    ([2, 1], [2], "II", 0), ([2, 2], [3], "I", 0), ([3, 2], [4], "II", 1),
    ([3], [1, 1], "I", 1), ([4], [2, 1], "II", 0), ([5], [2, 2], "I", 0),
    ([2, 2], [2, 1], "II", 1), ([3, 2], [2, 2], "I", 0),
    ([2, 3], [2, 2], "II", 1), ([3, 3], [3, 2], "I", 1),
)

# Tolerances, fixed before measuring.  Kernel cells: the Gram reference
# carries quad error times the Gram condition number.  RH: the program
# certifies det Y = 1 to 1e-7 and its panel quadrature targets 1e-11.
KERNEL_TOL = 1e-12       # times max(cond(B), 1), relative to 1 + |K|
DET_TOL = 1e-7
CAUCHY_TOL = 1e-8        # relative to 1 + |Y|
RESIDUAL_TOL = 1e-9
HERMITE_TOL = 1e-9       # relative to the largest coefficient
COM_SIGMAS = 3.0


@dataclass(frozen=True)
class Op:
    """One CLI invocation.  ``role`` is "main" or "side" (the workload's two
    commands) or "fault" (a known fault, expected to exit 2).  Copies of one
    invocation share a ``group`` and their times are pooled."""

    key: str
    command: str
    config: dict
    role: str
    grid: str | None = None
    seed: int = 42
    group: str | None = None

    def argv(self, config_dir: str, out_dir: str) -> list[str]:
        argv = [self.command, "--config", os.path.join(config_dir, self.key + ".json"),
                "--out", os.path.join(out_dir, self.key), "--seed", str(self.seed)]
        if self.grid is not None:
            argv += ["--grid", self.grid]
        return argv


@dataclass
class Workload:
    name: str
    main_command: str
    side_command: str
    ops: list[Op]
    warmup: list[str]
    determinism: str
    check: Callable[[str], list[tuple[str, bool, str]]] = field(repr=False)

    def write_inputs(self, config_dir: str) -> None:
        os.makedirs(config_dir, exist_ok=True)
        for op in self.ops:
            with open(os.path.join(config_dir, op.key + ".json"), "w") as fh:
                json.dump(op.config, fh, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# Seeded inputs


def _family(pairs, rng, shift=0.03, stretch=0.02):
    return [{"kind": "gaussian",
             "center": c + float(rng.uniform(-shift, shift)),
             "variance": v * (1.0 + float(rng.uniform(-stretch, stretch))),
             "amplitude": 1.0} for c, v in pairs]


def _weight_problem(base, n, m, rng, **extra):
    return {"w1": _family(base["w1"], rng), "w2": _family(base["w2"], rng),
            "n": list(n), "m": list(m), **extra}


def _brownian(base, rng, *, sampling=True):
    jit = lambda pts: [[p + float(rng.uniform(-0.03, 0.03)), 1] for p in pts]
    cfg = {"starts": jit(base["starts"]), "ends": jit(base["ends"]),
           "t": base["t"] + float(rng.uniform(-0.02, 0.02)), "n_scaling": True}
    if sampling:
        cfg["sampling"] = {"count": base["count"]}
        cfg["paths"] = dict(PATHS)
    return cfg


def _grid(rng, half_width):
    lo = -half_width + float(rng.uniform(-0.05, 0.05))
    hi = half_width + float(rng.uniform(-0.05, 0.05))
    return f"{lo!r}:{hi!r}:{GRID_POINTS}"


def _hermite_config(degree):
    w = {"kind": "gaussian", "center": 0.0, "variance": 1.0, "amplitude": 1.0}
    return {"w1": [w], "w2": [w], "n": [degree + 1], "m": [degree],
            "normalization": {"kind": "II", "index": 0}}


def _two_start_config(k):
    return {"starts": [[-1.0, k], [1.0, k]], "ends": [[0.0, 2 * k]], "t": 0.5,
            "n_scaling": True}


def _sweep_family(count, rng):
    """Gaussian weights with centres in disjoint windows, so no two weights
    of one side come close to coinciding."""
    windows = [(-0.5, 0.5)] if count == 1 else [(-1.0, -0.3), (0.3, 1.0)]
    return [{"kind": "gaussian", "center": float(rng.uniform(*w)),
             "variance": float(rng.uniform(0.6, 1.4)), "amplitude": 1.0}
            for w in windows]


def build(name: str, seed: int) -> Workload:
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    return CONSTRUCTORS[name](rng, seed)


def _grid_export(rng, seed):
    ops = [Op("kg-wp", "kernel-grid", _weight_problem(WP, [3, 2], [2, 3], rng),
              "main", grid=_grid(rng, 3.0)),
           Op("bk-br", "brownian-kernel", _brownian(BR, rng, sampling=False),
              "side", grid=_grid(rng, 3.0))]
    cells = rng.integers(0, GRID_POINTS, size=(CHECKED_CELLS, 2))
    return Workload("grid-export", "kernel-grid", "brownian-kernel", ops,
                    warmup=["kg-wp", "bk-br"], determinism="bk-br",
                    check=lambda out: _check_grid_export(ops, cells, out))


def _certify(rng, seed):
    cd_wp = _weight_problem(WP, [3, 2], [2, 3], rng)
    cd_p3 = _weight_problem(P3, [2, 2, 2], [2, 2, 2], rng)
    rh_wp = Op("rh-wp", "rh-verify", _weight_problem(WP, [3, 2], [2, 3], rng), "main")
    rh_p3 = Op("rh-p3", "rh-verify", _weight_problem(P3, [2, 2, 2], [2, 2, 2], rng), "main")
    # cd-check takes milliseconds against seconds for rh-verify; six copies
    # spread through the pass give side_cmd_s more samples of the host's
    # varying speed.
    cd = lambda i: [Op(f"cd-wp-{i}", "cd-check", cd_wp, "side", group="cd-wp"),
                    Op(f"cd-p3-{i}", "cd-check", cd_p3, "side", group="cd-p3")]
    ops = cd(1) + cd(2) + [rh_wp] + cd(3) + cd(4) + [rh_p3] + cd(5) + cd(6)
    return Workload("certify", "rh-verify", "cd-check", ops,
                    warmup=["cd-wp-1", "cd-p3-1", "rh-wp"], determinism="rh-wp",
                    check=lambda out: _check_certify(ops, out))


def _sample(rng, seed):
    br, two = _brownian(BR, rng), _brownian(TWO_WALKERS, rng)
    # brownian-density takes tens of milliseconds against seconds for
    # brownian-sample; four copies spread through the pass give side_cmd_s
    # more samples of the host's varying speed.
    bd = lambda i: [Op(f"bd-br-{i}", "brownian-density", br, "side", group="bd-br"),
                    Op(f"bd-two-{i}", "brownian-density", two, "side", group="bd-two")]
    ops = (bd(1) + [Op("bs-br", "brownian-sample", br, "main", seed=seed)] + bd(2) + bd(3)
           + [Op("bs-two", "brownian-sample", two, "main", seed=seed + 1)] + bd(4))
    return Workload("sample", "brownian-sample", "brownian-density", ops,
                    warmup=["bd-two-1", "bs-two"], determinism="bs-two",
                    check=lambda out: _check_sample(ops, out))


def _solve_sweep(rng, seed):
    ops = []
    for i, (n, m, kind, index) in enumerate(SWEEP_SHAPES):
        cfg = {"w1": _sweep_family(len(n), rng), "w2": _sweep_family(len(m), rng),
               "n": n, "m": m, "normalization": {"kind": kind, "index": index}}
        ops.append(Op(f"ms-{i:02d}", "mop-solve", cfg, "main"))
    ops.append(Op("ms-wp", "mop-solve", _weight_problem(
        WP, [3, 3], [2, 3], rng, normalization={"kind": "II", "index": 0}), "main"))
    for d in HERMITE_DEGREES:
        role = "fault" if d >= HERMITE_FAULT_DEGREE else "main"
        ops.append(Op(f"herm-{d:02d}", "mop-solve", _hermite_config(d), role))
    for k in TWO_START_WALKERS:
        role = "fault" if k >= TWO_START_FAULT else "side"
        ops.append(Op(f"bk-{k}", "brownian-kernel", _two_start_config(k), role,
                      grid="-2:2:41"))
    return Workload("solve-sweep", "mop-solve", "brownian-kernel", ops,
                    warmup=[op.key for op in ops], determinism="bk-4",
                    check=lambda out: _check_solve_sweep(ops, out))


CONSTRUCTORS = {"grid-export": _grid_export, "certify": _certify,
            "sample": _sample, "solve-sweep": _solve_sweep}
WORKLOADS = list(CONSTRUCTORS)


# ---------------------------------------------------------------------------
# Checks


def _load(out, key, name):
    with open(os.path.join(out, key, name)) as fh:
        return json.load(fh)


def _csv(out, key, name):
    return np.loadtxt(os.path.join(out, key, name), delimiter=",", skiprows=1,
                      ndmin=2)


def _grid_values(spec):
    lo, hi, count = spec.split(":")
    return np.linspace(float(lo), float(hi), int(count))


def _brownian_weights(cfg):
    starts = [a for a, k in cfg["starts"] for _ in range(int(k))]
    ends = [b for b, k in cfg["ends"] for _ in range(int(k))]
    n_scale = len(starts) if cfg.get("n_scaling", True) else 1
    w1 = oracles.transition_triples([a for a, _ in cfg["starts"]], cfg["t"], n_scale)
    w2 = oracles.transition_triples([b for b, _ in cfg["ends"]], 1.0 - cfg["t"], n_scale)
    n = [int(k) for _, k in cfg["starts"]]
    m = [int(k) for _, k in cfg["ends"]]
    return w1, w2, n, m, starts, ends, n_scale


def _check_kernel_csv(op, cells, out, w1, w2, n, m):
    data = _csv(out, op.key, "kernel_grid.csv")
    xs = _grid_values(op.grid)
    N = xs.size
    label = f"{op.key}: kernel_grid.csv"
    if data.shape != (N * N, 5):
        return [(label, False, f"shape {data.shape}, expected {(N * N, 5)}")]
    layout_ok = (np.array_equal(data[:, 0], np.repeat(xs, N))
                 and np.array_equal(data[:, 1], np.tile(xs, N))
                 and np.array_equal(data[:, 4], np.abs(data[:, 2] - data[:, 3])))
    ref = oracles.GramKernel(w1, w2, n, m)
    rows = cells[:, 0] * N + cells[:, 1]
    want = ref.values(xs[cells[:, 0]], xs[cells[:, 1]])
    tol = KERNEL_TOL * max(ref.condition, 1.0)
    errs = [float(np.max(np.abs(data[rows, col] - want) / (1.0 + np.abs(want))))
            for col in (2, 3)]
    return [(label + " layout", layout_ok, "x, y, abs_diff columns"),
            (label + " cells vs Gram solve", max(errs) <= tol,
             f"direct {errs[0]:.2e}, cd {errs[1]:.2e}, tol {tol:.2e}")]


def _check_grid_export(ops, cells, out):
    kg, bk = ops
    w1 = oracles.weight_triples(kg.config["w1"])
    w2 = oracles.weight_triples(kg.config["w2"])
    results = _check_kernel_csv(kg, cells, out, w1, w2, kg.config["n"], kg.config["m"])
    bw1, bw2, n, m, *_ = _brownian_weights(bk.config)
    return results + _check_kernel_csv(bk, cells, out, bw1, bw2, n, m)


def _check_certify(ops, out):
    results = []
    for op in ops:
        if op.command == "cd-check":
            rep = _load(out, op.key, "cd_report.json")
            results.append((f"{op.key}: routes agree", all(rep["passed"].values()),
                            f"direct_vs_cd {rep['direct_vs_cd']:.2e}, "
                            f"cd_vs_rh {rep['cd_vs_rh']:.2e}"))
            continue
        rep = _load(out, op.key, "rh_report.json")
        # The inverse-transpose certificate is left out: it compares
        # max|X^T Y - I| with an absolute 1e-7 while |X| |Y| reaches 1e6 and
        # more, so it reads false on these configurations (see CHANGES.md).
        certs = ("det", "jump", "asymptotics")
        results.append((f"{op.key}: certificates", all(rep["passed"][c] for c in certs),
                        f"{json.dumps(rep['passed'], sort_keys=True)}, "
                        f"x_y_max {rep['x_y_max']:.2e}"))
        cells = _csv(out, op.key, "y_matrix.csv")
        size = int(cells[:, 0].max()) + 1
        Y = np.zeros((size, size), dtype=complex)
        Y[cells[:, 0].astype(int), cells[:, 1].astype(int)] = cells[:, 2] + 1j * cells[:, 3]
        det_err = abs(np.linalg.det(Y) - 1.0)
        results.append((f"{op.key}: det Y = 1", det_err <= DET_TOL, f"{det_err:.2e}"))
        z0 = complex(rep["z_points"][0]["re"], rep["z_points"][0]["im"])
        w1 = oracles.weight_triples(op.config["w1"])
        w2 = oracles.weight_triples(op.config["w2"])
        p = len(w1)
        col = oracles.y_cauchy_column(w1, w2, op.config["n"], op.config["m"], z0)
        err = float(np.max(np.abs(Y[:, p] - col) / (1.0 + np.abs(col))))
        results.append((f"{op.key}: Cauchy column vs Faddeeva", err <= CAUCHY_TOL,
                        f"{err:.2e}"))
    return results


def _check_sample(ops, out):
    results = []
    for op in ops:
        if op.command != "brownian-sample":
            continue
        _, _, _, _, starts, ends, n_scale = _brownian_weights(op.config)
        samples = _csv(out, op.key, "samples.csv")
        mean, _ = oracles.centre_of_mass_law(starts, ends, op.config["t"], n_scale)
        z = oracles.batch_means_z(samples.mean(axis=1), mean)
        results.append((f"{op.key}: centre of mass", abs(z) <= COM_SIGMAS
                        and samples.shape == (op.config["sampling"]["count"], len(starts)),
                        f"z = {z:+.2f} batch-means SE, {samples.shape[0]} draws"))
        rows = _csv(out, op.key, "paths.csv")  # time, path_index, position, bundle
        walkers, times = len(starts), op.config["paths"]["time_points"]
        bundles = rows.shape[0] // (walkers * times)
        paths = rows[:, 2].reshape(bundles, walkers, times)
        ordered = bool(np.all(np.diff(paths, axis=1) > 0.0))
        pinned = (np.allclose(paths[:, :, 0], starts, rtol=0, atol=1e-12)
                  and np.allclose(paths[:, :, -1], ends, rtol=0, atol=1e-12))
        results.append((f"{op.key}: path bundles ordered and pinned",
                        ordered and pinned and bundles == op.config["paths"]["count"],
                        f"{bundles} bundles, ordered {ordered}, pinned {pinned}"))
    return results


def _check_solve_sweep(ops, out):
    results = []
    for op in ops:
        if op.command != "mop-solve" or op.role == "fault":
            continue
        coeffs = [np.array(c) for c in
                  _load(out, op.key, "solution.json")["solution"]["coefficients_original"]]
        if op.key.startswith("herm"):
            want = oracles.monic_hermite(op.config["m"][0])
            err = float(np.max(np.abs(coeffs[0] - want)) / np.max(np.abs(want)))
            results.append((f"{op.key}: monic Hermite", err <= HERMITE_TOL, f"{err:.2e}"))
            continue
        cfg = op.config
        w1, w2 = oracles.weight_triples(cfg["w1"]), oracles.weight_triples(cfg["w2"])
        resid = oracles.orthogonality_residual(coeffs, w1, w2, cfg["m"])
        norm = cfg["normalization"]
        if norm["kind"] == "II":
            norm_err = abs(coeffs[norm["index"]][-1] - 1.0)
        else:
            norm_err = abs(oracles.type1_normalization(coeffs, w1, w2, cfg["m"],
                                                       norm["index"]) - 1.0)
        results.append((f"{op.key}: orthogonality and normalization",
                        resid <= RESIDUAL_TOL and norm_err <= RESIDUAL_TOL,
                        f"residual {resid:.2e}, normalization {norm_err:.2e}"))
    return results
