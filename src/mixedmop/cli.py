"""Command-line front end: JSON config in, CSV/JSON artifacts out.

Every command computes first and writes artifacts only on success, so a
nonzero exit leaves nothing behind except error_report.json.  Reports embed
the resolved configuration and the library version; identical config, seed,
and version produce byte-identical outputs.

Exit codes: 0 success, 1 validation error, 2 numerical failure
(non-normalizable index, degenerate pair, accuracy), 3 internal error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from ._util import dump_json, json_count, json_ready, write_csv
from .brownian import (BrownianConfig, chi_square_report, config_to_weights,
                       correlation_kernel, km_density, r1_grid, sample_paths,
                       sample_projection_dpp, write_paths_csv,
                       write_samples_csv)
from .kernel import (DegeneratePair, build_biorthogonal, build_cd_data,
                     kernel_cd_grid, kernel_direct_grid, kernel_routes_report,
                     relative_discrepancy)
from .mop import (MultiIndexPair, Normalization, NotNormalizable,
                  check_normality, moment_table_for, solve_mixed)
from .rh import (MATRIX_CSV_HEADER, RhSystem, kernel_rh_grid, matrix_rows,
                 rh_verification_report)
from .weights import AccuracyError, adaptive_gauss_legendre, weights_from_json

DEFAULT_SEED = 42
GRID_LIMITS = (2, 2000)
# Upper bounds on brownian-sample's sizes, checked before any work: the
# draws and the path bundles are held in memory until the artifacts are
# written, and each bundle batch holds 4 x count bundles.
SAMPLE_COUNT_LIMIT = 1_000_000
PATH_COUNT_LIMIT = 1_000
PATH_TIME_POINTS_LIMIT = 1_000


class ValidationFailure(ValueError):
    """Configuration or argument problem; maps to exit code 1."""


def _parse_grid(spec: str) -> np.ndarray:
    try:
        lo_s, hi_s, count_s = spec.split(":")
        lo, hi, count = float(lo_s), float(hi_s), int(count_s)
    except ValueError as exc:
        raise ValidationFailure(f"grid must be min:max:count, got {spec!r}") from exc
    if not GRID_LIMITS[0] <= count <= GRID_LIMITS[1]:
        raise ValidationFailure(
            f"grid count must lie in [{GRID_LIMITS[0]}, {GRID_LIMITS[1]}]")
    if not hi > lo:
        raise ValidationFailure("grid max must exceed min")
    return np.linspace(lo, hi, count)


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ValidationFailure(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationFailure(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValidationFailure("config root must be a JSON object")
    return raw


def _multi_index(value, key: str) -> list[int]:
    if not isinstance(value, list) or not value:
        raise ValueError(f"'{key}' must be a nonempty JSON list, got {value!r}")
    return [json_count(v, f"'{key}' entry") for v in value]


def _weight_problem(raw: dict):
    if "n" not in raw or "m" not in raw:
        raise ValidationFailure("config needs multi-indices 'n' and 'm'")
    try:
        w1, w2 = weights_from_json(raw)
        return w1, w2, _multi_index(raw["n"], "n"), _multi_index(raw["m"], "m")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationFailure(f"bad weight problem: {exc}") from exc


def _pair(n, m, relation: str) -> MultiIndexPair:
    try:
        if relation == "defining":
            return MultiIndexPair.defining(n, m)
        return MultiIndexPair.balanced(n, m)
    except ValueError as exc:
        raise ValidationFailure(str(exc)) from exc


def _base_report(args, raw: dict) -> dict:
    return {
        "version": __version__,
        "command": args.command,
        "seed": args.seed,
        "precision": args.precision,
        "config": raw,
    }


# ---------------------------------------------------------------------------
# Command implementations.  Each returns a list of (filename, kind, payload)
# artifacts; nothing touches the filesystem until the run has succeeded.


def cmd_mop_solve(args, raw: dict) -> list:
    w1, w2, n, m = _weight_problem(raw)
    pair = _pair(n, m, "defining")
    norm_raw = raw.get("normalization", {"kind": "II", "index": 0})
    try:
        norm = Normalization(kind=str(norm_raw["kind"]),
                             index=int(norm_raw.get("index", 0)))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationFailure(f"bad normalization: {exc}") from exc
    table = moment_table_for(pair, w1, w2)
    solution = solve_mixed(pair, table, norm, precision=args.precision)
    report = _base_report(args, raw)
    report["solution"] = solution.to_json_dict()
    report["normality"] = check_normality(pair, table).to_json_dict()
    return [("solution.json", "json", report)]


def _kernel_systems(args, w1, w2, pair) -> tuple:
    table = moment_table_for(pair, w1, w2)
    return (build_biorthogonal(pair, w1, w2, table),
            build_cd_data(pair, w1, w2, table, precision=args.precision))


def _balanced_setup(args, raw: dict) -> tuple:
    w1, w2, n, m = _weight_problem(raw)
    return _kernel_systems(args, w1, w2, _pair(n, m, "balanced"))


def _kernel_grid_artifacts(args, raw: dict, system, data, xs: np.ndarray,
                           report_name: str, **extra) -> list:
    """kernel_grid.csv, one row (x, y, K_direct, K_cd, abs_diff) per cell of
    the xs x xs grid with y fastest, and the route report."""
    Kd = kernel_direct_grid(system, xs, xs)
    Kcd = kernel_cd_grid(data, xs, xs)
    report = _base_report(args, raw)
    report.update(kernel_routes_report(system, data, xs, xs), **extra)
    table = np.column_stack([np.repeat(xs, xs.size), np.tile(xs, xs.size),
                             Kd.ravel(), Kcd.ravel(), np.abs(Kd - Kcd).ravel()])
    return [("kernel_grid.csv", "csv",
             (("x", "y", "K_direct", "K_cd", "abs_diff"), table)),
            (report_name, "json", report)]


def cmd_kernel_grid(args, raw: dict) -> list:
    system, data = _balanced_setup(args, raw)
    xs = args.grid if args.grid is not None else np.linspace(-2.0, 2.0, 61)
    return _kernel_grid_artifacts(args, raw, system, data, xs,
                                  "kernel_report.json")


def cmd_cd_check(args, raw: dict) -> list:
    system, data = _balanced_setup(args, raw)
    xs = args.grid if args.grid is not None else np.linspace(-2.0, 2.0, 41)
    Krh = kernel_rh_grid(data, xs, xs)
    report = _base_report(args, raw)
    report.update(kernel_routes_report(system, data, xs, xs, rh_grid=Krh))
    tol = args.tol if args.tol is not None else 1e-7
    report["tolerance"] = tol
    report["passed"] = {
        "direct_vs_cd": report["direct_vs_cd"] < tol,
        "direct_vs_rh": report["direct_vs_rh"] < tol,
        "cd_vs_rh": report["cd_vs_rh"] < tol,
    }
    return [("cd_report.json", "json", report)]


def cmd_rh_verify(args, raw: dict) -> list:
    w1, w2, n, m = _weight_problem(raw)
    pair = _pair(n, m, "balanced")
    system = RhSystem(pair, w1, w2, precision=args.precision)
    tol = args.tol if args.tol is not None else 1e-7
    report = _base_report(args, raw)
    report.update(rh_verification_report(system, seed=args.seed, tol=tol))
    z0 = complex(report["z_points"][0]["re"], report["z_points"][0]["im"])
    Y0, _ = system.y_matrix(z0)
    return [("rh_report.json", "json", report),
            ("y_matrix.csv", "csv", (MATRIX_CSV_HEADER, matrix_rows(Y0)))]


def _brownian_config(raw: dict) -> BrownianConfig:
    try:
        return BrownianConfig.from_json_dict(raw)
    except ValueError as exc:
        raise ValidationFailure(str(exc)) from exc


def cmd_brownian_kernel(args, raw: dict) -> list:
    config = _brownian_config(raw)
    system, data = _kernel_systems(args, *config_to_weights(config))
    xs = args.grid if args.grid is not None else np.linspace(*config.bridge_box(), 61)
    return _kernel_grid_artifacts(args, raw, system, data, xs,
                                  "brownian_kernel_report.json",
                                  walkers=config.walkers)


def cmd_brownian_density(args, raw: dict) -> list:
    config = _brownian_config(raw)
    system = correlation_kernel(config)
    lo, hi = config.bridge_box()
    xs = args.grid if args.grid is not None else np.linspace(lo, hi, 201)
    r1 = r1_grid(system, xs)
    integral, _ = adaptive_gauss_legendre(
        lambda t: r1_grid(system, t), lo, hi, abs_tol=1e-9)
    report = _base_report(args, raw)
    report["walkers"] = config.walkers
    report["r1_integral"] = float(integral)
    report["r1_integral_deviation"] = abs(float(integral) - config.walkers)
    if config.distinct and config.walkers <= 4:
        dens = km_density(config)
        report["z_n"] = dens.z_n
        report["z_n_quadrature_accuracy"] = dens.z_n_accuracy
        report["z_n_gram_route"] = dens.z_n_gram
        report["z_n_route_gap"] = abs(dens.z_n - dens.z_n_gram) / abs(dens.z_n)
    return [("density.csv", "csv", (("x", "r1"), np.column_stack([xs, r1]))),
            ("brownian_density_report.json", "json", report)]


def _bounded_count(value, what: str, limit: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int) \
            or not 1 <= value <= limit:
        raise ValidationFailure(
            f"{what} must be an integer in [1, {limit}], got {value!r}")
    return value


def _section(raw: dict, key: str) -> dict | None:
    value = raw.get(key)
    if value is not None and not isinstance(value, dict):
        raise ValidationFailure(f"'{key}' must be a JSON object")
    return value


def cmd_brownian_sample(args, raw: dict) -> list:
    config = _brownian_config(raw)
    if not (config.distinct and config.walkers <= 4):
        raise ValidationFailure("sampling needs distinct points and at most "
                                "4 walkers")
    sampling = _section(raw, "sampling") or {}
    count = _bounded_count(sampling.get("count", 10_000), "sampling count",
                           SAMPLE_COUNT_LIMIT)
    paths_cfg = _section(raw, "paths")
    if paths_cfg is not None:
        n_paths = _bounded_count(paths_cfg.get("count", 50), "paths count",
                                 PATH_COUNT_LIMIT)
        n_times = _bounded_count(paths_cfg.get("time_points", 128),
                                 "paths time_points", PATH_TIME_POINTS_LIMIT)
    system = correlation_kernel(config)
    box = config.bridge_box()
    draws = sample_projection_dpp(system, box, count, args.seed)
    report = _base_report(args, raw)
    report["walkers"] = config.walkers
    report["count"] = count
    report["sampler"] = "exact chain-rule projection DPP"
    report["mass_deviation_max"] = draws.mass_deviation_max
    report["inversion_residual_max"] = draws.inversion_residual_max
    report["chi_square_vs_r1"] = chi_square_report(draws.samples, system, box)
    artifacts = [("samples.csv", "samples", draws.samples)]
    if paths_cfg is not None:
        grid = np.linspace(0.0, 1.0, n_times)
        try:
            bundles = sample_paths(config, grid, n_paths, args.seed + 1)
        except ValueError as exc:
            raise ValidationFailure(str(exc)) from exc
        report["paths"] = {
            "count": bundles.count,
            "time_points": n_times,
            "acceptance_rate": bundles.acceptance_rate,
            "attempted": bundles.attempted,
            "grid_approximation": "non-intersection enforced at grid times "
                                  "only; crossings between grid times are "
                                  "not detected",
        }
        artifacts.append(("paths.csv", "paths", bundles))
    artifacts.append(("sampling_report.json", "json", report))
    return artifacts


COMMANDS = {
    "mop-solve": cmd_mop_solve,
    "kernel-grid": cmd_kernel_grid,
    "cd-check": cmd_cd_check,
    "rh-verify": cmd_rh_verify,
    "brownian-kernel": cmd_brownian_kernel,
    "brownian-density": cmd_brownian_density,
    "brownian-sample": cmd_brownian_sample,
}


def _write_artifacts(out_dir: str, artifacts: list) -> None:
    os.makedirs(out_dir, exist_ok=True)
    for name, kind, payload in artifacts:
        path = os.path.join(out_dir, name)
        if kind == "json":
            dump_json(path, payload)
        elif kind == "csv":
            header, rows = payload
            write_csv(path, header, rows)
        elif kind == "samples":
            write_samples_csv(path, payload)
        elif kind == "paths":
            write_paths_csv(path, payload)
        else:
            raise RuntimeError(f"unknown artifact kind {kind}")


def _fail(out_dir: str, code: int, label: str, message: str,
          detail: dict | None = None) -> int:
    flat = " ".join(str(message).split())
    print(f"{label}: {flat}", file=sys.stderr)
    try:
        os.makedirs(out_dir, exist_ok=True)
        dump_json(os.path.join(out_dir, "error_report.json"), {
            "error": label,
            "message": str(message),
            "detail": json_ready(detail) if detail else None,
            "version": __version__,
        })
    except OSError:
        pass
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mixedmop",
        description="Mixed-type multiple orthogonal polynomials, projection "
                    "kernels, and non-intersecting Brownian motions")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="input JSON path")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--grid", default=None, help="grid as min:max:count")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--tol", type=float, default=None)
    parser.add_argument("--precision", choices=("double", "extended"),
                        default="double")
    return parser


def _join_grid_value(argv: list[str]) -> list[str]:
    """Rewrite ['--grid', '-2:2:11'] as ['--grid=-2:2:11'] so a negative
    grid minimum is not mistaken for a flag."""
    out = []
    i = 0
    while i < len(argv):
        if argv[i] == "--grid" and i + 1 < len(argv):
            out.append(f"--grid={argv[i + 1]}")
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_join_grid_value(list(argv)))
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    out_dir = args.out
    try:
        if args.tol is not None and not args.tol > 0.0:
            raise ValidationFailure("tolerance must be positive")
        if args.seed < 0:
            raise ValidationFailure("seed must be nonnegative")
        args.grid = _parse_grid(args.grid) if args.grid is not None else None
        raw = _load_config(args.config)
        artifacts = COMMANDS[args.command](args, raw)
        _write_artifacts(out_dir, artifacts)
        return 0
    except ValidationFailure as exc:
        return _fail(out_dir, 1, "VALIDATION", str(exc))
    except NotNormalizable as exc:
        detail = {"normality": exc.report.to_json_dict()} if exc.report else None
        return _fail(out_dir, 2, "NUMERICAL", str(exc), detail)
    except DegeneratePair as exc:
        detail = {"normality": exc.report.to_json_dict()} if exc.report else None
        return _fail(out_dir, 2, "NUMERICAL", str(exc), detail)
    except AccuracyError as exc:
        return _fail(out_dir, 2, "NUMERICAL", str(exc),
                     {"achieved": exc.achieved})
    except Exception as exc:  # noqa: BLE001 - the exit-code contract
        return _fail(out_dir, 3, "INTERNAL", f"{type(exc).__name__}: {exc}")


if __name__ == "__main__":
    sys.exit(main())
