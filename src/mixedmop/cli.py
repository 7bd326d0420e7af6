"""Command-line front end: JSON config in, CSV/JSON artifacts out.

Every command computes first and writes artifacts only on success, so a
nonzero exit leaves nothing of the command behind except error_report.json.
Before it writes its artifacts or its error report, a run removes from --out
every file name its command can write (ARTIFACTS) and error_report.json, so
a rerun into a used --out keeps nothing stale.  A name two commands share
(kernel_grid.csv, written by kernel-grid and brownian-kernel) is removed by
a run of either.  Each artifact is written to a new file
(``_util.new_file``), so a file or symbolic link already at its path is
replaced, never written through; this needs write permission on --out
itself, not only on the old file.
Reports embed the resolved configuration and the library version; identical
config, seed, and version produce byte-identical outputs.

The argument parser is built once per process: repeated in-process calls of
``main`` reuse it.

Exit codes: 0 success, 1 validation error, 2 numerical failure
(non-normalizable index, degenerate pair, accuracy), 3 internal error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import __version__
from ._util import dump_json, json_count, known_keys, remove_file, write_csv
from .brownian import (MAX_PATH_WALKERS, PATH_MIN_GRID, BrownianConfig,
                       chi_square_report, config_to_weights, correlation_kernel,
                       gram_normalization, r1_box_integral, r1_grid,
                       sample_paths, sample_projection_dpp,
                       write_density_grid_csv, write_paths_csv,
                       write_samples_csv)
from .kernel import (build_biorthogonal, build_cd_data, kernel_cd_grid,
                     kernel_direct_grid, kernel_routes_report)
from .mop import (MultiIndexPair, Normalization, NotNormalizable,
                  check_normality, moment_table_for, solve_mixed)
from .rh import (MATRIX_CSV_HEADER, RhSystem, kernel_cd_rh_grids, matrix_rows,
                 rh_verification_report)
from .weights import AccuracyError, basis_center_scale, weights_from_json

DEFAULT_SEED = 42
# The --tol default of cd-check and rh-verify.
DEFAULT_TOL = 1e-7
GRID_LIMITS = (2, 2000)
# Upper bounds on brownian-sample's sizes, checked before any work: the
# draws and the path bundles are held in memory until the artifacts are
# written, and each bundle batch holds max(64, count) bundles.
SAMPLE_COUNT_LIMIT = 1_000_000
PATH_COUNT_LIMIT = 1_000
PATH_TIME_POINTS_LIMIT = 1_000
# Upper bound on |n|, the degree budget of a weight problem or the walker
# count of a Brownian config, checked before any array is built.
INDEX_SIZE_LIMIT = 256
# The commands that read each optional argument; the others refuse it.
OPTION_READERS = {
    "grid": ("kernel-grid", "cd-check", "brownian-kernel", "brownian-density"),
    "tol": ("cd-check", "rh-verify"),
}
# The keys each config object may carry (weight entries: WEIGHT_KEYS); any
# other key is refused.  Every Brownian command accepts the whole set.
CONFIG_KEYS = {
    "the weight-problem config": ("w1", "w2", "n", "m", "normalization"),
    "the brownian config": ("starts", "ends", "t", "n_scaling", "sampling",
                            "paths"),
    "'normalization'": ("kind", "index"),
    "'sampling'": ("count",),
    "'paths'": ("count", "time_points"),
}


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
    if not math.isfinite(hi - lo):
        raise ValidationFailure("grid bounds and their span must be finite")
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


def _known_keys(obj: dict, what: str) -> None:
    try:
        known_keys(obj, CONFIG_KEYS[what], what)
    except ValueError as exc:
        raise ValidationFailure(str(exc)) from exc


def _section(raw: dict, key: str) -> dict | None:
    """raw[key] if present: a JSON object with only the keys it may carry."""
    value = raw.get(key)
    if value is not None:
        if not isinstance(value, dict):
            raise ValidationFailure(f"'{key}' must be a JSON object")
        _known_keys(value, f"'{key}'")
    return value


def _weight_problem(raw: dict):
    _known_keys(raw, "the weight-problem config")
    _section(raw, "normalization")
    if "n" not in raw or "m" not in raw:
        raise ValidationFailure("config needs multi-indices 'n' and 'm'")
    try:
        w1, w2 = weights_from_json(raw)
        n, m = _multi_index(raw["n"], "n"), _multi_index(raw["m"], "m")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationFailure(f"bad weight problem: {exc}") from exc
    if len(n) != len(w1) or len(m) != len(w2):
        raise ValidationFailure(
            f"'n' has {len(n)} part(s) for {len(w1)} 'w1' weight(s) and 'm' "
            f"{len(m)} for {len(w2)} 'w2' weight(s): need one part per weight")
    if sum(n) > INDEX_SIZE_LIMIT:
        raise ValidationFailure(
            f"|n| = {sum(n)} exceeds the size limit {INDEX_SIZE_LIMIT}")
    return w1, w2, n, m


def _pair(n, m, relation: str) -> MultiIndexPair:
    try:
        if relation == "defining":
            return MultiIndexPair.defining(n, m)
        return MultiIndexPair.balanced(n, m)
    except ValueError as exc:
        raise ValidationFailure(str(exc)) from exc


def _base_report(args, raw: dict, precision: str) -> dict:
    return {
        "version": __version__,
        "command": args.command,
        "seed": args.seed,
        "precision": precision,
        "config": raw,
    }


# ---------------------------------------------------------------------------
# Command implementations.  Each returns a list of (filename, writer,
# *payload) artifacts, the writer looked up here when the command runs;
# nothing touches the filesystem until the run has succeeded.


def cmd_mop_solve(args, raw: dict) -> list:
    w1, w2, n, m = _weight_problem(raw)
    pair = _pair(n, m, "defining")
    norm_raw = _section(raw, "normalization") or {"kind": "II"}
    try:
        norm = Normalization(kind=norm_raw.get("kind"), index=json_count(
            norm_raw.get("index", 0), "normalization index", minimum=0))
        if norm.index >= len(pair.n if norm.kind == "II" else pair.m):
            raise ValueError(f"type {norm.kind} index {norm.index} is out of "
                             "range")
    except ValueError as exc:
        raise ValidationFailure(f"bad normalization: {exc}") from exc
    table = moment_table_for(pair, w1, w2)
    solution = solve_mixed(pair, table, norm)
    report = _base_report(args, raw, solution.precision)
    report["solution"] = solution.to_json_dict()
    report["normality"] = check_normality(pair, table).to_json_dict()
    return [("solution.json", dump_json, report)]


def _kernel_systems(w1, w2, pair) -> tuple:
    table = moment_table_for(pair, w1, w2)
    return (build_biorthogonal(pair, w1, w2, table),
            build_cd_data(pair, w1, w2, table))


def _balanced_setup(raw: dict) -> tuple:
    w1, w2, n, m = _weight_problem(raw)
    return _kernel_systems(w1, w2, _pair(n, m, "balanced"))


def _refuse_nonfinite(xs: np.ndarray, **routes: np.ndarray) -> None:
    """AccuracyError naming the grid and its first (x, y) in row order where
    a route's kernel is not finite, so that no artifact is written."""
    finite = np.logical_and.reduce([np.isfinite(K) for K in routes.values()])
    if finite.all():
        return
    i, j = np.unravel_index(np.argmin(finite), finite.shape)
    names = [name for name, K in routes.items() if not np.isfinite(K[i, j])]
    grid = ":".join(repr(float(v)) for v in (xs[0], xs[-1])) + f":{xs.size}"
    raise AccuracyError(
        f"{', '.join(names)} not finite at (x, y) = ({float(xs[i])!r}, "
        f"{float(xs[j])!r}) on the grid {grid}")


def _kernel_grid_artifacts(args, raw: dict, system, data, xs: np.ndarray,
                           report_name: str, **extra) -> list:
    """kernel_grid.csv, one row (x, y, K_direct, K_cd, abs_diff) per cell of
    the xs x xs grid with y fastest, and the route report.  The table is
    filled in place, column by column, so no column is built apart."""
    Kd = kernel_direct_grid(system, xs, xs)
    Kcd = kernel_cd_grid(data, xs, xs)
    _refuse_nonfinite(xs, K_direct=Kd, K_cd=Kcd)
    report = _base_report(args, raw, data.precision)
    report.update(kernel_routes_report(system, data, xs, xs, Kd, Kcd), **extra)
    table = np.empty((xs.size, xs.size, 5))
    table[..., 0], table[..., 1] = xs[:, None], xs
    table[..., 2], table[..., 3] = Kd, Kcd
    diff = np.subtract(Kd, Kcd, out=table[..., 4])
    np.abs(diff, out=diff)
    return [("kernel_grid.csv", write_csv,
             ("x", "y", "K_direct", "K_cd", "abs_diff"), table.reshape(-1, 5)),
            (report_name, dump_json, report)]


def _family_grid(args, system, count: int) -> np.ndarray:
    """--grid, or count points on c +- 2 s, the basis centre and scale of
    the two families (`basis_center_scale`)."""
    if args.grid is not None:
        return args.grid
    c, s = basis_center_scale(system.w1, system.w2)
    return np.linspace(c - 2.0 * s, c + 2.0 * s, count)


def cmd_kernel_grid(args, raw: dict) -> list:
    system, data = _balanced_setup(raw)
    xs = _family_grid(args, system, 61)
    return _kernel_grid_artifacts(args, raw, system, data, xs,
                                  "kernel_report.json")


def cmd_cd_check(args, raw: dict) -> list:
    system, data = _balanced_setup(raw)
    xs = _family_grid(args, system, 41)
    Kd = kernel_direct_grid(system, xs, xs)
    Kcd, Krh = kernel_cd_rh_grids(data, xs, xs)
    _refuse_nonfinite(xs, K_direct=Kd, K_cd=Kcd, K_rh=Krh)
    report = _base_report(args, raw, data.precision)
    report.update(kernel_routes_report(system, data, xs, xs, Kd, Kcd,
                                       rh_grid=Krh))
    tol = args.tol if args.tol is not None else DEFAULT_TOL
    report["tolerance"] = tol
    report["passed"] = {key: report[key] < tol for key in
                        ("direct_vs_cd", "direct_vs_rh", "cd_vs_rh")}
    return [("cd_report.json", dump_json, report)]


def cmd_rh_verify(args, raw: dict) -> list:
    w1, w2, n, m = _weight_problem(raw)
    pair = _pair(n, m, "balanced")
    system = RhSystem(pair, w1, w2)
    tol = args.tol if args.tol is not None else DEFAULT_TOL
    report = _base_report(args, raw, system.data.precision)
    certificates, Y0 = rh_verification_report(system, seed=args.seed, tol=tol)
    report.update(certificates)
    return [("rh_report.json", dump_json, report),
            ("y_matrix.csv", write_csv, MATRIX_CSV_HEADER, matrix_rows(Y0))]


def _brownian_config(raw: dict) -> BrownianConfig:
    _known_keys(raw, "the brownian config")
    _section(raw, "sampling")
    _section(raw, "paths")
    try:
        config = BrownianConfig.from_json_dict(raw)
    except ValueError as exc:
        raise ValidationFailure(str(exc)) from exc
    if config.walkers > INDEX_SIZE_LIMIT:
        raise ValidationFailure(f"{config.walkers} walkers exceed the size "
                                f"limit {INDEX_SIZE_LIMIT}")
    return config


def cmd_brownian_kernel(args, raw: dict) -> list:
    config = _brownian_config(raw)
    system, data = _kernel_systems(*config_to_weights(config))
    xs = args.grid if args.grid is not None else np.linspace(*config.bridge_box(), 61)
    return _kernel_grid_artifacts(args, raw, system, data, xs,
                                  "brownian_kernel_report.json",
                                  walkers=config.walkers)


def cmd_brownian_density(args, raw: dict) -> list:
    config = _brownian_config(raw)
    system = correlation_kernel(config)
    box = config.bridge_box()
    xs = args.grid if args.grid is not None else np.linspace(*box, 201)
    r1 = r1_grid(system, xs)
    integral = r1_box_integral(system, box)
    report = _base_report(args, raw, "double")
    report["walkers"] = config.walkers
    report["r1_integral"] = integral
    report["r1_integral_deviation"] = abs(integral - config.walkers)
    if config.distinct:
        report["z_n"] = gram_normalization(system.w1, system.w2, config.walkers)
    return [("density.csv", write_density_grid_csv, xs, r1),
            ("brownian_density_report.json", dump_json, report)]


def cmd_brownian_sample(args, raw: dict) -> list:
    config = _brownian_config(raw)
    sampling = _section(raw, "sampling") or {}
    try:
        count = json_count(sampling.get("count", 10_000), "sampling count",
                           maximum=SAMPLE_COUNT_LIMIT)
        paths_cfg = _section(raw, "paths")
        if paths_cfg is not None:
            if not (config.distinct and config.walkers <= MAX_PATH_WALKERS):
                raise ValueError("path bundles need distinct points and at "
                                 f"most {MAX_PATH_WALKERS} walkers")
            n_paths = json_count(paths_cfg.get("count", 50), "paths count",
                                 maximum=PATH_COUNT_LIMIT)
            n_times = json_count(paths_cfg.get("time_points", 128),
                                 "paths time_points", minimum=PATH_MIN_GRID,
                                 maximum=PATH_TIME_POINTS_LIMIT)
    except ValueError as exc:
        raise ValidationFailure(str(exc)) from exc
    system = correlation_kernel(config)
    box = config.bridge_box()
    draws = sample_projection_dpp(system, box, count, args.seed)
    report = _base_report(args, raw, "double")
    report["walkers"] = config.walkers
    report["count"] = count
    report["sampler"] = "exact chain-rule projection DPP"
    report["mass_deviation_max"] = draws.mass_deviation_max
    report["inversion_residual_max"] = draws.inversion_residual_max
    report["series_residual_max"] = draws.series_residual_max
    report["chi_square_vs_r1"] = chi_square_report(draws.samples, system, box)
    artifacts = [("samples.csv", write_samples_csv, draws.samples)]
    if paths_cfg is not None:
        bundles = sample_paths(config, np.linspace(0.0, 1.0, n_times), n_paths,
                               args.seed + 1)
        report["paths"] = {
            "count": bundles.count,
            "time_points": n_times,
            "acceptance_rate": bundles.acceptance_rate,
            "attempted": bundles.attempted,
            "grid_approximation": "non-intersection enforced at grid times "
                                  "only; crossings between grid times are "
                                  "not detected",
        }
        artifacts.append(("paths.csv", write_paths_csv, bundles))
    artifacts.append(("sampling_report.json", dump_json, report))
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
# The file names each command can write. A run removes them from --out,
# with error_report.json, before it writes its artifacts or its report.
ARTIFACTS = {
    "mop-solve": ("solution.json",),
    "kernel-grid": ("kernel_grid.csv", "kernel_report.json"),
    "cd-check": ("cd_report.json",),
    "rh-verify": ("rh_report.json", "y_matrix.csv"),
    "brownian-kernel": ("kernel_grid.csv", "brownian_kernel_report.json"),
    "brownian-density": ("density.csv", "brownian_density_report.json"),
    "brownian-sample": ("samples.csv", "paths.csv", "sampling_report.json"),
}


def _remove_stale(out_dir: str, command: str | None) -> None:
    """Remove what an earlier run left in out_dir under the command's names
    or as an error report."""
    for name in (*ARTIFACTS.get(command, ()), "error_report.json"):
        remove_file(os.path.join(out_dir, name))


def _write_artifacts(out_dir: str, command: str, artifacts: list) -> None:
    _remove_stale(out_dir, command)
    for name, writer, *payload in artifacts:
        writer(os.path.join(out_dir, name), *payload)


def _fail(out_dir: str | None, command: str | None, code: int, label: str,
          message: str, detail: dict | None = None) -> int:
    flat = " ".join(str(message).split())
    print(f"{label}: {flat}", file=sys.stderr)
    if out_dir is None:
        return code
    try:
        os.makedirs(out_dir, exist_ok=True)
        _remove_stale(out_dir, command)
        dump_json(os.path.join(out_dir, "error_report.json"), {
            "error": label,
            "message": str(message),
            "detail": detail,
            "version": __version__,
        })
    except OSError:
        pass
    return code


class _ArgumentParser(argparse.ArgumentParser):
    """An argument error raises ValidationFailure instead of printing the
    usage and exiting, so it takes the VALIDATION path of every bad input."""

    def error(self, message):
        raise ValidationFailure(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line's parser, built on the first call and shared by
    every later one: nothing in it depends on the call, and parsing leaves
    it as it was.  Each option has one spelling: abbreviations are refused."""
    parser = _ArgumentParser(
        prog="mixedmop", allow_abbrev=False,
        description="Mixed-type multiple orthogonal polynomials, projection "
                    "kernels, and non-intersecting Brownian motions")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="input JSON path")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--grid", default=None, help="grid as min:max:count")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--tol", type=float, default=None)
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


def _refused_run(argv: list[str]) -> tuple[str | None, str | None]:
    """The command (its first positional argument) and the --out value of
    an argument list the full parser refused, each None where it has none."""
    parser = _ArgumentParser(add_help=False, allow_abbrev=False)
    parser.add_argument("command", nargs="?")
    parser.add_argument("--out")
    try:
        args = parser.parse_known_args(argv)[0]
    except ValidationFailure:
        return None, None
    return args.command, args.out


def main(argv=None) -> int:
    argv = _join_grid_value(list(sys.argv[1:] if argv is None else argv))
    try:
        args = build_parser().parse_args(argv)
    except ValidationFailure as exc:
        command, out_dir = _refused_run(argv)
        return _fail(out_dir, command, 1, "VALIDATION", str(exc))
    except SystemExit:  # --help; argument errors raise ValidationFailure
        return 0
    out_dir, command = args.out, args.command
    try:
        for option, readers in OPTION_READERS.items():
            if getattr(args, option) is not None and command not in readers:
                raise ValidationFailure(f"--{option} is read only by "
                                        + ", ".join(readers))
        if args.tol is not None and not 0.0 < args.tol < math.inf:
            raise ValidationFailure("tolerance must be positive and finite")
        if args.seed < 0:
            raise ValidationFailure("seed must be nonnegative")
        args.grid = _parse_grid(args.grid) if args.grid is not None else None
        raw = _load_config(args.config)
        try:
            os.makedirs(out_dir, exist_ok=True)
        except OSError as exc:
            raise ValidationFailure(
                f"cannot create output directory {out_dir}: {exc}") from exc
        # Overflow and invalid values surface as non-finite results, which
        # the commands refuse with their own message; numpy's warnings would
        # add lines to stderr beside it.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            artifacts = COMMANDS[command](args, raw)
        _write_artifacts(out_dir, command, artifacts)
        return 0
    except ValidationFailure as exc:
        return _fail(out_dir, command, 1, "VALIDATION", str(exc))
    except NotNormalizable as exc:  # DegeneratePair among them
        detail = {"normality": exc.report.to_json_dict()} if exc.report else None
        return _fail(out_dir, command, 2, "NUMERICAL", str(exc), detail)
    except AccuracyError as exc:
        return _fail(out_dir, command, 2, "NUMERICAL", str(exc),
                     {"achieved": exc.achieved})
    except Exception as exc:  # noqa: BLE001 - the exit-code contract
        return _fail(out_dir, command, 3, "INTERNAL",
                     f"{type(exc).__name__}: {exc}")


if __name__ == "__main__":
    sys.exit(main())
