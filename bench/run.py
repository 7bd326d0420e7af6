"""mixedmop benchmark: one workload per process, through mixedmop.cli.main.

    python3 bench/run.py --workload grid-export --seed 1 --seconds 15 --trace 0

Run from the repository root.  The workload's inputs are generated from the
seed and written as JSON; the program sees only those files.  After a warm-up,
whole passes over the workload's operations repeat until ``--seconds`` have
elapsed.  The last pass's artifacts are checked against references computed
apart from the program (``oracles.py``), and one operation's artifacts from
the warm-up must be byte-identical to those of its last run.

Times (set-up and operations) are put on one speed scale by the host speed
probe (``hostspeed.py``), which runs all through set-up, warm-up and passes;
the summary line also gives the unscaled time of a pass.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` splits the time
between untraced and traced passes and prints the per-layer metrics (spans
and counters from ``tracing.py``) with the tracing overhead; the spans are
written to ``.bench_run/trace-<workload>-<seed>.json``.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import filecmp
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

import workloads
from hostspeed import HostSpeedProbe
from tracing import MODULES, Recorder

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
RUN_DIR = os.path.join(ROOT, ".bench_run")
SETUP_REPEATS = 3
WARMUP_COPY = "warmup"

# Per-layer metrics: name -> unit.  Spans give "<module>.<function>.self_s"
# and ".calls"; the rest are counters or ratios of counters.
LAYER_METRICS = {
    "util.write_csv.self_s": "s", "util.write_csv.bytes": "bytes",
    "util.dump_json.self_s": "s", "cli.main.self_s": "s",
    "kernel.kernel_cd_grid.self_s": "s", "kernel.kernel_cd_grid.band_cells": "count",
    "kernel.kernel_direct_grid.self_s": "s", "kernel.kernel_routes_report.self_s": "s",
    "kernel.trace_quadrature.self_s": "s", "kernel.idempotence_residual.self_s": "s",
    "rh.cauchy_transform.calls": "count", "rh.cauchy_transform.self_s": "s",
    "rh.panels": "count", "rh.panels_per_transform": "count",
    "rh.y_matrix.self_s": "s", "rh.x_matrix.self_s": "s",
    "rh.verify_jump.self_s": "s", "rh.asymptotic_errors.self_s": "s",
    "rh.kernel_rh_grid.self_s": "s",
    "brownian.sample_positions.self_s": "s", "brownian.density_evals": "count",
    "brownian.mcmc_acceptance": "ratio", "brownian.km_density.self_s": "s",
    "brownian.sample_paths.self_s": "s", "brownian.sample_paths.attempted": "count",
    "brownian.paths_acceptance": "ratio", "brownian.r1_grid.self_s": "s",
    "brownian.chi_square_report.self_s": "s",
    "weights.build_moment_table.calls": "count", "weights.build_moment_table.self_s": "s",
    "weights.adaptive_gauss_legendre.evals": "count",
    "mop.solve_mixed.calls": "count", "mop.solve_mixed.self_s": "s",
    "mop.solve_mixed.failed": "count", "mop.check_normality.self_s": "s",
    "kernel.build_biorthogonal.self_s": "s", "kernel.build_cd_data.self_s": "s",
    **{f"{m}.self_s": "s" for m in MODULES},
    "faults.wall_s": "s",
    "trace.overhead_s": "s",
}


@dataclass
class Pass:
    timings: list = field(default_factory=list)  # (start, end) per op, in order
    attempted: int = 0
    failed: int = 0
    unexpected: list = field(default_factory=list)


def typical_pass(workload, passes: list[Pass], probe: HostSpeedProbe) -> dict:
    """Scaled time per role ("main", "side", "fault") of a typical pass, and
    "wall", the operations that are not known faults.  Each operation counts
    at the median scaled time of its sample group (the operation and its
    copies) over the passes."""
    samples = defaultdict(list)
    for p in passes:
        for op, (t0, t1) in zip(workload.ops, p.timings):
            samples[op.group or op.key].append(probe.scaled(t0, t1))
    out = {"main": 0.0, "side": 0.0, "fault": 0.0}
    for op in workload.ops:
        out[op.role] += statistics.median(samples[op.group or op.key])
    out["wall"] = out["main"] + out["side"]
    return out


def raw_wall(workload, passes: list[Pass]) -> float:
    """Median unscaled time of a pass's operations that are not known faults."""
    return statistics.median(
        sum(t1 - t0 for op, (t0, t1) in zip(workload.ops, p.timings) if op.role != "fault")
        for p in passes)


def run_op(cli, op, config_dir, out_dir, recorder=None) -> tuple[int, float, float]:
    argv = op.argv(config_dir, out_dir)
    span = recorder.open("op:" + op.key) if recorder else None
    # The CLI reports failures on stderr; the known faults would flood it.
    with contextlib.redirect_stderr(io.StringIO()):
        t0 = time.perf_counter()
        code = cli.main(argv)
        t1 = time.perf_counter()
    if recorder:
        recorder.close(span)
    return code, t0, t1


def run_passes(cli, workload, config_dir, out_dir, seconds, recorder=None) -> list[Pass]:
    """Whole passes until ``seconds`` have elapsed (at least one)."""
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        p = Pass()
        for op in workload.ops:
            code, t0, t1 = run_op(cli, op, config_dir, out_dir, recorder)
            p.timings.append((t0, t1))
            p.attempted += 1
            expected = 2 if op.role == "fault" else 0
            if code != 0:
                p.failed += 1
            if code not in (0, expected):
                p.unexpected.append(f"{op.key} exited {code}")
        passes.append(p)
    return passes


def measure_setup(workload_name, seed, config_dir,
                  probe: HostSpeedProbe) -> tuple[float, object]:
    """Median over repeats of: a fresh interpreter importing mixedmop.cli,
    plus generating and writing the workload's inputs; scaled times.

    Set-up runs on one CPU, so that the probe times the CPU the fresh
    interpreter runs on: the vCPUs of a shared host change speed apart."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    times = []
    try:
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", "import mixedmop.cli"], env=env,
                           check=True, cwd=ROOT)
            workload = workloads.build(workload_name, seed)
            workload.write_inputs(config_dir)
            times.append(probe.scaled(t0, time.perf_counter()))
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.median(times), workload


def check_determinism(workload, out_dir) -> tuple[str, bool, str]:
    """The warm-up run of the determinism operation against its last run in
    the measured passes: same config and seed, so the same bytes."""
    key = workload.determinism
    first, last = os.path.join(out_dir, WARMUP_COPY, key), os.path.join(out_dir, key)
    names = sorted(os.listdir(first))
    same = (names == sorted(os.listdir(last))
            and all(filecmp.cmp(os.path.join(first, n), os.path.join(last, n),
                                shallow=False) for n in names))
    return (f"{key}: artifacts byte-identical on rerun", same, ", ".join(names))


def layer_metrics(rec: Recorder, n: int, traced: dict, plain: dict) -> dict:
    c = rec.counters
    selfs = rec.self_times()
    values = {}
    for name in LAYER_METRICS:
        if name.endswith(".self_s"):
            key = name[:-len(".self_s")]
            if key in MODULES:
                values[name] = sum(v for k, v in selfs.items()
                                   if k.split(".")[0] == key) / n
            else:
                values[name] = selfs.get(key, 0.0) / n
        else:
            values[name] = c.get(name, 0.0) / n
    transforms = c.get("rh.cauchy_transform.calls", 0.0)
    values["rh.panels_per_transform"] = c.get("rh.panels", 0.0) / transforms if transforms else 0.0
    mcmc_calls = c.get("brownian.sample_positions.calls", 0.0)
    values["brownian.mcmc_acceptance"] = (c.get("brownian.mcmc_acceptance_sum", 0.0)
                                          / mcmc_calls if mcmc_calls else 0.0)
    attempted = c.get("brownian.sample_paths.attempted", 0.0)
    values["brownian.paths_acceptance"] = (c.get("brownian.sample_paths.accepted", 0.0)
                                           / attempted if attempted else 0.0)
    values["faults.wall_s"] = traced["fault"]
    values["trace.overhead_s"] = traced["wall"] - plain["wall"]
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "mixedmop", "cli.py")):
        print(f"mixedmop sources not found under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        print("seed must be nonnegative", file=sys.stderr)
        return 2

    os.environ.pop("MIXEDMOP_THREADS", None)
    sys.path.insert(0, SRC)
    work = os.path.join(RUN_DIR, f"{args.workload}-{args.seed}-{os.getpid()}")
    config_dir, out_dir = os.path.join(work, "configs"), os.path.join(work, "out")
    try:
        recorder = None
        with HostSpeedProbe() as probe:
            setup_s, workload = measure_setup(args.workload, args.seed, config_dir, probe)
            from mixedmop import cli

            for op in workload.ops:
                if op.key in workload.warmup:
                    run_op(cli, op, config_dir, out_dir)
            shutil.copytree(os.path.join(out_dir, workload.determinism),
                            os.path.join(out_dir, WARMUP_COPY, workload.determinism))

            if args.trace:
                plain = run_passes(cli, workload, config_dir, out_dir, args.seconds / 2)
                recorder = Recorder()
                recorder.install()
                try:
                    traced = run_passes(cli, workload, config_dir, out_dir,
                                        args.seconds / 2, recorder)
                finally:
                    recorder.uninstall()
                passes = plain + traced
            else:
                passes = run_passes(cli, workload, config_dir, out_dir, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        try:
            checks = workload.check(out_dir)
            checks.append(check_determinism(workload, out_dir))
        except (OSError, ValueError, KeyError, IndexError) as exc:
            checks = [("artifacts readable", False, f"{type(exc).__name__}: {exc}")]
        unexpected = [u for p in passes for u in p.unexpected]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for label, ok, detail in checks:
        print(f"check {'ok  ' if ok else 'FAIL'} {label}: {detail}")
    for line in sorted(set(unexpected)):
        print(f"unexpected failure: {line}")

    if args.trace:
        values = layer_metrics(recorder, len(traced), typical_pass(workload, traced, probe),
                               typical_pass(workload, plain, probe))
        metrics = {name: {"value": value, "unit": LAYER_METRICS[name]}
                   for name, value in values.items()}
        os.makedirs(RUN_DIR, exist_ok=True)
        trace_path = os.path.join(RUN_DIR, f"trace-{args.workload}-{args.seed}.json")
        with open(trace_path, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "traced_passes": len(traced), **recorder.to_json()}, fh)
        print(f"{len(plain)} untraced and {len(traced)} traced passes; "
              f"spans in {os.path.relpath(trace_path, ROOT)}")
    else:
        med = typical_pass(workload, passes, probe).__getitem__
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": med("wall"), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "main_cmd_s": {"value": med("main"), "unit": "s"},
            "side_cmd_s": {"value": med("side"), "unit": "s"},
        }
        runs = {role: sum(op.role == role for op in workload.ops)
                for role in ("main", "side", "fault")}
        print(f"{len(passes)} passes; per pass: {runs['main']} x {workload.main_command} "
              f"{med('main'):.4f} s (main_cmd_s, {runs['main'] / med('main'):.2f}/s), "
              f"{runs['side']} x {workload.side_command} {med('side'):.4f} s "
              f"(side_cmd_s), {runs['fault']} known faults {med('fault'):.4f} s "
              "(not in wall_s); times on the probe's speed scale, unscaled wall "
              f"{raw_wall(workload, passes):.4f} s")

    result = {
        "correct": all(ok for _, ok, _ in checks),
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
