"""End-to-end tests for the command line interface.

Every test drives ``main(argv)`` in process and inspects the exit code,
stderr line, and artifact files, so the exit-code contract and the
artifacts-only-on-success rule are checked exactly as a shell user
would see them.
"""

import csv
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import mixedmop
import mixedmop.cli as cli
from mixedmop import rh
from mixedmop import (BrownianConfig, MultiIndexPair, RhSystem,
                      build_biorthogonal, build_cd_data, config_to_weights,
                      correlation_kernel, kernel_cd_grid, kernel_direct_grid,
                      r1_grid, sample_projection_dpp, weights_from_json)
from mixedmop._util import write_csv
from mixedmop.cli import GRID_LIMITS, main
from mixedmop.kernel import relative_discrepancy

from conftest import csv_oracle_bytes, kernel_grid_rows

GAUSS = {"kind": "gaussian", "center": 0.0, "variance": 1.0, "amplitude": 1.0}

# Balanced rank-one problem: the kernel is e^{-x^2/2} e^{-y^2/2} / sqrt(pi).
RANK_ONE = {"w1": [GAUSS], "w2": [GAUSS], "n": [1], "m": [1]}

# Defining-shape problem for mop-solve; type II solution is the monic x.
DEFINING = {"w1": [GAUSS], "w2": [GAUSS], "n": [2], "m": [1]}

# Two weights per side, for index and weight-parameter input checks.
SHIFTED = [dict(GAUSS, center=-0.8), dict(GAUSS, center=0.9, variance=0.7)]
TWO_BY_TWO = {"w1": SHIFTED, "w2": SHIFTED, "n": [2, 1], "m": [1, 1]}

# The benchmark's wp problem: two weights per side, n = [3, 2], m = [2, 3].
WP = {"w1": [dict(GAUSS, center=-0.5, variance=0.8),
             dict(GAUSS, center=0.6, variance=1.2)],
      "w2": [dict(GAUSS, center=0.0, variance=1.0),
             dict(GAUSS, center=0.3, variance=0.6)],
      "n": [3, 2], "m": [2, 3]}

KERNEL_GRID_HEADER = ("x", "y", "K_direct", "K_cd", "abs_diff")

TWO_WALKERS = {
    "starts": [[-1.0, 1], [1.0, 1]],
    "ends": [[-1.0, 1], [1.0, 1]],
    "t": 0.5,
}


def run_cli(tmp_path, command, config, *extra, out_name="out",
            config_name="config.json"):
    cfg = tmp_path / config_name
    if isinstance(config, str):
        cfg.write_text(config)
    else:
        cfg.write_text(json.dumps(config))
    out = tmp_path / out_name
    code = main([command, "--config", str(cfg), "--out", str(out), *extra])
    return code, out


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


class TestKernelGrid:
    def test_frozen_corner_value(self, tmp_path):
        code, out = run_cli(tmp_path, "kernel-grid", RANK_ONE,
                            "--grid", "0:1:2")
        assert code == 0
        rows = read_rows(out / "kernel_grid.csv")
        assert len(rows) == 4
        first = rows[0]
        assert float(first["x"]) == 0.0 and float(first["y"]) == 0.0
        assert float(first["K_direct"]) == pytest.approx(
            1.0 / math.sqrt(math.pi), rel=1e-10)
        assert all(float(r["abs_diff"]) < 1e-9 for r in rows)

    def test_report_contents(self, tmp_path):
        code, out = run_cli(tmp_path, "kernel-grid", RANK_ONE,
                            "--grid", "0:1:2")
        assert code == 0
        report = read_json(out / "kernel_report.json")
        assert report["command"] == "kernel-grid"
        assert report["config"] == RANK_ONE
        assert report["direct_vs_cd"] < 1e-9
        assert abs(report["trace_deviation"]) < 1e-8

    def test_success_artifacts_exactly(self, tmp_path):
        code, out = run_cli(tmp_path, "kernel-grid", RANK_ONE,
                            "--grid", "0:1:2")
        assert code == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "kernel_grid.csv", "kernel_report.json"]

    def test_rerun_is_byte_identical(self, tmp_path):
        _, out1 = run_cli(tmp_path, "kernel-grid", RANK_ONE,
                          "--grid", "0:1:2", out_name="out1")
        _, out2 = run_cli(tmp_path, "kernel-grid", RANK_ONE,
                          "--grid", "0:1:2", out_name="out2")
        for name in ("kernel_grid.csv", "kernel_report.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_negative_grid_minimum_parses(self, tmp_path):
        # '-2:...' must not be mistaken for a flag after '--grid'.
        code, _ = run_cli(tmp_path, "kernel-grid", RANK_ONE,
                          "--grid", "-2:2:5")
        assert code == 0

    def test_kernel_ignores_family_order(self, tmp_path):
        # writing both families, n and m in reverse order describes the same
        # kernel; the bytes may differ at rounding level, since the basis
        # center is a mean over the weight centers
        reverse = {key: value[::-1] for key, value in WP.items()}
        grids = []
        for name, config in (("wp", WP), ("reverse", reverse)):
            code, out = run_cli(tmp_path, "kernel-grid", config, "--grid",
                                "-2:2:41", out_name=name,
                                config_name=name + ".json")
            assert code == 0
            grids.append(np.loadtxt(out / "kernel_grid.csv", delimiter=",",
                                    skiprows=1))
        a, b = grids
        np.testing.assert_array_equal(a[:, :2], b[:, :2])
        for column in (2, 3):  # K_direct, K_cd
            assert relative_discrepancy(a[:, column], b[:, column]) <= 1e-10

    def test_cd_grid_computed_once(self, tmp_path, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return kernel_cd_grid(*args, **kwargs)

        monkeypatch.setattr(cli, "kernel_cd_grid", counted)
        monkeypatch.setattr(mixedmop.kernel, "kernel_cd_grid", counted)
        code, _ = run_cli(tmp_path, "kernel-grid", RANK_ONE, "--grid", "0:1:3")
        assert code == 0
        assert len(calls) == 1


class TestValidationFailures:
    def assert_only_error_report(self, out, label="VALIDATION"):
        assert [p.name for p in out.iterdir()] == ["error_report.json"]
        report = read_json(out / "error_report.json")
        assert report["error"] == label
        assert report["message"]
        return report

    def test_malformed_json_config(self, tmp_path, capsys):
        code, out = run_cli(tmp_path, "kernel-grid", "{ not json")
        assert code == 1
        self.assert_only_error_report(out)
        assert capsys.readouterr().err.startswith("VALIDATION:")

    def test_missing_multi_indices(self, tmp_path):
        code, out = run_cli(tmp_path, "kernel-grid",
                            {"w1": [GAUSS], "w2": [GAUSS]})
        assert code == 1
        self.assert_only_error_report(out)

    def test_unbalanced_pair_rejected(self, tmp_path):
        # kernel-grid needs |n| == |m|; the defining shape must not slip in.
        code, out = run_cli(tmp_path, "kernel-grid", DEFINING)
        assert code == 1
        self.assert_only_error_report(out)

    @pytest.mark.parametrize("spec", ["0:1", "0:1:1", "0:1:2001", "1:1:5",
                                      "a:b:c", "-inf:inf:5", "0:inf:5",
                                      "-1e308:1e308:5"])
    def test_bad_grids(self, tmp_path, spec):
        code, out = run_cli(tmp_path, "kernel-grid", RANK_ONE,
                            "--grid", spec)
        assert code == 1
        self.assert_only_error_report(out)

    def test_grid_limits_are_inclusive(self, tmp_path):
        code, _ = run_cli(tmp_path, "kernel-grid", RANK_ONE,
                          "--grid", f"0:1:{GRID_LIMITS[0]}")
        assert code == 0

    def test_nonpositive_tolerance(self, tmp_path):
        code, _ = run_cli(tmp_path, "cd-check", RANK_ONE, "--tol", "0.0")
        assert code == 1

    @pytest.mark.parametrize("tol", ["inf", "1e400"])
    def test_infinite_tolerance(self, tmp_path, tol):
        # an infinite tolerance would pass every route gate and write
        # "tolerance": Infinity, which is not JSON
        code, out = run_cli(tmp_path, "cd-check", RANK_ONE, "--tol", tol)
        assert code == 1
        self.assert_only_error_report(out)

    @pytest.mark.parametrize("command, option", [
        ("mop-solve", "--grid"), ("rh-verify", "--grid"),
        ("brownian-sample", "--grid"), ("mop-solve", "--tol"),
        ("kernel-grid", "--tol"), ("brownian-kernel", "--tol"),
        ("brownian-density", "--tol"), ("brownian-sample", "--tol")])
    def test_unread_option_refused(self, tmp_path, command, option):
        # the run succeeds without the option, and fails with it
        config = {"mop-solve": DEFINING, "rh-verify": RANK_ONE,
                  "kernel-grid": RANK_ONE}.get(
            command, dict(TWO_WALKERS, sampling={"count": 40}))
        assert run_cli(tmp_path, command, config, out_name="plain")[0] == 0
        value = "0:1:3" if option == "--grid" else "1e-6"
        code, out = run_cli(tmp_path, command, config, option, value)
        assert code == 1
        message = self.assert_only_error_report(out)["message"]
        readers = cli.OPTION_READERS[option[2:]]
        assert command not in readers
        assert message == f"{option} is read only by " + ", ".join(readers)

    def test_negative_seed(self, tmp_path):
        code, _ = run_cli(tmp_path, "kernel-grid", RANK_ONE, "--seed", "-1")
        assert code == 1

    @pytest.mark.parametrize("command, w2, n, m", [
        ("kernel-grid", [GAUSS], [1, 1], [2]),
        ("cd-check", [GAUSS], [1, 1], [2]),
        ("rh-verify", [GAUSS], [1, 1], [2]),
        ("mop-solve", [GAUSS], [1, 1], [1]),
        ("kernel-grid", [GAUSS, GAUSS], [2], [2])],
        ids=["kernel-grid", "cd-check", "rh-verify", "mop-solve", "m-short"])
    def test_part_count_must_match_family(self, tmp_path, capsys, command,
                                          w2, n, m):
        config = {"w1": [GAUSS], "w2": w2, "n": n, "m": m}
        code, out = run_cli(tmp_path, command, config)
        assert code == 1
        message = self.assert_only_error_report(out)["message"]
        assert message == (
            f"'n' has {len(n)} part(s) for 1 'w1' weight(s) and 'm' "
            f"{len(m)} for {len(w2)} 'w2' weight(s): need one part per weight")
        assert capsys.readouterr().err == f"VALIDATION: {message}\n"

    @pytest.mark.parametrize("out_name", ["taken", "taken/sub"])
    def test_out_must_be_a_directory(self, tmp_path, capsys, monkeypatch,
                                     out_name):
        # refused before the command computes: a run that reached the
        # moment table would exit 3 here
        def boom(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "moment_table_for", boom)
        (tmp_path / "taken").write_text("kept")
        code, _ = run_cli(tmp_path, "kernel-grid", RANK_ONE, out_name=out_name)
        assert code == 1
        assert (tmp_path / "taken").read_text() == "kept"
        err = capsys.readouterr().err
        assert err.startswith("VALIDATION: cannot create output directory "
                              + str(tmp_path / out_name))
        assert err.count("\n") == 1

    def test_missing_required_arguments(self, capsys):
        # no --out, so the stderr line is all a failed run can leave
        assert main(["kernel-grid"]) == 1
        assert capsys.readouterr().err == ("VALIDATION: the following "
                                           "arguments are required: --config, --out\n")

    def test_argument_type_error(self, tmp_path, capsys):
        code, out = run_cli(tmp_path, "kernel-grid", RANK_ONE, "--seed", "x")
        assert code == 1
        report = self.assert_only_error_report(out)
        assert report["message"] == "argument --seed: invalid int value: 'x'"
        assert capsys.readouterr().err == f"VALIDATION: {report['message']}\n"

    def test_unknown_command(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(RANK_ONE))
        code = main(["frobnicate", "--config", str(cfg),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        capsys.readouterr()

    def test_sampling_rejects_confluent_starts(self, tmp_path):
        # positions are drawn for confluent points; path bundles are not
        config = dict(TWO_WALKERS, starts=[[0.0, 2]], ends=[[0.0, 2]],
                      sampling={"count": 8}, paths={"count": 2})
        code, out = run_cli(tmp_path, "brownian-sample", config)
        assert code == 1
        self.assert_only_error_report(out)

    @pytest.mark.filterwarnings("ignore:position sampler")
    def test_sampling_rejects_short_time_grid(self, tmp_path):
        config = dict(TWO_WALKERS, sampling={"count": 8},
                      paths={"count": 2, "time_points": 9})
        code, out = run_cli(tmp_path, "brownian-sample", config)
        assert code == 1
        self.assert_only_error_report(out)

    @pytest.mark.parametrize("extra", [
        {"sampling": {"count": "many"}},
        {"sampling": [1]},
        {"paths": {"count": "x"}},
        {"paths": [3]},
        {"sampling": {"count": 10.7}},
        {"n_scaling": "false"},
        {"starts": [[-1.0, 1.7], [1.0, 1]]},
        {"starts": [[-1.0, 1.0], [1.0, 1]]},
        {"ends": [[-1.0, True], [1.0, 1]]},
        {"ends": [[-1.0, "1"], [1.0, 1]]},
        {"starts": [["-1.0", 1], [1.0, 1]]},
        {"ends": [[False, 1], [1.0, 1]]},
        {"starts": [[float("nan"), 1], [1.0, 1]]},
        {"starts": [[-1e200, 1], [1.0, 1]]},
        {"t": "0.5"},
        {"t": True},
        {"sampling": {"count": 10 ** 12}},
        {"paths": {"count": 10 ** 12}},
        {"paths": {"count": 3, "time_points": 10 ** 12}},
    ], ids=["count-string", "sampling-list", "paths-count-string",
            "paths-list", "count-float", "n-scaling-string",
            "multiplicity-fraction", "multiplicity-float",
            "multiplicity-bool", "multiplicity-string", "point-string",
            "point-bool", "point-nan", "point-huge", "t-string", "t-bool", "count-huge",
            "paths-count-huge", "time-points-huge"])
    def test_sampling_config_types(self, tmp_path, extra):
        config = {**TWO_WALKERS, "sampling": {"count": 8}, **extra}
        code, out = run_cli(tmp_path, "brownian-sample", config)
        assert code == 1
        self.assert_only_error_report(out)

    @pytest.mark.parametrize("key, value", [
        ("n", 3), ("n", ["x"]), ("n", [2.7, 1]), ("n", []), ("m", [True, 1]),
        ("m", [1.0, 1]), ("center", float("nan")), ("center", 1e200),
        ("center", "0.5"), ("center", True), ("variance", "1"),
        ("amplitude", False),
    ], ids=["n-int", "n-string-entry", "n-fraction", "n-empty", "m-bool",
            "m-float", "center-nan", "center-huge", "center-string",
            "center-bool", "variance-string", "amplitude-bool"])
    def test_weight_problem_types(self, tmp_path, key, value):
        config = json.loads(json.dumps(TWO_BY_TWO))
        if key in ("n", "m"):
            config[key] = value
        else:
            config["w1"][0][key] = value
        code, out = run_cli(tmp_path, "mop-solve", config)
        assert code == 1
        self.assert_only_error_report(out)

    def test_weight_problem_base_config_solves(self, tmp_path):
        code, _ = run_cli(tmp_path, "mop-solve", TWO_BY_TWO)
        assert code == 0

    @pytest.mark.parametrize("normalization", [
        {"kind": "II", "index": 1.7}, {"kind": "II", "index": True},
        {"kind": "II", "index": "1"}, {"kind": "II", "index": -1},
        {"kind": 2, "index": 0}, {"kind": "I", "index": 2}, [],
    ], ids=["index-float", "index-bool", "index-string", "index-negative",
            "kind-number", "index-out-of-range", "not-an-object"])
    def test_normalization_types(self, tmp_path, normalization):
        config = dict(TWO_BY_TWO, normalization=normalization)
        code, out = run_cli(tmp_path, "mop-solve", config)
        assert code == 1
        self.assert_only_error_report(out)

    @pytest.mark.parametrize("command, config, key, where", [
        ("brownian-kernel", dict(TWO_WALKERS, n_scalling=False), "n_scalling",
         "the brownian config"),
        ("mop-solve", dict(TWO_BY_TWO, normalisation={"kind": "I"}),
         "normalisation", "the weight-problem config"),
        ("mop-solve", dict(TWO_BY_TWO, w1=[
            {"kind": "gaussian", "center": -0.8, "variance": 1.0,
             "amplitud": 5}, SHIFTED[1]]), "amplitud", "a weight entry"),
        ("mop-solve", dict(TWO_BY_TWO, normalization={"kind": "I", "indx": 1}),
         "indx", "'normalization'"),
        ("brownian-density", dict(TWO_WALKERS, sampling={"cont": 8}), "cont",
         "'sampling'"),
        ("brownian-sample", dict(TWO_WALKERS, sampling={"count": 8},
                                 paths={"count": 2, "timepoints": 64}),
         "timepoints", "'paths'"),
    ], ids=["n-scaling", "normalisation", "amplitude", "normalization-index",
            "sampling-count", "paths-time-points"])
    def test_misspelled_key_refused(self, tmp_path, capsys, command, config,
                                    key, where):
        # each of these ran with a default in place of the misspelled setting
        code, out = run_cli(tmp_path, command, config)
        assert code == 1
        message = self.assert_only_error_report(out)["message"]
        assert f"unknown key {key!r} in {where} (allowed: " in message
        assert capsys.readouterr().err == f"VALIDATION: {message}\n"

    @pytest.mark.parametrize("command", ["brownian-kernel", "brownian-density",
                                         "brownian-sample"])
    def test_brownian_commands_accept_every_key(self, tmp_path, command):
        config = dict(TWO_WALKERS, n_scaling=True, sampling={"count": 8},
                      paths={"count": 2, "time_points": 64})
        assert run_cli(tmp_path, command, config)[0] == 0

    def test_short_time_grid_refused_before_sampling(self, tmp_path,
                                                     monkeypatch):
        calls = []

        def sampler(*args, **kwargs):
            calls.append(args)
            raise RuntimeError("the sampler ran")

        monkeypatch.setattr(cli, "sample_projection_dpp", sampler)
        config = dict(TWO_WALKERS, sampling={"count": 200_000},
                      paths={"count": 2, "time_points": 10})
        code, out = run_cli(tmp_path, "brownian-sample", config)
        assert code == 1
        message = self.assert_only_error_report(out)["message"]
        assert message == ("paths time_points must be a JSON integer in "
                           "[64, 1000], got 10")
        assert calls == []

    def test_path_bundles_reject_five_walkers(self, tmp_path):
        pts = [[float(i), 1] for i in range(5)]
        config = {"starts": pts, "ends": pts, "t": 0.5,
                  "sampling": {"count": 8}, "paths": {"count": 2}}
        code, out = run_cli(tmp_path, "brownian-sample", config)
        assert code == 1
        self.assert_only_error_report(out)

    @pytest.mark.parametrize("command", sorted(cli.COMMANDS))
    def test_precision_option_refused(self, tmp_path, command, capsys):
        # the solves pick their arithmetic; no option selects it
        code, out = run_cli(tmp_path, command, RANK_ONE, "--precision",
                            "extended")
        assert code == 1
        self.assert_only_error_report(out)
        assert capsys.readouterr().err == ("VALIDATION: unrecognized "
                                           "arguments: --precision extended\n")


class TestNumericalFailures:
    def test_duplicated_weight_family(self, tmp_path, capsys):
        config = {"w1": [GAUSS, GAUSS], "w2": [GAUSS, GAUSS],
                  "n": [1, 1], "m": [1, 1]}
        code, out = run_cli(tmp_path, "kernel-grid", config,
                            "--grid", "0:1:2")
        assert code == 2
        assert [p.name for p in out.iterdir()] == ["error_report.json"]
        report = read_json(out / "error_report.json")
        assert report["error"] == "NUMERICAL"
        normality = report["detail"]["normality"]
        assert normality["pair"] == {"n": [1, 1], "m": [1, 1]}
        assert normality["f_dimension_ok"] is False
        assert normality["condition_estimate"] is None
        assert capsys.readouterr().err.startswith("NUMERICAL:")


    @pytest.mark.parametrize("command, n, m, extra, code", [
        ("mop-solve", [13], [12], (), 0),
        ("mop-solve", [20], [19], (), 0),
        ("kernel-grid", [12], [12], ("--grid", "0:1:2"), 2)],
        ids=["hermite-12", "hermite-19", "hermite-12-kernel"])
    def test_rank_deficient_reports_are_strict_json(self, tmp_path, command,
                                                    n, m, extra, code):
        # a rank-deficient orthogonality matrix has no finite condition
        # number; the report says null, never the non-JSON Infinity
        def refuse(token):
            raise ValueError(f"non-JSON token {token}")

        got, out = run_cli(tmp_path, command, dict(DEFINING, n=n, m=m), *extra)
        assert got == code
        name = "solution.json" if code == 0 else "error_report.json"
        report = json.loads((out / name).read_text(), parse_constant=refuse)
        normality = report["normality"] if code == 0 \
            else report["detail"]["normality"]
        assert normality["condition_estimate"] is None

    def test_overflowing_moment_table_is_named(self, tmp_path, capfd):
        # one variance of 1e300 overflows the w1 x w1 Gram moments
        gauss = [(-0.5, 0.8), (0.6, 1.2), (0.0, 1.0), (0.3, 0.6)]
        w = [dict(GAUSS, center=c, variance=v) for c, v in gauss]
        w[0]["variance"] = 1e300
        config = {"w1": w[:2], "w2": w[2:], "n": [3, 3], "m": [2, 3]}
        code, out = run_cli(tmp_path, "mop-solve", config)
        assert code == 2
        report = read_json(out / "error_report.json")
        assert report["error"] == "NUMERICAL"
        assert "moment table" in report["message"]
        assert "(0, 0), order 0" in report["message"]
        captured = capfd.readouterr()
        assert "DLASCL" not in captured.err + captured.out

    def test_five_plus_five_positions_refused_by_mass_check(self, tmp_path):
        config = {"starts": [[-1.0, 5], [1.0, 5]], "ends": [[0.0, 10]],
                  "t": 0.5, "sampling": {"count": 20}}
        code, out = run_cli(tmp_path, "brownian-sample", config)
        assert code == 2
        assert [p.name for p in out.iterdir()] == ["error_report.json"]
        report = read_json(out / "error_report.json")
        assert report["error"] == "NUMERICAL"
        assert "conditional mass at step 0" in report["message"]
        assert report["detail"]["achieved"] > 1e-9

    @pytest.mark.parametrize("setting, value, gate", [
        ("INVERSION_MAX_STEPS", 1, "inverse-CDF search left 20 draws"),
        ("DPP_NODES", 4, "panel series density at step 0 misses"),
    ], ids=["step-cap", "series-degree"])
    def test_sampler_gate_exits_two(self, tmp_path, monkeypatch, setting,
                                    value, gate):
        monkeypatch.setattr(mixedmop.brownian, setting, value)
        config = dict(TWO_WALKERS, sampling={"count": 20})
        code, out = run_cli(tmp_path, "brownian-sample", config)
        assert code == 2
        assert [p.name for p in out.iterdir()] == ["error_report.json"]
        report = read_json(out / "error_report.json")
        assert report["error"] == "NUMERICAL"
        assert report["message"].startswith(gate)

    @pytest.mark.parametrize("command, config, routes", [
        ("kernel-grid", WP, "K_direct, K_cd"),
        ("cd-check", WP, "K_direct, K_cd, K_rh"),
        ("brownian-kernel", {"starts": [[-1.0, 1], [1.0, 1]],
                             "ends": [[0.0, 2]], "t": 0.5}, "K_cd"),
    ], ids=["kernel-grid", "cd-check", "brownian-kernel-two-start"])
    def test_nonfinite_kernel_grid_refused(self, tmp_path, capsys, command,
                                           config, routes):
        # at |x| = 1e200 the basis values are inf * 0, so the kernel is nan
        def refuse(token):
            raise ValueError(f"non-JSON token {token}")

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out = run_cli(tmp_path, command, config,
                                "--grid", "-1e200:1e200:3")
        assert not [w for w in caught if w.category is RuntimeWarning]
        assert code == 2
        assert [p.name for p in out.iterdir()] == ["error_report.json"]
        report = json.loads((out / "error_report.json").read_text(),
                            parse_constant=refuse)
        assert report["error"] == "NUMERICAL"
        assert report["message"] == (
            f"{routes} not finite at (x, y) = (-1e+200, -1e+200) on the grid "
            "-1e+200:1e+200:3")
        assert capsys.readouterr().err == f"NUMERICAL: {report['message']}\n"

    def test_overflow_leaves_one_stderr_line(self, tmp_path):
        # numpy's overflow and invalid-value warnings stay off stderr
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(WP))
        src = os.path.dirname(os.path.dirname(mixedmop.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        result = subprocess.run(
            [sys.executable, "-m", "mixedmop.cli", "kernel-grid", "--config",
             str(cfg), "--out", str(tmp_path / "out"),
             "--grid=-1e200:1e200:3"],
            env=env, capture_output=True, text=True, timeout=120)
        assert result.returncode == 2
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("NUMERICAL: "), lines


class TestInternalFailures:
    def test_unexpected_exception_maps_to_three(self, tmp_path, capsys,
                                                monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "moment_table_for", boom)
        code, out = run_cli(tmp_path, "mop-solve", DEFINING)
        assert code == 3
        report = read_json(out / "error_report.json")
        assert report["error"] == "INTERNAL"
        assert report["message"] == "RuntimeError: boom"
        assert capsys.readouterr().err.startswith(
            "INTERNAL: RuntimeError: boom")


class TestMopSolve:
    def test_solution_schema_and_frozen_value(self, tmp_path):
        code, out = run_cli(tmp_path, "mop-solve", DEFINING)
        assert code == 0
        assert [p.name for p in out.iterdir()] == ["solution.json"]
        report = read_json(out / "solution.json")
        for key in ("version", "command", "seed", "precision", "config",
                    "solution", "normality"):
            assert key in report
        solution = report["solution"]
        assert solution["pair"] == {"n": [2], "m": [1]}
        # monic degree-one type II polynomial for matching unit Gaussians
        coeffs = solution["coefficients_original"]
        assert len(coeffs) == 1
        assert coeffs[0][1] == 1.0
        assert abs(coeffs[0][0]) < 1e-10
        assert solution["residual"] < 1e-10
        assert report["normality"]["normal"] is True

    def test_type1_normalization_accepted(self, tmp_path):
        config = dict(DEFINING, normalization={"kind": "I", "index": 0})
        code, out = run_cli(tmp_path, "mop-solve", config)
        assert code == 0
        solution = read_json(out / "solution.json")["solution"]
        assert solution["normalization"] == {"kind": "I", "index": 0}

    @pytest.mark.parametrize("degree, precision", [
        (10, "double"), (11, "extended"), (19, "extended")])
    def test_hermite_solves_pick_their_arithmetic(self, tmp_path, degree,
                                                  precision):
        config = dict(DEFINING, n=[degree + 1], m=[degree])
        code, out = run_cli(tmp_path, "mop-solve", config)
        assert code == 0
        report = read_json(out / "solution.json")
        assert report["precision"] == precision
        assert report["solution"]["precision"] == precision
        got = np.array(report["solution"]["coefficients_original"][0])
        want = np.polynomial.hermite.herm2poly([0.0] * degree + [1.0]) \
            / 2.0 ** degree
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_hermite_twenty_is_not_normalizable(self, tmp_path):
        config = dict(DEFINING, n=[21], m=[20])
        code, out = run_cli(tmp_path, "mop-solve", config)
        assert code == 2
        assert [p.name for p in out.iterdir()] == ["error_report.json"]
        report = read_json(out / "error_report.json")
        assert report["error"] == "NUMERICAL"
        assert report["detail"]["normality"]["pair"] == {"n": [21], "m": [20]}

    def test_bad_normalization_rejected(self, tmp_path):
        config = dict(DEFINING, normalization={"kind": "III"})
        code, out = run_cli(tmp_path, "mop-solve", config)
        assert code == 1
        assert read_json(out / "error_report.json")["error"] == "VALIDATION"


class TestCdCheck:
    def test_three_routes_agree(self, tmp_path):
        code, out = run_cli(tmp_path, "cd-check", RANK_ONE,
                            "--grid", "-1:1:3")
        assert code == 0
        report = read_json(out / "cd_report.json")
        assert report["tolerance"] == 1e-7
        assert report["passed"] == {"direct_vs_cd": True,
                                    "direct_vs_rh": True,
                                    "cd_vs_rh": True}
        assert report["direct_vs_rh"] < 1e-7

    @staticmethod
    def mutated_blocks(monkeypatch, change):
        """rh._block_table with change(poly_factors) applied to Y's block."""
        exact = rh._block_table

        def mutated(data):
            blocks = exact(data)
            factors = blocks["y"].poly_factors.copy()
            change(factors)
            blocks["y"] = blocks["y"]._replace(poly_factors=factors)
            return blocks

        monkeypatch.setattr(rh, "_block_table", mutated)

    # the default grid, whose band is the diagonal, and one whose band
    # holds every cell: the factors reach the band too
    @pytest.mark.parametrize("grid", [[], ["--grid", "-1e-5:1e-5:9"]],
                             ids=["default", "band"])
    def test_flipped_block_factor_fails_cd_vs_rh(self, tmp_path, monkeypatch,
                                                 grid):
        code, out = run_cli(tmp_path, "cd-check", WP, *grid)
        assert code == 0
        report = read_json(out / "cd_report.json")
        assert report["cd_vs_rh"] == 0.0
        assert report["direct_vs_rh"] == report["direct_vs_cd"]

        def flip(factors):
            factors[0] = -factors[0]

        self.mutated_blocks(monkeypatch, flip)
        code, out = run_cli(tmp_path, "cd-check", WP, *grid, out_name="flipped")
        assert code == 0
        report = read_json(out / "cd_report.json")
        assert report["passed"] == {"direct_vs_cd": True,
                                    "direct_vs_rh": False,
                                    "cd_vs_rh": False}

    def test_complex_block_factor_is_numerical(self, tmp_path, monkeypatch,
                                               capsys):
        def tilt(factors):
            factors[0] *= 1.0 + 1e-3j

        self.mutated_blocks(monkeypatch, tilt)
        code, out = run_cli(tmp_path, "cd-check", WP)
        assert code == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("NUMERICAL: ")
        assert os.listdir(out) == ["error_report.json"]


class TestRhVerify:
    def test_report_and_matrix_dump(self, tmp_path):
        code, out = run_cli(tmp_path, "rh-verify", RANK_ONE)
        assert code == 0
        report = read_json(out / "rh_report.json")
        assert report["passed"] == {"det": True, "inverse_transpose": True,
                                    "jump": True, "asymptotics": True}
        rows = read_rows(out / "y_matrix.csv")
        # rank-one problem: the solution matrix is 2 x 2
        assert len(rows) == 4
        assert set(rows[0]) == {"row", "col", "re", "im"}
        # 20 det points, 10 jump points x 2 sides, 3 radii; one product
        # Gaussian, Y and X at the det points, Y elsewhere
        branches = report["cauchy_branches"]
        assert sorted(branches) == ["asymptotic_series", "recursion"]
        assert branches["recursion"] + branches["asymptotic_series"] == 63

    def test_matrix_dump_adds_no_evaluation(self, tmp_path, monkeypatch):
        # y_matrix.csv is Y at the first z point, taken from the report's
        # stack: the command makes the report's closed-form calls and no more
        calls = []
        exact = rh.gaussian_cauchy_moments

        def counted(zeta, degree, side=0):
            calls.append(np.shape(zeta))
            return exact(zeta, degree, side)

        monkeypatch.setattr(rh, "gaussian_cauchy_moments", counted)
        code, out = run_cli(tmp_path, "rh-verify", WP)
        assert code == 0
        cli_calls = list(calls)
        calls.clear()
        system = RhSystem(MultiIndexPair.balanced(WP["n"], WP["m"]),
                          *weights_from_json(WP))
        report, _ = rh.rh_verification_report(system)
        assert cli_calls == calls
        z0 = complex(report["z_points"][0]["re"], report["z_points"][0]["im"])
        write_csv(str(tmp_path / "y0.csv"), rh.MATRIX_CSV_HEADER,
                  rh.matrix_rows(system.y_matrix(z0)))
        assert (out / "y_matrix.csv").read_bytes() == \
            (tmp_path / "y0.csv").read_bytes()


class TestImportCost:
    def test_cli_import_loads_no_scipy(self):
        src = os.path.dirname(os.path.dirname(mixedmop.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        code = ("import sys, mixedmop.cli; "
                "print(sorted(m for m in sys.modules "
                "if m.split('.')[0] == 'scipy'))")
        result = subprocess.run([sys.executable, "-c", code], env=env,
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"

    def test_cli_import_loads_no_mpmath(self):
        # mpmath serves only the extended fallback of the mixed solves
        src = os.path.dirname(os.path.dirname(mixedmop.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        code = "import mixedmop.cli, sys; assert 'mpmath' not in sys.modules"
        result = subprocess.run([sys.executable, "-c", code], env=env,
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr

    def test_brownian_sample_loads_no_scipy_stats(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(dict(TWO_WALKERS, sampling={"count": 20})))
        src = os.path.dirname(os.path.dirname(mixedmop.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        code = ("import sys; from mixedmop.cli import main; "
                f"code = main(['brownian-sample', '--config', {str(cfg)!r}, "
                f"'--out', {str(tmp_path / 'out')!r}]); "
                "print(code, 'scipy.stats' in sys.modules)")
        result = subprocess.run([sys.executable, "-c", code], env=env,
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "0 False"


class TestBrownianCommands:
    def test_kernel_artifacts(self, tmp_path):
        code, out = run_cli(tmp_path, "brownian-kernel", TWO_WALKERS,
                            "--grid", "-2:2:5")
        assert code == 0
        report = read_json(out / "brownian_kernel_report.json")
        assert report["walkers"] == 2
        assert report["direct_vs_cd"] < 1e-9
        assert len(read_rows(out / "kernel_grid.csv")) == 25

    def test_five_plus_five_kernel_falls_back_to_extended(self, tmp_path):
        # 5 + 5 walkers from +-1 to one end: a CD neighbour solve fails the
        # double rank gate and is rerun in extended arithmetic
        config = {"starts": [[-1.0, 5], [1.0, 5]], "ends": [[0.0, 10]],
                  "t": 0.5, "n_scaling": True}
        code, out = run_cli(tmp_path, "brownian-kernel", config,
                            "--grid", "-2:2:5")
        assert code == 0
        report = read_json(out / "brownian_kernel_report.json")
        assert report["precision"] == "extended"
        assert report["trace_deviation"] <= 1e-9

    def test_separated_walkers_kernel_integrates_per_component(self, tmp_path):
        # walkers going -100 -> -100 and 100 -> 100: the quadratures ran over
        # the hull [-106, 106] and exited 2 ("did not converge at degree 512")
        config = {"starts": [[-100.0, 1], [100.0, 1]],
                  "ends": [[-100.0, 1], [100.0, 1]], "t": 0.5}
        code, out = run_cli(tmp_path, "brownian-kernel", config)
        assert code == 0
        report = read_json(out / "brownian_kernel_report.json")
        assert report["trace_deviation"] < 1e-12
        assert report["idempotence_residual"] < 1e-12
        assert report["idempotence_quadrature_estimate"] < 1e-12

    def test_separated_walkers_sample_per_component(self, tmp_path,
                                                    monkeypatch):
        # the same walkers: 64 equal panels over the box [-102.8, 102.8]
        # were 3.2 wide, and the series gate exited 2 at step 0
        config = {"starts": [[-100.0, 1], [100.0, 1]],
                  "ends": [[-100.0, 1], [100.0, 1]], "t": 0.5,
                  "sampling": {"count": 1000}}
        code, out = run_cli(tmp_path, "brownian-sample", config)
        assert code == 0
        report = read_json(out / "sampling_report.json")
        assert report["chi_square_vs_r1"]["p_value"] > 0.01
        assert report["series_residual_max"] < 1e-12
        want = (out / "samples.csv").read_bytes()
        for block in (1, 7):
            monkeypatch.setattr(mixedmop.brownian, "DPP_BLOCK", block)
            code, got = run_cli(tmp_path, "brownian-sample", config,
                                out_name=f"block{block}")
            assert code == 0
            assert (got / "samples.csv").read_bytes() == want

    def test_density_artifacts(self, tmp_path):
        code, out = run_cli(tmp_path, "brownian-density", TWO_WALKERS,
                            "--grid", "-2:2:5")
        assert code == 0
        rows = read_rows(out / "density.csv")
        assert len(rows) == 5
        assert all(float(r["r1"]) >= 0.0 for r in rows)
        report = read_json(out / "brownian_density_report.json")
        assert report["r1_integral_deviation"] < 1e-6
        assert report["z_n_route_gap"] < 1e-8

    def test_four_walker_density_normalizes(self, tmp_path):
        pts = [[-1.5, 1], [-0.5, 1], [0.5, 1], [1.5, 1]]
        config = {"starts": pts, "ends": pts, "t": 0.5}
        code, out = run_cli(tmp_path, "brownian-density", config,
                            "--grid", "-2:2:5")
        assert code == 0
        report = read_json(out / "brownian_density_report.json")
        assert report["walkers"] == 4
        assert report["z_n_route_gap"] < 1e-8

    def test_five_walker_positions(self, tmp_path):
        pts = [[float(i), 1] for i in range(5)]
        config = {"starts": pts, "ends": pts, "t": 0.5,
                  "sampling": {"count": 200}}
        code, out = run_cli(tmp_path, "brownian-sample", config)
        assert code == 0
        assert len(read_rows(out / "samples.csv")) == 200
        report = read_json(out / "sampling_report.json")
        assert report["walkers"] == 5
        assert report["mass_deviation_max"] < 1e-9
        assert report["series_residual_max"] < 1e-9

    def test_two_start_confluent_positions_match_r1(self, tmp_path):
        config = {"starts": [[-1.0, 3], [1.0, 3]], "ends": [[0.0, 6]],
                  "t": 0.5, "sampling": {"count": 3000}}
        code, out = run_cli(tmp_path, "brownian-sample", config)
        assert code == 0
        report = read_json(out / "sampling_report.json")
        assert report["walkers"] == 6
        chi = report["chi_square_vs_r1"]
        assert chi["bins"] == 40 and chi["points"] == 18_000
        assert chi["p_value"] > 0.01

    @pytest.mark.filterwarnings("ignore:position sampler")
    def test_sampling_artifacts_and_determinism(self, tmp_path):
        config = dict(TWO_WALKERS,
                      sampling={"count": 300},
                      paths={"count": 3, "time_points": 65})
        code, out1 = run_cli(tmp_path, "brownian-sample", config,
                             out_name="out1")
        assert code == 0
        samples = read_rows(out1 / "samples.csv")
        assert len(samples) == 300
        assert set(samples[0]) == {"x1", "x2"}
        report = read_json(out1 / "sampling_report.json")
        assert report["sampler"] == "exact chain-rule projection DPP"
        assert report["mass_deviation_max"] < 1e-9
        assert report["inversion_residual_max"] < 1e-11
        assert report["series_residual_max"] < 1e-9
        assert report["paths"]["count"] == 3
        assert report["chi_square_vs_r1"]["p_value"] >= 0.0
        assert (out1 / "paths.csv").exists()

        code, out2 = run_cli(tmp_path, "brownian-sample", config,
                             out_name="out2")
        assert code == 0
        assert (out1 / "samples.csv").read_bytes() == \
            (out2 / "samples.csv").read_bytes()
        assert (out1 / "paths.csv").read_bytes() == \
            (out2 / "paths.csv").read_bytes()

        code, out3 = run_cli(tmp_path, "brownian-sample", config,
                             "--seed", "7", out_name="out3")
        assert code == 0
        assert (out1 / "samples.csv").read_bytes() != \
            (out3 / "samples.csv").read_bytes()


class TestCsvArtifactBytes:
    """Each CSV artifact against the cell-by-cell oracle, fed the values
    the command computes, recomputed here through the library."""

    def test_kernel_grid(self, tmp_path):
        config = dict(TWO_BY_TWO, n=[2, 1], m=[1, 2])
        code, out = run_cli(tmp_path, "kernel-grid", config, "--grid", "-2:2:9")
        assert code == 0
        w1, w2 = weights_from_json(config)
        pair = MultiIndexPair.balanced(config["n"], config["m"])
        xs = np.linspace(-2.0, 2.0, 9)
        Kd = kernel_direct_grid(build_biorthogonal(pair, w1, w2), xs, xs)
        Kcd = kernel_cd_grid(build_cd_data(pair, w1, w2), xs, xs)
        assert (out / "kernel_grid.csv").read_bytes() == csv_oracle_bytes(
            KERNEL_GRID_HEADER, kernel_grid_rows(xs, Kd, Kcd))

    def test_brownian_kernel(self, tmp_path):
        code, out = run_cli(tmp_path, "brownian-kernel", TWO_WALKERS,
                            "--grid", "-2:2:7")
        assert code == 0
        w1, w2, pair = config_to_weights(BrownianConfig.from_json_dict(TWO_WALKERS))
        xs = np.linspace(-2.0, 2.0, 7)
        Kd = kernel_direct_grid(build_biorthogonal(pair, w1, w2), xs, xs)
        Kcd = kernel_cd_grid(build_cd_data(pair, w1, w2), xs, xs)
        assert (out / "kernel_grid.csv").read_bytes() == csv_oracle_bytes(
            KERNEL_GRID_HEADER, kernel_grid_rows(xs, Kd, Kcd))

    def test_density(self, tmp_path):
        code, out = run_cli(tmp_path, "brownian-density", TWO_WALKERS,
                            "--grid", "-2:2:7")
        assert code == 0
        xs = np.linspace(-2.0, 2.0, 7)
        r1 = r1_grid(correlation_kernel(BrownianConfig.from_json_dict(TWO_WALKERS)),
                     xs)
        assert (out / "density.csv").read_bytes() == csv_oracle_bytes(
            ("x", "r1"), zip(xs, r1))

    @pytest.mark.filterwarnings("ignore:position sampler")
    def test_samples(self, tmp_path):
        config = dict(TWO_WALKERS, sampling={"count": 40})
        code, out = run_cli(tmp_path, "brownian-sample", config, "--seed", "3")
        assert code == 0
        brownian = BrownianConfig.from_json_dict(config)
        draws = sample_projection_dpp(correlation_kernel(brownian),
                                      brownian.bridge_box(), 40, 3)
        assert (out / "samples.csv").read_bytes() == csv_oracle_bytes(
            ("x1", "x2"), draws.samples.tolist())

    def test_y_matrix(self, tmp_path):
        config = dict(TWO_BY_TWO, n=[2, 1], m=[1, 2])
        code, out = run_cli(tmp_path, "rh-verify", config)
        assert code == 0
        z = read_json(out / "rh_report.json")["z_points"][0]
        w1, w2 = weights_from_json(config)
        system = RhSystem(MultiIndexPair.balanced(config["n"], config["m"]),
                          w1, w2)
        Y = system.y_matrix(complex(z["re"], z["im"]))
        rows = [(r, c, Y[r, c].real, Y[r, c].imag)
                for r in range(Y.shape[0]) for c in range(Y.shape[1])]
        assert (out / "y_matrix.csv").read_bytes() == csv_oracle_bytes(
            ("row", "col", "re", "im"), rows)


# One small accepted run of each command: (config, extra arguments).
SMALL_RUNS = {
    "mop-solve": (DEFINING, ()),
    "kernel-grid": (RANK_ONE, ("--grid", "0:1:3")),
    "cd-check": (RANK_ONE, ("--grid", "0:1:3")),
    "rh-verify": (RANK_ONE, ()),
    "brownian-kernel": (TWO_WALKERS, ("--grid", "-2:2:7")),
    "brownian-density": (TWO_WALKERS, ("--grid", "-2:2:7")),
    "brownian-sample": (dict(TWO_WALKERS, sampling={"count": 40},
                             paths={"count": 2, "time_points": 64}), ()),
}


def artifact_bytes(out) -> dict:
    return {p.name: p.read_bytes() for p in out.iterdir()}


@pytest.mark.filterwarnings("ignore:position sampler")
class TestRerunIntoOneOut:
    @pytest.mark.parametrize("command", sorted(SMALL_RUNS))
    def test_success_failure_success(self, tmp_path, command):
        # a failure leaves only its report, and the next success removes it
        config, extra = SMALL_RUNS[command]
        code, out = run_cli(tmp_path, command, config, *extra)
        assert code == 0
        first = artifact_bytes(out)
        assert sorted(first) == sorted(cli.ARTIFACTS[command])
        code, _ = run_cli(tmp_path, command, "{ not json",
                          config_name="bad.json")
        assert code == 1
        assert [p.name for p in out.iterdir()] == ["error_report.json"]
        code, _ = run_cli(tmp_path, command, config, *extra)
        assert code == 0
        assert artifact_bytes(out) == first

    def test_refused_arguments_remove_the_named_command_artifacts(
            self, tmp_path, capsys):
        code, out = run_cli(tmp_path, "mop-solve", DEFINING)
        assert code == 0
        code, _ = run_cli(tmp_path, "mop-solve", DEFINING, "--bogus")
        assert code == 1
        assert [p.name for p in out.iterdir()] == ["error_report.json"]
        capsys.readouterr()

    def test_failure_removes_a_name_another_command_shares(self, tmp_path):
        # kernel_grid.csv is a name of kernel-grid and of brownian-kernel
        config, extra = SMALL_RUNS["kernel-grid"]
        code, out = run_cli(tmp_path, "kernel-grid", config, *extra)
        assert code == 0
        report = (out / "kernel_report.json").read_bytes()
        code, _ = run_cli(tmp_path, "brownian-kernel", "{ not json",
                          config_name="bad.json")
        assert code == 1
        assert sorted(p.name for p in out.iterdir()) == [
            "error_report.json", "kernel_report.json"]
        assert (out / "kernel_report.json").read_bytes() == report

    def test_sample_without_paths_removes_stale_paths(self, tmp_path):
        config, _ = SMALL_RUNS["brownian-sample"]
        code, out = run_cli(tmp_path, "brownian-sample", config)
        assert code == 0 and (out / "paths.csv").exists()
        without = {key: value for key, value in config.items() if key != "paths"}
        code, _ = run_cli(tmp_path, "brownian-sample", without)
        assert code == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "samples.csv", "sampling_report.json"]

    def test_in_process_runs_match_a_fresh_interpreter(self, tmp_path, capsys):
        # refused and --help calls first: the parser they leave behind is the
        # one every accepted run below parses with
        cli.build_parser.cache_clear()
        code, _ = run_cli(tmp_path, "mop-solve", DEFINING, "--bogus",
                          out_name="refused")
        assert code == 1
        code, _ = run_cli(tmp_path, "mop-solve", DEFINING, "--tol", "1e-3",
                          out_name="refused")
        assert code == 1
        assert main(["--help"]) == 0
        argvs = {}
        for command, (config, extra) in sorted(SMALL_RUNS.items()):
            code, out = run_cli(tmp_path, command, config, *extra,
                                out_name=command, config_name=command + ".json")
            assert code == 0
            argvs[command] = [command, "--config", str(tmp_path / (command + ".json")),
                              "--out", str(tmp_path / "fresh" / command), *extra]
        assert cli.build_parser.cache_info().misses == 1
        capsys.readouterr()
        src = os.path.dirname(os.path.dirname(mixedmop.__file__))
        code = ("import sys; from mixedmop.cli import main; "
                f"sys.exit(max(main(argv) for argv in {list(argvs.values())!r}))")
        result = subprocess.run([sys.executable, "-c", code],
                                env=dict(os.environ, PYTHONPATH=src),
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        for command in argvs:
            assert artifact_bytes(tmp_path / command) == \
                artifact_bytes(tmp_path / "fresh" / command), command

    def test_shorter_rerun_matches_a_fresh_run(self, tmp_path):
        # the default 61 x 61 grid, then 5 x 5 into the same --out
        code, out = run_cli(tmp_path, "kernel-grid", RANK_ONE)
        assert code == 0
        longer = (out / "kernel_grid.csv").stat().st_size
        code, _ = run_cli(tmp_path, "kernel-grid", RANK_ONE, "--grid", "-1:1:5")
        assert code == 0
        code, fresh = run_cli(tmp_path, "kernel-grid", RANK_ONE,
                              "--grid", "-1:1:5", out_name="fresh")
        assert code == 0
        assert (out / "kernel_grid.csv").stat().st_size < longer
        assert artifact_bytes(out) == artifact_bytes(fresh)

    @pytest.mark.parametrize("name", cli.ARTIFACTS["kernel-grid"])
    def test_symlinked_artifact_is_replaced_not_followed(self, tmp_path, name):
        target = tmp_path / "outside.txt"
        target.write_text("kept")
        out = tmp_path / "out"
        out.mkdir()
        (out / name).symlink_to(target)
        code, _ = run_cli(tmp_path, "kernel-grid", RANK_ONE, "--grid", "0:1:3")
        assert code == 0
        assert (out / name).is_file() and not (out / name).is_symlink()
        assert target.read_text() == "kept"
        code, fresh = run_cli(tmp_path, "kernel-grid", RANK_ONE,
                              "--grid", "0:1:3", out_name="fresh")
        assert code == 0
        assert artifact_bytes(out) == artifact_bytes(fresh)
