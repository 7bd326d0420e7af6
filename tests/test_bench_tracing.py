"""The benchmark's tracing wrappers still find every name they patch.

`bench/tracing.py` rebinds mixedmop functions by name for `--trace 1` runs
and reads fields of the results its hooks see.  These tests load it by
file path (nothing under `bench/` is changed), install and uninstall a
Recorder, and check that every patched attribute resolves, is wrapped while
installed and is put back afterwards, and that the result types the hooks
read still carry those fields.
"""

import dataclasses
import importlib.util
import json
import pathlib
import sys

import mixedmop.cli
from mixedmop import PathBundles, PositionSamples

TRACING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    """bench/tracing.py as a fresh module, with no bytecode cache written
    under bench/."""
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def patched_targets(tracing):
    """(owner, attribute) of every name the recorder wraps."""
    targets = []
    for mod_name, names in tracing.SPANNED.items():
        module = sys.modules["mixedmop." + mod_name]
        for qual in names:
            owner, attr = module, qual
            if "." in qual:
                cls_name, attr = qual.split(".")
                owner = getattr(module, cls_name)
            targets.append((owner, attr))
    targets.append((sys.modules["mixedmop.rh"], "adaptive_panel_integral"))
    targets.append((sys.modules["mixedmop.brownian"].KarlinMcGregorDensity,
                    "density"))
    return targets


def namespaces():
    """Every loaded mixedmop module and every class the recorder patches,
    with a copy of its attributes."""
    owners = [m for n, m in sys.modules.items()
              if m is not None and (n == "mixedmop" or n.startswith("mixedmop."))]
    owners += [mixedmop.rh.RhSystem, mixedmop.brownian.KarlinMcGregorDensity]
    return [(owner, dict(vars(owner))) for owner in owners]


def test_install_wraps_every_target_and_uninstall_restores():
    tracing = load_tracing()
    before = namespaces()
    targets = patched_targets(tracing)
    originals = [getattr(owner, attr) for owner, attr in targets]
    recorder = tracing.Recorder()
    recorder.install()
    try:
        for (owner, attr), original in zip(targets, originals):
            assert getattr(owner, attr) is not original, (owner, attr)
    finally:
        recorder.uninstall()
    for owner, attrs in before:
        now = vars(owner)
        assert set(now) == set(attrs), owner
        changed = [k for k, v in attrs.items() if now[k] is not v]
        assert changed == [], (owner, changed)


def test_hooks_read_existing_fields(tmp_path):
    fields = {f.name for f in dataclasses.fields(PathBundles)}
    assert {"attempted", "acceptance_rate"} <= fields
    assert "acceptance_rate" in {f.name for f in dataclasses.fields(PositionSamples)}

    # one traced run through each hooked layer the CLI reaches
    tracing = load_tracing()
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "starts": [[-1.0, 1], [1.0, 1]], "ends": [[-1.0, 1], [1.0, 1]],
        "t": 0.5, "sampling": {"count": 8},
        "paths": {"count": 2, "time_points": 64}}))
    recorder = tracing.Recorder()
    recorder.install()
    try:
        for command, extra in (("brownian-sample", ()),
                               ("brownian-kernel", ("--grid", "-2:2:5"))):
            assert mixedmop.cli.main([command, "--config", str(config),
                                      "--out", str(tmp_path / command),
                                      *extra]) == 0
    finally:
        recorder.uninstall()
    counters = recorder.counters
    assert counters["brownian.sample_paths.attempted"] > 0
    assert counters["kernel.kernel_cd_grid.band_cells"] == 5
    assert counters["util.write_csv.bytes"] > 0
    assert "cli.main" in recorder.self_times()
