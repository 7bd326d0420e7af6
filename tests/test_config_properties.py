"""Property test of the exit-code contract: whatever JSON values fill the
fields of a config for any of the seven commands, the command exits 0
(success), 1 (validation) or 2 (numerical failure), never 3 (internal
error).

A draw starts from a config and replaces up to two of its fields, at any
depth, by an arbitrary JSON value, so that every field is reached with the
rest as drawn.  Weight problems have 1 or 2 weights per side, drawn apart
from the number of parts of n and m (so a family and its multi-index may
disagree), and multi-index parts <= 4.  A weight's variance and amplitude
are drawn log-uniformly from [1e-300, 1e300] and its center from up to
MAX_CENTER_SIGMAS = 1e12 standard deviations, the whole domain a config
may declare.  Brownian configs are valid before the replacement, with at
most 4 walkers on well-separated points, at most 50 draws and at most 5
path bundles.  The grid commands run on the fixed
5-point grid GRID.
"""

import json
import math
import os
import tempfile

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from mixedmop.cli import main  # noqa: E402
from mixedmop.weights import MAX_CENTER_SIGMAS  # noqa: E402

SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-10, 10),
    st.sampled_from([10 ** 400, -(10 ** 30), 1e300, -1e300, 1e-300]),
    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=4))
JUNK = st.one_of(SCALARS, st.lists(SCALARS, max_size=3),
                 st.dictionaries(st.text(max_size=3), SCALARS, max_size=2))


def _parts(draw, total):
    """Up to two parts <= 4 summing to total (total <= 8)."""
    if total > 4 or draw(st.booleans()):
        first = draw(st.integers(max(0, total - 4), min(4, total)))
        return [first, total - first]
    return [total]


@st.composite
def configs(draw, command):
    def weight():
        variance = 10.0 ** draw(st.floats(-300, 300))
        sds = draw(st.floats(-1, 1)) * 10.0 ** draw(
            st.floats(0, math.log10(MAX_CENTER_SIGMAS)))
        return {"kind": "gaussian", "center": sds * math.sqrt(variance),
                "variance": variance,
                "amplitude": 10.0 ** draw(st.floats(-300, 300))}

    n = draw(st.lists(st.integers(1, 4), min_size=1, max_size=2))
    config = {"n": n, "m": _parts(draw, sum(n) - (command == "mop-solve"))}
    for side in ("w1", "w2"):
        config[side] = [weight() for _ in range(draw(st.integers(1, 2)))]
    if command == "mop-solve":
        config["normalization"] = {"kind": draw(st.sampled_from(["I", "II"])),
                                   "index": draw(st.integers(0, 2))}
    return _replace_fields(draw, config)


@st.composite
def brownian_configs(draw, command):
    def points(multiplicities):
        return [[1.5 * i - 1.5 + draw(st.floats(-0.3, 0.3)), k]
                for i, k in enumerate(multiplicities)]

    paths = command == "brownian-sample" and draw(st.booleans())
    # path bundles need distinct points, so multiplicities stay 1 with paths
    starts = draw(st.lists(st.integers(1, 1 if paths else 2), min_size=1,
                           max_size=3).filter(lambda ks: sum(ks) <= 4))
    config = {"starts": points(starts), "ends": points([1] * sum(starts)),
              "t": draw(st.floats(0.1, 0.9)), "n_scaling": draw(st.booleans())}
    if command == "brownian-sample":
        config["sampling"] = {"count": draw(st.integers(1, 50))}
    if paths:
        config["paths"] = {"count": draw(st.integers(1, 5)), "time_points": 64}
    return _replace_fields(draw, config)


def _replace_fields(draw, config):
    # every place a value sits: (container, key) at any depth
    slots = []

    def collect(node):
        for key in (node if isinstance(node, dict) else range(len(node))):
            slots.append((node, key))
            if isinstance(node[key], (dict, list)):
                collect(node[key])

    collect(config)
    for i in draw(st.lists(st.integers(0, len(slots) - 1), max_size=2,
                           unique=True)):
        node, key = slots[i]
        node[key] = draw(JUNK)
    return config


GRID = ("--grid", "-2:2:5")


def exit_code(command, config, *extra):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w") as fh:
            json.dump(config, fh)
        return main([command, "--config", path, "--out",
                     os.path.join(tmp, "out"), *extra])


PROPERTY = settings(derandomize=True, max_examples=150, deadline=None,
                    database=None)


# type I coefficients of about e^2500, which exited 0 with infinite ones
FAR_APART = {"w1": [{"kind": "gaussian", "center": 0.0, "variance": 1.0}],
             "w2": [{"kind": "gaussian", "center": 100.0, "variance": 1.0}],
             "n": [2], "m": [1], "normalization": {"kind": "I", "index": 0}}


@PROPERTY
@given(config=configs("mop-solve"))
@example(config=FAR_APART)
def test_mop_solve_exit_code(config):
    assert exit_code("mop-solve", config) in (0, 1, 2)


@PROPERTY
@given(config=configs("rh-verify"))
def test_rh_verify_exit_code(config):
    assert exit_code("rh-verify", config) in (0, 1, 2)


@PROPERTY
@given(config=brownian_configs("brownian-sample"))
def test_brownian_sample_exit_code(config):
    assert exit_code("brownian-sample", config) in (0, 1, 2)


@PROPERTY
@given(config=brownian_configs("brownian-density"))
def test_brownian_density_exit_code(config):
    assert exit_code("brownian-density", config) in (0, 1, 2)


@PROPERTY
@given(config=configs("kernel-grid"))
def test_kernel_grid_exit_code(config):
    assert exit_code("kernel-grid", config, *GRID) in (0, 1, 2)


@PROPERTY
@given(config=configs("cd-check"))
def test_cd_check_exit_code(config):
    assert exit_code("cd-check", config, *GRID) in (0, 1, 2)


@PROPERTY
@given(config=brownian_configs("brownian-kernel"))
def test_brownian_kernel_exit_code(config):
    assert exit_code("brownian-kernel", config, *GRID) in (0, 1, 2)
