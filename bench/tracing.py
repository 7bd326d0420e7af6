"""Spans and counters recorded around calls into mixedmop's public functions.

The recorder rebinds module attributes for the length of a traced pass:
every loaded ``mixedmop`` module that holds the original function under
some name (``cli`` imports most layer functions by name) gets the wrapper,
and class attributes are patched on the class.  Nothing under ``src/`` is
edited, and ``uninstall`` puts every original back, so untraced passes run
the program exactly as shipped.

A span is (name, start, end, parent).  Self time of a span is its duration
minus the durations of its direct children.
"""

from __future__ import annotations

import os
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

# module -> functions that get a span.  "Class.method" patches the class.
SPANNED = {
    "cli": ("main",),
    "_util": ("write_csv", "dump_json"),
    "weights": ("build_moment_table", "adaptive_gauss_legendre"),
    "mop": ("solve_mixed", "check_normality"),
    "kernel": ("build_biorthogonal", "build_cd_data", "kernel_direct_grid",
               "kernel_cd_grid", "kernel_routes_report", "trace_quadrature",
               "idempotence_residual"),
    "rh": ("RhSystem.y_matrix", "RhSystem.x_matrix", "cauchy_transform",
           "verify_jump", "asymptotic_errors", "kernel_rh_grid",
           "rh_verification_report"),
    "brownian": ("km_density", "correlation_kernel", "sample_positions",
                 "sample_paths", "r1_grid", "chi_square_report",
                 "write_density_grid_csv", "write_samples_csv",
                 "write_paths_csv"),
}

MODULES = tuple(m.lstrip("_") for m in SPANNED)


def _counting(fn, counters, key):
    def counted(*args, **kwargs):
        counters[key] += 1
        return fn(*args, **kwargs)
    return counted


class Recorder:
    """In-memory spans and counters for one traced run."""

    def __init__(self):
        self.origin = perf_counter()
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counters: defaultdict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def _spanned(self, name, fn, after=None):
        counters = self.counters

        def wrapper(*args, **kwargs):
            counters[name + ".calls"] += 1
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                counters[name + ".failed"] += 1
                raise
            finally:
                self.close(idx)
            if after is not None:
                after(args, kwargs, result)
            return result
        return wrapper

    # -- layer-specific counters ---------------------------------------------

    def _after_hooks(self):
        c = self.counters

        def csv_bytes(args, kwargs, _):
            c["util.write_csv.bytes"] += os.path.getsize(args[0])

        def band_cells(args, kwargs, _):
            data, xs, ys = args[:3]
            xs = np.asarray(xs, dtype=float)
            ys = np.asarray(ys, dtype=float)
            c["kernel.kernel_cd_grid.band_cells"] += int(np.count_nonzero(
                np.abs(xs[:, None] - ys[None, :]) <= data.delta_diag))

        def mcmc(args, kwargs, draws):
            c["brownian.mcmc_acceptance_sum"] += draws.acceptance_rate

        def paths(args, kwargs, bundles):
            c["brownian.sample_paths.attempted"] += bundles.attempted
            c["brownian.sample_paths.accepted"] += (bundles.acceptance_rate
                                                   * bundles.attempted)

        return {"util.write_csv": csv_bytes,
                "kernel.kernel_cd_grid": band_cells,
                "brownian.sample_positions": mcmc,
                "brownian.sample_paths": paths}

    # -- installing and removing the wrappers -------------------------------

    def install(self) -> None:
        import mixedmop.brownian
        import mixedmop.rh

        loaded = [m for n, m in sys.modules.items()
                  if m is not None and (n == "mixedmop" or n.startswith("mixedmop."))]
        hooks = self._after_hooks()
        c = self.counters

        def counted_integrand(fn, key):
            def inner(f, *args, **kwargs):
                return fn(_counting(f, c, key), *args, **kwargs)
            return inner

        replacements = []  # (owner, original, wrapper)
        for mod_name, names in SPANNED.items():
            module = sys.modules["mixedmop." + mod_name]
            short = mod_name.lstrip("_")
            for qual in names:
                owner, attr = module, qual
                if "." in qual:
                    cls_name, attr = qual.split(".")
                    owner = getattr(module, cls_name)
                original = getattr(owner, attr)
                span_name = f"{short}.{attr}"
                fn = original
                if span_name == "weights.adaptive_gauss_legendre":
                    fn = counted_integrand(original,
                                           "weights.adaptive_gauss_legendre.evals")
                replacements.append((owner, original,
                                     self._spanned(span_name, fn, hooks.get(span_name))))

        # Counter-only wrappers: integrand calls of the panel quadrature (one
        # per Gauss-Legendre panel) and evaluations of the joint density.
        replacements.append((mixedmop.rh, mixedmop.rh.adaptive_panel_integral,
                             counted_integrand(mixedmop.rh.adaptive_panel_integral,
                                               "rh.panels")))
        kmd = mixedmop.brownian.KarlinMcGregorDensity
        replacements.append((kmd, kmd.density,
                             _counting(kmd.density, c, "brownian.density_evals")))

        for owner, original, wrapper in replacements:
            targets = loaded if not isinstance(owner, type) else [owner]
            for target in targets:
                for attr, value in list(vars(target).items()):
                    if value is original:
                        self._patches.append((target, attr, original))
                        setattr(target, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            target, attr, original = self._patches.pop()
            setattr(target, attr, original)

    # -- reports -----------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Total self time per span name, in seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: defaultdict[str, float] = defaultdict(float)
        for (name, start, end, _), sub in zip(self.spans, child):
            out[name] += (end - start) - sub
        return dict(out)

    def to_json(self) -> dict:
        return {
            "spans": [{"name": n, "start": s - self.origin, "end": e - self.origin,
                       "parent": p} for n, s, e, p in self.spans],
            "counters": dict(self.counters),
        }
