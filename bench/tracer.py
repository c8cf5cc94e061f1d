"""Spans around attricom's public functions, for the traced benchmark run.

Each span wraps one function where its caller looks it up (a module
attribute), so the package itself carries no tracing code. Spans are kept as
per-name totals: time inside the span, self time (the span minus the time
its child spans and their wrappers cover) and call count. A few spans also
count what the call did, such as whether a node update moved the row.

A target that a later version of the package no longer has is skipped and
reported as absent; the metrics it feeds then read 0.
"""

from __future__ import annotations

import functools
import importlib
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

# (module, attribute, span name). A span may have several targets: the same
# function is looked up in different modules by different callers.
TARGETS = (
    ("attricom.cli", "main", "cli.main"),
    ("attricom.cli", "read_edge_file", "fileio.read"),
    ("attricom.cli", "read_attr_file", "fileio.read"),
    ("attricom.cli", "write_community_file", "fileio.write"),
    ("attricom.cli", "write_weights_file", "fileio.write"),
    ("attricom.cli", "write_manifest", "fileio.write"),
    ("attricom.cli", "sha256_file", "fileio.digest"),
    ("attricom.cli", "build_graph", "core.build_graph"),
    ("attricom.cli", "choose_num_communities", "selection.choose"),
    ("attricom.cli", "fit", "solver.fit"),
    ("attricom.cli", "threshold_memberships", "solver.threshold"),
    ("attricom", "fit", "solver.fit"),
    ("attricom", "threshold_memberships", "solver.threshold"),
    ("attricom.solver", "fit", "solver.fit"),
    ("attricom.solver", "update_node", "solver.update_node"),
    ("attricom.solver", "update_attr_weights", "solver.update_attr"),
    ("attricom.solver", "objective", "likelihood.objective"),
    ("attricom.solver", "init_affiliations", "seeding.init"),
    ("attricom.seeding", "locally_minimal_neighborhoods", "seeding.neighborhoods"),
    ("attricom.selection", "make_holdout", "selection.make_holdout"),
    ("attricom.selection", "holdout_loglik", "selection.holdout_loglik"),
    ("attricom", "planted_instance", "synthetic.generate"),
    ("attricom", "remove_edges", "synthetic.generate"),
    ("attricom", "forest_fire", "synthetic.generate"),
    ("attricom", "bernoulli_attributes", "synthetic.generate"),
)


class Patches:
    """Module attributes replaced by wrappers, restored in reverse order."""

    def __init__(self):
        self._saved = []

    def wrap(self, module_name: str, attr: str, make) -> bool:
        """Replace module.attr by make(original); False when it is missing."""
        module = importlib.import_module(module_name)
        original = getattr(module, attr, None)
        if original is None:
            return False
        self._saved.append((module, attr, original))
        setattr(module, attr, make(original))
        return True

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


def _moved_row(matrix_arg, counter):
    """Hooks counting calls f(i, G, F, W, ...) that changed row i of
    args[matrix_arg].values (F for node updates, W for attribute updates)."""
    def before(args):
        return args[matrix_arg].values[args[0]].copy()

    def after(args, result, row_before):
        return {counter: int(not np.array_equal(args[matrix_arg].values[args[0]], row_before))}
    return before, after


def _fit_counts(args, result, _):
    degrees = args[0].degrees
    zero = ~result.F.values.any(axis=1) & (degrees > 0)
    return {"solver.iterations": result.iterations_run, "solver.zero_rows": int(zero.sum())}


# span name -> (before hook or None, after hook). The before hook's value is
# passed to the after hook, which returns counts by counter name.
HOOKS = {
    "solver.update_node": _moved_row(2, "solver.rows_moved"),
    "solver.update_attr": _moved_row(3, "solver.attrs_moved"),
    "solver.fit": (None, _fit_counts),
    "seeding.neighborhoods": (None, lambda args, result, _: {"seeding.seed_sets": len(result)}),
}


class Tracer:
    """Per-span totals of the calls made while installed."""

    def __init__(self):
        self.patches = Patches()
        self.absent: list[str] = []
        self.broken: set[str] = set()
        self.reset()

    def reset(self) -> None:
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self._open: list[float] = []  # child time covered, per open span

    def install(self) -> None:
        self.absent = []
        for module, attr, span in TARGETS:
            if not self.patches.wrap(module, attr, lambda fn, span=span: self._wrap(span, fn)):
                self.absent.append(f"{module}.{attr}")

    def restore(self) -> None:
        self.patches.restore()

    def _wrap(self, span, fn):
        before, after = HOOKS.get(span, (None, None))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entered = perf_counter()
            token = self._hook(span, before, args) if before else None
            self._open.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self.total[span] += elapsed
                self.self_time[span] += elapsed - self._open.pop()
                self.calls[span] += 1
            if after:
                self.counts.update(self._hook(span, after, args, result, token) or {})
            if self._open:
                self._open[-1] += perf_counter() - entered
            return result
        return wrapper

    def _hook(self, span, hook, *args):
        # A hook reads the arguments by position; if a later signature moves
        # them, the counter is reported broken instead of failing the run.
        try:
            return hook(*args)
        except (AttributeError, IndexError, TypeError, KeyError):
            self.broken.add(span)
            return None

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the calls made since the last reset."""
        T, S, N, C = self.total, self.self_time, self.calls, self.counts
        updates = N["solver.update_node"]
        attr_updates = N["solver.update_attr"]
        return {
            "solver.node_pass_s": T["solver.update_node"],
            "solver.node_updates": updates,
            "solver.node_update_us": 1e6 * T["solver.update_node"] / updates if updates else 0.0,
            "solver.rows_moved_ratio": C["solver.rows_moved"] / updates if updates else 0.0,
            "solver.attr_pass_s": T["solver.update_attr"],
            "solver.attr_updates": attr_updates,
            "solver.attr_moved_ratio": (C["solver.attrs_moved"] / attr_updates
                                        if attr_updates else 0.0),
            "solver.iterations": C["solver.iterations"],
            "solver.self_s": S["solver.fit"],
            "solver.threshold_s": T["solver.threshold"],
            "solver.zero_rows": C["solver.zero_rows"],
            "likelihood.objective_s": T["likelihood.objective"],
            "likelihood.objective_calls": N["likelihood.objective"],
            "seeding.neighborhoods_s": T["seeding.neighborhoods"],
            "seeding.init_self_s": S["seeding.init"],
            "seeding.seed_sets": C["seeding.seed_sets"],
            "fileio.read_s": T["fileio.read"],
            "fileio.write_s": T["fileio.write"],
            "fileio.digest_s": T["fileio.digest"],
            "core.build_graph_s": T["core.build_graph"],
            "cli.self_s": S["cli.main"],
            "selection.make_holdout_s": T["selection.make_holdout"],
            "selection.holdout_loglik_s": T["selection.holdout_loglik"],
            "selection.self_s": S["selection.choose"],
            "synthetic.generate_s": T["synthetic.generate"],
        }


# Every per-layer metric with its unit, in the order BENCHMARK.json lists them.
UNITS = {
    "solver.node_pass_s": "s", "solver.node_updates": "count",
    "solver.node_update_us": "us", "solver.rows_moved_ratio": "ratio",
    "solver.attr_pass_s": "s", "solver.attr_updates": "count",
    "solver.attr_moved_ratio": "ratio", "solver.iterations": "count",
    "solver.self_s": "s", "solver.threshold_s": "s", "solver.zero_rows": "count",
    "likelihood.objective_s": "s", "likelihood.objective_calls": "count",
    "seeding.neighborhoods_s": "s", "seeding.init_self_s": "s",
    "seeding.seed_sets": "count", "fileio.read_s": "s", "fileio.write_s": "s",
    "fileio.digest_s": "s", "core.build_graph_s": "s", "cli.self_s": "s",
    "selection.make_holdout_s": "s", "selection.holdout_loglik_s": "s",
    "selection.self_s": "s", "synthetic.generate_s": "s", "trace.overhead_s": "s",
}
