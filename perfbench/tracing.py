"""Spans around calls into the program's public functions, and the per-layer
metrics derived from them.

`traced(recorder)` swaps each function listed in TRACED, in every program
module that holds it, for a wrapper that records a span: id, parent span,
operation, name, start and end.  Calls the program makes to itself (backup
inside solve, conditional_entropy inside greedy) are caught the same way, as
long as they look the function up in a module namespace.  The spans stay in
memory and are written out once, after the run.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from contextlib import contextmanager

PACKAGE = "pomdp_perception"

TRACED = {
    "pomdp": ("belief_update_intrinsic", "belief_update_auxiliary"),
    "pbvi": ("sample_beliefs_uniform", "solve", "backup", "prune", "point_values", "best_action"),
    "selection": (
        "generalized_greedy",
        "conditional_entropy",
        "brute_force_optimal",
        "check_distance_bound",
        "check_value_bound",
    ),
    "gridworld": ("build_pomdp", "uav_sources_at", "run_episode"),
    "bench": ("evaluate_instance",),
}


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


def _solve_attrs(args, kwargs, result):
    return {"iterations": result.iterations, "converged": bool(result.converged)}


def _backup_attrs(args, kwargs, result):
    pomdp = _arg(args, kwargs, 0, "pomdp")
    return {
        "A": pomdp.num_actions,
        "W": pomdp.num_observations,
        "S": pomdp.num_states,
        "K": len(_arg(args, kwargs, 1, "previous")),
        "B": len(_arg(args, kwargs, 2, "points")),
    }


def _prune_attrs(args, kwargs, result):
    return {"in": len(_arg(args, kwargs, 0, "vf")), "kept": len(result)}


def _entropy_attrs(args, kwargs, result):
    problem = _arg(args, kwargs, 0, "problem")
    subset = tuple(_arg(args, kwargs, 1, "subset"))
    rows = 1
    for i in subset:
        rows *= problem.sources[i].likelihood.shape[2]
    cost = sum(problem.sources[i].cost for i in subset)
    return {"rows": rows, "affordable": cost <= problem.budget}


def _episode_attrs(args, kwargs, result):
    return {"steps": len(result.steps)}


ATTRS = {
    "pbvi.solve": _solve_attrs,
    "pbvi.backup": _backup_attrs,
    "pbvi.prune": _prune_attrs,
    "selection.conditional_entropy": _entropy_attrs,
    "gridworld.run_episode": _episode_attrs,
}


class Recorder:
    """Spans as lists [id, parent, op, name, start_ns, end_ns, attrs]."""

    def __init__(self):
        self.spans = []
        self.op = -1
        self._stack = []

    def wrap(self, name, function):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        attrs = ATTRS.get(name)

        def traced_call(*args, **kwargs):
            span = [len(spans), stack[-1] if stack else -1, self.op, name, clock(), 0, None]
            spans.append(span)
            stack.append(span[0])
            try:
                result = function(*args, **kwargs)
            finally:
                span[5] = clock()
                stack.pop()
            if attrs is not None:
                span[6] = attrs(args, kwargs, result)
            return result

        return traced_call

    def write(self, path, header):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"format": "perfbench-trace v1", **header}) + "\n")
            keys = ("id", "parent", "op", "name", "start_ns", "end_ns", "attrs")
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


@contextmanager
def traced(recorder):
    """Route every call to a TRACED function through recorder spans."""
    modules = [importlib.import_module(PACKAGE)]
    modules += [importlib.import_module(f"{PACKAGE}.{m}") for m in TRACED]
    patched = []
    try:
        for module_name, names in TRACED.items():
            home = importlib.import_module(f"{PACKAGE}.{module_name}")
            for name in names:
                original = getattr(home, name, None)
                if original is None:
                    print(f"perfbench: {module_name}.{name} is gone, not traced", file=sys.stderr)
                    continue
                wrapper = recorder.wrap(f"{module_name}.{name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            patched.append((module, attr, original))
        yield recorder
    finally:
        for module, attr, original in reversed(patched):
            setattr(module, attr, original)


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def layer_metrics(spans):
    """Per-layer metrics from the spans of one traced batch.

    Times are means per call; counts are totals over the batch.  A layer the
    workload never calls reads 0.
    """
    by_name = {}
    child_ns = {}
    for span in spans:
        by_name.setdefault(span[3], []).append(span)
        if span[1] >= 0:
            child_ns[span[1]] = child_ns.get(span[1], 0) + span[5] - span[4]
    names = {span[0]: span[3] for span in spans}

    def named(name):
        return by_name.get(name, [])

    def calls(name):
        return len(named(name))

    def mean_ms(name):
        total_ns = sum(span[5] - span[4] for span in named(name))
        return _ratio(total_ns / 1e6, calls(name))

    def self_ms(name):
        own_ns = sum(span[5] - span[4] - child_ns.get(span[0], 0) for span in named(name))
        return _ratio(own_ns / 1e6, calls(name))

    def attr_sum(spans_of, key):
        return sum(span[6][key] for span in spans_of)

    backups = calls("pbvi.backup")
    gflop = sum(
        2.0 * a["A"] * a["W"] * a["K"] * a["S"] * (a["S"] + a["B"]) / 1e9
        for a in (span[6] for span in named("pbvi.backup"))
    )
    greedy_calls = calls("selection.generalized_greedy")
    # conditional_entropy calls made by greedy itself, not by brute force.
    greedy_entropy = [
        span
        for span in named("selection.conditional_entropy")
        if names.get(span[1]) == "selection.generalized_greedy"
    ]
    solves = named("pbvi.solve")
    return {
        "pbvi.solve.calls": (calls("pbvi.solve"), "count"),
        "pbvi.solve.iterations": (attr_sum(solves, "iterations"), "count"),
        "pbvi.solve.unconverged": (sum(not span[6]["converged"] for span in solves), "count"),
        "pbvi.backup.calls": (backups, "count"),
        "pbvi.backup.ms": (mean_ms("pbvi.backup"), "ms"),
        "pbvi.backup.alphas_in": (_ratio(attr_sum(named("pbvi.backup"), "K"), backups), "count"),
        "pbvi.backup.gflop": (_ratio(gflop, backups), "GFLOP"),
        "pbvi.prune.ms": (mean_ms("pbvi.prune"), "ms"),
        "pbvi.prune.kept_ratio": (
            _ratio(attr_sum(named("pbvi.prune"), "kept"), attr_sum(named("pbvi.prune"), "in")),
            "ratio",
        ),
        "pbvi.point_values.ms": (mean_ms("pbvi.point_values"), "ms"),
        "pbvi.sample_beliefs_uniform.ms": (mean_ms("pbvi.sample_beliefs_uniform"), "ms"),
        "pbvi.best_action.us": (mean_ms("pbvi.best_action") * 1e3, "us"),
        "pomdp.belief_update_intrinsic.us": (mean_ms("pomdp.belief_update_intrinsic") * 1e3, "us"),
        "pomdp.belief_update_auxiliary.us": (mean_ms("pomdp.belief_update_auxiliary") * 1e3, "us"),
        "gridworld.build_pomdp.ms": (mean_ms("gridworld.build_pomdp"), "ms"),
        "gridworld.uav_sources_at.ms": (mean_ms("gridworld.uav_sources_at"), "ms"),
        "gridworld.run_episode.self_ms": (self_ms("gridworld.run_episode"), "ms"),
        "gridworld.steps": (attr_sum(named("gridworld.run_episode"), "steps"), "count"),
        "selection.generalized_greedy.calls": (greedy_calls, "count"),
        "selection.generalized_greedy.ms": (mean_ms("selection.generalized_greedy"), "ms"),
        "selection.conditional_entropy.calls_per_greedy": (
            _ratio(len(greedy_entropy), greedy_calls),
            "count",
        ),
        "selection.conditional_entropy.rows_per_call": (
            _ratio(attr_sum(greedy_entropy, "rows"), len(greedy_entropy)),
            "count",
        ),
        "selection.conditional_entropy.us": (mean_ms("selection.conditional_entropy") * 1e3, "us"),
        "selection.greedy.affordable_ratio": (
            _ratio(attr_sum(greedy_entropy, "affordable"), len(greedy_entropy)),
            "ratio",
        ),
        "selection.brute_force_optimal.ms": (mean_ms("selection.brute_force_optimal"), "ms"),
        "selection.check_distance_bound.ms": (mean_ms("selection.check_distance_bound"), "ms"),
        "selection.check_value_bound.ms": (mean_ms("selection.check_value_bound"), "ms"),
        "bench.evaluate_instance.self_ms": (self_ms("bench.evaluate_instance"), "ms"),
    }
