"""Spans recorded from outside the program, around calls into each hesnet layer.

`Tracer.install()` replaces each traced function with one timing wrapper,
both in the module that defines it and in every hesnet module that
imported the name (`policies.run_batch`, `cli.sweep`, `sim.greedy_assignment`,
...), so a call is timed whichever name it goes through.  Policy methods
(`decide_batch`, `decide_joint`) are wrapped on their classes.
`uninstall()` puts every original back.

Spans are aggregated as they close: per span name the call count, total
and self time and every duration (for percentiles), and per (parent,
child) edge the call count and total time.  Self time is a span's
duration minus the time its child spans cover, so the self times of all
spans add up to the duration of the top-level spans.
"""

from __future__ import annotations

import functools
import inspect
import os
from array import array
from collections import defaultdict
from time import perf_counter

# Layer entry points, by defining module.  Left out on purpose: scalar
# physics (`channel_gain`, `inversion_power`, `kappa`, ...), quantizers and
# `energy_transition_probs`, the greedy solver's inner steps
# (`find_feasible`, `total_service_cost`, ...) and the scalar `*_decide`
# rules.  They run per block or per step inside an entry point listed
# here; a span each would cost more than the work it times and would move
# the entry point's own work out of its self time.
TRACED_FUNCTIONS = {
    "model": ("sample_trajectory", "sample_trajectories"),
    "offline": ("to_ip_instance", "greedy_assignment", "exhaustive_optimal",
                "expand_solution", "check_swap_optimality", "multiuser_greedy_assignment"),
    "mdp": ("build_grid", "build_mdp_model", "backward_induction",
            "monotone_backward_induction", "thresholds_from_policy",
            "save_policy_artifact", "load_policy_artifact"),
    "policies": ("threshold_lambdas", "look_ahead_build", "calibrate_zeta"),
    "sim": ("run_frame", "run_batch", "monte_carlo", "offline_frame_metrics",
            "metrics_from_arrays", "apply_axis", "metrics_row", "sweep", "tradeoff_region",
            "sample_multiuser_trajectories", "run_frame_multiuser",
            "multiuser_monte_carlo", "write_rows_csv", "write_manifest", "file_sha256"),
    "cli": ("main", "resolve_config"),
}
TRACED_METHODS = ("decide_batch", "decide_joint")
MODULES = ("model", "offline", "mdp", "policies", "sim", "cli")


class SpanStats:
    __slots__ = ("calls", "total", "self_time", "durations")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.durations = array("d")


class Tracer:
    def __init__(self):
        self.stats: dict[str, SpanStats] = defaultdict(SpanStats)
        self.edges: dict[tuple, list] = defaultdict(lambda: [0, 0.0])
        self.counters: dict[str, float] = defaultdict(float)
        self.top_level_total = 0.0
        self._stack: list[list] = []
        self._patches: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn, after=None):
        stats = self.stats[name]
        stack = self._stack
        signature = inspect.signature(fn) if after is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                stats.calls += 1
                stats.total += dur
                stats.self_time += dur - frame[1]
                stats.durations.append(dur)
                parent = stack[-1] if stack else None
                edge = self.edges[(parent[0] if parent else None, name)]
                edge[0] += 1
                edge[1] += dur
                if parent is None:
                    self.top_level_total += dur
                else:
                    parent[1] += dur
            if after is not None:
                try:
                    after(self.counters, signature.bind(*args, **kwargs).arguments, result)
                except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                    # the function's arguments or result changed shape: the
                    # counter stops counting, the command it observes goes on
                    self.counters["counter_errors"] += 1
            return result

        return traced

    # -- installation ------------------------------------------------------

    def install(self, package) -> None:
        """Wrap every traced function and method of `package` (hesnet)."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {name: getattr(package, name) for name in MODULES}
        namespaces = [package, *modules.values()]
        for mod_name, fn_names in TRACED_FUNCTIONS.items():
            module = modules[mod_name]
            for fn_name in fn_names:
                original = getattr(module, fn_name, None)
                if original is None:    # removed by a refactor: its metrics read 0
                    continue
                wrapper = self._wrap(f"{mod_name}.{fn_name}", original, COUNTERS.get(fn_name))
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            self._patches.append((ns, attr, original))
                            setattr(ns, attr, wrapper)
        for mod_name, module in modules.items():
            for cls in vars(module).values():
                if not (inspect.isclass(cls) and cls.__module__ == module.__name__):
                    continue
                for meth in TRACED_METHODS:
                    original = cls.__dict__.get(meth)
                    if original is not None:
                        self._patches.append((cls, meth, original))
                        setattr(cls, meth,
                                self._wrap(f"{mod_name}.{cls.__name__}.{meth}", original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- queries -----------------------------------------------------------

    def self_time(self, name: str) -> float:
        return self.stats[name].self_time if name in self.stats else 0.0

    def total_time(self, name: str) -> float:
        return self.stats[name].total if name in self.stats else 0.0

    def calls(self, name: str) -> int:
        return self.stats[name].calls if name in self.stats else 0

    def self_time_matching(self, suffix: str) -> float:
        return sum(s.self_time for n, s in self.stats.items() if n.endswith(suffix))

    def percentiles_us(self, name: str, qs=(50, 99)) -> list[float]:
        """Nearest-rank percentiles of one span's durations, in microseconds."""
        durations = sorted(self.stats[name].durations) if name in self.stats else []
        if not durations:
            return [0.0 for _ in qs]
        n = len(durations)
        return [durations[min(n - 1, max(0, -(-q * n // 100) - 1))] * 1e6 for q in qs]

    def table(self) -> dict:
        """Every span name with calls, total and self seconds, and every edge."""
        return {
            "spans": {n: {"calls": s.calls, "total_s": s.total, "self_s": s.self_time}
                      for n, s in sorted(self.stats.items()) if s.calls},
            "edges": [{"parent": p, "child": c, "calls": e[0], "total_s": e[1]}
                      for (p, c), e in sorted(self.edges.items(), key=lambda kv: str(kv[0]))],
        }


# -- counters computed from a traced call's arguments and result ------------

def _greedy_steps(counters, args, result):
    # greedy_assignment scans for feasible blocks once per pick, plus one
    # final scan that finds none unless every block was picked
    alpha = result[0]
    counters["greedy_steps"] += min(int(alpha.sum()) + 1, alpha.shape[0])


def _walk_evals(counters, args, result):
    table, _, counts = result
    counters["walk_evals"] += int(counts.sum())
    counters["walk_dense_evals"] += int(table.actions.size)   # N * M * K^2


def _candidate_frames(counters, args, result):
    counters["candidate_frames"] += len(list(args["candidates"])) * int(args["budget"])


def _frame_blocks(counters, args, result):
    counters["frame_blocks"] += int(len(result[0])) * int(args["params"].N)


def _artifact_bytes(counters, args, result):
    counters["artifact_bytes"] += os.path.getsize(args["path"])


COUNTERS = {
    "greedy_assignment": _greedy_steps,
    "monotone_backward_induction": _walk_evals,
    "calibrate_zeta": _candidate_frames,
    "run_batch": _frame_blocks,
    "save_policy_artifact": _artifact_bytes,
}
