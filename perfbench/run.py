#!/usr/bin/env python3
"""hesnet benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  One workload (see workloads.py) runs
through `hesnet.cli.main(argv)` in this process, repeated until S seconds
are used (at least once), and every command's output is checked.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics of BENCHMARK.json
with --trace 0, the per-layer ones with --trace 1.  A fuller report
(environment, raw samples, the span table) is written to .perfbench_out/
in the checkout.

Host pace.  On a shared host the same pass can take half as long again
for seconds to minutes at a time, because other tenants load the machine.
So a tiny fixed reference kernel is timed every TICK_S during each pass
(from a signal handler; its own time is taken out of the pass), and the
end-to-end times are reported at the reference pace: raw seconds times
KERNEL_NOMINAL_S over the median kernel time measured alongside.  Set-up
probes are paced by kernel runs just before and after each.  The raw
times are in the report.

--tiny shrinks every workload to a few seconds for the self-test
(test_bench.py); reference hashes are not checked then.
"""

import os

# One BLAS thread, set before numpy loads: every run uses a single core.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import io
import json
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import numpy as np

from spans import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 5

# Median reference-kernel time on a 2-vCPU Intel Xeon host (Python 3.11,
# numpy 2.4).  It only scales the reported times, so a comparison between
# two commits measured by this file does not depend on it.
KERNEL_NOMINAL_S = 0.00008
TICK_S = 0.025

# A fresh interpreter up to the first command being ready to run.
PROBE = ("import sys; sys.path.insert(0, sys.argv[1]); import hesnet.cli; "
         "hesnet.cli.resolve_config(preset=sys.argv[2]); print('ready', flush=True)")


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

_X = np.linspace(0.1, 3.0, 400)
_Y = _X[::-1].copy()


def reference_kernel() -> float:
    """Seconds for a fixed bit of interpreter-loop and small-array numpy
    work (powers, logs, selects), the kinds of work hesnet does; about 0.1 ms."""
    t0 = perf_counter()
    total = 0
    for i in range(800):
        total += i % 7
    for _ in range(6):
        e = np.exp2(_X) - 1.0
        g = np.log(_X + 1.0)
        np.where(e > g, e / _X, g * _Y).sum()
    return perf_counter() - t0


def pace_now() -> float:
    return statistics.median(reference_kernel() for _ in range(25))


def at_reference_pace(seconds: float, pace: float) -> float:
    return seconds * KERNEL_NOMINAL_S / pace


class PaceSampler:
    """While active, times the reference kernel every TICK_S from a SIGALRM
    handler, between two bytecodes of whatever the process is running.

    Each tick runs the kernel twice and keeps the second time: the first
    run refills the caches the pass evicted, so a pass that moves more
    memory does not read as a slower host.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        t0 = perf_counter()
        reference_kernel()
        self.samples.append(reference_kernel())
        self.spent += perf_counter() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def pace(self) -> float:
        return statistics.median(self.samples) if len(self.samples) >= 5 else pace_now()


class Rep:
    """One pass over a workload's commands."""

    def __init__(self):
        self.wall = 0.0       # seconds, less the time spent in pace ticks
        self.pace = None      # median reference-kernel seconds during the pass
        self.command_s: dict[str, float] = {}     # command kind -> seconds
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []


def run_rep(cli, commands, rep_dir: Path, sample_pace: bool) -> Rep:
    shutil.rmtree(rep_dir, ignore_errors=True)
    rep = Rep()
    outcomes = []
    sampler = PaceSampler()
    with sampler if sample_pace else nullcontext():
        start = perf_counter()
        for cmd in commands:
            t0 = perf_counter()
            captured = io.StringIO()
            try:
                with redirect_stdout(captured), redirect_stderr(captured):
                    rc = cli.main(cmd.argv)
                error = None if rc == 0 else f"exit code {rc}"
            except (Exception, SystemExit) as exc:   # a failed command is counted, not fatal
                error = f"{type(exc).__name__}: {exc}"
            rep.command_s[cmd.kind] = rep.command_s.get(cmd.kind, 0.0) + perf_counter() - t0
            outcomes.append((cmd, error, captured.getvalue()))
        rep.wall = perf_counter() - start - sampler.spent
    if sample_pace:
        rep.pace = sampler.pace()
    for cmd, error, output in outcomes:
        problems = [f"{error}; output: {output.strip()[-500:]}"] if error else cmd.check()
        rep.attempted += 1
        if problems:
            rep.failed += 1
            rep.problems += [f"{' '.join(cmd.argv[:2])}: {p}" for p in problems]
    return rep


def repeat(seconds: float, step) -> list:
    """Call step() until the next call, at the mean time per call so far,
    would end past `seconds` (at least once)."""
    out = []
    start = perf_counter()
    while True:
        out.append(step())
        elapsed = perf_counter() - start
        if elapsed + elapsed / len(out) > seconds:
            return out


def setup_time(preset: str) -> tuple[float, float]:
    """Raw seconds from a fresh interpreter to the first command being
    ready, and the mean host pace just before and just after."""
    before = pace_now()
    t0 = perf_counter()
    with subprocess.Popen([sys.executable, "-c", PROBE, str(SRC), preset],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        _, err = proc.communicate(timeout=120)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode}): {err.strip()[-500:]}")
    return elapsed, (before + pace_now()) / 2


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6   # KiB on Linux


def environment() -> dict:
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    env = {
        "cpu_model": cpu, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"], "git_revision": None, "git_dirty": None,
    }
    if (ROOT / ".git").exists():
        def git(*args):
            return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                                  timeout=30).stdout.strip()
        env["git_revision"] = git("rev-parse", "HEAD") or None
        env["git_dirty"] = bool(git("status", "--porcelain", "--untracked-files=no"))
    return env


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def end_to_end_metrics(reps, probes) -> dict:
    return {
        "wall_s": (statistics.median(at_reference_pace(r.wall, r.pace) for r in reps), "s"),
        "setup_s": (statistics.median(at_reference_pace(t, p) for t, p in probes), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def per_layer_metrics(tracer: Tracer, traced, untraced) -> dict:
    """Per traced pass, in raw seconds: self time unless marked total,
    counts, and latency percentiles pooled over every call."""
    n = len(traced)
    wall = statistics.fmean(r.wall for r in traced)
    m: dict = {}

    def span(name, total=False, calls=False, latency=False):
        m[f"{name}.s"] = ((tracer.total_time(name) if total else tracer.self_time(name)) / n, "s")
        if calls or latency:
            m[f"{name}.calls"] = (tracer.calls(name) / n, "count")
        if latency:
            p50, p99 = tracer.percentiles_us(name)
            m[f"{name}.p50_us"], m[f"{name}.p99_us"] = (p50, "us"), (p99, "us")

    def counter(name, key, scale=1.0, unit="count"):
        m[name] = (tracer.counters.get(key, 0.0) / n * scale, unit)

    span("model.sample_trajectories")
    span("offline.greedy_assignment", latency=True)
    counter("offline.greedy_steps", "greedy_steps")
    span("offline.multiuser_greedy_assignment")
    span("offline.to_ip_instance")
    span("mdp.build_mdp_model")
    span("mdp.monotone_backward_induction")
    counter("mdp.walk_evals", "walk_evals")
    dense = tracer.counters.get("walk_dense_evals", 0.0)
    m["mdp.walk_eval_ratio"] = (tracer.counters.get("walk_evals", 0.0) / dense if dense else 0.0,
                                "ratio")
    span("mdp.save_policy_artifact")
    span("mdp.load_policy_artifact")
    span("sim.file_sha256")
    span("policies.calibrate_zeta", total=True)
    counter("policies.calibrate_zeta.candidate_frames", "candidate_frames")
    span("policies.look_ahead_build", total=True)
    m["policies.decide_batch.s"] = (tracer.self_time_matching(".decide_batch") / n, "s")
    m["policies.decide_joint.s"] = (tracer.self_time_matching(".decide_joint") / n, "s")
    span("sim.run_batch", calls=True)
    counter("sim.run_batch.frame_blocks", "frame_blocks")
    span("sim.run_frame", latency=True)
    span("sim.run_frame_multiuser", latency=True)
    span("sim.sample_multiuser_trajectories")
    span("cli.resolve_config")
    span("cli.main")
    m["cli.untraced_s"] = (wall - tracer.top_level_total / n, "s")
    m["train_s"] = (statistics.fmean(r.command_s.get("mdp-train", 0.0) for r in untraced), "s")
    m["simulate_s"] = (statistics.fmean(r.command_s.get("simulate", 0.0) for r in untraced), "s")
    counter("artifact_mb", "artifact_bytes", 1e-6, "MB")
    m["trace.wall_s"] = (wall, "s")
    m["trace.overhead_s"] = (wall - statistics.fmean(r.wall for r in untraced), "s")
    return m


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true", help="self-test sizes; no reference hashes")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hesnet" / "cli.py").is_file():
        print(f"perfbench: no hesnet sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import hesnet
    import hesnet.cli as cli

    workload = WORKLOADS[args.workload]
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    commands = workload.commands(args.seed, work / "rep", args.tiny)

    def one_rep(sample_pace=True):
        return run_rep(cli, commands, work / "rep", sample_pace)

    try:
        if args.trace == 0:
            probes = [setup_time(workload.preset) for _ in range(SETUP_PROBES)]
            reps = repeat(args.seconds, one_rep)
            metrics = end_to_end_metrics(reps, probes)
            detail = {"setup_s_raw": [t for t, _ in probes], "wall_s_raw": [r.wall for r in reps],
                      "pace_s": [r.pace for r in reps]}
        else:
            # no pace ticks here: a tick would land in whichever span it interrupts
            tracer = Tracer()
            untraced, traced = [], []

            def pair():
                untraced.append(one_rep(sample_pace=False))
                tracer.install(hesnet)
                try:
                    traced.append(one_rep(sample_pace=False))
                finally:
                    tracer.uninstall()

            repeat(args.seconds, pair)
            reps = untraced + traced
            metrics = per_layer_metrics(tracer, traced, untraced)
            span_self = sum(s.self_time for s in tracer.stats.values()) / len(traced)
            detail = {
                "untraced_wall_s_raw": [r.wall for r in untraced],
                "traced_wall_s_raw": [r.wall for r in traced],
                "spans_self_sum_s": span_self,
                "spans_self_sum_plus_untraced_s": span_self + metrics["cli.untraced_s"][0],
                "counter_errors": tracer.counters.get("counter_errors", 0),
                "span_table": tracer.table(),
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(r.failed for r in reps)
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "environment": environment(),
        "passes": len(reps), "command_s_raw": [r.command_s for r in reps],
        "problems": sorted({p for r in reps for p in r.problems}), **detail,
    }
    OUT.mkdir(exist_ok=True)
    report_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=1) + "\n")
    for problem in report["problems"][:20]:
        print(f"problem: {problem}")
    print(f"environment: {json.dumps(report['environment'])}")
    print(f"{len(reps)} passes; report in {report_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r.attempted for r in reps),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
