"""The benchmark's workloads: the hesnet CLI commands each one runs, and
the checks on what those commands write.

Every workload takes its seed as an argument and passes it to the CLI as
`--seed`; the CLI derives all trajectories from it.  At the reference
seed the written CSVs must match the sha256 values in `reference.json`
(taken at the commit that introduced this benchmark).  At any seed every
CSV must have the pinned header, the expected (policy, axis, value) rows
in order, the run's frames and seed, and the cost identity per row:
mean_total_cost = w_G * grid_energy_j + w_D * users * N * drop_ratio.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

REFERENCE_SEED = 1
REFERENCE = json.loads(Path(__file__).with_name("reference.json").read_text())

CSV_HEADER = ["policy", "axis", "axis_value", "mean_total_cost", "stderr_total_cost",
              "grid_energy_j", "grid_energy_mj", "drop_ratio", "frames", "seed"]

# Default-preset physics every workload keeps: w_G, w_D and blocks per frame.
W_G, W_D, N_BLOCKS = 1.0, 0.01, 50

# policy token -> row name the CLI writes for it
ROW_NAMES = {"GT": "GT", "LookAhead": "Look-Ahead", "Threshold": "Threshold", "GA": "Greedy"}


def row_name(token: str) -> str:
    return ROW_NAMES.get(token, token)


@dataclass
class Command:
    """One CLI invocation and the check of the files it wrote."""

    argv: list[str]
    check: Callable[[], list[str]]

    @property
    def kind(self) -> str:
        return self.argv[0]


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str                      # preset of the first command, for the set-up probe
    commands: Callable[[int, Path, bool], list[Command]]   # (seed, out dir, tiny)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_rows_csv(path: Path, rows: list[tuple], frames: int, seed: int, users: int) -> list[str]:
    """Structure of one result CSV: header, row set, frames/seed, cost identity."""
    if not path.is_file():
        return [f"{path.name}: missing"]
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader, [])
        records = [dict(zip(header, r)) for r in reader]
    if header != CSV_HEADER:
        return [f"{path.name}: header {header} != {CSV_HEADER}"]
    got = [(r["policy"], r["axis"], float(r["axis_value"])) for r in records]
    if got != rows:
        return [f"{path.name}: rows {got} != expected {rows}"]
    problems = []
    for r in records:
        where = f"{path.name} {r['policy']}@{r['axis_value']}"
        if int(r["frames"]) != frames or int(r["seed"]) != seed:
            problems.append(f"{where}: frames/seed {r['frames']}/{r['seed']}, expected {frames}/{seed}")
        cost, grid, drop = (float(r[k]) for k in ("mean_total_cost", "grid_energy_j", "drop_ratio"))
        if not (0.0 <= drop <= 1.0 and grid >= 0.0 and float(r["stderr_total_cost"]) >= 0.0):
            problems.append(f"{where}: negative or out-of-range value")
        identity = W_G * grid + W_D * users * N_BLOCKS * drop
        if not math.isclose(cost, identity, rel_tol=1e-9, abs_tol=1e-15):
            problems.append(f"{where}: mean_total_cost {cost!r} != w_G*grid + w_D*U*N*drop {identity!r}")
        if not math.isclose(float(r["grid_energy_mj"]), grid * 1e3, rel_tol=1e-12):
            problems.append(f"{where}: grid_energy_mj != 1e3 * grid_energy_j")
    return problems


def check_reference_hash(workload: str, key: str, path: Path, seed: int, tiny: bool) -> list[str]:
    if tiny or seed != REFERENCE_SEED or not path.is_file():
        return []
    want = REFERENCE[workload]["sha256"][key]
    got = sha256(path)
    return [] if got == want else [f"{key}: sha256 {got} != reference {want}"]


def csv_command(workload: str, argv: list[str], path: Path, ref_key: str,
                rows: list[tuple], frames: int, seed: int, users: int, tiny: bool) -> Command:
    def check():
        return (check_rows_csv(path, rows, frames, seed, users)
                + check_reference_hash(workload, ref_key, path, seed, tiny))

    return Command(argv, check)


# ---------------------------------------------------------------------------
# fig4-sweep: the reference command at the middle of its axis
# ---------------------------------------------------------------------------

# The full reference command, `hesnet sweep --preset fig4 --frames 500`, runs
# these five points; its CSV hash is in reference.json and test_bench.py
# checks it.  A pass here is its middle point with 200 frames and 400
# calibration frames per zeta candidate instead of 500 and 1000: the same
# stages (zeta calibration, offline greedy replay, inline MDP training) in
# 2 to 4 s, short enough to repeat several times in one run.
FIG4_REFERENCE_ARGV = ["sweep", "--preset", "fig4", "--frames", "500"]


def fig4_sweep(seed: int, out: Path, tiny: bool) -> list[Command]:
    argv = ["sweep", "--preset", "fig4", "--threads", "1", "--seed", str(seed), "--out", str(out)]
    if tiny:
        frames, value = 20, 20
        policies = ("GT", "LookAhead", "Threshold", "MBIA-M10", "GA")
        argv += ["--set", "zeta_grid=0:20:100", "--set", "zeta_budget=20",
                 "--set", "m_levels=10", "--set", "k_states=5",
                 "--set", "policies=" + ",".join(policies)]
    else:
        frames, value = 200, 20
        policies = ("GT", "LookAhead", "Threshold", "MBIA-M25", "MBIA-M100", "GA")
        argv += ["--set", "zeta_budget=400"]
    argv += ["--frames", str(frames), "--axis-values", str(value)]
    rows = [(row_name(p), "P_avg", value * 1e-3) for p in policies]
    return [csv_command("fig4-sweep", argv, out / "sweep_p_avg_mw.csv", "sweep_p_avg_mw.csv",
                        rows, frames, seed, users=1, tiny=tiny)]


# ---------------------------------------------------------------------------
# mbia-train-simulate: train tables at fig3 points, then simulate with them
# ---------------------------------------------------------------------------

def check_train_log(path: Path, key: str, tiny: bool) -> list[str]:
    if not path.is_file():
        return [f"{key}: train log missing"]
    log = json.loads(path.read_text())
    problems = []
    if not (log["evaluations_total"] <= log["bound_total"]
            and log["per_state_max"] <= log["per_state_bound"]):
        problems.append(f"{key}: walk evaluations above the 2K-1 bound")
    if not tiny:
        # training does not depend on the seed, so every seed has these counts
        want = REFERENCE["mbia-train-simulate"]["evaluations_total"][key]
        if log["evaluations_total"] != want:
            problems.append(f"{key}: evaluations_total {log['evaluations_total']} != {want}")
    return problems


def mbia_train_simulate(seed: int, out: Path, tiny: bool) -> list[Command]:
    if tiny:
        d_h_values, m_values, k, frames = (30, 50), (5, 10), 5, 50
    else:
        d_h_values, m_values, k, frames = (20, 40, 60), (25, 100), 25, 2000
    policies = ("GT", "LookAhead") + tuple(f"MBIA-M{m}" for m in m_values)
    commands = []
    for d_h in d_h_values:
        point = ["--preset", "fig3", "--set", f"d_h_m={d_h}", "--set", f"d_g_m={80 - d_h}",
                 "--set", f"k_states={k}", "--seed", str(seed)]
        if tiny:
            point += ["--set", f"m_levels={m_values[0]}"]   # Look-Ahead table size
        pdir = out / f"d{d_h}"
        for m in m_values:
            key = f"d{d_h}/mbia_M{m}_K{k}"
            log = pdir / f"mbia_M{m}_K{k}.train.json"
            commands.append(Command(
                ["mdp-train", *point, "--m-levels", str(m), "--out", str(pdir)],
                lambda log=log, key=key: check_train_log(log, key, tiny)))
        rows = [(row_name(p), "none", 0.0) for p in policies]
        commands.append(csv_command(
            "mbia-train-simulate",
            ["simulate", *point, "--frames", str(frames), "--set", "policies=" + ",".join(policies),
             "--artifact-dir", str(pdir), "--out", str(pdir)],
            pdir / "simulate.csv", f"d{d_h}/simulate.csv", rows, frames, seed, users=1, tiny=tiny))
    return commands


# ---------------------------------------------------------------------------
# two-user-sweep: the pooled-battery two-user path
# ---------------------------------------------------------------------------

# zeta* that `hesnet calibrate-zeta --preset fig5-two-user` picks; fixing it
# keeps calibration out of this workload
TWO_USER_ZETA = "8.5"


def two_user_sweep(seed: int, out: Path, tiny: bool) -> list[Command]:
    # 30 frames per point, not the preset's default: the per-frame walk is all
    # of the work, and a 1.5 s pass repeats enough in one run for a steady median
    frames, values = (5, (10, 30)) if tiny else (30, (10, 20, 30))
    argv = ["sweep", "--preset", "fig5-two-user", "--frames", str(frames), "--set",
            f"zeta={TWO_USER_ZETA}", "--threads", "1", "--seed", str(seed), "--out", str(out)]
    if tiny:
        argv += ["--axis-values", ",".join(map(str, values))]
    rows = [(row_name(p), "P_avg", v * 1e-3) for v in values for p in ("GT", "Threshold", "GA")]
    return [csv_command("two-user-sweep", argv, out / "sweep_p_avg_mw.csv", "sweep_p_avg_mw.csv",
                        rows, frames, seed, users=2, tiny=tiny)]


# Why each workload was chosen is in BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    Workload("fig4-sweep", "fig4", fig4_sweep),
    Workload("mbia-train-simulate", "fig3", mbia_train_simulate),
    Workload("two-user-sweep", "fig5-two-user", two_user_sweep),
)}
