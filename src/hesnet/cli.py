"""Command-line front end: configs in, CSV/JSON artifacts out.

Configuration is a flat key=value text file whose keys carry explicit
units (tau_ms, sigma2_dbm, p_avg_mw, ...); dB-style values are converted
to SI once, at the parse boundary, so everything downstream is Watts,
Joules, seconds.  Resolution order: built-in defaults, then --preset,
then --config, then command-line --set pairs and flags.  Unknown keys are
rejected rather than ignored.

Exit codes: 0 success, 2 configuration error (including a malformed,
truncated or oversized policy artifact or replay file, the Threshold rule
at w_d = 0, a p_avg_mw sweep with b_m_j set to other than N * E_m, and
offline-solve, mdp-train and calibrate-zeta at users > 1), 3 resource
limit (a frame whose offline optimum's Pareto front outgrows FRONT_MAX
states, and a zeta grid of more than ZETA_GRID_MAX candidates), 4
artifact/parameter mismatch (including an offline evaluation on a
battery below N * E_m, which the offline solvers do not model).
"""

from __future__ import annotations

import argparse
import hashlib
import math
import sys
from dataclasses import dataclass, field
from functools import cache, partial
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import (
    ConfigError,
    HesnetError,
    InvalidParameterError,
    ModelMismatchError,
    ReplayParseError,
    ResourceLimitError,
    StalePolicyError,
)
from .mdp import (
    build_grid,
    build_mdp_model,
    load_policy_artifact,
    monotone_backward_induction,
    save_policy_artifact,
    table_report,
)
from .model import FrameBatch, SystemParams, sample_trajectory
from .offline import greedy_plan, optimal_plan
from .policies import (
    GreedyTransmit,
    MdpTablePolicy,
    ThresholdHeuristic,
    ThresholdParams,
    calibrate_zeta,
    look_ahead_build,
    look_ahead_table,
    threshold_lambdas,
)
from .sim import (
    SWEEP_AXES,
    GridOnlyPolicy,
    file_sha256,
    frame_totals,
    outcomes,
    point_rows,
    solve_plan,
    sweep,
    write_json,
    write_manifest,
    write_rows_csv,
)

__all__ = ["main", "resolve_config", "RunConfig", "parse_kv_text"]


# ---------------------------------------------------------------------------
# config keys
# ---------------------------------------------------------------------------

def _db10(x: float) -> float:
    return 10.0 ** (x / 10.0)


# config key -> (SystemParams field, unit conversion applied after float parse)
PARAM_KEYS = {
    "w_g": ("w_G", float),
    "w_d": ("w_D", float),
    "r_bits": ("R", float),
    "n_blocks": ("N", float),
    "tau_ms": ("tau", lambda v: v * 1e-3),
    "bandwidth_hz": ("W", float),
    "sigma2_dbm": ("sigma2", lambda v: _db10(v) * 1e-3),
    "sigma2_w": ("sigma2", float),
    "g0_db": ("g0", _db10),
    "g0_linear": ("g0", float),
    "theta": ("theta", float),
    "d_g_m": ("d_G", float),
    "d_h_m": ("d_H", float),
    "p_g_max_w": ("p_G_max", float),
    "p_h_max_w": ("p_H_max", float),
    "mu_g_db": ("mu_G", _db10),
    "mu_g": ("mu_G", float),
    "mu_h_db": ("mu_H", _db10),
    "mu_h": ("mu_H", float),
    "e_m_j": ("E_m", float),
    "p_avg_mw": ("P_avg", lambda v: v * 1e-3),
    "b_m_j": ("B_m", float),
}

# Every run key but axis, axis_values and artifact_dir has its default in
# presets/default.cfg; each is also the dest of its command-line flag, if any.
RUN_KEYS = (
    "m_levels", "k_states", "policies", "axis", "axis_values", "frames",
    "seed", "out_dir", "artifact_dir", "zeta", "zeta_grid", "zeta_budget",
    "users", "threads",
)

# sweep-axis config key -> internal axis name; PARAM_KEYS converts its values
AXES = {key: field for key, (field, _) in PARAM_KEYS.items() if field in SWEEP_AXES}

OFFLINE_HEADER = ["solver", "block", "gamma_G", "gamma_H", "e_H_j",
                  "alpha", "i_G", "i_H", "i_D", "p_G_w", "p_H_w"]


@dataclass
class RunConfig:
    """One fully resolved run: physics plus orchestration knobs."""

    params: SystemParams
    m_levels: int
    k_states: int
    policies: tuple
    axis: str | None            # internal axis name, None for point runs
    axis_key: str | None        # the config token, kept for file naming
    axis_values: tuple          # SI units
    frames: int
    seed: int
    out_dir: str
    artifact_dir: str           # where mdp-train writes and simulate reads tables
    zeta: object                # float or the string "auto"
    zeta_grid: tuple
    zeta_budget: int
    users: int
    threads: int
    raw: dict                   # resolved key -> string, echoed in manifests


def parse_kv_text(text: str, source: str = "<config>") -> dict:
    """Flat key = value lines; '#' starts a comment; keys may not repeat."""
    out: dict = {}
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip().lower(), value.strip()
        if not sep or not key or not value:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {rawline.strip()!r}")
        if key in out:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def _load_preset_text(name: str) -> str:
    presets = resources.files("hesnet").joinpath("presets")
    f = presets.joinpath(f"{name}.cfg")
    if not f.is_file():
        names = sorted(p.name[:-4] for p in presets.iterdir() if p.name.endswith(".cfg"))
        raise ConfigError(f"unknown preset {name!r}; available: {', '.join(names)}")
    return f.read_text()


def _num(value: str, key: str, source: str) -> float:
    try:
        num = float(value)
    except ValueError:
        raise ConfigError(f"{source}: key {key!r} needs a number, got {value!r}") from None
    if not math.isfinite(num):
        raise ConfigError(f"{source}: key {key!r} must be finite, got {value!r}")
    return num


def _int(value: str, key: str, source: str, minimum: int = 1, maximum: int | None = None) -> int:
    """An integer key; exact digits parse with int(), so no float rounds
    them, and forms like 1e3 go through float."""
    try:
        n = int(value)
    except ValueError:
        num = _num(value, key, source)
        if num != int(num):
            raise ConfigError(f"{source}: key {key!r} needs an integer, got {value!r}") from None
        n = int(num)
    if n < minimum:
        raise ConfigError(f"{source}: key {key!r} must be >= {minimum}, got {n}")
    if maximum is not None and n > maximum:
        raise ConfigError(f"{source}: key {key!r} must be <= {maximum}, got {n}")
    return n


def _merge_source(kv: dict, source: str, field_map: dict, run_map: dict, raw: dict) -> None:
    seen_fields: dict = {}
    for key, value in kv.items():
        if key in PARAM_KEYS:
            field, _ = PARAM_KEYS[key]
            if field in seen_fields:
                raise ConfigError(
                    f"{source}: keys {seen_fields[field]!r} and {key!r} both set {field}; pick one")
            seen_fields[field] = key
            if field in field_map:          # a later source replaces the whole quantity,
                raw.pop(field_map[field][0], None)   # whichever unit spelled it before
            field_map[field] = (key, value)
            raw[key] = value
        elif key in RUN_KEYS:
            run_map[key] = (value, source)
            raw[key] = value
        else:
            raise ConfigError(f"{source}: unknown key {key!r}")


# Largest seed: make_rng keys on 64 bits and zeta calibration draws at seed + 1.
SEED_MAX = 2 ** 64 - 2

# integer run key -> (minimum, maximum or None); sweeps run on one thread,
# so threads takes 1 alone
INT_KEYS = {
    "m_levels": (1, None), "k_states": (1, None), "frames": (1, None), "seed": (0, SEED_MAX),
    "users": (1, None), "threads": (1, 1), "zeta_budget": (1, None),
}

# Most zeta candidates a grid may hold; the default 0:0.5:200 has 401.
ZETA_GRID_MAX = 100_000


def _parse_zeta_grid(value: str, source: str) -> tuple:
    parts = value.split(":")
    if len(parts) != 3:
        raise ConfigError(f"{source}: zeta_grid must be 'start:step:stop', got {value!r}")
    start, step, stop = (_num(p, "zeta_grid", source) for p in parts)
    if step <= 0 or stop < start or start < 0:
        raise ConfigError(f"{source}: zeta_grid needs start >= 0, step > 0, stop >= start")
    intervals = (stop - start) / step + 1e-9
    if not intervals < ZETA_GRID_MAX:   # also catches an overflow to inf
        raise ResourceLimitError(
            f"{source}: zeta_grid {value!r} holds more than {ZETA_GRID_MAX} candidates")
    return tuple(start + i * step for i in range(int(math.floor(intervals)) + 1))


def resolve_config(preset: str | None = None, config_path: str | None = None,
                   overrides: dict | None = None) -> RunConfig:
    """Layer defaults <- preset <- config file <- command line into a RunConfig."""
    field_map: dict = {}
    run_map: dict = {}
    raw: dict = {}
    sources = [("preset default", _load_preset_text("default"))]
    if preset and preset != "default":
        sources.append((f"preset {preset}", _load_preset_text(preset)))
    if config_path:
        path = Path(config_path)
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
        sources.append((str(path), path.read_text()))
    for source, text in sources:
        _merge_source(parse_kv_text(text, source), source, field_map, run_map, raw)
    if overrides:
        _merge_source(dict(overrides), "command line", field_map, run_map, raw)

    changes: dict = {}
    for field, (key, value) in field_map.items():
        if field == "N":
            changes["N"] = _int(value, key, "config")
        else:
            changes[field] = PARAM_KEYS[key][1](_num(value, key, "config"))
    try:
        params = SystemParams().evolve(**changes)
    except InvalidParameterError as exc:
        raise ConfigError(f"invalid physical configuration: {exc}") from exc

    def run_value(key, default=None):
        return run_map.get(key, (default,))[0]

    def run_source(key):
        return run_map.get(key, (None, "config"))[1]

    ints = {key: _int(run_value(key), key, run_source(key), *bounds)
            for key, bounds in INT_KEYS.items()}
    policies = tuple(t.strip() for t in run_value("policies").split(",") if t.strip())

    axis_token = run_value("axis", "none").lower()
    if axis_token in ("none", ""):
        axis = axis_key = None
        axis_values = ()
    else:
        if axis_token not in AXES:
            raise ConfigError(
                f"{run_source('axis')}: unknown axis {axis_token!r}; one of {', '.join(sorted(AXES))}")
        axis, axis_key = AXES[axis_token], axis_token
        values_text = run_value("axis_values", "")
        if not values_text:
            raise ConfigError("axis is set but axis_values is empty")
        to_si = PARAM_KEYS[axis_key][1]
        axis_values = tuple(to_si(_num(v.strip(), "axis_values", run_source("axis_values")))
                            for v in values_text.split(",") if v.strip())
        if not axis_values:
            raise ConfigError("axis_values is empty")

    zeta_text = run_value("zeta").lower()
    if zeta_text == "auto":
        zeta: object = "auto"
    else:
        zeta = _num(zeta_text, "zeta", run_source("zeta"))
        if zeta < 0:
            raise ConfigError(f"zeta must be >= 0, got {zeta}")

    zeta_grid = _parse_zeta_grid(run_value("zeta_grid"), run_source("zeta_grid"))

    out_dir = run_value("out_dir")
    return RunConfig(
        params=params, policies=policies, axis=axis, axis_key=axis_key,
        axis_values=axis_values, out_dir=out_dir,
        artifact_dir=run_value("artifact_dir") or out_dir, zeta=zeta, zeta_grid=zeta_grid,
        raw=raw, **ints,
    )


# ---------------------------------------------------------------------------
# policy construction
# ---------------------------------------------------------------------------

def _artifact_path(cfg: RunConfig, m: int) -> Path:
    """The M=m table's file: mdp-train writes it, simulate reads it."""
    return Path(cfg.artifact_dir) / f"mbia_M{m}_K{cfg.k_states}.pol"


@dataclass
class _Run:
    """What one run's policy factories share: the config, whether MBIA
    trains at each point (sweep) or loads its artifact (simulate), the M of
    every MBIA row, and the MBIA tables of the current point by M, with
    that point's report, so the tables of past points are let go."""

    cfg: RunConfig
    train_mbia: bool
    mbia_levels: frozenset = frozenset()
    report: dict | None = None
    tables: dict = field(default_factory=dict)


def _calibrate(cfg: RunConfig, point: SystemParams):
    """The run's calibration at `point`, on stream seed + 1, not the frames
    a run scores the pick on; `zeta = auto` and `calibrate-zeta` share it."""
    return calibrate_zeta(cfg.zeta_grid, point, cfg.zeta_budget, cfg.seed + 1)


def _threshold(run: _Run, m: int, point: SystemParams, report: dict):
    cfg = run.cfg
    if cfg.zeta == "auto":
        tp, _ = _calibrate(cfg, point)
    else:
        tp = ThresholdParams(cfg.zeta, *threshold_lambdas(point))
    report["Threshold"] = {"zeta_star": tp.zeta, "lambda1": tp.lambda1, "lambda2": tp.lambda2}
    return ThresholdHeuristic(tp)


def _mbia_table(run: _Run, m: int, point: SystemParams, report: dict):
    """The M=m MBIA table at `point`, trained (sweep) or loaded (simulate)
    once per point and shared by every factory that plays it there; the
    point's report gets its `table_report` or its artifact's hashes."""
    if run.report is not report:   # a new point: let the last one's tables go
        run.report, run.tables = report, {}
    if m in run.tables:
        return run.tables[m]
    cfg = run.cfg
    if run.train_mbia:
        model = build_mdp_model(point, build_grid(point, M=m, K=cfg.k_states))
        table, u_hat, counts = monotone_backward_induction(model, point.N)
        report[f"MBIA-M{m}"] = table_report(model, u_hat, counts)
    else:
        path = _artifact_path(cfg, m)
        if not path.is_file():
            raise ConfigError(
                f"policy artifact not found: {path}; train it first with "
                f"'hesnet mdp-train --set m_levels={m} --set k_states={cfg.k_states} "
                f"--out {path.parent}'")
        table = load_policy_artifact(path)
        if table.params_hash != point.content_hash():
            raise StalePolicyError(
                f"{path} was trained for parameter hash {table.params_hash[:12]}..., "
                f"this run hashes to {point.content_hash()[:12]}...; retrain with mdp-train")
        report[f"MBIA-M{m}"] = {
            "path": str(path), "sha256": file_sha256(path), "params_hash": table.params_hash}
    run.tables[m] = table
    return table


def _mbia(run: _Run, m: int, point: SystemParams, report: dict):
    return MdpTablePolicy(_mbia_table(run, m, point, report))


def _look_ahead(run: _Run, m: int, point: SystemParams, report: dict):
    if point.N >= 2 and m in run.mbia_levels:
        # the run's MBIA table holds the 2-block thresholds bitwise
        # (look_ahead_table), so Look-Ahead needs no solve of its own
        return MdpTablePolicy(look_ahead_table(_mbia_table(run, m, point, report), point.N))
    return MdpTablePolicy(look_ahead_build(point, M=m, K=run.cfg.k_states))


# Policy tokens, matched case-insensitively: name -> (other spellings,
# online factory(run, m, point, report) or offline plan function, decides
# any user count).  A policy's name is its one CSV row; MBIA-M<levels> is
# MBIA at m = <levels>, else m is m_levels.
POLICIES = {
    "GT": ((), lambda run, m, point, report: GreedyTransmit(), True),
    "Look-Ahead": (("LA", "LookAhead"), _look_ahead, False),
    "Threshold": (("TH",), _threshold, True),
    "GP-only": (("GPonly",), lambda run, m, point, report: GridOnlyPolicy(), True),
    "Greedy": (("GA",), greedy_plan, True),
    "Exhaustive": ((), optimal_plan, False),
    "MBIA": ((), _mbia, False),
}
_SPELLINGS = {s.lower(): name for name, (aliases, _, _) in POLICIES.items()
              for s in (name, *aliases)}


def _online_factories(cfg: RunConfig, train_mbia: bool):
    """Map config policy tokens to their rows: online row name ->
    factory(point, report) callable, and offline row name -> plan function.

    Every token is parsed before any is refused for the run: a second
    token for one policy (at one M, for MBIA), and at users > 1 the
    single-user ones.  Returns (factories, plans).
    """
    if not cfg.policies:
        raise ConfigError("policy list is empty; set policies=... in the config")
    parsed = {}
    for token in cfg.policies:
        t, m = token.lower(), cfg.m_levels
        if t.startswith("mbia-m") and t[6:].isdecimal():
            t, m = "mbia", _int(t[6:], "policies", "config")   # M >= 1, as m_levels
        if t not in _SPELLINGS:
            raise ConfigError(f"unknown policy token {token!r}; one of {', '.join(POLICIES)} "
                              "(or an alias), MBIA-M<levels>")
        name = _SPELLINGS[t]
        row = f"{name}-M{m}" if name == "MBIA" else name
        if row in parsed:
            raise ConfigError(f"policy tokens {parsed[row][0]!r} and {token!r} both name "
                              f"{row}; list each policy once")
        parsed[row] = (token, name, m)
    run = _Run(cfg, train_mbia, frozenset(m for _, name, m in parsed.values() if name == "MBIA"))
    factories: dict = {}
    plans: dict = {}
    for row, (token, name, m) in parsed.items():
        _, build, any_users = POLICIES[name]
        if cfg.users > 1 and not any_users:
            supported = ", ".join(n for n, (_, _, any_u) in POLICIES.items() if any_u)
            raise ConfigError(f"policy {token!r} is single-user only; runs with "
                              f"users={cfg.users} support {supported}")
        if build in (greedy_plan, optimal_plan):
            plans[row] = build
        else:
            factories[row] = partial(build, run, m)
    return factories, plans


# ---------------------------------------------------------------------------
# trajectory replay files
# ---------------------------------------------------------------------------

def _write_trajectory(path: Path, batch: FrameBatch) -> None:
    """Write frame 0 of one-user `batch`, one block per line."""
    lines = ["# block gamma_G gamma_H e_H_j"]
    for i in range(batch.params.N):
        lines.append(f"{i + 1} {float(batch.gamma_g[0, 0, i])!r} "
                     f"{float(batch.gamma_h[0, 0, i])!r} {float(batch.e_h[0, i])!r}")
    path.write_text("\n".join(lines) + "\n")


def _read_trajectory(path: Path, params: SystemParams) -> FrameBatch:
    """A replay file as a one-frame batch; every row is checked, and a bad
    one raises ReplayParseError with its line number."""
    if not path.is_file():
        raise ConfigError(f"replay file not found: {path}")
    rows: list = []
    for lineno, rawline in enumerate(path.read_text().splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 4:
            raise ReplayParseError(
                f"{path}:{lineno}: expected 4 fields (block gamma_G gamma_H e_H_j), "
                f"got {len(parts)}", line=lineno)
        try:
            idx = int(parts[0])
            g, h, e = (float(x) for x in parts[1:])
        except ValueError as exc:
            raise ReplayParseError(f"{path}:{lineno}: {exc}", line=lineno) from None
        if idx != len(rows) + 1:
            raise ReplayParseError(
                f"{path}:{lineno}: block index {idx}, expected {len(rows) + 1}", line=lineno)
        if not all(math.isfinite(x) and x >= 0 for x in (g, h, e)):
            raise ReplayParseError(
                f"{path}:{lineno}: gamma_G, gamma_H and e_H_j must be finite and >= 0, "
                f"got {g!r} {h!r} {e!r}", line=lineno)
        # one block harvests at most E_m: the uncapped-battery check relies on it
        if e > params.E_m:
            raise ReplayParseError(
                f"{path}:{lineno}: e_H_j = {e!r} J exceeds E_m = {params.E_m!r} J", line=lineno)
        rows.append((g, h, e))
    if len(rows) != params.N:
        raise ReplayParseError(
            f"{path}: {len(rows)} blocks for an N={params.N} configuration")
    g, h, e = np.asarray(rows, dtype=float).T
    return FrameBatch(params, g[None, None], h[None, None], e[None])


def _trajectory_sha256(batch: FrameBatch) -> str:
    """sha256 of frame 0's gains and arrivals as little-endian float64."""
    h = hashlib.sha256()
    for arr in (batch.gamma_g[0, 0], batch.gamma_h[0, 0], batch.e_h[0]):
        h.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _out_dir(cfg: RunConfig) -> Path:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_offline_solve(cfg: RunConfig, args) -> int:
    if cfg.users > 1:
        raise ConfigError(
            f"offline-solve plans one user, got users={cfg.users}: its trajectory and replay "
            "files hold one user's gains")
    params = cfg.params
    if args.replay:
        batch = _read_trajectory(Path(args.replay), params)
        source = f"replay {args.replay}"
    else:
        batch = sample_trajectory(params, cfg.seed)
        source = f"seed {cfg.seed}"
    # solved before anything is written: a refused plan leaves no file
    plans = {name: solve_plan(solve, batch)
             for name, solve in (("greedy", greedy_plan), ("exhaustive", optimal_plan))}
    if args.dump:
        dump = Path(args.dump)
        dump.parent.mkdir(parents=True, exist_ok=True)
        _write_trajectory(dump, batch)

    out = _out_dir(cfg)
    csv_path = out / "offline_schedule.csv"
    rows = []
    report: dict = {"params_hash": params.content_hash(), "n_blocks": params.N,
                    "trajectory_sha256": _trajectory_sha256(batch), "solvers": {}}
    for solver_name, (serve, admitted, costs, grid) in zip(
            plans, outcomes(batch, plans=plans.values())):
        cost, energy, drops = frame_totals(serve, admitted, costs, grid)
        report["solvers"][solver_name] = {
            "total_cost": float(cost[0]), "grid_energy_j": float(energy[0]),
            "drops": int(drops[0])}
        i_h, i_g = serve[0, 0], admitted[0, 0]
        rows += [dict(zip(OFFLINE_HEADER, (
            solver_name, i + 1, float(batch.gamma_g[0, 0, i]), float(batch.gamma_h[0, 0, i]),
            float(batch.e_h[0, i]),
            int(i_h[i]), int(i_g[i]), int(i_h[i]), int(not (i_g[i] or i_h[i])),
            float(batch.p_g[0, 0, i] if i_g[i] else 0.0),
            float(batch.p_h[0, 0, i] if i_h[i] else 0.0)))) for i in range(params.N)]
    write_rows_csv(csv_path, rows, header=OFFLINE_HEADER)
    opt = report["solvers"]["exhaustive"]["total_cost"]
    report["gap"] = gap = report["solvers"]["greedy"]["total_cost"] - opt
    report["gap_relative"] = gap / opt if opt else 0.0
    summary_path = out / "offline_summary.json"
    write_json(summary_path, report)

    print(f"offline solve: N={params.N}, {source}")
    for solver_name, info in report["solvers"].items():
        print(f"  {solver_name:<11} cost={info['total_cost']:.10g} "
              f"grid_mj={info['grid_energy_j'] * 1e3:.6g} drops={info['drops']}")
    print(f"  gap = {report['gap']:.10g} ({100 * report['gap_relative']:.3g}% above optimal)")
    print(f"wrote {csv_path} and {summary_path}")
    return 0


def cmd_mdp_train(cfg: RunConfig, args) -> int:
    if cfg.users > 1:
        raise ConfigError(
            f"mdp-train trains a one-user table, got users={cfg.users}: the table "
            "policies play one user")
    params = cfg.params
    model = build_mdp_model(params, build_grid(params, M=cfg.m_levels, K=cfg.k_states))
    table, u_hat, counts = monotone_backward_induction(model, params.N)
    path = _artifact_path(cfg, cfg.m_levels)
    path.parent.mkdir(parents=True, exist_ok=True)
    save_policy_artifact(path, table)
    log = {**table_report(model, u_hat, counts), "artifact": path.name,
           "artifact_bytes": path.stat().st_size, "artifact_sha256": file_sha256(path)}
    write_json(path.with_suffix(".train.json"), log)
    print(f"trained M={cfg.m_levels} K={cfg.k_states} N={params.N}: "
          f"{log['evaluations_total']} evaluations "
          f"(bound {log['bound_total']}, dense {log['dense_equivalent_total']})")
    print(f"wrote {path}")
    return 0


def _print_rows(rows) -> None:
    print(f"{'policy':<12} {'mean_cost':>12} {'stderr':>10} {'grid_mJ':>9} {'drop_%':>7}")
    for r in rows:
        print(f"{r['policy']:<12} {r['mean_total_cost']:>12.6g} "
              f"{r['stderr_total_cost']:>10.3g} {r['grid_energy_mj']:>9.4g} "
              f"{100 * r['drop_ratio']:>7.3f}")


def _finish_run(cfg: RunConfig, records, csv_name: str, manifest_name: str, **extras) -> int:
    out = _out_dir(cfg)
    csv_path = out / csv_name
    rows = [row for record in records for row in record["rows"]]
    write_rows_csv(csv_path, rows)
    manifest_path = out / manifest_name
    if cfg.users > 1:
        extras["per_user_bandwidth_hz"] = cfg.params.W
    points = [{"axis_value": r["axis_value"], "report": r["report"]} for r in records]
    write_manifest(manifest_path, cfg.params, config=dict(cfg.raw), csv=csv_name,
                   csv_sha256=file_sha256(csv_path), frames=cfg.frames, seed=cfg.seed,
                   users=cfg.users, points=points, **extras)
    _print_rows(rows)
    print(f"wrote {csv_path} and {manifest_path}")
    return 0


def cmd_simulate(cfg: RunConfig, args) -> int:
    factories, plans = _online_factories(cfg, train_mbia=False)
    records = point_rows(cfg.params, "none", 0.0, factories, cfg.frames, cfg.seed, plans,
                         cfg.users)
    return _finish_run(cfg, records, "simulate.csv", "simulate_manifest.json", command="simulate")


def cmd_sweep(cfg: RunConfig, args) -> int:
    if cfg.axis is None:
        raise ConfigError("sweep needs axis=... and axis_values=... (e.g. axis=p_avg_mw)")
    factories, plans = _online_factories(cfg, train_mbia=True)
    records = sweep(cfg.params, cfg.axis, cfg.axis_values, factories, cfg.frames,
                    cfg.seed, plans=plans, users=cfg.users)
    return _finish_run(cfg, records, f"sweep_{cfg.axis_key}.csv", "sweep_manifest.json",
                       command="sweep", axis=cfg.axis_key)


def cmd_calibrate_zeta(cfg: RunConfig, args) -> int:
    if cfg.users > 1:
        raise ConfigError(f"calibrate-zeta scores one user's threshold rule, got users={cfg.users}")
    tp, costs = _calibrate(cfg, cfg.params)
    out = _out_dir(cfg)
    doc = {
        "zeta_star": tp.zeta, "lambda1": tp.lambda1, "lambda2": tp.lambda2,
        "budget_frames": cfg.zeta_budget, "seed": cfg.seed, "users": cfg.users,
        "params_hash": cfg.params.content_hash(),
        "grid": {"start": cfg.zeta_grid[0], "stop": cfg.zeta_grid[-1],
                 "count": len(cfg.zeta_grid)},
        "cost_at_star": float(np.min(costs)),
    }
    path = out / "zeta.json"
    write_json(path, doc)
    print(f"zeta* = {tp.zeta:g} (cost {doc['cost_at_star']:.6g} over "
          f"{cfg.zeta_budget} frames; lambda1={tp.lambda1:.6g}, lambda2={tp.lambda2:.6g})")
    print(f"wrote {path}")
    return 0


def cmd_quantize_info(cfg: RunConfig, args) -> int:
    grid = build_grid(cfg.params, M=cfg.m_levels, K=cfg.k_states)
    print(f"battery: M={grid.M} levels over [0, {float(grid.B_m)!r}] J "
          f"(bin width {float(grid.B_m / grid.M)!r} J)")
    for m in range(grid.M):
        print(f"  {m:4d} level={float(grid.battery_levels[m])!r} "
              f"bin=[{float(grid.bin_edges[m])!r}, {float(grid.bin_edges[m + 1])!r})")
    for label, levels, bounds in (("G", grid.levels_G, grid.bounds_G),
                                  ("H", grid.levels_H, grid.bounds_H)):
        print(f"{label}-channel: K={grid.K} equi-probable states")
        for k in range(grid.K):
            hi = bounds[k + 1]
            hi_txt = "inf" if math.isinf(hi) else repr(float(hi))
            print(f"  {k:4d} level={float(levels[k])!r} "
                  f"interval=[{float(bounds[k])!r}, {hi_txt})")
    return 0


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

def _flag_overrides(args) -> dict:
    overrides: dict = {}
    for pair in getattr(args, "assignments", []) or []:
        key, sep, value = pair.partition("=")
        if not sep or not key.strip() or not value.strip():
            raise ConfigError(f"--set needs KEY=VALUE, got {pair!r}")
        overrides[key.strip().lower()] = value.strip()
    for key in RUN_KEYS:     # a flag's dest is its config key
        value = getattr(args, key, None)
        if value is not None:
            overrides[key] = str(value)
    return overrides


@cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of every command, built on first use.  Parsing keeps
    no state in it: argparse copies the `--set` append default per call."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--preset", metavar="NAME",
                        help="built-in configuration: default, fig3, fig4, "
                             "fig5-two-user, fig6, fig7")
    common.add_argument("--config", metavar="PATH", help="key=value configuration file")
    common.add_argument("--set", dest="assignments", action="append", default=[],
                        metavar="KEY=VALUE", help="override one config key (repeatable)")
    common.add_argument("--out", dest="out_dir", metavar="DIR", help="output directory (out_dir)")
    common.add_argument("--frames", type=int, help="Monte Carlo frames")
    common.add_argument("--seed", type=int, help="base RNG seed")
    common.add_argument("--threads", type=int, help="must be 1")

    parser = argparse.ArgumentParser(
        prog="hesnet",
        description="Grid-energy / packet-drop scheduling for a hybrid "
                    "grid-plus-harvesting base-station pair.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("offline-solve", parents=[common],
                       help="solve one frame with full side information")
    p.add_argument("--replay", metavar="PATH", help="read the trajectory from a dump file")
    p.add_argument("--dump", metavar="PATH", help="write the trajectory in replay format")

    p = sub.add_parser("mdp-train", parents=[common],
                       help="train a decision table by monotone backward induction")
    p.add_argument("--m-levels", dest="m_levels", type=int, help="battery levels M")
    p.add_argument("--k-states", dest="k_states", type=int, help="channel states K per link")

    p = sub.add_parser("simulate", parents=[common],
                       help="Monte Carlo at one parameter point")
    p.add_argument("--artifact-dir", dest="artifact_dir", metavar="DIR",
                   help="where trained policy artifacts live (default: out_dir)")

    p = sub.add_parser("sweep", parents=[common],
                       help="Monte Carlo across one parameter axis")
    p.add_argument("--axis", metavar="KEY", help=f"axis key: {', '.join(sorted(AXES))}")
    p.add_argument("--axis-values", dest="axis_values", metavar="V1,V2,...",
                   help="axis points in the key's units")

    p = sub.add_parser("calibrate-zeta", parents=[common],
                       help="pick the threshold scale by simulated search")
    p.add_argument("--zeta-grid", dest="zeta_grid", metavar="START:STEP:STOP",
                   help="candidate grid (default 0:0.5:200)")
    p.add_argument("--budget", dest="zeta_budget", type=int, metavar="FRAMES",
                   help="frames per candidate (zeta_budget)")

    sub.add_parser("quantize-info", parents=[common],
                   help="print battery and channel quantization tables")
    # quantize-info reuses m_levels / k_states through --set

    return parser


DISPATCH = {
    "offline-solve": cmd_offline_solve,
    "mdp-train": cmd_mdp_train,
    "simulate": cmd_simulate,
    "sweep": cmd_sweep,
    "calibrate-zeta": cmd_calibrate_zeta,
    "quantize-info": cmd_quantize_info,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(preset=args.preset, config_path=args.config,
                             overrides=_flag_overrides(args))
        return DISPATCH[args.command](cfg, args)
    except HesnetError as exc:
        print(f"hesnet: error: {exc}", file=sys.stderr)
        if isinstance(exc, (StalePolicyError, ModelMismatchError)):
            return 4
        # configuration, replay, artifact and parameter errors are 2
        return 3 if isinstance(exc, ResourceLimitError) else 2


if __name__ == "__main__":
    sys.exit(main())
