"""Config resolution, subcommand behavior, exit codes, output files."""

import csv
import hashlib
import json
import math
import time
import tracemalloc
import weakref
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hesnet import cli
from hesnet.cli import (
    DISPATCH,
    RUN_KEYS,
    ZETA_GRID_MAX,
    _online_factories,
    build_parser,
    main,
    parse_kv_text,
    resolve_config,
)
from hesnet.errors import ConfigError, HesnetError, ResourceLimitError
from hesnet.mdp import load_policy_artifact
from hesnet.model import SystemParams, sample_trajectories
from hesnet.policies import look_ahead_build
from hesnet.sim import GridOnlyPolicy, metrics_row
from oracles import exact_totals, v1_artifact

GOLDEN_HEADER = ("policy,axis,axis_value,mean_total_cost,stderr_total_cost,"
                 "grid_energy_j,grid_energy_mj,drop_ratio,frames,seed")

# small-everything overrides so subcommand tests stay fast
SMALL = ["--set", "n_blocks=8", "--set", "m_levels=4", "--set", "k_states=2",
         "--set", "zeta=10", "--frames", "30"]


# ---------------------------------------------------------------------------
# key=value parsing and layering
# ---------------------------------------------------------------------------

def test_parse_kv_text_basics():
    kv = parse_kv_text("a = 1\n# comment\n\nb=two  # trailing\n")
    assert kv == {"a": "1", "b": "two"}


def test_parse_kv_text_rejects_bad_lines():
    with pytest.raises(ConfigError, match="key = value"):
        parse_kv_text("just words\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_kv_text("a=1\na=2\n")
    with pytest.raises(ConfigError, match=":2:"):
        parse_kv_text("a=1\n=3\n")


def test_default_config_matches_reference_parameters():
    cfg = resolve_config()
    p = cfg.params
    ref = SystemParams()
    assert p.sigma2 == pytest.approx(10 ** -12.75, rel=1e-12)
    assert (p.W, p.tau, p.N, p.R) == (ref.W, ref.tau, ref.N, ref.R)
    assert (p.d_G, p.d_H, p.p_G_max, p.p_H_max) == (50.0, 30.0, 2.0, 0.5)
    assert p.mu_G == pytest.approx(1.0, rel=1e-12)
    assert p.E_m == pytest.approx(4e-5, rel=1e-12)
    assert p.B_m == pytest.approx(2e-3, rel=1e-12)
    assert cfg.m_levels == 100 and cfg.k_states == 25
    assert cfg.zeta == "auto"
    assert len(cfg.zeta_grid) == 401
    assert cfg.zeta_grid[0] == 0.0 and cfg.zeta_grid[-1] == pytest.approx(200.0)


def test_default_preset_sets_every_run_key_but_the_axis_and_artifact_dir():
    # resolve_config has no fallback of its own for these keys
    text = (resources.files("hesnet") / "presets" / "default.cfg").read_text()
    assert set(RUN_KEYS) - set(parse_kv_text(text)) == {"axis", "axis_values", "artifact_dir"}


def test_db_keys_convert_at_parse_time():
    cfg = resolve_config(overrides={"g0_db": "-30", "mu_g_db": "3.0",
                                    "sigma2_dbm": "-90"})
    assert cfg.params.g0 == pytest.approx(1e-3, rel=1e-12)
    assert cfg.params.mu_G == pytest.approx(10 ** 0.3, rel=1e-12)
    assert cfg.params.sigma2 == pytest.approx(1e-12, rel=1e-12)


def test_si_unit_override_replaces_db_spelling():
    cfg = resolve_config(overrides={"sigma2_w": "2e-13"})
    assert cfg.params.sigma2 == 2e-13
    assert "sigma2_w" in cfg.raw and "sigma2_dbm" not in cfg.raw


def test_conflicting_unit_keys_in_one_source_rejected():
    with pytest.raises(ConfigError, match="both set sigma2"):
        resolve_config(overrides={"sigma2_dbm": "-97.5", "sigma2_w": "1e-13"})


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown key 'frequency'"):
        resolve_config(overrides={"frequency": "1"})


def test_invalid_physical_config_is_config_error():
    with pytest.raises(ConfigError, match="invalid physical configuration"):
        resolve_config(overrides={"tau_ms": "0"})


def test_axis_values_converted_to_si():
    cfg = resolve_config(overrides={"axis": "p_avg_mw", "axis_values": "10,20"})
    assert cfg.axis == "P_avg"
    assert cfg.axis_values == (0.01, 0.02)
    with pytest.raises(ConfigError, match="unknown axis"):
        resolve_config(overrides={"axis": "voltage", "axis_values": "1"})
    with pytest.raises(ConfigError, match="axis_values"):
        resolve_config(overrides={"axis": "w_d"})


def test_zeta_parsing():
    assert resolve_config(overrides={"zeta": "7.5"}).zeta == 7.5
    with pytest.raises(ConfigError, match="zeta"):
        resolve_config(overrides={"zeta": "-1"})
    grid = resolve_config(overrides={"zeta_grid": "0:5:30"}).zeta_grid
    assert grid == tuple(float(x) for x in range(0, 31, 5))
    with pytest.raises(ConfigError, match="zeta_grid"):
        resolve_config(overrides={"zeta_grid": "0,5,30"})


def test_oversized_zeta_grid_is_refused_before_it_is_built(tmp_path, capsys):
    assert len(resolve_config().zeta_grid) == 401
    assert len(resolve_config(overrides={"zeta_grid": f"0:1:{ZETA_GRID_MAX - 1}"}).zeta_grid) \
        == ZETA_GRID_MAX
    tracemalloc.start()
    t0 = time.perf_counter()
    try:
        for grid in ("0:1e-12:1", f"0:1:{ZETA_GRID_MAX}", "0:1e-320:1e300"):
            with pytest.raises(ResourceLimitError, match="zeta_grid"):
                resolve_config(overrides={"zeta_grid": grid})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - t0 < 1.0 and peak < 1 << 20
    assert main(["calibrate-zeta", "--zeta-grid", "0:1e-12:1", "--out", str(tmp_path)]) == 3
    assert "zeta_grid" in capsys.readouterr().err


def test_integer_keys_parse_exact_digits(tmp_path, capsys):
    # a float parse would run 2^53 + 1 as 2^53, and 2^64 + 1 as 2^64, which
    # the 64-bit rng key masks to seed 0
    assert resolve_config(overrides={"seed": "9007199254740993"}).seed == 9007199254740993
    assert resolve_config(overrides={"seed": str(2 ** 64 - 2)}).seed == 2 ** 64 - 2
    assert resolve_config(overrides={"frames": "1e3"}).frames == 1000
    for seed in (str(2 ** 64 - 1), "18446744073709551617"):
        with pytest.raises(ConfigError, match="seed"):
            resolve_config(overrides={"seed": seed})
    with pytest.raises(ConfigError, match="integer"):
        resolve_config(overrides={"frames": "2.5"})
    assert main(["simulate", "--seed", "18446744073709551617", "--set", "policies=GT",
                 "--out", str(tmp_path)]) == 2
    assert "seed" in capsys.readouterr().err


def test_all_presets_resolve():
    for name, users in [("fig3", 1), ("fig4", 1), ("fig5-two-user", 2),
                        ("fig6", 1), ("fig7", 1)]:
        cfg = resolve_config(preset=name)
        assert cfg.users == users
        assert cfg.axis is not None and cfg.policies
    assert resolve_config(preset="fig3").axis == "d_H"
    with pytest.raises(ConfigError, match="available"):
        resolve_config(preset="fig99")


def test_flag_style_overrides_win():
    assert resolve_config(overrides={"frames": "7"}).frames == 7
    assert resolve_config(preset="fig4", overrides={"axis_values": "20"}).axis_values == (0.02,)


# ---------------------------------------------------------------------------
# offline-solve
# ---------------------------------------------------------------------------

def test_offline_solve_replay_round_trip(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    dump = tmp_path / "traj.txt"
    base = ["offline-solve", "--set", "n_blocks=10", "--seed", "5"]
    assert main(base + ["--out", str(out1), "--dump", str(dump)]) == 0
    assert main(base + ["--out", str(out2), "--replay", str(dump)]) == 0
    assert (out1 / "offline_schedule.csv").read_bytes() == (out2 / "offline_schedule.csv").read_bytes()
    assert (out1 / "offline_summary.json").read_bytes() == (out2 / "offline_summary.json").read_bytes()
    report = json.loads((out1 / "offline_summary.json").read_text())
    assert report["gap"] >= 0
    assert set(report["solvers"]) == {"greedy", "exhaustive"}


def test_offline_schedule_header_and_partition(tmp_path):
    assert main(["offline-solve", "--set", "n_blocks=6", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "offline_schedule.csv").read_text().splitlines()
    assert lines[0] == "solver,block,gamma_G,gamma_H,e_H_j,alpha,i_G,i_H,i_D,p_G_w,p_H_w"
    for line in lines[1:]:
        parts = line.split(",")
        assert int(parts[6]) + int(parts[7]) + int(parts[8]) == 1  # one of serve/serve/drop


def test_offline_solve_replay_errors_carry_line_numbers(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("1 0.5 0.5 1e-5\n2 oops 0.5 1e-5\n")
    code = main(["offline-solve", "--set", "n_blocks=2", "--replay", str(bad),
                 "--out", str(tmp_path)])
    assert code == 2
    assert ":2:" in capsys.readouterr().err

    short = tmp_path / "short.txt"
    short.write_text("1 0.5 0.5 1e-5\n")
    assert main(["offline-solve", "--set", "n_blocks=9", "--replay", str(short),
                 "--out", str(tmp_path)]) == 2

    wide = tmp_path / "wide.txt"
    wide.write_text("1 0.5 0.5 1e-5 9\n")
    code = main(["offline-solve", "--set", "n_blocks=1", "--replay", str(wide),
                 "--out", str(tmp_path)])
    assert code == 2
    assert "4 fields" in capsys.readouterr().err


def test_offline_solve_replay_rejects_non_finite_or_negative_fields(tmp_path, capsys):
    for row in ("3 0.5 nan 1e-5", "3 inf 0.5 1e-5", "3 0.5 0.5 -1e-6", "3 -0.5 0.5 1e-5"):
        replay = tmp_path / "replay.txt"
        replay.write_text(f"1 0.5 0.5 1e-5\n2 0.5 0.5 1e-5\n{row}\n4 0.5 0.5 1e-5\n")
        code = main(["offline-solve", "--set", "n_blocks=4", "--replay", str(replay),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{replay}:3:" in err and "finite and >= 0" in err, row
        assert not (tmp_path / "out" / "offline_summary.json").exists()


def test_offline_solve_replay_rejects_arrivals_above_e_m(tmp_path, capsys):
    # 1 J in block 1 would let all six blocks be served from a 2.4e-4 J battery
    flood = tmp_path / "flood.txt"
    flood.write_text("1 0.5 0.5 1.0\n" + "".join(f"{i} 0.5 0.5 0.0\n" for i in range(2, 7)))
    code = main(["offline-solve", "--set", "n_blocks=6", "--replay", str(flood),
                 "--out", str(tmp_path / "flood")])
    assert code == 2
    err = capsys.readouterr().err
    assert ":1:" in err and "E_m" in err
    assert not (tmp_path / "flood" / "offline_summary.json").exists()
    # a sampled frame stays within E_m, so its dump still replays
    for seed in ("1", "2", "3"):
        dump = tmp_path / f"traj{seed}.txt"
        base = ["offline-solve", "--seed", seed]
        assert main(base + ["--out", str(tmp_path / "a"), "--dump", str(dump)]) == 0
        assert main(base + ["--out", str(tmp_path / "b"), "--replay", str(dump)]) == 0
        assert ((tmp_path / "a" / "offline_summary.json").read_bytes()
                == (tmp_path / "b" / "offline_summary.json").read_bytes())


def test_offline_solve_refuses_more_than_one_user(tmp_path, capsys):
    # the trajectory and replay formats hold one user; planning only the
    # first of two users would be a silent wrong answer
    for extra in (["--set", "users=2"], ["--preset", "fig5-two-user"]):
        out = tmp_path / extra[-1]
        assert main(["offline-solve", *extra, "--out", str(out)]) == 2
        assert "users=2" in capsys.readouterr().err
        assert not out.exists()


def test_mdp_train_refuses_more_than_one_user(tmp_path, capsys):
    # the table policies play one user, so a table trained at users=2 could
    # never be played; it is refused before any solve
    out = tmp_path / "two"
    assert main(["mdp-train", "--preset", "fig5-two-user", "--out", str(out)]) == 2
    assert "users=2" in capsys.readouterr().err
    assert not out.exists()


def test_calibrate_zeta_refuses_more_than_one_user(tmp_path, capsys):
    # the calibrator walks one user's threshold rule; its zeta would be
    # reported for a shared-battery rule it never scored
    out = tmp_path / "two"
    assert main(["calibrate-zeta", "--preset", "fig5-two-user", "--out", str(out)]) == 2
    assert "users=2" in capsys.readouterr().err
    assert not out.exists()


def test_offline_solve_writes_both_solvers_and_the_gap_at_any_n(tmp_path):
    assert main(["offline-solve", "--set", "n_blocks=60", "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "offline_summary.json").read_text())
    assert set(report["solvers"]) == {"greedy", "exhaustive"} and report["gap"] >= 0


def test_offline_solve_replay_past_the_front_bound_is_resource_limit(tmp_path, capsys):
    # every skip cost equals its spend (the grid link's fading is (d_G/d_H)^theta
    # times the harvesting link's, arrivals are E_m), so no prefix beats another
    # and the optimum's Pareto front doubles per block: 2^17 states at block 17
    p = SystemParams()
    gamma_h = np.random.default_rng(8).uniform(2.0, 4.0, 24).tolist()
    dump = tmp_path / "crafted.txt"
    dump.write_text("".join(f"{i + 1} {(p.d_G / p.d_H) ** p.theta * g!r} {g!r} {p.E_m!r}\n"
                            for i, g in enumerate(gamma_h)))
    out = tmp_path / "solve"
    assert main(["offline-solve", "--set", "n_blocks=24", "--replay", str(dump),
                 "--out", str(out)]) == 3
    assert "holds 131072 states after block 17, over FRONT_MAX = 65536" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# mdp-train
# ---------------------------------------------------------------------------

def test_mdp_train_writes_artifact_and_retrains_identically(tmp_path):
    argv = ["mdp-train"] + SMALL + ["--out", str(tmp_path)]
    assert main(argv) == 0
    art = tmp_path / "mbia_M4_K2.pol"
    log_path = tmp_path / "mbia_M4_K2.train.json"
    first = art.read_bytes()
    log = json.loads(log_path.read_text())
    assert log["evaluations_total"] <= log["bound_total"]
    assert log["per_state_max"] <= log["per_state_bound"] == 3
    assert log["bound_total"] == 3 * 4 * 8
    table = load_policy_artifact(art)
    assert table.N == 8 and table.top.shape == (8, 4, 2)
    assert main(argv) == 0
    assert art.read_bytes() == first  # retraining is byte-identical


@pytest.mark.parametrize("m,identity", [(10, True), (25, True), (100, False)])
def test_mdp_train_flags_a_kernel_that_never_credits_a_harvest(m, identity, tmp_path):
    # at fig3's point half a battery bin holds a block's largest harvest up
    # to M = 25, so with no spend every mid-value re-quantizes to itself
    assert main(["mdp-train", "--preset", "fig3", "--m-levels", str(m), "--out", str(tmp_path)]) == 0
    log = json.loads((tmp_path / f"mbia_M{m}_K25.train.json").read_text())
    assert log["kernel0_is_identity"] is identity


def test_mdp_train_at_m1600_holds_one_block_of_action_values(tmp_path):
    # every block's q0/q1 would be 32 MB here and the dense no-spend kernel
    # 20 MB; the command holds the band and one gather buffer (11.3 MB
    # each): 31.5 MB peak measured
    tracemalloc.start()
    try:
        assert main(["mdp-train", "--preset", "fig3", "--set", "m_levels=1600",
                     "--out", str(tmp_path)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 36e6
    log = json.loads((tmp_path / "mbia_M1600_K25.train.json").read_text())
    assert log["kernel0_is_identity"] is False
    assert load_policy_artifact(tmp_path / log["artifact"]).top.shape == (50, 1600, 25)


def test_mdp_train_predicts_the_simulated_cost_of_its_table(tmp_path):
    # the model's expected frame cost of its own table, from an empty
    # battery, against the table played on 2000 frames at fig3's point
    art = tmp_path / "art"
    assert main(["mdp-train", "--preset", "fig3", "--m-levels", "100", "--out", str(art)]) == 0
    log = json.loads((art / "mbia_M100_K25.train.json").read_text())
    assert main(["simulate", "--preset", "fig3", "--set", "policies=MBIA-M100", "--frames", "2000",
                 "--artifact-dir", str(art), "--out", str(tmp_path / "sim")]) == 0
    with open(tmp_path / "sim" / "simulate.csv") as f:
        (row,) = csv.DictReader(f)
    mean, stderr = float(row["mean_total_cost"]), float(row["stderr_total_cost"])
    assert abs(log["predicted_cost"] - mean) <= 4 * stderr


def test_mdp_train_writes_where_simulate_reads(tmp_path):
    art, out = tmp_path / "art", tmp_path / "out"
    assert main(["mdp-train"] + SMALL + ["--set", f"artifact_dir={art}", "--out", str(out)]) == 0
    assert sorted(p.name for p in art.iterdir()) == ["mbia_M4_K2.pol", "mbia_M4_K2.train.json"]
    assert main(["simulate"] + SMALL + ["--set", "policies=MBIA-M4", "--artifact-dir", str(art),
                                        "--out", str(out)]) == 0


def test_mdp_train_logs_artifact_bytes_and_simulate_refuses_v1_files(tmp_path, capsys):
    assert main(["mdp-train"] + SMALL + ["--out", str(tmp_path / "new")]) == 0
    blob = (tmp_path / "new" / "mbia_M4_K2.pol").read_bytes()
    log = json.loads((tmp_path / "new" / "mbia_M4_K2.train.json").read_text())
    header_end = blob.index(b"\n", len(b"HESNETPOLICY 1\n")) + 1
    # header, grid (M mids, M+1 edges, K+1 bounds and K levels per channel), N*M*K int16 thresholds
    assert log["artifact_bytes"] == len(blob) == header_end + 8 * (9 + 2 * 5) + 2 * 8 * 4 * 2
    assert log["artifact_sha256"] == hashlib.sha256(blob).hexdigest()
    # the same table in the version-1 layout, a dense uint8 serve mask, is refused
    table = load_policy_artifact(tmp_path / "new" / "mbia_M4_K2.pol")
    (tmp_path / "old").mkdir()
    v1_artifact(tmp_path / "old" / "mbia_M4_K2.pol", table.top, table.grid, table.params_hash)
    capsys.readouterr()
    assert main(["simulate"] + SMALL + ["--set", "policies=MBIA-M4", "--artifact-dir",
                                        str(tmp_path / "old"), "--out", str(tmp_path / "old")]) == 2
    err = capsys.readouterr().err
    assert "unsupported artifact version 1" in err and "mdp-train" in err
    assert not (tmp_path / "old" / "simulate.csv").exists()


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_loads_artifact_and_pins_csv_header(tmp_path):
    assert main(["mdp-train"] + SMALL + ["--out", str(tmp_path)]) == 0
    argv = ["simulate"] + SMALL + ["--set", "policies=GT,Threshold,MBIA-M4,GA,Exhaustive",
                                   "--out", str(tmp_path)]
    assert main(argv) == 0
    lines = (tmp_path / "simulate.csv").read_text().splitlines()
    assert lines[0] == GOLDEN_HEADER
    names = [line.split(",", 1)[0] for line in lines[1:]]
    assert names == ["GT", "Threshold", "MBIA-M4", "Greedy", "Exhaustive"]
    manifest = json.loads((tmp_path / "simulate_manifest.json").read_text())
    assert manifest["params_hash"] == resolve_config(
        overrides={"n_blocks": "8", "m_levels": "4", "k_states": "2"}).params.content_hash()
    (point,) = manifest["points"]
    assert point["axis_value"] == 0.0 and sorted(point["report"]) == ["MBIA-M4", "Threshold"]
    art = point["report"]["MBIA-M4"]
    assert art["path"].endswith("mbia_M4_K2.pol") and len(art["sha256"]) == 64
    assert art["params_hash"] == manifest["params_hash"]
    assert manifest["csv_sha256"]


def test_simulate_missing_artifact_names_expected_path(tmp_path, capsys):
    code = main(["simulate"] + SMALL + ["--set", "policies=MBIA-M4",
                                        "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "mbia_M4_K2.pol" in err and "mdp-train" in err


def test_simulate_padded_artifact_is_exit_2(tmp_path, capsys):
    assert main(["mdp-train"] + SMALL + ["--out", str(tmp_path)]) == 0
    art = tmp_path / "mbia_M4_K2.pol"
    art.write_bytes(art.read_bytes() + b"\0")
    code = main(["simulate"] + SMALL + ["--set", "policies=MBIA-M4", "--out", str(tmp_path)])
    assert code == 2
    assert "mbia_M4_K2.pol" in capsys.readouterr().err


def test_simulate_stale_artifact_is_exit_4(tmp_path, capsys):
    assert main(["mdp-train"] + SMALL + ["--out", str(tmp_path)]) == 0
    code = main(["simulate"] + SMALL + ["--set", "policies=MBIA-M4",
                                        "--set", "w_d=0.3", "--out", str(tmp_path)])
    assert code == 4
    assert "retrain" in capsys.readouterr().err


@pytest.mark.parametrize("preset,changes", [
    ("fig3", {}), ("fig4", {}), ("default", {}), ("fig6", {}), ("default", {"n_blocks": "2"})])
def test_look_ahead_plays_the_last_two_blocks_of_the_mbia_table(preset, changes, monkeypatch):
    # a run holding MBIA at Look-Ahead's M solves once; the 2-block
    # recursion is the last two blocks of the N-block one, bit for bit
    cfg = resolve_config(preset=preset, overrides={"policies": "LA,MBIA", **changes})
    factories, _ = _online_factories(cfg, train_mbia=True)
    solves = []
    solve = cli.monotone_backward_induction
    monkeypatch.setattr(cli, "monotone_backward_induction",
                        lambda *args: solves.append(args) or solve(*args))
    report: dict = {}
    played = factories["Look-Ahead"](cfg.params, report).table
    assert len(solves) == 1
    mbia = factories[f"MBIA-M{cfg.m_levels}"](cfg.params, report).table
    assert len(solves) == 1 and (played.top[:-1] == mbia.top[-2]).all()
    assert list(report) == [f"MBIA-M{cfg.m_levels}"]
    built = look_ahead_build(cfg.params, M=cfg.m_levels, K=cfg.k_states)
    assert played.top.dtype == built.top.dtype and np.array_equal(played.top, built.top)
    assert played.params_hash == built.params_hash


def test_look_ahead_loading_the_mbia_artifact_fails_and_plays_as_mbia_alone(tmp_path, capsys):
    def simulate(policies, *extra):
        code = main(["simulate"] + SMALL + ["--set", f"policies={policies}", *extra,
                                            "--out", str(tmp_path)])
        return code, capsys.readouterr().err
    # a missing, then a stale artifact: Look-Ahead loads it first, and the
    # run fails with MBIA's own exit code and message
    assert simulate("LA,MBIA-M4") == simulate("MBIA-M4") != (0, "")
    assert main(["mdp-train"] + SMALL + ["--out", str(tmp_path)]) == 0
    stale = simulate("MBIA-M4", "--set", "w_d=0.3")
    assert stale[0] == 4 and simulate("LA,MBIA-M4", "--set", "w_d=0.3") == stale
    # with the table at hand, Look-Ahead's row is the one it gets alone
    assert simulate("LA") == (0, "")
    alone = (tmp_path / "simulate.csv").read_text().splitlines()[1]
    assert simulate("LA,MBIA-M4") == (0, "")
    assert (tmp_path / "simulate.csv").read_text().splitlines()[1] == alone


def test_offline_rows_on_a_capped_battery_are_exit_4(tmp_path, capsys):
    # the offline solvers model an uncapped battery; below N * E_m their plans
    # are a relaxation the battery cannot carry out, so they are refused
    capped = ["--frames", "20", "--seed", "3", "--set", "b_m_j=8e-5", "--out", str(tmp_path)]
    assert main(["simulate", *capped, "--set", "policies=GT,GA"]) == 4
    assert "uncapped battery" in capsys.readouterr().err
    assert not (tmp_path / "simulate.csv").exists()
    assert main(["offline-solve", *capped]) == 4
    assert main(["simulate", *capped, "--set", "policies=GT"]) == 0
    assert [line.split(",", 1)[0] for line in
            (tmp_path / "simulate.csv").read_text().splitlines()[1:]] == ["GT"]


def test_battery_cap_with_a_p_avg_axis_is_refused(tmp_path, capsys):
    # each point of the p_avg_mw axis re-derives B_m = N * E_m, so a
    # configured b_m_j would be written to the manifest but never run; the
    # sweep refuses it at its first point (sim.apply_axis), before any file
    capped = ["--frames", "20", "--set", "axis_values=20", "--set", "zeta=8.5",
              "--set", "policies=GT,GA", "--set", "b_m_j=8e-5", "--out", str(tmp_path)]
    assert main(["sweep", "--preset", "fig4", *capped]) == 2
    err = capsys.readouterr().err
    assert "B_m = 8e-05 J differs from N * E_m" in err and "P_avg axis" in err
    assert not any(tmp_path.iterdir())
    # the config itself resolves: only a sweep over p_avg_mw refuses it
    assert resolve_config(overrides={"b_m_j": "8e-5", "axis": "p_avg_mw",
                                     "axis_values": "20"}).params.B_m == 8e-5
    # other axes keep a configured cap
    assert resolve_config(overrides={"b_m_j": "8e-5", "axis": "w_d",
                                     "axis_values": "0.1"}).params.B_m == 8e-5


def test_battery_cap_runs_under_a_preset_with_a_p_avg_axis(tmp_path):
    # fig4 names the p_avg_mw axis, but simulate and mdp-train do not sweep
    # it, so a configured b_m_j is theirs to run
    pinned = ["--preset", "fig4", "--set", "b_m_j=2e-3"]
    assert main(["simulate", *pinned, "--frames", "20", "--set", "policies=GT,GA",
                 "--out", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "simulate_manifest.json").read_text())
    assert manifest["params"]["B_m"] == 2e-3 and manifest["config"]["b_m_j"] == "2e-3"
    assert main(["mdp-train", *pinned, "--m-levels", "4", "--set", "k_states=2",
                 "--out", str(tmp_path)]) == 0


def test_simulate_rejects_unknown_policy(tmp_path, capsys):
    assert main(["simulate"] + SMALL + ["--set", "policies=Oracle",
                 "--out", str(tmp_path)]) == 2
    # an unknown token is reported as unknown at any user count
    for users in ("1", "2"):
        for token in ("Oracle", "MBIA-Mx"):
            assert main(["simulate"] + SMALL + ["--set", f"users={users}",
                         "--set", f"policies=GT,{token}", "--out", str(tmp_path)]) == 2
            assert f"unknown policy token {token!r}" in capsys.readouterr().err
    # MBIA-M<levels> takes the bound of m_levels, before any artifact is looked for
    assert main(["simulate"] + SMALL + ["--set", "policies=GT,MBIA-M0",
                 "--out", str(tmp_path)]) == 2
    assert "must be >= 1, got 0" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "sweep"])
@pytest.mark.parametrize("tokens", [("GT", "gt"), ("LA", "look-ahead"), ("MBIA", "MBIA-M100"),
                                    ("GA", "Greedy")])
def test_repeated_policy_row_is_refused_before_any_work(tmp_path, capsys, command, tokens):
    # two spellings of one row would collapse into one; the refusal names
    # both tokens and comes before training, artifacts or output
    out = tmp_path / "out"
    argv = [command, "--set", "n_blocks=8", "--set", "m_levels=100", "--frames", "5",
            "--set", "policies=Threshold," + ",".join(tokens),
            "--set", f"artifact_dir={tmp_path / 'missing'}", "--out", str(out)]
    if command == "sweep":
        argv += ["--set", "axis=p_avg_mw", "--set", "axis_values=10,20"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"policy tokens {tokens[0]!r} and {tokens[1]!r}" in err
    assert not out.exists()


def test_simulate_exhaustive_token_past_20_blocks_runs(tmp_path):
    # the optimum is bounded by its front, not by N; GA names the Greedy row alone
    for policies, names in (("GT,GA", ["GT", "Greedy"]),
                            ("GT,GA,Exhaustive", ["GT", "Greedy", "Exhaustive"])):
        assert main(["simulate", "--set", "n_blocks=21", "--set", f"policies={policies}",
                     "--frames", "5", "--out", str(tmp_path)]) == 0
        with open(tmp_path / "simulate.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert [row["policy"] for row in rows] == names
    cost = {row["policy"]: float(row["mean_total_cost"]) for row in rows}
    assert cost["Exhaustive"] <= cost["Greedy"] <= cost["GT"]


def test_each_offline_token_names_one_row(tmp_path):
    # a row is written only for its own token, and the offline rows follow
    # the online ones in token order
    for policies, rows in (("GT,GA", ["GT", "Greedy"]),
                           ("GT,GA,Exhaustive", ["GT", "Greedy", "Exhaustive"]),
                           ("GT,Exhaustive", ["GT", "Exhaustive"]),
                           ("Exhaustive,GT,Greedy", ["GT", "Exhaustive", "Greedy"])):
        assert main(["simulate"] + SMALL + ["--set", f"policies={policies}",
                                            "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "simulate.csv").read_text().splitlines()[1:]
        assert [line.split(",", 1)[0] for line in lines] == rows, policies
    manifest = json.loads((tmp_path / "simulate_manifest.json").read_text())
    assert "solver" not in manifest["config"]


def test_simulate_two_user_rejects_table_policies(tmp_path, capsys):
    for token in ("LA", "LookAhead", "look-ahead", "MBIA", "MBIA-M4", "Exhaustive"):
        assert main(["simulate"] + SMALL + ["--set", "users=2",
                     "--set", f"policies=GT,{token}", "--out", str(tmp_path)]) == 2
        assert "single-user only" in capsys.readouterr().err


def test_simulate_two_user_runs(tmp_path):
    assert main(["simulate"] + SMALL + ["--set", "users=2",
                 "--set", "policies=GT,Threshold,GA", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "simulate.csv").read_text().splitlines()
    assert lines[0] == GOLDEN_HEADER
    assert [l.split(",", 1)[0] for l in lines[1:]] == ["GT", "Threshold", "Greedy"]
    manifest = json.loads((tmp_path / "simulate_manifest.json").read_text())
    assert manifest["users"] == 2
    # every spelling of a policy that decides any user count runs
    rows = {"GT": "GT", "TH": "Threshold", "Threshold": "Threshold", "GP-only": "GP-only",
            "GPonly": "GP-only", "GA": "Greedy", "Greedy": "Greedy"}
    for token, row in rows.items():
        assert main(["simulate"] + SMALL + ["--set", "users=2", "--set", f"policies={token}",
                                            "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "simulate.csv").read_text().splitlines()[1:]
        assert [line.split(",", 1)[0] for line in lines] == [row]


def test_simulate_two_user_grid_only_row_is_the_joint_walk(tmp_path):
    # GP-only decides every user of a block, so it runs at two users; its
    # row is the shared walk's with the grid BS admitting under p_G_max
    assert main(["simulate"] + SMALL + ["--set", "users=2", "--set", "policies=GT,GP-only",
                                        "--out", str(tmp_path)]) == 0
    with open(tmp_path / "simulate.csv", newline="") as f:
        rows = {row["policy"]: row for row in csv.DictReader(f)}
    cfg = resolve_config(overrides={"n_blocks": "8", "users": "2"})
    batch = sample_trajectories(cfg.params, cfg.seed, 30, users=2)
    m = metrics_row("GP-only", "none", 0.0, 2 * cfg.params.N, cfg.seed,
                    *exact_totals(GridOnlyPolicy(), batch))
    row = rows["GP-only"]
    assert (float(row["mean_total_cost"]), float(row["stderr_total_cost"]),
            float(row["grid_energy_j"]), float(row["drop_ratio"]), int(row["frames"])) == (
        m["mean_total_cost"], m["stderr_total_cost"], m["grid_energy_j"], m["drop_ratio"], 30)
    assert float(row["mean_total_cost"]) > float(rows["GT"]["mean_total_cost"])


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_axis_required(tmp_path):
    assert main(["sweep"] + SMALL + ["--set", "policies=GT",
                 "--out", str(tmp_path)]) == 2


def test_sweep_rows_manifest_and_rerun_bytes(tmp_path):
    cases = [(1, "GT,MBIA-M4,GA,Exhaustive", ["GT", "MBIA-M4", "Greedy", "Exhaustive"]),
             (2, "GA,GT,Threshold", ["GT", "Threshold", "Greedy"])]   # offline rows last
    for users, policies, rows in cases:
        base = ["sweep"] + SMALL + ["--set", f"users={users}", "--set", f"policies={policies}",
                                    "--axis", "w_d", "--axis-values", "0.01,1.0"]
        out1, out2 = tmp_path / f"a{users}", tmp_path / f"b{users}"
        assert main(base + ["--out", str(out1), "--threads", "1"]) == 0
        assert main(base + ["--out", str(out2)]) == 0
        text1 = (out1 / "sweep_w_d.csv").read_text()
        assert text1 == (out2 / "sweep_w_d.csv").read_text()
        lines = text1.splitlines()
        assert lines[0] == GOLDEN_HEADER
        assert [l.split(",", 1)[0] for l in lines[1:]] == rows * 2   # two points
        manifest = json.loads((out1 / "sweep_manifest.json").read_text())
        assert manifest["axis"] == "w_d"
        points = manifest["points"]
        assert [p["axis_value"] for p in points] == [0.01, 1.0]
        entries = ["MBIA-M4"] if users == 1 else ["Threshold"]
        assert [sorted(p["report"]) for p in points] == [entries] * 2
        assert not {"axis_values", "zeta", "artifacts", "mbia_trained_inline"} & set(manifest)
        assert manifest["users"] == users and "threads" not in manifest
        assert ("per_user_bandwidth_hz" in manifest) == (users > 1)


def test_threads_other_than_one_is_refused_before_any_output(tmp_path, capsys):
    # a sweep runs on one thread: threads = 2 is refused by flag, by --set
    # and from a config file alike, before the output directory is made
    config = tmp_path / "two.cfg"
    config.write_text("threads = 2\n")
    out = tmp_path / "out"
    base = ["sweep"] + SMALL + ["--set", "policies=GT", "--axis", "w_d",
                                "--axis-values", "0.01", "--out", str(out)]
    capsys.readouterr()
    for how in (["--threads", "2"], ["--set", "threads=2"], ["--config", str(config)]):
        assert main(base + how) == 2, how
        assert "key 'threads' must be <= 1, got 2" in capsys.readouterr().err, how
        assert not out.exists(), how


def test_sweep_records_every_point_of_a_repeated_axis_value(tmp_path):
    # each axis value is a point of its own, so a repeated value is trained
    # and reported again rather than served from another point's tables
    assert main(["sweep", "--preset", "fig4"] + SMALL + [
        "--set", "policies=Threshold,MBIA,LA", "--axis-values", "20,20,25",
        "--out", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "sweep_manifest.json").read_text())
    points = manifest["points"]
    assert [p["axis_value"] for p in points] == [0.02, 0.02, 0.025]
    assert [sorted(p["report"]) for p in points] == [["MBIA-M4", "Threshold"]] * 3
    assert points[0] == points[1] != points[2]
    assert points[2]["report"]["MBIA-M4"]["params_hash"] != points[0]["report"]["MBIA-M4"][
        "params_hash"]


def test_sweep_holds_the_mbia_tables_of_one_point_at_a_time(tmp_path, monkeypatch):
    # when a point solves its table, only the last point's table (held by
    # its policies until they are replaced) is still alive
    tables, live = [], []
    solve = cli.monotone_backward_induction

    def tracked(*args):
        live.append(sum(ref() is not None for ref in tables))
        table, u_hat, counts = solve(*args)
        tables.append(weakref.ref(table))
        return table, u_hat, counts

    monkeypatch.setattr(cli, "monotone_backward_induction", tracked)
    assert main(["sweep", "--preset", "fig4"] + SMALL + [
        "--set", "policies=MBIA,LA", "--axis-values", "10,20,25,30",
        "--out", str(tmp_path)]) == 0
    assert live == [0, 1, 1, 1]


def test_sweep_reports_the_table_mdp_train_writes_at_its_point(tmp_path):
    # the fig3 point d_H = 40 m is d_G = 40 m on the 80 m line; the sweep's
    # MBIA entry there holds the solve fields of mdp-train's train.json
    art = tmp_path / "art"
    assert main(["mdp-train", "--preset", "fig3", "--m-levels", "25", "--set", "d_h_m=40",
                 "--set", "d_g_m=40", "--out", str(art)]) == 0
    log = json.loads((art / "mbia_M25_K25.train.json").read_text())
    assert main(["sweep", "--preset", "fig3", "--set", "policies=MBIA-M25", "--axis-values", "40",
                 "--frames", "4", "--out", str(tmp_path / "sweep")]) == 0
    manifest = json.loads((tmp_path / "sweep" / "sweep_manifest.json").read_text())
    (point,) = manifest["points"]
    solve = {key: value for key, value in log.items() if not key.startswith("artifact")}
    assert point["report"] == {"MBIA-M25": solve}
    assert len(solve) == 11 and solve["kernel0_is_identity"] is True


def test_sweep_preset_smoke(tmp_path):
    assert main(["sweep", "--preset", "fig7"] + SMALL +
                ["--set", "axis_values=0.01,1.0", "--set", "policies=GT,GP-only,GA,Exhaustive",
                 "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "sweep_w_d.csv").read_text().splitlines()
    names = {l.split(",", 1)[0] for l in lines[1:]}
    assert names == {"GT", "GP-only", "Greedy", "Exhaustive"}


# ---------------------------------------------------------------------------
# calibrate-zeta / quantize-info
# ---------------------------------------------------------------------------

def test_calibrate_zeta_outputs(tmp_path):
    assert main(["calibrate-zeta"] + SMALL + ["--zeta-grid", "0:10:30",
                 "--budget", "50", "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "zeta.json").read_text())
    assert doc["zeta_star"] in (0.0, 10.0, 20.0, 30.0)
    assert doc["budget_frames"] == 50
    assert doc["lambda1"] > 0 and doc["lambda2"] > 0
    assert doc["grid"]["count"] == 4


def test_calibrate_zeta_reports_the_zeta_auto_plays(tmp_path):
    # both calibrate on stream seed + 1, so the command reports the pick a
    # run with zeta = auto makes at the same point
    budget = ["--set", "zeta_budget=40"]
    assert main(["calibrate-zeta", "--seed", "3", *budget, "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "zeta.json").read_text())
    assert main(["simulate", "--seed", "3", *budget, "--frames", "5",
                 "--set", "policies=Threshold", "--out", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "simulate_manifest.json").read_text())
    assert manifest["config"]["zeta"] == "auto"
    (point,) = manifest["points"]
    assert point["report"] == {"Threshold": {
        key: doc[key] for key in ("zeta_star", "lambda1", "lambda2")}}
    assert doc["params_hash"] == manifest["params_hash"]


def test_quantize_info_prints_reference_levels(capsys):
    assert main(["quantize-info", "--set", "m_levels=4", "--set", "k_states=2"]) == 0
    out = capsys.readouterr().out
    assert "battery: M=4" in out
    assert repr(1.0 - math.log(2.0)) in out   # low equi-probable state, unit mean
    assert repr(1.0 + math.log(2.0)) in out   # high state
    assert "0.00175" in out                   # top battery level of a 2 mJ pack


def test_every_flag_is_a_run_key_or_a_command_input(capsys):
    # _flag_overrides reads only RUN_KEYS, so a flag whose key left them
    # would be parsed and then silently ignored
    inputs = {"command", "preset", "config", "assignments", "replay", "dump"}
    for command in DISPATCH:
        dests = set(vars(build_parser().parse_args([command])))
        assert dests <= set(RUN_KEYS) | inputs, (command, dests - set(RUN_KEYS) - inputs)
    with pytest.raises(SystemExit) as exc:   # the solver key and its flag are gone
        main(["offline-solve", "--solver", "greedy"])
    assert exc.value.code == 2 and "--solver" in capsys.readouterr().err


def test_cached_parser_carries_no_set_into_the_next_call(monkeypatch):
    # main parses every command with one parser; an earlier call's --set
    # list must not reach a later call that gives none
    seen = []
    monkeypatch.setitem(DISPATCH, "quantize-info", lambda cfg, args: seen.append(cfg) or 0)
    assert main(["quantize-info", "--set", "m_levels=4"]) == 0
    assert main(["quantize-info"]) == 0
    assert build_parser() is build_parser()
    assert (seen[0].m_levels, seen[1].m_levels) == (4, resolve_config().m_levels) != (4, 4)
    assert seen[0].raw != seen[1].raw == resolve_config().raw


def test_main_rejects_malformed_set(tmp_path):
    assert main(["simulate", "--set", "oops", "--out", str(tmp_path)]) == 2


# ---------------------------------------------------------------------------
# edge-case parameter sets
# ---------------------------------------------------------------------------

def test_threshold_at_zero_drop_price_is_exit_2(tmp_path, capsys):
    for argv in (["simulate", "--set", "policies=Threshold,GT", "--frames", "5"],
                 ["calibrate-zeta", "--budget", "5"]):
        assert main([*argv, "--set", "w_d=0", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "w_D" in err and "Threshold" in err and "Traceback" not in err


def test_threshold_with_no_feasible_serve_matches_gt(tmp_path):
    # a 10 uW peak cap is below every harvesting inversion power, and the
    # closed-form lambda2 must not overflow on the way
    assert main(["simulate", "--set", "p_h_max_w=1e-5", "--set", "policies=Threshold,GT",
                 "--frames", "20", "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "simulate.csv").read_text().splitlines()[1:]
    threshold, gt = (row.split(",", 1) for row in rows)
    assert (threshold[0], gt[0]) == ("Threshold", "GT") and threshold[1] == gt[1]


@pytest.mark.parametrize("key", ["n_blocks=1", "k_states=1", "m_levels=1"])
def test_train_and_simulate_at_a_single_block_state_or_level(tmp_path, key):
    # N=1 also makes B_m = E_m, so its Greedy and Exhaustive rows run the
    # offline plans on the smallest uncapped battery
    policies = "GT,LA,Threshold,MBIA,GA" + (",Exhaustive" if key == "n_blocks=1" else "")
    argv = ["--set", key, "--seed", "3", "--out", str(tmp_path)]
    assert main(["mdp-train", *argv]) == 0
    assert main(["simulate", *argv, "--frames", "50", "--set", f"policies={policies}"]) == 0
    cfg = resolve_config(overrides=dict([key.split("=")]))
    params = cfg.params
    with open(tmp_path / "simulate.csv") as f:
        rows = {row["policy"]: row for row in csv.DictReader(f)}
    assert list(rows) == ["GT", "Look-Ahead", "Threshold", f"MBIA-M{cfg.m_levels}", "Greedy",
                          *(["Exhaustive"] if key == "n_blocks=1" else [])]
    for row in rows.values():
        cost, grid, drop = (float(row[k]) for k in ("mean_total_cost", "grid_energy_j",
                                                    "drop_ratio"))
        assert all(math.isfinite(v) for v in (cost, grid, drop))
        assert math.isclose(cost, params.w_G * grid + params.w_D * params.N * drop,
                            rel_tol=1e-9)
    if key == "n_blocks=1":
        # the single block is Look-Ahead's last, which serves every feasible gain
        assert {**rows["Look-Ahead"], "policy": "GT"} == rows["GT"]
        for name in ("Greedy", "Exhaustive", "GT"):
            assert float(rows[name]["mean_total_cost"]) == pytest.approx(0.00204781, abs=5e-9)


@settings(derandomize=True, max_examples=25, deadline=None, database=None)
@given(command=st.sampled_from(["simulate", "calibrate-zeta"]),
       w_d=st.sampled_from([0.0, 1e-6, 0.01, 2.0]) | st.floats(0.0, 2.0),
       p_h_max=st.sampled_from([1e-6, 1e-5, 2e-5, 5.0]) | st.floats(1e-6, 5.0),
       d_h=st.floats(1.0, 49.0), p_avg_mw=st.floats(0.1, 100.0))
def test_property_cli_edge_parameters_fail_only_with_typed_errors(tmp_path_factory, command,
                                                                  w_d, p_h_max, d_h, p_avg_mw):
    out = tmp_path_factory.mktemp("edge")
    argv = [command, "--frames", "3", "--set", "zeta_budget=3", "--set", "m_levels=4",
            "--set", "k_states=3", "--set", "policies=GT,Threshold,LA,GP-only,GA",
            "--set", f"w_d={w_d!r}", "--set", f"p_h_max_w={p_h_max!r}", "--set", f"d_h_m={d_h!r}",
            "--set", f"p_avg_mw={p_avg_mw!r}", "--out", str(out)]
    try:
        code = main(argv)
    except HesnetError:
        return
    assert code in (0, 2, 3, 4)
