"""Byte identity of the CLI's result files.

A tiny `sweep` CSV of every shipped preset, two multi-user edges (a
three-user `simulate` and a two-user sweep whose grid sum cap binds), one
`calibrate-zeta` zeta.json and the `offline-solve` schedule and summary
(N=12 with both solvers and the gap, its replay, and the default N=50
greedy) are pinned by sha256.  Together they run every single-user policy,
the multi-user walk, inline MBIA and look-ahead training, zeta calibration,
both offline solvers and the per-block plan expansion, so a refactor that
claims to change no number has to keep these bytes; a change that moves a
number on purpose updates the hashes and says why.  The hashes were taken
on x86-64 Linux with numpy 2.4 and scipy 1.17, the versions
ci/constraints.txt pins for CI.
"""

import hashlib

import pytest

from hesnet.cli import main

TINY = ["--frames", "20", "--seed", "3", "--set", "zeta_budget=20", "--set", "m_levels=4",
        "--set", "k_states=3"]

SWEEP_SHA256 = {
    "default": ("sweep_p_avg_mw.csv",
                "34a4d397db6513d51d1bb3ffd7bc7a98112ea529c5bf10f299be40723f6d8b98"),
    "fig3": ("sweep_d_h_m.csv",
             "68492741f210c4c26cc3b493075e9d432c8d25a527b3b8b697feef84f7b8d6e3"),
    "fig4": ("sweep_p_avg_mw.csv",
             "03c1e0d55c318b64e7dc9cfb86747a0d133e3d19ae1b01a0e87f9ee4aeda38f1"),
    "fig5-two-user": ("sweep_p_avg_mw.csv",
                      "728f4ecd7c9878e605fa94a2d9bd1a318888256fbcfd1e7d26c10ed5fe37ad98"),
    "fig6": ("sweep_w_d.csv",
             "33719b13e07a10136d7d1cb91b1b63984f14914b1bc5258baf521930a6e8d995"),
    "fig7": ("sweep_w_d.csv",
             "6cdeae807854e5b7cee01cd380d6d4830cf16f9614402ffbc712aeadb1c6d599"),
}

ZETA_SHA256 = "2518893342e4d6f770c0d3280d081f5e1034ffba5ba1f1135189b378fb049453"

MULTIUSER_SHA256 = {
    "three-user-simulate": (
        ["simulate", "--set", "users=3", "--set", "policies=GT,Threshold,GA"], "simulate.csv",
        "2a3a50107e3322022e69dee56109ec6477f45c3302f6a3ad00fc12f9f042a6e3"),
    "two-user-binding-grid-cap": (
        ["sweep", "--preset", "fig5-two-user", "--set", "p_g_max_w=0.3",
         "--set", "p_h_max_w=0.2"], "sweep_p_avg_mw.csv",
        "8974b7b0ef7d799cb00493e7429ff51a533d0b24a00fdc64b4479f8841b54654"),
}

# (argv, schedule sha256, summary sha256); the replay reads the N=12 dump
OFFLINE_SHA256 = {
    "n12": (["--set", "n_blocks=12"],
            "875561edda182477edf1ebf598736775957b447b7af8a5c25e832a25d2474758",
            "c41b666e64b38ce3d69c54b0d882b673e97672b6020cf3cad8d9fc6ceff31718"),
    "n50-greedy": (["--solver", "greedy"],
                   "2e3710b241990a58e5f78f1a4f9a79aacff3ea96148c9e46aa49609e956bb773",
                   "6157b1aee9b4f1df808bd69ec2bcb49692325a3594083ca20338d2abf13b2201"),
}


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("preset", sorted(SWEEP_SHA256))
def test_tiny_sweep_csv_bytes(preset, tmp_path):
    # the default preset has no axis of its own
    axis = ["--axis", "p_avg_mw", "--axis-values", "15,20"] if preset == "default" else []
    assert main(["sweep", "--preset", preset, *TINY, *axis, "--out", str(tmp_path)]) == 0
    name, digest = SWEEP_SHA256[preset]
    assert sha256(tmp_path / name) == digest


@pytest.mark.parametrize("case", sorted(MULTIUSER_SHA256))
def test_tiny_multiuser_csv_bytes(case, tmp_path):
    argv, name, digest = MULTIUSER_SHA256[case]
    assert main([*argv, *TINY, "--out", str(tmp_path)]) == 0
    assert sha256(tmp_path / name) == digest


def test_calibrate_zeta_json_bytes(tmp_path):
    assert main(["calibrate-zeta", "--seed", "3", "--budget", "40", "--out", str(tmp_path)]) == 0
    assert sha256(tmp_path / "zeta.json") == ZETA_SHA256


@pytest.mark.parametrize("case", sorted(OFFLINE_SHA256))
def test_offline_solve_bytes(case, tmp_path):
    argv, schedule, summary = OFFLINE_SHA256[case]
    out = tmp_path / "solve"
    assert main(["offline-solve", "--seed", "3", *argv, "--dump", str(tmp_path / "dump.txt"),
                 "--out", str(out)]) == 0
    assert (sha256(out / "offline_schedule.csv"), sha256(out / "offline_summary.json")) == (
        schedule, summary)
    if case == "n12":   # a replay of the dump writes the same bytes
        assert main(["offline-solve", *argv, "--replay", str(tmp_path / "dump.txt"),
                     "--out", str(tmp_path / "replay")]) == 0
        for name in ("offline_schedule.csv", "offline_summary.json"):
            assert sha256(tmp_path / "replay" / name) == sha256(out / name)
