"""Byte identity of the CLI's result files.

A tiny `sweep` CSV of every shipped preset, three multi-user edges (a
three-user `simulate`, one at a 0.15 W harvesting peak whose shared
battery binds, and a two-user sweep whose grid sum cap binds), one
`calibrate-zeta` zeta.json and the `offline-solve` schedule and summary
(both solvers and the gap at N=12, with its replay, and at the default
N=50) are pinned by sha256.  Together they run every single-user policy,
the multi-user walk, inline MBIA and look-ahead training, zeta calibration,
both offline solvers and the per-block plan expansion, so a refactor that
claims to change no number has to keep these bytes; a change that moves a
number on purpose updates the hashes and says why.  The N=12 digests were
taken with the 2^N enumerator as the optimum, so they pin the Pareto walk
that replaced it to the enumerator's plan.  The hashes were taken
on x86-64 Linux with numpy 2.4, the version ci/constraints.txt pins for
CI; the package computes E1 itself, so no scipy code reaches these bytes.

The zeta calibrator's cost vectors are pinned too: the full default grid
(401 candidates) at a 400-frame budget, at every shipped preset's own
point and at every axis point.  The axis points are drawn on seed + 1,
the stream every command calibrates on (`zeta = auto` and
`calibrate-zeta`); the preset's own point is drawn on the preset's seed
itself, which pins the library call `calibrate_zeta` and no command.
The digests were taken with a calibrator that walked every (candidate,
frame) battery on its own, so they pin the interval walk to the bits of
a walk per candidate on the full grid.  One more vector is pinned at
fig4's middle point at budget 1000, the budget of the fig4 reference
command, where the walk carries its largest segment counts; it was taken
with the segment walk that sorted its final segments on two keys.

The MBIA tables that `mdp-train` writes at the benchmark's fig3 points
(K=25, M=25 and 100) are pinned by the `.pol` sha256, and their walk
evaluation counts by the totals in perfbench/reference.json.  The first
digests were taken with a solver that walked the threshold staircase of
every battery level, so they pin the dense compare to the bits of that
walk.  The version-2 digests below hold thresholds, not dense tables; they
were taken after checking that each table's staircase expansion equals the
dense table the pinned version-1 file held, so the chain back to the walk
is unbroken.  The tables at the fig4 middle point (M=25 and 100), at the
base points of default, fig6 and fig7 and at fig6's w_D = 1 end are pinned
too, with their evaluation totals.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from hesnet.cli import main, resolve_config
from hesnet.policies import calibrate_zeta
from hesnet.sim import apply_axis

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

# calibrate-zeta draws on seed + 1, the stream `zeta = auto` calibrates on;
# drawn on the seed itself, the same file hashed
# 2518893342e4d6f770c0d3280d081f5e1034ffba5ba1f1135189b378fb049453
ZETA_SHA256 = "60571822da4cb1339cf3f6566e90a8c7294db20fa912af288492fb3687004fd4"

MULTIUSER_SHA256 = {
    "three-user-simulate": (
        ["simulate", "--set", "users=3", "--set", "policies=GT,Threshold,GA"], "simulate.csv",
        "2a3a50107e3322022e69dee56109ec6477f45c3302f6a3ad00fc12f9f042a6e3"),
    "two-user-binding-grid-cap": (
        ["sweep", "--preset", "fig5-two-user", "--set", "p_g_max_w=0.3",
         "--set", "p_h_max_w=0.2"], "sweep_p_avg_mw.csv",
        "8974b7b0ef7d799cb00493e7429ff51a533d0b24a00fdc64b4479f8841b54654"),
    # the shared battery turns away a user GT would serve in 82% of blocks
    "three-user-binding-battery": (
        ["simulate", "--set", "users=3", "--set", "p_h_max_w=0.15",
         "--set", "policies=GT,Threshold,GA"], "simulate.csv",
        "274f96047b4785a96af56c941c08f2fad419a9b41682d9081fd4a8e107342ba2"),
}

# preset -> (axis value, or None for the preset's own point; sha256 of the
# little-endian float64 cost vector)
CALIBRATION_COSTS_SHA256 = {
    "default": (
        (None, "81b07806c0ade5805422641b8630ed6b5933b8b192330d32b3d4d2cdfddcd2fd"),
    ),
    "fig3": (
        (None, "81b07806c0ade5805422641b8630ed6b5933b8b192330d32b3d4d2cdfddcd2fd"),
        (20.0, "932437f135191a793df46900c23cc47a5496104859f8a6a5ac96195b05c79918"),
        (30.0, "df8c73a545180602af5bf904521a477d302b7740f611b04919f15ea437de6c17"),
        (40.0, "64016c023d03e0f1e92da7e69ce1cea0c563de30e70bddf998faf175276af4ae"),
        (50.0, "57daf63b01e63004f870b34debd0eb38621f08dff1391da140a2bb51b6a8564e"),
        (60.0, "1ce94e4def814d69ca946c9171b5476afab59782224383884a1ce22fd4e594ff"),
    ),
    "fig4": (
        (None, "81b07806c0ade5805422641b8630ed6b5933b8b192330d32b3d4d2cdfddcd2fd"),
        (0.01, "396dcd2419e84cd66482f3b3ae1f8ca65e8b364280f95478ac07a3a2dc3f664b"),
        (0.015, "18f5661641d39ef7a760706124e4c362018bd687b81ca15d5fb254c0af18c8eb"),
        (0.02, "df8c73a545180602af5bf904521a477d302b7740f611b04919f15ea437de6c17"),
        (0.025, "708b11a7b355799fcbf86d6d069ee538a647dd030b3ed10cc45cf46fc4b206ed"),
        (0.03, "78c026fc7bf1afda4f0833047c7e4bee9f5f2ba8e13b03be920facd639c810d7"),
    ),
    "fig5-two-user": (
        (None, "81b07806c0ade5805422641b8630ed6b5933b8b192330d32b3d4d2cdfddcd2fd"),
        (0.01, "396dcd2419e84cd66482f3b3ae1f8ca65e8b364280f95478ac07a3a2dc3f664b"),
        (0.02, "df8c73a545180602af5bf904521a477d302b7740f611b04919f15ea437de6c17"),
        (0.03, "78c026fc7bf1afda4f0833047c7e4bee9f5f2ba8e13b03be920facd639c810d7"),
    ),
    "fig6": (
        (None, "81b07806c0ade5805422641b8630ed6b5933b8b192330d32b3d4d2cdfddcd2fd"),
        (0.001, "dadac8d06207477f034c996b632ae79434f3287f7fcbf565c92a3691e5c05ac3"),
        (0.00316, "82ad4cad7cad1f5fa6314da35040d3f6ee5b69254be2e0fe6471179948b1c9d7"),
        (0.01, "df8c73a545180602af5bf904521a477d302b7740f611b04919f15ea437de6c17"),
        (0.0316, "0690423cdec1be21b103ccf54e7c4b5a325425110c50734b1b7c550c95e7b9ac"),
        (0.1, "fc20a377fba3e269a3e6c71ffb270027e7861fa745c5615247be9b0747d35531"),
        (0.316, "7465b98551a335c791041f0da38eadce9479978eb06b6652d9e7d109975090f0"),
        (1.0, "336a226d71d04daed8295189c8637cfcd6db40e2f32652a1ece762bb600acd2b"),
    ),
    "fig7": (
        (None, "81b07806c0ade5805422641b8630ed6b5933b8b192330d32b3d4d2cdfddcd2fd"),
        (0.001, "dadac8d06207477f034c996b632ae79434f3287f7fcbf565c92a3691e5c05ac3"),
        (0.00316, "82ad4cad7cad1f5fa6314da35040d3f6ee5b69254be2e0fe6471179948b1c9d7"),
        (0.01, "df8c73a545180602af5bf904521a477d302b7740f611b04919f15ea437de6c17"),
        (0.0316, "0690423cdec1be21b103ccf54e7c4b5a325425110c50734b1b7c550c95e7b9ac"),
        (0.1, "fc20a377fba3e269a3e6c71ffb270027e7861fa745c5615247be9b0747d35531"),
        (0.316, "7465b98551a335c791041f0da38eadce9479978eb06b6652d9e7d109975090f0"),
        (1.0, "336a226d71d04daed8295189c8637cfcd6db40e2f32652a1ece762bb600acd2b"),
    ),
}

# (argv, schedule sha256, summary sha256); the replay reads the N=12 dump
OFFLINE_SHA256 = {
    "n12": (["--set", "n_blocks=12"],
            "875561edda182477edf1ebf598736775957b447b7af8a5c25e832a25d2474758",
            "c41b666e64b38ce3d69c54b0d882b673e97672b6020cf3cad8d9fc6ceff31718"),
    "n50": ([],
            "451660c214e31e4fd3c8c98a8c4226bd36812f6e8acf945e3a5bb76a3609924c",
            "5aa60d350d7ea4ed22f2805cac5bfd24a437fad6743abe4fc377773fe9909684"),
}


# (d_h_m, m_levels) -> sha256 of mbia_M{m}_K25.pol; d_g_m = 80 - d_h_m
MBIA_POL_SHA256 = {
    (20, 25): "73c65c95d4771de848225660b6cc2e5c3df0a2946d128317f1787f3584b4b3d3",
    (20, 100): "1c8ea7691803730ffb616da3ddefd694f3c87ac2790ed354cbb1e8e175e849e7",
    (40, 25): "df8152e123fb28f39e25e1e12173ac237d5f06352527af073ecd19ca0b369b93",
    (40, 100): "e663dd26e74f7ce3ddd420e0b8176571e790f2b485cb505fca847ddebeb319fd",
    (60, 25): "043e6a56c344793a28b8d23dcad9a9919186e40e3102f95f264c6c8fab60de64",
    (60, 100): "f7d8e9179a6dfeb3212757caad2dba4a9a3b2904beb8c87845c72812904b1503",
}
# (preset, --set override or None, m_levels) -> (sha256 of mbia_M{m}_K25.pol,
# evaluations_total), taken before the solver stopped summing each block's
# dense (M, K, K) minimum; default, fig6 and fig7 share their base point with
# fig4's middle one, so those four tables are one, and fig6's w_D = 1 end
# adds a table of its own
MBIA_PRESET_POL = {
    ("fig4", "p_avg_mw=20", 25): (
        "ffc4c18a46899de622b6cd2aa9cb9ea5611b74bcb670632aba612ca95db93e3c", 58202),
    ("fig4", "p_avg_mw=20", 100): (
        "32e9c27d48f6f5884d43cb02f31c769de5bed1e73b99ac917045bbe1ecefeb56", 234462),
    ("default", None, 100): (
        "32e9c27d48f6f5884d43cb02f31c769de5bed1e73b99ac917045bbe1ecefeb56", 234462),
    ("fig6", None, 100): (
        "32e9c27d48f6f5884d43cb02f31c769de5bed1e73b99ac917045bbe1ecefeb56", 234462),
    ("fig7", None, 100): (
        "32e9c27d48f6f5884d43cb02f31c769de5bed1e73b99ac917045bbe1ecefeb56", 234462),
    ("fig6", "w_d=1.0", 25): (
        "4d0d3bb9f8cdbe4247aef359842d97ffcb57c4a814ebe54e55fcd2df3c413724", 58267),
    ("fig6", "w_d=1.0", 100): (
        "f1c725b36f875cc0c7944a72fe87fda3df7ad06f061533e5bb9097fb58b22762", 234500),
}
# fig4's middle point (P_avg = 20 mW, stream seed + 1) at the preset's own
# budget of 1000 frames
CALIBRATION_COSTS_REFERENCE_BUDGET_SHA256 = (
    "b33eeb27ba6b8268457980d07330d046cd4624815f7e67bae91ab9f05f80f662")
BENCH_REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"


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


_COSTS = {}


def calibration_costs_digest(point, grid, seed, budget=400):
    key = (point.content_hash(), tuple(grid), seed, budget)
    if key not in _COSTS:   # presets share points; score each once
        _, costs = calibrate_zeta(grid, point, budget, seed)
        assert costs.shape == (len(grid),)
        _COSTS[key] = hashlib.sha256(np.asarray(costs, dtype="<f8").tobytes()).hexdigest()
    return _COSTS[key]


@pytest.mark.parametrize("preset", sorted(CALIBRATION_COSTS_SHA256))
def test_calibration_cost_digests(preset):
    cfg = resolve_config(preset=preset)
    table = CALIBRATION_COSTS_SHA256[preset]
    assert len(cfg.zeta_grid) == 401
    assert [value for value, _ in table[1:]] == list(cfg.axis_values)
    for value, digest in table:
        point, seed = ((cfg.params, cfg.seed) if value is None
                       else (apply_axis(cfg.params, cfg.axis, value), cfg.seed + 1))
        assert calibration_costs_digest(point, cfg.zeta_grid, seed) == digest, value


def test_calibration_cost_digest_at_reference_budget():
    cfg = resolve_config(preset="fig4")
    assert cfg.zeta_budget == 1000
    point = apply_axis(cfg.params, cfg.axis, cfg.axis_values[len(cfg.axis_values) // 2])
    assert point.P_avg == 0.02
    assert (calibration_costs_digest(point, cfg.zeta_grid, cfg.seed + 1, cfg.zeta_budget)
            == CALIBRATION_COSTS_REFERENCE_BUDGET_SHA256)


@pytest.mark.parametrize("d_h,m", sorted(MBIA_POL_SHA256))
def test_mdp_train_table_bytes_and_walk_counts(d_h, m, tmp_path):
    assert main(["mdp-train", "--preset", "fig3", "--set", f"d_h_m={d_h}",
                 "--set", f"d_g_m={80 - d_h}", "--set", "k_states=25", "--m-levels", str(m),
                 "--out", str(tmp_path)]) == 0
    log = json.loads((tmp_path / f"mbia_M{m}_K25.train.json").read_text())
    want = json.loads(BENCH_REFERENCE.read_text())["mbia-train-simulate"]["evaluations_total"]
    assert log["evaluations_total"] == want[f"d{d_h}/mbia_M{m}_K25"]
    assert sha256(tmp_path / f"mbia_M{m}_K25.pol") == MBIA_POL_SHA256[(d_h, m)]


@pytest.mark.parametrize("preset,override,m", sorted(MBIA_PRESET_POL, key=str))
def test_mdp_train_table_bytes_at_preset_points(preset, override, m, tmp_path):
    point = ["--set", override] if override else []
    assert main(["mdp-train", "--preset", preset, *point, "--set", "k_states=25",
                 "--m-levels", str(m), "--out", str(tmp_path)]) == 0
    log = json.loads((tmp_path / f"mbia_M{m}_K25.train.json").read_text())
    assert (sha256(tmp_path / f"mbia_M{m}_K25.pol"), log["evaluations_total"]) == (
        MBIA_PRESET_POL[(preset, override, m)])
