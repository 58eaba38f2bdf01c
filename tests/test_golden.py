"""Byte identity of the CLI's result files.

A tiny `sweep` CSV of every shipped preset and one `calibrate-zeta`
zeta.json are pinned by sha256.  Together they run every single-user policy,
the two-user walk, inline MBIA and look-ahead training, zeta calibration and
both offline solvers, so a refactor that claims to change no number has to
keep these bytes; a change that moves a number on purpose updates the
hashes and says why.  The hashes were taken on x86-64 Linux with numpy 2.4
and scipy 1.17.
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


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("preset", sorted(SWEEP_SHA256))
def test_tiny_sweep_csv_bytes(preset, tmp_path):
    # the default preset has no axis of its own
    axis = ["--axis", "p_avg_mw", "--axis-values", "15,20"] if preset == "default" else []
    assert main(["sweep", "--preset", preset, *TINY, *axis, "--out", str(tmp_path)]) == 0
    name, digest = SWEEP_SHA256[preset]
    assert sha256(tmp_path / name) == digest


def test_calibrate_zeta_json_bytes(tmp_path):
    assert main(["calibrate-zeta", "--seed", "3", "--budget", "40", "--out", str(tmp_path)]) == 0
    assert sha256(tmp_path / "zeta.json") == ZETA_SHA256
