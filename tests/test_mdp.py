"""Quantization, transition kernels, and the monotone induction solver."""

import dataclasses
import json
import math
import os
import subprocess
import sys
import tracemalloc
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import integrate

import hesnet
from hesnet.cli import resolve_config
from hesnet.errors import (
    InvalidActionError,
    InvalidParameterError,
    InvalidStateError,
    StructureViolationError,
)
from hesnet.mdp import (
    _RISE_RTOL,
    _check_staircase,
    _cuts,
    _expected_values,
    _walk_counts,
    PolicyTable,
    QuantizationGrid,
    battery_level_index,
    build_grid,
    build_mdp_model,
    channel_state_index,
    equiprobable_channel_states,
    load_policy_artifact,
    monotone_backward_induction,
    quantize_energy,
    save_policy_artifact,
)
from hesnet.model import SystemParams, link_terms, make_rng, serve_feasible
from hesnet.sim import apply_axis
from oracles import (
    ActionValues,
    dense_kernels,
    dense_staircase_counts,
    kernel_expectation,
    staircase_actions,
    staircase_counts,
    v1_artifact,
)

P = SystemParams()
# relative agreement of values summed in different orders: the solver sums
# each level's K^2 minima by columns' counts and sorted prefix sums, numpy
# and the oracles by its dense (K, K) slice
VALUE_RTOL = 1e-13


def energy_transition_probs(level: float, consumption: float, grid: QuantizationGrid,
                            params: SystemParams) -> np.ndarray:
    """Distribution of the next battery level after spending `consumption`,
    one row at a time: the oracle for `build_mdp_model`'s closed-form kernels.

    The residual level - consumption plus a Uniform[0, E_m] arrival is
    re-quantized; each next bin's probability is the length of the arrival
    interval that lands in it, divided by E_m.  The top bin absorbs
    overflow past B_m.
    """
    if not np.isclose(quantize_energy(max(level, 0.0), grid), level, rtol=1e-9, atol=0.0):
        raise InvalidStateError(f"{level!r} is not a battery mid-value of this grid")
    if consumption < 0 or consumption > level * (1 + 1e-12):
        raise InvalidActionError(
            f"consumption {consumption!r} outside [0, level={level!r}]")
    base = max(level - consumption, 0.0)
    hi_edges = grid.bin_edges[1:].copy()
    hi_edges[-1] = np.inf
    lo = np.maximum(grid.bin_edges[:-1] - base, 0.0)
    hi = np.minimum(hi_edges - base, params.E_m)
    return np.maximum(hi - lo, 0.0) / params.E_m


def random_params(rng):
    """Valid parameter draws spanning tight and loose feasibility regimes."""
    return P.evolve(
        d_H=float(rng.uniform(15.0, 60.0)),
        d_G=float(rng.uniform(30.0, 70.0)),
        w_D=float(10.0 ** rng.uniform(-3.0, 0.0)),
        p_H_max=float(rng.uniform(0.05, 1.0)),
        P_avg=float(rng.uniform(0.005, 0.05)),
        mu_G=float(rng.uniform(0.5, 2.0)),
        mu_H=float(rng.uniform(0.5, 2.0)),
    )


# ---------------------------------------------------------------------------
# channel quantization
# ---------------------------------------------------------------------------

def test_equiprobable_states_unit_mean_k2():
    levels, bounds = equiprobable_channel_states(2, 1.0)
    np.testing.assert_allclose(bounds[:2], [0.0, math.log(2.0)], rtol=1e-12)
    assert bounds[2] == math.inf
    np.testing.assert_allclose(levels, [1.0 - math.log(2.0), 1.0 + math.log(2.0)], rtol=1e-12)


def test_equiprobable_states_have_equal_mass_and_conditional_means():
    mu = 1.4
    k = 7
    levels, bounds = equiprobable_channel_states(k, mu)
    cdf = lambda x: -math.expm1(-x / mu)
    pdf = lambda x: math.exp(-x / mu) / mu
    for i in range(k):
        lo, hi = bounds[i], bounds[i + 1]
        mass = (1.0 if math.isinf(hi) else cdf(hi)) - cdf(lo)
        assert np.isclose(mass, 1.0 / k, rtol=1e-12)
        top = 60.0 * mu if math.isinf(hi) else hi  # integrand is dead beyond
        num, _ = integrate.quad(lambda x: x * pdf(x), lo, top)
        assert np.isclose(levels[i], num / (1.0 / k), rtol=1e-7)
    assert np.all(np.diff(levels) > 0)
    # law of total expectation: state means average back to the mean
    assert np.isclose(levels.mean(), mu, rtol=1e-12)


def test_equiprobable_single_state_is_the_mean():
    levels, bounds = equiprobable_channel_states(1, 0.7)
    np.testing.assert_allclose(levels, [0.7], rtol=1e-12)
    np.testing.assert_allclose(bounds, [0.0, math.inf])


def test_equiprobable_bounds_run_from_positive_zero_to_inf():
    # -mean * log1p(-k / K) would make the first bound -0.0, which passes
    # == 0.0 but changes the bytes of every trained table
    for k in (1, 2, 7, 25):
        _, bounds = equiprobable_channel_states(k, 2.0)
        assert math.copysign(1.0, bounds[0]) == 1.0
        assert bounds[-1] == math.inf
    _, bounds = equiprobable_channel_states(2, 2.0)
    assert np.isclose(bounds[1], 2.0 * math.log(2.0), rtol=1e-12)
    for mean in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(InvalidParameterError):
            equiprobable_channel_states(2, mean)


def test_equiprobable_levels_are_conditional_means_by_quadrature():
    mu = 1.7
    pdf = lambda x: math.exp(-x / mu) / mu
    for k in (2, 5, 40):
        levels, bounds = equiprobable_channel_states(k, mu)
        for i in range(k - 1):
            num, _ = integrate.quad(lambda x: x * pdf(x), bounds[i], bounds[i + 1])
            den, _ = integrate.quad(pdf, bounds[i], bounds[i + 1])
            assert np.isclose(levels[i], num / den, rtol=1e-9)
        # unbounded tail: memorylessness gives lo + mean
        assert levels[-1] == bounds[-2] + mu


def test_channel_state_index_boundaries():
    _, bounds = equiprobable_channel_states(4, 1.0)
    assert channel_state_index(0.0, bounds) == 0
    assert channel_state_index(bounds[1], bounds) == 1  # boundary joins the upper state
    assert channel_state_index(1e9, bounds) == 3
    idx = channel_state_index(np.array([0.0, bounds[2], 1e9]), bounds)
    np.testing.assert_array_equal(idx, [0, 2, 3])
    with pytest.raises(InvalidStateError):
        channel_state_index(-0.1, bounds)


@pytest.mark.parametrize("K", [1, 4, 25])
def test_channel_state_index_matches_clipped_search(K):
    """One search over the interior bounds is the clamped search over all
    K + 1 at every bound, one ulp either side of it, and the extremes."""
    _, bounds = equiprobable_channel_states(K, 1.3)
    finite = bounds[np.isfinite(bounds)]
    probes = np.concatenate([bounds, np.nextafter(finite, -np.inf)[1:],
                             np.nextafter(finite, np.inf), [0.0, 1e300, np.inf]])
    clipped = np.clip(np.searchsorted(bounds, probes, side="right") - 1, 0, K - 1)
    np.testing.assert_array_equal(channel_state_index(probes, bounds), clipped)
    for g, k in zip(probes, clipped):
        assert channel_state_index(float(g), bounds) == k
    # a (frames, 1) column of a (frames, users, N) batch, as the table
    # policies read it, is a strided view
    gains = np.zeros((probes.size, 1, 3))
    gains[:, 0, 1] = probes
    column = gains[:, :, 1]
    assert not column.flags.c_contiguous
    idx = channel_state_index(column, bounds)
    assert idx.shape == (probes.size, 1) and idx.dtype == np.int64
    np.testing.assert_array_equal(idx[:, 0], clipped)


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(K=st.integers(1, 40), mean=st.floats(1e-3, 1e3), warp=st.floats(0.25, 4.0),
       seed=st.integers(0, 2**16))
def test_property_channel_state_index_is_the_interior_search(K, mean, warp, seed):
    """The closed-form state, its one-step correction and the search of its
    misses give the plain interior search bit for bit: on quantile bounds
    (warp 1) and on bounds bent away from them, at and one ulp either side
    of every bound, at 0, at huge gains and at gains far from the mean."""
    _, quantiles = equiprobable_channel_states(K, mean)
    bounds = quantiles ** warp
    finite = bounds[np.isfinite(bounds)]
    rng = make_rng(seed)
    gains = np.concatenate([finite, np.nextafter(finite, np.inf), np.nextafter(finite[1:], 0.0),
                            [0.0, 1e300, np.finfo(float).max], rng.exponential(mean, 100),
                            rng.exponential(mean * 50.0, 50)])
    want = np.searchsorted(bounds[1:-1], gains, side="right").astype(np.int64)
    got = channel_state_index(gains, bounds)
    assert got.dtype == np.int64 and got.tobytes() == want.tobytes()
    got = channel_state_index(gains.reshape(-1, 1)[:, ::-1], bounds)   # a strided (rows, 1) view
    assert got.shape == (gains.size, 1) and got[:, 0].tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# battery quantization
# ---------------------------------------------------------------------------

def unit_grid(m):
    """Battery grid over [0, 1] with a K=2 unit-mean channel pair."""
    lv, bd = equiprobable_channel_states(2, 1.0)
    mids = (2.0 * np.arange(1, m + 1) - 1.0) / (2.0 * m)
    return QuantizationGrid(mids, np.linspace(0.0, 1.0, m + 1), lv, bd, lv, bd)


def test_quantize_energy_reference_example():
    g = unit_grid(4)
    assert quantize_energy(0.3, g) == 0.375
    assert quantize_energy(0.0, g) == 0.125
    assert quantize_energy(0.25, g) == 0.375  # bin boundary joins the upper bin
    assert quantize_energy(1.0, g) == 0.875
    assert quantize_energy(7.5, g) == 0.875  # overflow clamps to the top bin
    with pytest.raises(InvalidStateError):
        quantize_energy(-1e-12, g)


def test_battery_level_index_vectorized():
    g = unit_grid(4)
    idx = battery_level_index(np.array([0.0, 0.3, 0.9, 2.0]), g)
    np.testing.assert_array_equal(idx, [0, 1, 3, 3])
    assert battery_level_index(0.3, g) == 1


def test_build_grid_matches_mid_value_formula():
    g = build_grid(P, M=10, K=3)
    np.testing.assert_allclose(
        g.battery_levels, (2 * np.arange(1, 11) - 1) * P.B_m / 20.0, rtol=1e-12)
    assert g.bin_edges[0] == 0.0 and g.bin_edges[-1] == P.B_m
    assert g.M == 10 and g.K == 3
    # channel grids follow the per-link fading means
    q = P.evolve(mu_H=2.0)
    gh = build_grid(q, M=4, K=2)
    np.testing.assert_allclose(gh.levels_H, 2.0 * gh.levels_G, rtol=1e-12)


def test_grid_validation():
    lv, bd = equiprobable_channel_states(2, 1.0)
    with pytest.raises(InvalidParameterError):
        QuantizationGrid(np.array([0.5, 0.25]), np.linspace(0, 1, 3), lv, bd, lv, bd)
    with pytest.raises(InvalidParameterError):
        QuantizationGrid(np.array([0.25, 0.75]), np.linspace(0, 1, 4), lv, bd, lv, bd)


# ---------------------------------------------------------------------------
# energy transition kernel
# ---------------------------------------------------------------------------

def test_transition_rows_are_distributions():
    grid = build_grid(P, M=12, K=4)
    model = build_mdp_model(P, grid)
    kernel0, kernel1 = dense_kernels(model)
    np.testing.assert_allclose(kernel0.sum(axis=1), 1.0, rtol=1e-12)
    for j in range(grid.K):
        for i in range(grid.M):
            row = kernel1[j, i]
            if model.allowed[i, j]:
                assert np.isclose(row.sum(), 1.0, rtol=1e-12)
            else:
                assert row.sum() == 0.0
    assert np.all(kernel0 >= 0) and np.all(kernel1 >= 0)


def test_transition_probs_against_monte_carlo():
    grid = build_grid(P, M=80, K=3)  # bin width 2.5e-5 < E_m: mass spreads
    n = 1_000_000
    u = make_rng(99).uniform(0.0, P.E_m, n)
    for level_idx, consumption in [(40, 0.0), (40, 2.0e-4), (79, 0.0), (0, 0.0)]:
        level = float(grid.battery_levels[level_idx])
        consumption = min(consumption, level)
        probs = energy_transition_probs(level, consumption, grid, P)
        nxt = battery_level_index(np.minimum(level - consumption + u, grid.B_m), grid)
        emp = np.bincount(nxt, minlength=grid.M) / n
        se = np.sqrt(probs * (1 - probs) / n)
        assert np.all(np.abs(emp - probs) <= 3 * se + 1e-9)


def test_transition_top_bin_absorbs():
    grid = build_grid(P, M=8, K=2)
    top = float(grid.battery_levels[-1])
    probs = energy_transition_probs(top, 0.0, grid, P)
    # arrivals (<= 4e-5 J) cannot leave the 2.5e-4 J top bin
    assert probs[-1] == 1.0
    probs2 = energy_transition_probs(float(grid.battery_levels[0]), 0.0, grid, P)
    assert probs2[0] > 0.8 and np.isclose(probs2.sum(), 1.0, rtol=1e-12)


def test_transition_rejects_bad_inputs():
    grid = build_grid(P, M=8, K=2)
    mid = float(grid.battery_levels[2])
    with pytest.raises(InvalidActionError):
        energy_transition_probs(mid, mid * 1.5, grid, P)
    with pytest.raises(InvalidActionError):
        energy_transition_probs(mid, -1e-9, grid, P)
    with pytest.raises(InvalidStateError):
        energy_transition_probs(mid * 1.07, 0.0, grid, P)  # off-grid level


def test_serve_feasibility_boundaries():
    # the one serve rule: the table's action mask, the policies' feasibility
    # gate and the table demotion all call serve_feasible
    def serves(battery, gamma_h, params=P):
        _, p_h, _, _ = link_terms(1.0, gamma_h, params)
        return bool(serve_feasible(p_h, battery, params))

    # plenty of battery, good channel: serving allowed
    assert serves(1.0, 1.0)
    # battery cannot cover one block of inversion power
    assert not serves(1e-9, 1.0)
    # dead harvesting channel: inversion power infinite
    assert not serves(1.0, 0.0)
    # peak cap binds even with a full battery
    assert not serves(1.0, 1.0, P.evolve(p_H_max=1e-3))
    # boundary: battery exactly one block of spend
    assert serves(0.044652595986077352 * P.tau, 1.0)


# ---------------------------------------------------------------------------
# backward induction against a scalar decision-tree oracle
# ---------------------------------------------------------------------------

def tree_oracle(params, grid):
    """Two-block solve written as plain loops over the (m, kg, kh) tree."""
    from hesnet.model import channel_gain, cost_parameter, inversion_power

    m_n, k_n = grid.M, grid.K
    p_inv = [float(inversion_power(channel_gain(params.d_H, g, params), params))
             for g in grid.levels_H]
    cost_g = [float(cost_parameter(float(inversion_power(
        channel_gain(params.d_G, g, params), params)), params)) for g in grid.levels_G]

    def kernel_row(level, cons):
        base = level - cons
        row = []
        for j in range(m_n):
            lo_edge = float(grid.bin_edges[j])
            hi_edge = math.inf if j == m_n - 1 else float(grid.bin_edges[j + 1])
            lo = max(lo_edge - base, 0.0)
            hi = min(hi_edge - base, params.E_m)
            row.append(max(hi - lo, 0.0) / params.E_m)
        return row

    def feasible(m, kh):
        return p_inv[kh] <= min(float(grid.battery_levels[m]) / params.tau, params.p_H_max)

    u1 = {}
    for m in range(m_n):
        for kg in range(k_n):
            for kh in range(k_n):
                u1[m, kg, kh] = 0.0 if feasible(m, kh) else cost_g[kg]
    uhat1 = [math.fsum(u1[m, kg, kh] for kg in range(k_n) for kh in range(k_n))
             for m in range(m_n)]
    u0, a0, a1 = {}, {}, {}
    for m in range(m_n):
        lvl = float(grid.battery_levels[m])
        ev0 = math.fsum(p * v for p, v in zip(kernel_row(lvl, 0.0), uhat1)) / k_n ** 2
        for kg in range(k_n):
            for kh in range(k_n):
                q0 = cost_g[kg] + ev0
                if feasible(m, kh):
                    row = kernel_row(lvl, p_inv[kh] * params.tau)
                    q1 = math.fsum(p * v for p, v in zip(row, uhat1)) / k_n ** 2
                else:
                    q1 = math.inf
                a0[m, kg, kh] = 1 if q1 <= q0 else 0
                u0[m, kg, kh] = min(q1, q0)
                a1[m, kg, kh] = 1 if feasible(m, kh) else 0
    return u0, a0, u1, a1


@pytest.mark.parametrize("d_h,p_h_max", [(30.0, 0.5), (60.0, 0.5), (30.0, 0.02)])
def test_backward_induction_matches_tree_oracle(d_h, p_h_max):
    params = P.evolve(N=2, d_H=d_h, p_H_max=p_h_max)
    grid = build_grid(params, M=2, K=2)
    model = build_mdp_model(params, grid)
    values = ActionValues.of(model, monotone_backward_induction(model, 2)[1])
    u0, a0, u1, a1 = tree_oracle(params, grid)
    for m in range(2):
        for kg in range(2):
            for kh in range(2):
                assert np.isclose(values.u[0, m, kg, kh], u0[m, kg, kh], rtol=1e-9)
                assert np.isclose(values.u[1, m, kg, kh], u1[m, kg, kh], rtol=1e-9)
                assert values.actions[0, m, kg, kh] == a0[m, kg, kh]
                assert values.actions[1, m, kg, kh] == a1[m, kg, kh]


def test_terminal_block_serves_whenever_feasible():
    grid = build_grid(P, M=6, K=3)
    model = build_mdp_model(P, grid)
    values = ActionValues.of(model, monotone_backward_induction(model, 4)[1])
    np.testing.assert_array_equal(
        values.actions[-1], np.broadcast_to(model.allowed[:, None, :], (6, 3, 3)))
    # terminal cost is the stage cost alone
    expect = np.where(model.allowed[:, None, :], 0.0, model.cost_G[None, :, None])
    np.testing.assert_array_equal(values.u[-1], np.broadcast_to(expect, (6, 3, 3)))


def test_costs_to_go_are_finite_nonnegative_and_consistent():
    params = P.evolve(d_H=55.0)  # some states disallowed at the peak cap
    grid = build_grid(params, M=10, K=4)
    model = build_mdp_model(params, grid)
    _, u_hat, _ = monotone_backward_induction(model, 6)
    values = ActionValues.of(model, u_hat)
    assert np.all(np.isfinite(values.u)) and np.all(values.u >= 0)
    # u_hat sums the same minima in another order than numpy's dense sum
    np.testing.assert_allclose(u_hat, values.u.sum(axis=(2, 3)), rtol=VALUE_RTOL, atol=0)
    # serving never happens in a disallowed state
    assert not np.any(values.actions.astype(bool) & ~model.allowed[None, :, None, :])


def test_value_nonincreasing_in_battery_and_horizon_structure():
    grid = build_grid(P, M=16, K=5)
    model = build_mdp_model(P, grid)
    _, u_hat, _ = monotone_backward_induction(model, 10)
    values = ActionValues.of(model, u_hat)
    # more stored energy never hurts
    assert np.all(np.diff(u_hat, axis=1) <= 0)
    assert np.all(np.diff(values.u, axis=1) <= 0)
    # decisions are thresholds in the channel axes: worse G-state or better
    # H-state favors serving (no such structure along the battery axis)
    acts = values.actions.astype(np.int8)
    assert np.all(np.diff(acts, axis=2) <= 0)
    assert np.all(np.diff(acts, axis=3) >= 0)


# ---------------------------------------------------------------------------
# monotone solver equivalence
# ---------------------------------------------------------------------------

def test_monotone_solver_bitwise_identical_small_sweep():
    rng = make_rng(31)
    for trial in range(12):
        params = random_params(rng).evolve(N=int(rng.integers(1, 6)))
        m = int(rng.choice([2, 4, 8]))
        k = int(rng.choice([2, 3, 5]))
        grid = build_grid(params, M=m, K=k)
        model = build_mdp_model(params, grid)
        table, u_hat, counts = monotone_backward_induction(model, params.N)
        # the table is bitwise the dense compare of the action values the
        # solve compared, and u_hat sums their minima
        values = ActionValues.of(model, u_hat)
        np.testing.assert_array_equal(staircase_actions(table.top), values.actions)
        np.testing.assert_allclose(u_hat, values.u.sum(axis=(2, 3)), rtol=VALUE_RTOL, atol=0)
        assert u_hat.shape == (params.N, m) and u_hat.dtype == np.float64
        assert counts.shape == (params.N, m)
        assert np.all(counts >= k) and np.all(counts <= 2 * k - 1)


def test_monotone_solver_single_state_channel():
    grid = build_grid(P, M=4, K=1)
    model = build_mdp_model(P, grid)
    _, _, counts = monotone_backward_induction(model, 3)
    np.testing.assert_array_equal(counts, np.ones((3, 4), dtype=np.int64))


def test_monotone_solve_holds_no_value_table():
    # the (N, M, K, K) float64 table would be 25 MB here, the uint8 serve
    # mask 3.1 MB and every block's q0/q1 1 MB each; the solve holds one
    # block's q1 and per-block (M, K) rows, u_hat (40 KB), the int16
    # thresholds (0.25 MB) and, after its loop, their walk counts' (N, M,
    # K) bool temporary (0.13 MB): 0.69 MB peak measured
    model = build_mdp_model(P, build_grid(P, M=100, K=25))
    tracemalloc.start()
    try:
        table, u_hat, _ = monotone_backward_induction(model, 50)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.8e6
    assert table.top.shape == (50, 100, 25) and table.top.dtype == np.int16
    values = ActionValues.of(model, u_hat)
    assert np.array_equal(staircase_actions(table.top), values.actions)
    np.testing.assert_allclose(u_hat, values.u.sum(axis=(2, 3)), rtol=VALUE_RTOL, atol=0)


# ---------------------------------------------------------------------------
# closed-form kernels and MBIA against their loop oracles
# ---------------------------------------------------------------------------

def shipped_presets():
    files = resources.files("hesnet").joinpath("presets").iterdir()
    return sorted(f.name[:-len(".cfg")] for f in files if f.name.endswith(".cfg"))


def kernel_oracle(params, grid, allowed, p_inv_h):
    """Kernels row by row: one `energy_transition_probs` call per allowed row."""
    m, k = grid.M, grid.K
    kernel0 = np.empty((m, m))
    for i in range(m):
        kernel0[i] = energy_transition_probs(grid.battery_levels[i], 0.0, grid, params)
    kernel1 = np.zeros((k, m, m))
    for j in range(k):
        spend = p_inv_h[j] * params.tau
        for i in range(m):
            if allowed[i, j]:
                kernel1[j, i] = energy_transition_probs(grid.battery_levels[i], spend, grid, params)
    return kernel0, kernel1


def assert_kernels_match_rows(params, grid):
    model = build_mdp_model(params, grid)
    kernel0, kernel1 = kernel_oracle(params, grid, model.allowed, model.p_inv_H)
    dense0, dense1 = dense_kernels(model)
    assert np.array_equal(dense0, kernel0)
    assert np.array_equal(dense1, kernel1)
    return model


def monotone_slice(q0_row, q1_row, k):
    """Decide one (block, battery level) slice walking the threshold staircase.

    Start at the best state of both channels.  Serving there implies serving
    at every lower G-state (same value), so the whole column is filled and
    the H cursor drops; not serving implies not serving at every lower
    H-state (value doesn't depend on the H-state then), so the row is filled
    and the G cursor drops.
    """
    pol = np.zeros((k, k), dtype=np.uint8)
    val = np.empty((k, k))
    kg = kh = k - 1
    evals = 0
    while kg >= 0 and kh >= 0:
        evals += 1
        if q1_row[kh] <= q0_row[kg]:
            val[:kg + 1, kh] = q1_row[kh]
            pol[:kg + 1, kh] = 1
            kh -= 1
        else:
            val[kg, :kh + 1] = q0_row[kg]
            kg -= 1
    return pol, val, evals


def per_level_monotone(model, n):
    """MBIA with one scalar staircase walk per (block, battery level)."""
    m, k = model.grid.M, model.grid.K
    actions = np.zeros((n, m, k, k), dtype=np.uint8)
    u = np.zeros((n, m, k, k))
    u_hat = np.zeros((n, m))
    counts = np.zeros((n, m), dtype=np.int64)
    mask = np.where(model.allowed, 0.0, np.inf)
    for t in range(n - 1, -1, -1):
        if t == n - 1:
            ev0, ev1 = np.zeros(m), np.zeros((m, k))
        else:
            ev0, ev1 = _expected_values(model, u_hat[t + 1])
        for i in range(m):
            actions[t, i], u[t, i], counts[t, i] = monotone_slice(
                model.cost_G + ev0[i], ev1[i] + mask[i], k)
        u_hat[t] = u[t].sum(axis=(1, 2))
    return actions, u, u_hat, counts


def assert_walk_matches_oracles(model, n):
    table, u_hat, counts = monotone_backward_induction(model, n)
    actions, want_u, want_u_hat, want_counts = per_level_monotone(model, n)
    values = ActionValues.of(model, u_hat)
    # the oracle sums each level's K^2 values densely, so values agree to
    # rounding and tables and counts bit for bit
    for got, want in ((staircase_actions(table.top), actions), (counts, want_counts)):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    for got, want in ((values.u, want_u), (u_hat, want_u_hat)):
        assert got.dtype == want.dtype
        np.testing.assert_allclose(got, want, rtol=VALUE_RTOL, atol=0)
    # the table is the dense compare of the solve's own action values, bit
    # for bit, and u_hat sums their minima
    assert np.array_equal(values.actions, staircase_actions(table.top))
    np.testing.assert_allclose(u_hat, values.u.sum(axis=(2, 3)), rtol=VALUE_RTOL, atol=0)
    k = model.grid.K
    assert np.all(counts >= k) and np.all(counts <= 2 * k - 1)


@pytest.mark.parametrize("preset", shipped_presets())
def test_closed_form_kernels_match_per_row_loop(preset):
    params = resolve_config(preset=preset).params
    for m in (1, 10, 25, 100):
        for k in (1, 5, 25):
            model = assert_kernels_match_rows(params, build_grid(params, M=m, K=k))
            kernel0, kernel1 = dense_kernels(model)
            # the banded expectation sums each row's nonzero products in
            # column order, bit for bit, and agrees with the dense
            # matrix-vector products to rounding
            u_hat = np.linspace(3.0, 1.0, m) * k
            ev0, ev1 = _expected_values(model, u_hat)
            assert np.array_equal(ev0, kernel_expectation(kernel0, u_hat, k))
            assert np.array_equal(ev1, kernel_expectation(kernel1, u_hat, k).T)
            stack = np.stack([kernel1[j] @ u_hat for j in range(k)], axis=1)
            np.testing.assert_allclose(ev1, stack * (1.0 / (k * k)), rtol=1e-13, atol=0)
            np.testing.assert_allclose(ev0, (kernel0 @ u_hat) * (1.0 / (k * k)),
                                       rtol=1e-13, atol=0)


@pytest.mark.parametrize("preset", shipped_presets())
def test_lockstep_walk_matches_per_level_walk_at_presets(preset):
    # every preset also trains at each M without a precondition violation
    params = resolve_config(preset=preset).params
    for m in (10, 25, 100):
        assert_walk_matches_oracles(build_mdp_model(params, build_grid(params, M=m, K=25)), params.N)


def preset_points():
    """Every shipped preset's own point and the two ends of its axis, each
    distinct point once: (name, params)."""
    points = {}
    for preset in shipped_presets():
        cfg = resolve_config(preset=preset)
        for value in (None, *cfg.axis_values[:1], *cfg.axis_values[-1:]):
            point = cfg.params if value is None else apply_axis(cfg.params, cfg.axis, value)
            points.setdefault(point.content_hash(), (f"{preset}-{value or 'base'}", point))
    return list(points.values())


@pytest.mark.parametrize("params", [p for _, p in preset_points()],
                         ids=[name for name, _ in preset_points()])
def test_level_sums_lie_within_ulps_of_the_exact_sum_at_presets(params):
    # within 16 ulps of the correctly rounded sum of each level's K^2 minima,
    # not equal to one particular rounding of it (4 ulps measured at most)
    for m in (10, 25, 100):
        model = build_mdp_model(params, build_grid(params, M=m, K=25))
        _, u_hat, _ = monotone_backward_induction(model, params.N)
        values = ActionValues.of(model, u_hat)
        for t in range(params.N):
            u = np.minimum(values.q1[t, :, None, :], values.q0[t, :, :, None])
            exact = np.array([math.fsum(level.ravel()) for level in u])
            ulps = np.abs(u_hat[t] - exact) / np.spacing(exact)
            assert ulps.max() <= 16, (m, t, ulps.max())


@pytest.mark.parametrize("params", [p for _, p in preset_points()],
                         ids=[name for name, _ in preset_points()])
def test_walk_counts_equal_the_per_block_oracle_at_presets(params):
    # the solve counts the walk's evaluations from its thresholds after its
    # loop; the oracle counts them block by block on the whole q0 and q1
    for m in (10, 25, 100):
        model = build_mdp_model(params, build_grid(params, M=m, K=25))
        table, u_hat, counts = monotone_backward_induction(model, params.N)
        values = ActionValues.of(model, u_hat)
        want = np.stack([staircase_counts(t, values.q0[t], values.q1[t], table.top[t])
                         for t in range(params.N)])
        assert counts.dtype == want.dtype and np.array_equal(counts, want)


@pytest.mark.parametrize("params,m,k", [
    (P.evolve(N=6, B_m=P.E_m), 8, 4),   # battery holds one block of arrivals
    (P.evolve(N=5), 1, 4),              # a single battery level
    (P.evolve(N=5, d_H=55.0), 6, 1),    # a single channel state
    (P.evolve(N=3), 1, 1),
    (P.evolve(N=4, w_D=0.0), 5, 3),    # free skips: q0 == q1 ties, which serve
])
def test_kernels_and_walk_at_edge_cases(params, m, k):
    model = assert_kernels_match_rows(params, build_grid(params, M=m, K=k))
    assert np.allclose(dense_kernels(model)[0].sum(axis=1), 1.0, rtol=1e-12)
    assert_walk_matches_oracles(model, params.N)


def test_peak_cap_below_every_inversion_power_serves_nothing():
    params = P.evolve(N=4, p_H_max=1e-9)
    grid = build_grid(params, M=6, K=3)
    model = assert_kernels_match_rows(params, grid)
    assert not model.allowed.any() and not model.band[:, 1:].any()
    assert not dense_kernels(model)[1].any()
    table, _, counts = monotone_backward_induction(model, params.N)
    assert np.all(table.top == -1)
    np.testing.assert_array_equal(counts, np.full((4, 6), 3))  # the G cursor alone walks
    assert_walk_matches_oracles(model, params.N)


@pytest.mark.parametrize("params,m,k,width", [
    (P.evolve(N=3), 1, 1, 1),                # one level: the band is that level
    (P.evolve(N=5, d_H=55.0), 6, 1, 4),      # one channel state
    (P.evolve(N=6, B_m=P.E_m), 8, 4, 8),     # an arrival spans the battery: the whole row
    (P.evolve(N=4, p_H_max=1e-9), 6, 3, 4),  # no serve allowed: all-zero serve bands
])
def test_band_expands_to_the_per_row_kernels_at_edge_cases(params, m, k, width):
    # the expanded band equals the per-row oracle over whole rows, so every
    # entry outside the band is exactly 0
    model = assert_kernels_match_rows(params, build_grid(params, M=m, K=k))
    assert model.band.shape == (width, k + 1, m)
    assert model.band_start.min() >= 0 and model.band_start.max() <= m - width


def test_band_of_a_serve_that_empties_the_battery():
    # a point where serving at the best H-state from the lowest level (B_m / 8
    # at M = 4) is allowed, though its spend exceeds the level by rounding:
    # the residual is clamped to 0
    for d_h in np.linspace(20.0, 40.0, 200):
        point = P.evolve(N=4, d_H=float(d_h))
        p_h = build_mdp_model(point, build_grid(point, M=4, K=2)).p_inv_H[-1]
        level = np.nextafter(p_h * point.tau, 0.0)
        if level / point.tau >= p_h and 8 * level >= point.E_m:
            params = point.evolve(B_m=float(8 * level))
            break
    else:
        pytest.fail("no point found whose allowed serve empties the lowest level")
    grid = build_grid(params, M=4, K=2)
    model = assert_kernels_match_rows(params, grid)
    assert model.allowed[0, -1] and grid.battery_levels[0] - model.p_inv_H[-1] * params.tau < 0
    assert model.band_start[-1, 0] == 0
    assert_walk_matches_oracles(model, params.N)


def test_values_do_not_depend_on_the_blas_kernel():
    # a solve's values are sums in band order, so two OpenBLAS core types
    # give one u_hat; at fig3's point the dense matrix-vector products of
    # Prescott and Haswell kernels rounded it apart
    script = ("import hashlib\n"
              "from hesnet.cli import resolve_config\n"
              "from hesnet.mdp import build_grid, build_mdp_model, monotone_backward_induction\n"
              "p = resolve_config(preset='fig3').params\n"
              "model = build_mdp_model(p, build_grid(p, M=25, K=25))\n"
              "_, u_hat, _ = monotone_backward_induction(model, p.N)\n"
              "print(hashlib.sha256(u_hat.tobytes()).hexdigest())\n")
    src = str(Path(hesnet.__file__).parents[1])
    digests = []
    for coretype in ("Prescott", None):
        env = {key: v for key, v in os.environ.items() if key != "OPENBLAS_CORETYPE"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        if coretype:
            env["OPENBLAS_CORETYPE"] = coretype
        run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                             text=True, check=True)
        digests.append(run.stdout)
    assert digests[0] == digests[1] != ""


def test_model_and_solve_at_m800_hold_no_dense_kernel():
    # the (K+1, M, M) float64 kernels alone would be 133 MB here and every
    # block's q0/q1 8 MB each; the solve holds one block's q1, the int16
    # thresholds (2 MB), the band and one gather buffer (3 MB each):
    # 10.3 MB peak measured
    tracemalloc.start()
    try:
        model = build_mdp_model(P, build_grid(P, M=800, K=25))
        table, _, _ = monotone_backward_induction(model, P.N)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert model.band.shape == (18, 26, 800) and table.top.shape == (50, 800, 25)
    assert peak < 12e6


def test_model_build_at_m1600_holds_no_second_band_temporary():
    # the model keeps the (34, 26, 1600) float64 band, 11.3 MB, and no
    # gather index; the build gathers the bin edges through windows, with
    # no (34, 26, 1600) int64 index, and subtracts the residuals in place
    # from its two gathers: 23.8 MB peak measured, 34.7 MB with an index,
    # 46.0 MB with a fresh difference array beside each gather as well
    tracemalloc.start()
    try:
        model = build_mdp_model(P, build_grid(P, M=1600, K=25))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert model.band.shape == (34, 26, 1600)
    assert peak < 26e6


def test_model_and_solve_at_m1600_gather_into_one_buffer():
    # the solve gathers every block's next levels into one (34, 26, 1600)
    # float64 buffer (11.3 MB) beside the band and the int16 thresholds
    # (4 MB): 31.3 MB peak for build and solve measured, 42.6 MB with an
    # int64 gather index on the model and a fresh gather per block
    tracemalloc.start()
    try:
        model = build_mdp_model(P, build_grid(P, M=1600, K=25))
        table, _, _ = monotone_backward_induction(model, P.N)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table.top.shape == (50, 1600, 25)
    assert peak < 34e6


def test_kernel_rejects_levels_off_the_bin_mid_values():
    lv, bd = equiprobable_channel_states(2, 1.0)
    grid = QuantizationGrid(np.array([0.1, 0.2]) * P.B_m, np.linspace(0.0, P.B_m, 3), lv, bd, lv, bd)
    with pytest.raises(InvalidStateError):
        build_mdp_model(P, grid)


def test_walk_rejects_a_real_precondition_violation():
    model = build_mdp_model(P, build_grid(P, M=6, K=3))
    # skip cost rising with the G-state: q0 rises along the G axis
    with pytest.raises(StructureViolationError, match="block t=4: q0"):
        monotone_backward_induction(dataclasses.replace(model, cost_G=model.cost_G[::-1]), 5)
    # serving allowed at a worse H-state but not at a better one: q1 jumps to inf
    allowed = np.ones_like(model.allowed)
    allowed[:, -1] = False
    with pytest.raises(StructureViolationError, match="block t=4: q1"):
        monotone_backward_induction(dataclasses.replace(model, allowed=allowed), 5)
    # serving at the best H-state drains the battery: below the terminal
    # block, its expected cost rises above that of the next-best H-state;
    # blocks are checked last to first, so the error names the first block
    # below the terminal one
    band, start = model.band.copy(), model.band_start.copy()
    band[:, -1] = 0.0
    band[0, -1] = 1.0
    start[-1] = 0
    drained = dataclasses.replace(model, band=band, band_start=start)
    assert np.array_equal(dense_kernels(drained)[1][-1], np.eye(6)[[0] * 6])
    with pytest.raises(StructureViolationError, match="block t=3: q1"):
        monotone_backward_induction(drained, 5)


def test_walk_tolerates_rises_of_rounding_size():
    model = build_mdp_model(P, build_grid(P, M=4, K=2))
    c = model.cost_G[0]
    ulp = dataclasses.replace(model, cost_G=np.array([c, np.nextafter(c, np.inf)]))
    monotone_backward_induction(ulp, 3)
    real = dataclasses.replace(model, cost_G=np.array([c, c * (1 + 100 * _RISE_RTOL)]))
    with pytest.raises(StructureViolationError):
        monotone_backward_induction(real, 3)


def test_walk_rejects_a_rise_of_the_skip_costs_at_one_interior_g_state():
    # q0 is checked only at the G-steps where cost_G rises; a real rise at
    # one interior step, every other step falling or holding, raises at the
    # terminal block as the check on the whole of q0 raises
    model = build_mdp_model(P, build_grid(P, M=6, K=5))
    cost = model.cost_G.copy()
    assert np.all(np.diff(cost) <= 0)
    cost[3] = cost[2] * (1 + 100 * _RISE_RTOL)
    risen = dataclasses.replace(model, cost_G=cost)
    q0 = ActionValues.of(risen, np.zeros((1, 6))).q0[0]
    with pytest.raises(StructureViolationError) as want:
        staircase_counts(4, q0, np.full((6, 5), np.inf), np.full((6, 5), -1, dtype=np.int16))
    with pytest.raises(StructureViolationError, match="block t=4: q0") as got:
        monotone_backward_induction(risen, 5)
    assert str(got.value) == str(want.value)


def checked_staircase(t, q0, q1, steps=None):
    """Block t's thresholds, each H-column's count of served G-states less
    one counted by `_cuts` on the sorted rows of q0, checked by
    `_check_staircase` against q0 at its G-steps `steps` (all of them by
    default), and the walk's evaluation counts (`_walk_counts`)."""
    rows = np.pad(np.sort(q0, axis=1), ((0, 0), (1, 1)), constant_values=(-np.inf, np.inf))
    cut = _cuts(rows, rows[0, 1:-1], np.zeros(len(q0)), q1)[0]
    top = (q0.shape[1] - 1 - cut).astype(np.int16)
    steps = np.arange(q0.shape[1] - 1) if steps is None else steps
    _check_staircase(t, q0[:, steps], q0[:, steps + 1], q1, top)
    return top, _walk_counts(top)


def staircase(q0, q1):
    """Block 0's dense mask, its thresholds and the walk's evaluation
    counts, checked."""
    return (q1[:, None, :] <= q0[:, :, None], *checked_staircase(0, q0, q1))


def test_staircase_mask_refuses_a_serve_inside_a_tolerated_rise():
    c = 0.3
    up = np.nextafter(c, np.inf)
    # q0's 1-ulp rise passes the rise check, but serving at H-state 1 ties
    # at G-state 1 and loses at G-state 0: the column is not a prefix
    with pytest.raises(StructureViolationError, match="staircase"):
        staircase(np.array([[c, up]]), np.array([[np.inf, up]]))
    # the same along H: a 1-ulp rise of q1 serves H-state 0 and not H-state 1
    with pytest.raises(StructureViolationError, match="staircase"):
        staircase(np.array([[c, c]]), np.array([[c, up]]))
    mask, top, evals = staircase(np.array([[c, c]]), np.array([[np.inf, c]]))
    np.testing.assert_array_equal(mask[0], [[False, True], [False, True]])
    np.testing.assert_array_equal(top, [[-1, 1]])
    np.testing.assert_array_equal(evals, [3])


small_params = st.builds(
    lambda n, d_h, d_g, w_d, cap, p_avg, mu_g, mu_h, fill: P.evolve(
        N=n, d_H=d_h, d_G=d_g, w_D=w_d, p_H_max=cap, P_avg=p_avg, mu_G=mu_g, mu_H=mu_h
    ).evolve(B_m=2.0 * p_avg * P.tau * (1.0 + fill * (n - 1))),
    st.integers(1, 5), st.floats(15.0, 60.0), st.floats(30.0, 70.0), st.floats(0.0, 1.0),
    st.floats(0.01, 1.0), st.floats(0.005, 0.05), st.floats(0.5, 2.0), st.floats(0.5, 2.0),
    st.floats(0.0, 1.0))
PROPERTY_SETTINGS = settings(derandomize=True, max_examples=40, deadline=None, database=None)


@PROPERTY_SETTINGS
@given(params=small_params, m=st.integers(1, 12), k=st.integers(1, 6))
def test_property_kernels_equal_scalar_rows(params, m, k):
    assert_kernels_match_rows(params, build_grid(params, M=m, K=k))


def nonincreasing_rows(m, k):
    """(m, k) rows sorted high to low from five values: exact ties within a
    row and between rows drawn this way."""
    values = arrays(np.float64, (m, k), elements=st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0]))
    return values.map(lambda a: np.sort(a, axis=1)[:, ::-1])


@PROPERTY_SETTINGS
@given(data=st.data(), m=st.integers(1, 6), k=st.integers(1, 8))
def test_property_staircase_mask_equals_per_level_walk(data, m, k):
    q0 = data.draw(nonincreasing_rows(m, k))
    q1 = data.draw(nonincreasing_rows(m, k))
    # serving is not allowed at the worst H-states of some levels: inf first
    for i, blocked in enumerate(data.draw(arrays(np.int64, m, elements=st.integers(0, k)))):
        q1[i, :blocked] = np.inf
    mask, top, evals = staircase(q0, q1)
    assert mask.shape == (m, k, k) and evals.dtype == np.int64
    for i in range(m):
        pol, _, n = monotone_slice(q0[i], q1[i], k)
        assert np.array_equal(mask[i], pol) and evals[i] == n
        assert np.array_equal(staircase_actions(top[i]), pol)


# entry j of a row from entry j-1: tied, risen by one ulp, by 1e-13 (under
# _RISE_RTOL) or by 1e-9 (over it), or +inf
RISES = {
    "tie": lambda prev: prev,
    "ulp": lambda prev: np.nextafter(prev, np.inf),
    "tolerated": lambda prev: prev * (1.0 + 1e-13),
    "real": lambda prev: prev * (1.0 + 1e-9),
    "inf": lambda prev: np.inf,
}


@st.composite
def rows_with_rises(draw, m, k, kinds, pool=None):
    """(m, k) rows high to low, from five values or, with a `pool`, from
    the entries of the same row of `pool` and +inf, with entries replaced,
    left to right, by one of the `kinds` of RISES over the entry before
    them."""
    if pool is None:
        q = draw(nonincreasing_rows(m, k))
    else:
        picks = draw(arrays(np.int64, (m, k), elements=st.integers(0, k)))
        values = np.hstack([pool, np.full((m, 1), np.inf)])
        q = np.sort(np.take_along_axis(values, picks, axis=1), axis=1)[:, ::-1].copy()
    picks = draw(arrays(np.int64, (m, k), elements=st.integers(0, 2 * len(kinds) - 1)))
    for (i, j), pick in np.ndenumerate(picks):
        if j and pick < len(kinds):   # half the entries keep their drawn value
            q[i, j] = RISES[kinds[pick]](q[i, j - 1])
    return q


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(data=st.data(), m=st.integers(1, 4), k=st.integers(1, 6))
def test_property_staircase_check_equals_dense_oracle(data, m, k):
    # the check tests only where q0 or q1 rise; the oracle reads the whole mask
    q0 = data.draw(rows_with_rises(m, k, ("tie", "ulp", "tolerated", "real")))
    # q1 from q0's own entries: a serve inside one of q0's rises needs a q1
    # entry in that rise, above its lower end and at most its upper one
    q1 = data.draw(rows_with_rises(m, k, ("tie", "ulp", "tolerated", "real", "inf"),
                                   pool=q0 if data.draw(st.booleans()) else None))

    def outcome(check):
        try:
            return check(7, q0, q1)
        except StructureViolationError as exc:
            return str(exc)

    # the solve gives the check q0 only at the G-steps where it may rise
    rising = np.flatnonzero(~(q0[:, 1:] <= q0[:, :-1]).all(axis=0))
    want = outcome(dense_staircase_counts)
    for got in (outcome(checked_staircase),
                outcome(lambda *args: checked_staircase(*args, steps=rising))):
        if isinstance(want, str):
            assert got == want
        else:
            assert not isinstance(got, str), got
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and np.array_equal(a, b)


def assert_cuts_equal_dense_counts(q0, q1, costs, ev0):
    """`_cuts` on q0 in the order of `costs` against the dense compare."""
    m, k = q0.shape
    asc = np.argsort(costs, kind="stable")
    rows = np.pad(q0[:, asc], ((0, 0), (1, 1)), constant_values=(-np.inf, np.inf))
    cut, at = _cuts(rows, costs[asc], ev0, q1)
    assert np.array_equal(k - cut, (q1[:, None, :] <= q0[:, :, None]).sum(axis=1))
    assert np.array_equal(at, cut + (k + 2) * np.arange(m)[:, None])
    return cut


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(data=st.data(), m=st.integers(1, 5), k=st.integers(1, 8))
def test_property_cuts_equal_dense_column_sums(data, m, k):
    # skip costs with ties, rises of every size and +inf, each level's q0
    # their rounded shift as in a solve, so its rows sort in their order
    costs = data.draw(rows_with_rises(1, k, ("tie", "ulp", "tolerated", "real", "inf")))[0]
    ev0 = data.draw(arrays(np.float64, m, elements=st.sampled_from(
        [0.0, 1e-17, 0.1, 1.0 / 3.0, 2.5, 1e3])))
    q0 = costs[None, :] + ev0[:, None]
    # q1 from q0's own entries and their neighbours, or apart from them
    q1 = data.draw(rows_with_rises(m, k, ("tie", "ulp", "tolerated", "real", "inf"),
                                   pool=q0 if data.draw(st.booleans()) else None))
    assert_cuts_equal_dense_counts(q0, q1, costs, ev0)


def test_cuts_recount_rows_that_are_not_shifts_of_the_costs():
    # every row sorts in the costs' order, but the searches read level 1 as
    # a shift of the costs (it is stretched) and level 2 too (it is flat)
    costs = np.array([3.0, 2.0, 1.0, 0.0])
    q0 = np.array([[3.0, 2.0, 1.0, 0.0], [30.0, 20.0, 10.0, 0.0], [5.0, 5.0, 5.0, 5.0]])
    q1 = np.array([[2.5, 1.0, 0.5, -1.0], [25.0, 15.0, 10.0, 5.0], [6.0, 5.0, 4.0, np.inf]])
    ev0 = np.zeros(3)
    guess = np.searchsorted(np.sort(costs), q1 - ev0[:, None])
    cut = assert_cuts_equal_dense_counts(q0, q1, costs, ev0)
    assert np.array_equal(guess[0], cut[0])
    assert np.all((guess != cut)[1:].any(axis=1))   # both recounted
    np.testing.assert_array_equal(4 - cut, [[1, 3, 3, 4], [1, 2, 3, 3], [0, 4, 4, 0]])


def test_cuts_serve_ties_that_the_search_rounds_past():
    # fl(fl(c + e) - e) > c for these: shifted back, a q1 tied with q0 lands
    # above its cost, so the search leaves the tied G-state unserved and the
    # bracket has to catch it
    costs = np.array([0.7, 0.1])
    ev0 = np.array([1000.0, 2.5])
    q0 = costs[None, :] + ev0[:, None]
    assert np.all(q0 - ev0[:, None] > costs)
    cut = assert_cuts_equal_dense_counts(q0, q0[:, ::-1].copy(), costs, ev0)
    np.testing.assert_array_equal(2 - cut, [[2, 1], [2, 1]])


@PROPERTY_SETTINGS
@given(params=small_params, m=st.integers(1, 10), k=st.integers(1, 6))
def test_property_monotone_raises_or_equals_dense(params, m, k):
    model = build_mdp_model(params, build_grid(params, M=m, K=k))
    try:
        assert_walk_matches_oracles(model, params.N)
    except StructureViolationError:
        pass


# ---------------------------------------------------------------------------
# artifacts
# ---------------------------------------------------------------------------

def test_artifact_round_trip_and_determinism(tmp_path):
    grid = build_grid(P, M=5, K=3)
    model = build_mdp_model(P, grid)
    policy, _, _ = monotone_backward_induction(model, 4)
    f1, f2 = tmp_path / "a.pol", tmp_path / "b.pol"
    save_policy_artifact(f1, policy)
    save_policy_artifact(f2, policy)
    assert f1.read_bytes() == f2.read_bytes()
    loaded_policy = load_policy_artifact(f1)
    assert isinstance(loaded_policy, PolicyTable)
    np.testing.assert_array_equal(loaded_policy.top, policy.top)
    assert loaded_policy.top.dtype == np.int16
    np.testing.assert_array_equal(loaded_policy.grid.battery_levels, grid.battery_levels)
    np.testing.assert_array_equal(loaded_policy.grid.bounds_H, grid.bounds_H)
    assert loaded_policy.params_hash == P.content_hash()


def artifact_size(n, m, k) -> int:
    """Bytes after the header line: the grid, then the int16 thresholds."""
    return 8 * (2 * m + 1 + 2 * (2 * k + 1)) + 2 * n * m * k


def small_artifact(tmp_path, n=2, m=3, k=2):
    """A trained table, its file and the file's bytes."""
    policy, _, _ = monotone_backward_induction(build_mdp_model(P, build_grid(P, M=m, K=k)), n)
    f = tmp_path / "p.pol"
    save_policy_artifact(f, policy)
    return policy, f, f.read_bytes()


def test_artifact_without_values(tmp_path):
    policy, f, blob = small_artifact(tmp_path)
    head, body = blob[len(b"HESNETPOLICY 1\n"):].split(b"\n", 1)
    assert json.loads(head) == {"version": 2, "n": 2, "m": 3, "k": 2,
                                "params_hash": P.content_hash()}
    assert len(body) == artifact_size(2, 3, 2)
    loaded_policy = load_policy_artifact(f)
    np.testing.assert_array_equal(loaded_policy.top, policy.top)


def test_v1_artifact_is_refused(tmp_path):
    grid = build_grid(P, M=4, K=3)
    policy, _, _ = monotone_backward_induction(build_mdp_model(P, grid), 3)
    old = tmp_path / "v1.pol"
    v1_artifact(old, policy.top, grid, policy.params_hash)
    with pytest.raises(InvalidParameterError, match="unsupported artifact version 1; .*mdp-train"):
        load_policy_artifact(old)


def test_artifact_rejects_thresholds_out_of_range_or_falling(tmp_path):
    policy, f, blob = small_artifact(tmp_path, n=2, m=3, k=4)
    top_at = len(blob) - 2 * policy.top.size
    bad_tops = []
    for value in (-2, 4, -32768, 32767):   # below -1, above K-1, the int16 extremes
        top = policy.top.copy()
        top[1, 2, 0] = value
        bad_tops.append(top)
    falling = np.zeros_like(policy.top)
    falling[0, 1, :2] = (1, 0)              # H-state 1 serves less than H-state 0
    bad_tops.append(falling)
    for top in bad_tops:
        f.write_bytes(blob[:top_at] + top.astype("<i2").tobytes())
        with pytest.raises(InvalidParameterError, match="thresholds"):
            load_policy_artifact(f)
    # the extremes of the range load
    for value in (-1, 3):
        f.write_bytes(blob[:top_at] + np.full_like(policy.top, value).astype("<i2").tobytes())
        assert np.all(load_policy_artifact(f).top == value)


def test_artifact_rejects_corruption(tmp_path):
    _, f, blob = small_artifact(tmp_path)
    truncated = tmp_path / "t.pol"
    truncated.write_bytes(blob[:len(blob) - 16])
    with pytest.raises(InvalidParameterError):
        load_policy_artifact(truncated)
    garbled = tmp_path / "g.pol"
    garbled.write_bytes(b"NOTAPOLICY" + blob)
    with pytest.raises(InvalidParameterError):
        load_policy_artifact(garbled)


def artifact_with_header(tmp_path, header: bytes, body: bytes = b"") -> Path:
    f = tmp_path / "h.pol"
    f.write_bytes(b"HESNETPOLICY 1\n" + header + body)
    return f


def test_artifact_rejects_oversized_header_claim_without_allocating(tmp_path):
    header = json.dumps({"version": 2, "n": 10**9, "m": 100, "k": 25,
                         "params_hash": P.content_hash()})
    f = artifact_with_header(tmp_path, header.encode() + b"\n", bytes(4096))
    tracemalloc.start()
    try:
        with pytest.raises(InvalidParameterError, match="implies"):
            load_policy_artifact(f)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_artifact_rejects_trailing_byte_and_bad_headers(tmp_path):
    policy, _, blob = small_artifact(tmp_path)
    padded = tmp_path / "padded.pol"
    padded.write_bytes(blob + b"\0")
    with pytest.raises(InvalidParameterError, match="implies"):
        load_policy_artifact(padded)
    head, body = blob[len(b"HESNETPOLICY 1\n"):].split(b"\n", 1)
    bad_headers = [
        head,                                          # no newline: the file ends in the header
        b" " * 5000 + head + b"\n",                    # over the header length limit
        b"\xff\xfe{" + b"\n",                         # not UTF-8
        b"[1, 2]\n",                                   # JSON but not an object
        head.replace(b'"k":2', b'"k":0') + b"\n",     # k not positive
        head.replace(b'"m":3', b'"m":3.0') + b"\n",   # m not an integer
        head.replace(b'"n":2', b'"n":true') + b"\n",  # n a boolean
        head.replace(b'"params_hash":', b'"params_hash":0,"old_hash":') + b"\n",  # hash not a string
        head.replace(b'"version":2', b'"version":true') + b"\n",  # version a boolean
        head.replace(b'"version":2', b'"version":2.0') + b"\n",   # version not an integer
    ]
    for bad in bad_headers:
        with pytest.raises(InvalidParameterError):
            load_policy_artifact(artifact_with_header(tmp_path, bad, body))
    # the untouched header still loads
    loaded = load_policy_artifact(artifact_with_header(tmp_path, head + b"\n", body))
    np.testing.assert_array_equal(loaded.top, policy.top)
