"""Quantization, transition kernels, and the two induction solvers."""

import dataclasses
import json
import math
import tracemalloc
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import integrate

from hesnet.cli import resolve_config
from hesnet.errors import (
    InvalidActionError,
    InvalidParameterError,
    InvalidStateError,
    StructureViolationError,
)
from hesnet.mdp import (
    _RISE_RTOL,
    _dense_mask,
    _expected_values,
    _staircase_counts,
    CostToGo,
    PolicyTable,
    QuantizationGrid,
    backward_induction,
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

P = SystemParams()


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
    np.testing.assert_allclose(model.kernel0.sum(axis=1), 1.0, rtol=1e-12)
    for j in range(grid.K):
        for i in range(grid.M):
            row = model.kernel1[j, i]
            if model.allowed[i, j]:
                assert np.isclose(row.sum(), 1.0, rtol=1e-12)
            else:
                assert row.sum() == 0.0
    assert np.all(model.kernel0 >= 0) and np.all(model.kernel1 >= 0)


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
    policy, values = backward_induction(model, 2)
    u0, a0, u1, a1 = tree_oracle(params, grid)
    for m in range(2):
        for kg in range(2):
            for kh in range(2):
                assert np.isclose(values.u[0, m, kg, kh], u0[m, kg, kh], rtol=1e-9)
                assert np.isclose(values.u[1, m, kg, kh], u1[m, kg, kh], rtol=1e-9)
                assert policy.actions[0, m, kg, kh] == a0[m, kg, kh]
                assert policy.actions[1, m, kg, kh] == a1[m, kg, kh]


def test_terminal_block_serves_whenever_feasible():
    grid = build_grid(P, M=6, K=3)
    model = build_mdp_model(P, grid)
    policy, values = backward_induction(model, 4)
    np.testing.assert_array_equal(
        policy.actions[-1], np.broadcast_to(model.allowed[:, None, :], (6, 3, 3)))
    # terminal cost is the stage cost alone
    expect = np.where(model.allowed[:, None, :], 0.0, model.cost_G[None, :, None])
    np.testing.assert_array_equal(values.u[-1], np.broadcast_to(expect, (6, 3, 3)))


def test_costs_to_go_are_finite_nonnegative_and_consistent():
    params = P.evolve(d_H=55.0)  # some states disallowed at the peak cap
    grid = build_grid(params, M=10, K=4)
    model = build_mdp_model(params, grid)
    policy, values = backward_induction(model, 6)
    assert np.all(np.isfinite(values.u)) and np.all(values.u >= 0)
    np.testing.assert_array_equal(values.u_hat, values.u.sum(axis=(2, 3)))
    # serving never happens in a disallowed state
    assert not np.any(policy.actions.astype(bool) & ~model.allowed[None, :, None, :])


def test_value_nonincreasing_in_battery_and_horizon_structure():
    grid = build_grid(P, M=16, K=5)
    model = build_mdp_model(P, grid)
    policy, values = backward_induction(model, 10)
    # more stored energy never hurts
    assert np.all(np.diff(values.u_hat, axis=1) <= 0)
    assert np.all(np.diff(values.u, axis=1) <= 0)
    # decisions are thresholds in the channel axes: worse G-state or better
    # H-state favors serving (no such structure along the battery axis)
    acts = policy.actions.astype(np.int8)
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
        pol_a, val_a = backward_induction(model, params.N)
        pol_b, val_b, counts = monotone_backward_induction(model, params.N)
        np.testing.assert_array_equal(pol_a.actions, pol_b.actions)
        assert np.array_equal(val_a.u, val_b.u)
        assert np.array_equal(val_a.u_hat, val_b.u_hat)
        assert counts.shape == (params.N, m)
        assert np.all(counts >= k) and np.all(counts <= 2 * k - 1)


def test_monotone_solver_single_state_channel():
    grid = build_grid(P, M=4, K=1)
    model = build_mdp_model(P, grid)
    _, _, counts = monotone_backward_induction(model, 3)
    np.testing.assert_array_equal(counts, np.ones((3, 4), dtype=np.int64))


def test_monotone_solve_holds_no_value_table():
    # the (N, M, K, K) float64 table would be 25 MB here; the solve holds the
    # uint8 actions (3.1 MB), q0/q1 (1 MB each) and one block's slice (6 MB
    # peak measured)
    model = build_mdp_model(P, build_grid(P, M=100, K=25))
    tracemalloc.start()
    try:
        table, values, _ = monotone_backward_induction(model, 50)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 12e6
    assert values.actions is table.actions
    dense_table, dense_values = backward_induction(model, 50)
    assert np.array_equal(values.u, dense_values.u)
    assert np.array_equal(values.u_hat, values.u.sum(axis=(2, 3)))


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
    assert np.array_equal(model.kernel0, kernel0)
    assert np.array_equal(model.kernel1, kernel1)
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
    table, values, counts = monotone_backward_induction(model, n)
    expected = per_level_monotone(model, n)
    for got, want in zip((table.actions, values.u, values.u_hat, counts), expected):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    dense_table, dense_values = backward_induction(model, n)
    assert np.array_equal(dense_table.actions, table.actions)
    assert np.array_equal(dense_values.u, values.u)
    assert np.array_equal(dense_values.u_hat, values.u_hat)
    k = model.grid.K
    assert np.all(counts >= k) and np.all(counts <= 2 * k - 1)


@pytest.mark.parametrize("preset", shipped_presets())
def test_closed_form_kernels_match_per_row_loop(preset):
    params = resolve_config(preset=preset).params
    for m in (1, 10, 25, 100):
        for k in (1, 5, 25):
            model = assert_kernels_match_rows(params, build_grid(params, M=m, K=k))
            # the batched expectation is the per-H-state stack of matrix-vector products
            u_hat = np.linspace(3.0, 1.0, m) * k
            ev0, ev1 = _expected_values(model, u_hat)
            stack = np.stack([model.kernel1[j] @ u_hat for j in range(k)], axis=1)
            assert np.array_equal(ev1, stack * (1.0 / (k * k)))
            assert np.array_equal(ev0, (model.kernel0 @ u_hat) * (1.0 / (k * k)))


@pytest.mark.parametrize("preset", shipped_presets())
def test_lockstep_walk_matches_per_level_walk_at_presets(preset):
    # every preset also trains at each M without a precondition violation
    params = resolve_config(preset=preset).params
    for m in (10, 25, 100):
        assert_walk_matches_oracles(build_mdp_model(params, build_grid(params, M=m, K=25)), params.N)


@pytest.mark.parametrize("params,m,k", [
    (P.evolve(N=6, B_m=P.E_m), 8, 4),   # battery holds one block of arrivals
    (P.evolve(N=5), 1, 4),              # a single battery level
    (P.evolve(N=5, d_H=55.0), 6, 1),    # a single channel state
    (P.evolve(N=3), 1, 1),
    (P.evolve(N=4, w_D=0.0), 5, 3),    # free skips: q0 == q1 ties, which serve
])
def test_kernels_and_walk_at_edge_cases(params, m, k):
    model = assert_kernels_match_rows(params, build_grid(params, M=m, K=k))
    assert np.allclose(model.kernel0.sum(axis=1), 1.0, rtol=1e-12)
    assert_walk_matches_oracles(model, params.N)


def test_peak_cap_below_every_inversion_power_serves_nothing():
    params = P.evolve(N=4, p_H_max=1e-9)
    grid = build_grid(params, M=6, K=3)
    model = assert_kernels_match_rows(params, grid)
    assert not model.allowed.any() and not model.kernel1.any()
    table, values, counts = monotone_backward_induction(model, params.N)
    assert not table.actions.any()
    np.testing.assert_array_equal(counts, np.full((4, 6), 3))  # the G cursor alone walks
    assert_walk_matches_oracles(model, params.N)


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
    kernel1 = model.kernel1.copy()
    kernel1[-1] = 0.0
    kernel1[-1, :, 0] = 1.0
    with pytest.raises(StructureViolationError, match="block t=3: q1"):
        monotone_backward_induction(dataclasses.replace(model, kernel1=kernel1), 5)


def test_walk_tolerates_rises_of_rounding_size():
    model = build_mdp_model(P, build_grid(P, M=4, K=2))
    c = model.cost_G[0]
    ulp = dataclasses.replace(model, cost_G=np.array([c, np.nextafter(c, np.inf)]))
    monotone_backward_induction(ulp, 3)
    real = dataclasses.replace(model, cost_G=np.array([c, c * (1 + 100 * _RISE_RTOL)]))
    with pytest.raises(StructureViolationError):
        monotone_backward_induction(real, 3)


def staircase(q0, q1):
    """Block 0's dense mask and the walk's evaluation counts, checked."""
    mask = _dense_mask(q0, q1)
    return mask, _staircase_counts(0, q0, q1, mask)


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
    mask, evals = staircase(np.array([[c, c]]), np.array([[np.inf, c]]))
    np.testing.assert_array_equal(mask[0], [[False, True], [False, True]])
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
    mask, evals = staircase(q0, q1)
    assert mask.shape == (m, k, k) and evals.dtype == np.int64
    for i in range(m):
        pol, _, n = monotone_slice(q0[i], q1[i], k)
        assert np.array_equal(mask[i], pol) and evals[i] == n


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
    policy, _ = backward_induction(model, 4)
    f1, f2 = tmp_path / "a.pol", tmp_path / "b.pol"
    save_policy_artifact(f1, policy)
    save_policy_artifact(f2, policy)
    assert f1.read_bytes() == f2.read_bytes()
    loaded_policy = load_policy_artifact(f1)
    assert isinstance(loaded_policy, PolicyTable)
    np.testing.assert_array_equal(loaded_policy.actions, policy.actions)
    assert loaded_policy.actions.dtype == np.uint8
    np.testing.assert_array_equal(loaded_policy.grid.battery_levels, grid.battery_levels)
    np.testing.assert_array_equal(loaded_policy.grid.bounds_H, grid.bounds_H)
    assert loaded_policy.params_hash == P.content_hash()


def artifact_size(n, m, k, values: bool) -> int:
    """Bytes after the header line: the grid, the actions and, in a
    values-bearing file, the u and u_hat blocks."""
    cells = n * m * k * k
    return 8 * (2 * m + 1 + 2 * (2 * k + 1)) + cells + (8 * (cells + n * m) if values else 0)


def test_artifact_without_values(tmp_path):
    grid = build_grid(P, M=3, K=2)
    model = build_mdp_model(P, grid)
    policy, _ = backward_induction(model, 2)
    f = tmp_path / "p.pol"
    save_policy_artifact(f, policy)
    head, body = f.read_bytes()[len(b"HESNETPOLICY 1\n"):].split(b"\n", 1)
    assert json.loads(head)["has_values"] is False
    assert len(body) == artifact_size(2, 3, 2, values=False)
    loaded_policy = load_policy_artifact(f)
    np.testing.assert_array_equal(loaded_policy.actions, policy.actions)


def legacy_artifact(path, policy: PolicyTable, values: CostToGo) -> bytes:
    """A version-1 file with has_values true, in the layout the writer used
    before value blocks were dropped: actions, then u, then u_hat."""
    g = policy.grid
    header = {"version": 1, "n": policy.N, "m": g.M, "k": g.K,
              "params_hash": policy.params_hash, "has_values": True}
    blob = b"HESNETPOLICY 1\n" + json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    blob += b"\n" + b"".join(np.ascontiguousarray(a, dtype="<f8").tobytes() for a in (
        g.battery_levels, g.bin_edges, g.bounds_G, g.levels_G, g.bounds_H, g.levels_H))
    blob += policy.actions.astype("|u1").tobytes()
    blob += values.u.astype("<f8").tobytes() + values.u_hat.astype("<f8").tobytes()
    Path(path).write_bytes(blob)
    return blob


def test_legacy_artifact_with_values_loads_its_actions(tmp_path):
    grid = build_grid(P, M=4, K=3)
    policy, values = backward_induction(build_mdp_model(P, grid), 3)
    legacy = tmp_path / "legacy.pol"
    blob = legacy_artifact(legacy, policy, values)
    assert len(blob.split(b"\n", 2)[2]) == artifact_size(3, 4, 3, values=True)
    loaded = load_policy_artifact(legacy)
    np.testing.assert_array_equal(loaded.actions, policy.actions)
    np.testing.assert_array_equal(loaded.grid.levels_H, grid.levels_H)
    assert loaded.params_hash == policy.params_hash
    # the size check still covers the value block it does not read
    for name, bad in (("padded", blob + b"\0"), ("truncated", blob[:-8]),
                      ("no_values", blob[:-8 * (values.u.size + values.u_hat.size)])):
        (tmp_path / f"{name}.pol").write_bytes(bad)
        with pytest.raises(InvalidParameterError, match="implies"):
            load_policy_artifact(tmp_path / f"{name}.pol")


def test_artifact_rejects_corruption(tmp_path):
    grid = build_grid(P, M=3, K=2)
    model = build_mdp_model(P, grid)
    policy, _ = backward_induction(model, 2)
    f = tmp_path / "p.pol"
    save_policy_artifact(f, policy)
    blob = f.read_bytes()
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
    header = json.dumps({"version": 1, "n": 10**9, "m": 100, "k": 25,
                         "params_hash": P.content_hash(), "has_values": True})
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
    grid = build_grid(P, M=3, K=2)
    policy, _ = backward_induction(build_mdp_model(P, grid), 2)
    f = tmp_path / "p.pol"
    save_policy_artifact(f, policy)
    blob = f.read_bytes()
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
        head.replace(b'"has_values":false', b'"has_values":0') + b"\n",
    ]
    for bad in bad_headers:
        with pytest.raises(InvalidParameterError):
            load_policy_artifact(artifact_with_header(tmp_path, bad, body))
    # the untouched header still loads
    loaded = load_policy_artifact(artifact_with_header(tmp_path, head + b"\n", body))
    np.testing.assert_array_equal(loaded.actions, policy.actions)
