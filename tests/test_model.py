"""Link budget, fading/arrival models, parameter plumbing."""

import math

import numpy as np
import pytest

from hesnet.errors import InvalidParameterError
from hesnet.model import (
    FrameBatch,
    SystemParams,
    channel_gain,
    cost_parameter,
    inversion_power,
    kappa,
    link_terms,
    make_rng,
    rate,
    required_snr,
    sample_trajectories,
    sample_trajectory,
)

P = SystemParams()


# ---------------------------------------------------------------------------
# scalar primitives against frozen reference numbers
# ---------------------------------------------------------------------------

def test_required_snr_reference_setup():
    # R/(W tau) = 5 bits per channel use, so the SNR target is 2^5 - 1
    assert required_snr(P) == 31.0


def test_noise_power_reference_setup():
    assert math.isclose(P.sigma2, 1.7782794100389228e-13, rel_tol=1e-14)


def test_channel_gain_values():
    assert np.isclose(channel_gain(50.0, 1.0, P), 1.6e-11, rtol=1e-12)
    # theta = 4: doubling distance costs a factor 16
    assert np.isclose(channel_gain(25.0, 1.0, P) / channel_gain(50.0, 1.0, P), 16.0, rtol=1e-12)
    assert channel_gain(30.0, 0.0, P) == 0.0
    with pytest.raises(InvalidParameterError):
        channel_gain(0.0, 1.0, P)
    with pytest.raises(InvalidParameterError):
        channel_gain(10.0, -0.5, P)


def test_inversion_power_values():
    assert np.isclose(inversion_power(1.0, P), 5.5126661711206607e-12, rtol=1e-12)
    h_g = channel_gain(50.0, 1.0, P)
    h_h = channel_gain(30.0, 1.0, P)
    assert np.isclose(inversion_power(h_g, P), 0.34454163569504129, rtol=1e-12)
    assert np.isclose(inversion_power(h_h, P), 0.044652595986077352, rtol=1e-12)
    assert inversion_power(0.0, P) == math.inf
    out = inversion_power(np.array([0.0, h_g]), P)
    assert out[0] == math.inf and np.isclose(out[1], 0.34454163569504129, rtol=1e-12)
    with pytest.raises(InvalidParameterError):
        inversion_power(-1e-9, P)


def test_inversion_power_hits_the_rate_target():
    # spending exactly the inversion power delivers exactly one packet
    for gamma in (0.2, 1.0, 3.7):
        h = channel_gain(P.d_H, gamma, P)
        assert np.isclose(rate(inversion_power(h, P), h, P), P.R, rtol=1e-12)


def test_rate_monotone_and_zero_at_zero_power():
    h = channel_gain(40.0, 1.0, P)
    powers = np.linspace(0.0, 2.0, 7)
    r = rate(powers, h, P)
    assert r[0] == 0.0
    assert np.all(np.diff(r) > 0)


def test_kappa_both_regimes():
    assert kappa(P) == 2.0  # peak cap binds: w_D/(w_G tau) = 10 > p_G_max
    assert kappa(P.evolve(w_D=1e-4)) == 0.1  # drop price binds
    assert kappa(P.evolve(w_D=0.002)) == 2.0


def test_cost_parameter_branches():
    kap = kappa(P)
    p = np.array([0.0, 0.5 * kap, kap, kap * (1 + 1e-9), 100.0, np.inf])
    c = cost_parameter(p, P)
    assert c[0] == 0.0
    assert np.isclose(c[1], P.w_G * 0.5 * kap * P.tau, rtol=1e-12)
    # the boundary transmits, and both branches price it the same when the
    # drop price binds
    assert np.isclose(c[2], P.w_G * kap * P.tau, rtol=1e-12)
    assert c[3] == P.w_D and c[4] == P.w_D and c[5] == P.w_D
    p2 = P.evolve(w_D=1e-4)  # kappa = w_D/(w_G tau) = 0.1
    assert np.isclose(cost_parameter(0.1, p2), p2.w_D, rtol=1e-12)


def test_cost_parameter_never_exceeds_drop_price():
    grid = np.concatenate([np.linspace(0, 5, 101), [np.inf]])
    for p in (P, P.evolve(w_D=1.0), P.evolve(w_D=1e-3)):
        c = cost_parameter(grid, p)
        assert np.all(c <= p.w_D + 1e-15)
        assert np.all(c >= 0)


# ---------------------------------------------------------------------------
# stochastic models
# ---------------------------------------------------------------------------

def test_exponential_sampling_moments():
    # the sampler's gains are exponential with means mu_G and mu_H
    params = P.evolve(mu_G=0.8, mu_H=1.7)
    batch = sample_trajectories(params, 11, 4000, users=5)   # 10^6 gains per link
    for x, mean in ((batch.gamma_g, 0.8), (batch.gamma_h, 1.7)):
        se = mean / math.sqrt(x.size)  # exp std equals the mean
        assert abs(x.mean() - mean) < 4 * se
        assert np.all(x >= 0)


def test_uniform_arrivals_moments():
    # sampled arrivals are uniform on [0, E_m], so their mean is P_avg * tau
    x = sample_trajectories(P, 12, 4000).e_h
    assert np.all((x >= 0) & (x <= P.E_m))
    se = P.E_m / math.sqrt(12 * x.size)
    assert abs(x.mean() - P.P_avg * P.tau) < 4 * se


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------

def test_default_derivations():
    assert P.P_avg == 0.02
    assert P.B_m == pytest.approx(50 * 4e-5, rel=1e-12)
    assert math.isclose(P.P_avg * P.tau, P.E_m / 2)


def test_evolve_rescales_dependents():
    q = P.evolve(P_avg=0.04)
    assert q.E_m == pytest.approx(8e-5, rel=1e-12)
    assert q.B_m == pytest.approx(50 * 8e-5, rel=1e-12)
    r = P.evolve(E_m=2e-5)
    assert r.P_avg == pytest.approx(0.01, rel=1e-12)
    s = P.evolve(N=10)
    assert s.B_m == pytest.approx(10 * 4e-5, rel=1e-12)
    pinned = P.evolve(N=10, B_m=1.0)
    assert pinned.B_m == 1.0


def test_validation_rejects_bad_values():
    for kw in ({"tau": 0.0}, {"N": 0}, {"N": 2.5}, {"W": -1.0}, {"w_D": -0.1},
               {"E_m": math.inf}, {"p_H_max": 0.0}):
        with pytest.raises(InvalidParameterError):
            SystemParams(**kw)
    with pytest.raises(InvalidParameterError):
        SystemParams(B_m=1e-9)  # below the per-block arrival cap
    with pytest.raises(InvalidParameterError):
        SystemParams(P_avg=0.5)  # inconsistent with E_m


def test_content_hash_tracks_parameters():
    assert P.content_hash() == SystemParams().content_hash()
    assert P.content_hash() != P.evolve(w_D=0.011).content_hash()
    assert len(P.content_hash()) == 64


# ---------------------------------------------------------------------------
# reproducible sampling
# ---------------------------------------------------------------------------

def test_make_rng_is_keyed():
    a = make_rng(5).standard_normal(4)
    b = make_rng(5).standard_normal(4)
    c = make_rng(6).standard_normal(4)
    d = make_rng(5, 0).standard_normal(4)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)
    with pytest.raises(InvalidParameterError):
        make_rng()


def test_sample_trajectory_deterministic():
    t1 = sample_trajectory(P, 42)
    t2 = sample_trajectory(P, 42)
    np.testing.assert_array_equal(t1.gamma_g, t2.gamma_g)
    np.testing.assert_array_equal(t1.e_h, t2.e_h)
    assert t1.frames == 1 and t1.users == 1 and t1.gamma_g.shape == (1, 1, P.N)
    assert np.all(t1.e_h <= P.E_m)
    # an int seed is keyed (seed,), not (seed, 0); offline-solve's bytes rely on it
    rng = make_rng(42)
    want = (rng.exponential(P.mu_G, P.N), rng.exponential(P.mu_H, P.N),
            rng.uniform(0.0, P.E_m, P.N))
    got = (t1.gamma_g[0, 0], t1.gamma_h[0, 0], t1.e_h[0])
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
    assert not np.array_equal(t1.gamma_g, sample_trajectories(P, 42, 1).gamma_g)


def test_batch_sampling_matches_per_frame_keys():
    batch = sample_trajectories(P, 9, 6)
    assert batch.gamma_g.shape == (6, 1, P.N)
    t3 = sample_trajectory(P, (9, 3))
    np.testing.assert_array_equal(batch.gamma_g[3], t3.gamma_g[0])
    np.testing.assert_array_equal(batch.gamma_h[3], t3.gamma_h[0])
    np.testing.assert_array_equal(batch.e_h[3], t3.e_h[0])
    # prefix property: a longer batch starts with the shorter one
    longer = sample_trajectories(P, 9, 12)
    np.testing.assert_array_equal(longer.gamma_g[:6], batch.gamma_g)


@pytest.mark.parametrize("params", [P, P.evolve(mu_G=2.0, mu_H=0.5, N=7)])
def test_sampler_draw_order_and_one_user_slice(params):
    # frame f draws grid gains, harvesting gains, then arrivals from the
    # (seed, f) generator; a second user draws its gains after the first,
    # and the arrivals come after every user's gains
    one = sample_trajectories(params, 14, 5)
    two = sample_trajectories(params, 14, 5, users=2)
    n = params.N
    for f in range(5):
        rng = make_rng(14, f)
        single = (rng.exponential(params.mu_G, n), rng.exponential(params.mu_H, n),
                  rng.uniform(0.0, params.E_m, n))
        got = (one.gamma_g[f, 0], one.gamma_h[f, 0], one.e_h[f])
        assert all(np.array_equal(g, want) for g, want in zip(got, single))
        rng = make_rng(14, f)
        pair = (rng.exponential(params.mu_G, n), rng.exponential(params.mu_H, n),
                rng.exponential(params.mu_G, n), rng.exponential(params.mu_H, n),
                rng.uniform(0.0, params.E_m, n))
        got = (two.gamma_g[f, 0], two.gamma_h[f, 0], two.gamma_g[f, 1], two.gamma_h[f, 1],
               two.e_h[f])
        assert all(np.array_equal(g, want) for g, want in zip(got, pair))
    assert one.gamma_g.flags.c_contiguous and one.gamma_g.shape == (5, 1, params.N)
    assert two.users == 2 and two.e_h.shape == (5, params.N)
    with pytest.raises(InvalidParameterError, match="frames"):
        sample_trajectories(params, 14, 0)
    with pytest.raises(InvalidParameterError, match="users"):
        sample_trajectories(params, 14, 5, users=0)


# ---------------------------------------------------------------------------
# link terms and frame batches
# ---------------------------------------------------------------------------

def test_link_terms_compose_the_scalar_primitives():
    batch = sample_trajectories(P, 30, 20)
    gg, gh = batch.gamma_g[:, 0].copy(), batch.gamma_h[:, 0].copy()
    gg[0, :3] = [0.0, 1e-9, 50.0]   # dead channel, drop, and a cheap grid block
    gh[0, 0] = 0.0
    p_g, p_h, skip, transmits = link_terms(gg, gh, P)
    want_g = inversion_power(channel_gain(P.d_G, gg, P), P)
    assert np.array_equal(p_g, want_g)
    assert np.array_equal(p_h, inversion_power(channel_gain(P.d_H, gh, P), P))
    assert np.array_equal(skip, cost_parameter(want_g, P))
    assert np.array_equal(transmits, want_g <= kappa(P))
    assert transmits[0].tolist()[:3] == [False, False, True] and np.isinf(p_h[0, 0])


def test_frame_batch_holds_trajectories_and_their_link_terms():
    sampled = sample_trajectories(P, 31, 4, users=2)
    gg, gh, eh = sampled.gamma_g.copy(), sampled.gamma_h.copy(), sampled.e_h
    gg[0, 1, :2] = 0.0   # dead grid channels
    batch = FrameBatch(P, gg, gh, eh)
    # the given arrays are held, not copied
    assert batch.gamma_g is gg and batch.gamma_h is gh and batch.e_h is eh
    assert (batch.frames, batch.users) == (4, 2)
    terms = (batch.p_g, batch.p_h, batch.skip, batch.transmits)
    for got, want in zip(terms, link_terms(gg, gh, P)):
        assert np.array_equal(got, want)
    # the 3-D link terms are each user's (frames, N) slice's, bit for bit
    for u in range(2):
        for got, want in zip(terms, link_terms(gg[:, u], gh[:, u], P)):
            assert np.array_equal(got[:, u], want)
    assert np.isinf(batch.p_g[0, 1, 0]) and not batch.transmits[0, 1, 0]
    one = sample_trajectory(P, (31, 2))
    assert one.frames == 1 and np.array_equal(one.p_h[0, 0], sampled.p_h[2, 0])


def test_frame_batch_validation():
    batch = sample_trajectories(P, 32, 2)
    gg, gh, eh = batch.gamma_g, batch.gamma_h, batch.e_h
    with pytest.raises(InvalidParameterError, match="blocks, params.N"):
        FrameBatch(P.evolve(N=10), gg, gh, eh)
    with pytest.raises(InvalidParameterError, match="one shape"):
        FrameBatch(P, gg, gh, eh[:1])
    with pytest.raises(InvalidParameterError, match="one shape"):
        FrameBatch(P, gg[:, 0], gh[:, 0], eh)   # (frames, N) gains
    with pytest.raises(InvalidParameterError):
        FrameBatch(P, -gg, gh, eh)


def test_frame_batch_rejects_non_finite_or_negative_input():
    # a NaN grid gain used to be priced as a drop, an infinite harvesting
    # gain as a free serve, and a negative arrival made the walk blame the
    # policy for the battery going below 0
    params = P.evolve(N=4)
    batch = sample_trajectories(params, 33, 2)
    for name, at, value in (("gamma_g", (0, 0, 0), np.nan), ("gamma_h", (0, 0, 1), np.inf),
                            ("e_h", (1, 2), -1e-3)):
        arrays = {k: getattr(batch, k).copy() for k in ("gamma_g", "gamma_h", "e_h")}
        arrays[name][at] = value
        with pytest.raises(InvalidParameterError, match=f"{name} must be finite and >= 0"):
            FrameBatch(params, **arrays)
    # a zero gain, the dead channel, stays legal
    gg = batch.gamma_g.copy()
    gg[0, 0, 0] = 0.0
    assert np.isinf(FrameBatch(params, gg, batch.gamma_h, batch.e_h).p_g[0, 0, 0])
