"""Physical-layer model for a two-BS hybrid energy supply downlink.

Users are served over frames of N equal blocks.  In every block exactly one
packet of R bits is due per user; it is carried by the grid-powered BS,
carried by the energy-harvesting BS out of its battery, or dropped.  This
module holds the system parameters, the stochastic channel/arrival models,
the scalar primitives (channel gain, rate, inversion power, per-block cost),
the one place they are composed (`link_terms`), the CRN samplers, and
`FrameBatch`, (frames, U, N) gains over (frames, N) shared arrivals held
with their link terms.  `FrameBatch` is the one frame type: a single frame
is a one-frame batch and a single user is U = 1.  The users share one
`SystemParams`: one battery, and the stations' peak powers as per-block
sums over the users.

Units are SI throughout: watts, joules, seconds, hertz, bits.  dB-valued
inputs are converted at the parsing boundary (see `cli`), never stored.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameterError

__all__ = [
    "SystemParams",
    "channel_gain",
    "rate",
    "inversion_power",
    "required_snr",
    "kappa",
    "cost_parameter",
    "link_terms",
    "power_limit",
    "serve_feasible",
    "FrameBatch",
    "make_rng",
    "sample_trajectory",
    "sample_trajectories",
]


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SystemParams:
    """Static system description.

    Defaults reproduce the reference simulation setup used throughout the
    test suite: a 10 MHz downlink with 50-block frames, one 50 Kbit packet
    per 1 ms block, unit-mean block fading on both links, and uniform energy
    arrivals with a 20 mW long-term harvest rate.

    `P_avg` and `B_m` may be omitted; they default to ``E_m / (2 tau)``
    (the mean of uniform arrivals on [0, E_m]) and ``N * E_m``.
    """

    w_G: float = 1.0            # cost weight per joule of grid energy
    w_D: float = 0.01           # cost weight per dropped packet
    R: float = 50e3             # bits per packet
    N: int = 50                 # blocks per frame
    tau: float = 1e-3           # s, block duration
    W: float = 10e6             # Hz, bandwidth of the user's channel
    sigma2: float = 10.0 ** -12.75   # W, noise power (-97.5 dBm)
    g0: float = 1e-4            # path loss at unit distance (-40 dB)
    theta: float = 4.0          # path loss exponent
    d_G: float = 50.0           # m, distance to the grid-powered BS
    d_H: float = 30.0           # m, distance to the energy-harvesting BS
    p_G_max: float = 2.0        # W, grid BS peak transmit power
    p_H_max: float = 0.5        # W, harvesting BS peak transmit power
    mu_G: float = 1.0           # mean fading power gain, grid link
    mu_H: float = 1.0           # mean fading power gain, harvesting link
    E_m: float = 4e-5           # J, max harvested energy per block
    P_avg: float | None = None  # W, mean harvest rate
    B_m: float | None = None    # J, battery capacity

    def __post_init__(self):
        def usable(x):
            return isinstance(x, (int, float, np.floating)) and math.isfinite(x) and x > 0

        if self.P_avg is None and usable(self.E_m) and usable(self.tau):
            object.__setattr__(self, "P_avg", self.E_m / (2.0 * self.tau))
        if self.B_m is None and usable(self.E_m) and isinstance(self.N, (int, np.integer)):
            object.__setattr__(self, "B_m", self.N * self.E_m)
        self._validate()

    def _validate(self):
        if not (isinstance(self.N, (int, np.integer)) and self.N >= 1):
            raise InvalidParameterError(f"N must be a positive integer, got {self.N!r}")
        positive = [
            "w_G", "R", "tau", "W", "sigma2", "g0", "theta", "d_G", "d_H",
            "p_G_max", "p_H_max", "mu_G", "mu_H", "E_m", "P_avg", "B_m",
        ]
        for name in positive:
            value = getattr(self, name)
            if not (isinstance(value, (int, float, np.floating)) and math.isfinite(value) and value > 0):
                raise InvalidParameterError(f"{name} must be finite and > 0, got {value!r}")
        if not (math.isfinite(self.w_D) and self.w_D >= 0):
            raise InvalidParameterError(f"w_D must be finite and >= 0, got {self.w_D!r}")
        if self.B_m < self.E_m:
            raise InvalidParameterError(
                f"battery capacity B_m={self.B_m} cannot be below the per-block arrival cap E_m={self.E_m}")
        # uniform arrivals on [0, E_m] fix the mean harvest rate
        if not math.isclose(self.P_avg * self.tau, self.E_m / 2.0, rel_tol=1e-9):
            raise InvalidParameterError(
                f"P_avg={self.P_avg} inconsistent with E_m={self.E_m}: need P_avg*tau == E_m/2")

    def evolve(self, **changes) -> "SystemParams":
        """Copy with `changes` applied; dependent fields are re-derived.

        Setting `P_avg` rescales `E_m`; setting `E_m`, `N`, or `tau` re-derives
        whichever of `P_avg` / `B_m` is not pinned in the same call.
        """
        if "P_avg" in changes and "E_m" not in changes:
            tau = changes.get("tau", self.tau)
            changes["E_m"] = 2.0 * changes["P_avg"] * tau
        elif "E_m" in changes and "P_avg" not in changes:
            changes["P_avg"] = None
        if "B_m" not in changes and any(k in changes for k in ("N", "E_m", "P_avg", "tau")):
            changes["B_m"] = None
        return dataclasses.replace(self, **changes)

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)

    def content_hash(self) -> str:
        """SHA-256 over the canonical parameter encoding (hex digest), computed
        once per instance: the fields are frozen and `evolve` builds a new one."""
        if "_content_hash" not in self.__dict__:
            blob = json.dumps(self.as_dict(), sort_keys=True, separators=(",", ":"),
                              default=float).encode()
            object.__setattr__(self, "_content_hash", hashlib.sha256(blob).hexdigest())
        return self.__dict__["_content_hash"]


# ---------------------------------------------------------------------------
# scalar primitives
# ---------------------------------------------------------------------------

def channel_gain(distance, gamma, params: SystemParams):
    """Power gain g0 * d^-theta * gamma of a link at `distance` meters."""
    if np.any(np.asarray(distance) <= 0):
        raise InvalidParameterError(f"distance must be > 0, got {distance!r}")
    if np.any(np.asarray(gamma) < 0):
        raise InvalidParameterError(f"fading gain must be >= 0, got {gamma!r}")
    return params.g0 * np.asarray(distance, dtype=float) ** -params.theta * gamma


def rate(p, h, params: SystemParams):
    """Bits deliverable in one block at transmit power `p` over gain `h`."""
    p = np.asarray(p, dtype=float)
    h = np.asarray(h, dtype=float)
    if np.any(p < 0) or np.any(h < 0):
        raise InvalidParameterError("power and gain must be >= 0")
    out = params.tau * params.W * np.log2(1.0 + h * p / params.sigma2)
    return float(out) if out.ndim == 0 else out


def required_snr(params: SystemParams) -> float:
    """SNR needed to fit one packet in one block: 2^(R/(W tau)) - 1."""
    return 2.0 ** (params.R / (params.W * params.tau)) - 1.0


def inversion_power(h, params: SystemParams):
    """Transmit power that delivers exactly one packet per block over gain `h`.

    A dead channel (h == 0) yields +inf: the block is unservable at any
    power, and downstream feasibility logic treats it that way.
    """
    h = np.asarray(h, dtype=float)
    if np.any(h < 0):
        raise InvalidParameterError(f"channel gain must be >= 0, got {h!r}")
    need = required_snr(params) * params.sigma2
    with np.errstate(divide="ignore"):
        out = np.where(h > 0.0, need / np.where(h > 0.0, h, 1.0), np.inf)
    return float(out) if out.ndim == 0 else out


def kappa(params: SystemParams) -> float:
    """Grid-power level above which dropping is cheaper than transmitting.

    min{p_G_max, w_D / (w_G tau)}: the peak-power cap or the power at which
    one block of grid energy costs exactly one drop, whichever binds first.
    """
    return min(params.p_G_max, params.w_D / (params.w_G * params.tau))


def cost_parameter(p_G_inv, params: SystemParams):
    """Cost of a block the harvesting BS does not take.

    w_D when the grid BS would have to exceed `kappa` (the packet is
    dropped), else the grid energy bill w_G * p_G_inv * tau.  The boundary
    p_G_inv == kappa transmits; both branches price it identically there.
    """
    p = np.asarray(p_G_inv, dtype=float)
    if np.any(p < 0):
        raise InvalidParameterError(f"inversion power must be >= 0, got {p_G_inv!r}")
    kap = kappa(params)
    with np.errstate(invalid="ignore"):
        out = np.where(p > kap, params.w_D, params.w_G * p * params.tau)
    return float(out) if out.ndim == 0 else out


def link_terms(gamma_g, gamma_h, params: SystemParams):
    """Link terms of fading gains: (p_G_inv, p_H_inv, skip, transmits).

    The two inversion powers, the cost of a block the harvesting BS skips
    (`cost_parameter`), and whether the grid BS then carries it (p_G_inv <=
    kappa) rather than dropping it.  Every evaluation path reads these.
    """
    p_g = inversion_power(channel_gain(params.d_G, gamma_g, params), params)
    p_h = inversion_power(channel_gain(params.d_H, gamma_h, params), params)
    return p_g, p_h, cost_parameter(p_g, params), p_g <= kappa(params)


def power_limit(battery, params: SystemParams):
    """The most power one block may draw from the harvesting BS: the
    battery's worth, battery / tau, capped at params.p_H_max."""
    return np.minimum(np.asarray(battery, dtype=float) / params.tau, params.p_H_max)


def serve_feasible(p_h, battery, params: SystemParams):
    """Whether one block at inversion power p_h fits the battery and the
    peak cap params.p_H_max (`power_limit`)."""
    return p_h <= power_limit(battery, params)


# ---------------------------------------------------------------------------
# trajectory sampling
# ---------------------------------------------------------------------------

def _key_words(key) -> list[int]:
    """The two 64-bit Philox key words of a one- or two-part integer key."""
    if not 1 <= len(key) <= 2:
        raise InvalidParameterError("rng key takes one or two integer components")
    words = [int(k) & (2 ** 64 - 1) for k in key]
    if len(words) == 1:
        words.append(0x9E3779B97F4A7C15)  # salt: keeps (k,) and (k, 0) distinct
    return words


def make_rng(*key: int) -> np.random.Generator:
    """Counter-based generator (Philox4x64) for a (stream, substream) key.

    The same key always yields the same draws, on any machine and with any
    worker layout, which is what makes paired policy comparisons and
    parallel Monte Carlo reproducible.  The samplers do not build one per
    frame: they re-key one generator per call to each frame's key with a
    zero counter, which draws exactly what `make_rng(*key)` would.
    """
    return np.random.Generator(np.random.Philox(key=np.asarray(_key_words(key), dtype=np.uint64)))


@dataclass(frozen=True, eq=False)
class FrameBatch:
    """(frames, U, N) gains over (frames, N) shared arrivals at one
    parameter point, with their link terms.

    The gains and arrivals are held as given (float arrays are not copied)
    and must be finite and >= 0 (a zero gain is a dead channel);
    `link_terms` runs once, at construction, and every walk, policy,
    calibrator and offline solver reads its (frames, U) columns or rows.
    """

    params: SystemParams
    gamma_g: np.ndarray                   # (frames, U, N) fading gains, grid link
    gamma_h: np.ndarray                   # (frames, U, N) fading gains, harvesting link
    e_h: np.ndarray                       # (frames, N) J, energy harvested ahead of each block
    p_g: np.ndarray = field(init=False)   # W, grid BS inversion power
    p_h: np.ndarray = field(init=False)   # W, harvesting BS inversion power
    skip: np.ndarray = field(init=False)  # cost of a block the harvesting BS skips
    transmits: np.ndarray = field(init=False)  # the grid BS carries a skipped block
    _cache: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self):
        arrays = [np.asarray(getattr(self, name), dtype=float)
                  for name in ("gamma_g", "gamma_h", "e_h")]
        shape = arrays[0].shape
        if (len(shape) != 3 or arrays[1].shape != shape
                or arrays[2].shape != (shape[0], shape[2])):
            raise InvalidParameterError(
                "gains must be (frames, users, N) arrays of one shape over (frames, N) "
                f"arrivals, got {arrays[0].shape}, {arrays[1].shape} and {arrays[2].shape}")
        if shape[2] != self.params.N:
            raise InvalidParameterError(
                f"trajectories have {shape[2]} blocks, params.N = {self.params.N}")
        for name, arr in zip(("gamma_g", "gamma_h", "e_h"), arrays):
            if not np.all(np.isfinite(arr) & (arr >= 0)):
                raise InvalidParameterError(f"{name} must be finite and >= 0")
        names = ("gamma_g", "gamma_h", "e_h", "p_g", "p_h", "skip", "transmits")
        for name, arr in zip(names, (*arrays, *link_terms(arrays[0], arrays[1], self.params))):
            object.__setattr__(self, name, arr)

    @property
    def frames(self) -> int:
        return self.gamma_g.shape[0]

    @property
    def users(self) -> int:
        return self.gamma_g.shape[1]

    def cached(self, key, compute):
        """`compute()` for `key`, run on the first call only and kept with
        the batch, so terms that several policies derive from it (the table
        lookups' channel states) are computed once per batch.  Not locked:
        a batch is walked by one thread at a time."""
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]


def _sample(params: SystemParams, users: int, keys: np.ndarray) -> FrameBatch:
    """A FrameBatch whose frame f draws what make_rng(*keys[f]) would, in a
    fixed order: user 1 grid gains, user 1 harvesting gains, user 2 grid
    gains, ..., then the shared arrivals, uniform on [0, E_m].

    `keys` is a (frames, 2) uint64 array of Philox key words.  One
    generator serves the call (never the module: concurrent sweeps sample
    at once); each frame sets its key with a zero counter and an empty
    buffer, the state of a freshly built generator, because Philox's draws
    depend on that state alone.  A frame's 2U exponential rows are one
    draw into its contiguous (U, 2, N) block, which fills them in the same
    order as one draw per row.  The draws are unit-scale and scaled once
    per array: numpy's exponential(mu) is mu * standard_exponential() and
    uniform(0, E_m) is 0 + E_m * random(), so every value is bit for bit
    the one the scaled draw would give.
    """
    if len(keys) == 0:
        raise InvalidParameterError("frames must be >= 1")
    n = params.N
    ex = np.empty((len(keys), users, 2, n))   # per user: grid gains, then harvesting gains
    eh = np.empty((len(keys), n))
    bitgen = np.random.Philox(key=keys[0])
    rng = np.random.Generator(bitgen)
    # plain ints: the setter reads the state item by item, and numpy
    # scalars make that its slowest part
    fresh = bitgen.state
    fresh["state"]["counter"] = fresh["state"]["counter"].tolist()
    fresh["buffer"] = fresh["buffer"].tolist()
    for key, gains, arrivals in zip(keys.tolist(), ex, eh):
        fresh["state"]["key"] = key
        bitgen.state = fresh
        rng.standard_exponential(out=gains)
        rng.random(out=arrivals)
    eh *= params.E_m
    return FrameBatch(params, ex[:, :, 0] * params.mu_G, ex[:, :, 1] * params.mu_H, eh)


def sample_trajectory(params: SystemParams, seed) -> FrameBatch:
    """One frame of one user's channel gains and arrivals, as a one-frame
    FrameBatch.

    `seed` is an int, keyed (seed,), or an (int, int) pair; the pair (s, f)
    gives frame f of `sample_trajectories(params, s, ...)`.
    """
    key = tuple(seed) if isinstance(seed, (tuple, list)) else (seed,)
    return _sample(params, 1, np.array([_key_words(key)], dtype=np.uint64))


def sample_trajectories(params: SystemParams, seed: int, frames: int,
                        users: int = 1) -> FrameBatch:
    """A batch of `frames` frames of `users` users' independent fading over
    one shared arrival stream.

    Frame f is keyed (seed, f): the first half of a 2n-frame batch is
    bit-identical to the n-frame batch, and disjoint workers can split the
    frame range without sharing generator state.  Each frame draws every
    user's gains before the arrivals, so the first user of a larger batch
    has a one-user batch's gains.
    """
    if not isinstance(users, (int, np.integer)) or users < 1:
        raise InvalidParameterError(f"users must be a positive integer, got {users!r}")
    keys = np.empty((max(frames, 0), 2), dtype=np.uint64)
    keys[:, 0] = _key_words((seed, 0))[0]
    keys[:, 1] = np.arange(len(keys))
    return _sample(params, users, keys)
