"""The message-cognizant coding scheme: help selection, transmission, decoding.

The helper picks the codeword of the message's rotated codebook closest in
angle to the observed noise (strictly stronger than "within theta0", and well
defined when the covering property fails at finite blocklength).  The decoder
is minimum Euclidean distance over the helped sub-codebook, which for
equal-norm codewords is maximum inner product.

For message spaces too large to scan, the simulator draws the decoding error
from its exact conditional distribution: codewords of other messages are
independent rotations of the same base point, hence IID uniform on the
sphere, so given the decode angle alpha the probability that some competitor
lands closer is 1 - (1 - c)^(M-1) with c the cap ratio at alpha.  The two
decode routes are cross-checked against each other in the test suite.

`simulate` runs its trials through one chunked engine (`run_trials`): per
chunk of CHUNK_TRIALS trials it stacks the rotations (one batched QR), scores
every trial's noise against the base codebook with one tiled GEMM, and
decodes exhaustively with one tiled GEMM over the rotation stack.  Each trial
keeps its own random streams, so the engine reproduces `run_trial`, the
per-trial reference implementation, trial for trial:

* trial i draws its noise from default_rng(derive_seed(noise_seed, i)), then
  (analytic route) two uniforms from the same generator: the error draw and
  the wrong-message draw;
* message m's rotation comes from derive_seed(rotation_seed_base, m).
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass

import numpy as np

from .capacity import ChannelParams, capacity_cognizant
from .codebook import (MAX_CODEBOOK_FLOATS, CodebookSizeError, HelperCodebook,
                       build_base_codebook, derive_seed)
from .geometry import (COS_CLAMP_TOL, achievable_rate_threshold, angle_between,
                       cap_ratio_exact, theta0)
from .results import SimSummary, TrialColumns, TrialRecord, wilson_interval

# Largest message space scanned exhaustively when decoder="auto".
EXHAUSTIVE_LIMIT = 1 << 12
# Hard cap on exhaustive decoding regardless of mode.
EXHAUSTIVE_HARD_LIMIT = 1 << 24

# Trials per engine chunk.  Every trial keeps its own random streams, so the
# chunk size bounds memory without changing any result.
CHUNK_TRIALS = 128
# Floats in one score tile (helper cosines or decode scores), about 2 MB.
TILE_FLOATS = 1 << 18

_DECODERS = ("auto", "exhaustive", "analytic")


@dataclass(frozen=True)
class SchemeConfig:
    """One experiment's full specification for the cognizant scheme."""

    blocklength: int
    message_bits: int
    helper_bits: int
    eps: float
    channel: ChannelParams
    codebook_seed: int
    noise_seed: int
    message_seed: int
    trials: int = 10000
    decoder: str = "auto"
    base_seed: int | None = None  # echoed into summaries/CSV when set

    def __post_init__(self):
        if self.blocklength < 2:
            raise ValueError(f"blocklength must be at least 2, got {self.blocklength}")
        if self.message_bits < 1:
            raise ValueError(f"message_bits must be at least 1, got {self.message_bits}")
        if self.helper_bits < 0:
            raise ValueError(f"helper_bits must be nonnegative, got {self.helper_bits}")
        if self.trials < 1:
            raise ValueError(f"trials must be at least 1, got {self.trials}")
        if self.decoder not in _DECODERS:
            raise ValueError(f"decoder must be one of {_DECODERS}, got {self.decoder!r}")
        if self.helper_bits > 0:
            if not 0.0 < self.eps < self.helper_bits / self.blocklength:
                raise ValueError(
                    f"requires 0 < eps < helper_bits/blocklength, got eps={self.eps!r}"
                )
        elif self.eps != 0.0:
            raise ValueError("eps must be 0 when there is no helper")

    @property
    def rate(self) -> float:
        return self.message_bits / self.blocklength

    @property
    def helper_rate(self) -> float:
        return self.helper_bits / self.blocklength

    @property
    def theta0_rad(self) -> float:
        # With no helper every alignment counts as covered.
        if self.helper_bits == 0:
            return math.pi
        return theta0(self.helper_rate, self.eps)


def config_from_rates(n, rate_bits, helper_rate_bits, channel, seed,
                      eps=None, trials=10000, decoder="auto") -> SchemeConfig:
    """Convenience constructor: integer bit counts and sub-seeds from one base seed."""
    if eps is None:
        eps = 0.1 * helper_rate_bits
    return SchemeConfig(
        blocklength=n,
        message_bits=max(1, math.ceil(n * rate_bits)),
        helper_bits=math.ceil(n * helper_rate_bits),
        eps=eps,
        channel=channel,
        codebook_seed=derive_seed(seed, 1),
        noise_seed=derive_seed(seed, 2),
        message_seed=derive_seed(seed, 3),
        trials=trials,
        decoder=decoder,
        base_seed=seed,
    )


def build_codebook(cfg: SchemeConfig) -> HelperCodebook:
    return build_base_codebook(
        cfg.blocklength, cfg.channel, cfg.helper_rate, cfg.eps, cfg.codebook_seed
    )


def helper_select(cb: HelperCodebook, m: int, z, rotation=None):
    """Index (and angle) of the codeword of C(m) closest in angle to the noise z.

    Rotations preserve angles, so z is rotated into the base frame instead of
    rotating the whole codebook.  Ties break to the smallest index; the
    all-zero noise vector maps to (0, 0.0) by convention.
    """
    z = np.asarray(z, dtype=float)
    if z.shape != (cb.blocklength,):
        raise ValueError(f"noise vector must have dimension {cb.blocklength}, got shape {z.shape}")
    nz = float(np.linalg.norm(z))
    if nz == 0.0:
        return 0, 0.0
    rot = cb.rotation(m) if rotation is None else rotation
    zb = rot.T @ z
    scale = math.sqrt(cb.blocklength * cb.power) * nz
    cosines = (cb.base_points @ zb) / scale
    t = int(np.argmax(cosines))
    return t, math.acos(min(1.0, max(-1.0, float(cosines[t]))))


def transmit(cb: HelperCodebook, m: int, t: int, rotation=None) -> np.ndarray:
    """Codeword x(m, t): base point t under message m's rotation."""
    if not 0 <= t < cb.help_size:
        raise ValueError(f"help index {t} out of range for codebook of size {cb.help_size}")
    rot = cb.rotation(m) if rotation is None else rotation
    return rot @ cb.base_points[t]


def decode(cb: HelperCodebook, y, t: int, message_space: range, rotations=None) -> int:
    """Exhaustive minimum-distance decoding of y over {x(m', t) : m' in message_space}.

    All candidates share norm sqrt(n*P), so this is implemented as maximum
    inner product.  Ties break to the smallest message.
    """
    y = np.asarray(y, dtype=float)
    if len(message_space) == 0:
        raise ValueError("empty message space")
    if len(message_space) > EXHAUSTIVE_HARD_LIMIT:
        raise ValueError(f"message space of {len(message_space)} is too large to scan")
    if not 0 <= t < cb.help_size:
        raise ValueError(f"help index {t} out of range for codebook of size {cb.help_size}")
    if rotations is None:
        rotations = np.stack([cb.rotation(m) for m in message_space])
    candidates = rotations @ cb.base_points[t]
    scores = candidates @ y
    return message_space[int(np.argmax(scores))]


def exhaustive_route(cfg: SchemeConfig) -> bool:
    """The decode-route rule: scan every message, or draw from the analytic law."""
    return cfg.decoder == "exhaustive" or (
        cfg.decoder == "auto" and (1 << cfg.message_bits) <= EXHAUSTIVE_LIMIT
    )


def _analytic_error_probability(n: int, decode_angle, n_competitors: int):
    """P(some of n_competitors IID uniform sphere points beats the true codeword).

    decode_angle may be an array of angles.
    """
    c = cap_ratio_exact(n, decode_angle)
    with np.errstate(divide="ignore"):
        return np.where(c >= 1.0, 1.0, -np.expm1(float(n_competitors) * np.log1p(-c)))


def run_trial(cfg: SchemeConfig, cb: HelperCodebook, m: int, trial_seed: int,
              rotations=None, return_vectors=False):
    """One transmission: sample noise, select help, transmit, decode.

    Deterministic given (cfg, cb, m, trial_seed).  `rotations` optionally
    carries the precomputed candidate rotations for the exhaustive decoder.
    """
    rng = np.random.default_rng(trial_seed)
    n = cfg.blocklength
    z = rng.standard_normal(n) * math.sqrt(cfg.channel.noise_var)

    rot = cb.rotation(m)
    t, helper_angle = helper_select(cb, m, z, rotation=rot)
    x = transmit(cb, m, t, rotation=rot)
    y = x + z
    decode_angle = angle_between(x, y) if np.any(y) else 0.0

    n_messages = 1 << cfg.message_bits
    if exhaustive_route(cfg):
        decoded = decode(cb, y, t, range(n_messages), rotations=rotations)
    else:
        p_err = _analytic_error_probability(n, decode_angle, n_messages - 1)
        if rng.random() < p_err:
            wrong = int(rng.random() * (n_messages - 1))
            decoded = wrong + (1 if wrong >= m else 0)
        else:
            decoded = m

    record = TrialRecord(
        message=m,
        help_index=t,
        helper_angle=helper_angle,
        decode_angle=decode_angle,
        noise_energy=float(z @ z),
        covering_miss=helper_angle > cfg.theta0_rad,
        decoded=decoded,
        error=decoded != m,
    )
    if return_vectors:
        return record, x, z
    return record


def draw_messages(cfg: SchemeConfig) -> list[int]:
    """Equiprobable messages for each trial, reproducible from message_seed.

    Byte-based so message spaces wider than 64 bits work too.
    """
    rng = np.random.default_rng(cfg.message_seed)
    nbytes = (cfg.message_bits + 7) // 8
    mask = (1 << cfg.message_bits) - 1
    return [int.from_bytes(rng.bytes(nbytes), "little") & mask for _ in range(cfg.trials)]


def candidate_rotations(cfg: SchemeConfig, cb: HelperCodebook):
    """Stacked per-message rotations when the exhaustive decoder will be used.

    The stack is refused before it is allocated when it would exceed the
    codebook size cap (MAX_CODEBOOK_FLOATS).
    """
    if not exhaustive_route(cfg):
        return None
    n_messages = 1 << cfg.message_bits
    if n_messages > EXHAUSTIVE_HARD_LIMIT:
        raise ValueError(f"message space of {n_messages} is too large to scan")
    n = cfg.blocklength
    if n_messages * n * n > MAX_CODEBOOK_FLOATS:
        raise CodebookSizeError(
            f"rotation stack of {n_messages} {n}x{n} matrices exceeds the size cap"
        )
    stack = np.empty((n_messages, n, n))
    for lo in range(0, n_messages, CHUNK_TRIALS):
        hi = min(lo + CHUNK_TRIALS, n_messages)
        stack[lo:hi] = cb.rotations(range(lo, hi))
    return stack


def _tiled_argmax(a: np.ndarray, b: np.ndarray):
    """Row-wise argmax and max of a @ b.T, computed over tiles of b's rows.

    A tile holds at most TILE_FLOATS scores.  Ties break to the smallest
    index: first occurrence within a tile, strict improvement across tiles.
    """
    k = a.shape[0]
    tile = max(1, TILE_FLOATS // k)
    rows = np.arange(k)
    best_index = np.zeros(k, dtype=np.int64)
    best = np.full(k, -np.inf)
    for lo in range(0, b.shape[0], tile):
        scores = a @ b[lo:lo + tile].T
        index = scores.argmax(axis=1)
        value = scores[rows, index]
        better = value > best
        best_index[better] = index[better] + lo
        best[better] = value[better]
    return best_index, best


def _row_angles(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """angle_between for each row pair; a zero row of y gives 0.0, as in run_trial."""
    ny = np.linalg.norm(y, axis=1)
    cos = np.divide(np.einsum("ki,ki->k", x, y), np.linalg.norm(x, axis=1) * ny,
                    out=np.ones(len(y)), where=ny > 0)
    if np.any(np.abs(cos) > 1.0 + COS_CLAMP_TOL):
        warnings.warn("a cosine exceeds [-1, 1] beyond round-off slack; clamped", RuntimeWarning)
    return np.arccos(np.clip(cos, -1.0, 1.0))


def run_trials(cfg: SchemeConfig, cb: HelperCodebook, messages, rotations,
               vectors=False) -> TrialColumns:
    """Trial i sends messages[i]; the batched equivalent of run_trial per trial.

    Runs CHUNK_TRIALS trials at a time on the per-trial streams documented in
    the module docstring.  `rotations` is candidate_rotations(cfg, cb).  With
    `vectors`, the columns also carry the stacked input and noise vectors.
    """
    messages = list(messages)
    trials, n = len(messages), cfg.blocklength
    n_messages = 1 << cfg.message_bits
    exhaustive = exhaustive_route(cfg)
    sigma = math.sqrt(cfg.channel.noise_var)
    scale = math.sqrt(n * cb.power)

    help_index = np.empty(trials, dtype=np.int64)
    helper_angle, decode_angle, noise_energy = np.empty(trials), np.empty(trials), np.empty(trials)
    decoded = []
    xs = np.empty((trials, n)) if vectors else None
    zs = np.empty((trials, n)) if vectors else None

    for lo in range(0, trials, CHUNK_TRIALS):
        hi = min(lo + CHUNK_TRIALS, trials)
        ms = messages[lo:hi]
        z = np.empty((hi - lo, n))
        u = np.empty((hi - lo, 2))
        for j in range(hi - lo):
            rng = np.random.default_rng(derive_seed(cfg.noise_seed, lo + j))
            rng.standard_normal(out=z[j])
            if not exhaustive:
                u[j] = rng.random(2)
        z *= sigma
        rot = rotations[ms] if exhaustive else cb.rotations(ms)

        # Helper: the base point closest in angle to R^T z.
        t, best = _tiled_argmax(np.einsum("kji,kj->ki", rot, z), cb.base_points)
        nz = np.linalg.norm(z, axis=1)
        cos = np.divide(best, scale * nz, out=np.ones(len(nz)), where=nz > 0)
        helper_angle[lo:hi] = np.arccos(np.clip(cos, -1.0, 1.0))
        help_index[lo:hi] = t

        # Transmit x = R b_t; receive y = x + z.
        bt = cb.base_points[t]
        x = np.einsum("kij,kj->ki", rot, bt)
        y = x + z
        decode_angle[lo:hi] = _row_angles(x, y)
        noise_energy[lo:hi] = np.einsum("ki,ki->k", z, z)
        if vectors:
            xs[lo:hi], zs[lo:hi] = x, z

        if exhaustive:
            # Score of m' is (R_m' b_t) . y = vec(R_m') . vec(y b_t^T).
            w = (y[:, :, None] * bt[:, None, :]).reshape(hi - lo, n * n)
            found, _ = _tiled_argmax(w, rotations.reshape(n_messages, n * n))
            decoded.extend(found.tolist())
        else:
            p_err = _analytic_error_probability(n, decode_angle[lo:hi], n_messages - 1)
            for m, (u_err, u_wrong), p in zip(ms, u.tolist(), p_err.tolist()):
                if u_err < p:
                    wrong = int(u_wrong * (n_messages - 1))
                    decoded.append(wrong + (wrong >= m))
                else:
                    decoded.append(m)

    return TrialColumns(
        message=messages,
        help_index=help_index,
        helper_angle=helper_angle,
        decode_angle=decode_angle,
        noise_energy=noise_energy,
        covering_miss=helper_angle > cfg.theta0_rad,
        decoded=decoded,
        error=np.fromiter((d != m for d, m in zip(decoded, messages)), bool, trials),
        x=xs,
        z=zs,
    )


def summarize(cfg: SchemeConfig, cols: TrialColumns, wall_time_s, scheme="cognizant",
              corr_sum=math.nan, corr_profile=None, keep_records=False,
              boundary_events=0) -> SimSummary:
    """Aggregate trial columns into a SimSummary (exact integer accounting)."""
    trials = len(cols.error)
    errors = int(np.count_nonzero(cols.error))
    misses = int(np.count_nonzero(cols.covering_miss))
    covered = trials - misses
    errors_covered = int(np.count_nonzero(cols.error & ~cols.covering_miss))
    lo, hi = wilson_interval(errors, trials)
    ch, rh = cfg.channel, cfg.helper_rate
    try:
        threshold = achievable_rate_threshold(ch, rh, cfg.eps)
    except ValueError:
        threshold = math.nan
    return SimSummary(
        scheme=scheme,
        blocklength=cfg.blocklength,
        rate_bits=cfg.rate,
        helper_rate_bits=rh,
        snr=ch.snr,
        eps=cfg.eps,
        trials=trials,
        errors=errors,
        covering_misses=misses,
        err_rate=errors / trials,
        err_rate_given_covered=errors_covered / covered if covered else math.nan,
        ci_low=lo,
        ci_high=hi,
        mean_helper_angle=float(np.mean(cols.helper_angle)),
        mean_decode_angle=float(np.mean(cols.decode_angle)),
        corr_sum=corr_sum,
        corr_budget=cfg.blocklength * (1.0 - 2.0 ** (-2.0 * rh)),
        capacity_bits=capacity_cognizant(ch, rh),
        threshold_bits=threshold,
        seed=cfg.base_seed if cfg.base_seed is not None else cfg.codebook_seed,
        wall_time_s=wall_time_s,
        boundary_events=boundary_events,
        records=cols.records() if keep_records else None,
        corr_profile=corr_profile,
    )


def simulate(cfg: SchemeConfig, keep_records=False, diagnostics=False,
             messages=None) -> SimSummary:
    """Run cfg.trials independent transmissions and aggregate the outcome.

    `messages` overrides the equiprobable message draw (used to replay a
    specific message sequence); `diagnostics` additionally estimates the
    per-index input/noise correlations across trials.
    """
    t_start = time.perf_counter()
    cb = build_codebook(cfg)
    rotations = candidate_rotations(cfg, cb)
    if messages is None:
        messages = draw_messages(cfg)
    elif len(messages) != cfg.trials:
        raise ValueError(f"need {cfg.trials} messages, got {len(messages)}")

    cols = run_trials(cfg, cb, messages, rotations, vectors=diagnostics)

    corr_sum = math.nan
    profile = None
    if diagnostics:
        from .converse import empirical_correlations

        profile = empirical_correlations(list(zip(cols.x, cols.z)))
        corr_sum = float(np.sum(profile.per_index_rho ** 2))

    return summarize(
        cfg, cols, time.perf_counter() - t_start,
        corr_sum=corr_sum, corr_profile=profile, keep_records=keep_records,
    )
