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

`simulate` runs its trials through one chunked engine (`run_trials`) on
stream contract STREAM_CONTRACT = 2.  The noise z is isotropic and
independent of message m's rotation R_m, so w = R_m^T z is N(0, sigma^2 I)
whatever the message; the engine draws w, the noise in the message's frame,
instead of z.  The help index and angle (closest base point to w), the decode
angle angle(b_t, b_t + w) and the noise energy |w|^2 then need no rotation.
R_m is applied only where a result lives in the channel frame: the
exhaustive decoder's y = R_m (b_t + w), from the candidate rotation stack,
and the diagnostics' x = R_m b_t and z = R_m w, summed per index.  Per chunk of
CHUNK_TRIALS trials the helper search is one tiled GEMM against the base
codebook.  Exhaustive decoding scores m' as (R_m' b_t) . y: on the grouped
route (grouped_route) against per-help-index codebooks C_t = {R_m' b_t : m'},
built from the stack once per run, one GEMM per help index present; else as
vec(R_m') . vec(y b_t^T), one tiled GEMM over the stack.  All go through
search.ScreenedSearch, which scores in float32 under a rigorous error
bound and rescans in float64 only the rows the bound cannot decide.  Each
trial keeps its own random streams, so the engine reproduces `run_trial`, the
per-trial reference implementation, trial for trial:

* trial i draws w from default_rng(derive_seed(noise_seed, i)), then
  (analytic route) two uniforms from the same generator: the error draw and
  the wrong-message draw.  When M - 1 exceeds 2^53, the values a uniform
  double resolves, the wrong message is instead drawn uniformly by rejection
  on rng.bytes from the same generator, after the two uniforms;
* message m's rotation comes from derive_seed(rotation_seed_base, m);
* the messages are one draw of ceil(message_bits/32) uint32 words per trial
  from default_rng(message_seed), equal to one rng.bytes call per trial.

The engine builds these generators a chunk at a time (codebook.derive_seeds
and codebook.generators), each bitwise equal to its default_rng; run_trial
keeps calling default_rng, so the replay checks one against the other.

Chunks are independent, so the engine runs them on up to `threads` threads,
an argument of run_trials and simulate resolved per call (None:
resolve_workers(), that is GAUSSHELP_WORKERS if non-zero, else the usable
CPUs; a sweep's worker processes pass 1), so no module holds a thread count.
The helper search's GEMMs and reductions release the GIL and overlap; the
per-trial generator loops hold it and do not, so a cell with a small helper
codebook (THREAD_MIN_WORK) runs on one thread.  Each chunk writes its own rows
of the columns; the calling thread takes the chunks' decisions in chunk order
and forms the diagnostics' rotations, x and z there, in the same order, so no
result depends on the thread count and the diagnostics' memory is the serial
loop's.
"""

from __future__ import annotations

import math
import os
import time
import warnings
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .capacity import ChannelParams, capacity_cognizant
from .codebook import (MAX_CODEBOOK_FLOATS, CodebookSizeError, HelperCodebook,
                       build_base_codebook, derive_seed, derive_seeds, generators)
from .converse import CorrelationSums, correlation_budget
from .geometry import (COS_CLAMP_TOL, achievable_rate_threshold, angle_between,
                       cap_ratio_exact, theta0)
from .results import SimSummary, TrialColumns, TrialRecord, wilson_interval
from .search import ScreenedSearch

# Largest message space scanned exhaustively when decoder="auto".
EXHAUSTIVE_LIMIT = 1 << 12
# Hard cap on exhaustive decoding regardless of mode.
EXHAUSTIVE_HARD_LIMIT = 1 << 24

# Trials per engine chunk.  Every trial keeps its own random streams, so the
# chunk size bounds memory without changing any result.
CHUNK_TRIALS = 128

_DECODERS = ("auto", "exhaustive", "analytic")

# Version of the per-trial random streams documented in the module docstring.
STREAM_CONTRACT = 2

# Bound on the CPUs gausshelp uses: sweep worker processes or engine threads.
WORKERS_ENV = "GAUSSHELP_WORKERS"

# Least helper-search work per trial, 2^helper_bits * n, for which run_trials
# runs its chunks on threads.  The search's GEMM and reductions release the
# GIL; below this size the per-trial loops that hold it dominate a chunk.  On
# a 2-vCPU host two threads measured up to 40% slower at n = 16 to 26 with
# R_h 0.5 (diagnostics or not) and at n = 8 and 10 on the exhaustive route
# with R_h 0.25, and the benchmark's n = 12 exhaustive cell ran 5% slower.
THREAD_MIN_WORK = 1 << 18


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
                      eps=None, trials=10000) -> SchemeConfig:
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


def grouped_route(cfg: SchemeConfig) -> bool:
    """Exhaustive decoding against one codebook per help index, not the rotation stack.

    The codebooks C_t = {R_m' b_t : m'}, t < H = 2^helper_bits, score each
    candidate n wide instead of n^2.  Taken when together they are no larger
    than the stack (H <= n) and building them, H * 2^message_bits * n^2
    flops, costs no more than scanning them, trials * 2^message_bits * n
    (H * n <= trials).  With fewer trials the build is not repaid: the stack
    scan measured faster there.
    """
    n, help_size = cfg.blocklength, 1 << cfg.helper_bits
    return exhaustive_route(cfg) and help_size <= n and help_size * n <= cfg.trials


def _analytic_error_probability(n: int, decode_angle, n_competitors: int):
    """P(some of n_competitors IID uniform sphere points beats the true codeword).

    decode_angle may be an array of angles.  The exponent N log1p(-c) is
    formed in log space, so N may exceed the float range.
    """
    c = cap_ratio_exact(n, decode_angle)
    with np.errstate(divide="ignore", over="ignore"):
        exponent = math.log(n_competitors) + np.log(-np.log1p(-c))
        return np.where(c >= 1.0, 1.0, -np.expm1(-np.exp(exponent)))


def run_trial(cfg: SchemeConfig, cb: HelperCodebook, m: int, trial_seed: int,
              rotations=None, return_vectors=False):
    """One transmission: sample noise, select help, transmit, decode.

    Deterministic given (cfg, cb, m, trial_seed).  The noise is drawn in the
    message's frame and rotated into the channel's, z = R_m w (stream
    contract 2).  `rotations` optionally carries the precomputed candidate
    rotations for the exhaustive decoder.
    """
    rng = np.random.default_rng(trial_seed)
    n = cfg.blocklength
    w = rng.standard_normal(n) * math.sqrt(cfg.channel.noise_var)

    rot = cb.rotation(m)
    z = rot @ w
    t, helper_angle = helper_select(cb, m, z, rotation=rot)
    x = transmit(cb, m, t, rotation=rot)
    y = x + z
    decode_angle = angle_between(x, y) if np.any(y) else 0.0

    n_messages = 1 << cfg.message_bits
    if exhaustive_route(cfg):
        decoded = decode(cb, y, t, range(n_messages), rotations=rotations)
    else:
        p_err = _analytic_error_probability(n, decode_angle, n_messages - 1)
        decoded = _wrong_message(rng, m, rng.random(), n_messages) if rng.random() < p_err else m

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


def _wrong_message(rng, m: int, u_wrong: float, n_messages: int) -> int:
    """A decision other than m, uniform over the n_messages - 1 others.

    u_wrong picks it while the others number at most 2^53, the values a
    uniform double resolves; beyond that it is drawn by rejection on rng.bytes.
    """
    others = n_messages - 1
    if others <= 1 << 53:
        wrong = int(u_wrong * others)
    else:
        bits = (others - 1).bit_length()
        while True:
            wrong = int.from_bytes(rng.bytes((bits + 7) // 8), "little") & ((1 << bits) - 1)
            if wrong < others:
                break
    return wrong + (wrong >= m)


def draw_messages(cfg: SchemeConfig) -> list[int]:
    """Equiprobable messages for each trial, reproducible from message_seed.

    One draw of ceil(message_bits/32) uint32 words per trial, little-endian,
    masked to message_bits: the stream a per-trial Generator.bytes would give,
    so message spaces wider than 64 bits work too.
    """
    rng = np.random.default_rng(cfg.message_seed)
    nwords = (cfg.message_bits + 31) // 32
    mask = (1 << cfg.message_bits) - 1
    words = rng.integers(0, 1 << 32, size=(cfg.trials, nwords), dtype=np.uint32)
    if nwords <= 2:
        shifts = np.arange(nwords, dtype=np.uint64) * np.uint64(32)
        joined = np.bitwise_or.reduce(words.astype(np.uint64) << shifts, axis=1)
        return (joined & np.uint64(mask)).tolist()
    return [int.from_bytes(row.astype("<u4").tobytes(), "little") & mask for row in words]


def candidate_rotations(cfg: SchemeConfig, cb: HelperCodebook):
    """Stacked per-message rotations when the exhaustive decoder will be used.

    Refused before anything is allocated when the floats the exhaustive
    decoder holds exceed the codebook size cap (MAX_CODEBOOK_FLOATS): the
    stack, 2^message_bits * n^2, and on the grouped route (grouped_route) the
    per-help-index codebooks built from it, 2^message_bits * n * 2^helper_bits.
    """
    if not exhaustive_route(cfg):
        return None
    n_messages = 1 << cfg.message_bits
    if n_messages > EXHAUSTIVE_HARD_LIMIT:
        raise ValueError(f"message space of {n_messages} is too large to scan")
    n, grouped = cfg.blocklength, grouped_route(cfg)
    if n_messages * n * (n + (1 << cfg.helper_bits) * grouped) > MAX_CODEBOOK_FLOATS:
        raise CodebookSizeError(
            f"rotation stack of {n_messages} {n}x{n} matrices"
            f"{' with its per-help-index codebooks' if grouped else ''} exceeds the size cap"
        )
    stack = np.empty((n_messages, n, n))
    for lo in range(0, n_messages, CHUNK_TRIALS):
        hi = min(lo + CHUNK_TRIALS, n_messages)
        stack[lo:hi] = cb.rotations(range(lo, hi))
    return stack


def _row_angles(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """angle_between for each row pair; a zero row of y gives 0.0, as in run_trial."""
    ny = np.linalg.norm(y, axis=1)
    cos = np.divide(np.einsum("ki,ki->k", x, y), np.linalg.norm(x, axis=1) * ny,
                    out=np.ones(len(y)), where=ny > 0)
    if np.any(np.abs(cos) > 1.0 + COS_CLAMP_TOL):
        warnings.warn("a cosine exceeds [-1, 1] beyond round-off slack; clamped", RuntimeWarning)
    return np.arccos(np.clip(cos, -1.0, 1.0))


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def resolve_workers() -> int:
    """CPUs gausshelp may use: GAUSSHELP_WORKERS if non-zero, else the usable CPUs."""
    raw = os.environ.get(WORKERS_ENV, "0")  # 0: the default
    if not (raw.isascii() and raw.isdigit()):
        raise ValueError(f"{WORKERS_ENV} must be an integer >= 0, got {raw!r}")
    return int(raw) or _usable_cpus()


def _in_order(fn, items, threads: int, take) -> None:
    """take(fn(item)) for every item, in order, with fn on up to `threads` threads.

    At most threads + 1 calls are in flight, so the results waiting to be
    taken stay bounded.  The pool lives for this call only (a module-level
    pool would not survive the fork into a sweep worker); with one thread or
    one item none is built.  An exception in fn cancels the calls not yet started and
    propagates once the running ones have finished.
    """
    if threads < 2 or len(items) < 2:
        for item in items:
            take(fn(item))
        return
    pool = ThreadPoolExecutor(min(threads, len(items)))
    try:
        window = deque()
        for item in items:
            window.append(pool.submit(fn, item))
            if len(window) > threads:
                take(window.popleft().result())
        for future in window:
            take(future.result())
    finally:
        pool.shutdown(cancel_futures=True)


def run_trials(cfg: SchemeConfig, cb: HelperCodebook, messages, rotations,
               correlations: CorrelationSums | None = None, threads=None) -> TrialColumns:
    """Trial i sends messages[i]; the batched equivalent of run_trial per trial.

    Runs CHUNK_TRIALS trials at a time on the per-trial streams documented in
    the module docstring.  `rotations` is candidate_rotations(cfg, cb).  Each
    chunk's inputs and noises, if wanted, are added to `correlations`, not kept.
    Chunks run on `threads` threads (None: resolve_workers()) when the helper
    search is large enough to pay (THREAD_MIN_WORK); each writes only its own
    rows.  The calling thread takes their decisions in chunk order and, for
    diagnostics, forms their rotations and adds x and z to the sums in that
    order, so every result is that of the serial loop, bitwise, and one stack
    of rotations is alive at a time.
    """
    messages = list(messages)
    trials, n = len(messages), cfg.blocklength
    n_messages = 1 << cfg.message_bits
    exhaustive, grouped = exhaustive_route(cfg), grouped_route(cfg)
    sigma = math.sqrt(cfg.channel.noise_var)
    scale = math.sqrt(n * cb.power)

    help_index = np.empty(trials, dtype=np.int64)
    helper_angle, decode_angle, noise_energy = np.empty(trials), np.empty(trials), np.empty(trials)
    decoded = []
    helper = ScreenedSearch(cb.base_points)
    if grouped:
        # C[t, m'] = R_m' b_t, built once before any chunk runs.  Laid out as
        # (n, H, M), so each help index's GEMM reads rows M long.
        codebooks = np.matmul(cb.base_points, rotations.transpose(1, 2, 0))
        candidates = ScreenedSearch(codebooks.transpose(1, 2, 0))
    elif exhaustive:
        candidates = ScreenedSearch(rotations.reshape(n_messages, n * n))

    def chunk(lo):
        """Fill rows lo:hi of the columns; return their messages, decisions, b_t and w."""
        hi = min(lo + CHUNK_TRIALS, trials)
        ms = messages[lo:hi]
        w = np.empty((hi - lo, n))
        u = np.empty((hi - lo, 2))
        rngs = generators(derive_seeds(cfg.noise_seed, range(lo, hi)))
        for j, rng in enumerate(rngs):
            rng.standard_normal(out=w[j])
            if not exhaustive:
                u[j] = rng.random(2)
        w *= sigma

        # Everything below is in message m's frame: the base codebook and w.
        t, best = helper.argmax(w)
        noise_energy[lo:hi] = np.einsum("ki,ki->k", w, w)
        nw = np.sqrt(noise_energy[lo:hi])
        cos = np.divide(best, scale * nw, out=np.ones(len(nw)), where=nw > 0)
        helper_angle[lo:hi] = np.arccos(np.clip(cos, -1.0, 1.0))
        help_index[lo:hi] = t
        bt = cb.base_points[t]
        decode_angle[lo:hi] = _row_angles(bt, bt + w)

        if exhaustive:
            # Receive y = R_m (b_t + w), R_m from the candidate stack; the score
            # of m' is (R_m' b_t) . y, read from trial i's own codebook C[t_i]
            # on the grouped route, else as vec(R_m') . vec(y b_t^T).
            y = np.einsum("kij,kj->ki", rotations[ms], bt + w)
            if grouped:
                found, _ = candidates.argmax(y, t)
            else:
                found, _ = candidates.argmax((y[:, :, None] * bt[:, None, :]).reshape(hi - lo, n * n))
            found = found.tolist()
        else:
            p_err = _analytic_error_probability(n, decode_angle[lo:hi], n_messages - 1)
            found = [_wrong_message(rng, m, u_wrong, n_messages) if u_err < p else m
                     for rng, m, (u_err, u_wrong), p in zip(rngs, ms, u.tolist(), p_err.tolist())]
        return ms, found, bt, w

    def take(result):
        ms, found, bt, w = result
        decoded.extend(found)
        if correlations is not None:
            # The diagnostics' x = R_m b_t and z = R_m w, in the channel frame.
            # Their rotations are formed here, a chunk at a time in chunk order,
            # so a run holds one stack of them, as the serial loop does.
            rot = rotations[ms] if exhaustive else cb.rotations(ms)
            correlations.add(np.einsum("kij,kj->ki", rot, bt), np.einsum("kij,kj->ki", rot, w))

    threads = threads or resolve_workers()
    _in_order(chunk, range(0, trials, CHUNK_TRIALS),
              threads if (1 << cfg.helper_bits) * n >= THREAD_MIN_WORK else 1, take)

    return TrialColumns(
        message=messages,
        help_index=help_index,
        helper_angle=helper_angle,
        decode_angle=decode_angle,
        noise_energy=noise_energy,
        covering_miss=helper_angle > cfg.theta0_rad,
        decoded=decoded,
        error=np.fromiter((d != m for d, m in zip(decoded, messages)), bool, trials),
    )


def summarize(cfg: SchemeConfig, cols: TrialColumns, wall_time_s, scheme="cognizant",
              corr_profile=None, keep_records=False) -> SimSummary:
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
        corr_sum=float(np.sum(corr_profile.per_index_rho ** 2)) if corr_profile else math.nan,
        corr_budget=correlation_budget(cfg.blocklength, rh),
        capacity_bits=capacity_cognizant(ch, rh),
        threshold_bits=threshold,
        seed=cfg.base_seed if cfg.base_seed is not None else cfg.codebook_seed,
        wall_time_s=wall_time_s,
        records=cols.records() if keep_records else None,
        corr_profile=corr_profile,
    )


def simulate(cfg: SchemeConfig, keep_records=False, diagnostics=False,
             messages=None, threads=None) -> SimSummary:
    """Run cfg.trials independent transmissions and aggregate the outcome.

    `messages` overrides the equiprobable message draw (used to replay a
    specific message sequence); `diagnostics` additionally estimates the
    per-index input/noise correlations across trials, from running sums that
    take O(n) memory whatever the trial count.  `threads` bounds the engine's
    threads (None: resolve_workers()); no result depends on it.
    """
    t_start = time.perf_counter()
    cb = build_codebook(cfg)
    rotations = candidate_rotations(cfg, cb)
    if messages is None:
        messages = draw_messages(cfg)
    elif len(messages) != cfg.trials:
        raise ValueError(f"need {cfg.trials} messages, got {len(messages)}")

    sums = CorrelationSums() if diagnostics else None
    cols = run_trials(cfg, cb, messages, rotations, sums, threads)
    return summarize(
        cfg, cols, time.perf_counter() - t_start,
        corr_profile=sums.profile() if diagnostics else None, keep_records=keep_records,
    )
