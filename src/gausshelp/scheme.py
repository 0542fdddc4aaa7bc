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

`simulate` runs its trials through one engine (`run_trials`).  The
noise z is isotropic and independent of message m's rotation R_m, so the
engine draws w = R_m^T z ~ N(0, sigma^2 I), the noise in the message's frame:
the help index, the decode angle angle(b_t, b_t + w) and |w|^2 need no
rotation.  R_m is applied only for the exhaustive decoder's y = R_m (b_t + w)
and the diagnostics' x = R_m b_t and z = R_m w; off the candidate stack, R_m
is applied as its Householder reflectors (HelperCodebook.rotate), never
formed.  The helper and exhaustive searches go through search.ScreenedSearch
(`plan` picks the decode route and sizes the run).

A chunk, CHUNK_TRIALS trials, is the unit of drawing (the contract below); a
batch of RunPlan.batch consecutive chunks is the unit of compute, which
`plan` picks (_batch_chunks) and the contract leaves out: no row's result
depends on the rows computed with it, so every result is the same at any
batch size.  Batches run on up to `threads` threads, and no result depends
on how many.

Stream contract STREAM_CONTRACT = 5, each stream drawn in the order given:

* config_from_rates derives codebook_seed, noise_seed and message_seed as
  derive_seed(seed, 1 | 2 | 3); a sweep cell's seed is derive_seed folded
  over its grid coordinates (i_snr, i_rh, i_n, i_frac) from the sweep's;
* the base codebook is one (2^helper_bits, n) standard normal block from
  default_rng(derive_seed(codebook_seed, 0)), each row scaled to norm
  sqrt(n P), and rotation_seed_base = derive_seed(codebook_seed, 1);
* engine chunk c (the k <= CHUNK_TRIALS trials from c * CHUNK_TRIALS on)
  draws from default_rng(derive_seed(noise_seed, c)): a (k, n) standard
  normal block scaled by sigma (row j: trial j's w); on the analytic route a
  (k, 2) uniform block (row j: the error draw and the wrong-message draw);
  then, when M - 1 exceeds 2^53 (the values a uniform double resolves), the
  wrong messages of the erring trials in row order, by rejection on
  rng.bytes.  So CHUNK_TRIALS is part of the contract; a batch draws each
  of its chunks' streams from that chunk's generator, in chunk order;
* message m's rotation R_m is Stewart's product of reflectors
  (codebook.haar_rotations).  With s = derive_seed(rotation_seed_base, m),
  normal j is ndtri(((derive_seed(s, j) >> 12) + 1/2) * 2^-52), and x_k is
  normals k(k-1)/2 to k(k+1)/2 - 1 (k = 1..n, n(n+1)/2 in all).  With
  s_k = sign(x_k[0]), 0 counted positive, u_k = x_k + s_k |x_k| e_1 and
  H_k = I - u_k u_k^T / (|x_k| (|x_k| + |x_k[0]|)): Q_1 = s_1,
  Q_k = H_k diag(-s_k, Q_{k-1}), and R_m = Q_n;
* the messages are one draw of ceil(message_bits/32) uint32 words per trial
  from default_rng(message_seed), equal to one rng.bytes call per trial.

`run_trial`, the per-trial reference, takes one trial's draws, so a replay
that rebuilds each chunk's draws from the contract reproduces the engine
trial for trial.
"""

from __future__ import annotations

import math
import os
import time
import warnings
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from decimal import Decimal

import numpy as np

from . import search
from .capacity import ChannelParams, capacity_cognizant
from .codebook import (MAX_CODEBOOK_FLOATS, CodebookSizeError, HelperCodebook,
                       build_base_codebook, derive_seed, reflector_slice)
from .converse import CorrelationSums, correlation_budget
from .geometry import (COS_CLAMP_TOL, achievable_rate_threshold, angle_between,
                       cap_ratio_exact, log_cap_ratio, theta0)
from .results import SimSummary, TrialColumns, TrialRecord, wilson_interval

# Largest message space scanned exhaustively; larger ones take the analytic law.
EXHAUSTIVE_LIMIT = 1 << 12

# Trials per engine chunk.  Each chunk draws from its own noise generator, so
# the chunk size is part of the stream contract.
CHUNK_TRIALS = 128

# Float64 (k, n) blocks a chunk of k trials holds at its peak: w, b_t, b_t + w
# and the search's copy of its query.  On the stack scan they are (k, n^2):
# the chunk's rotations, its query and the search's copies of it (traced peak
# 4.0 k n^2 at n = 96 and 160).  The grouped scan also holds the chunk's
# rotations, (k, n, n) (traced 1.06 k n^2 in all at n = 96).
CHUNK_BLOCKS = 4

# A batch (_batch_chunks) keeps its search tiles at least BATCH_MIN_COLUMNS
# codebook rows wide, or the whole codebook: argmax costs about 50 ns more
# per tile row, a tenth of a 512-score row's scan.  Measured at B = 1 to 16
# on the criterion-5 cells (README's batch table), 2^16 helper points lost
# 8% at B = 8 (256 columns) and 2^12 points 27% at B = 16 (128 columns),
# while 2^8 points gained up to B = 16.  A run keeps at least MIN_BATCHES
# batches, so the pool has items to share and a run of fewer than
# 2 MIN_BATCHES chunks stores what one chunk does per item.
BATCH_MIN_COLUMNS = 512
MIN_BATCHES = 16

# Version of the random streams documented in the module docstring.
STREAM_CONTRACT = 5

# Bound on the CPUs gausshelp uses: sweep worker processes or engine threads.
WORKERS_ENV = "GAUSSHELP_WORKERS"

# Least helper search per trial, 2^helper_bits * n (plan), for which
# run_trials runs its chunks on threads.  The search's GEMM releases the GIL;
# per-trial decisions, the diagnostics' narrow reflector steps (two vectors
# per row, not the candidate stack's n x n matrices) and hand-offs hold it,
# so the diagnostics' n^3 stays out of the gate.  On a 2-vCPU host (medians of
# 7 interleaved runs, us per trial, one thread -> two), cells of 2^14.3 to
# 2^15.3 lost or broke even (n = 16 with 2^11 helper points 10.6 -> 10.8,
# n = 20 with 2^10 8.3 -> 10.5) and cells of 2^16 and more gained (n = 16
# with 2^12 13.3 -> 12.9; criterion-5 n = 24 17.4 -> 16.3); cells that only
# the diagnostics' n^3 lifted past 2^16 lost (README).
THREAD_MIN_WORK = 1 << 16


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
    return build_base_codebook(cfg.blocklength, cfg.channel, cfg.helper_bits, cfg.codebook_seed)


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
    if not 0 <= t < cb.help_size:
        raise ValueError(f"help index {t} out of range for codebook of size {cb.help_size}")
    if rotations is None:
        rotations = np.stack([cb.rotation(m) for m in message_space])
    candidates = rotations @ cb.base_points[t]
    scores = candidates @ y
    return message_space[int(np.argmax(scores))]


@dataclass(frozen=True)
class RunPlan:
    """How a run of one config goes, decided from the config alone by `plan`."""

    route: str  # "analytic", "grouped" or "stack"
    storage: tuple  # (64-bit words, what) per store, checked in order against MAX_CODEBOOK_FLOATS
    work: int  # estimated work in flops-like units; a sweep runs the largest cell first
    threads: int  # the engine's threads: 1 unless a trial's helper search passes THREAD_MIN_WORK
    batch: int  # stream chunks per engine item (_batch_chunks)

    def admit(self) -> RunPlan:
        """This plan, unless a store outgrows the size cap: then CodebookSizeError."""
        for words, what in self.storage:
            if words > MAX_CODEBOOK_FLOATS:
                raise CodebookSizeError(f"{what} the size cap")
        return self


def _count(value: int) -> str:
    """An integer for a message: in decimal below 10^12, else to 3 significant digits."""
    return str(value) if value < 10**12 else f"{Decimal(value):.3g}"


def _batch_chunks(width: int, searched: int, chunks: int) -> int:
    """Stream chunks one engine item computes together (a batch) in a run of `chunks`.

    A batch pays a chunk's fixed numpy cost once for its B chunks, but its
    searches score its B CHUNK_TRIALS rows against tiles of TILE_FLOATS /
    (B CHUNK_TRIALS) codebook rows, and narrow tiles cost more per score.
    So the batch's rows, times the larger of its query's `width` (n, or n^2
    on the stack scan) and min(searched, BATCH_MIN_COLUMNS), for the
    largest codebook of `searched` rows it scans, stay within one tile; and
    a run keeps at least MIN_BATCHES batches.
    """
    per_row = max(width, min(searched, BATCH_MIN_COLUMNS))
    return max(1, min(chunks // MIN_BATCHES, search.TILE_FLOATS // (CHUNK_TRIALS * per_row)))


def plan(cfg: SchemeConfig, diagnostics=False, threads=None) -> RunPlan:
    """The decode route, stores, work estimate, engine threads and batch size of a run of cfg.

    The decoder scans the M messages when M <= EXHAUSTIVE_LIMIT, else draws
    the error from the cap-area law ("analytic").  A scan is "grouped",
    against one codebook per help index, C_t = {R_m' b_t}, t < H =
    2^helper_bits, when these are no larger than the rotation stack (H <= n)
    and building them, H M n^2 flops, costs no more than scanning them, trials
    M n (H n <= trials); else the "stack" scan, n^2 wide, measured faster.
    Work: trials H n for the helper, M n^3 + H M n^2 + trials M n grouped,
    M n^2 (n + trials) stacked, trials n^3 for diagnostics, which also store
    each chunk's x and z and, on the analytic route, a reflector step over
    the rows of each batch in flight.  The engine computes batches of `batch`
    stream chunks (_batch_chunks; a chunk is the contract's unit of drawing,
    a batch the unit of compute and not in the contract), and every store
    counts a batch's chunks; the engine store adds, per batch in flight, the
    float32 scores of its widest search (search.tile_floats).  Batches run
    on `threads` (None: resolve_workers()) when a trial's helper search, H n,
    is at least THREAD_MIN_WORK; the diagnostics' n^3 counts toward the
    work, not the gate.  The candidate stack is built in parts on `threads`
    whatever the gate (candidate_rotations), and its store adds each part's
    step buffers and draw.
    """
    n, trials, bits = cfg.blocklength, cfg.trials, cfg.message_bits
    # No memory holds 2^64 points, so a larger codebook is refused as one of 2^64.
    help_size = 1 << min(cfg.helper_bits, 64)
    # 2^message_bits <= EXHAUSTIVE_LIMIT, compared as bit counts.
    exhaustive = bits < EXHAUSTIVE_LIMIT.bit_length()
    gated = help_size * n >= THREAD_MIN_WORK
    workers = (threads or resolve_workers()) if gated or exhaustive else 1
    threads = workers if gated else 1
    grouped = exhaustive and help_size <= n and help_size * n <= trials
    route = "grouped" if grouped else "stack" if exhaustive else "analytic"
    # Per trial: drawn words, message and decision, ceil(bits/64) words each, plus 11 for
    # list slots, int headers and result columns (113 bytes measured at 12 bits).
    storage = [
        (trials * (3 * -(-bits // 64) + 11),
         f"{_count(trials)} trials of {_count(bits)}-bit messages exceed"),
        (help_size * n, f"codebook of 2^{_count(cfg.helper_bits)} points in dimension {n} exceeds")]
    work = trials * (help_size * n + (n ** 3 if diagnostics else 0))
    if exhaustive:
        n_messages = 1 << bits
        work += n_messages * n * (n * n + (help_size * n + trials if grouped else trials * n))
        # Each part of the stack in flight holds its three step buffers, n^2
        # floats per message of its slice, and the slice's draw at its peak:
        # 2 w + 1 times n(n+1)/2 words (the words and their xor-shift buffer
        # or transposed copy, and the word indices), 4 n words per message
        # and the two np.getbufsize()-element operand buffers of its sum.
        span, width = _stack_parts(n_messages, n, workers)
        part = (3 * n * n * width + (2 * width + 1) * n * (n + 1) // 2 + 4 * n * width
                + 2 * np.getbufsize())
        storage.append((n_messages * n * (n + help_size * grouped) + -(-n_messages // span) * part,
                        f"rotation stack of {n_messages} {n}x{n} matrices"
                        f"{' with its per-help-index codebooks' if grouped else ''} exceeds"))
    width, chunks = n * n if route == "stack" else n, -(-trials // CHUNK_TRIALS)
    searched = max(help_size, n_messages if exhaustive else 0)
    batch = _batch_chunks(width, searched, chunks)
    # Batches in flight: one, or up to threads + 1 on a pool; and their chunks.
    items = min(-(-chunks // batch), threads + 1 if threads > 1 else 1)
    in_flight = min(chunks, items * batch)
    k, rows = min(trials, CHUNK_TRIALS), min(trials, batch * CHUNK_TRIALS)
    chunk = k * (CHUNK_BLOCKS * width + grouped * n * n)
    # Each batch in flight also holds its largest search's float32 scores.
    tile = -(-search.tile_floats(rows, searched) // 2)
    storage.append((in_flight * chunk + items * tile,
                    f"{in_flight} engine chunk(s) of {k} trials in dimension {n} exceed"))
    if diagnostics:
        # Each chunk in flight holds its x and z, 2 k n, which a scan forms
        # from the chunk's stack rows.  The analytic route applies each
        # batch's reflectors to its rows (HelperCodebook.rotate), a step at
        # a time: at most 8 n words per row (the rows' vectors, their copy,
        # a step's draw and its rank-one terms; traced at 7.0 to 7.7 for n =
        # 8 to 256 and n rows = 2^12 to 2^17) and the two operand buffers,
        # np.getbufsize() elements each, of the step's draw.
        rotate = 0 if exhaustive else 8 * n * rows + 2 * np.getbufsize()
        storage.append((items * rotate + in_flight * 2 * k * n,
                        f"diagnostics rotations of {rows} trials in dimension {n} exceed"))
    return RunPlan(route, tuple(storage), work, threads, batch)


def _analytic_error_probability(n: int, decode_angle, n_competitors: int):
    """P(some of n_competitors IID uniform sphere points beats the true codeword).

    decode_angle may be an array of angles.  The exponent N log1p(-c) is
    formed in log space, so N may exceed the float range; a cap ratio c below
    2^-1000, where betainc underflows, has its log taken by log_cap_ratio.
    """
    angle = np.atleast_1d(np.asarray(decode_angle, dtype=float))
    c = cap_ratio_exact(n, angle)
    with np.errstate(divide="ignore", over="ignore"):
        log_c = np.log(-np.log1p(-c))
        tiny = (c < 2.0 ** -1000) & (angle > 0.0)
        if tiny.any():
            log_c[tiny] = log_cap_ratio(n, angle[tiny])
        exponent = math.log(n_competitors) + log_c
        p = np.where(c >= 1.0, 1.0, -np.expm1(-np.exp(exponent)))
    return p.reshape(np.shape(decode_angle))


def run_trial(cfg: SchemeConfig, cb: HelperCodebook, m: int, w, uniforms=None, rng=None,
              rotations=None, return_vectors=False):
    """One transmission of message m on the trial's draws: select help, transmit, decode.

    `w` is the noise in the message's frame, scaled by sigma; it is rotated
    into the channel's, z = R_m w.  On the analytic route `uniforms` holds the
    error draw and the wrong-message draw, and `rng` is the generator a wrong
    message among more than 2^53 others is drawn from (the stream contract: the
    chunk's).  `rotations` optionally carries the precomputed candidate
    rotations for the exhaustive decoder.
    """
    rot = cb.rotation(m)
    z = rot @ w
    t, helper_angle = helper_select(cb, m, z, rotation=rot)
    x = transmit(cb, m, t, rotation=rot)
    y = x + z
    decode_angle = angle_between(x, y) if np.any(y) else 0.0

    n_messages = 1 << cfg.message_bits
    if plan(cfg).route != "analytic":
        decoded = decode(cb, y, t, range(n_messages), rotations=rotations)
    else:
        p_err = _analytic_error_probability(cfg.blocklength, decode_angle, n_messages - 1)
        u_err, u_wrong = uniforms
        decoded = _wrong_message(rng, m, u_wrong, n_messages) if u_err < p_err else m

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


def _stack_parts(n_messages: int, n: int, threads: int) -> tuple[int, int]:
    """(span, width): messages per part of the candidate stack, and per slice of a part.

    The stack's ceil(M / reflector_slice(n)) slices are rounded up to a
    multiple of the min(threads, slices) parts and made equal, ceil(M /
    slices) messages each; a part is slices / parts consecutive slices.
    """
    slices = -(-n_messages // reflector_slice(n))
    parts = min(threads, slices)
    slices = -(-slices // parts) * parts
    width = -(-n_messages // slices)
    return width * (slices // parts), width


def candidate_rotations(cfg: SchemeConfig, cb: HelperCodebook, threads=None):
    """Stacked per-message rotations on an exhaustive route (sized by plan(cfg).admit()).

    The stack is cut into contiguous parts of equal slice counts
    (_stack_parts), one per thread of `threads` (None: resolve_workers()) up
    to one per slice, which run through _in_order: a stack of one slice, or
    one thread, builds no pool.  A part forms its slices' rotations in three
    step buffers of its own (haar_rotations' `work`), reused from slice to
    slice, and copies each slice's Q_n into its rows of the stack (`out`);
    its steps are long ufunc passes that release the GIL.  Every matrix is
    bitwise the one haar_rotations gives its message's seed, at any thread
    count.
    """
    if plan(cfg).route == "analytic":
        return None
    n_messages, n = 1 << cfg.message_bits, cfg.blocklength
    span, width = _stack_parts(n_messages, n, threads or resolve_workers())
    stack = np.empty((n_messages, n, n))

    def build(part):
        lo, work = part
        for s in range(lo, min(lo + span, n_messages), width):
            e = min(s + width, n_messages)
            cb.rotations(range(s, e), stack[s:e], work)

    # The buffers are allocated on the calling thread: a pool thread's come
    # from a malloc arena of its own (exhaustive-decode's peak RSS read
    # 117.3-117.7 MB with them, 115.0-115.5 MB without).
    parts = [(lo, [np.empty(n * n * width) for _ in range(3)])
             for lo in range(0, n_messages, span)]
    _in_order(build, parts, len(parts), lambda _: None)
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


def run_trials(cfg: SchemeConfig, messages=None, correlations: CorrelationSums | None = None,
               threads=None) -> TrialColumns:
    """Trial i sends messages[i]; the batched equivalent of run_trial per trial.

    Checks the messages it is given first: ValueError unless there are
    cfg.trials of them, naming the first outside [0, 2^message_bits) and its
    index.  Then admits the run (plan(...).admit(): CodebookSizeError before
    anything is drawn or built), draws cfg's messages when given none
    (draw_messages), builds cfg's codebook and, on a scan route, its
    candidate_rotations stack, in parts on `threads` threads (None:
    resolve_workers(); a stack of one slice, or one thread, builds no pool),
    called from the calling thread, then runs the trials a batch of plan's
    `batch` stream chunks at a time: each chunk of CHUNK_TRIALS trials
    draws from its own noise stream (module docstring), and the batch
    searches, scans and decodes all its rows at once.  For `correlations`
    each batch computes its inputs x = R_m b_t and noises z = R_m w, by
    applying R_m's reflectors to all its rows at once, a step at a time
    (HelperCodebook.rotate), or from the candidate stack on a scan; they are
    added to the sums, not kept.  Batches run on
    `threads` threads (None: resolve_workers(); a sweep's workers pass 1)
    when the helper search pays (plan, THREAD_MIN_WORK), each writing only
    its own rows.  The calling thread takes their decisions and adds their x
    and z a chunk at a time, in chunk order, so every result is the serial
    one-chunk loop's, bitwise, at any thread count and batch size.
    """
    if messages is not None:
        messages, size = list(messages), 1 << cfg.message_bits
        if len(messages) != cfg.trials:
            raise ValueError(f"need {cfg.trials} messages, got {len(messages)}")
        bad = next((i for i, m in enumerate(messages) if not 0 <= m < size), None)
        if bad is not None:
            raise ValueError(f"message {messages[bad]} at index {bad} is out of range "
                             f"for {cfg.message_bits} bits")
    run = plan(cfg, correlations is not None, threads).admit()
    messages = draw_messages(cfg) if messages is None else messages
    trials, n = len(messages), cfg.blocklength
    n_chunks = -(-trials // CHUNK_TRIALS)
    n_messages = 1 << cfg.message_bits
    exhaustive, grouped = run.route != "analytic", run.route == "grouped"
    cb = build_codebook(cfg)
    rotations = candidate_rotations(cfg, cb, threads)
    scale, sigma = math.sqrt(n * cb.power), math.sqrt(cfg.channel.noise_var)

    help_index = np.empty(trials, dtype=np.int64)
    helper_angle, decode_angle, noise_energy = np.empty(trials), np.empty(trials), np.empty(trials)
    decoded = []
    helper = search.ScreenedSearch(cb.base_points)
    if grouped:
        # C[t, m'] = R_m' b_t, built once before any batch runs.  Laid out as
        # (n, H, M), so each help index's GEMM reads rows M long.
        codebooks = np.matmul(cb.base_points, rotations.transpose(1, 2, 0))
        candidates = search.ScreenedSearch(codebooks.transpose(1, 2, 0))
    elif exhaustive:
        candidates = search.ScreenedSearch(rotations.reshape(n_messages, n * n))

    def batch(first):
        """Fill the rows of the batch from chunk `first` on; return their decisions and x, z.

        Each chunk draws its w, then its uniforms and wrong messages, from its
        own generator, in chunk order; everything else runs once on the
        batch's rows, and no row's result depends on the rows beside it.
        """
        streams = [(np.random.default_rng(derive_seed(cfg.noise_seed, c)),
                    c * CHUNK_TRIALS, min((c + 1) * CHUNK_TRIALS, trials))
                   for c in range(first, min(first + run.batch, n_chunks))]
        lo, hi = streams[0][1], streams[-1][2]
        ms = messages[lo:hi]
        w = np.concatenate([rng.standard_normal((e - s, n)) for rng, s, e in streams]) * sigma

        # Everything below is in message m's frame: the base codebook and w.
        t, best = helper.argmax(w)
        noise_energy[lo:hi] = np.einsum("ki,ki->k", w, w)
        nw = np.sqrt(noise_energy[lo:hi])
        cos = np.divide(best, scale * nw, out=np.ones(len(nw)), where=nw > 0)
        helper_angle[lo:hi] = np.arccos(np.clip(cos, -1.0, 1.0))
        help_index[lo:hi] = t
        bt = cb.base_points[t]
        decode_angle[lo:hi] = _row_angles(bt, bt + w)

        x = z = None
        if exhaustive:
            # Receive y = R_m (b_t + w), R_m from the candidate stack; the score
            # of m' is (R_m' b_t) . y, read from trial i's own codebook C[t_i]
            # on the grouped route, else as vec(R_m') . vec(y b_t^T).
            rot = rotations[ms]
            y = np.einsum("kij,kj->ki", rot, bt + w)
            if correlations is not None:
                x, z = np.einsum("kij,kj->ki", rot, bt), np.einsum("kij,kj->ki", rot, w)
            if grouped:
                found, _ = candidates.argmax(y, t)
            else:
                found, _ = candidates.argmax((y[:, :, None] * bt[:, None, :]).reshape(hi - lo, n * n))
            found = found.tolist()
        else:
            p_err = _analytic_error_probability(n, decode_angle[lo:hi], n_messages - 1).tolist()
            found = []
            for rng, s, e in streams:
                u = rng.random((e - s, 2)).tolist()
                found += [_wrong_message(rng, m, u_wrong, n_messages) if u_err < p else m
                          for m, (u_err, u_wrong), p in zip(messages[s:e], u, p_err[s - lo:e - lo])]
            if correlations is not None:
                x, z = cb.rotate(ms, np.stack([bt, w], axis=1)).transpose(1, 0, 2)
        return found, x, z

    def take(result):
        found, x, z = result
        decoded.extend(found)
        if correlations is not None:
            # A chunk at a time: the sums' bits depend on the rows added together.
            for s in range(0, len(found), CHUNK_TRIALS):
                correlations.add(x[s:s + CHUNK_TRIALS], z[s:s + CHUNK_TRIALS])

    _in_order(batch, range(0, n_chunks, run.batch), run.threads, take)

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


def summarize(cfg: SchemeConfig, cols: TrialColumns, wall_time_s, corr_profile=None,
              keep_records=False) -> SimSummary:
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
        scheme="cognizant",
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
    specific message sequence; run_trials checks them before anything is
    planned or drawn); `diagnostics` additionally estimates the
    per-index input/noise correlations across trials, from running sums that
    take O(n) memory whatever the trial count.  run_trials plans and admits
    the run, draws the messages when none are given and builds the codebook
    and the candidate stack.  `threads` bounds the engine's threads (None:
    resolve_workers()); no result depends on it.
    """
    t_start = time.perf_counter()
    sums = CorrelationSums() if diagnostics else None
    cols = run_trials(cfg, messages, sums, threads)
    return summarize(
        cfg, cols, time.perf_counter() - t_start,
        corr_profile=sums.profile() if diagnostics else None, keep_records=keep_records,
    )
