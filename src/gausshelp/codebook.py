"""Covering codebooks on the power sphere and seeded Haar-uniform rotations.

The base codebook holds 2^ceil(n*rh) points drawn uniformly on the radius
sqrt(n*P) sphere.  The rotation for message m is regenerated on demand from a
seed derived from the codebook's base seed, so the whole pipeline is a pure
function of its seeds.  Only the exhaustive decoder holds per-message data in
bulk: it stacks every message's rotation (scheme.candidate_rotations), and
its grouped route builds every per-help-index codebook {R_m' b_t : m'}.  A
rotation's Gaussian entries are SplitMix64 words of that seed mapped
through the normal quantile (_normal_draw), with no generator per message.
Where only products R_m v are wanted (the diagnostics' inputs and noises),
the rotation is applied as the Householder reflectors of its QR
(HelperCodebook.rotate), a bounded slice of messages at a time, never formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .capacity import ChannelParams
from .results import wilson_interval
from . import search

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15

# Refuse codebooks above ~2 GiB of float64 storage.
MAX_CODEBOOK_FLOATS = 1 << 28


class CodebookSizeError(MemoryError):
    """The requested codebook would exceed the in-memory size cap."""


def derive_seed(base: int, index: int) -> int:
    """Mix a base seed and an index into a fresh 64-bit seed (SplitMix64 finalizer)."""
    x = (base + (index + 1) * _GAMMA) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


def derive_seeds(base, indices) -> np.ndarray:
    """derive_seed(b, i) for every base b and index i, as a uint64 array.

    `base` is an int or an array of uint64 bases; the result has base's shape
    plus one axis over indices.  Arithmetic is mod 2^64 throughout, so
    indices of any size (message indices reach 2^74) give the same seeds as
    derive_seed.
    """
    if (isinstance(indices, range) and indices.step == 1
            and 0 <= indices.start < indices.stop <= 1 << 63):
        idx = np.arange(indices.start, indices.stop, dtype=np.uint64)  # no Python loop
    else:
        idx = np.fromiter((int(i) & _MASK64 for i in indices), dtype=np.uint64, count=len(indices))
    if not isinstance(base, np.ndarray):
        base = int(base) & _MASK64
    x = np.asarray(base, dtype=np.uint64)[..., None] + (idx + np.uint64(1)) * np.uint64(_GAMMA)
    shifted = np.empty_like(x)  # one buffer for the three xor-shifts
    x ^= np.right_shift(x, np.uint64(30), out=shifted)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= np.right_shift(x, np.uint64(27), out=shifted)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= np.right_shift(x, np.uint64(31), out=shifted)
    return x


def _normal_draw(n: int, seeds) -> np.ndarray:
    """The contract's standard-normal n x n matrix per seed, as a (len(seeds), n, n) stack.

    Entry k of seed s's matrix (row-major) is
    ndtri(((derive_seed(s, k) >> 12) + 1/2) * 2^-52): the top 52 bits of a
    SplitMix64 word, centred in their cell so the uniform lies strictly in
    (0, 1).  The uniform is formed in the words' own buffer.
    """
    if n < 2:
        raise ValueError(f"rotation dimension must be at least 2, got {n}")
    # 52 bits, not 53: ((x >> 11) + 1/2) * 2^-53 rounds the top word to 1.0, where ndtri is inf.
    g = derive_seeds(np.asarray(seeds, dtype=np.uint64), range(n * n))
    g >>= np.uint64(12)
    # Exponent bits of 1.0 make the double 1 + j 2^-52; minus 1 - 2^-53 it is
    # (j + 1/2) 2^-52, exactly (Sterbenz).
    g |= np.uint64(0x3FF0000000000000)
    g = g.view(np.float64)
    g -= 1.0 - 2.0**-53
    special.ndtri(g, out=g)
    return g.reshape(-1, n, n)


def haar_rotations(n: int, seeds) -> np.ndarray:
    """Haar-uniform n x n orthogonal matrices, one per seed, as a (len(seeds), n, n) stack.

    QR of the seed's IID standard-normal matrix (_normal_draw), with the
    diagonal of R normalized positive so the factorization is unique and the
    Q factor Haar-distributed.  All entries and the QR are formed in one pass
    over the stack; each matrix is bitwise the one a single-seed call gives.
    """
    q, r = np.linalg.qr(_normal_draw(n, seeds))
    # sign(diag R) per matrix, with 0 counted as positive.
    d = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
    d[d == 0] = 1.0
    return q * d[:, None, :]


def reflector_slice(n: int) -> int:
    """Messages whose n x n draws HelperCodebook.rotate factors at a time.

    A quarter of TILE_FLOATS of draws: a slice peaks at about twice its draw
    (the draw and its QR copy), so two engine threads' slices stay within
    one tile, and how their peaks overlap, which the scheduler decides,
    moves a run's peak memory by little.
    """
    return max(1, search.TILE_FLOATS // (4 * n * n))


def _reflect(n: int, seeds: np.ndarray, w: np.ndarray) -> None:
    """w[j] <- R_s w[j] in place for seed s = seeds[j], w of shape (len(seeds), p, n).

    R_s = Q D is haar_rotations' matrix: Q = H_0 ... H_{n-1}, the reflectors
    H_i = I - tau_i v_i v_i^T that LAPACK geqrf leaves for s's draw (numpy's
    complete QR forms Q from the same ones), and D = sign(diag R), 0 counted
    positive.  So D is applied first, then H_{n-1} ... H_0, each a rank-one
    step over all seeds at once; products agree with haar_rotations' up to
    round-off.
    """
    # numpy returns geqrf's output transposed: row i holds v_i past the diagonal, R_ii on it.
    h, tau = np.linalg.qr(_normal_draw(n, seeds), mode="raw")
    diag = np.arange(n)
    w *= np.where(h[:, diag, diag] < 0, -1.0, 1.0)[:, None, :]
    h[:, diag, diag] = 1.0
    for i in reversed(range(n)):
        v, wi = h[:, i, i:], w[..., i:]
        dots = np.einsum("kj,kpj->kp", v, wi) * tau[:, i, None]
        wi -= dots[..., None] * v[:, None, :]


def haar_rotation(n: int, seed: int) -> np.ndarray:
    """Haar-uniform n x n orthogonal matrix, deterministic in (n, seed)."""
    return haar_rotations(n, [seed])[0]


def sample_sphere(n: int, count: int, rng) -> np.ndarray:
    """count points uniform on the unit sphere in R^n, as a (count, n) array."""
    g = rng.standard_normal((count, n))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    return g


@dataclass
class HelperCodebook:
    """Base points on the power sphere plus the seed for per-message rotations."""

    blocklength: int
    power: float
    help_size: int
    base_points: np.ndarray  # (help_size, blocklength), rows of squared norm n*P
    rotation_seed_base: int

    def rotation(self, m: int) -> np.ndarray:
        """Orthogonal transform attached to message m."""
        if m < 0:
            raise ValueError(f"message index must be nonnegative, got {m}")
        return haar_rotation(self.blocklength, derive_seed(self.rotation_seed_base, m))

    def _seeds(self, messages) -> np.ndarray:
        if any(m < 0 for m in messages):
            raise ValueError(f"message indices must be nonnegative, got {min(messages)}")
        return derive_seeds(self.rotation_seed_base, messages)

    def rotations(self, messages) -> np.ndarray:
        """Stacked rotations of several messages, (len(messages), n, n)."""
        return haar_rotations(self.blocklength, self._seeds(messages))

    def rotate(self, messages, vectors) -> np.ndarray:
        """R_m v for each message m = messages[j] and row v of vectors[j], (len(messages), ..., n).

        R_m is applied as its Householder reflectors (_reflect), never
        formed, to reflector_slice(n) messages at a time; a row's result does
        not depend on the slice it is in.
        """
        n, seeds = self.blocklength, self._seeds(messages)
        out = np.array(vectors, dtype=np.float64)
        rows = out.reshape(len(seeds), -1, n)
        step = reflector_slice(n)
        for lo in range(0, len(seeds), step):
            _reflect(n, seeds[lo:lo + step], rows[lo:lo + step])
        return out


def build_base_codebook(n: int, ch: ChannelParams, rh: float, eps: float, seed: int) -> HelperCodebook:
    """Draw the base codebook: 2^ceil(n*rh) IID uniform points on the sqrt(n*P) sphere.

    The covering property is not guaranteed at finite n; covering quality is
    measured (covering_deficiency), not assumed.
    """
    if n < 2:
        raise ValueError(f"blocklength must be at least 2, got {n}")
    if rh < 0:
        raise ValueError(f"helper rate must be nonnegative, got {rh!r}")
    if rh > 0 and not 0.0 < eps < rh:
        raise ValueError(f"requires 0 < eps < rh, got eps={eps!r}, rh={rh!r}")
    # 2^bits * n floats; 2^bits alone exceeds the cap once bits reaches its bit length.
    bits = math.ceil(n * rh)
    if bits >= MAX_CODEBOOK_FLOATS.bit_length() or (n << bits) > MAX_CODEBOOK_FLOATS:
        raise CodebookSizeError(
            f"codebook of 2^{bits} points in dimension {n} exceeds the size cap"
        )
    rng = np.random.default_rng(derive_seed(seed, 0))
    pts = sample_sphere(n, 1 << bits, rng)
    pts *= math.sqrt(n * ch.power)
    return HelperCodebook(
        blocklength=n,
        power=ch.power,
        help_size=len(pts),
        base_points=pts,
        rotation_seed_base=derive_seed(seed, 1),
    )


def message_codebook(cb: HelperCodebook, m: int, rotation: np.ndarray | None = None) -> np.ndarray:
    """Codebook for message m: the base points under m's rotation, (help_size, n).

    `rotation` overrides the derived rotation; used by tests to force identity.
    """
    rot = cb.rotation(m) if rotation is None else rotation
    return cb.base_points @ rot.T


@dataclass
class DeficiencyEstimate:
    fraction: float
    ci_low: float
    ci_high: float
    probes: int
    misses: int


def covering_deficiency(
    cb: HelperCodebook,
    theta0: float,
    probes: int,
    seed: int,
    message: int | None = None,
    chunk: int = 4096,
) -> DeficiencyEstimate:
    """Fraction of uniform probe directions farther than theta0 from every codeword.

    Measures the codebook's covering quality empirically, with a Wilson 95%
    interval attached.  With `message` given, the per-message codebook is
    probed instead of the base one.  Probes are scored in tiles of at most
    TILE_FLOATS cosines (search.ScreenedSearch), so memory stays flat in the
    codebook size, and the miss test uses the exact float64 best cosine.
    """
    if probes < 1:
        raise ValueError(f"need at least one probe, got {probes}")
    pts = cb.base_points if message is None else message_codebook(cb, message)
    scan = search.ScreenedSearch(pts / np.linalg.norm(pts, axis=1, keepdims=True))
    cos_thresh = math.cos(theta0)
    rng = np.random.default_rng(seed)
    misses = 0
    done = 0
    while done < probes:
        block = min(chunk, probes - done)
        dirs = sample_sphere(cb.blocklength, block, rng)
        best = scan.argmax(dirs)[1]
        misses += int(np.count_nonzero(best < cos_thresh))
        done += block
    lo, hi = wilson_interval(misses, probes)
    return DeficiencyEstimate(misses / probes, lo, hi, probes, misses)

