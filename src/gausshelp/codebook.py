"""Covering codebooks on the power sphere and seeded Haar-uniform rotations.

The base codebook holds 2^helper_bits points drawn uniformly on the radius
sqrt(n*P) sphere.  The rotation for message m is regenerated on demand from a
seed derived from the codebook's base seed, so the whole pipeline is a pure
function of its seeds.  Only the exhaustive decoder holds per-message data in
bulk: it stacks every message's rotation (scheme.candidate_rotations), and
its grouped route builds every per-help-index codebook {R_m' b_t : m'}.  A
rotation is Stewart's product of Householder reflectors of n(n+1)/2
Gaussian normals, SplitMix64 words of that seed mapped through the normal
quantile (_normal_draw), with no generator per message and no QR.
haar_rotations forms many at once, in step buffers and rows its caller may
pass; how the stack is cut into slices and parts is scheme's.  Where only
products R_m v are wanted (the diagnostics' inputs and noises), the
reflectors are applied to the vectors of all the messages at once
(HelperCodebook.rotate), each step drawing only its own normals, and R_m is
never formed.
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

# Probe directions covering_deficiency draws and scores at a time.
DEFICIENCY_CHUNK = 4096

# Floats sample_sphere normalizes at a time.
NORMALIZE_FLOATS = 1 << 16


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


def _normal_draw(indices: range, seeds) -> np.ndarray:
    """The contract's normals `indices` of each seed, as a (len(seeds), len(indices)) array.

    Normal k of seed s is ndtri(((derive_seed(s, k) >> 12) + 1/2) * 2^-52):
    the top 52 bits of a SplitMix64 word, centred in their cell so the
    uniform lies strictly in (0, 1).  The uniform is formed in the words' own
    buffer.
    """
    # 52 bits, not 53: ((x >> 11) + 1/2) * 2^-53 rounds the top word to 1.0, where ndtri is inf.
    g = derive_seeds(np.asarray(seeds, dtype=np.uint64), indices)
    g >>= np.uint64(12)
    # Exponent bits of 1.0 make the double 1 + j 2^-52; minus 1 - 2^-53 it is
    # (j + 1/2) 2^-52, exactly (Sterbenz).
    g |= np.uint64(0x3FF0000000000000)
    g = g.view(np.float64)
    g -= 1.0 - 2.0**-53
    special.ndtri(g, out=g)
    return g


def _reflectors(seeds, first: int, last: int):
    """Stewart's reflectors of steps first..last of each seed's draw, seeds on the last axis.

    Step k's x_k is normals k(k-1)/2 to k(k+1)/2 - 1 of the seed's draw
    (_normal_draw), and only the steps' normals are drawn.  Returns
    (u, beta, sign), rows counted from step `first`: u holds
    u_k = x_k + s_k |x_k| e_1 in x_k's rows, with s_k = sign(x_k[0]), 0
    counted positive, and beta[k - first, j] = 1 / (|x_k| (|x_k| + |x_k[0]|)),
    so H_k = I - beta_k u_k u_k^T is the reflector taking x_k to
    -s_k |x_k| e_1, and sign[k - first, j] = s_k.
    """
    lo = first * (first - 1) // 2
    u = _normal_draw(range(lo, last * (last + 1) // 2), seeds).T.copy()
    starts = np.arange(first, last + 1) * np.arange(first - 1, last) // 2 - lo
    x0 = u[starts]
    norm = np.sqrt(np.add.reduceat(u * u, starts, axis=0))
    sign = np.where(x0 < 0, -1.0, 1.0)
    beta = 1.0 / (norm * (norm + np.abs(x0)))
    u[starts] += sign * norm
    return u, beta, sign


def haar_rotations(n: int, seeds, out=None, work=None) -> np.ndarray:
    """Haar-uniform n x n orthogonal matrices, one per seed, as a (len(seeds), n, n) stack.

    Stewart's construction (SIAM J. Numer. Anal. 17, 1980) from the seed's
    reflectors (_reflectors): Q_1 = s_1, Q_k = H_k diag(-s_k, Q_{k-1}), and
    the rotation is Q_n, whose first column is x_n / |x_n|.  The recursion
    grows contiguous (k, k, seeds) arrays, so each step is a few long vector
    operations over all seeds; each matrix is bitwise the one a single-seed
    call gives.  The steps run in `work`, three float64 buffers of at least
    n^2 len(seeds) floats each (Q_{k-1}, Q_k and the rank-one term), which
    the candidate stack reuses from slice to slice, and Q_n is copied from
    them into `out`, a (len(seeds), n, n) array such as the stack's rows,
    which is returned; either is allocated when None.
    """
    if n < 2:
        raise ValueError(f"rotation dimension must be at least 2, got {n}")
    u, beta, sign = _reflectors(seeds, 1, n)
    size = u.shape[1]
    if out is None:
        out = np.empty((size, n, n))
    if work is None:
        work = [np.empty(n * n * size) for _ in range(3)]
    q_buf, p_buf, t_buf = work
    q = q_buf[:size].reshape(1, 1, size)
    q[0, 0] = sign[0]
    for k in range(2, n + 1):
        uk = u[k * (k - 1) // 2:k * (k + 1) // 2, None]
        p, t = p_buf[:k * k * size].reshape(k, k, size), t_buf[:k * k * size].reshape(k, k, size)
        p[0, 0] = -sign[k - 1]
        p[0, 1:] = 0.0
        p[1:, 0] = 0.0
        p[1:, 1:] = q
        # H_k P = P - beta_k u_k (u_k^T P)
        s = np.multiply(uk, p, out=t).sum(axis=0)
        s *= beta[k - 1]
        p -= np.multiply(uk, s, out=t)
        q, q_buf, p_buf = p, p_buf, q_buf
    # One transposed copy: the last subtraction written through a transposed
    # view of `out` took 2.8 times as long as the subtraction and the copy
    # (n = 16, 256 messages).
    out[...] = q.transpose(2, 0, 1)
    return out


def _reflect(n: int, seeds: np.ndarray, w: np.ndarray) -> None:
    """w[j] <- R_s w[j] in place for seed s = seeds[j], w of shape (len(seeds), p, n).

    R_s is haar_rotations' matrix, applied by the same steps to vectors:
    Q_1 = s_1 on the last coordinate, then for k = 2..n the sign -s_k on
    coordinate n - k and H_k on the last k, each a rank-one step over all
    seeds at once on a (n, p, seeds) copy of w; products agree with
    haar_rotations' up to round-off.  Step k draws its reflectors
    (_reflectors) just before it applies them, so a step holds k words per
    seed of them, not the whole draw.
    """
    v = w.transpose(2, 1, 0).copy()
    v[n - 1] *= _reflectors(seeds, 1, 1)[2][0]
    for k in range(2, n + 1):
        u, beta, sign = _reflectors(seeds, k, k)
        uk, vk = u[:, None], v[n - k:]
        vk[0] *= -sign[0]
        vk -= uk * ((uk * vk).sum(axis=0) * beta[0])
    w[...] = v.transpose(2, 1, 0)


def haar_rotation(n: int, seed: int) -> np.ndarray:
    """Haar-uniform n x n orthogonal matrix, deterministic in (n, seed)."""
    return haar_rotations(n, [seed])[0]


def sample_sphere(n: int, count: int, rng) -> np.ndarray:
    """count points uniform on the unit sphere in R^n, as a (count, n) array.

    The standard normal draw is normalized in place, in blocks of about
    NORMALIZE_FLOATS floats: a row's norm is the same reduction in any block,
    so the points are bitwise those of one whole-array pass, without its
    temporaries the size of the draw.
    """
    g = rng.standard_normal((count, n))
    step = max(1, NORMALIZE_FLOATS // n)
    for lo in range(0, count, step):
        block = g[lo:lo + step]
        block /= np.linalg.norm(block, axis=1, keepdims=True)
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
        if isinstance(messages, range):
            negative = bool(messages) and min(messages[0], messages[-1]) < 0  # its least end
        else:
            negative = bool((np.asarray(messages) < 0).any())
        if negative:
            raise ValueError(f"message indices must be nonnegative, got {min(messages)}")
        return derive_seeds(self.rotation_seed_base, messages)

    def rotations(self, messages) -> np.ndarray:
        """Stacked rotations of several messages, (len(messages), n, n), as haar_rotations."""
        return haar_rotations(self.blocklength, self._seeds(messages))

    def rotate(self, messages, vectors) -> np.ndarray:
        """R_m v for each message m = messages[j] and row v of vectors[j], (len(messages), ..., n).

        R_m is applied as its Householder reflectors (_reflect), never
        formed, to all the rows at once; a row's result does not depend on
        the rows beside it.
        """
        n, seeds = self.blocklength, self._seeds(messages)
        out = np.array(vectors, dtype=np.float64)
        _reflect(n, seeds, out.reshape(len(seeds), -1, n))
        return out


def build_base_codebook(n: int, ch: ChannelParams, bits: int, seed: int) -> HelperCodebook:
    """Draw the base codebook: 2^bits IID uniform points on the sqrt(n*P) sphere.

    The points are one (2^bits, n) standard normal block from
    default_rng(derive_seed(seed, 0)), each row scaled to norm sqrt(n*P), and
    the rotations' seed base is derive_seed(seed, 1).  The covering property
    is not guaranteed at finite n; covering quality is measured
    (covering_deficiency), not assumed.
    """
    if n < 2:
        raise ValueError(f"blocklength must be at least 2, got {n}")
    if bits < 0:
        raise ValueError(f"helper bits must be nonnegative, got {bits!r}")
    # 2^bits * n floats; 2^bits alone exceeds the cap once bits reaches its bit length.
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
) -> DeficiencyEstimate:
    """Fraction of uniform probe directions farther than theta0 from every codeword.

    Measures the codebook's covering quality empirically, with a Wilson 95%
    interval attached.  The probes are isotropic, so the deficiency of every
    message's rotated codebook has the base one's law.  Probes are scored in
    tiles of at most TILE_FLOATS cosines (search.ScreenedSearch), so memory
    stays flat in the codebook size, and the miss test uses the exact float64
    best cosine.
    """
    if probes < 1:
        raise ValueError(f"need at least one probe, got {probes}")
    pts = cb.base_points
    scan = search.ScreenedSearch(pts / np.linalg.norm(pts, axis=1, keepdims=True))
    cos_thresh = math.cos(theta0)
    rng = np.random.default_rng(seed)
    misses = 0
    done = 0
    while done < probes:
        block = min(DEFICIENCY_CHUNK, probes - done)
        dirs = sample_sphere(cb.blocklength, block, rng)
        best = scan.argmax(dirs)[1]
        misses += int(np.count_nonzero(best < cos_thresh))
        done += block
    lo, hi = wilson_interval(misses, probes)
    return DeficiencyEstimate(misses / probes, lo, hi, probes, misses)

