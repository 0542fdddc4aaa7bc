"""Covering codebooks on the power sphere and seeded Haar-uniform rotations.

The base codebook holds 2^ceil(n*rh) points drawn uniformly on the radius
sqrt(n*P) sphere.  Per-message codebooks are never materialized in bulk: the
rotation for message m is regenerated on demand from a seed derived from the
codebook's base seed, so the whole pipeline is a pure function of its seeds.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .capacity import ChannelParams
from .results import wilson_interval

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


def haar_rotations(n: int, seeds) -> np.ndarray:
    """Haar-uniform n x n orthogonal matrices, one per seed, as a (len(seeds), n, n) stack.

    QR of an IID standard-normal matrix drawn from each seed's own generator,
    with the diagonal of R normalized positive so the factorization is unique
    and the Q factor Haar-distributed.  The QR runs once over the whole stack;
    each matrix is bitwise the one a single-seed call gives.
    """
    if n < 2:
        raise ValueError(f"rotation dimension must be at least 2, got {n}")
    g = np.empty((len(seeds), n, n))
    for row, seed in zip(g, seeds):
        np.random.default_rng(seed).standard_normal(out=row)
    q, r = np.linalg.qr(g)
    d = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
    d[d == 0] = 1.0
    return q * d[:, None, :]


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

    def rotations(self, messages) -> np.ndarray:
        """Stacked rotations of several messages, (len(messages), n, n)."""
        if any(m < 0 for m in messages):
            raise ValueError(f"message indices must be nonnegative, got {min(messages)}")
        seeds = [derive_seed(self.rotation_seed_base, m) for m in messages]
        return haar_rotations(self.blocklength, seeds)


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
    help_size = 1 << math.ceil(n * rh)
    if help_size * n > MAX_CODEBOOK_FLOATS:
        raise CodebookSizeError(
            f"codebook of {help_size} points in dimension {n} exceeds the size cap"
        )
    rng = np.random.default_rng(derive_seed(seed, 0))
    pts = sample_sphere(n, help_size, rng) * math.sqrt(n * ch.power)
    return HelperCodebook(
        blocklength=n,
        power=ch.power,
        help_size=help_size,
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
    probed instead of the base one.
    """
    if probes < 1:
        raise ValueError(f"need at least one probe, got {probes}")
    pts = cb.base_points if message is None else message_codebook(cb, message)
    unit = pts / np.linalg.norm(pts, axis=1, keepdims=True)
    cos_thresh = math.cos(theta0)
    rng = np.random.default_rng(seed)
    misses = 0
    done = 0
    while done < probes:
        block = min(chunk, probes - done)
        dirs = sample_sphere(cb.blocklength, block, rng)
        best = (dirs @ unit.T).max(axis=1)
        misses += int(np.count_nonzero(best < cos_thresh))
        done += block
    lo, hi = wilson_interval(misses, probes)
    return DeficiencyEstimate(misses / probes, lo, hi, probes, misses)


_DUMP_MAGIC = b"GHCB"
_DUMP_HEADER = struct.Struct("<4sIdQQ")  # magic, n, P, help_size, rotation seed


def dump_codebook(cb: HelperCodebook, path) -> None:
    """Write the codebook for reproducibility audits.

    Layout: magic 'GHCB'; then little-endian header (n as uint32, P as
    float64, help_size as uint64, rotation_seed_base as uint64); then the
    base points row-major as float64.
    """
    with open(path, "wb") as fh:
        fh.write(_DUMP_HEADER.pack(_DUMP_MAGIC, cb.blocklength, cb.power,
                                   cb.help_size, cb.rotation_seed_base))
        fh.write(np.ascontiguousarray(cb.base_points, dtype="<f8").tobytes())


def load_codebook(path) -> HelperCodebook:
    with open(path, "rb") as fh:
        magic, n, power, help_size, seed_base = _DUMP_HEADER.unpack(fh.read(_DUMP_HEADER.size))
        if magic != _DUMP_MAGIC:
            raise ValueError(f"not a codebook dump: bad magic {magic!r}")
        data = np.frombuffer(fh.read(), dtype="<f8")
    if data.size != help_size * n:
        raise ValueError(f"truncated codebook dump: expected {help_size * n} floats, got {data.size}")
    pts = data.reshape(help_size, n).astype(float)
    return HelperCodebook(n, power, help_size, pts, seed_base)
