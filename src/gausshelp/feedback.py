"""One-shot feedback scheme with a message-oblivious helper.

Blocks span n+1 channel uses.  At time zero the message amplitude-modulates
the input; the feedback link reveals the time-zero noise to the encoder, whose
quantization (an integer in the message set, computable by the helper from
the noise alone) is then conveyed over slots 1..n with the message-cognizant
inner scheme.  Modular reconstruction at the receiver makes the outer error
event coincide exactly with the inner one.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .codebook import derive_seeds, generators
from .scheme import (
    CHUNK_TRIALS,
    SchemeConfig,
    build_codebook,
    candidate_rotations,
    draw_messages,
    run_trials,
    summarize,
)
# Not called here: perfbench/spans.py traces the per-trial reference through
# this binding, so the name stays importable from this module.
from .scheme import run_trial  # noqa: F401

# Offset separating the time-zero noise stream from the inner trial streams.
_Z0_STREAM_OFFSET = 1 << 32

# Scaled values closer than this to an integer are counted as boundary events:
# near the quantization boundary the floor identity can flip in floating point.
BOUNDARY_TOL = 1e-9


class QuantizationBoundaryError(ArithmeticError):
    """The outer/inner error-event identity failed (floating-point boundary hit)."""


@dataclass(frozen=True)
class FeedbackConfig:
    """Feedback experiment: an inner cognizant scheme reused for slots 1..n."""

    inner: SchemeConfig

    @property
    def message_bits(self) -> int:
        # Outer messages and the quantized noise share one message set.
        return self.inner.message_bits

    @property
    def channel(self):
        return self.inner.channel

    @property
    def trials(self) -> int:
        return self.inner.trials


def encode_time_zero(m: int, message_bits: int, power: float) -> float:
    """Time-zero symbol m * sqrt(P) / 2^message_bits, in [0, sqrt(P))."""
    if not 0 <= m < (1 << message_bits):
        raise ValueError(f"message {m} out of range for {message_bits} bits")
    return m * math.sqrt(power) / (1 << message_bits)


def inner_message(z0: float, message_bits: int, power: float) -> int:
    """Quantized time-zero noise: floor(z0 * 2^mb / sqrt(P)) mod 2^mb.

    Depends only on z0, so the message-oblivious helper can compute it.
    """
    scale = (1 << message_bits) / math.sqrt(power)
    return math.floor(z0 * scale) % (1 << message_bits)


def reconstruct(y0: float, m_prime_hat: int, message_bits: int, power: float) -> int:
    """Receiver's guess floor(y0 * 2^mb / sqrt(P) - m_prime_hat) mod 2^mb.

    If m_prime_hat matches the quantized noise, the result is the transmitted
    message exactly (integers drop out of the floor).
    """
    size = 1 << message_bits
    if not 0 <= m_prime_hat < size:
        raise ValueError(f"inner message {m_prime_hat} out of range for {message_bits} bits")
    scale = size / math.sqrt(power)
    return math.floor(y0 * scale - m_prime_hat) % size


def _boundary_gap(value: float) -> float:
    return abs(value - round(value))


def simulate_feedback(cfg: FeedbackConfig, keep_records=False) -> "SimSummary":
    """Run the length-(n+1) feedback scheme for cfg.trials blocks.

    A pre/post transform over the cognizant engine: the time-zero draw turns
    each outer message m into the inner message m' (the quantized noise), the
    engine runs the inner scheme on m', and reconstruction maps its decision
    back.  Per trial the outer error event is checked to equal the inner one;
    a violation (only possible through floating-point boundary effects, which
    are also counted) raises, naming the first failing trial, instead of
    being silently absorbed.
    """
    t_start = time.perf_counter()
    inner = cfg.inner
    mb = cfg.message_bits
    power = cfg.channel.power
    sigma = math.sqrt(cfg.channel.noise_var)
    scale = (1 << mb) / math.sqrt(power)

    cb = build_codebook(inner)
    rotations = candidate_rotations(inner, cb)
    messages = draw_messages(inner)

    z0s, y0s, m_primes, boundary = [], [], [], []
    for lo in range(0, len(messages), CHUNK_TRIALS):
        hi = min(lo + CHUNK_TRIALS, len(messages))
        seeds = derive_seeds(inner.noise_seed, range(_Z0_STREAM_OFFSET + lo, _Z0_STREAM_OFFSET + hi))
        z0s.extend(float(rng.standard_normal()) * sigma for rng in generators(seeds))
    for m, z0 in zip(messages, z0s):
        y0 = encode_time_zero(m, mb, power) + z0
        y0s.append(y0)
        m_primes.append(inner_message(z0, mb, power))
        boundary.append(_boundary_gap(z0 * scale) < BOUNDARY_TOL
                        or _boundary_gap(y0 * scale) < BOUNDARY_TOL)

    cols = run_trials(inner, cb, m_primes, rotations)

    m_hats = [reconstruct(y0, d, mb, power) for y0, d in zip(y0s, cols.decoded)]
    outer_error = np.array([m_hat != m for m_hat, m in zip(m_hats, messages)], dtype=bool)
    mismatch = np.flatnonzero(outer_error != cols.error)
    if mismatch.size:
        i = int(mismatch[0])
        raise QuantizationBoundaryError(
            f"trial {i}: outer error {outer_error[i]} != inner error {cols.error[i]} "
            f"(z0={z0s[i]!r}, boundary events so far: {sum(boundary[:i + 1])})"
        )

    cols = replace(cols, message=messages, decoded=m_hats, error=outer_error,
                   noise_energy=cols.noise_energy + np.square(z0s))
    return summarize(
        inner, cols, time.perf_counter() - t_start,
        scheme="feedback", keep_records=keep_records, boundary_events=sum(boundary),
    )
