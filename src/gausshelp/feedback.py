"""One-shot feedback scheme with a message-oblivious helper.

Blocks span n+1 channel uses.  At time zero the message amplitude-modulates
the input; the feedback link reveals the time-zero noise to the encoder, whose
quantization (an integer in the message set, computable by the helper from
the noise alone) is then conveyed over slots 1..n with the message-cognizant
inner scheme.  Modular reconstruction at the receiver makes the outer error
event the inner one, so a feedback run is one cognizant run on the quantized
noises, relabelled.  The real-unit maps below are the reference;
`simulate_feedback` quantizes through the exact `inner_message`.

Random streams (contract 4, scheme.STREAM_CONTRACT): the scheme module's, and

* the time-zero noises of all blocks, in block order: one draw of trials
  normals scaled by sigma from default_rng(derive_seed(noise_seed, 2^32)).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .codebook import derive_seed
from .scheme import SchemeConfig, draw_messages, plan, simulate
# Not called here: perfbench/spans.py traces these bindings, so the names stay
# importable from this module.
from .scheme import candidate_rotations, run_trial, summarize  # noqa: F401

# Index of the time-zero noise stream; the engine's chunks take 0, 1, ....
_Z0_STREAM_OFFSET = 1 << 32


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
    """Quantized time-zero noise: floor(z0 * 2^mb / sqrt(P)) mod 2^mb, at any width.

    z0 / sqrt(P) is rounded once and scaled by 2^mb in integers: the float map
    wherever its doubles are finite and normal.  Depends only on z0, so the
    message-oblivious helper can compute it.
    """
    num, den = (z0 * (1.0 / math.sqrt(power))).as_integer_ratio()
    return ((num << message_bits) // den) % (1 << message_bits)


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


def time_zero_noise(cfg: FeedbackConfig) -> np.ndarray:
    """The time-zero noise z0 of every block: cfg.trials normals from one generator."""
    rng = np.random.default_rng(derive_seed(cfg.inner.noise_seed, _Z0_STREAM_OFFSET))
    return rng.standard_normal(cfg.trials) * math.sqrt(cfg.channel.noise_var)


def simulate_feedback(cfg: FeedbackConfig, keep_records=False, threads=None) -> "SimSummary":
    """Run the length-(n+1) feedback scheme for cfg.trials blocks.

    One cognizant run, relabelled: the time-zero draw gives each block the
    inner message m' = inner_message(z0), and scheme.simulate runs the inner
    scheme on those.  In units of sqrt(P)/2^mb the received y0 is m + zeta,
    zeta = z0 * 2^mb/sqrt(P), and m' = floor(zeta) mod 2^mb; the receiver's
    floor(m + zeta - m'_hat) is the integer m - m'_hat + floor(zeta), so its
    decision is (m - m'_hat + m') mod 2^mb, at any message width, and it errs
    exactly when the inner decoder does.  Every summary field but `scheme` and
    `wall_time_s` is therefore the inner run's, and the outer messages are
    drawn only to relabel kept records: message m, decision
    (m - m'_hat + m') mod 2^mb and noise energy plus z0^2.  `threads` bounds
    the engine's threads, as in scheme.simulate.
    """
    t_start = time.perf_counter()
    inner, mb = cfg.inner, cfg.message_bits
    plan(inner, threads=threads).admit()
    z0s = time_zero_noise(cfg)
    m_primes = [inner_message(z0, mb, cfg.channel.power) for z0 in z0s.tolist()]
    s = simulate(inner, keep_records=keep_records, messages=m_primes, threads=threads)
    if keep_records:
        size = 1 << mb
        for rec, m, m_prime, z0 in zip(s.records, draw_messages(inner), m_primes, z0s.tolist()):
            rec.message, rec.decoded = m, (m - rec.decoded + m_prime) % size
            rec.noise_energy += z0 * z0
    return replace(s, scheme="feedback", wall_time_s=time.perf_counter() - t_start)
