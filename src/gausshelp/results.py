"""Result records shared by the coding-scheme simulators and the harness."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

Z95 = 1.959963984540054  # two-sided 95% normal quantile


def wilson_interval(successes: int, trials: int):
    """Wilson score confidence interval for a binomial proportion.

    Clamped so that ci_low <= successes/trials <= ci_high holds exactly: the
    bounds are 0 at zero successes and 1 at all successes, where the formula
    leaves round-off residues.
    """
    if trials < 0 or not 0 <= successes <= max(trials, 0):
        raise ValueError(f"need 0 <= successes <= trials, got {successes}/{trials}")
    if trials == 0:
        return (math.nan, math.nan)
    p = successes / trials
    z2 = Z95 * Z95
    denom = 1.0 + z2 / trials
    center = p + z2 / (2.0 * trials)
    half = Z95 * math.sqrt(p * (1.0 - p) / trials + z2 / (4.0 * trials * trials))
    return (min(p, max(0.0, (center - half) / denom)),
            max(p, min(1.0, (center + half) / denom)))


@dataclass(slots=True)
class TrialRecord:
    """Raw evidence from one simulated transmission."""

    message: int
    help_index: int
    helper_angle: float  # angle(x, z), radians
    decode_angle: float  # angle(x, y), radians
    noise_energy: float  # ||z||^2 over the block
    covering_miss: bool  # helper_angle exceeded theta0
    decoded: int
    error: bool


@dataclass
class TrialColumns:
    """Per-trial outcomes of a run, one column per TrialRecord field.

    Messages and decoded messages are lists of Python ints (message spaces
    may be wider than 64 bits); the rest are numpy arrays.
    """

    message: list
    help_index: np.ndarray
    helper_angle: np.ndarray
    decode_angle: np.ndarray
    noise_energy: np.ndarray
    covering_miss: np.ndarray
    decoded: list
    error: np.ndarray

    def records(self) -> list[TrialRecord]:
        columns = [getattr(self, f.name) for f in fields(TrialRecord)]
        columns = [c if isinstance(c, list) else c.tolist() for c in columns]
        return [TrialRecord(*row) for row in zip(*columns)]


@dataclass
class SimSummary:
    """Aggregated outcome of a batch of trials; the CSV-facing result."""

    scheme: str
    blocklength: int
    rate_bits: float
    helper_rate_bits: float
    snr: float
    eps: float
    trials: int
    errors: int
    covering_misses: int
    err_rate: float
    err_rate_given_covered: float
    ci_low: float
    ci_high: float
    mean_helper_angle: float
    mean_decode_angle: float
    corr_sum: float
    corr_budget: float
    capacity_bits: float
    threshold_bits: float
    seed: int
    wall_time_s: float
    boundary_events: int = 0
    records: list = field(default=None, repr=False, compare=False)
    corr_profile: object = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.errors > self.trials:
            raise ValueError("errors cannot exceed trials")
