"""Gaussian channel with a rate-limited noise-describing helper.

Capacity evaluators, an executable geometric coding scheme, a one-shot
feedback scheme, converse-side diagnostics, and a reproducible Monte Carlo
harness.
"""

from .capacity import (
    ChannelParams,
    DivergenceError,
    capacity_cognizant,
    capacity_oblivious_feedback,
    capacity_oblivious_nofeedback,
    mutual_info_xy,
    mutual_info_xz,
    rho_of_helper_rate,
)
from .codebook import (
    HelperCodebook,
    build_base_codebook,
    covering_deficiency,
    derive_seed,
    derive_seeds,
    haar_rotation,
    haar_rotations,
)
from .converse import (
    CorrelationProfile,
    check_budget,
    converse_rate_bound,
    correlation_budget,
    correlation_profile,
    empirical_correlations,
)
from .feedback import FeedbackConfig, encode_time_zero, inner_message, reconstruct, \
    simulate_feedback
from .geometry import (
    achievable_rate_threshold,
    alpha0,
    angle_between,
    cap_rate_exponent,
    cap_ratio_exact,
    theta0,
)
from .harness import SweepSpec, emit_csv, parse_config, run_sweep
from .results import SimSummary, TrialRecord, wilson_interval
from .scheme import STREAM_CONTRACT, SchemeConfig, config_from_rates, decode, helper_select, \
    run_trial, simulate, transmit

__all__ = [name for name in dir() if not name.startswith("_")]
