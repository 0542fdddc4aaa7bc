"""Experiment driver: config parsing, sweep orchestration, CSV emission.

Config grammar (line oriented, ``key = value``, ``#`` comments)::

    snr              = 3            # or a comma list for sweeps
    helper_rate_bits = 0.5          # or a comma list
    blocklength      = 24           # or a comma list; each >= 2
    rate_fraction    = 0.7          # R as fraction of cognizant capacity (> 0); list ok
    rate_bits        = 1.2          # absolute R; single runs only
    eps              = 0.05         # default 0.1 * helper_rate_bits
    trials           = 10000        # default 10000
    seed             = 1            # base seed, default 1
    scheme           = cognizant    # or feedback
    diagnostics      = off          # or on (cognizant only, trials >= 2)

All single values yield one SchemeConfig; any list yields a SweepSpec over
the grid.  Every cell's seed is derived from (base seed, cell coordinates),
so any cell is individually reproducible and results do not depend on
scheduling or worker count.  run_sweep spreads the worker count (`--workers`,
checked by scheme.resolve_workers) over processes or engine threads, passed down
as run_cell's `threads` argument, and hands a pool the cells longest-first by
`scheme.plan` work (Graham's LPT rule); rows and skip warnings keep sweep order.
"""

from __future__ import annotations

import logging
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

from .capacity import ChannelParams, capacity_cognizant
from .codebook import CodebookSizeError, derive_seed
from .feedback import FeedbackConfig, simulate_feedback
from .results import SimSummary
from .scheme import config_from_rates, plan, resolve_workers, simulate

log = logging.getLogger(__name__)

# (CSV column, SimSummary attribute) in column order; only n is renamed.
_CSV_FIELDS = tuple((column, "blocklength" if column == "n" else column) for column in (
    "scheme", "n", "rate_bits", "helper_rate_bits", "snr", "eps", "trials", "errors",
    "covering_misses", "err_rate", "err_rate_given_covered", "ci_low", "ci_high",
    "mean_helper_angle", "mean_decode_angle", "corr_sum", "corr_budget", "capacity_bits",
    "threshold_bits", "seed", "wall_time_s",
))
CSV_COLUMNS = ",".join(column for column, _ in _CSV_FIELDS)


class ConfigError(ValueError):
    """A config file failed to parse or violated a constraint."""


def _check_run(trials: int, scheme: str, diagnostics: bool) -> None:
    """Refuse a scheme, a trial count or a diagnostics request that no run can honour."""
    if scheme not in ("cognizant", "feedback"):
        raise ConfigError(f"scheme must be 'cognizant' or 'feedback', got {scheme!r}")
    if trials < 1:
        raise ConfigError(f"trials must be at least 1, got {trials}")
    if diagnostics and scheme == "feedback":
        raise ConfigError("diagnostics = on needs scheme = cognizant, got scheme = feedback")
    if diagnostics and trials < 2:
        raise ConfigError(f"diagnostics = on needs trials of at least 2, got trials = {trials}")


def check_eps(eps: float | None, helper_rates) -> None:
    """Refuse an eps outside (0, R_h) for any helper rate R_h (eps = 0 when R_h = 0).

    None stands for each rate's default, 0.1 * R_h, which leaves (0, R_h) only
    where it underflows to 0.
    """
    for rh in helper_rates:
        e = 0.1 * rh if eps is None else eps
        if rh > 0 and not 0.0 < e < rh:
            raise ConfigError(
                f"violated constraint '0 < eps < R_h': eps={e!r}, helper_rate_bits={rh!r}"
            )
        if rh == 0 and e != 0.0:
            raise ConfigError("eps must be 0 when helper_rate_bits is 0")


def check_products(n: int, *checks) -> None:
    """Refuse a value v of any (key, values, scale, product) where n * v * scale overflows.

    The products are n*P, n*R_h and n*R at a config's longest blocklength n.
    """
    for key, values, scale, product in checks:
        for v in values:
            try:
                overflows = n * v * scale == math.inf
            except OverflowError:  # n itself is past the float range
                overflows = True
            if overflows:
                raise ConfigError(f"{key} = {v!r} is too large: {product} overflows "
                                  f"at blocklength {n}")


def _check(snr, helper_rate, blocklength, rate_fraction, trials, scheme, diagnostics, eps):
    """Refuse, naming its config key, any value that no run can honour: every
    SweepSpec's on construction, and a rate_bits run's with no rate_fraction."""
    for key, values, ok, wanted in (
            ("snr", snr, lambda v: v > 0, "positive"),
            ("helper_rate_bits", helper_rate, lambda v: v >= 0, "nonnegative"),
            ("blocklength", blocklength, lambda v: v >= 2, "at least 2"),
            ("rate_fraction", rate_fraction, lambda v: v > 0, "positive")):
        for v in values:
            if not -math.inf < v < math.inf:
                raise ConfigError(f"{key} values must be finite")
            if not ok(v):
                raise ConfigError(f"{key} values must be {wanted}")
    _check_run(trials, scheme, diagnostics)
    check_eps(eps, helper_rate)
    # P = snr at unit noise variance; R = fraction * capacity, which grows with snr and R_h
    n = max(blocklength)
    top = capacity_cognizant(ChannelParams.from_snr(max(snr)), max(helper_rate))
    check_products(n, ("snr", snr, 1.0, "n*P"), ("helper_rate_bits", helper_rate, 1.0, "n*R_h"),
                   ("rate_fraction", rate_fraction, top, "n*R = n * rate_fraction * capacity"))


@dataclass(frozen=True)
class SweepSpec:
    """Grid of experiment cells over (snr, helper rate, blocklength, rate fraction).

    Valid by construction: its values pass the checker that every parsed
    config's values pass, or it raises that checker's ConfigError.
    """

    snr: tuple
    helper_rate: tuple
    blocklength: tuple
    rate_fraction: tuple
    trials: int
    base_seed: int
    scheme: str = "cognizant"
    diagnostics: bool = False
    eps: float | None = None  # None: default 0.1 * helper rate per cell

    def __post_init__(self):
        for name in ("snr", "helper_rate", "blocklength", "rate_fraction"):
            if not getattr(self, name):
                raise ConfigError(f"{name} values must be nonempty")
        _check(self.snr, self.helper_rate, self.blocklength, self.rate_fraction, self.trials,
               self.scheme, self.diagnostics, self.eps)


_LIST_KEYS = ("snr", "helper_rate_bits", "blocklength", "rate_fraction")
_SCALAR_KEYS = ("rate_bits", "eps", "trials", "seed", "scheme", "diagnostics")
_ALL_KEYS = set(_LIST_KEYS) | set(_SCALAR_KEYS)


def _parse_number(key, raw, lineno, cast):
    try:
        value = cast(raw)
    except ValueError:
        raise ConfigError(f"line {lineno}: value {raw!r} for {key!r} is not a number") from None
    if not -math.inf < value < math.inf:  # math.isfinite raises on an int past the float range
        raise ConfigError(f"line {lineno}: value {raw!r} for {key!r} is not finite")
    return value


def parse_config(text: str):
    """Parse the config grammar into a SchemeConfig or a SweepSpec."""
    seen = {}  # key -> (lineno, raw value)
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _ALL_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(
                f"duplicate key {key!r} on lines {seen[key][0]} and {lineno}"
            )
        seen[key] = (lineno, raw)

    def lists(key, cast):
        lineno, raw = seen[key]
        return tuple(_parse_number(key, part.strip(), lineno, cast) for part in raw.split(","))

    for required in ("snr", "helper_rate_bits", "blocklength"):
        if required not in seen:
            raise ConfigError(f"missing required key {required!r}")
    if ("rate_bits" in seen) == ("rate_fraction" in seen):
        raise ConfigError("exactly one of 'rate_bits' or 'rate_fraction' is required")

    snr = lists("snr", float)
    helper_rate = lists("helper_rate_bits", float)
    blocklength = lists("blocklength", int)
    rate_fraction = lists("rate_fraction", float) if "rate_fraction" in seen else None

    trials = _parse_number("trials", seen["trials"][1], seen["trials"][0], int) \
        if "trials" in seen else 10000
    seed = _parse_number("seed", seen["seed"][1], seen["seed"][0], int) \
        if "seed" in seen else 1
    eps = _parse_number("eps", seen["eps"][1], seen["eps"][0], float) \
        if "eps" in seen else None

    scheme = seen["scheme"][1] if "scheme" in seen else "cognizant"
    diagnostics_raw = seen["diagnostics"][1] if "diagnostics" in seen else "off"
    if diagnostics_raw not in ("on", "off"):
        lineno = seen["diagnostics"][0]
        raise ConfigError(f"line {lineno}: diagnostics must be 'on' or 'off', got {diagnostics_raw!r}")
    diagnostics = diagnostics_raw == "on"

    single = all(len(v) == 1 for v in (snr, helper_rate, blocklength)) and (
        rate_fraction is None or len(rate_fraction) == 1
    )
    if rate_fraction is None:
        _check(snr, helper_rate, blocklength, (), trials, scheme, diagnostics, eps)
        if not single:
            raise ConfigError("sweeps require 'rate_fraction' (not 'rate_bits')")
        rate = _parse_number("rate_bits", seen["rate_bits"][1], seen["rate_bits"][0], float)
        if rate <= 0:
            raise ConfigError("rate_bits must be positive")
        check_products(blocklength[0], ("rate_bits", (rate,), 1.0, "n*R"))
        return _config(scheme, snr[0], helper_rate[0], blocklength[0], seed, eps, trials,
                       rate=rate), diagnostics
    spec = SweepSpec(snr=snr, helper_rate=helper_rate, blocklength=blocklength,
                     rate_fraction=rate_fraction, trials=trials, base_seed=seed, scheme=scheme,
                     diagnostics=diagnostics, eps=eps)
    return (single_config(spec) if single else spec), diagnostics


def _config(scheme, snr, rh, n, seed, eps, trials, fraction=None, rate=None):
    """One run's config, seeded by `seed`: a FeedbackConfig for scheme feedback.

    Its rate is `rate` bits per use, else `fraction` of the cognizant
    capacity at the requested R_h (not at the effective helper_bits / n).
    """
    ch = ChannelParams.from_snr(snr)
    if rate is None:
        rate = fraction * capacity_cognizant(ch, rh)
    cfg = config_from_rates(n, rate, rh, ch, seed, eps=eps, trials=trials)
    return FeedbackConfig(inner=cfg) if scheme == "feedback" else cfg


def single_config(spec: SweepSpec):
    """The single run of a one-cell spec: seeded by the base seed itself, as
    a single-valued config and `diagnose` are."""
    return _config(spec.scheme, spec.snr[0], spec.helper_rate[0], spec.blocklength[0],
                   spec.base_seed, spec.eps, spec.trials, spec.rate_fraction[0])


def cell_config(spec: SweepSpec, i_snr: int, i_rh: int, i_n: int, i_frac: int):
    """Build the reproducible experiment config for one grid cell, seeded by
    a seed derived from the base seed and the cell's coordinates."""
    seed = spec.base_seed
    for coord in (i_snr, i_rh, i_n, i_frac):
        seed = derive_seed(seed, coord)
    return _config(spec.scheme, spec.snr[i_snr], spec.helper_rate[i_rh], spec.blocklength[i_n],
                   seed, spec.eps, spec.trials, spec.rate_fraction[i_frac])


def run_cell(cfg, diagnostics=False, threads=None) -> SimSummary:
    """Run one experiment cell on up to `threads` engine threads (plan checks: resolve_workers).

    Module-level so worker processes can pickle it.
    """
    if isinstance(cfg, FeedbackConfig):
        if diagnostics:
            raise ValueError("correlation diagnostics need the cognizant scheme")
        return simulate_feedback(cfg, threads=threads)
    return simulate(cfg, diagnostics=diagnostics, threads=threads)


def _run_cell_safe(cell, threads=None):
    cfg, diagnostics = cell
    try:
        return run_cell(cfg, diagnostics, threads)
    except CodebookSizeError as exc:
        return exc


def run_sweep(spec: SweepSpec, workers: int | None = None) -> list[SimSummary]:
    """One SimSummary per grid cell, in sweep order, independent of worker count.

    Cells whose resources exceed the caps are skipped with a logged reason;
    the sweep continues.  With more than one worker a pool of at most one
    process per cell receives the cells in order of decreasing
    `plan(cfg).work`, and each cell runs its engine on one thread; otherwise
    each runs it on `workers` threads, resolved and checked (resolve_workers)
    before any cell is built.  The summaries and the skip warnings come in
    sweep order, so the output is the same for every worker count.
    """
    workers = resolve_workers(workers)
    cells = []
    for i_snr in range(len(spec.snr)):
        for i_rh in range(len(spec.helper_rate)):
            for i_n in range(len(spec.blocklength)):
                for i_frac in range(len(spec.rate_fraction)):
                    cells.append((cell_config(spec, i_snr, i_rh, i_n, i_frac),
                                  spec.diagnostics))

    inners = [cfg.inner if isinstance(cfg, FeedbackConfig) else cfg for cfg, _ in cells]
    if workers > 1 and len(cells) > 1:
        order = sorted(range(len(cells)), key=lambda i: -plan(inners[i], spec.diagnostics, 1).work)
        outcomes = [None] * len(cells)
        # Each cell runs its engine on one thread: at most workers CPUs in all.
        # With fork, every process of the pool starts at the first submit.
        with ProcessPoolExecutor(max_workers=min(workers, len(cells))) as pool:
            run = partial(_run_cell_safe, threads=1)
            for i, outcome in zip(order, pool.map(run, [cells[i] for i in order])):
                outcomes[i] = outcome
    else:
        outcomes = [_run_cell_safe(c, workers) for c in cells]

    summaries = []
    for inner, outcome in zip(inners, outcomes):
        if isinstance(outcome, CodebookSizeError):
            log.warning("cell skipped (snr=%g, n=%d, rate_bits=%.6g): %s: %s",
                        inner.channel.snr, inner.blocklength, inner.rate,
                        type(outcome).__name__, outcome)
            continue
        summaries.append(outcome)
    return summaries


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    if value != value:  # NaN
        return "nan"
    return "%.9g" % value


def emit_csv(summaries, sink, zero_walltime=False) -> None:
    """Write summaries as CSV: fixed column set, 9 significant digits, LF endings.

    ``zero_walltime`` renders the wall_time_s column as 0 so that repeated
    runs produce byte-identical output (timing is the one nondeterministic
    field).
    """
    lines = [CSV_COLUMNS]
    for s in summaries:
        lines.append(",".join(
            _fmt(0.0 if zero_walltime and attr == "wall_time_s" else getattr(s, attr))
            for _, attr in _CSV_FIELDS))
    sink.write("\n".join(lines) + "\n")
