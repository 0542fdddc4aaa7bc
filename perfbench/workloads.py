"""The benchmark's workloads: inputs made from a seed, timed calls, output checks.

A workload is a fixed list of calls into the program (one round).  `calls()`
gives the full-size round; `calls(setup=True)` gives the same calls at one
trial per cell, whose time is the workload's fixed cost.  `check(outputs)`
verifies one round's outputs with the independent references in checks.py.

Calls go through the module attribute (``scheme.simulate``, ``cli.cli``) at
call time, so the traced run's rebinding is seen.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass, replace

from gausshelp import cli, scheme
from gausshelp.capacity import ChannelParams
from gausshelp.geometry import achievable_rate_threshold

import checks


@dataclass
class Call:
    trials: int
    run: object  # zero-argument callable returning the call's output


def _simulate(cfg, records, diagnostics):
    return scheme.simulate(cfg, keep_records=records, diagnostics=diagnostics)


class Criterion5:
    """Acceptance criterion 5: cognizant scheme at 0.7x threshold, n = 16, 24, 32."""

    name = "criterion5"
    workers = 0  # runs in this process
    SNR, RH, EPS = 3.0, 0.5, 0.1
    BLOCKLENGTHS = (16, 24, 32)
    RECORDED = 24  # keeps records and diagnostics, as the acceptance fixture does

    def __init__(self, seed, trials):
        ch = ChannelParams.from_snr(self.SNR)
        rate = 0.7 * achievable_rate_threshold(ch, self.RH, self.EPS)
        self.cfgs = {n: scheme.config_from_rates(n, rate, self.RH, ch, seed, eps=self.EPS,
                                                 trials=trials)
                     for n in self.BLOCKLENGTHS}

    def calls(self, setup=False):
        out = []
        for n, cfg in self.cfgs.items():
            recorded = n == self.RECORDED
            # Correlation diagnostics need at least two trials.
            trials = (2 if recorded else 1) if setup else cfg.trials
            out.append(Call(trials, functools.partial(
                _simulate, replace(cfg, trials=trials), recorded, recorded)))
        return out

    def check(self, outputs):
        by_n = dict(zip(self.BLOCKLENGTHS, outputs))
        for n, s in by_n.items():
            if s is not None:
                checks.check_summary(f"n={n}", s, self.cfgs[n])
        s24 = by_n[self.RECORDED]
        if s24 is not None:
            cfg = self.cfgs[self.RECORDED]
            checks.check_error_law("n=24", s24, 24, cfg.message_bits)
            checks.check_noise_energy("n=24", s24, 24)
            checks.check_angle_chain("n=24", s24, 24, self.SNR, cfg.helper_rate, self.EPS)
            checks.check_correlation_budget("n=24", s24, 24, cfg.helper_rate)
        if by_n[16] is not None and by_n[32] is not None:
            checks.check_decay(by_n[16], by_n[32])


class ExhaustiveDecode:
    """Cognizant scheme with 2^12 messages, the auto route's exhaustive limit."""

    name = "exhaustive-decode"
    workers = 0
    SNR, RH, N, RATE = 3.0, 0.25, 12, 1.0

    def __init__(self, seed, trials):
        ch = ChannelParams.from_snr(self.SNR)
        self.cfg = scheme.config_from_rates(self.N, self.RATE, self.RH, ch, seed, trials=trials)

    def calls(self, setup=False):
        trials = 1 if setup else self.cfg.trials
        return [Call(trials, functools.partial(
            _simulate, replace(self.cfg, trials=trials), True, False))]

    def check(self, outputs):
        (s,) = outputs
        if s is None:
            return
        checks.check_summary(f"n={self.N}", s, self.cfg)
        checks.check_error_law(f"n={self.N}", s, self.N, self.cfg.message_bits)
        checks.check_noise_energy(f"n={self.N}", s, self.N)


class FeedbackSweep:
    """`gausshelp sweep` on a fixed feedback grid, in-process, CSV under --repro."""

    name = "feedback-sweep"
    SNRS, RHS, BLOCKLENGTHS, FRACTIONS = (1.0, 3.0), (0.5,), (8, 12, 16), (0.4, 0.7)

    def __init__(self, seed, workdir, trials, workers=None):
        self.trials = trials
        self.workers = workers or min(2, os.cpu_count() or 1)
        self.cells = [(snr, rh, n, f) for snr in self.SNRS for rh in self.RHS
                      for n in self.BLOCKLENGTHS for f in self.FRACTIONS]
        self.first_csv = None
        self.sweeps = {t: self._write_config(workdir, seed, t) for t in (1, trials)}

    def _write_config(self, workdir, seed, trials):
        """Write the grid config for `trials` trials per cell; return (argv, CSV path)."""
        def join(values):
            return ", ".join(str(v) for v in values)

        config = os.path.join(workdir, f"grid-{trials}.conf")
        with open(config, "w") as fh:
            fh.write(f"snr = {join(self.SNRS)}\n"
                     f"helper_rate_bits = {join(self.RHS)}\n"
                     f"blocklength = {join(self.BLOCKLENGTHS)}\n"
                     f"rate_fraction = {join(self.FRACTIONS)}\n"
                     f"trials = {trials}\nseed = {seed}\nscheme = feedback\n")
        out = os.path.join(workdir, f"sweep-{trials}.csv")
        return ["sweep", "--config", config, "--out", out, "--workers", str(self.workers),
                "--repro"], out

    def _sweep(self, trials):
        argv, out = self.sweeps[trials]
        code = cli.cli(argv)
        if code != 0:
            raise RuntimeError(f"gausshelp {' '.join(argv)} exited with {code}")
        return out

    def calls(self, setup=False):
        trials = 1 if setup else self.trials
        return [Call(trials * len(self.cells), functools.partial(self._sweep, trials))]

    def check(self, outputs):
        (path,) = outputs
        if path is None:
            return
        with open(path, "rb") as fh:
            data = fh.read()
        checks.check_sweep_csv(data.decode(), self.cells, self.trials)
        if self.first_csv is None:
            self.first_csv = data
        elif data != self.first_csv:
            raise checks.CheckError("repeated sweep wrote a different CSV")


def make(name, seed, workdir, workers=None, scale=1.0):
    """Build a workload by name with its trials per cell; `scale` shrinks them (for tests)."""
    def trials(full):
        return max(2, round(full * scale))

    if name == Criterion5.name:
        return Criterion5(seed, trials(10_000))
    if name == ExhaustiveDecode.name:
        return ExhaustiveDecode(seed, trials(1500))
    if name == FeedbackSweep.name:
        return FeedbackSweep(seed, workdir, trials(300), workers=workers)
    raise ValueError(f"unknown workload {name!r}")


NAMES = (Criterion5.name, ExhaustiveDecode.name, FeedbackSweep.name)
