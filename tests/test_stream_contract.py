"""Stream contract 5 against the construction of contract 1, in law.

Contract 1 drew each trial's noise z in the channel frame from a generator of
its own and undid message m's rotation, w = R_m^T z.  Contract 2 drew w
directly from the trial's generator; contract 3 draws the w of a whole engine
chunk from one generator.  Contracts 1 to 3 drew R_m's Gaussian entries from
default_rng(derive_seed(rotation_seed_base, m)) and took R_m as the QR
factor of that matrix; contract 4 maps SplitMix64 words to the entries
through the normal quantile, and contract 5 builds R_m from n(n+1)/2 such
normals as Stewart's product of reflectors.  All give IID w ~ N(0, sigma^2 I)
and Haar R_m, so every per-trial outcome has the same law; the tests here
rebuild contract 1, rotations included, and compare the two samples, check
that the analytic route forms no rotation at all, rebuild the base codebook
and the sub-seeds from their seeds, and keep the documents that state the
contract in step with scheme.STREAM_CONTRACT.
"""

import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import ks_2samp

from gausshelp import codebook, scheme
from gausshelp.capacity import ChannelParams
from gausshelp.codebook import derive_seed, derive_seeds
from gausshelp.converse import CorrelationSums, estimator_slack
from gausshelp.geometry import cap_ratio_exact
from gausshelp.harness import SweepSpec, cell_config
from gausshelp.results import wilson_interval
from gausshelp.scheme import (
    build_codebook,
    config_from_rates,
    draw_messages,
    plan,
    simulate,
)

CH = ChannelParams.from_snr(3.0)
TRIALS = 4000


def _angles(x, y):
    cos = np.einsum("ki,ki->k", x, y) / (np.linalg.norm(x, axis=1) * np.linalg.norm(y, axis=1))
    return np.arccos(np.clip(cos, -1.0, 1.0))


def v1_rotations(n, seed_base, messages):
    """Contract 1's R_m for each m: the sign-fixed QR factor of an n x n standard
    normal draw from default_rng(derive_seed(seed_base, m))."""
    rot = np.empty((len(messages), n, n))
    for out, m in zip(rot, messages):
        q, r = np.linalg.qr(np.random.default_rng(derive_seed(seed_base, m)).standard_normal((n, n)))
        out[:] = q * np.where(np.diag(r) < 0, -1.0, 1.0)
    return rot


def contract_v1(cfg):
    """Helper angle, decode angle, miss and error per trial, drawn the contract-1 way,
    and the correlation profile of the trials' inputs and noises.

    Trial i draws z, then (analytic route) the error uniform, from
    default_rng(derive_seed(noise_seed, i)); w = R_m^T z with R_m from
    v1_rotations, as is the exhaustive decoder's candidate stack.
    """
    cb = build_codebook(cfg)
    n, trials = cfg.blocklength, cfg.trials
    n_messages = 1 << cfg.message_bits
    messages = draw_messages(cfg)
    sigma = np.sqrt(cfg.channel.noise_var)
    z = np.empty((trials, n))
    u_err = np.empty(trials)
    for i, seed in enumerate(derive_seeds(cfg.noise_seed, range(trials))):
        rng = np.random.default_rng(int(seed))
        z[i] = rng.standard_normal(n) * sigma
        u_err[i] = rng.random()
    rot = v1_rotations(n, cb.rotation_seed_base, messages)
    w = np.einsum("kji,kj->ki", rot, z)

    cos = (w @ cb.base_points.T) / (np.sqrt(n * cb.power) * np.linalg.norm(z, axis=1))[:, None]
    t = cos.argmax(axis=1)
    helper_angle = np.arccos(np.clip(cos[np.arange(trials), t], -1.0, 1.0))
    x = np.einsum("kij,kj->ki", rot, cb.base_points[t])
    y = x + z
    decode_angle = _angles(x, y)
    if plan(cfg).route != "analytic":
        stack = v1_rotations(n, cb.rotation_seed_base, range(n_messages))
        decoded = np.array([int(np.argmax((stack @ cb.base_points[ti]) @ yi))
                            for ti, yi in zip(t, y)])
        error = decoded != np.array(messages)
    else:
        c = cap_ratio_exact(n, decode_angle)
        error = u_err < -np.expm1((n_messages - 1) * np.log1p(-c))
    sums = CorrelationSums()
    sums.add(x, z)
    return helper_angle, decode_angle, helper_angle > cfg.theta0_rad, error, sums.profile()


def assert_rates_agree(count_a, count_b, trials):
    lo_a, hi_a = wilson_interval(int(count_a), trials)
    lo_b, hi_b = wilson_interval(int(count_b), trials)
    assert lo_a <= hi_b and lo_b <= hi_a, (count_a, count_b)


@pytest.mark.parametrize("n, rate, seed", [(16, 1.2, 21), (10, 0.9, 22)],
                         ids=["analytic-n16", "exhaustive-n10"])
def test_current_contract_has_the_law_of_v1(n, rate, seed):
    cfg = config_from_rates(n, rate, 0.5, CH, seed=seed, eps=0.1, trials=TRIALS)
    assert (plan(cfg).route != "analytic") == (n == 10)
    current = simulate(cfg, keep_records=True, diagnostics=True)
    # an independent noise stream, so the two samples are independent
    helper_angle, decode_angle, miss, error, profile = contract_v1(
        replace(cfg, noise_seed=derive_seed(cfg.noise_seed, 1)))

    records = current.records
    assert ks_2samp([r.helper_angle for r in records], helper_angle).pvalue > 0.01
    assert ks_2samp([r.decode_angle for r in records], decode_angle).pvalue > 0.01
    assert_rates_agree(sum(r.covering_miss for r in records), miss.sum(), TRIALS)
    assert_rates_agree(sum(r.error for r in records), error.sum(), TRIALS)
    assert 0 < error.sum() < TRIALS
    corr_sum = float(np.sum(profile.per_index_rho ** 2))
    slack = estimator_slack(current.corr_profile) + estimator_slack(profile)
    assert abs(current.corr_sum - corr_sum) <= slack, (current.corr_sum, corr_sum, slack)


def test_analytic_route_forms_no_rotation(monkeypatch):
    def refuse(*args, **kwargs):
        raise RuntimeError("a rotation was formed")

    # neither the full matrices, for a stack or one message, nor the
    # reflectors the diagnostics apply
    monkeypatch.setattr(codebook, "haar_rotations", refuse)
    monkeypatch.setattr(scheme, "haar_rotations", refuse)
    monkeypatch.setattr(codebook, "_reflectors", refuse)
    cfg = config_from_rates(16, 1.2, 0.5, CH, seed=21, eps=0.1, trials=300)
    assert plan(cfg).route == "analytic"
    assert simulate(cfg).trials == 300
    # the diagnostics' x and z live in the channel frame, so they need R_m
    with pytest.raises(RuntimeError, match="rotation was formed"):
        simulate(cfg, diagnostics=True)


def test_the_codebook_is_rebuilt_from_its_seed():
    # The n = 29, R_h = 0.5 cell (15 helper bits): one (2^15, 29) standard
    # normal block from default_rng(derive_seed(codebook_seed, 0)), each row
    # scaled to norm sqrt(n P), and the rotations' seed base
    # derive_seed(codebook_seed, 1).
    cfg = config_from_rates(29, 1.29, 0.5, CH, seed=5, eps=0.05, trials=1)
    rng = np.random.default_rng(derive_seed(cfg.codebook_seed, 0))
    points = rng.standard_normal((1 << cfg.helper_bits, 29))
    points /= np.linalg.norm(points, axis=1, keepdims=True)
    points *= np.sqrt(29 * CH.power)
    cb = build_codebook(cfg)
    assert cb.help_size == 1 << 15
    assert np.array_equal(cb.base_points, points)
    assert cb.rotation_seed_base == derive_seed(cfg.codebook_seed, 1)


def test_sub_seeds_are_derived_from_the_base_seed():
    # config_from_rates takes derive_seed(seed, 1 | 2 | 3); a sweep cell's
    # seed is derive_seed folded over its grid coordinates.
    cfg = config_from_rates(29, 1.29, 0.5, CH, seed=5, eps=0.05, trials=1)
    assert (cfg.codebook_seed, cfg.noise_seed, cfg.message_seed) == tuple(
        derive_seed(5, i) for i in (1, 2, 3))
    spec = SweepSpec(snr=(1.0, 3.0), helper_rate=(0.25, 0.5), blocklength=(8, 12),
                     rate_fraction=(0.5, 0.7), trials=1, base_seed=7)
    seed = 7
    for coord in (1, 0, 1, 1):
        seed = derive_seed(seed, coord)
    assert cell_config(spec, 1, 0, 1, 1).base_seed == seed


README = Path(__file__).resolve().parent.parent / "README.md"


def test_the_documents_state_the_current_contract():
    # Where the README says which contract the engine runs on, it names the
    # current one, as do its streams section's heading and the scheme
    # docstring; its history paragraph reaches it.
    n = scheme.STREAM_CONTRACT
    text = README.read_text()
    assert set(re.findall(r"on stream contract (\d+)", text)) == {str(n)}
    assert re.findall(r"^Contract (\d+)'s streams", text, re.M) == [str(n)]
    history = next(p for p in text.split("\n\n") if p.startswith("Contract 1 drew"))
    mentioned = {int(c) for c in re.findall(r"[Cc]ontracts? (\d+)", history)}
    assert mentioned == set(range(1, n + 1)), mentioned
    assert f"compares contract {n} with" in " ".join(history.split())
    assert re.findall(r"Stream contract STREAM_CONTRACT = (\d+)", scheme.__doc__) == [str(n)]
