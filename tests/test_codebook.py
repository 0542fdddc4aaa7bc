import math

import numpy as np
import pytest

from gausshelp.capacity import ChannelParams
from gausshelp.codebook import (
    CodebookSizeError,
    HelperCodebook,
    build_base_codebook,
    covering_deficiency,
    derive_seed,
    dump_codebook,
    haar_rotation,
    haar_rotations,
    load_codebook,
    message_codebook,
    sample_sphere,
)

CH = ChannelParams(power=2.0, noise_var=1.0)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, 7) == derive_seed(42, 7)

    def test_distinct_for_nearby_inputs(self):
        seeds = {derive_seed(42, i) for i in range(1000)}
        seeds |= {derive_seed(43, i) for i in range(1000)}
        assert len(seeds) == 2000

    def test_fits_64_bits(self):
        for i in range(100):
            assert 0 <= derive_seed(2**64 - 1, i) < 2**64


class TestHaarRotation:
    def test_deterministic(self):
        a = haar_rotation(8, 123)
        b = haar_rotation(8, 123)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("n", [2, 8, 64])
    def test_orthonormal(self, n):
        r = haar_rotation(n, 99)
        assert np.max(np.abs(r.T @ r - np.eye(n))) < 1e-10

    def test_dimension_check(self):
        with pytest.raises(ValueError):
            haar_rotation(1, 0)

    @pytest.mark.parametrize("n", [2, 12, 32])
    def test_stack_is_bitwise_the_single_seed_rotations(self, n):
        seeds = [derive_seed(7, i) for i in range(40)]
        stack = haar_rotations(n, seeds)
        assert stack.shape == (40, n, n)
        for seed, rot in zip(seeds, stack):
            # the unbatched 2-D QR of the same draw, sign-fixed
            q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
            assert np.array_equal(rot, q * np.where(np.diag(r) < 0, -1.0, 1.0))

    def test_image_of_basis_vector_is_uniform(self):
        # first coordinate of R e1 should match the uniform-on-sphere moments
        n, trials = 16, 3000
        coords = np.array([haar_rotation(n, derive_seed(5, i))[0, 0] for i in range(trials)])
        se_mean = math.sqrt(1.0 / (n * trials))
        assert abs(coords.mean()) < 3.0 * se_mean
        var_sq = 2.0 * (n - 1) / (n * n * (n + 2))  # Var[u1^2] on the sphere
        se_sq = math.sqrt(var_sq / trials)
        assert abs(np.mean(coords**2) - 1.0 / n) < 3.0 * se_sq


class TestBuildBaseCodebook:
    def test_sizes_and_norms(self):
        cb = build_base_codebook(8, CH, 0.25, 0.1, seed=1)
        assert cb.help_size == 4
        norms_sq = np.sum(cb.base_points**2, axis=1)
        assert np.allclose(norms_sq, 8 * CH.power, rtol=1e-10)

    def test_deterministic(self):
        a = build_base_codebook(8, CH, 0.5, 0.1, seed=77)
        b = build_base_codebook(8, CH, 0.5, 0.1, seed=77)
        assert np.array_equal(a.base_points, b.base_points)
        assert a.rotation_seed_base == b.rotation_seed_base

    def test_eps_domain(self):
        with pytest.raises(ValueError):
            build_base_codebook(8, CH, 0.5, 0.5, seed=1)

    def test_size_cap(self):
        with pytest.raises(CodebookSizeError):
            build_base_codebook(4, CH, 16.0, 0.1, seed=1)


class TestMessageCodebook:
    def test_identity_rotation_hook(self):
        cb = build_base_codebook(8, CH, 0.5, 0.1, seed=3)
        pts = message_codebook(cb, 0, rotation=np.eye(8))
        assert np.allclose(pts, cb.base_points)

    def test_pairwise_angles_preserved(self):
        cb = build_base_codebook(8, CH, 0.5, 0.1, seed=3)
        base_gram = cb.base_points @ cb.base_points.T
        rot_pts = message_codebook(cb, 12345)
        assert np.max(np.abs(rot_pts @ rot_pts.T - base_gram)) < 1e-8

    def test_fixed_help_index_across_messages_is_uniform(self):
        cb = build_base_codebook(16, CH, 0.25, 0.1, seed=9)
        n, scale = 16, math.sqrt(16 * CH.power)
        entries = np.array([message_codebook(cb, m)[2] / scale for m in range(1000)])
        se = math.sqrt(1.0 / (n * entries.size))
        assert abs(entries.mean()) < 3.0 * se


def _manual_circle_codebook(angles, power=0.5):
    # radius sqrt(n*P) = 1 for n=2, P=0.5
    pts = np.array([[math.cos(a), math.sin(a)] for a in angles])
    return HelperCodebook(blocklength=2, power=power, help_size=len(angles),
                          base_points=pts, rotation_seed_base=17)


def _uncovered_arc_fraction(angles, theta0):
    """Oracle: exact fraction of the circle outside every cap, by arc arithmetic."""
    intervals = []
    for a in angles:
        lo, hi = a - theta0, a + theta0
        intervals.append((lo % (2 * math.pi), hi % (2 * math.pi)))
    # unwrap into non-wrapping intervals
    flat = []
    for lo, hi in intervals:
        if lo <= hi:
            flat.append((lo, hi))
        else:
            flat.append((lo, 2 * math.pi))
            flat.append((0.0, hi))
    flat.sort()
    covered = 0.0
    cur_lo, cur_hi = flat[0]
    for lo, hi in flat[1:]:
        if lo > cur_hi:
            covered += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    covered += cur_hi - cur_lo
    return 1.0 - covered / (2 * math.pi)


class TestCoveringDeficiency:
    def test_whole_sphere_cap(self):
        cb = _manual_circle_codebook([0.3])
        est = covering_deficiency(cb, math.pi, probes=2000, seed=1)
        assert est.fraction == 0.0

    def test_two_antipodal_halves(self):
        cb = _manual_circle_codebook([0.0, math.pi])
        est = covering_deficiency(cb, math.pi / 2, probes=5000, seed=2)
        assert est.fraction == 0.0

    def test_circle_arc_oracle(self):
        rng = np.random.default_rng(31)
        angles = sorted(rng.uniform(0, 2 * math.pi, size=4))
        theta0 = math.pi / 6
        want = _uncovered_arc_fraction(angles, theta0)
        assert want > 0.0  # 4 caps of total measure 4*pi/3 < 2*pi can miss
        cb = _manual_circle_codebook(angles)
        est = covering_deficiency(cb, theta0, probes=100_000, seed=3)
        se = math.sqrt(want * (1.0 - want) / est.probes)
        assert abs(est.fraction - want) < 3.0 * se
        assert est.ci_low <= est.fraction <= est.ci_high

    def test_union_bound(self):
        from gausshelp.geometry import cap_ratio_exact, theta0 as theta0_of

        cb = build_base_codebook(8, CH, 0.5, 0.1, seed=5)
        t0 = theta0_of(0.5, 0.1)
        est = covering_deficiency(cb, t0, probes=100_000, seed=6)
        lower = 1.0 - cb.help_size * cap_ratio_exact(8, t0)
        se = math.sqrt(max(est.fraction, 1e-9) * (1 - est.fraction) / est.probes)
        assert est.fraction >= lower - 3.0 * se

    def test_rotation_invariance_matched_probes(self):
        cb = build_base_codebook(6, CH, 0.5, 0.1, seed=8)
        t0 = 0.9
        rot = cb.rotation(4)
        dirs = sample_sphere(6, 20_000, np.random.default_rng(10))
        unit_base = cb.base_points / np.linalg.norm(cb.base_points, axis=1, keepdims=True)
        unit_msg = message_codebook(cb, 4) / math.sqrt(6 * CH.power)
        miss_base = np.count_nonzero((dirs @ unit_base.T).max(axis=1) < math.cos(t0))
        miss_msg = np.count_nonzero(((dirs @ rot.T) @ unit_msg.T).max(axis=1) < math.cos(t0))
        assert miss_base == miss_msg

    def test_probe_count_validated(self):
        cb = _manual_circle_codebook([0.0])
        with pytest.raises(ValueError):
            covering_deficiency(cb, 1.0, probes=0, seed=0)


class TestDump:
    def test_roundtrip(self, tmp_path):
        cb = build_base_codebook(8, CH, 0.5, 0.1, seed=44)
        path = tmp_path / "codebook.bin"
        dump_codebook(cb, path)
        back = load_codebook(path)
        assert back.blocklength == cb.blocklength
        assert back.power == cb.power
        assert back.help_size == cb.help_size
        assert back.rotation_seed_base == cb.rotation_seed_base
        assert np.array_equal(back.base_points, cb.base_points)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not a codebook dump at all, certainly")
        with pytest.raises(ValueError):
            load_codebook(path)
