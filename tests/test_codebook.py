import math
import statistics

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special
from scipy.stats import beta, kstest

from gausshelp import codebook, search
from gausshelp.capacity import ChannelParams
from gausshelp.geometry import theta0 as theta0_of
from gausshelp.codebook import (
    CodebookSizeError,
    HelperCodebook,
    build_base_codebook,
    covering_deficiency,
    derive_seed,
    derive_seeds,
    haar_rotation,
    haar_rotations,
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


class TestDeriveSeeds:
    BASES = (0, 1, 12345, 2**63 - 1, 2**63, 2**63 + 987654321, 2**64 - 1)
    INDICES = (0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 2, 2**64 - 1, 2**64, 2**64 + 5,
               2**74 - 1, 2**74 + 3)

    @pytest.mark.parametrize("base", BASES)
    def test_equals_derive_seed(self, base):
        got = derive_seeds(base, self.INDICES)
        assert got.dtype == np.uint64
        assert got.tolist() == [derive_seed(base, i) for i in self.INDICES]

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**64 - 1), st.lists(st.integers(0, 2**80), max_size=20))
    def test_equals_derive_seed_sampled(self, base, indices):
        assert derive_seeds(base, indices).tolist() == [derive_seed(base, i) for i in indices]

    def test_range_input(self):
        # either side of the arange path's bound 2^63, steps and empty ranges
        for indices in (range(5, 9), range(0, 144), range(2**63 - 3, 2**63),
                        range(2**63 - 2, 2**63 + 2), range(2**74, 2**74 + 3), range(9, 3, -2),
                        range(4, 4)):
            assert derive_seeds(7, indices).tolist() == [derive_seed(7, i) for i in indices]

    def test_broadcasts_over_an_array_of_bases(self):
        got = derive_seeds(np.array(self.BASES, dtype=np.uint64), self.INDICES)
        assert got.shape == (len(self.BASES), len(self.INDICES))
        assert got.tolist() == [[derive_seed(b, i) for i in self.INDICES] for b in self.BASES]


_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def contract_draw(n, seed, inv_cdf=special.ndtri):
    """Seed's n(n+1)/2 Gaussian normals, one by one from stream contract 5.

    Normal k is inv_cdf(((derive_seed(seed, k) >> 12) + 1/2) * 2^-52),
    formed with the scalar derive_seed, not with the code under test.
    """
    return np.array([float(inv_cdf(((derive_seed(seed, k) >> 12) + 0.5) * 2.0**-52))
                     for k in range(n * (n + 1) // 2)])


def stewart_rotation(n, seed):
    """Seed's rotation under stream contract 5, a product of explicit n x n matrices.

    With x_k = normals k(k-1)/2 .. k(k+1)/2 - 1 of contract_draw, s_k the
    sign of x_k[0] (0 counted positive) and H_k = I - u u^T / (|x_k|
    (|x_k| + |x_k[0]|)), u = x_k + s_k |x_k| e_1, factor k is
    diag(I_(n-k), H_k diag(-s_k, I_(k-1))), and R = F_n F_(n-1) ... F_1
    (F_1 = diag(I_(n-1), s_1), since H_1 = -1).
    """
    g = contract_draw(n, seed)
    rot = np.eye(n)
    for k in range(n, 0, -1):
        x = g[k * (k - 1) // 2:k * (k + 1) // 2]
        s = -1.0 if x[0] < 0 else 1.0
        norm = np.linalg.norm(x)
        u = x + s * norm * np.eye(k)[0]
        f = np.eye(n)
        f[n - k:, n - k:] = ((np.eye(k) - np.outer(u, u) / (norm * (norm + abs(x[0]))))
                             @ np.diag([-s] + [1.0] * (k - 1)))
        rot = rot @ f
    return rot


def _unshift(y, s):
    # Inverse of y = x ^ (x >> s) on 64-bit words.
    x = y
    for _ in range(64 // s + 1):
        x = y ^ (x >> s)
    return x


def seed_whose_first_word_is(word):
    """The seed s with derive_seed(s, 0) == word, by inverting the SplitMix64 finalizer."""
    x = _unshift(word, 31)
    x = (x * pow(0x94D049BB133111EB, -1, 1 << 64)) & _MASK64
    x = _unshift(x, 27)
    x = (x * pow(0xBF58476D1CE4E5B9, -1, 1 << 64)) & _MASK64
    x = _unshift(x, 30)
    return (x - _GAMMA) & _MASK64


@pytest.fixture
def drawn(monkeypatch):
    """The normals codebook._normal_draw hands the rotation code, in call order."""
    draws, draw = [], codebook._normal_draw

    def capture(*args):
        g = draw(*args)
        draws.append(g.copy())
        return g

    monkeypatch.setattr(codebook, "_normal_draw", capture)
    return draws


class TestRotationDraw:
    SEEDS = (0, 1, 2**32, 2**63, 2**64 - 1, 0x0123456789ABCDEF)

    @pytest.mark.parametrize("n", [2, 12, 32])
    def test_matches_an_independent_oracle(self, n, drawn):
        haar_rotations(n, list(self.SEEDS))
        inv_cdf = statistics.NormalDist().inv_cdf
        (g,) = drawn
        assert g.shape == (len(self.SEEDS), n * (n + 1) // 2)
        for row, seed in zip(g, self.SEEDS):
            want = contract_draw(n, seed, inv_cdf)
            assert np.allclose(row, want, rtol=1e-12, atol=0), seed

    @pytest.mark.parametrize("word, sign", [(0, -1.0), (2**64 - 1, 1.0)])
    def test_extreme_words_map_to_finite_normals(self, word, sign, drawn):
        seed = seed_whose_first_word_is(word)
        assert derive_seed(seed, 0) == word
        rot = haar_rotation(4, seed)
        first = drawn[0][0, 0]
        assert np.isfinite(first) and abs(first - sign * 8.20953615) < 1e-8
        assert np.max(np.abs(rot.T @ rot - np.eye(4))) < 1e-12
        # normal 0 is x_1, so it sets s_1 and no other entry
        assert np.max(np.abs(rot - stewart_rotation(4, seed))) < 1e-13

    def test_entries_are_standard_normal(self, drawn):
        haar_rotations(10, derive_seeds(17, range(1000)))
        assert kstest(drawn[0].ravel(), "norm").pvalue > 0.01

    def test_entries_are_uncorrelated(self, drawn):
        # neighbours within a draw, and the same normal of consecutive messages
        haar_rotations(16, derive_seeds(29, range(800)))
        g = drawn[0]
        assert g.shape == (800, 136)
        for a, b in ((g[:, :-1], g[:, 1:]), (g[:-1], g[1:])):
            r = np.corrcoef(a.ravel(), b.ravel())[0, 1]
            assert abs(r) < 4.0 / math.sqrt(a.size), r


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
            assert np.array_equal(rot, haar_rotation(n, seed))
            # the product of the contract's explicit reflector matrices
            assert np.max(np.abs(rot - stewart_rotation(n, seed))) < 1e-13
            # whose first column is x_n / |x_n|
            x_n = contract_draw(n, seed)[-n:]
            assert np.max(np.abs(rot[:, 0] - x_n / np.linalg.norm(x_n))) < 1e-15

    def test_codebook_rotations_are_its_per_message_rotations(self):
        cb = build_base_codebook(6, CH, 3, seed=3)
        messages = [0, 5, 2**70]
        for m, rot in zip(messages, cb.rotations(messages)):
            assert np.array_equal(rot, cb.rotation(m))
        with pytest.raises(ValueError):
            cb.rotations([-1])

    @pytest.mark.parametrize("messages, least", [
        (range(-3, 2), -3), (range(4, -3, -2), -2), ([0, 2**70, -1], -1), ([5, -2**70], -2**70)])
    def test_negative_messages_refused(self, messages, least):
        cb = build_base_codebook(6, CH, 3, seed=3)
        for call in (cb.rotations, lambda ms: cb.rotate(ms, np.zeros((len(ms), 6)))):
            with pytest.raises(ValueError,
                               match=f"^message indices must be nonnegative, got {least}$"):
                call(messages)
        assert len(cb.rotations(range(0))) == len(cb.rotations([])) == 0

    def test_image_of_basis_vector_is_uniform(self):
        # first coordinate of R e1 should match the uniform-on-sphere moments
        n, trials = 16, 3000
        coords = np.array([haar_rotation(n, derive_seed(5, i))[0, 0] for i in range(trials)])
        se_mean = math.sqrt(1.0 / (n * trials))
        assert abs(coords.mean()) < 3.0 * se_mean
        var_sq = 2.0 * (n - 1) / (n * n * (n + 2))  # Var[u1^2] on the sphere
        se_sq = math.sqrt(var_sq / trials)
        assert abs(np.mean(coords**2) - 1.0 / n) < 3.0 * se_sq


class TestHaarLaw:
    """The rotations' law against Haar measure on O(n).

    For Haar Q, tr Q has mean 0 and variance 1, and tr Q^2 mean 1 and
    variance 2 (Diaconis & Shahshahani, J. Appl. Probab. 31A, 1994: exact
    once n exceeds the moment's degree, and at n = 2 by direct computation
    over O(2)); each column is uniform on the sphere, and det Q = +-1 with
    probability 1/2 each.  Every bound is 4.5 standard errors of its
    estimate.
    """

    TRIALS = 20_000

    @staticmethod
    def stats(n, trials):
        tr, tr_sq, first, det = [], [], [], []
        for lo in range(0, trials, 500):
            q = haar_rotations(n, derive_seeds(41, range(lo, min(lo + 500, trials))))
            tr.append(np.trace(q, axis1=1, axis2=2))
            tr_sq.append(np.einsum("kij,kji->k", q, q))
            first.append(q[:, :, 0].copy())
            det.append(np.linalg.det(q))
        return tuple(np.concatenate(a) for a in (tr, tr_sq, first, det))

    @pytest.mark.parametrize("n", [2, 12, 32])
    def test_trace_moments_determinant_and_first_column(self, n):
        t = self.TRIALS
        tr, tr_sq, first, det = self.stats(n, t)
        # the variances of (tr Q)^2 and (tr Q^2 - 1)^2 are 2 and 8 in the
        # normal limit (2 and 6 at n = 2)
        assert abs(tr.mean()) < 4.5 * math.sqrt(1.0 / t)
        assert abs(np.mean(tr**2) - 1.0) < 4.5 * math.sqrt(2.0 / t)
        assert abs(tr_sq.mean() - 1.0) < 4.5 * math.sqrt(2.0 / t)
        assert abs(np.mean((tr_sq - 1.0) ** 2) - 2.0) < 4.5 * math.sqrt(8.0 / t)
        assert np.max(np.abs(np.abs(det) - 1.0)) < 1e-12
        assert abs(np.count_nonzero(det > 0) - t / 2) < 4.5 * math.sqrt(t / 4)
        # the first column, projected on e_1 and on a fixed random direction:
        # u_1^2 ~ Beta(1/2, (n-1)/2) for u uniform on the sphere, with either sign
        a = np.random.default_rng(n).standard_normal(n)
        for proj in (first[:, 0], first @ (a / np.linalg.norm(a))):
            assert kstest(proj**2, beta(0.5, (n - 1) / 2).cdf).pvalue > 1e-3
            assert abs(np.count_nonzero(proj > 0) - t / 2) < 4.5 * math.sqrt(t / 4)


def _reflector_apply(n, seeds, x, transpose):
    """R_j x_j (or R_j^T x_j) for each row j, with R_j = stewart_rotation(n, seeds[j]).

    An independent construction of haar_rotations and of the reflector steps:
    the explicit product of the contract's n x n reflector matrices.
    """
    rot = np.array([stewart_rotation(n, int(seed)) for seed in seeds])
    return np.einsum("kji,kj->ki" if transpose else "kij,kj->ki", rot, x)


def seeded_codebook(n, rotation_seed_base):
    """A one-point codebook whose message m rotates by derive_seed(rotation_seed_base, m)."""
    return HelperCodebook(n, CH.power, 1, np.zeros((1, n)), rotation_seed_base)


class TestHaarReflectors:
    @pytest.mark.parametrize("n", [*range(2, 41), 64, 128, 256])
    def test_products_match_the_rotation_stack(self, n):
        count = 9 if n <= 40 else 3  # the oracle takes n^4 flops per message
        seeds = derive_seeds(11, range(count))
        rot = haar_rotations(n, seeds)
        z = np.random.default_rng(n).standard_normal((count, n))
        refl_t = _reflector_apply(n, seeds, z, transpose=True)
        refl = _reflector_apply(n, seeds, z, transpose=False)
        assert np.max(np.abs(refl_t - np.einsum("kji,kj->ki", rot, z))) < 1e-13
        assert np.max(np.abs(refl - np.einsum("kij,kj->ki", rot, z))) < 1e-13
        # the production applier, on two vectors per message m < count (seed derive_seed(11, m))
        pairs = np.stack([z, z[::-1]], axis=1)
        applied = seeded_codebook(n, 11).rotate(range(count), pairs)
        assert np.max(np.abs(applied - np.einsum("kij,kpj->kpi", rot, pairs))) < 1e-13
        assert np.max(np.abs(applied[:, 0] - refl)) < 1e-13

    def test_codebook_reflectors_are_its_rotations(self):
        cb = build_base_codebook(6, CH, 3, seed=3)
        messages = [0, 5, 2**70]
        seeds = derive_seeds(cb.rotation_seed_base, messages)
        rot = cb.rotations(messages)
        for j, e in enumerate(np.eye(6)):
            column = _reflector_apply(6, seeds, np.tile(e, (3, 1)), transpose=False)
            assert np.max(np.abs(column - rot[:, :, j])) < 1e-14
        # row j of R_m I is R_m e_j, column j of R_m
        images = cb.rotate(messages, np.tile(np.eye(6), (3, 1, 1)))
        assert np.max(np.abs(images - rot.transpose(0, 2, 1))) < 1e-14
        for bad in (cb.rotations, lambda ms: cb.rotate(ms, np.zeros((1, 6)))):
            with pytest.raises(ValueError):
                bad([-1])

    @pytest.mark.parametrize("n", [2, 12, 24])
    def test_a_row_does_not_depend_on_the_rows_beside_it(self, n):
        # rotate applies every row's reflectors in one pass over all rows: a
        # row's result is bitwise the same in any order and any split.
        cb = seeded_codebook(n, 13)
        z = np.random.default_rng(n).standard_normal((50, 2, n))
        whole = cb.rotate(range(50), z)
        order = np.random.default_rng(n + 1).permutation(50)
        assert np.array_equal(cb.rotate(order.tolist(), z[order]), whole[order])
        for cut in (1, 23):
            parts = [cb.rotate(range(lo, hi), z[lo:hi]) for lo, hi in ((0, cut), (cut, 50))]
            assert np.array_equal(np.concatenate(parts), whole)


class TestBuildBaseCodebook:
    def test_in_place_scaling_is_bitwise_the_product(self):
        cb = build_base_codebook(8, CH, 4, seed=9)
        rng = np.random.default_rng(derive_seed(9, 0))
        want = sample_sphere(8, cb.help_size, rng) * math.sqrt(8 * CH.power)
        assert np.array_equal(cb.base_points, want)

    @pytest.mark.parametrize("block", [1, 3 * 8, 5 * 8 + 3, codebook.NORMALIZE_FLOATS])
    def test_blocked_normalization_is_bitwise_one_pass(self, monkeypatch, block):
        # Each row's norm is the same reduction in any block, so normalizing
        # block by block, a ragged last block included, gives the whole-array
        # pass's points.
        count = 2 * codebook.NORMALIZE_FLOATS // 8 + 7
        g = np.random.default_rng(4).standard_normal((count, 8))
        want = g / np.linalg.norm(g, axis=1, keepdims=True)
        monkeypatch.setattr(codebook, "NORMALIZE_FLOATS", block)
        got = sample_sphere(8, count, np.random.default_rng(4))
        assert got.tobytes() == want.tobytes()

    def test_sizes_and_norms(self):
        cb = build_base_codebook(8, CH, 2, seed=1)
        assert cb.help_size == 4
        norms_sq = np.sum(cb.base_points**2, axis=1)
        assert np.allclose(norms_sq, 8 * CH.power, rtol=1e-10)

    def test_deterministic(self):
        a = build_base_codebook(8, CH, 4, seed=77)
        b = build_base_codebook(8, CH, 4, seed=77)
        assert np.array_equal(a.base_points, b.base_points)
        assert a.rotation_seed_base == b.rotation_seed_base

    @pytest.mark.parametrize("n, bits, message", [
        (1, 10, "blocklength must be at least 2, got 1"),
        (8, -1, "helper bits must be nonnegative, got -1"),
    ])
    def test_blocklength_and_bits_domain(self, n, bits, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            build_base_codebook(n, CH, bits, seed=1)

    def test_size_cap(self):
        with pytest.raises(CodebookSizeError):
            build_base_codebook(4, CH, 64, seed=1)

    def test_size_cap_boundary_and_huge_codebooks(self, monkeypatch):
        # 2^5 points at n = 8 fill a cap of 256 floats exactly; 2^6 exceed
        # it; 2^16000 are refused without forming 2^16000 as a decimal string
        monkeypatch.setattr(codebook, "MAX_CODEBOOK_FLOATS", 8 << 5)
        assert build_base_codebook(8, CH, 5, seed=1).help_size == 32
        for bits in (6, 16000):
            with pytest.raises(CodebookSizeError, match=rf"^codebook of 2\^{bits} points in dim"):
                build_base_codebook(8, CH, bits, seed=1)


class TestMessageCodebook:
    """Message m's codebook, the base points under m's rotation (rows R_m b_t)."""

    def test_pairwise_angles_preserved(self):
        cb = build_base_codebook(8, CH, 4, seed=3)
        base_gram = cb.base_points @ cb.base_points.T
        rot_pts = cb.base_points @ cb.rotations([12345])[0].T
        assert np.max(np.abs(rot_pts @ rot_pts.T - base_gram)) < 1e-8

    def test_fixed_help_index_across_messages_is_uniform(self):
        cb = build_base_codebook(16, CH, 4, seed=9)
        n, scale = 16, math.sqrt(16 * CH.power)
        entries = cb.rotations(range(1000)) @ cb.base_points[2] / scale
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
        from gausshelp.geometry import cap_ratio_exact

        cb = build_base_codebook(8, CH, 4, seed=5)
        t0 = theta0_of(0.5, 0.1)
        est = covering_deficiency(cb, t0, probes=100_000, seed=6)
        lower = 1.0 - cb.help_size * cap_ratio_exact(8, t0)
        se = math.sqrt(max(est.fraction, 1e-9) * (1 - est.fraction) / est.probes)
        assert est.fraction >= lower - 3.0 * se

    def test_rotation_invariance_matched_probes(self):
        cb = build_base_codebook(6, CH, 3, seed=8)
        t0 = 0.9
        rot = cb.rotations([4])[0]
        dirs = sample_sphere(6, 20_000, np.random.default_rng(10))
        unit_base = cb.base_points / np.linalg.norm(cb.base_points, axis=1, keepdims=True)
        unit_msg = cb.base_points @ rot.T / math.sqrt(6 * CH.power)
        miss_base = np.count_nonzero((dirs @ unit_base.T).max(axis=1) < math.cos(t0))
        miss_msg = np.count_nonzero(((dirs @ rot.T) @ unit_msg.T).max(axis=1) < math.cos(t0))
        assert miss_base == miss_msg

    def test_tiled_scoring_equals_the_untiled_reference(self, monkeypatch):
        cb = build_base_codebook(8, CH, 6, seed=12)  # 64 points
        t0 = theta0_of(0.75, 0.1)
        # 7 codebook rows per tile for a block of 1000 probes: the tiles split the codebook.
        monkeypatch.setattr(search, "TILE_FLOATS", 7 * 1000)
        monkeypatch.setattr(codebook, "DEFICIENCY_CHUNK", 1000)
        est = covering_deficiency(cb, t0, probes=2500, seed=13)
        unit = cb.base_points / np.linalg.norm(cb.base_points, axis=1, keepdims=True)
        rng = np.random.default_rng(13)
        misses = sum(int(np.count_nonzero((sample_sphere(8, block, rng) @ unit.T).max(axis=1)
                                          < math.cos(t0)))
                     for block in (1000, 1000, 500))
        assert 0 < misses < 2500
        assert (est.misses, est.probes) == (misses, 2500)

    def test_probe_count_validated(self):
        cb = _manual_circle_codebook([0.0])
        with pytest.raises(ValueError):
            covering_deficiency(cb, 1.0, probes=0, seed=0)

