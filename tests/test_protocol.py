import itertools
import math

import numpy as np
import pytest

from renyinfo.dist import (
    CondPmf,
    JointPmf,
    Pmf,
    condition_on_x,
    iid_power,
    joint_from_channel,
    marginal_y,
)
from renyinfo.errors import (
    BetaOutOfFamilyRange,
    DomainMismatch,
    EnumerationCap,
    NonPowerOfTwoAlphabet,
)
from renyinfo.exponents import pa_exponent
from renyinfo import protocol
from renyinfo.measures import cond_entropy_variant, mutual_info_variant
from renyinfo.protocol import (
    PA_TIE_TOL,
    HashSpec,
    _channel_power,
    check_one_shot_sc_bound,
    m_from_rate,
    pa_apply_hash,
    pa_divergence,
    pa_min_divergence_exhaustive,
    pa_universal_family_divergence,
    sample_codebook,
    sc_expected_divergence_exact,
    sc_expected_divergence_mc,
)
from renyinfo.sampling import random_channel, random_joint, random_pmf
from renyinfo.two_param import h_tilde

from conftest import bsc_joint


class TestApplyHash:
    def test_identity_hash_relabels(self, rng):
        j = random_joint(rng, 3, 2)
        out = pa_apply_hash(j, HashSpec.identity(3))
        assert np.allclose(out.probs, j.probs)

    def test_constant_hash_collapses_to_marginal(self, rng):
        j = random_joint(rng, 3, 2)
        out = pa_apply_hash(j, HashSpec.constant(3))
        assert out.probs.shape == (1, 2)
        assert np.allclose(out.probs[0], marginal_y(j).probs)

    def test_xor_hash_on_uniform_pairs(self):
        j = JointPmf(("00", "01", "10", "11"), ("y",), [[0.25]] * 4)
        out = pa_apply_hash(j, HashSpec((0, 1, 1, 0), 2))
        assert np.allclose(out.probs.ravel(), [0.5, 0.5])

    def test_domain_mismatch(self, rng):
        j = random_joint(rng, 3, 2)
        with pytest.raises(DomainMismatch):
            pa_apply_hash(j, HashSpec((0, 1), 2))


class TestExhaustivePa:
    def test_independent_uniform_achieves_zero(self):
        j = JointPmf(("a", "b"), ("u", "v"), np.full((2, 2), 0.25))
        val, h = pa_min_divergence_exhaustive(j, 2, 0.5)
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_single_output_is_exactly_ideal(self, rng):
        j = random_joint(rng, 3, 2)
        for beta in (0.5, 1.0, 2.0):
            val, _ = pa_min_divergence_exhaustive(j, 1, beta)
            assert val == pytest.approx(0.0, abs=1e-12)

    def test_enumeration_cap(self, rng):
        j = random_joint(rng, 4, 2)
        with pytest.raises(EnumerationCap):
            pa_min_divergence_exhaustive(j, 10, 0.5, cap=100)

    @pytest.mark.parametrize("m", [0, -1])
    def test_rejects_empty_range(self, rng, m):
        with pytest.raises(ValueError, match="M >= 1"):
            pa_min_divergence_exhaustive(random_joint(rng, 3, 2), m, 0.5)

    def test_min_matches_scalar_recomputation(self, rng):
        j = random_joint(rng, 3, 2)
        val, h = pa_min_divergence_exhaustive(j, 2, 0.7)
        assert val == pytest.approx(pa_divergence(j, h, 0.7), abs=1e-12)

    def test_correlated_pairs_respect_one_shot_bound(self):
        j2 = iid_power(bsc_joint(0.1), 2)
        beta = 0.5
        val, _ = pa_min_divergence_exhaustive(j2, 2, beta)
        for alpha in (0.5, 0.7, 0.9, 0.99):
            bound = (beta * (1 - alpha)) / (alpha * (1 - beta)) * (
                1.0 - h_tilde(j2, (alpha, beta)).value
            )
            assert val >= bound - 1e-10

    def test_every_hash_respects_fidelity_bound(self, rng):
        # scaled divergence of each enumerated hash dominates both the
        # hashed-variable bound and the source bound
        j = random_joint(rng, 3, 2)
        beta, m = 0.4, 2
        for table in [(0, 0, 1), (0, 1, 0), (1, 0, 1), (0, 1, 1)]:
            h = HashSpec(table, m)
            induced = pa_apply_hash(j, h)
            d = pa_divergence(j, h, beta)
            for alpha in (0.4, 0.6, 0.9):
                scaled = (alpha * (1 - beta)) / (beta * (1 - alpha)) * d
                assert scaled >= math.log2(m) - h_tilde(induced, (alpha, beta)).value - 1e-10
                assert scaled >= math.log2(m) - h_tilde(j, (alpha, beta)).value - 1e-10


def _with_zero_cells(j, rng, frac=0.3):
    p = j.probs.copy()
    p[rng.random(p.shape) < frac] = 0.0
    if p.sum() == 0.0:
        p[0, 0] = 1.0
    return JointPmf(j.alphabet_x, j.alphabet_y, p / p.sum())


def _is_rgs(table):
    top = -1
    for z in table:
        if z > top + 1:
            return False
        top = max(top, z)
    return True


class TestExhaustivePaBruteForce:
    """The partition enumeration against every one of the M^|X| tables,
    each evaluated on its own through pa_divergence."""

    @staticmethod
    def _brute(j, m, beta):
        tables = itertools.product(range(m), repeat=len(j.alphabet_x))
        return [(pa_divergence(j, HashSpec(t, m), beta), t) for t in tables]

    def _check(self, j, m, beta):
        val, h = pa_min_divergence_exhaustive(j, m, beta)
        brute = self._brute(j, m, beta)
        lo = min(v for v, _ in brute)
        assert val == pytest.approx(lo, abs=1e-12), (m, beta)
        assert _is_rgs(h.table) and h.range_size == m
        assert pa_divergence(j, h, beta) == pytest.approx(val, abs=1e-12)
        # tie rule: the first RGS within PA_TIE_TOL of the minimum
        first = next(t for v, t in brute if _is_rgs(t) and v <= lo + PA_TIE_TOL)
        assert h.table == first, (m, beta)

    @pytest.mark.parametrize("beta", [0.0, 0.3, 0.5, 1.0, 2.0, math.inf])
    def test_random_joints_with_zero_cells(self, rng, beta):
        for nx, ny, m in ((4, 2, 2), (4, 3, 3), (5, 2, 3), (3, 3, 2)):
            j = random_joint(rng, nx, ny)
            self._check(j, m, beta)
            self._check(_with_zero_cells(j, rng), m, beta)

    @pytest.mark.parametrize("beta", [0.0, 0.3, 0.5, 1.0, 2.0, math.inf])
    def test_single_output_more_outputs_than_symbols_and_one_symbol(self, rng, beta):
        j = random_joint(rng, 3, 2)
        for m in (1, 4, 5):
            self._check(j, m, beta)
        for m in (1, 2, 3):
            self._check(random_joint(rng, 1, 3), m, beta)

    def test_two_fold_power(self, rng):
        j2 = iid_power(_with_zero_cells(random_joint(rng, 2, 2), rng), 2)
        for beta in (0.3, 1.0, 2.0):
            self._check(j2, 3, beta)

    def test_exact_ties_return_first_string(self):
        # all four rows equal: every partition into two blocks of two ties
        j = JointPmf(("a", "b", "c", "d"), ("u", "v"), [[0.1, 0.15]] * 4)
        val, h = pa_min_divergence_exhaustive(j, 2, 0.5)
        assert h.table == (0, 0, 1, 1)
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_near_ties_return_first_string(self):
        # the swapped-coordinate partitions of a 2-fold power tie up to
        # rounding; the minimum sits on a later string than the first tie
        j2 = iid_power(bsc_joint(0.1), 2)
        for beta in (0.3, 0.5, 1.0, 2.0):
            self._check(j2, 3, beta)
        assert pa_min_divergence_exhaustive(j2, 3, 0.3)[1].table == (0, 1, 1, 2)

    def test_small_blocks_give_the_same_answer(self, rng, monkeypatch):
        # blocks split every level and carry the tie records across blocks
        cases = [(iid_power(bsc_joint(0.1), 2), 3, 0.3), (random_joint(rng, 6, 2), 3, 0.5)]
        want = [pa_min_divergence_exhaustive(j, m, b) for j, m, b in cases]
        monkeypatch.setattr(protocol, "_CHUNK", 2)
        assert [pa_min_divergence_exhaustive(j, m, b) for j, m, b in cases] == want
        for j, m, b in cases:
            self._check(j, m, b)

    def test_cap_counts_tables(self, rng):
        j = random_joint(rng, 4, 2)
        pa_min_divergence_exhaustive(j, 3, 0.5, cap=81)
        with pytest.raises(EnumerationCap):
            pa_min_divergence_exhaustive(j, 3, 0.5, cap=80)

    def test_divergence_domain_mismatch(self, rng):
        j = random_joint(rng, 3, 2)
        with pytest.raises(DomainMismatch):
            pa_divergence(j, HashSpec((0, 1), 2), 0.5)


class TestAffineFamily:
    def test_uniform_independent_attains_near_zero(self):
        j = JointPmf(("a", "b", "c", "d"), ("y",), [[0.25]] * 4)
        rec = pa_universal_family_divergence(j, 4, 1.5, seed=1, n_samples=64)
        assert rec.value_bits == pytest.approx(0.0, abs=1e-12)

    def test_seed_reproducibility(self, rng):
        j = iid_power(bsc_joint(0.2), 2)
        a = pa_universal_family_divergence(j, 2, 2.0, seed=9, n_samples=32, n=2)
        b = pa_universal_family_divergence(j, 2, 2.0, seed=9, n_samples=32, n=2)
        assert a == b

    def test_best_tracks_exponent_lower_bound(self):
        # beta = 2, R > H_2(X|Y): divergence/n never drops below the
        # one-shot floor n^-1 (log M - n H_2) = R_eff - H_2
        j = bsc_joint(0.1)
        h2 = cond_entropy_variant("h", j, 2).value
        for n in (2, 4, 6):
            jn = iid_power(j, n)
            m = 2**n  # R_eff = 1 bit per symbol > h2
            rec = pa_universal_family_divergence(jn, m, 2.0, seed=3, n_samples=48, n=n)
            floor = pa_exponent(j, 2.0, 1.0).value
            assert rec.value_bits / n >= floor - 1e-10
            assert floor == pytest.approx(1.0 - h2)

    def test_rejects_bad_parameters(self):
        j = JointPmf(("a", "b", "c"), ("y",), [[1 / 3]] * 3)
        with pytest.raises(NonPowerOfTwoAlphabet):
            pa_universal_family_divergence(j, 2, 1.5)
        j2 = JointPmf(("a", "b"), ("y",), [[0.5]] * 2)
        with pytest.raises(BetaOutOfFamilyRange):
            pa_universal_family_divergence(j2, 2, 2.5)
        with pytest.raises(BetaOutOfFamilyRange):
            pa_universal_family_divergence(j2, 2, 0.5)


class TestScExact:
    def test_single_codeword_equals_order_beta_mi(self, rng):
        px = random_pmf(rng, 2)
        pyx = random_channel(rng, 2, 3)
        j = joint_from_channel(px, pyx)
        for n in (1, 2):
            for beta in (0.5, 1.0, 2.0, 3.0):
                rec = sc_expected_divergence_exact(px, pyx, n, 1, beta)
                want = n * mutual_info_variant("i", j, beta).value
                assert rec.value_bits == pytest.approx(want, abs=1e-10), (n, beta)

    def test_constant_channel_is_zero(self):
        px = Pmf(("a", "b"), [0.3, 0.7])
        pyx = CondPmf.from_matrix(("a", "b"), ("u", "v"), [[0.6, 0.4], [0.6, 0.4]])
        for m in (1, 2, 3):
            for beta in (0.5, 1.0, 2.0):
                rec = sc_expected_divergence_exact(px, pyx, 1, m, beta)
                assert rec.value_bits == pytest.approx(0.0, abs=1e-12)

    def test_binary_symmetric_respects_one_shot_floor(self):
        j = bsc_joint(0.1)
        px, pyx = condition_on_x(j)
        i2 = mutual_info_variant("i", j, 2).value
        rec = sc_expected_divergence_exact(px, pyx, 1, 2, 2.0)
        assert rec.value_bits >= max(i2 - 1.0, 0.0) - 1e-12

    def test_enumeration_cap(self, rng):
        px = random_pmf(rng, 3)
        pyx = random_channel(rng, 3, 2)
        with pytest.raises(EnumerationCap):
            sc_expected_divergence_exact(px, pyx, 3, 4, 0.5, cap=1000)


def _ordered_expectation(px, pyx, n, m, beta):
    """E over ordered i.i.d. codebooks of sum_y P_{Y|C}^beta P_Y^(1-beta),
    or of D(P_{Y|C} || P_Y) at beta = 1, by plain enumeration."""
    w = pyx.matrix()
    supp = [i for i, v in enumerate(px.probs) if v > 0.0]
    ys = list(itertools.product(range(w.shape[1]), repeat=n))
    seqs = list(itertools.product(supp, repeat=n))
    prob = [math.prod(px.probs[x] for x in s) for s in seqs]
    rows = [[math.prod(w[x, y] for x, y in zip(s, yy)) for yy in ys] for s in seqs]
    py = [sum(p * r[k] for p, r in zip(prob, rows)) for k in range(len(ys))]
    total = 0.0
    for book in itertools.product(range(len(seqs)), repeat=m):
        weight = math.prod(prob[c] for c in book)
        out = [sum(rows[c][k] for c in book) / m for k in range(len(ys))]
        if beta == 1.0:
            inner = sum(o * math.log2(o / q) for o, q in zip(out, py) if o > 0.0)
        else:
            inner = sum(o**beta * q ** (1.0 - beta) for o, q in zip(out, py) if o > 0.0)
        total += weight * inner
    return total


class TestScExactMultisets:
    """The multiset sum against ordered enumeration written out here."""

    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
    def test_matches_ordered_enumeration(self, rng, beta):
        binary = (random_pmf(rng, 2), random_channel(rng, 2, 2))
        pyx3 = random_channel(rng, 3, 2)
        zero_mass = (Pmf(pyx3.given_alphabet, [0.3, 0.0, 0.7]), pyx3)
        for px, pyx in (binary, zero_mass):
            for n, m in ((1, 1), (1, 4), (2, 1), (2, 3), (3, 2)):
                rec = sc_expected_divergence_exact(px, pyx, n, m, beta)
                want = _ordered_expectation(px, pyx, n, m, beta)
                got = rec.value_bits if beta == 1.0 else 2.0 ** ((beta - 1.0) * rec.value_bits)
                assert got == pytest.approx(want, rel=1e-12, abs=1e-15), (n, m)

    def test_point_mass_input_at_large_m(self, rng):
        # every codeword is the same sequence, so the output is exactly P_Y
        # and the multinomial weight of the one multiset must be exactly 1
        pyx = random_channel(rng, 2, 3)
        px = Pmf(pyx.given_alphabet, [0.0, 1.0])
        for beta in (0.5, 1.0, 2.0):
            rec = sc_expected_divergence_exact(px, pyx, 3, 500, beta)
            assert rec.value_bits == pytest.approx(0.0, abs=1e-13)

    def test_small_blocks_give_the_same_answer(self, rng, monkeypatch):
        px, pyx = random_pmf(rng, 2), random_channel(rng, 2, 2)
        want = sc_expected_divergence_exact(px, pyx, 2, 3, 0.5).value_bits
        monkeypatch.setattr(protocol, "_CHUNK", 3)
        got = sc_expected_divergence_exact(px, pyx, 2, 3, 0.5).value_bits
        assert got == pytest.approx(want, abs=1e-14)

    def test_cap_counts_ordered_codebooks(self, rng):
        px, pyx = random_pmf(rng, 2), random_channel(rng, 2, 2)
        sc_expected_divergence_exact(px, pyx, 1, 3, 0.5, cap=8)
        with pytest.raises(EnumerationCap):
            sc_expected_divergence_exact(px, pyx, 1, 3, 0.5, cap=7)

    def test_channel_power_equals_kron_construction(self, rng):
        for _ in range(20):
            nx, ny = (int(v) for v in rng.integers(2, 4, size=2))
            px, pyx = random_pmf(rng, nx), random_channel(rng, nx, ny)
            rows1 = [pyx.row(i).probs for i in range(nx)]
            want = np.stack(rows1)
            for n in range(1, 5):
                probs, rows, _ = _channel_power(px, pyx, n)
                assert np.array_equal(rows, want), n
                assert len(probs) == len(rows)
                want = np.stack([np.kron(a, b) for a in want for b in rows1])


class TestScMonteCarlo:
    def test_matches_exact_within_three_sigma(self, rng):
        px = random_pmf(rng, 2)
        pyx = random_channel(rng, 2, 2)
        for beta in (0.5, 1.0, 2.0):
            exact = sc_expected_divergence_exact(px, pyx, 1, 2, beta)
            mc = sc_expected_divergence_mc(px, pyx, 1, 2, beta, n_samples=3000, seed=2)
            assert abs(mc.value_bits - exact.value_bits) <= 3.0 * mc.stderr, beta

    def test_variance_scaling(self, rng):
        px = random_pmf(rng, 2)
        pyx = random_channel(rng, 2, 2)
        small = sc_expected_divergence_mc(px, pyx, 1, 2, 1.5, n_samples=1000, seed=4)
        big = sc_expected_divergence_mc(px, pyx, 1, 2, 1.5, n_samples=4000, seed=4)
        assert abs(big.stderr - small.stderr / 2.0) <= 0.3 * (small.stderr / 2.0)

    def test_seed_reproducibility(self, rng):
        px = random_pmf(rng, 2)
        pyx = random_channel(rng, 2, 2)
        a = sc_expected_divergence_mc(px, pyx, 1, 3, 2.0, n_samples=500, seed=7)
        b = sc_expected_divergence_mc(px, pyx, 1, 3, 2.0, n_samples=500, seed=7)
        assert a == b

    def test_bias_note_for_nonunit_beta(self, rng):
        px = random_pmf(rng, 2)
        pyx = random_channel(rng, 2, 2)
        rec = sc_expected_divergence_mc(px, pyx, 1, 2, 2.0, n_samples=100, seed=0)
        assert "bias" in rec.note


class TestScMonteCarloTable:
    """The codebook table of the Monte-Carlo ensemble against its per-draw
    path, on the same draws."""

    @staticmethod
    def _inner(px, pyx, n, m, beta, n_samples, chunk, monkeypatch):
        """The per-draw inner sums at block size ``chunk``, and the number of
        rows of each _sc_inner call (s^M for the table)."""
        rows = []
        sc_inner = protocol._sc_inner
        seq_probs, seq_rows, pyn = protocol._channel_power(px, pyx, n)
        with monkeypatch.context() as mp:
            mp.setattr(protocol, "_CHUNK", chunk)
            mp.setattr(protocol, "_sc_inner", lambda pyc, *a: rows.append(len(pyc)) or sc_inner(pyc, *a))
            inner = protocol._sc_draw_inner(seq_probs, seq_rows, pyn, m, beta, n_samples, seed=11)
        return inner, rows

    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
    def test_table_equals_per_draw(self, rng, monkeypatch, beta):
        # A block's draws are the leading rows of a longer draw from the same
        # stream, so the first s^M - 1 draws agree between a one-block table
        # run of s^M draws, a per-draw run of s^M - 1 draws (n_samples below
        # s^M), and the first block of a per-draw run whose block size is
        # patched to s^M - 1.
        pyx5 = random_channel(rng, 5, 3)
        zero_mass = (Pmf(pyx5.given_alphabet, [0.2, 0.0, 0.3, 0.1, 0.4]), pyx5)
        ternary = (random_pmf(rng, 3), random_channel(rng, 3, 2))
        # one output symbol with masses a little below 1, as validation allows
        px2 = random_pmf(rng, 2)
        one_output = (px2, CondPmf.from_matrix(px2.alphabet, ("y",), 1.0 - rng.random((2, 1)) * 1e-12))
        cases = [(inp, n, m) for inp in (zero_mass, ternary) for n in (1, 2) for m in (1, 2, 3)]
        cases += [(one_output, 1, m) for m in (8, 10)]
        for (px, pyx), n, m in cases:
            k = (len(px.support) ** n) ** m
            assert k <= protocol._CHUNK
            table, table_rows = self._inner(px, pyx, n, m, beta, k, protocol._CHUNK, monkeypatch)
            fewer, fewer_rows = self._inner(px, pyx, n, m, beta, k - 1, protocol._CHUNK, monkeypatch)
            small, small_rows = self._inner(px, pyx, n, m, beta, k, k - 1, monkeypatch)
            assert (table_rows, fewer_rows, small_rows) == ([k], [k - 1], [k - 1, 1]), (n, m)
            assert fewer.tobytes() == table[:-1].tobytes(), (n, m)
            assert small[:-1].tobytes() == table[:-1].tobytes(), (n, m)


class TestEnsembleInputs:
    @pytest.mark.parametrize(
        "n, m, beta, match",
        [
            (1, 0, 0.5, "M >= 1"),
            (0, 2, 0.5, "n >= 1"),
            (1, 2, math.inf, "finite beta"),
            (1, 2, -0.5, "finite beta"),
            (1, 2, math.nan, "finite beta"),
        ],
    )
    def test_rejected(self, rng, n, m, beta, match):
        px, pyx = random_pmf(rng, 2), random_channel(rng, 2, 2)
        with pytest.raises(ValueError, match=match):
            sc_expected_divergence_exact(px, pyx, n, m, beta)
        with pytest.raises(ValueError, match=match):
            sc_expected_divergence_mc(px, pyx, n, m, beta, n_samples=10)

    def test_beta_zero_is_accepted(self, rng):
        px, pyx = random_pmf(rng, 2), random_channel(rng, 2, 2)
        exact = sc_expected_divergence_exact(px, pyx, 1, 2, 0.0)
        mc = sc_expected_divergence_mc(px, pyx, 1, 2, 0.0, n_samples=500, seed=1)
        assert math.isfinite(exact.value_bits) and math.isfinite(mc.value_bits)


class TestOneShotScBound:
    def test_single_codeword_equality(self, rng):
        px = random_pmf(rng, 2)
        pyx = random_channel(rng, 2, 2)
        for beta in (0.5, 2.0, 3.0):
            rec = sc_expected_divergence_exact(px, pyx, 1, 1, beta)
            chk = check_one_shot_sc_bound(px, pyx, 1, 1, beta, rec)
            assert chk.passed
            assert abs(chk.margin) <= 1e-10, beta

    def test_independent_channel_both_sides_zero(self):
        px = Pmf(("a", "b"), [0.4, 0.6])
        pyx = CondPmf.from_matrix(("a", "b"), ("u", "v"), [[0.5, 0.5], [0.5, 0.5]])
        rec = sc_expected_divergence_exact(px, pyx, 1, 2, 0.5)
        chk = check_one_shot_sc_bound(px, pyx, 1, 2, 0.5, rec)
        assert chk.passed
        assert chk.bound == pytest.approx(0.0, abs=1e-12)
        assert chk.value == pytest.approx(0.0, abs=1e-12)

    def test_twenty_random_channels(self, rng):
        for _ in range(20):
            px = random_pmf(rng, 2)
            pyx = random_channel(rng, 2, 2)
            rec = sc_expected_divergence_exact(px, pyx, 1, 2, 0.5)
            chk = check_one_shot_sc_bound(px, pyx, 1, 2, 0.5, rec)
            assert chk.margin >= -1e-10


class TestHelpers:
    def test_m_from_rate(self):
        assert m_from_rate(3, 1.0)[0] == 8
        assert m_from_rate(1, 0.0)[0] == 1
        assert m_from_rate(2, 0.8)[0] == round(2**1.6)

    def test_sample_codebook_shapes(self, rng):
        px = Pmf(("a", "b", "c"), [0.5, 0.5, 0.0])
        cb = sample_codebook(px, 4, 3, rng)
        assert len(cb.codewords) == 3
        assert all(len(w) == 4 for w in cb.codewords)
        assert all(s in ("a", "b") for w in cb.codewords for s in w)
