import math
import weakref

import numpy as np
import pytest

from renyinfo.dist import CondPmf, JointPmf, Pmf, to_json
from renyinfo.errors import AlphabetMismatch
from renyinfo.exponents import pa_exponent, sc_exponent
from renyinfo.measures import (
    H_VARIANTS,
    I_VARIANTS,
    _generic_tilt,
    _kernel_inputs,
    cond_entropy_variant,
    cond_renyi_divergence,
    logsumexp2,
    mutual_info_variant,
    renyi_divergence,
    renyi_entropy,
    shannon_cond_entropy,
    shannon_mi,
)
from renyinfo.properties import run_properties
from renyinfo.sampling import random_joint, random_joint_with_zeros
from renyinfo.two_param import h_tilde, h_tilde_curve, i_tilde, i_tilde_curve

GRID = (0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 4.0, math.inf)


class TestRenyiDivergence:
    def test_self_divergence_zero(self):
        p = Pmf(("a", "b", "c"), [0.2, 0.3, 0.5])
        for a in GRID:
            assert renyi_divergence(p, p, a).value == pytest.approx(0.0, abs=1e-12)

    def test_order_two_bernoulli(self):
        p = Pmf(("0", "1"), [0.5, 0.5])
        q = Pmf(("0", "1"), [0.25, 0.75])
        # direct summation: sum p^2 / q = 1 + 1/3
        want = math.log2(0.25 / 0.25 + 0.25 / 0.75)
        assert renyi_divergence(p, q, 2).value == pytest.approx(want, abs=1e-12)

    def test_support_violation_is_infinite(self):
        p = Pmf(("0", "1"), [0.5, 0.5])
        q = Pmf(("0", "1"), [1.0, 0.0])
        assert math.isinf(renyi_divergence(p, q, 2).value)
        assert math.isinf(renyi_divergence(p, q, 1).value)
        assert math.isinf(renyi_divergence(p, q, math.inf).value)
        # alpha < 1 with overlapping support stays finite
        assert math.isfinite(renyi_divergence(p, q, 0.5).value)

    def test_alphabet_mismatch(self):
        with pytest.raises(AlphabetMismatch):
            renyi_divergence(Pmf(("a",), [1.0]), Pmf(("b",), [1.0]), 2)

    def test_branches(self):
        p = Pmf(("a", "b"), [0.6, 0.4])
        q = Pmf(("a", "b"), [0.4, 0.6])
        assert renyi_divergence(p, q, 1).branch == "alpha_one"
        assert renyi_divergence(p, q, 0).branch == "alpha_zero"
        assert renyi_divergence(p, q, math.inf).branch == "alpha_inf"
        assert renyi_divergence(p, q, 2).branch == "generic"

    def test_extreme_order_no_overflow(self):
        p = Pmf(("a", "b"), [0.9, 0.1])
        q = Pmf(("a", "b"), [0.5, 0.5])
        v = renyi_divergence(p, q, 1000.0).value
        assert math.isfinite(v)
        assert v == pytest.approx(renyi_divergence(p, q, math.inf).value, abs=1e-2)


class TestCondDivergence:
    def test_identical_channels_zero(self):
        w = CondPmf.from_matrix(("a", "b"), ("u", "v"), [[0.9, 0.1], [0.3, 0.7]])
        px = Pmf(("a", "b"), [0.4, 0.6])
        assert cond_renyi_divergence(w, w, px, 2).value == pytest.approx(0.0, abs=1e-12)

    def test_point_mass_reduces_to_unconditional(self):
        w1 = CondPmf.from_matrix(("a", "b"), ("u", "v"), [[0.9, 0.1], [0.3, 0.7]])
        w2 = CondPmf.from_matrix(("a", "b"), ("u", "v"), [[0.8, 0.2], [0.5, 0.5]])
        px = Pmf(("a", "b"), [1.0, 0.0])
        got = cond_renyi_divergence(w1, w2, px, 2).value
        want = renyi_divergence(
            Pmf(("u", "v"), [0.9, 0.1]), Pmf(("u", "v"), [0.8, 0.2]), 2
        ).value
        assert got == pytest.approx(want, abs=1e-12)

    def test_bsc_pair_matches_direct_joint(self):
        w1 = CondPmf.from_matrix(("0", "1"), ("0", "1"), [[0.9, 0.1], [0.1, 0.9]])
        w2 = CondPmf.from_matrix(("0", "1"), ("0", "1"), [[0.8, 0.2], [0.2, 0.8]])
        px = Pmf(("0", "1"), [0.5, 0.5])
        got = cond_renyi_divergence(w1, w2, px, 2).value
        # independent evaluation: flatten the two joints by hand
        jp = np.array([0.45, 0.05, 0.05, 0.45])
        jq = np.array([0.40, 0.10, 0.10, 0.40])
        want = math.log2(np.sum(jp**2 / jq))
        assert got == pytest.approx(want, abs=1e-12)


class TestRenyiEntropy:
    def test_uniform(self):
        for k in (2, 3, 5):
            u = Pmf(tuple(map(str, range(k))), np.full(k, 1.0 / k))
            for a in GRID:
                assert renyi_entropy(u, a).value == pytest.approx(math.log2(k), abs=1e-12)

    def test_point_mass(self):
        p = Pmf(("a", "b"), [1.0, 0.0])
        for a in GRID:
            assert renyi_entropy(p, a).value == pytest.approx(0.0, abs=1e-12)
        # the sign of the zero is pinned at the tags: +0.0 at 0, -0.0 at 1 and inf
        signs = {a: math.copysign(1.0, renyi_entropy(p, a).value) for a in (0, 1, "inf")}
        assert signs == {0: 1.0, 1: -1.0, "inf": -1.0}

    def test_bernoulli_order_two(self):
        p = Pmf(("0", "1"), [0.11, 0.89])
        want = -math.log2(0.11**2 + 0.89**2)
        assert renyi_entropy(p, 2).value == pytest.approx(want, abs=1e-12)


class TestCondEntropyVariants:
    def test_independent_uniform(self):
        k = 4
        j = JointPmf(
            tuple(map(str, range(k))), ("y0", "y1"), np.full((k, 2), 1.0 / (2 * k))
        )
        for variant in ("h", "hstar", "hbar", "hbarstar"):
            for a in GRID:
                v = cond_entropy_variant(variant, j, a).value
                assert v == pytest.approx(math.log2(k), abs=1e-12), (variant, a)

    def test_deterministic_is_zero(self, diag_binary):
        for variant in ("h", "hstar", "hbar", "hbarstar"):
            for a in GRID:
                v = cond_entropy_variant(variant, diag_binary, a).value
                assert v == pytest.approx(0.0, abs=1e-12)
        assert math.copysign(1.0, shannon_cond_entropy(diag_binary)) == 1.0  # +0.0, not -0.0

    def test_hstar_equals_two_param_at_beta_one(self, rng):
        j = random_joint(rng, 2, 2)
        # closed form at order 2: -2 log2 sum_y (sum_x P(x, y)^2)^(1/2)
        want = -2.0 * math.log2(sum(math.sqrt(sum(v * v for v in col)) for col in j.probs.T))
        assert cond_entropy_variant("hstar", j, 2).value == pytest.approx(want, abs=1e-12)
        assert h_tilde(j, (2.0, 1.0)).value == pytest.approx(want, abs=1e-12)

    def test_shannon_agreement_at_order_one(self, rng):
        j = random_joint(rng, 3, 4)
        h1 = shannon_cond_entropy(j)
        for variant in ("h", "hstar", "hbar", "hbarstar"):
            assert cond_entropy_variant(variant, j, 1).value == pytest.approx(h1, abs=1e-12)


class TestMutualInfoVariants:
    def test_independent_zero(self, rng):
        px = np.array([0.3, 0.7])
        py = np.array([0.2, 0.5, 0.3])
        j = JointPmf(("a", "b"), ("u", "v", "w"), np.outer(px, py))
        for variant in ("i", "istar", "ibar", "ibarstar"):
            for a in GRID:
                v = mutual_info_variant(variant, j, a).value
                assert v == pytest.approx(0.0, abs=1e-10), (variant, a)

    def test_identity_channel_order_two(self, diag_binary):
        # four-term sum by hand: two on-diagonal cells contribute 0.5^2 / 0.25
        want = math.log2((0.5**2) / 0.25 + (0.5**2) / 0.25)
        assert want == pytest.approx(1.0)
        assert mutual_info_variant("i", diag_binary, 2).value == pytest.approx(1.0, abs=1e-12)

    def test_istar_equals_two_param_at_beta_one(self, rng):
        j = random_joint(rng, 3, 3)
        # closed form at order 1/2: -log2 sum_y (sum_x sqrt(P_X(x) P(x, y)))^2
        px = j.probs.sum(axis=1)
        want = -math.log2(sum(sum(math.sqrt(q * v) for q, v in zip(px, col)) ** 2
                              for col in j.probs.T))
        assert mutual_info_variant("istar", j, 0.5).value == pytest.approx(want, abs=1e-12)
        assert i_tilde(j, (0.5, 1.0)).value == pytest.approx(want, abs=1e-12)

    def test_shannon_agreement_at_order_one(self, rng):
        j = random_joint(rng, 3, 4)
        i1 = shannon_mi(j)
        for variant in ("i", "istar", "ibar", "ibarstar"):
            assert mutual_info_variant(variant, j, 1).value == pytest.approx(i1, abs=1e-12)


class TestClassicalInvariants:
    def test_order_monotone_dpi_variational_continuity(self):
        results = run_properties(
            ["div-order-mono", "div-dpi", "div-variational", "div-continuity"],
            seed=5,
            samples=40,
        )
        for r in results:
            assert r.passed, (r.name, r.worst, r.counterexample)

    def test_nonnegativity_spot(self, rng):
        for _ in range(30):
            j = random_joint(rng, 3, 3)
            for variant in ("h", "hstar", "hbar", "hbarstar"):
                for a in GRID:
                    assert cond_entropy_variant(variant, j, a).value >= -1e-12
            for variant in ("i", "istar", "ibar", "ibarstar"):
                for a in GRID:
                    assert mutual_info_variant(variant, j, a).value >= -1e-12


def _copy(joint: JointPmf) -> JointPmf:
    return JointPmf(joint.alphabet_x, joint.alphabet_y, joint.probs)


class TestPreparedJoint:
    """The kernel inputs memoized on a joint change no result and no
    observable property of the joint."""

    def test_slice_variants_agree_cold_and_warm(self):
        rng = np.random.default_rng(606)
        joints = [random_joint(rng, nx, ny) for nx in range(2, 7) for ny in range(2, 6)]
        joints += [random_joint_with_zeros(rng, nx, ny) for nx in range(2, 7) for ny in range(2, 6)]
        assert len(joints) >= 40
        for j in joints:
            warm = _copy(j)
            _kernel_inputs(warm, False)
            _kernel_inputs(warm, True)
            for fn, variants in ((cond_entropy_variant, H_VARIANTS),
                                 (mutual_info_variant, I_VARIANTS)):
                for v in variants:
                    for a in GRID:
                        got, want = fn(v, warm, a), fn(v, _copy(j), a)
                        assert np.float64(got.value).tobytes() == np.float64(want.value).tobytes()
                        assert got.branch == want.branch, (v, a)

    def test_memo_is_invisible(self):
        j = random_joint_with_zeros(np.random.default_rng(7), 4, 3)
        warm = _copy(j)
        h_tilde(warm, (2.0, 0.5))
        i_tilde(warm, (0.5, 2.0))
        assert warm._kernel_memo and not j._kernel_memo
        assert repr(warm) == repr(j)
        assert warm.to_dict() == j.to_dict()
        assert to_json(warm) == to_json(j)
        assert warm == j and j == warm
        assert warm != JointPmf(j.alphabet_x, ("a", "b", "c"), j.probs)

    def test_prepared_arrays_are_read_only(self):
        j = random_joint(np.random.default_rng(8), 3, 3)
        for mutual in (False, True):
            for a in _kernel_inputs(j, mutual):
                with pytest.raises(ValueError):
                    a[0] = 0.0

    def test_memo_dies_with_its_joint(self):
        j = random_joint(np.random.default_rng(9), 3, 3)
        h_tilde(j, (2.0, 0.5))
        i_tilde(j, (0.5, 2.0))
        pa_exponent(j, 0.5, 1.0)
        sc_exponent(j, 0.5, 0.1)
        refs = [weakref.ref(j)]
        refs += [weakref.ref(a) for mutual in (False, True) for a in _kernel_inputs(j, mutual)]
        del j
        assert all(r() is None for r in refs)


def _tilt_cases(seed: int, count: int):
    """(joint, mutual, alpha, beta) over random sizes, a third of the joints
    with zero cells, and orders on both sides of 1."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        nx, ny = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        j = (random_joint_with_zeros if k % 3 == 0 else random_joint)(rng, nx, ny)
        for mutual in (False, True):
            for _ in range(5):
                beta = float(rng.uniform(0.05, 3.0))
                alpha = float(rng.choice([rng.uniform(0.02, 0.98), rng.uniform(1.02, 5.0)]))
                yield j, mutual, alpha, beta


class TestGenericTilt:
    """The kernel value and tilted divergence at one order pair."""

    def test_value_is_the_curve_to_the_bit(self):
        checked = 0
        for j, mutual, alpha, beta in _tilt_cases(31, 200):
            k, _ = _generic_tilt(*_kernel_inputs(j, mutual)[1:], alpha, beta)
            if mutual:
                want = i_tilde_curve(j, np.array([alpha]), beta)[0]
            else:
                want = -h_tilde_curve(j, np.array([alpha]), beta)[0]
            assert np.float64(k).tobytes() == np.float64(want).tobytes(), (alpha, beta)
            checked += 1
        assert checked == 2000

    def test_divergence_is_the_lambda_derivative(self):
        # d = d/dlambda [lambda K] with alpha = beta / (beta + lambda (1 - beta))
        for j, mutual, _, beta in _tilt_cases(32, 20):
            beta = min(beta, 0.95)
            inputs = _kernel_inputs(j, mutual)[1:]
            for lam in (0.1, 0.5, 0.9):
                def g(x):
                    return x * _generic_tilt(*inputs, beta / (beta + x * (1.0 - beta)), beta)[0]

                numeric = (g(lam + 1e-5) - g(lam - 1e-5)) / 2e-5
                alpha = beta / (beta + lam * (1.0 - beta))
                assert _generic_tilt(*inputs, alpha, beta)[1] == pytest.approx(numeric, abs=1e-8)


def test_logsumexp2_overwrite_is_the_same_bits():
    rng = np.random.default_rng(12)
    t = rng.normal(size=(7, 5, 4)) * 30.0
    t[0, :, 1] = -math.inf
    t[2, 3, 0] = -math.inf
    for axis in (None, 0, 1, 2):
        want = logsumexp2(t, axis=axis)
        buffer = t.copy()
        got = logsumexp2(buffer, axis=axis, overwrite=True)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), axis
    assert logsumexp2(3.0) == 3.0 and logsumexp2(np.array(-math.inf)) == -math.inf
