import math

import numpy as np
import pytest

import renyinfo.exponents as exponents
from renyinfo.dist import JointPmf, Pmf, marginal_y
from renyinfo.exponents import (
    ExponentConfig,
    Rate,
    one_shot_pa_lower_bound,
    pa_dual_exponent,
    pa_dual_objective,
    pa_exponent,
    sc_dual_exponent,
    sc_exponent,
    sc_one_shot_bound,
)
from renyinfo.measures import (
    _generic_tilt,
    _kernel_inputs,
    cond_entropy_variant,
    mutual_info_variant,
    renyi_divergence,
    shannon_cond_entropy,
    shannon_mi,
)
from renyinfo.sampling import random_joint, random_joint_with_zeros
from renyinfo.simplex_opt import CERT_TOL, SolverConfig, _tilt, minimize_over_joint
from renyinfo.two_param import h_tilde, h_tilde_curve, i_tilde_curve

SOLVER = SolverConfig(max_iters=2500)


def ideal_divergence(joint: JointPmf, beta: float) -> float:
    """D_beta of a joint from the uniform-X x P_Y ideal, evaluated directly."""
    nx = len(joint.alphabet_x)
    py = marginal_y(joint).probs
    labels = tuple(f"{x}/{y}" for x in joint.alphabet_x for y in joint.alphabet_y)
    p = Pmf(labels, joint.probs.reshape(-1))
    q = Pmf(labels, np.tile(py / nx, (nx, 1)).reshape(-1))
    return renyi_divergence(p, q, beta).value


def _fine_grid_max(joint, beta, problem, rate):
    """The naive primal curve's maximum on a 1e-4 alpha grid over [beta, 1)."""
    alphas = np.arange(beta, 1.0 - 1e-9, 1e-4)
    coeff = beta * (1.0 - alphas) / (alphas * (1.0 - beta))
    if problem == "pa":
        return float(np.max(coeff * (rate - h_tilde_curve(joint, alphas, beta))))
    scale = 2.0 if problem == "one-shot" else 1.0
    return float(np.max(coeff * (scale * i_tilde_curve(joint, alphas, beta) - rate)))


def _search(joint, beta, problem, rate):
    """(value, arg_alpha) of one primal search; the one-shot bound is at n = 2."""
    if problem == "pa":
        res = pa_exponent(joint, beta, rate)
    elif problem == "sc":
        res = sc_exponent(joint, beta, rate)
    else:
        return sc_one_shot_bound(joint, beta, rate, n=2), None
    assert res.branch == "beta_lt_1"
    return res.value, res.arg_alpha


class TestRefinement:
    """The grid maximum refined by a root-find on the Lagrangian slope."""

    def test_never_below_a_fine_grid(self):
        rng = np.random.default_rng(2121)
        for k in range(12):
            nx, ny = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            j = (random_joint_with_zeros if k % 3 == 0 else random_joint)(rng, nx, ny)
            beta = float(rng.uniform(0.05, 0.95))
            for rate in (0.2, float(rng.uniform(0.0, math.log2(nx))), math.log2(nx)):
                for problem in ("pa", "sc", "one-shot"):
                    case = (k, beta, rate, problem)
                    value, arg = _search(j, beta, problem, rate)
                    assert value >= _fine_grid_max(j, beta, problem, rate) - 1e-12, case
                    assert value >= 0.0, case
                    assert arg is None or beta <= arg <= 1.0, case

    def test_sc_at_log_x_is_zero_at_alpha_one(self, rng):
        # I~ <= I(X:Y) < log|X| below order one, so the curve is negative
        for j in (random_joint(rng, 3, 2), random_joint_with_zeros(rng, 4, 3)):
            for beta in (0.2, 0.8):
                res = sc_exponent(j, beta, math.log2(j.shape[0]))
                assert (res.value, res.arg_alpha) == (0.0, 1.0)

    def test_maximum_at_alpha_beta(self, rng):
        # at R = log|X| the PA slope R - H(X|Y)_Q is >= 0 for every tilt,
        # so the curve rises all the way to lambda = 1, i.e. alpha = beta
        for j in (random_joint(rng, 3, 3), random_joint_with_zeros(rng, 3, 4)):
            for beta in (0.1, 0.5, 0.9):
                r = math.log2(j.shape[0])
                res = pa_exponent(j, beta, r)
                assert res.arg_alpha == beta
                assert res.value == pytest.approx(r - h_tilde(j, (beta, beta)).value, abs=1e-12)

    def test_interior_maximum_is_the_slope_root(self, rng):
        j = random_joint(rng, 3, 3)
        beta, r = 0.5, shannon_cond_entropy(j) + 0.1
        res = pa_exponent(j, beta, r)
        assert beta + 2e-3 < res.arg_alpha < 1.0 - 2e-3
        # the lambda-slope R + d rises with alpha through 0 at the maximum
        _, logw, logrows, logr = _kernel_inputs(j, False)
        below = _generic_tilt(logw, logrows, logr, res.arg_alpha - 1e-7, beta)[1]
        above = _generic_tilt(logw, logrows, logr, res.arg_alpha + 1e-7, beta)[1]
        assert r + below < 0.0 < r + above
        coarse = pa_exponent(j, beta, r, ExponentConfig(alpha_tol=1e-4))
        assert abs(coarse.arg_alpha - res.arg_alpha) <= 1e-4
        assert coarse.value == pytest.approx(res.value, abs=1e-9)


class TestRate:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Rate(-0.1)


class TestExponentConfig:
    @pytest.mark.parametrize("field", ["grid_step", "alpha_tol"])
    @pytest.mark.parametrize("bad", [-1e-3, 0.0, math.nan, math.inf, -math.inf])
    def test_rejects_non_positive_or_non_finite(self, field, bad):
        # only construction is exercised: a zero alpha_tol would leave the
        # root bracket to the regula-falsi step cap
        with pytest.raises(ValueError, match=field):
            ExponentConfig(**{field: bad})

    def test_accepts_positive_finite(self):
        cfg = ExponentConfig(grid_step=0.01, alpha_tol=1e-6)
        assert (cfg.grid_step, cfg.alpha_tol) == (0.01, 1e-6)


class TestPaExponent:
    def test_zero_rate_gives_zero(self, rng):
        for j in (random_joint(rng, 3, 3), random_joint_with_zeros(rng, 4, 3)):
            for beta in (0.05, 0.3, 0.5, 0.9, 0.99):
                res = pa_exponent(j, beta, 0.0)
                assert res.value == 0.0
                assert res.arg_alpha == 1.0

    def test_beta_two_at_critical_rate(self, rng):
        j = random_joint(rng, 3, 2)
        h2 = cond_entropy_variant("h", j, 2).value
        res = pa_exponent(j, 2.0, h2)
        assert res.value == 0.0
        assert res.branch == "beta_ge_1"

    def test_beta_ge_one_closed_form_is_exact(self, rng):
        for _ in range(10):
            j = random_joint(rng, 3, 3)
            r = float(rng.uniform(0.0, 2.0))
            for beta in (1.0, 2.0, 3.5):
                hb = cond_entropy_variant("h", j, beta).value
                want = max(r - hb, 0.0)
                assert pa_exponent(j, beta, r).value == want

    def test_monotone_in_rate(self, rng):
        j = random_joint(rng, 2, 3)
        for beta in (0.4, 2.0):
            vals = [pa_exponent(j, beta, r).value for r in np.linspace(0.0, 1.5, 8)]
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_primal_matches_dual(self, rng):
        j = random_joint(rng, 2, 2)
        h = shannon_cond_entropy(j)
        res = pa_exponent(j, 0.5, h + 0.5)
        g1, g2 = pa_dual_exponent(j, 0.5, h + 0.5, SOLVER)
        assert abs(res.value - min(g1.minimum, g2.minimum)) <= 1e-3


class TestPaDual:
    def test_large_rate_g1_infeasible_g2_bounded_by_reference(self, rng):
        j = random_joint(rng, 2, 2)
        r = math.log2(2) + 0.5  # R >= log|X|: every Q satisfies H <= R
        g1, g2 = pa_dual_exponent(j, 0.3, r, SOLVER)
        assert math.isinf(g1.minimum) and g1.argmin is None
        # at Q = P both divergences vanish, so the objective there is
        # exactly R - H(X|Y); the minimum cannot exceed it
        at_reference = r - shannon_cond_entropy(j)
        assert g2.minimum <= at_reference + 1e-9
        assert g2.minimum == pytest.approx(pa_exponent(j, 0.3, r).value, abs=1e-3)

    def test_stop_reasons_of_pieces(self, rng):
        j = random_joint(rng, 2, 2)
        g1, g2 = pa_dual_exponent(j, 0.3, math.log2(2) + 0.5, SOLVER)
        assert g1.stop_reason == "infeasible"
        assert g2.stop_reason == "certified" and g2.iterations == 0
        # descent on the same objective from the reference point alone
        obj = pa_dual_objective(j, 0.3, math.log2(2) + 0.5)
        rep = minimize_over_joint(obj, cfg=SOLVER, extra_starts=[j.probs])
        assert rep.stop_reason in ("converged", "max_iters")
        one_step = SolverConfig(max_iters=1)
        g1, g2 = pa_dual_exponent(j, 0.3, 0.5, one_step)
        for g in (g1, g2):
            if g.argmin is not None:
                assert g.stop_reason == "certified" and g.iterations == 0
        # R = 0.5 < H(X|Y): the reference point is the minimizer and certifies
        # itself, so descent is reached from the face barycentre alone
        assert shannon_cond_entropy(j) > 0.5
        obj = pa_dual_objective(j, 0.3, 0.5)
        rep = minimize_over_joint(obj, cfg=one_step, extra_starts=[j.probs])
        assert rep.stop_reason == "certified" and rep.minimum == 0.0
        rep = minimize_over_joint(obj, cfg=one_step)
        assert rep.stop_reason == "max_iters" and rep.iterations == 1

    def test_zero_rate_min_is_zero(self, rng):
        j = random_joint(rng, 3, 2)
        assert shannon_cond_entropy(j) > 0.0
        g1, g2 = pa_dual_exponent(j, 0.3, 0.0, SOLVER)
        assert min(g1.minimum, g2.minimum) == pytest.approx(0.0, abs=1e-8)

    def test_random_agreement(self, rng):
        j = random_joint(rng, 2, 2)
        res = pa_exponent(j, 0.3, 0.8)
        g1, g2 = pa_dual_exponent(j, 0.3, 0.8, SOLVER)
        assert abs(res.value - min(g1.minimum, g2.minimum)) <= 1e-3

    def test_rejects_beta_outside_unit_interval(self, rng):
        j = random_joint(rng, 2, 2)
        with pytest.raises(ValueError):
            pa_dual_exponent(j, 1.5, 0.2)


class TestScExponent:
    def test_rate_above_mi_gives_zero(self, rng):
        j = random_joint(rng, 3, 3)
        i1 = shannon_mi(j)
        for beta in (0.3, 0.7):
            assert sc_exponent(j, beta, i1 + 1e-6).value == 0.0
            # monotonicity: the two-parameter measure never exceeds I below
            # order one, checked numerically through the exponent being 0
            assert sc_exponent(j, beta, i1 + 0.3).value == 0.0

    def test_independent_joint_all_zero(self):
        j = JointPmf(("a", "b"), ("u", "v"), np.outer([0.4, 0.6], [0.3, 0.7]))
        for beta in (0.4, 1.0, 2.0):
            for r in (0.0, 0.3, 1.0):
                assert sc_exponent(j, beta, r).value == pytest.approx(0.0, abs=1e-10)

    def test_beta_ge_one_closed_form_is_exact(self, rng):
        for _ in range(10):
            j = random_joint(rng, 3, 3)
            r = float(rng.uniform(0.0, 1.0))
            for beta in (1.0, 2.0, 3.0):
                ib = mutual_info_variant("i", j, beta).value
                assert sc_exponent(j, beta, r).value == max(ib - r, 0.0)

    def test_non_increasing_in_rate(self, rng):
        j = random_joint(rng, 2, 3)
        for beta in (0.5, 2.0):
            vals = [sc_exponent(j, beta, r).value for r in np.linspace(0.0, 1.0, 8)]
            assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_identity_channel_primal_dual(self, diag_binary):
        res = sc_exponent(diag_binary, 0.5, 0.5)
        rep = sc_dual_exponent(diag_binary, 0.5, 0.5, SOLVER)
        assert abs(res.value - rep.minimum) <= 1e-3

    def test_random_primal_dual(self, rng):
        j = random_joint(rng, 3, 2)
        res = sc_exponent(j, 0.7, 0.2)
        rep = sc_dual_exponent(j, 0.7, 0.2, SOLVER)
        assert abs(res.value - rep.minimum) <= 1e-3

    def test_dual_reference_point_bounds(self, rng):
        # the feasible point Q = P gives |I(X:Y) - R|+ as an upper bound
        j = random_joint(rng, 3, 3)
        r = 0.05
        rep = sc_dual_exponent(j, 0.5, r, SOLVER)
        at_p = max(shannon_mi(j) - r, 0.0)
        assert rep.minimum <= at_p + 1e-9


class TestBetaOneConsistency:
    def test_pa_branches_meet_at_one(self, rng):
        j = random_joint(rng, 3, 3)
        r = shannon_cond_entropy(j) + 0.4
        lo = pa_exponent(j, 1.0 - 1e-3, r).value
        hi = pa_exponent(j, 1.0 + 1e-3, r).value
        assert abs(lo - hi) <= 1e-3

    def test_sc_branches_meet_at_one(self, rng):
        j = random_joint(rng, 3, 3)
        r = max(shannon_mi(j) - 0.2, 0.0)
        lo = sc_exponent(j, 1.0 - 1e-3, r).value
        hi = sc_exponent(j, 1.0 + 1e-3, r).value
        assert abs(lo - hi) <= 1e-3


class TestOneShotPaBound:
    def test_uniform_independent_is_tight_zero(self):
        j = JointPmf(("a", "b"), ("u", "v"), np.outer([0.5, 0.5], [0.3, 0.7]))
        bound = one_shot_pa_lower_bound(j, 0.5, 0.7)
        assert bound == pytest.approx(0.0, abs=1e-12)
        assert ideal_divergence(j, 0.5) == pytest.approx(0.0, abs=1e-12)

    def test_identity_uniform_binary_equality(self, diag_binary):
        bound = one_shot_pa_lower_bound(diag_binary, 0.5, 0.5)
        direct = ideal_divergence(diag_binary, 0.5)
        assert bound == pytest.approx(1.0, abs=1e-12)
        assert direct == pytest.approx(1.0, abs=1e-12)

    def test_bound_below_direct_divergence(self, rng):
        for _ in range(20):
            j = random_joint(rng, 3, 2)
            beta = float(rng.uniform(0.1, 0.9))
            alpha = float(rng.uniform(beta, 1.0 - 1e-9))
            bound = one_shot_pa_lower_bound(j, beta, alpha)
            assert bound <= ideal_divergence(j, beta) + 1e-12

    def test_order_validation(self, rng):
        j = random_joint(rng, 2, 2)
        with pytest.raises(ValueError):
            one_shot_pa_lower_bound(j, 0.5, 0.4)
        with pytest.raises(ValueError):
            one_shot_pa_lower_bound(j, 1.2, 1.5)


class TestScOneShotBound:
    def test_matches_exponent_at_matching_rate(self, rng):
        j = random_joint(rng, 2, 2)
        for beta in (0.4, 2.0):
            b1 = sc_one_shot_bound(j, beta, log_m=0.6, n=1)
            assert b1 == pytest.approx(sc_exponent(j, beta, 0.6).value, abs=1e-12)

    def test_additivity_scaling(self, rng):
        j = random_joint(rng, 2, 2)
        b2 = sc_one_shot_bound(j, 2.0, log_m=0.5, n=3)
        i2 = mutual_info_variant("i", j, 2).value
        assert b2 == pytest.approx(max(3 * i2 - 0.5, 0.0), abs=1e-12)


def _criterion_4_cases(rng, joints):
    """Joints, orders and rates laid out as in acceptance criterion 4."""
    for k in range(joints):
        nx, ny = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        j = (random_joint if k % 2 else random_joint_with_zeros)(rng, nx, ny)
        h = shannon_cond_entropy(j)
        for beta in (0.3, 0.5, 0.8):
            for r in (0.0, 0.25, max(h - 0.3, 0.0), h + 0.3, math.log2(nx)):
                yield j, beta, r


def _rate_sweeps(rng, joints):
    """Fine rate grids, which reach the interior Lagrange multipliers."""
    for _ in range(joints):
        j = random_joint(rng, 3, 3)
        for beta in (0.3, 0.5, 0.8):
            for r in np.linspace(0.0, math.log2(3), 13):
                yield j, beta, float(r)


class TestDualCertificate:
    def test_duals_certify_the_primal(self, rng):
        cases = list(_criterion_4_cases(rng, 10)) + list(_rate_sweeps(rng, 2))
        for j, beta, r in cases:
            case = (j.shape, beta, r)
            pieces = [g for g in pa_dual_exponent(j, beta, r, SOLVER) if math.isfinite(g.minimum)]
            assert len({g.gap for g in pieces}) == 1, case
            u, gap = min(g.minimum for g in pieces), pieces[0].gap
            assert all(g.stop_reason == "certified" and g.iterations == 0 for g in pieces), case
            assert 0.0 <= gap < CERT_TOL, case
            prim = pa_exponent(j, beta, r).value
            assert u - gap <= prim <= u + gap, ("pa",) + case
            rep = sc_dual_exponent(j, beta, r, SOLVER)
            assert rep.stop_reason == "certified" and rep.iterations == 0, case
            assert 0.0 <= rep.gap < CERT_TOL, case
            prim = sc_exponent(j, beta, r).value
            assert rep.minimum - rep.gap <= prim <= rep.minimum + rep.gap, ("sc",) + case

    def test_mutated_tilt_never_lifts_the_lower_bound(self, rng, monkeypatch):
        def mutated(logs, log_t, s_exp, root=1.0):
            return _tilt(logs, log_t, s_exp + 1.0, root)

        monkeypatch.setattr(exponents, "_tilt", mutated)
        converged = 0
        for j, beta, r in _criterion_4_cases(rng, 1):
            if beta != 0.5:
                continue
            pieces = [g for g in pa_dual_exponent(j, beta, r, SOLVER) if math.isfinite(g.minimum)]
            u, gap = min(g.minimum for g in pieces), pieces[0].gap
            assert all(g.stop_reason != "certified" and g.iterations > 0 for g in pieces), r
            prim = pa_exponent(j, beta, r).value
            assert u - gap <= prim, ("pa", r)
            assert abs(u - prim) <= max(1e-3, gap), ("pa", r)
            rep = sc_dual_exponent(j, beta, r, SOLVER)
            assert rep.stop_reason != "certified" and rep.iterations > 0, r
            prim = sc_exponent(j, beta, r).value
            assert rep.minimum - rep.gap <= prim, ("sc", r)
            assert abs(rep.minimum - prim) <= max(1e-3, rep.gap), ("sc", r)
            # the descent certifies its own points on the clipped objective
            done = [g.gap for g in pieces + [rep] if g.stop_reason == "converged"]
            assert all(gap < 1e-6 for gap in done), (r, done)
            converged += len(done)
        assert converged > 0
