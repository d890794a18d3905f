import inspect
import math

import numpy as np
import pytest

import renyinfo.simplex_opt as simplex_opt
from renyinfo.dist import JointPmf
from renyinfo.errors import DimensionCap, NonFiniteObjectiveEverywhere
from renyinfo.exponents import pa_dual_exponent, sc_dual_exponent
from renyinfo.measures import shannon_cond_entropy
from renyinfo.sampling import random_joint, random_joint_with_zeros
from renyinfo.simplex_opt import (
    STOP_STEP,
    SimplexObjective,
    SolverConfig,
    minimize_over_joint,
    variational_h,
    variational_h_objective,
    variational_h_target,
    variational_i,
    variational_i_objective,
    variational_i_target,
)

FAST = SolverConfig(max_iters=2500)


def kl_objective(p: JointPmf) -> SimplexObjective:
    logp = np.log2(np.where(p.probs > 0, p.probs, 1.0))

    def batch(q):
        lq = np.log2(np.where(q > 0, q, 1.0))
        return np.where(q > 0, q * (lq - logp), 0.0).sum(axis=(-2, -1))

    def grad(q):
        lq = np.log2(np.where(q > 0, q, 1.0))
        return lq - logp

    return SimplexObjective(
        dims=p.shape,
        grad=grad,
        batch=batch,
        support=p.probs > 0,
    )


class TestSolverCore:
    def test_kl_minimum_at_reference(self, rng):
        p = random_joint(rng, 3, 3)
        rep = minimize_over_joint(kl_objective(p), cfg=FAST)
        assert rep.minimum == pytest.approx(0.0, abs=1e-8)
        assert np.abs(rep.argmin.probs - p.probs).max() < 1e-4
        assert rep.gap >= 0.0

    def test_dimension_cap(self, rng):
        # no starts, so the solve reaches the descent fallback
        p = random_joint(rng, 33, 32)  # 1056 cells > DIM_CAP = 1024
        with pytest.raises(DimensionCap):
            minimize_over_joint(kl_objective(p), cfg=FAST)

    def test_cap_binds_only_the_fallback(self, rng):
        # the closed-form certificates run no descent, so no cap applies
        j = random_joint(rng, 7, 6)
        reps = [variational_h(j, 2.0, 0.5, FAST), variational_i(j, 2.0, 0.5, FAST)]
        for r in (0.5, shannon_cond_entropy(j) + 0.3):
            reps += [g for g in pa_dual_exponent(j, 0.5, r, FAST) if g.argmin is not None]
            reps.append(sc_dual_exponent(j, 0.5, r, FAST))
        for rep in reps:
            assert rep.stop_reason == "certified" and rep.iterations == 0

    def test_nonfinite_everywhere(self):
        obj = SimplexObjective(dims=(2, 2),
                               batch=lambda q: np.full(q.shape[:-2], math.inf),
                               grad=lambda q: np.zeros_like(q))
        with pytest.raises(NonFiniteObjectiveEverywhere):
            minimize_over_joint(obj, cfg=FAST)

    def test_stop_reason(self, rng):
        # descent from the reference point alone (no tilt start)
        j = random_joint(rng, 3, 3)

        def descend(objective, a, b, cfg):
            return minimize_over_joint(objective(j, a, b), cfg=cfg, extra_starts=[j.probs])

        rep = descend(variational_i_objective, 2.0, 0.5, SolverConfig(max_iters=1))
        assert rep.stop_reason == "max_iters" and rep.iterations == 1
        seen = set()
        for (a, b) in [(2.0, 0.5), (0.5, 2.0)]:
            for objective in (variational_h_objective, variational_i_objective):
                rep = descend(objective, a, b, FAST)
                ran_out = rep.iterations == FAST.max_iters and rep.final_step >= STOP_STEP
                assert (rep.stop_reason == "max_iters") == ran_out, (objective.__name__, a, b)
                assert rep.stop_reason in ("converged", "max_iters")
                seen.add(rep.stop_reason)
        assert seen == {"converged", "max_iters"}
        # the tilted start certifies the same problems at iteration 0
        for (a, b) in [(2.0, 0.5), (0.5, 2.0)]:
            for solve in (variational_h, variational_i):
                rep = solve(j, a, b, SolverConfig(max_iters=1))
                assert rep.stop_reason == "certified" and rep.iterations == 0
                assert rep.method == "tilt" and rep.final_step == 0.0

    def test_descent_is_monotone_in_incumbent(self, rng):
        # the incumbent check lives inside mirror_descent; a solve
        # completing without RuntimeError is the check
        p = random_joint(rng, 2, 3)
        variational_h(p, 2.0, 0.5, FAST)


class TestVariationalH:
    def test_alpha_one_vanishes(self, rng):
        j = random_joint(rng, 3, 3)
        rep = variational_h(j, 1.0, 1.0, FAST)
        assert rep.minimum == pytest.approx(0.0, abs=1e-8)

    def test_independent_uniform_collapse(self):
        j = JointPmf(("a", "b"), ("u", "v"), np.full((2, 2), 0.25))
        rep = variational_h(j, 2.0, 1.0, FAST)
        assert rep.minimum == pytest.approx((2.0 - 1.0) * 1.0, abs=1e-6)

    def test_random_joint_matches_closed_form(self, rng):
        j = random_joint(rng, 2, 3)
        rep = variational_h(j, 0.5, 2.0, FAST)
        target = variational_h_target(j, 0.5, 2.0)
        assert abs(rep.minimum - target) <= max(1e-4, rep.gap)

    def test_solver_never_beats_feasible_point(self, rng):
        for _ in range(5):
            j = random_joint_with_zeros(rng, 3, 3)
            a, b = float(rng.uniform(0.3, 2.5)), float(rng.uniform(0.3, 2.5))
            obj = variational_h_objective(j, a, b)
            rep = minimize_over_joint(obj, cfg=FAST,
                                      labels=(j.alphabet_x, j.alphabet_y),
                                      extra_starts=[j.probs])
            at_p = obj.fn(j.probs)
            assert rep.minimum <= at_p + 1e-12

    def test_objective_midpoint_convexity(self, rng):
        for _ in range(10):
            j = random_joint(rng, 3, 3)
            a, b = float(rng.uniform(0.3, 3.0)), float(rng.uniform(0.3, 3.0))
            obj = variational_h_objective(j, a, b)
            q1 = random_joint(rng, 3, 3).probs
            q2 = random_joint(rng, 3, 3).probs
            mid = obj.fn((q1 + q2) / 2.0)
            assert mid <= (obj.fn(q1) + obj.fn(q2)) / 2.0 + 1e-10


class TestVariationalI:
    def test_alpha_one_vanishes(self, rng):
        j = random_joint(rng, 3, 3)
        rep = variational_i(j, 1.0, 0.5, FAST)
        assert rep.minimum == pytest.approx(0.0, abs=1e-8)

    def test_independent_joint_zero_at_reference(self, rng):
        j = JointPmf(("a", "b"), ("u", "v"), np.outer([0.4, 0.6], [0.3, 0.7]))
        for (a, b) in [(0.5, 0.5), (2.0, 1.0), (1.5, 2.0)]:
            rep = variational_i(j, a, b, FAST)
            assert rep.minimum == pytest.approx(0.0, abs=1e-7), (a, b)

    def test_random_joint_matches_closed_form(self, rng):
        j = random_joint(rng, 3, 3)
        rep = variational_i(j, 2.0, 0.5, FAST)
        target = variational_i_target(j, 2.0, 0.5)
        assert abs(rep.minimum - target) <= max(1e-4, rep.gap)

    def test_objective_midpoint_convexity(self, rng):
        for _ in range(10):
            j = random_joint(rng, 3, 3)
            a, b = float(rng.uniform(0.3, 3.0)), float(rng.uniform(0.3, 3.0))
            obj = variational_i_objective(j, a, b)
            q1 = random_joint(rng, 3, 3).probs
            q2 = random_joint(rng, 3, 3).probs
            mid = obj.fn((q1 + q2) / 2.0)
            assert mid <= (obj.fn(q1) + obj.fn(q2)) / 2.0 + 1e-10


class TestOracleEquality:
    """Reduced-scale version of acceptance criterion 3."""

    def test_grid_of_orders(self, rng):
        for _ in range(6):
            j = random_joint(rng, int(rng.integers(2, 4)), int(rng.integers(2, 4)))
            for a in (0.5, 1.5, 2.0):
                for b in (0.5, 1.0, 2.0):
                    rh = variational_h(j, a, b, FAST)
                    th = variational_h_target(j, a, b)
                    assert abs(rh.minimum - th) <= max(1e-4, rh.gap), ("h", a, b)
                    ri = variational_i(j, a, b, FAST)
                    ti = variational_i_target(j, a, b)
                    assert abs(ri.minimum - ti) <= max(1e-4, ri.gap), ("i", a, b)


class TestCertificate:
    def test_tilt_certifies_every_order(self, rng):
        for nx in range(2, 6):
            for ny in range(2, 6):
                for sample in (random_joint, random_joint_with_zeros):
                    j = sample(rng, nx, ny)
                    for a in (0.3, 0.5, 1.5, 2.0, 3.0):
                        for b in (0.25, 0.5, 1.0, 2.5):
                            for solve, target in ((variational_h, variational_h_target),
                                                  (variational_i, variational_i_target)):
                                rep = solve(j, a, b, FAST)
                                t = target(j, a, b)
                                case = (solve.__name__, nx, ny, sample.__name__, a, b)
                                assert rep.stop_reason == "certified", case
                                assert rep.iterations == 0 and rep.method == "tilt", case
                                assert 0.0 <= rep.gap < simplex_opt.CERT_TOL, case
                                assert rep.minimum - rep.gap <= t <= rep.minimum + rep.gap, case

    def test_certificate_bounds_any_point(self, rng):
        # [F(Q) - gap, F(Q)] holds at points far from the minimizer too
        for _ in range(10):
            j = random_joint(rng, 3, 3)
            a, b = float(rng.uniform(0.3, 3.0)), float(rng.uniform(0.3, 3.0))
            obj = variational_h_objective(j, a, b)
            pts = np.stack([random_joint(rng, 3, 3).probs.reshape(-1) for _ in range(4)])
            vals, lows = simplex_opt._certify(obj, pts, np.ones((3, 3), dtype=bool))
            t = variational_h_target(j, a, b)
            assert np.all(lows <= t) and np.all(t <= vals)

    def test_zero_cell_certifies_nothing(self):
        j = JointPmf(("a", "b"), ("u", "v"), np.full((2, 2), 0.25))
        obj = variational_h_objective(j, 2.0, 0.5)
        pts = np.array([[0.5, 0.0, 0.25, 0.25]])
        _, lows = simplex_opt._certify(obj, pts, np.ones((2, 2), dtype=bool))
        assert lows[0] == -math.inf

    def test_mutated_tilt_falls_back_and_stays_sound(self, rng, monkeypatch):
        # column exponent beta/alpha in place of beta/alpha - 1
        tilt = simplex_opt._tilt

        def mutated(logs, log_t, s_exp, root=1.0):
            return tilt(logs, log_t, s_exp + 1.0, root)

        monkeypatch.setattr(simplex_opt, "_tilt", mutated)
        for _ in range(2):
            j = random_joint(rng, 2, 3)
            for (a, b) in [(0.5, 2.0), (2.0, 0.5)]:
                for solve, target in ((variational_h, variational_h_target),
                                      (variational_i, variational_i_target)):
                    rep = solve(j, a, b, FAST)
                    t = target(j, a, b)
                    case = (solve.__name__, a, b)
                    assert rep.stop_reason != "certified" and rep.iterations > 0, case
                    assert abs(rep.minimum - t) <= max(1e-4, rep.gap), case
                    assert rep.minimum - rep.gap <= t, case


class TestBenchContract:
    """The names and shapes the layer benchmark reads from this module."""

    def test_solver_config_still_takes_refine_starts(self):
        cfg = SolverConfig(max_iters=2500, refine_starts=3)
        assert cfg.max_iters == 2500

    def test_mirror_descent_signature_and_result(self, rng, monkeypatch):
        params = list(inspect.signature(simplex_opt.mirror_descent).parameters)
        assert params == ["obj", "starts", "mask", "cfg"]
        descent, calls = simplex_opt.mirror_descent, []

        def recorded(*args, **kwargs):
            result = descent(*args, **kwargs)
            calls.append((args, kwargs, result))
            return result

        monkeypatch.setattr(simplex_opt, "mirror_descent", recorded)
        cfg = SolverConfig(max_iters=3)
        minimize_over_joint(kl_objective(random_joint(rng, 2, 3)), cfg=cfg)
        (args, kwargs, result), = calls
        assert not kwargs and args[3] is cfg
        assert len(result) == 6 and result[4] == cfg.max_iters
