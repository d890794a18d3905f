"""Strong-converse exponent calculators for privacy amplification (PA) and
soft covering (SC), each computable two independent ways.

Primal forms (order beta < 1): a maximization over alpha in [beta, 1] of

    PA:  (beta (1-alpha)) / (alpha (1-beta)) * (R - H~_{alpha,beta}(X|Y))
    SC:  (beta (1-alpha)) / (alpha (1-beta)) * (I~_{alpha,beta}(X:Y) - R)

evaluated on a dense alpha grid (default step 1e-3) plus golden-section
refinement of the best bracket; the alpha = 1 endpoint contributes exactly
0 and is included analytically (the coefficient vanishes there). For
beta >= 1 the closed forms |R - H_beta(X|Y)|+ and |I_beta(X:Y) - R|+ are
used directly.

Dual forms (beta < 1): minimizations over auxiliary joints Q of

    PA:  D(Q_Y||P_Y) + (beta/(1-beta)) D(Q_XY||P_XY) + |R - H(X|Y)_Q|+
    SC:  D(Q_Y||P_Y) + (beta/(1-beta)) D(Q_XY||P_XY)
         + |D(Q_{X|Y}||P_X|Q_Y) - R|+

Both are clipped combinations of the relative-entropy terms that
:mod:`renyinfo.simplex_opt` computes for the variational objectives, and
both run on its single grid + mirror-descent driver; the PA form takes the
driver's evaluated points and splits them into the pieces G1 (where
H(X|Y)_Q > R) and G2. The clipped terms are convex nonsmooth addends with
subgradient 0 inside the clip. The dual route shares no code with the
primal one: it never calls the two-parameter measures. Rates are in bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .dist import JointPmf
from .measures import cond_entropy_variant, mutual_info_variant
from .simplex_opt import (
    DEFAULT_CONFIG,
    OptReport,
    SimplexObjective,
    SolverConfig,
    _Terms,
    _joint_logs,
    _lipschitz_surrogate,
    _report,
    _scatter,
    _solve,
    minimize_over_joint,
)
from .two_param import h_tilde, h_tilde_curve, i_tilde_curve

INF = math.inf

BRANCH_LT1 = "beta_lt_1"
BRANCH_GE1 = "beta_ge_1"


@dataclass(frozen=True)
class Rate:
    """An extraction / covering rate in bits per symbol."""

    bits: float

    def __post_init__(self):
        if not (self.bits >= 0.0 and math.isfinite(self.bits)):
            raise ValueError(f"rate must be a finite non-negative number, got {self.bits!r}")


@dataclass(frozen=True)
class ExponentConfig:
    grid_step: float = 1e-3
    alpha_tol: float = 1e-9


DEFAULT_EXP_CONFIG = ExponentConfig()


@dataclass(frozen=True)
class ExponentResult:
    """Exponent in bits, the branch used, and the maximizing alpha (beta < 1)."""

    value: float
    branch: str
    arg_alpha: Optional[float] = None


def _coeff(alpha: np.ndarray | float, beta: float):
    return beta * (1.0 - alpha) / (alpha * (1.0 - beta))


def golden_section_max(f: Callable[[float], float], lo: float, hi: float, tol: float) -> tuple[float, float]:
    """Golden-section maximization of a continuous f on [lo, hi]."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    x = (a + b) / 2.0
    return x, f(x)


def _maximize_over_alpha(
    curve: Callable[[np.ndarray], np.ndarray], beta: float, cfg: ExponentConfig
) -> tuple[float, float]:
    """Maximize curve(alpha) over [beta, 1]; alpha = 1 contributes 0.

    Grid step cfg.grid_step, golden-section refinement of the best bracket,
    ties broken toward smaller alpha. Returns (value >= 0, arg_alpha).
    """
    top = 1.0 - 1e-9  # the alpha = 1 endpoint itself is the analytic 0
    alphas = np.arange(beta, 1.0, cfg.grid_step)
    alphas = alphas[alphas <= top]  # float steps can overshoot to exactly 1.0
    if len(alphas) == 0:
        alphas = np.array([min(beta, top)])
    vals = curve(alphas)
    i = int(np.argmax(vals))
    lo = alphas[max(0, i - 1)]
    hi = min(alphas[i] + cfg.grid_step, top)
    a_star, v_star = golden_section_max(
        lambda a: float(curve(np.array([a]))[0]), float(lo), float(hi), cfg.alpha_tol
    )
    if vals[i] > v_star:
        a_star, v_star = float(alphas[i]), float(vals[i])
    if v_star < 0.0:
        return 0.0, 1.0
    return v_star, a_star


# ---------------------------------------------------------------------------
# privacy amplification


def pa_exponent(joint: JointPmf, beta: float, rate, cfg: Optional[ExponentConfig] = None) -> ExponentResult:
    """Strong-converse exponent of privacy amplification at rate R, in bits.

    beta < 1: max over alpha in [beta, 1] of the scaled rate excess over
    the two-parameter conditional entropy; beta >= 1: |R - H_beta(X|Y)|+.
    """
    cfg = cfg or DEFAULT_EXP_CONFIG
    r = rate.bits if isinstance(rate, Rate) else Rate(float(rate)).bits
    beta = float(beta)
    if beta <= 0.0:
        raise ValueError("beta must be positive")
    if beta >= 1.0:
        h = cond_entropy_variant("h", joint, beta).value
        return ExponentResult(max(r - h, 0.0), BRANCH_GE1)

    def curve(alphas: np.ndarray) -> np.ndarray:
        return _coeff(alphas, beta) * (r - h_tilde_curve(joint, alphas, beta))

    value, a_star = _maximize_over_alpha(curve, beta, cfg)
    return ExponentResult(value, BRANCH_LT1, a_star)


def pa_dual_exponent(
    joint: JointPmf, beta: float, rate, cfg: Optional[SolverConfig] = None
) -> tuple[OptReport, OptReport]:
    """Dual pieces (G1, G2) of the PA exponent for beta in (0, 1).

    G1 minimizes the divergence base over {Q : H(X|Y)_Q > R}; G2 adds the
    R - H(X|Y)_Q excess over the complement. Their minimum equals the
    unconstrained minimum of base + |R - H(X|Y)_Q|+, which is what the
    mirror-descent stage certifies; the individual pieces are the best
    values among all evaluated points (grid, refinement ends, argmin)
    classified by the constraint. An infeasible piece (no evaluated point
    satisfies its constraint, e.g. G1 when R >= log|X|) reports
    minimum = +inf with argmin = None.
    """
    beta = float(beta)
    if not (0.0 < beta < 1.0):
        raise ValueError("dual form requires beta in (0, 1)")
    r = rate.bits if isinstance(rate, Rate) else Rate(float(rate)).bits
    logs = _joint_logs(joint)
    w = beta / (1.0 - beta)

    def batch(q: np.ndarray) -> np.ndarray:
        t = _Terms(q, logs)
        return t.dy + w * t.dqp + np.maximum(r - t.h, 0.0)

    def grad(q: np.ndarray) -> np.ndarray:
        t = _Terms(q, logs)
        active = (r - t.h) > 0.0
        return t.g_dy + w * t.g_dqp - np.where(active[..., None, None], t.g_h, 0.0)

    obj = SimplexObjective(joint.shape, batch, grad, logs.mask)
    run = _solve(obj, logs.mask, cfg or DEFAULT_CONFIG, joint.probs[logs.mask][None, :])

    candidates = np.concatenate([run.coords, run.ends, run.best_pt[None, :]], axis=0)
    t = _Terms(_scatter(candidates, run.mask), logs)
    base_c, h_c = t.dy + w * t.dqp, t.h
    labels = (joint.alphabet_x, joint.alphabet_y)

    def piece_report(sel: np.ndarray, values: np.ndarray, contains_refined: bool) -> OptReport:
        if not sel.any():
            return _report(run, INF, None, "infeasible", INF, labels)
        idx = np.flatnonzero(sel)
        jbest = idx[int(np.argmin(values[sel]))]
        delta = run.final_step if contains_refined else run.resolution
        lip = _lipschitz_surrogate(obj, candidates[jbest][None, :], run.mask)
        method = "grid+refine" if contains_refined else "grid"
        return _report(run, float(values[jbest]), candidates[jbest], method, lip * delta, labels)

    in_g1 = h_c > r
    refined_in_g1 = bool(h_c[-1] > r)
    return (piece_report(in_g1, base_c, refined_in_g1),
            piece_report(~in_g1, base_c + (r - h_c), not refined_in_g1))


# ---------------------------------------------------------------------------
# soft covering


def sc_exponent(joint: JointPmf, beta: float, rate, cfg: Optional[ExponentConfig] = None) -> ExponentResult:
    """Strong-converse exponent of soft covering at rate R, in bits.

    beta < 1: max over alpha in [beta, 1] of the scaled excess of the
    two-parameter mutual information over R; beta >= 1: |I_beta(X:Y) - R|+.
    """
    cfg = cfg or DEFAULT_EXP_CONFIG
    r = rate.bits if isinstance(rate, Rate) else Rate(float(rate)).bits
    beta = float(beta)
    if beta <= 0.0:
        raise ValueError("beta must be positive")
    if beta >= 1.0:
        i_b = mutual_info_variant("i", joint, beta).value
        return ExponentResult(max(i_b - r, 0.0), BRANCH_GE1)

    def curve(alphas: np.ndarray) -> np.ndarray:
        return _coeff(alphas, beta) * (i_tilde_curve(joint, alphas, beta) - r)

    value, a_star = _maximize_over_alpha(curve, beta, cfg)
    return ExponentResult(value, BRANCH_LT1, a_star)


def sc_dual_exponent(
    joint: JointPmf, beta: float, rate, cfg: Optional[SolverConfig] = None
) -> OptReport:
    """Dual form of the SC exponent for beta in (0, 1): the minimum over Q
    of base(Q) + |D(Q_{X|Y} || P_X | Q_Y) - R|+ with P_X the joint's own
    X marginal."""
    beta = float(beta)
    if not (0.0 < beta < 1.0):
        raise ValueError("dual form requires beta in (0, 1)")
    r = rate.bits if isinstance(rate, Rate) else Rate(float(rate)).bits
    logs = _joint_logs(joint)
    w = beta / (1.0 - beta)

    def batch(q: np.ndarray) -> np.ndarray:
        t = _Terms(q, logs)
        return t.dy + w * t.dqp + np.maximum(t.dxc - r, 0.0)

    def grad(q: np.ndarray) -> np.ndarray:
        t = _Terms(q, logs)
        active = (t.dxc - r) > 0.0
        return t.g_dy + w * t.g_dqp + np.where(active[..., None, None], t.g_dxc, 0.0)

    obj = SimplexObjective(joint.shape, batch, grad, logs.mask)
    return minimize_over_joint(
        obj,
        cfg=cfg,
        labels=(joint.alphabet_x, joint.alphabet_y),
        extra_starts=[joint.probs],
    )


# ---------------------------------------------------------------------------
# one-shot bounds


def one_shot_pa_lower_bound(joint: JointPmf, beta: float, alpha: float) -> float:
    """Lower bound on D_beta(P_XY || 1_X/|X| x P_Y) in bits:
    (beta (1-alpha))/(alpha (1-beta)) * (log2 |X| - H~_{alpha,beta}(X|Y)),
    valid for beta in (0, 1) and alpha in [beta, 1). The X coordinate is
    the hashed one; the ideal reference is uniform on it."""
    beta = float(beta)
    alpha = float(alpha)
    if not (0.0 < beta < 1.0):
        raise ValueError("beta must lie in (0, 1)")
    if not (beta <= alpha < 1.0):
        raise ValueError("alpha must lie in [beta, 1)")
    log_x = math.log2(len(joint.alphabet_x))
    h = h_tilde(joint, (alpha, beta)).value
    return _coeff(alpha, beta) * (log_x - h)


def sc_one_shot_bound(joint: JointPmf, beta: float, log_m: float, n: int = 1,
                      cfg: Optional[ExponentConfig] = None) -> float:
    """One-shot converse bound for soft covering with an n-fold source,
    evaluated through additivity: the n-fold measures are n times the
    single-letter ones. Returns the bound on the (unnormalized) ensemble
    divergence at codebook size M = 2^log_m."""
    cfg = cfg or DEFAULT_EXP_CONFIG
    beta = float(beta)
    if beta <= 0.0:
        raise ValueError("beta must be positive")
    if beta >= 1.0:
        i_b = mutual_info_variant("i", joint, beta).value
        return max(n * i_b - log_m, 0.0)

    def curve(alphas: np.ndarray) -> np.ndarray:
        return _coeff(alphas, beta) * (n * i_tilde_curve(joint, alphas, beta) - log_m)

    value, _ = _maximize_over_alpha(curve, beta, cfg)
    return value
