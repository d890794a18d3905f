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

Both are clipped combinations, base + |l|+, of the relative-entropy terms
that :mod:`renyinfo.simplex_opt` computes for the variational objectives.
They are solved through their Lagrangian: base + |l|+ is the max over
lambda in [0, 1] of F_lambda = base + lambda l, every F_lambda is convex and
minimized in closed form by a tilted joint Q_lambda, and a 1-D search over
lambda (of its own; it never borrows the primal alpha*) maximizes the
certified lower bounds F_lambda(Q_lambda) - gap_lambda(Q_lambda) while the
values F(Q_lambda) give the upper bound. An interval wider than
simplex_opt.CERT_TOL falls back to the mirror-descent driver started from
the best Q_lambda, whose points are certified on the clipped objective
itself and so can tighten both bounds. The PA form splits the evaluated
points into the pieces G1 (where H(X|Y)_Q > R) and G2.
The dual route shares no code with the primal one: it never calls the
two-parameter measures. Rates are in bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .dist import JointPmf
from .measures import cond_entropy_variant, mutual_info_variant
from .simplex_opt import (
    CERT_TOL,
    DEFAULT_CONFIG,
    OptReport,
    SimplexObjective,
    SolverConfig,
    _gap,
    _joint_logs,
    _lower_bound,
    _report,
    _Run,
    _scatter,
    _solve,
    _Terms,
    _tilt,
)
from .two_param import h_tilde, h_tilde_curve, i_tilde_curve

INF = math.inf

BRANCH_LT1 = "beta_lt_1"
BRANCH_GE1 = "beta_ge_1"
LAMBDA_TOL = 1e-9
FALSI_STEPS = 100


@dataclass(frozen=True)
class Rate:
    """An extraction / covering rate in bits per symbol."""

    bits: float

    def __post_init__(self):
        if not (self.bits >= 0.0 and math.isfinite(self.bits)):
            raise ValueError(f"rate must be a finite non-negative number, got {self.bits!r}")


@dataclass(frozen=True)
class ExponentConfig:
    """The primal search's alpha grid step and golden-section tolerance."""

    grid_step: float = 1e-3
    alpha_tol: float = 1e-9

    def __post_init__(self):
        for name in ("grid_step", "alpha_tol"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0.0):
                raise ValueError(f"{name} must be finite and positive, got {v!r}")


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


def _falsi_root(f: Callable[[float], float], a: float, b: float, fa: float, fb: float,
                tol: float) -> None:
    """Shrink [a, b] around the root of a decreasing f with fa > 0 > fb to
    width tol by Illinois regula falsi (the retained end's value is halved
    when the same end moves twice, so both ends converge), in at most
    FALSI_STEPS evaluations."""
    side = 0
    for _ in range(FALSI_STEPS):
        if b - a <= tol:
            return
        c = min(max((a * fb - b * fa) / (fb - fa), a), b)
        fc = f(c)
        if fc > 0.0:
            a, fa = c, fc
            fb, side = (fb / 2.0 if side > 0 else fb), 1
        elif fc < 0.0:
            b, fb = c, fc
            fa, side = (fa / 2.0 if side < 0 else fa), -1
        else:
            return


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
    Lagrangian search certifies; the individual pieces are the best
    values among all evaluated points (the tilts Q_lambda, and the descent
    ends and best point on fallback) classified by the constraint, and
    both feasible pieces carry the certified width of min(G1, G2) as their
    gap. An infeasible piece (no evaluated point satisfies its
    constraint, e.g. G1 when R >= log|X|) reports minimum = +inf with
    argmin = None.
    """
    dual = _Dual(joint, beta, rate, True)
    sol = _dual_solve(dual, cfg)
    base, h, r = dual.base(sol.terms), sol.terms.h, dual.r
    gap = _gap(float(np.min(dual.value(sol.terms))), sol.lower)
    labels = (joint.alphabet_x, joint.alphabet_y)

    def piece_report(sel: np.ndarray, values: np.ndarray) -> OptReport:
        if not sel.any():
            return _report(dual.mask, sol.run, INF, None, "infeasible", INF, labels)
        jbest = int(np.flatnonzero(sel)[int(np.argmin(values[sel]))])
        return _report(dual.mask, sol.run, float(values[jbest]), sol.pts[jbest], sol.method,
                       gap, labels)

    in_g1 = h > r
    return piece_report(in_g1, base), piece_report(~in_g1, base + (r - h))


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
    dual = _Dual(joint, beta, rate, False)
    sol = _dual_solve(dual, cfg)
    vals = dual.value(sol.terms)
    j = int(np.argmin(vals))
    return _report(dual.mask, sol.run, float(vals[j]), sol.pts[j], sol.method,
                   _gap(float(vals[j]), sol.lower), (joint.alphabet_x, joint.alphabet_y))


# ---------------------------------------------------------------------------
# the dual forms and their Lagrangian search


class _Dual:
    """One dual problem: minimize base + |l|+ over Q, where
    base = D(Q_Y||P_Y) + w D(Q_XY||P_XY) with w = beta/(1-beta), and
    l = R - H(X|Y)_Q (PA) or l = D(Q_{X|Y}||P_X|Q_Y) - R (SC)."""

    def __init__(self, joint: JointPmf, beta: float, rate, pa: bool):
        beta = float(beta)
        if not (0.0 < beta < 1.0):
            raise ValueError("dual form requires beta in (0, 1)")
        self.r = rate.bits if isinstance(rate, Rate) else Rate(float(rate)).bits
        self.shape, self.pa = joint.shape, pa
        self.logs = _joint_logs(joint)
        self.mask = self.logs.mask
        self.w = beta / (1.0 - beta)

    def base(self, t: _Terms) -> np.ndarray:
        return t.dy + self.w * t.dqp

    def g_base(self, t: _Terms) -> np.ndarray:
        return t.g_dy + self.w * t.g_dqp

    def ell(self, t: _Terms) -> np.ndarray:
        return self.r - t.h if self.pa else t.dxc - self.r

    def g_ell(self, t: _Terms) -> np.ndarray:
        return -t.g_h if self.pa else t.g_dxc

    def value(self, t: _Terms) -> np.ndarray:
        return self.base(t) + np.maximum(self.ell(t), 0.0)

    def objective(self) -> SimplexObjective:
        def batch(q: np.ndarray) -> np.ndarray:
            return self.value(_Terms(q, self.logs))

        def grad(q: np.ndarray) -> np.ndarray:
            t = _Terms(q, self.logs)
            active = self.ell(t) > 0.0
            return self.g_base(t) + np.where(active[..., None, None], self.g_ell(t), 0.0)

        return SimplexObjective(self.shape, batch, grad, self.mask)

    def lagrangian_tilt(self, lam: float) -> np.ndarray:
        """The minimizer of base + lam * l (masked coordinates):
        Q(x,y) ∝ Q_Y(y) t(x,y) / S_y with S_y = Σ_x t(x,y),
        Q_Y ∝ (P_Y S_y^(w+lam))^(1/(1+w)), and t = P^(w/(w+lam)) (PA) or
        t = (P^w P_X^lam)^(1/(w+lam)) (SC). At lam = 0 it is P."""
        w, logs = self.w, self.logs
        log_t = (w * logs.logp + (0.0 if self.pa else lam * logs.logpx)) / (w + lam)
        return _tilt(logs, log_t, w + lam, 1.0 / (1.0 + w))


def pa_dual_objective(joint: JointPmf, beta: float, rate) -> SimplexObjective:
    """The PA dual objective D(Q_Y||P_Y) + (beta/(1-beta)) D(Q_XY||P_XY)
    + |R - H(X|Y)_Q|+ for beta in (0, 1); ``grad`` is a subgradient."""
    return _Dual(joint, beta, rate, True).objective()


class _DualSolve(NamedTuple):
    """Every point a dual solve evaluated, with its terms and bounds."""

    pts: np.ndarray  # evaluated points (k, d), masked coordinates
    terms: _Terms  # their relative-entropy terms
    lower: float  # certified lower bound on the minimum
    run: Optional[_Run]  # the fallback, None when the search certified
    method: str


def _dual_solve(dual: _Dual, cfg: Optional[SolverConfig]) -> _DualSolve:
    """Certified minimization of base + |l|+ through its Lagrangian.

    base + |l|+ = max over lam in [0, 1] of F_lam = base + lam l, so every
    F_lam(Q_lam) - gap_lam(Q_lam) at the closed-form minimizer Q_lam is a
    certified lower bound, and the objective at every evaluated Q_lam bounds
    the minimum from above. g(lam) = min_Q F_lam is concave with slope
    l(Q_lam) (Danskin), so it peaks at lam = 0 if l(P) <= 0, at lam = 1 if
    l(Q_1) >= 0, and otherwise where l(Q_lam) = 0, which regula falsi
    brackets to LAMBDA_TOL. The search only proposes lam: every bound is
    checked where it is taken. A gap of at least CERT_TOL runs the
    mirror-descent fallback from the best Q_lam; its points join the
    evaluated ones and its certified bound (taken on base + |l|+ with the
    subgradient of ``_Dual.objective``) joins the lower bound.
    """
    mask, tilts, lowers = dual.mask, [], []

    def slope(lam: float) -> float:
        """Record Q_lam and its certified bound; return l(Q_lam)."""
        q = dual.lagrangian_tilt(lam)
        t = _Terms(_scatter(q, mask), dual.logs)
        ell = dual.ell(t)
        g = (dual.g_base(t) + lam * dual.g_ell(t))[mask]
        tilts.append(q)
        lowers.append(float(_lower_bound(np.atleast_1d(dual.base(t) + lam * ell), g[None],
                                         q[None])[0]))
        return float(ell)

    at_0, at_1 = slope(0.0), slope(1.0)
    if at_0 > 0.0 > at_1:
        _falsi_root(slope, 0.0, 1.0, at_0, at_1, LAMBDA_TOL)
    pts, lower = np.stack(tilts), max(lowers)
    t = _Terms(_scatter(pts, mask), dual.logs)
    vals = dual.value(t)
    if _gap(float(vals.min()), lower) < CERT_TOL:
        return _DualSolve(pts, t, lower, None, "tilt")
    run = _solve(dual.objective(), mask, cfg or DEFAULT_CONFIG, pts[int(np.argmin(vals))][None])
    pts = np.concatenate([pts, run.ends, run.best_pt[None]], axis=0)
    return _DualSolve(pts, _Terms(_scatter(pts, mask), dual.logs), max(lower, run.lower), run,
                      "descent")


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
