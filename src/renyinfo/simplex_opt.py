"""Convex minimization of relative-entropy objectives over joint simplices.

One driver serves every objective: a coarse barycentric grid over the
(support-restricted) simplex seeds an entropic mirror-descent refinement
(multiplicative updates), which keeps iterates strictly inside the support
of these convex but boundary-singular objectives. Its fixed numerics are
module constants: GRID_SUBDIVISIONS grid subdivisions (fewer beyond
GRID_BUDGET points, evaluated CHUNK at a time), seeds mixed with the
uniform point by INTERIOR_MIX, the step schedule STEP0 / (1 + t/STEP_DECAY)
with no line search, and at most DIM_CAP cells. Refinement stops when the
L1 step norm drops below STOP_STEP ("converged") or after
SolverConfig.max_iters iterations ("max_iters"); the report says which.

The reported "certified" gap is the crude surrogate L * delta, with delta
the final grid/step resolution and L a Lipschitz surrogate estimated over
the interior shrunk by INTERIOR_MARGIN; it is reported, never hidden.

The four objectives (the variational forms of H~ and I~ here, the PA and SC
dual exponents in renyinfo.exponents) combine the same relative-entropy
terms of the auxiliary joint Q (``_Terms``). They are the independent oracle
for the variational characterizations and the dual exponent forms.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .dist import JointPmf
from .errors import DimensionCap, NonFiniteObjectiveEverywhere
from .two_param import h_tilde, i_tilde

INF = math.inf

DIM_CAP = 36
GRID_SUBDIVISIONS = 8
GRID_BUDGET = 200_000
CHUNK = 8192
INTERIOR_MIX = 1e-4
INTERIOR_MARGIN = 1e-6
STEP0 = 0.1
STEP_DECAY = 100.0
STOP_STEP = 1e-10


@dataclass(frozen=True)
class SimplexObjective:
    """A convex objective over joints of shape ``dims``.

    ``batch`` maps an (..., nx, ny) stack to an (...) float array (+inf
    allowed at the boundary; finite somewhere on the relative interior).
    ``grad`` returns the Euclidean gradient in bits at strictly positive
    points, up to an additive constant. Cells outside ``support`` are
    pinned to zero mass; the objective is treated as +inf off that face.
    """

    dims: tuple[int, int]
    batch: Callable[[np.ndarray], np.ndarray]
    grad: Callable[[np.ndarray], np.ndarray]
    support: Optional[np.ndarray] = None

    def fn(self, q: np.ndarray) -> float:
        """The objective at one (nx, ny) matrix."""
        return float(self.batch(q[None])[0])


@dataclass(frozen=True)
class SolverConfig:
    """The two settings callers choose; the rest are module constants."""

    max_iters: int = 10_000
    refine_starts: int = 5


DEFAULT_CONFIG = SolverConfig()


@dataclass(frozen=True)
class OptReport:
    """Best value found, where, how, and a crude certified gap bound.

    ``stop_reason`` is "converged" (the last step was below STOP_STEP),
    "max_iters" (the descent ran out of iterations first) or "infeasible"
    (no evaluated point satisfied the piece's constraint).
    """

    minimum: float
    argmin: Optional[JointPmf]
    method: str
    gap: float
    iterations: int
    final_step: float
    stop_reason: str


@lru_cache(maxsize=64)
def _grid_coords(d: int, n: int) -> np.ndarray:
    """All barycentric grid points with n subdivisions on the (d-1)-simplex."""
    bars = itertools.combinations(range(n + d - 1), d - 1)
    arr = np.fromiter(
        itertools.chain.from_iterable(bars), dtype=np.int64, count=-1
    ).reshape(-1, d - 1) if d > 1 else np.zeros((1, 0), dtype=np.int64)
    padded = np.concatenate(
        [
            np.full((arr.shape[0], 1), -1, dtype=np.int64),
            arr,
            np.full((arr.shape[0], 1), n + d - 1, dtype=np.int64),
        ],
        axis=1,
    )
    counts = np.diff(padded, axis=1) - 1
    pts = counts.astype(np.float64) / n
    pts.setflags(write=False)
    return pts


def _pick_subdivisions(d: int) -> int:
    n = GRID_SUBDIVISIONS
    while n > 1 and math.comb(n + d - 1, d - 1) > GRID_BUDGET:
        n -= 1
    return n


def _scatter(coords: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Masked coordinates (..., d) -> full matrices (..., nx, ny)."""
    out = np.zeros(coords.shape[:-1] + mask.shape)
    out[..., mask] = coords
    return out


def evaluate_grid(
    obj: SimplexObjective, mask: np.ndarray, cfg: SolverConfig
) -> tuple[np.ndarray, np.ndarray, float]:
    """Objective values on the coarse grid over the masked face.

    The grid size depends only on the face dimension (see GRID_BUDGET), not
    on ``cfg``. Returns (coords (G, d), values (G,), resolution 1/n).
    """
    d = int(mask.sum())
    n = _pick_subdivisions(d)
    coords = _grid_coords(d, n)
    vals = np.empty(len(coords))
    for lo in range(0, len(coords), CHUNK):
        sl = slice(lo, lo + CHUNK)
        vals[sl] = obj.batch(_scatter(coords[sl], mask))
    return coords, vals, 1.0 / n


def mirror_descent(
    obj: SimplexObjective,
    starts: np.ndarray,
    mask: np.ndarray,
    cfg: SolverConfig,
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray, int, float]:
    """Batched multiplicative-update descent from ``starts`` (k, d).

    Returns (best value, best coords (d,), end coords (k, d),
    end values (k,), iterations, final step norm). The running incumbent
    (best value seen) is checked non-increasing at every iteration; a
    violation raises RuntimeError.
    """
    k, d = starts.shape
    logq = np.log2(np.maximum(starts, 1e-300))
    logq -= _lse2(logq)
    q = np.exp2(logq)
    vals = obj.batch(_scatter(q, mask))
    best_per = vals.copy()
    best_pts = q.copy()
    incumbent = float(np.min(vals))
    it = 0
    step = INF
    for it in range(1, cfg.max_iters + 1):
        g = obj.grad(_scatter(q, mask))[..., mask]
        g = g - g.mean(axis=-1, keepdims=True)
        eta = STEP0 / (1.0 + (it - 1) / STEP_DECAY)
        logq = logq - eta * g
        logq -= _lse2(logq)
        q_new = np.exp2(logq)
        step = float(np.abs(q_new - q).sum(axis=-1).max())
        q = q_new
        vals = obj.batch(_scatter(q, mask))
        better = vals < best_per
        best_per[better] = vals[better]
        best_pts[better] = q[better]
        new_incumbent = min(incumbent, float(np.min(best_per)))
        if new_incumbent > incumbent + 1e-12:
            raise RuntimeError(f"incumbent increased from {incumbent!r} to {new_incumbent!r}")
        incumbent = new_incumbent
        if step < STOP_STEP:
            break
    j = int(np.argmin(best_per))
    return float(best_per[j]), best_pts[j], q, vals, it, step


def _lse2(logq: np.ndarray) -> np.ndarray:
    m = logq.max(axis=-1, keepdims=True)
    return m + np.log2(np.exp2(logq - m).sum(axis=-1, keepdims=True))


def _lipschitz_surrogate(obj: SimplexObjective, probes: np.ndarray, mask: np.ndarray) -> float:
    """Crude sup-gradient bound over the interior-shrunk probes (k, d)."""
    d = int(mask.sum())
    uniform = np.full(d, 1.0 / d)
    shrunk = (1.0 - INTERIOR_MARGIN) * probes + INTERIOR_MARGIN * uniform
    g = obj.grad(_scatter(shrunk, mask))[..., mask]
    g = g - g.mean(axis=-1, keepdims=True)
    val = float(np.abs(g).max())
    return 2.0 * val if math.isfinite(val) else INF


@dataclass(frozen=True)
class _Run:
    """Every point one grid + descent solve evaluated, in masked coordinates."""

    mask: np.ndarray
    coords: np.ndarray  # grid points (G, d)
    vals: np.ndarray  # objective on the grid (G,)
    grid_best: int  # index of the lowest finite grid value
    resolution: float  # grid spacing 1/n
    ends: np.ndarray  # descent end points (k, d)
    best_val: float  # lowest value the descent saw
    best_pt: np.ndarray  # where it saw it (d,)
    iterations: int
    final_step: float


def _solve(
    obj: SimplexObjective, mask: np.ndarray, cfg: SolverConfig, extra: Optional[np.ndarray]
) -> _Run:
    """The grid -> seed -> mirror-descent pipeline behind every solve.

    ``mask`` is the objective's support and ``extra`` holds further seeds
    (k, d) in masked coordinates. Raises DimensionCap when the simplex has
    more than DIM_CAP cells and NonFiniteObjectiveEverywhere when no grid
    point evaluates finite.
    """
    nx, ny = obj.dims
    if nx * ny > DIM_CAP:
        raise DimensionCap(f"{nx}x{ny} = {nx * ny} cells > cap {DIM_CAP}")
    d = int(mask.sum())

    coords, vals, resolution = evaluate_grid(obj, mask, cfg)
    finite = np.isfinite(vals)
    if not finite.any():
        raise NonFiniteObjectiveEverywhere("objective is +inf on every grid point")
    order = np.argsort(np.where(finite, vals, INF))
    k = min(cfg.refine_starts, int(finite.sum()))
    seeds = coords[order[:k]]
    if extra is not None:
        seeds = np.concatenate([seeds, extra], axis=0)

    uniform = np.full(d, 1.0 / d)
    seeds = (1.0 - INTERIOR_MIX) * seeds + INTERIOR_MIX * uniform

    best_val, best_pt, ends, _, iters, final_step = mirror_descent(obj, seeds, mask, cfg)
    return _Run(mask, coords, vals, int(order[0]), resolution, ends, best_val, best_pt,
                iters, final_step)


def _report(
    run: _Run,
    value: float,
    point: Optional[np.ndarray],
    method: str,
    gap: float,
    labels: Optional[tuple[Sequence[str], Sequence[str]]],
) -> OptReport:
    """The report for ``point`` (masked coords) of ``run``; None is infeasible."""
    if point is None:
        return OptReport(value, None, method, gap, run.iterations, run.final_step, "infeasible")
    stop_reason = "converged" if run.final_step < STOP_STEP else "max_iters"
    full = _scatter(point, run.mask)
    if labels is None:
        nx, ny = run.mask.shape
        labels = (tuple(f"x{i}" for i in range(nx)), tuple(f"y{j}" for j in range(ny)))
    argmin = JointPmf(tuple(labels[0]), tuple(labels[1]), full / full.sum())
    return OptReport(value, argmin, method, float(gap), run.iterations, run.final_step,
                     stop_reason)


def minimize_over_joint(
    obj: SimplexObjective,
    cfg: Optional[SolverConfig] = None,
    labels: Optional[tuple[Sequence[str], Sequence[str]]] = None,
    extra_starts: Optional[list[np.ndarray]] = None,
) -> OptReport:
    """Grid + mirror-descent minimization of ``obj`` over the joint simplex.

    ``extra_starts`` are full (nx, ny) matrices added to the refinement
    seeds (e.g. a known feasible point). Raises DimensionCap when the
    simplex is larger than DIM_CAP cells and NonFiniteObjectiveEverywhere
    when no grid point evaluates finite.
    """
    mask = obj.support if obj.support is not None else np.ones(obj.dims, dtype=bool)
    extra = None
    if extra_starts:
        extra = np.stack([np.asarray(s, dtype=np.float64)[mask] for s in extra_starts])
        extra = extra / extra.sum(axis=-1, keepdims=True)
    run = _solve(obj, mask, cfg or DEFAULT_CONFIG, extra)
    best_val, best_pt, method = run.best_val, run.best_pt, "grid+refine"
    grid_best = float(run.vals[run.grid_best])
    if grid_best < best_val:
        best_val, best_pt, method = grid_best, run.coords[run.grid_best], "grid"

    d = len(best_pt)
    probes = np.stack([best_pt, np.full(d, 1.0 / d)])
    lip = _lipschitz_surrogate(obj, probes, mask)
    delta = run.final_step if run.final_step < run.resolution else run.resolution
    return _report(run, best_val, best_pt, method, lip * delta, labels)


# ---------------------------------------------------------------------------
# the relative-entropy terms shared by every objective


def _safe_log2(a: np.ndarray) -> np.ndarray:
    return np.log2(np.where(a > 0.0, a, 1.0))


class _JointLogs(NamedTuple):
    """A reference joint P as the term computations need it."""

    mask: np.ndarray  # support of P
    logp: np.ndarray  # log2 P, 0 off the support
    logpy: np.ndarray  # log2 P_Y, 0 where P_Y = 0
    logpx: np.ndarray  # log2 P_X as an (nx, 1) column, 0 where P_X = 0


def _joint_logs(joint: JointPmf) -> _JointLogs:
    p = joint.probs
    return _JointLogs(p > 0.0, _safe_log2(p), _safe_log2(p.sum(axis=0)),
                      _safe_log2(p.sum(axis=1))[:, None])


class _Terms:
    """The four relative-entropy terms of a batch of Q against P, in bits.

    For Q of shape (..., nx, ny): ``dy`` = D(Q_Y || P_Y), ``dqp`` =
    D(Q_XY || P_XY), ``h`` = H(X|Y)_Q and ``dxc`` = D(Q_{X|Y} || P_X | Q_Y),
    each of shape (...), and ``g_<term>``, the term's gradient up to an
    additive constant, which the mean-centred mirror step removes. Zeros of
    Q are exact (0 log 0 = 0). Attributes are computed on first use, so an
    objective pays only for the terms it combines.
    """

    def __init__(self, q: np.ndarray, logs: _JointLogs):
        self.q, self.logs = q, logs
        self.lq = _safe_log2(q)
        self.qy = q.sum(axis=-2)
        self.lqy = _safe_log2(self.qy)
        self.ly = self.lqy[..., None, :]

    g_dy = cached_property(lambda t: (t.lqy - t.logs.logpy)[..., None, :])  # (..., 1, ny)
    g_dqp = cached_property(lambda t: t.lq - t.logs.logp)
    g_h = cached_property(lambda t: t.ly - t.lq)
    g_dxc = cached_property(lambda t: t.lq - t.ly - t.logs.logpx)
    dy = cached_property(lambda t: (t.qy * t.g_dy[..., 0, :]).sum(axis=-1))
    dqp = cached_property(lambda t: (t.q * t.g_dqp).sum(axis=(-2, -1)))
    h = cached_property(lambda t: (t.qy * t.lqy).sum(axis=-1) - (t.q * t.lq).sum(axis=(-2, -1)))
    dxc = cached_property(lambda t: (t.q * (t.lq - (t.ly + t.logs.logpx))).sum(axis=(-2, -1)))


# ---------------------------------------------------------------------------
# the two variational objectives


def variational_h_objective(
    joint: JointPmf, alpha: float, beta: float
) -> SimplexObjective:
    """Objective whose simplex minimum equals (alpha - 1) * H~_{alpha,beta}(X|Y).

    F(Q) = (alpha (1-beta)/beta) D(Q_Y || P_Y) + alpha D(Q_XY || P_XY)
           + (alpha - 1) H(X|Y)_Q, in bits.
    """
    if not (0.0 < alpha < INF and 0.0 < beta < INF):
        raise ValueError("finite positive (alpha, beta) required")
    logs = _joint_logs(joint)
    c1 = alpha * (1.0 - beta) / beta

    def batch(q: np.ndarray) -> np.ndarray:
        t = _Terms(q, logs)
        return c1 * t.dy + alpha * t.dqp + (alpha - 1.0) * t.h

    def grad(q: np.ndarray) -> np.ndarray:
        t = _Terms(q, logs)
        return c1 * t.g_dy + alpha * t.g_dqp + (alpha - 1.0) * t.g_h

    return SimplexObjective(joint.shape, batch, grad, logs.mask)


def variational_i_objective(
    joint: JointPmf, alpha: float, beta: float
) -> SimplexObjective:
    """Objective whose simplex minimum equals (1 - alpha) * I~_{alpha,beta}(X:Y).

    F(Q) = (alpha (1-beta)/beta) D(Q_Y || P_Y) + alpha D(Q_XY || P_XY)
           + (1 - alpha) D(Q_{X|Y} || P_X | Q_Y), in bits.
    """
    if not (0.0 < alpha < INF and 0.0 < beta < INF):
        raise ValueError("finite positive (alpha, beta) required")
    logs = _joint_logs(joint)
    c1 = alpha * (1.0 - beta) / beta

    def batch(q: np.ndarray) -> np.ndarray:
        t = _Terms(q, logs)
        return c1 * t.dy + alpha * t.dqp + (1.0 - alpha) * t.dxc

    def grad(q: np.ndarray) -> np.ndarray:
        t = _Terms(q, logs)
        return c1 * t.g_dy + alpha * t.g_dqp + (1.0 - alpha) * t.g_dxc

    return SimplexObjective(joint.shape, batch, grad, logs.mask)


def variational_h(
    joint: JointPmf, alpha: float, beta: float, cfg: Optional[SolverConfig] = None
) -> OptReport:
    """Solve the conditional-entropy variational problem; the report's
    minimum approximates (alpha - 1) * H~_{alpha,beta}(X|Y)."""
    obj = variational_h_objective(joint, alpha, beta)
    return minimize_over_joint(
        obj,
        cfg=cfg,
        labels=(joint.alphabet_x, joint.alphabet_y),
        extra_starts=[joint.probs],
    )


def variational_i(
    joint: JointPmf, alpha: float, beta: float, cfg: Optional[SolverConfig] = None
) -> OptReport:
    """Solve the mutual-information variational problem; the report's
    minimum approximates (1 - alpha) * I~_{alpha,beta}(X:Y)."""
    obj = variational_i_objective(joint, alpha, beta)
    return minimize_over_joint(
        obj,
        cfg=cfg,
        labels=(joint.alphabet_x, joint.alphabet_y),
        extra_starts=[joint.probs],
    )


def variational_h_target(joint: JointPmf, alpha: float, beta: float) -> float:
    """Closed-form (alpha - 1) * H~_{alpha,beta}(X|Y) for certification."""
    if alpha == 1.0:
        return 0.0
    return (alpha - 1.0) * h_tilde(joint, (alpha, beta)).value


def variational_i_target(joint: JointPmf, alpha: float, beta: float) -> float:
    """Closed-form (1 - alpha) * I~_{alpha,beta}(X:Y) for certification."""
    if alpha == 1.0:
        return 0.0
    return (1.0 - alpha) * i_tilde(joint, (alpha, beta)).value
