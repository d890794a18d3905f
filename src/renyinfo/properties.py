"""Named structural property checks for the information measures.

Each check samples random instances (seeded), evaluates one inequality or
identity family, and reports the worst violation with a counterexample
payload. The registry keys are behavior-named so they can be selected from
the command line (e.g. ``--props mono-alpha,additivity``); the same checks
back the acceptance suite.

Slack is 1e-9 unless a check states otherwise. The checks of one
two-parameter function at many orders (monotonicity, additivity,
data processing, concavity and convexity, non-negativity) read all of a
joint's orders from one grid call; the collapse check keeps its routes
outside the kernel, and lagrangian-identity compares the kernel's tilted
slope with the dual exponents' closed-form tilt, which never calls it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .dist import (
    CondPmf,
    JointPmf,
    Pmf,
    condition_on_y,
    joint_from_channel,
    marginal_x,
    marginal_y,
    product,
)
from .exponents import _Dual
from .measures import (
    _generic_tilt,
    _kernel_inputs,
    cond_entropy_variant,
    mutual_info_variant,
    relative_entropy,
    renyi_divergence,
    renyi_entropy,
    shannon_cond_entropy,
    shannon_mi,
)
from .orders import OrderPair
from .sampling import (
    markov_chain_pair,
    random_channel,
    random_joint,
    random_joint_with_zeros,
    random_pmf,
    random_triple,
    triple_as_joint_x_yz,
    triple_as_joint_xy_z,
)
from .simplex_opt import _scatter, _Terms
from .two_param import h_tilde, h_tilde_grid, i_tilde, i_tilde_grid

ALPHA_GRID = (0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 4.0)
BETA_GRID = (0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 4.0)
EXT_GRID = (0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 4.0, math.inf)
SLACK = 1e-9


@dataclass
class PropertyResult:
    name: str
    passed: bool
    checked: int
    worst: float
    counterexample: Optional[dict] = None
    detail: str = ""
    seconds: float = 0.0  # wall time of the check, set by run_properties

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "checked": self.checked,
            "worst_violation": self.worst,
            "counterexample": self.counterexample,
            "detail": self.detail,
            # to the millisecond, as printed: finer digits are timer noise
            # and would make every report of a check distinct
            "seconds": round(self.seconds, 3),
        }


@dataclass(frozen=True)
class Property:
    name: str
    description: str
    fn: Callable[[np.random.Generator, int], PropertyResult]
    default_samples: int = 60


class _Tracker:
    """Accumulates the worst violation and its witness."""

    def __init__(self, name: str, slack: float = SLACK):
        self.name = name
        self.slack = slack
        self.worst = 0.0
        self.witness: Optional[dict] = None
        self.checked = 0

    def see(self, violation: float, witness: dict):
        self.checked += 1
        if violation > self.worst:
            self.worst = violation
            self.witness = witness

    def result(self, detail: str = "") -> PropertyResult:
        passed = self.worst <= self.slack
        return PropertyResult(
            self.name,
            passed,
            self.checked,
            self.worst,
            None if passed else self.witness,
            detail,
        )


def _joint_payload(j: JointPmf) -> dict:
    return {"alphabet_x": list(j.alphabet_x), "alphabet_y": list(j.alphabet_y),
            "pmf": [list(map(float, r)) for r in j.probs]}


def _sizes(rng, hi=5):
    return int(rng.integers(2, hi + 1)), int(rng.integers(2, hi + 1))


def _h_grid(j: JointPmf, alphas, betas) -> list[list[float]]:
    """h_tilde values on alphas x betas, row i at alphas[i]."""
    return h_tilde_grid(j, alphas, betas).values.tolist()


def _i_grid(j: JointPmf, alphas, betas) -> list[list[float]]:
    """i_tilde values on alphas x betas, row i at alphas[i]."""
    return i_tilde_grid(j, alphas, betas).values.tolist()


# ---------------------------------------------------------------------------
# classical divergence properties


def check_div_order_mono(rng: np.random.Generator, samples: int) -> PropertyResult:
    """Divergence is non-decreasing in the order (slack 1e-10)."""
    t = _Tracker("div-order-mono", slack=1e-10)
    for _ in range(samples):
        k = int(rng.integers(2, 6))
        p, q = random_pmf(rng, k), random_pmf(rng, k)
        vals = [renyi_divergence(p, q, a).value for a in EXT_GRID]
        for lo, hi in zip(vals, vals[1:]):
            t.see(lo - hi, {"p": list(map(float, p.probs)), "q": list(map(float, q.probs))})
    return t.result()


def check_div_dpi(rng: np.random.Generator, samples: int) -> PropertyResult:
    """Channels cannot increase the divergence (slack 1e-10)."""
    t = _Tracker("div-dpi", slack=1e-10)
    for _ in range(samples):
        k = int(rng.integers(2, 5))
        ko = int(rng.integers(2, 5))
        p, q = random_pmf(rng, k), random_pmf(rng, k)
        w = random_channel(rng, k, ko).matrix()
        wp = Pmf(tuple(f"o{i}" for i in range(ko)), p.probs @ w)
        wq = Pmf(tuple(f"o{i}" for i in range(ko)), q.probs @ w)
        for a in EXT_GRID:
            before = renyi_divergence(p, q, a).value
            after = renyi_divergence(wp, wq, a).value
            if math.isinf(before):
                continue
            t.see(after - before, {"alpha": a, "p": list(map(float, p.probs)),
                                   "q": list(map(float, q.probs))})
    return t.result()


def _simplex_grid_3(n: int) -> np.ndarray:
    pts = []
    for i in range(n + 1):
        for j in range(n + 1 - i):
            pts.append((i, j, n - i - j))
    return np.asarray(pts, dtype=np.float64) / n


def check_div_variational(rng: np.random.Generator, samples: int) -> PropertyResult:
    """Grid optimum of (a/(1-a)) D(S||P) + D(S||Q) matches D_a within twice
    the grid-resolution error bound (min for a < 1, max for a > 1)."""
    t = _Tracker("div-variational", slack=0.0)
    n = 60
    grid = _simplex_grid_3(n)
    interior = grid[(grid > 0).all(axis=1)]
    lg = np.log2(interior)
    for _ in range(max(samples // 4, 3)):
        p = random_pmf(rng, 3, concentration=3.0)
        q = random_pmf(rng, 3, concentration=3.0)
        lp, lq = np.log2(p.probs), np.log2(q.probs)
        for a in (0.3, 0.7, 1.5, 3.0):
            c = a / (1.0 - a)
            obj = c * np.sum(interior * (lg - lp), axis=1) + np.sum(
                interior * (lg - lq), axis=1
            )
            d = renyi_divergence(p, q, a).value
            if a < 1.0:
                j = int(np.argmin(obj))
                one_sided = d - obj[j]  # grid value can only overshoot the min
                gap = obj[j] - d
            else:
                j = int(np.argmax(obj))
                one_sided = obj[j] - d
                gap = d - obj[j]
            s = interior[j]
            g = c * (np.log2(s) - lp) + (np.log2(s) - lq)
            lip = float(np.abs(g - g.mean()).max()) + 1.0
            bound = 2.0 * lip / n
            witness = {"alpha": a, "p": list(map(float, p.probs)),
                       "q": list(map(float, q.probs)), "gap": float(gap)}
            t.see(one_sided - 1e-12, witness)
            t.see(gap - bound, witness)
    return t.result()


def check_div_continuity(rng: np.random.Generator, samples: int) -> PropertyResult:
    """|D_{1 +/- 1e-3} - D| <= 1e-4 on interior-support inputs.

    Inputs are concentrated (Dirichlet 25) so the pinned offset keeps the
    Taylor remainder below the pinned tolerance; branch bugs still show up
    at O(0.1) on these inputs.
    """
    t = _Tracker("div-continuity", slack=0.0)
    for _ in range(samples):
        k = int(rng.integers(2, 6))
        p = random_pmf(rng, k, concentration=80.0)
        q = random_pmf(rng, k, concentration=80.0)
        d1 = relative_entropy(p, q)
        for a in (1.0 - 1e-3, 1.0 + 1e-3):
            da = renyi_divergence(p, q, a).value
            t.see(abs(da - d1) - 1e-4, {"alpha": a, "p": list(map(float, p.probs)),
                                        "q": list(map(float, q.probs))})
    return t.result()


def check_nonneg(rng: np.random.Generator, samples: int) -> PropertyResult:
    """Entropies, divergences, and both two-parameter measures are >= 0;
    the mutual information vanishes exactly on independent joints."""
    t = _Tracker("nonneg")
    cells = [(ia, ib, str(OrderPair.of(a, b)))
             for ia, a in enumerate(EXT_GRID) for ib, b in enumerate(EXT_GRID)
             if not (a == 1.0 and math.isinf(b))]
    for i in range(samples):
        nx, ny = _sizes(rng, 4)
        j = random_joint(rng, nx, ny) if i % 2 == 0 else random_joint_with_zeros(rng, nx, ny)
        payload = _joint_payload(j)
        hv, iv = _h_grid(j, EXT_GRID, EXT_GRID), _i_grid(j, EXT_GRID, EXT_GRID)
        for ia, ib, order in cells:
            t.see(-hv[ia][ib], {"order": order, **payload})
            t.see(-iv[ia][ib], {"order": order, **payload})
        px, py = marginal_x(j), marginal_y(j)
        indep = JointPmf(j.alphabet_x, j.alphabet_y, np.outer(px.probs, py.probs))
        iv = _i_grid(indep, EXT_GRID, EXT_GRID)
        for ia, ib, order in cells[:: max(1, len(cells) // 12)]:
            t.see(abs(iv[ia][ib]), {"order": order, "case": "independence"})
    return t.result()


# ---------------------------------------------------------------------------
# two-parameter structure


def _sibson(p: np.ndarray, r: np.ndarray, a: float) -> float:
    """D_a(P_XY || R x Q*) at Sibson's optimal reference Q* for a
    distribution R on X: Q*(y) is proportional to
    (sum_x R(x)^(1-a) P_XY(x,y)^a)^(1/a); at a = inf to the max over
    supp P_XY(., y) of P_XY(x,y) / R(x); at a = 0 Q* is uniform on the y
    that maximize R(supp P_XY(., y)). Evaluated on the flattened joint."""
    on = p > 0.0
    if a == 0.0:
        mass = np.where(on, r[:, None], 0.0).sum(axis=0)
        q = (mass == mass.max()).astype(np.float64)
    elif math.isinf(a):
        q = np.where(on, p / r[:, None], 0.0).max(axis=0)
    else:
        q = np.where(on, r[:, None] ** (1.0 - a) * p**a, 0.0).sum(axis=0) ** (1.0 / a)
    labels = tuple(str(k) for k in range(p.size))
    ref = np.outer(r, q / q.sum())
    return renyi_divergence(Pmf(labels, p.ravel()), Pmf(labels, ref.ravel()), a).value


def check_collapse(rng: np.random.Generator, samples: int) -> PropertyResult:
    """The two-parameter measures reduce to the four classical variants at
    beta in {alpha, 0, 1, inf}, each compared with a route that does not
    go through the two-parameter kernel.

    beta = alpha: the divergence forms "h" / "i". beta in {0, inf}: the
    P_Y-average and the worst row of the per-row Renyi entropies and
    divergences from P_X. beta = 1: Sibson's identity,
    H* = log2|X| - D_a(P_XY || U_X x Q*) and I* = D_a(P_XY || P_X x Q*).
    The diagonal identity is checked for alpha in the grid plus {1, inf}
    but not at alpha = 0, where the (0,0) corner convention (beta-then-
    alpha limit) differs from the diagonal limit by design.
    """
    t = _Tracker("collapse")
    diag_alphas = [a for a in EXT_GRID if a != 0.0]
    off_alphas = list(EXT_GRID)
    for _ in range(samples):
        nx, ny = _sizes(rng, 5)
        j = random_joint(rng, nx, ny)
        payload = _joint_payload(j)
        for a in diag_alphas:
            t.see(abs(h_tilde(j, (a, a)).value - cond_entropy_variant("h", j, a).value),
                  {"identity": "h~(a,a)=h", "alpha": a, **payload})
            t.see(abs(i_tilde(j, (a, a)).value - mutual_info_variant("i", j, a).value),
                  {"identity": "i~(a,a)=i", "alpha": a, **payload})
        py, cond = condition_on_y(j)
        weights = py.probs[py.support]
        rows = [cond.row(int(k)) for k in py.support]
        px = marginal_x(j)
        uniform = np.full(nx, 1.0 / nx)
        for a in off_alphas:
            hs = np.array([renyi_entropy(row, a).value for row in rows])
            ds = np.array([renyi_divergence(row, px, a).value for row in rows])
            for b, name_h, want_h, name_i, want_i in (
                (0.0, "hbar", float(np.sum(weights * hs)), "ibar", float(np.sum(weights * ds))),
                (1.0, "hstar", math.log2(nx) - _sibson(j.probs, uniform, a),
                 "istar", _sibson(j.probs, px.probs, a)),
                (math.inf, "hbarstar", float(hs.max() if a < 1.0 else hs.min()),
                 "ibarstar", float(ds.min() if a < 1.0 else ds.max())),
            ):
                if a == 1.0 and math.isinf(b):
                    continue
                t.see(abs(h_tilde(j, (a, b)).value - want_h),
                      {"identity": f"h~(a,{b})={name_h}", "alpha": a, **payload})
                t.see(abs(i_tilde(j, (a, b)).value - want_i),
                      {"identity": f"i~(a,{b})={name_i}", "alpha": a, **payload})
    return t.result()


def check_mono_alpha(rng: np.random.Generator, samples: int) -> PropertyResult:
    """The conditional entropy is non-increasing and the mutual information
    non-decreasing in alpha, for every fixed beta (extended grid)."""
    t = _Tracker("mono-alpha")
    for _ in range(samples):
        nx, ny = _sizes(rng, 5)
        j = random_joint(rng, nx, ny)
        payload = _joint_payload(j)
        hg, ig = _h_grid(j, EXT_GRID, EXT_GRID), _i_grid(j, EXT_GRID, EXT_GRID)
        for ib, b in enumerate(EXT_GRID):
            rows = [ia for ia, a in enumerate(EXT_GRID) if not (a == 1.0 and math.isinf(b))]
            alphas = [EXT_GRID[ia] for ia in rows]
            hv = [hg[ia][ib] for ia in rows]
            iv = [ig[ia][ib] for ia in rows]
            for (a1, v1), (a2, v2) in zip(zip(alphas, hv), zip(alphas[1:], hv[1:])):
                t.see(v2 - v1, {"measure": "h", "beta": b, "alphas": (a1, a2), **payload})
            for (a1, v1), (a2, v2) in zip(zip(alphas, iv), zip(alphas[1:], iv[1:])):
                t.see(v1 - v2, {"measure": "i", "beta": b, "alphas": (a1, a2), **payload})
    return t.result()


def check_mono_beta(rng: np.random.Generator, samples: int) -> PropertyResult:
    """For alpha > 1 the conditional entropy is non-increasing and the
    mutual information non-decreasing in beta; reversed for alpha < 1."""
    t = _Tracker("mono-beta")
    alphas = (0.0, 0.25, 0.5, 0.75, 1.5, 2.0, 4.0, math.inf)
    bs = list(EXT_GRID)
    for _ in range(samples):
        nx, ny = _sizes(rng, 5)
        j = random_joint(rng, nx, ny)
        payload = _joint_payload(j)
        hg, ig = _h_grid(j, alphas, bs), _i_grid(j, alphas, bs)
        for a, hv, iv in zip(alphas, hg, ig):
            sign = 1.0 if a > 1.0 else -1.0
            for (b1, v1), (b2, v2) in zip(zip(bs, hv), zip(bs[1:], hv[1:])):
                t.see(sign * (v2 - v1), {"measure": "h", "alpha": a, "betas": (b1, b2), **payload})
            for (b1, v1), (b2, v2) in zip(zip(bs, iv), zip(bs[1:], iv[1:])):
                t.see(sign * (v1 - v2), {"measure": "i", "alpha": a, "betas": (b1, b2), **payload})
    return t.result()


def check_additivity(rng: np.random.Generator, samples: int) -> PropertyResult:
    """Both measures add over independent products, for finite positive orders."""
    t = _Tracker("additivity")
    for _ in range(samples):
        p = random_joint(rng, int(rng.integers(2, 4)), int(rng.integers(2, 4)))
        q = random_joint(rng, int(rng.integers(2, 4)), int(rng.integers(2, 4)))
        pq = product(p, q)
        hp, hq, hpq = (_h_grid(j, ALPHA_GRID, BETA_GRID) for j in (p, q, pq))
        ip, iq, ipq = (_i_grid(j, ALPHA_GRID, BETA_GRID) for j in (p, q, pq))
        for ia, a in enumerate(ALPHA_GRID):
            for ib, b in enumerate(BETA_GRID):
                hs = hp[ia][ib] + hq[ia][ib]
                t.see(abs(hpq[ia][ib] - hs), {"measure": "h", "order": (a, b)})
                si = ip[ia][ib] + iq[ia][ib]
                t.see(abs(ipq[ia][ib] - si), {"measure": "i", "order": (a, b)})
    return t.result()


# (alpha index, beta index, order) with alpha and beta on the same side of 1
_SAME_SIDE = [(ia, ib, (a, b)) for ia, a in enumerate(ALPHA_GRID) for ib, b in enumerate(BETA_GRID)
              if (a <= 1.0 and b <= 1.0) or (a >= 1.0 and b >= 1.0)]


def check_dpi_h(rng: np.random.Generator, samples: int) -> PropertyResult:
    """Conditioning on more never raises the conditional entropy:
    H(X|YZ) <= H(X|Y) for orders on the same side of 1."""
    t = _Tracker("dpi-h")
    for _ in range(samples):
        tr = random_triple(rng, int(rng.integers(2, 4)), int(rng.integers(2, 4)),
                           int(rng.integers(2, 4)))
        j_xyz = triple_as_joint_x_yz(tr)
        j_xy = JointPmf(j_xyz.alphabet_x, tuple(f"y{k}" for k in range(tr.shape[1])),
                        tr.sum(axis=2))
        finer, coarser = _h_grid(j_xyz, ALPHA_GRID, BETA_GRID), _h_grid(j_xy, ALPHA_GRID, BETA_GRID)
        for ia, ib, order in _SAME_SIDE:
            t.see(finer[ia][ib] - coarser[ia][ib], {"order": order})
    return t.result()


def check_dpi_i(rng: np.random.Generator, samples: int) -> PropertyResult:
    """Processing the second argument of a Markov chain never raises the
    mutual information, for orders on the same side of 1."""
    t = _Tracker("dpi-i")
    for _ in range(samples):
        pxy, pxz = markov_chain_pair(rng, int(rng.integers(2, 4)),
                                     int(rng.integers(2, 4)), int(rng.integers(2, 4)))
        processed, direct = _i_grid(pxz, ALPHA_GRID, BETA_GRID), _i_grid(pxy, ALPHA_GRID, BETA_GRID)
        for ia, ib, order in _SAME_SIDE:
            t.see(processed[ia][ib] - direct[ia][ib], {"order": order})
    return t.result()


def check_discard_mono(rng: np.random.Generator, samples: int) -> PropertyResult:
    """Dropping a coordinate never raises the conditional entropy:
    H(XY|Z) >= H(Y|Z) for finite positive orders."""
    t = _Tracker("discard-mono")
    for _ in range(samples):
        tr = random_triple(rng, int(rng.integers(2, 4)), int(rng.integers(2, 4)),
                           int(rng.integers(2, 4)))
        j_xy_z = triple_as_joint_xy_z(tr)
        j_y_z = JointPmf(tuple(f"y{k}" for k in range(tr.shape[1])),
                         j_xy_z.alphabet_y, tr.sum(axis=0))
        kept, whole = _h_grid(j_y_z, ALPHA_GRID, BETA_GRID), _h_grid(j_xy_z, ALPHA_GRID, BETA_GRID)
        for ia, a in enumerate(ALPHA_GRID):
            for ib, b in enumerate(BETA_GRID):
                t.see(kept[ia][ib] - whole[ia][ib], {"order": (a, b)})
    return t.result()


def check_concavity_alpha(rng: np.random.Generator, samples: int) -> PropertyResult:
    """(alpha-1) H and (1-alpha) I are midpoint concave in alpha at fixed beta."""
    t = _Tracker("concavity-alpha")
    # the alpha grid and its midpoints, each once
    alphas = sorted({*ALPHA_GRID, *((a1 + a2) / 2.0 for a1 in ALPHA_GRID for a2 in ALPHA_GRID)})
    row = {a: k for k, a in enumerate(alphas)}

    for _ in range(samples):
        nx, ny = _sizes(rng, 4)
        j = random_joint(rng, nx, ny)
        hg, ig = _h_grid(j, alphas, BETA_GRID), _i_grid(j, alphas, BETA_GRID)

        def fh(a, ib):
            return 0.0 if a == 1.0 else (a - 1.0) * hg[row[a]][ib]

        def fi(a, ib):
            return 0.0 if a == 1.0 else (1.0 - a) * ig[row[a]][ib]

        for ib, b in enumerate(BETA_GRID):
            for a1 in ALPHA_GRID:
                for a2 in ALPHA_GRID:
                    if a2 <= a1:
                        continue
                    mid = (a1 + a2) / 2.0
                    t.see((fh(a1, ib) + fh(a2, ib)) / 2.0 - fh(mid, ib),
                          {"measure": "h", "beta": b, "alphas": (a1, a2)})
                    t.see((fi(a1, ib) + fi(a2, ib)) / 2.0 - fi(mid, ib),
                          {"measure": "i", "beta": b, "alphas": (a1, a2)})
    return t.result()


def check_concavity_input(rng: np.random.Generator, samples: int) -> PropertyResult:
    """The mutual information is concave in the input distribution for
    alpha >= 1 and beta <= 1 (fixed channel)."""
    t = _Tracker("concavity-input")
    for _ in range(samples):
        nx, ny = _sizes(rng, 4)
        w = random_channel(rng, nx, ny)
        p1, p2 = random_pmf(rng, nx), random_pmf(rng, nx)
        mid = Pmf(p1.alphabet, (p1.probs + p2.probs) / 2.0)
        alphas, betas = (1.0, 1.5, 2.0, 4.0), (0.25, 0.5, 1.0)
        g1, g2, gm = (_i_grid(joint_from_channel(p, w), alphas, betas) for p in (p1, p2, mid))
        for ia, a in enumerate(alphas):
            for ib, b in enumerate(betas):
                t.see((g1[ia][ib] + g2[ia][ib]) / 2.0 - gm[ia][ib], {"order": (a, b)})
    return t.result()


def check_convexity_channel(rng: np.random.Generator, samples: int) -> PropertyResult:
    """The mutual information is convex in the channel for alpha, beta <= 1
    (fixed input)."""
    t = _Tracker("convexity-channel")
    for _ in range(samples):
        nx, ny = _sizes(rng, 4)
        px = random_pmf(rng, nx)
        w1, w2 = random_channel(rng, nx, ny), random_channel(rng, nx, ny)
        mid_m = (w1.matrix() + w2.matrix()) / 2.0
        wm = CondPmf.from_matrix(w1.given_alphabet, w1.target_alphabet, mid_m)
        orders = (0.25, 0.5, 1.0)
        g1, g2, gm = (_i_grid(joint_from_channel(px, w), orders, orders) for w in (w1, w2, wm))
        for ia, a in enumerate(orders):
            for ib, b in enumerate(orders):
                t.see(gm[ia][ib] - (g1[ia][ib] + g2[ia][ib]) / 2.0, {"order": (a, b)})
    return t.result()


def check_continuity_one(rng: np.random.Generator, samples: int) -> PropertyResult:
    """Both generic branches at alpha = 1 +/- 1e-3 sit within 1e-4 of the
    Shannon forms on full-support joints (concentrated family; see
    div-continuity for the rationale)."""
    t = _Tracker("continuity-one", slack=0.0)
    for _ in range(samples):
        j = random_joint(rng, 3, 3, concentration=80.0)
        h1 = shannon_cond_entropy(j)
        i1 = shannon_mi(j)
        for b in (0.5, 1.0, 2.0):
            for a in (1.0 - 1e-3, 1.0 + 1e-3):
                t.see(abs(h_tilde(j, (a, b)).value - h1) - 1e-4, {"order": (a, b)})
                t.see(abs(i_tilde(j, (a, b)).value - i1) - 1e-4, {"order": (a, b)})
    return t.result()


def check_lagrangian_identity(rng: np.random.Generator, samples: int) -> PropertyResult:
    """The primal exponent curves are the Lagrangian minima of the dual
    forms (slack 1e-12, pointwise).

    At lambda in (0, 1] and alpha = beta / (beta + lambda (1 - beta)), the
    primal curve lambda (K + shift) equals F_lambda(Q_lambda) = base +
    lambda l at the closed-form tilt Q_lambda, and the kernel's tilted
    slope d + shift equals l(Q_lambda): for PA, K = -H~, shift = R and
    l = R - H(X|Y)_Q; for SC, K = I~, shift = -R and
    l = D(Q_{X|Y} || P_X | Q_Y) - R. The dual side is the tilt and the
    relative-entropy terms of simplex_opt, which never call the kernel.
    """
    t = _Tracker("lagrangian-identity", slack=1e-12)
    for i in range(samples):
        nx, ny = _sizes(rng, 5)
        j = random_joint(rng, nx, ny) if i % 2 == 0 else random_joint_with_zeros(rng, nx, ny)
        beta = float(rng.uniform(0.05, 0.95))
        lam = 1.0 - float(rng.uniform(0.0, 1.0))
        rate = float(rng.uniform(0.0, math.log2(nx)))
        alpha = beta / (beta + lam * (1.0 - beta))
        for pa in (True, False):
            dual = _Dual(j, beta, rate, pa)
            terms = _Terms(_scatter(dual.lagrangian_tilt(lam), dual.mask), dual.logs)
            ell = float(dual.ell(terms))
            k, d = _generic_tilt(*_kernel_inputs(j, not pa)[1:], alpha, beta)
            shift = rate if pa else -rate
            witness = {"problem": "pa" if pa else "sc", "beta": beta, "lambda": lam,
                       "rate": rate, **_joint_payload(j)}
            t.see(abs(lam * (k + shift) - float(dual.base(terms) + lam * ell)),
                  {"quantity": "value", **witness})
            t.see(abs(d + shift - ell), {"quantity": "slope", **witness})
    return t.result()


def check_power_concavity(rng: np.random.Generator, samples: int) -> PropertyResult:
    """(a, b) -> a^x b^y with x, y >= 0, x + y <= 1 is midpoint concave;
    a self-check of the concavity harness."""
    t = _Tracker("power-concavity", slack=1e-12)
    for _ in range(samples):
        x = rng.uniform(0.0, 1.0)
        y = rng.uniform(0.0, 1.0 - x)
        a1, a2 = rng.uniform(0.01, 5.0, size=2)
        b1, b2 = rng.uniform(0.01, 5.0, size=2)

        def f(a, b):
            return a**x * b**y

        mid = f((a1 + a2) / 2.0, (b1 + b2) / 2.0)
        t.see((f(a1, b1) + f(a2, b2)) / 2.0 - mid,
              {"x": x, "y": y, "points": [(a1, b1), (a2, b2)]})
    return t.result()


REGISTRY: dict[str, Property] = {
    p.name: p
    for p in [
        Property("div-order-mono", "divergence monotone in the order", check_div_order_mono, 120),
        Property("div-dpi", "data processing cannot increase divergence", check_div_dpi, 120),
        Property("div-variational", "divergence variational grid check", check_div_variational, 24),
        Property("div-continuity", "divergence continuous at order 1", check_div_continuity, 60),
        Property("nonneg", "non-negativity and independence equality", check_nonneg, 40),
        Property("collapse", "two-parameter measures hit the classical variants", check_collapse, 60),
        Property("mono-alpha", "monotone in alpha at fixed beta", check_mono_alpha, 60),
        Property("mono-beta", "monotone in beta at fixed alpha", check_mono_beta, 60),
        Property("additivity", "additive over independent products", check_additivity, 40),
        Property("dpi-h", "conditioning on more cannot raise H", check_dpi_h, 60),
        Property("dpi-i", "Markov processing cannot raise I", check_dpi_i, 60),
        Property("discard-mono", "discarding a coordinate cannot raise H", check_discard_mono, 60),
        Property("concavity-alpha", "signed measures concave in alpha", check_concavity_alpha, 30),
        Property("concavity-input", "I concave in the input distribution", check_concavity_input, 40),
        Property("convexity-channel", "I convex in the channel", check_convexity_channel, 40),
        Property("continuity-one", "generic branch continuous at alpha 1", check_continuity_one, 40),
        Property("lagrangian-identity", "primal curves are the dual Lagrangian minima",
                 check_lagrangian_identity, 60),
        Property("power-concavity", "harness self-check on a^x b^y", check_power_concavity, 200),
    ]
}


def run_properties(
    names: Optional[list[str]] = None,
    seed: int = 0,
    samples: Optional[int] = None,
    registry: Optional[dict[str, Property]] = None,
) -> list[PropertyResult]:
    """Run the named checks (all by default) with per-check RNG streams
    split off the master seed."""
    registry = registry if registry is not None else REGISTRY
    if names is None:
        names = list(registry)
    unknown = [n for n in names if n not in registry]
    if unknown:
        raise KeyError(f"unknown properties: {unknown}; known: {sorted(registry)}")
    root = np.random.SeedSequence(seed)
    streams = root.spawn(len(names))
    out = []
    for name, stream in zip(names, streams):
        prop = registry[name]
        rng = np.random.default_rng(stream)
        t0 = time.perf_counter()
        result = prop.fn(rng, samples or prop.default_samples)
        result.seconds = time.perf_counter() - t0
        out.append(result)
    return out
