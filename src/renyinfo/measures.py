"""Order-alpha information measures on finite alphabets, and the one kernel
behind every conditional entropy and mutual information.

Renyi divergence and entropy, the conditional Renyi divergence, four
conditional-entropy variants and four mutual-information variants, each
defined on the full extended order range [0, inf].

The kernel. For the Y symbols with P_Y(y) > 0, weights w_y = P_Y(y),
conditional rows P_{X|y} and a reference vector r on X, the row terms are
c_y = D_alpha(P_{X|y} || r) and the kernel is their log-domain power mean
of order s = beta (alpha - 1) / alpha:

    K_{alpha,beta}(r) = (1/s) log2 sum_y w_y 2^(s c_y)
        = (alpha / (beta (alpha - 1))) *
              log2 sum_y w_y ( sum_x r(x)^(1-alpha) P_{X|Y}(x|y)^alpha )^(beta/alpha).

Its limit lines are branches of one function: beta = 0 (s = 0) is the
w-weighted mean of the row terms; beta = inf is their max for alpha > 1
and their min for alpha < 1 (s = +-inf); alpha = 0 has s = -inf for every
beta > 0; alpha = 1 has s = 0, the Shannon average; alpha = inf has
s = beta; the (0, 0) corner is the beta-then-alpha iterated limit, the mean
of the order-0 row terms. The two-parameter measures of
:mod:`renyinfo.two_param` are

    I~_{alpha,beta}(X:Y) = K_{alpha,beta}(P_X),
    H~_{alpha,beta}(X|Y) = -K_{alpha,beta}(1_X)   (P_X replaced by all-ones),

and the classical variants are its slices: beta = 0 gives hbar / ibar
(the P_Y-averaged rows), beta = 1 gives hstar / istar (the reference Q_Y
minimized in closed form), beta = inf gives hbarstar / ibarstar (the
worst row). The beta = alpha slice, "h" / "i", is evaluated instead as the
divergence of the flattened joint from 1_X x P_Y or P_X x P_Y, a second
route the collapse checks compare the kernel with. The rows come straight
from the joint's probability matrix; no per-row distribution is built.

Every entropy is a negated divergence from an all-ones reference, through
the same divergence routine: H_alpha(p) = -D_alpha(p || 1), and at order 1
H(X|Y) = -D(P_XY || 1_X x P_Y) and I(X:Y) = D(P_XY || P_X x P_Y).

The kernel is evaluated on a whole alphas x betas grid at once: the row
sums depend on alpha only, so they are computed once per alpha, and the
power mean is vectorized over alpha and beta. A single pair is the
one-cell grid, so a grid cell and a single evaluation agree to the bit.

Conventions (all logs base 2, values in bits):

* power sums are evaluated in the log domain through a max-shifted
  exponent sum, so orders up to ~1e3 neither under- nor overflow;
* 0/0 terms are dropped and a/0 = +inf for a > 0: +inf is a first-class
  result value (support mismatches are legitimate outputs, never raised);
* order 1 is an exact tag evaluated by the Shannon forms, never by a
  numeric limit.

All functions are pure functions of immutable inputs. The one piece of
state is the kernel's prepared inputs: P_Y's support weights, their log2,
the log rows and log r of a joint, memoized on the joint itself per
reference (``JointPmf._kernel_memo``, keyed by ``mutual``), so repeated
evaluations on one joint (an exponent search reads one alpha grid and a
few single orders) derive them once. The memo cannot go stale: it is a
function of ``probs`` alone, which is a read-only copy made when the joint
was validated, and its arrays are read-only too. It lives and dies with
its joint; nothing is cached at module level.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .dist import CondPmf, JointPmf, Pmf, joint_from_channel
from .errors import AlphabetMismatch
from .orders import INF as INF_TAG, ONE, ZERO, ExtOrder

INF = math.inf

BRANCH_GENERIC = "generic"
BRANCH_ALPHA_ONE = "alpha_one"
BRANCH_ALPHA_ZERO = "alpha_zero"
BRANCH_ALPHA_INF = "alpha_inf"
BRANCH_UNDEFINED = "undefined"
BRANCH_CORNER = "corner_zero_zero"

H_VARIANTS = ("h", "hstar", "hbar", "hbarstar")
I_VARIANTS = ("i", "istar", "ibar", "ibarstar")


def order_branch(a: ExtOrder) -> str:
    """The branch name a one-order measure reports at order a."""
    if a.is_zero:
        return BRANCH_ALPHA_ZERO
    if a.is_inf:
        return BRANCH_ALPHA_INF
    if a.is_one:
        return BRANCH_ALPHA_ONE
    return BRANCH_GENERIC


@dataclass(frozen=True)
class MeasureResult:
    """A computed information quantity in bits plus the formula branch used."""

    value: float
    branch: str


def log2_strict(p: np.ndarray) -> np.ndarray:
    """log2 with -inf at exact zeros and no warnings."""
    p = np.asarray(p, dtype=np.float64)
    out = np.full(p.shape, -INF)
    pos = p > 0.0
    out[pos] = np.log2(p[pos])
    return out


def logsumexp2(t: np.ndarray, axis=None, overwrite: bool = False) -> np.ndarray | float:
    """log2(sum(2**t)) with max shifting; empty or all -inf input gives -inf.

    The shifted powers live in one buffer of t's size; with ``overwrite``
    that buffer is a float64 ``t`` itself (its contents are lost).
    """
    t = np.asarray(t, dtype=np.float64)
    if t.size == 0:
        return -INF if axis is None else np.full(np.delete(t.shape, axis), -INF)
    m = np.maximum.reduce(t, axis=axis, keepdims=True)
    finite = np.isfinite(m)
    all_finite = finite.all()
    shift = m if all_finite else np.where(finite, m, 0.0)
    d = np.subtract(t, shift, out=t if overwrite else np.empty_like(t))
    s = np.add.reduce(np.exp2(d, out=d), axis=axis, keepdims=True)
    if all_finite:  # then every sum is >= 1
        out = m + np.log2(s)
    else:
        out = np.where(finite, shift + np.log2(np.maximum(s, 1e-300)), m)
    if axis is None:
        return float(out.reshape(()))
    return out.squeeze(axis=axis)


# ---------------------------------------------------------------------------
# the reference-weighted kernel


def _kernel_inputs(joint: JointPmf, mutual: bool) -> tuple[np.ndarray, ...]:
    """(weights, log weights, log rows, log r) of a joint, r = P_X for I~
    and 1_X for H~, read-only and memoized on the joint.

    weights (m,) is P_Y on its support and log weights is their log2;
    column j of log rows (nx, m) is log2 P_{X|Y}(. | y_j) with -inf at
    exact zeros. log r is 0 where r = 0: a row entry is positive only where
    r is (r is P_X or 1_X), so every term that reads such an entry already
    carries log 0 = -inf from the row. The joint was validated when it was
    built, so the rows are not validated again.
    """
    inputs = joint._kernel_memo.get(mutual)
    if inputs is not None:
        return inputs
    py = joint.probs.sum(axis=0)
    pos = py > 0.0
    weights = py[pos]
    logrows = log2_strict(joint.probs[:, pos] / weights)
    if mutual:
        px = joint.probs.sum(axis=1)
        logr = np.log2(np.where(px > 0.0, px, 1.0))
    else:
        logr = np.zeros(joint.shape[0])
    inputs = (weights, np.log2(weights), logrows, logr)
    for a in inputs:
        a.setflags(write=False)
    joint._kernel_memo[mutual] = inputs
    return inputs


def _row_logs(logrows: np.ndarray, logr: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    """log2 r(x)^(1-alpha) P_{X|y}(x)^alpha, shape (len(alphas), nx, m),
    -inf at the zero cells of the rows."""
    t = alphas[:, None, None] * logrows
    t += (1.0 - alphas)[:, None, None] * logr[:, None]
    return t


def _inner(logrows: np.ndarray, logr: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    """log2 sum_x r(x)^(1-alpha) P_{X|y}(x)^alpha, shape (len(alphas), m).

    Holds one (k, nx, m) array, which the exponent sum reuses.
    """
    return logsumexp2(_row_logs(logrows, logr, alphas), axis=1, overwrite=True)


def _power_mean(logw: np.ndarray, inner: np.ndarray, alphas: np.ndarray,
                betas: np.ndarray) -> np.ndarray:
    """The kernel at finite alphas != 1 and finite betas > 0, shape
    (len(alphas), len(betas)); ``inner`` holds the rows of :func:`_inner`
    at ``alphas`` and ``logw`` is log2 of the weights."""
    terms = logw + (betas / alphas[:, None])[:, :, None] * inner[:, None, :]
    return alphas[:, None] / (betas * (alphas[:, None] - 1.0)) * logsumexp2(terms, axis=2)


def _generic(logw, logrows, logr, alphas: np.ndarray, beta: float) -> np.ndarray:
    """The kernel at finite alphas != 1 and one finite beta > 0, vectorized
    over alpha; the weights enter only through their log ``logw``."""
    inner = _inner(logrows, logr, alphas)
    return _power_mean(logw, inner, alphas, np.array([beta]))[:, 0]


def _generic_tilt(logw, logrows, logr, alpha: float, beta: float) -> tuple[float, float]:
    """(K, d) at one finite alpha != 1 and finite beta > 0: the kernel K,
    the same bits as :func:`_generic` gives at this alpha, and
    d = D(Q_{X|Y} || r | Q_Y) of the tilted joint Q(x,y) = omega_y rho_{x|y}.

    rho_{x|y} is proportional to r(x)^(1-alpha) P_{X|Y}(x|y)^alpha (the
    terms of the row sums) and omega_y to w_y 2^((beta/alpha) inner_y) (the
    terms of the power mean). With lambda = beta (1-alpha) / (alpha (1-beta)),
    d is the derivative of lambda K in lambda: the slope of the exponent
    curves, whose maximum :mod:`renyinfo.exponents` finds as its root.
    """
    alphas = np.array([alpha])
    t = _row_logs(logrows, logr, alphas)
    inner = logsumexp2(t, axis=1)
    k = _power_mean(logw, inner, alphas, np.array([beta]))[0, 0]
    t, inner = t[0], inner[0]
    log_omega = logw + (beta / alpha) * inner
    omega = np.exp2(log_omega - logsumexp2(log_omega))
    rho = np.exp2(t - inner)
    log_ratio = np.where(np.isfinite(t), t - inner - logr[:, None], 0.0)  # log2 rho / r
    return float(k), float(omega @ np.add.reduce(rho * log_ratio, axis=0))


def _row_terms(logrows: np.ndarray, logr: np.ndarray, a: ExtOrder) -> np.ndarray:
    """The row terms c_y = D_a(P_{X|y} || r) at a tag a in {0, 1, inf},
    shape (m,). At a finite a they are _inner / (a - 1)."""
    on_row = np.isfinite(logrows)
    if a.is_zero:
        return -logsumexp2(np.where(on_row, logr[:, None], -INF), axis=0)
    log_ratio = logrows - logr[:, None]
    if a.is_inf:
        return log_ratio.max(axis=0)
    return np.add.reduce(np.exp2(logrows) * np.where(on_row, log_ratio, 0.0), axis=0)


@functools.cache
def _branch(a_tag: str, b_tag: str) -> str:
    """The branch name of the order pair with these ExtOrder tags."""
    if a_tag == ZERO:
        return BRANCH_CORNER if b_tag == ZERO else BRANCH_ALPHA_ZERO
    if a_tag == ONE:
        return BRANCH_UNDEFINED if b_tag == INF_TAG else BRANCH_ALPHA_ONE
    beta_line = "beta_zero" if b_tag == ZERO else "beta_inf" if b_tag == INF_TAG else ""
    if a_tag == INF_TAG:
        return BRANCH_ALPHA_INF + ("_" + beta_line if beta_line else "")
    return beta_line or BRANCH_GENERIC


# the branches that take the weighted mean (s = 0) or the extreme
# (s = +-inf) of the row terms
_MEAN_BRANCHES = frozenset((BRANCH_CORNER, BRANCH_ALPHA_ONE, "beta_zero", "alpha_inf_beta_zero"))
_EXTREME_BRANCHES = frozenset((BRANCH_ALPHA_ZERO, "beta_inf", "alpha_inf_beta_inf"))


def _kernel_grid(weights, logw, logrows, logr, alphas, betas) -> tuple[np.ndarray, list[list[str]]]:
    """K_{a,b}(r) in bits at every pair of ``alphas`` x ``betas`` (ExtOrder
    sequences), shape (len(alphas), len(betas)), and each cell's branch name
    (module docstring).

    The finite alphas and finite betas form one vectorized generic block.
    The other cells reuse that block's row sums, or the row terms of a tag
    alpha, computed once per alpha. The undefined pair (1, inf) reads NaN
    with branch "undefined".
    """
    branches = [[_branch(a.tag, b.tag) for b in betas] for a in alphas]
    shape = (len(alphas), len(betas))
    fin_a = [i for i, a in enumerate(alphas) if a.is_finite]
    fin_b = [j for j, b in enumerate(betas) if b.is_finite]
    if fin_b:
        bvals = np.array([betas[j].value for j in fin_b])
    if fin_a:
        avals = np.array([alphas[i].value for i in fin_a])
        inner = _inner(logrows, logr, avals)
        if fin_b:
            block = _power_mean(logw, inner, avals, bvals)
            if block.shape == shape:  # no tag order: every cell is generic
                return block, branches
    values = np.full(shape, np.nan)
    if fin_a and fin_b:
        values[np.ix_(fin_a, fin_b)] = block
    for i, (a, row) in enumerate(zip(alphas, branches)):
        mean = [j for j, br in enumerate(row) if br in _MEAN_BRANCHES]
        extreme = [j for j, br in enumerate(row) if br in _EXTREME_BRANCHES]
        if not (mean or extreme or a.is_inf):
            continue
        if a.is_finite:  # c_y = D_a(P_{X|y} || r)
            c = inner[fin_a.index(i)] / (a.value - 1.0)
        else:
            c = _row_terms(logrows, logr, a)
        if mean:
            x = np.add.reduce(weights * c)
            for j in mean:
                values[i, j] = x
        if extreme:
            x = np.maximum.reduce(c) if a.value > 1.0 else np.minimum.reduce(c)
            for j in extreme:
                values[i, j] = x
        if a.is_inf and fin_b:  # s = beta
            for j, x in zip(fin_b, logsumexp2(logw + bvals[:, None] * c, axis=1) / bvals):
                values[i, j] = x
    return values, branches


def _kernel(weights, logw, logrows, logr, a: ExtOrder, b: ExtOrder) -> tuple[float, str]:
    """K_{a,b}(r) in bits and the name of its branch: the one-point grid."""
    values, branches = _kernel_grid(weights, logw, logrows, logr, (a,), (b,))
    return float(values[0, 0]), branches[0][0]


# ---------------------------------------------------------------------------
# divergence and entropy


def _divergence(pv: np.ndarray, qv: np.ndarray, a: ExtOrder) -> MeasureResult:
    """D_a(p || q) of two probability arrays of one shape; q may be
    unnormalized."""
    pos_p = pv > 0.0
    if a.is_one:
        if np.any(pos_p & (qv == 0.0)):
            return MeasureResult(INF, BRANCH_ALPHA_ONE)
        val = float(np.sum(pv[pos_p] * (np.log2(pv[pos_p]) - np.log2(qv[pos_p]))))
        return MeasureResult(val, BRANCH_ALPHA_ONE)
    if a.is_zero:
        qm = float(qv[pos_p].sum())
        val = INF if qm == 0.0 else -math.log2(qm)
        return MeasureResult(val, BRANCH_ALPHA_ZERO)
    if a.is_inf:
        if np.any(pos_p & (qv == 0.0)):
            return MeasureResult(INF, BRANCH_ALPHA_INF)
        ratio = np.log2(pv[pos_p]) - np.log2(qv[pos_p])
        return MeasureResult(float(ratio.max()), BRANCH_ALPHA_INF)
    alpha = a.as_float()
    if alpha > 1.0 and np.any(pos_p & (qv == 0.0)):
        return MeasureResult(INF, BRANCH_GENERIC)
    both = pos_p & (qv > 0.0)
    if not both.any():
        return MeasureResult(INF, BRANCH_GENERIC)
    t = alpha * np.log2(pv[both]) + (1.0 - alpha) * np.log2(qv[both])
    return MeasureResult(logsumexp2(t) / (alpha - 1.0), BRANCH_GENERIC)


def renyi_divergence(p: Pmf, q: Pmf, order) -> MeasureResult:
    """Order-alpha Renyi divergence D_alpha(p || q) in bits.

    Generic orders use -log of the order-alpha fidelity, i.e.
    (1/(alpha-1)) * log2 sum_x p^alpha q^(1-alpha); order 1 is the relative
    entropy; order 0 is -log2 q(supp p); order inf is the sup log ratio.
    Support violations (alpha > 1 or the tags) yield +inf, not an error.
    """
    if p.alphabet != q.alphabet:
        raise AlphabetMismatch(f"{p.alphabet} vs {q.alphabet}")
    return _divergence(p.probs, q.probs, ExtOrder.of(order))


def relative_entropy(p: Pmf, q: Pmf) -> float:
    """D(p || q) in bits (order-1 divergence)."""
    return renyi_divergence(p, q, 1).value


def cond_renyi_divergence(pyx: CondPmf, qyx: CondPmf, px: Pmf, order) -> MeasureResult:
    """Conditional divergence D_alpha(P_{Y|X} || Q_{Y|X} | P_X).

    Defined through the joints: D_alpha(P_X * P_{Y|X} || P_X * Q_{Y|X}),
    both built with the dist layer and compared cell by cell.
    """
    if pyx.target_alphabet != qyx.target_alphabet or pyx.given_alphabet != qyx.given_alphabet:
        raise AlphabetMismatch("channel alphabets differ")
    jp = joint_from_channel(px, pyx)
    jq = joint_from_channel(px, qyx)
    return _divergence(jp.probs.ravel(), jq.probs.ravel(), ExtOrder.of(order))


def shannon_entropy(p: Pmf | np.ndarray) -> float:
    """H(p) in bits: -D(p || 1)."""
    pv = p.probs if isinstance(p, Pmf) else np.asarray(p, dtype=np.float64)
    return -_divergence(pv, np.ones(pv.shape), ExtOrder.one()).value


def renyi_entropy(p: Pmf, order) -> MeasureResult:
    """Order-alpha Renyi entropy of a marginal, in bits: -D_alpha(p || 1).

    (1/(1-alpha)) * log2 sum_x p^alpha for generic orders; Shannon entropy
    at 1; log2 |supp p| at 0; -log2 max p at inf.
    """
    d = _divergence(p.probs, np.ones(p.probs.shape), ExtOrder.of(order))
    return MeasureResult(-d.value, d.branch)


# ---------------------------------------------------------------------------
# the classical variants


# the beta at which each variant is a slice of the kernel, by the name's
# suffix after its h / i
SLICE_BETAS = {
    "bar": ExtOrder.zero(),
    "star": ExtOrder.finite(1.0, allow_one=True),
    "barstar": ExtOrder.infinity(),
}


def _diagonal(joint: JointPmf, ref_x: np.ndarray, a: ExtOrder) -> MeasureResult:
    """D_a(P_XY || ref_x x P_Y) of the flattened joint."""
    return _divergence(joint.probs.ravel(), np.outer(ref_x, joint.probs.sum(axis=0)).ravel(), a)


def shannon_cond_entropy(joint: JointPmf) -> float:
    """H(X|Y) in bits: -D(P_XY || 1_X x P_Y)."""
    # 0.0 - d, not -d: a deterministic joint gives +0.0, not -0.0
    return 0.0 - _diagonal(joint, np.ones(joint.shape[0]), ExtOrder.one()).value


def shannon_mi(joint: JointPmf) -> float:
    """I(X:Y) in bits: D(P_XY || P_X x P_Y)."""
    return _diagonal(joint, joint.probs.sum(axis=1), ExtOrder.one()).value


def cond_entropy_variant(variant: str, joint: JointPmf, order) -> MeasureResult:
    """One of the four conditional Renyi entropy variants, in bits.

    variant "h":        -D_alpha(P_XY || 1_X x P_Y), the row-power-sum average.
    variant "hstar":    the maximum over reference Q_Y of -D_alpha(P_XY || 1_X x Q_Y),
                        the kernel slice H~_{alpha,1}.
    variant "hbar":     P_Y-average of the row entropies, H~_{alpha,0}.
    variant "hbarstar": worst-case row entropy (max for alpha < 1, min for
                        alpha > 1), over rows with P_Y(y) > 0, H~_{alpha,inf}.

    All variants are the Shannon H(X|Y) at order 1.
    """
    if variant not in H_VARIANTS:
        raise ValueError(f"variant must be one of {H_VARIANTS}, got {variant!r}")
    a = ExtOrder.of(order)
    if a.is_one:
        return MeasureResult(shannon_cond_entropy(joint), BRANCH_ALPHA_ONE)
    if variant == "h":
        d = _diagonal(joint, np.ones(joint.shape[0]), a)
        return MeasureResult(-d.value, d.branch)
    value, _ = _kernel(*_kernel_inputs(joint, mutual=False), a, SLICE_BETAS[variant[1:]])
    return MeasureResult(0.0 - value, order_branch(a))


def mutual_info_variant(variant: str, joint: JointPmf, order) -> MeasureResult:
    """One of the four order-alpha mutual-information variants, in bits.

    variant "i":        D_alpha(P_XY || P_X x P_Y).
    variant "istar":    minimum over reference Q_Y of D_alpha(P_XY || P_X x Q_Y),
                        the kernel slice I~_{alpha,1}.
    variant "ibar":     P_Y-average of D_alpha(P_{X|y} || P_X), I~_{alpha,0}.
    variant "ibarstar": extreme row divergence (min for alpha < 1, max for
                        alpha > 1) over P_Y(y) > 0, I~_{alpha,inf}.

    All variants are the Shannon I(X:Y) at order 1.
    """
    if variant not in I_VARIANTS:
        raise ValueError(f"variant must be one of {I_VARIANTS}, got {variant!r}")
    a = ExtOrder.of(order)
    if a.is_one:
        return MeasureResult(shannon_mi(joint), BRANCH_ALPHA_ONE)
    if variant == "i":
        return _diagonal(joint, joint.probs.sum(axis=1), a)
    value, _ = _kernel(*_kernel_inputs(joint, mutual=True), a, SLICE_BETAS[variant[1:]])
    return MeasureResult(value, order_branch(a))
