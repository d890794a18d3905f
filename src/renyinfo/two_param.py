"""Two-parameter conditional entropy and mutual information: the (alpha, beta)
front end of the reference-weighted kernel in :mod:`renyinfo.measures`.

The conditional entropy of order pair (alpha, beta), for alpha in
(0,1)u(1,inf) and beta in (0,inf), is

    (alpha / (beta (1 - alpha))) *
        log2 sum_y P_Y(y) ( sum_x P_{X|Y}(x|y)^alpha )^(beta/alpha)

and the mutual information of order pair (alpha, beta) is

    (alpha / (beta (alpha - 1))) *
        log2 sum_y P_Y(y) ( sum_x P_X(x)^(1-alpha) P_{X|Y}(x|y)^alpha )^(beta/alpha).

Both are the one kernel K_{alpha,beta}(r) of :mod:`renyinfo.measures`:
the mutual information with reference r = P_X, and the conditional entropy
negated with r = 1_X, i.e. P_X replaced by the all-ones vector. Every limit
point of the extended square [0, inf]^2 is its own kernel branch; order
tags select the closed forms, so no removable singularity is ever
approached numerically. Inner sums iterate over exact supports
(0/0 = 0), and a/0 = inf propagates as a +inf result value.

This module parses the order pair and applies the order-pair policy. The
corner (alpha, beta) = (0, 0) is genuinely path dependent; the value
returned is the beta-to-0-then-alpha-to-0 iterated limit and the result
carries a warning (strict mode raises instead). The pair (1, inf) is left
undefined by the theory and always raises. The grids evaluate a whole
alphas x betas table in one kernel call, and a single point is that
call's one-cell case, so a grid cell and the scalar value are the same
bits; in a grid the (1, inf) cell reads NaN with branch "undefined"
instead of raising. The curves evaluate the generic branch on a vector of
alphas at one beta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .dist import JointPmf
from .errors import UndefinedCorner
from .measures import _generic, _kernel, _kernel_grid, _kernel_inputs
from .orders import ExtOrder, OrderPair

INF = math.inf

_STRICT_MESSAGE = "strict mode rejects the path-dependent (0, 0) corner"
CORNER_WARNING = (
    "the (0,0) order pair is path dependent; returning the beta-then-alpha "
    "iterated limit (other limit paths give different values)"
)


@dataclass(frozen=True)
class TwoParamResult:
    """Value in bits, the limit branch that fired, and the echoed order pair."""

    value: float
    branch: str
    order: OrderPair
    warning: Optional[str] = None


@dataclass(frozen=True)
class TwoParamGrid:
    """Values in bits on alphas x betas (row i is alphas[i]), the branch of
    each cell, and the echoed orders. The (1, inf) cell is NaN with branch
    "undefined"; :meth:`cell` gives one cell as a :class:`TwoParamResult`,
    with the corner warning on the (0, 0) cell."""

    values: np.ndarray
    branches: tuple[tuple[str, ...], ...]
    alphas: tuple[ExtOrder, ...]
    betas: tuple[ExtOrder, ...]

    def cell(self, i: int, j: int) -> TwoParamResult:
        pair = OrderPair(self.alphas[i], self.betas[j])
        warning = CORNER_WARNING if pair.is_corner else None
        return TwoParamResult(float(self.values[i, j]), self.branches[i][j], pair, warning)


def _as_pair(order) -> OrderPair:
    if isinstance(order, OrderPair):
        return order
    if isinstance(order, tuple) and len(order) == 2:
        return OrderPair.of(order[0], order[1])
    raise TypeError("order must be an OrderPair or an (alpha, beta) tuple")


def _check_pair(pair: OrderPair, strict_corner: bool) -> Optional[str]:
    if pair.alpha.is_one and pair.beta.is_inf:
        raise UndefinedCorner("the (1, inf) order pair has no defined value")
    if pair.is_corner:
        if strict_corner:
            raise UndefinedCorner(_STRICT_MESSAGE)
        return CORNER_WARNING
    return None


def _measure(joint: JointPmf, order, strict_corner: bool, mutual: bool) -> TwoParamResult:
    pair = _as_pair(order)
    warning = _check_pair(pair, strict_corner)
    value, branch = _kernel(*_kernel_inputs(joint, mutual), pair.alpha, pair.beta)
    return TwoParamResult(value if mutual else 0.0 - value, branch, pair, warning)


def _grid(joint: JointPmf, alphas, betas, strict_corner: bool, mutual: bool) -> TwoParamGrid:
    alphas = tuple(ExtOrder.of(a) for a in alphas)
    betas = tuple(OrderPair.beta_of(b) for b in betas)
    if strict_corner and any(a.is_zero for a in alphas) and any(b.is_zero for b in betas):
        raise UndefinedCorner(_STRICT_MESSAGE)
    values, branches = _kernel_grid(*_kernel_inputs(joint, mutual), alphas, betas)
    values = values if mutual else 0.0 - values
    values.flags.writeable = False
    return TwoParamGrid(values, tuple(map(tuple, branches)), alphas, betas)


def _curve(joint: JointPmf, alphas: np.ndarray, beta: float, mutual: bool) -> np.ndarray:
    alphas = np.asarray(alphas, dtype=np.float64)
    if np.any(alphas <= 0.0) or np.any(alphas == 1.0) or not np.all(np.isfinite(alphas)):
        raise ValueError("alphas must be finite, positive, and != 1")
    if not (0.0 < beta < INF):
        raise ValueError("beta must be finite positive")
    values = _generic(*_kernel_inputs(joint, mutual), alphas, beta)
    return values if mutual else -values


def h_tilde(joint: JointPmf, order, *, strict_corner: bool = False) -> TwoParamResult:
    """Two-parameter conditional entropy of X given Y, in bits.

    ``order`` is an OrderPair or an (alpha, beta) tuple; tags 0, 1, inf
    select the limit branches listed in the module docstring. See
    :data:`CORNER_WARNING` for the (0, 0) convention.
    """
    return _measure(joint, order, strict_corner, mutual=False)


def i_tilde(joint: JointPmf, order, *, strict_corner: bool = False) -> TwoParamResult:
    """Two-parameter mutual information between X and Y, in bits.

    Mirrors :func:`h_tilde` with P_X as the reference.
    """
    return _measure(joint, order, strict_corner, mutual=True)


def h_tilde_curve(joint: JointPmf, alphas: np.ndarray, beta: float) -> np.ndarray:
    """Generic-branch values for a vector of finite alphas at one finite beta.

    Vectorized over alpha for the exponent maximizers; every alpha must lie
    in (0,1)u(1,inf) and beta in (0,inf).
    """
    return _curve(joint, alphas, beta, mutual=False)


def i_tilde_curve(joint: JointPmf, alphas: np.ndarray, beta: float) -> np.ndarray:
    """Generic-branch mutual-information values for a vector of finite alphas."""
    return _curve(joint, alphas, beta, mutual=True)


def h_tilde_grid(joint: JointPmf, alphas: Sequence, betas: Sequence, *,
                 strict_corner: bool = False) -> TwoParamGrid:
    """:func:`h_tilde` at every pair of ``alphas`` x ``betas`` in one kernel
    call, each cell equal to the scalar value. Orders may be repeated and
    in any order. The (1, inf) cell reads NaN with branch "undefined";
    strict mode raises if the grid holds the (0, 0) corner."""
    return _grid(joint, alphas, betas, strict_corner, mutual=False)


def i_tilde_grid(joint: JointPmf, alphas: Sequence, betas: Sequence, *,
                 strict_corner: bool = False) -> TwoParamGrid:
    """:func:`i_tilde` at every pair of ``alphas`` x ``betas``; see
    :func:`h_tilde_grid`."""
    return _grid(joint, alphas, betas, strict_corner, mutual=True)
