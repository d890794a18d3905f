"""Extended order parameters with exact tags for the limit points 0, 1, inf.

Limit orders are tags rather than large or tiny floats: every limit case
gets its own closed-form branch downstream, so nothing is ever evaluated
"numerically close to" a singular point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

ZERO = "zero"
ONE = "one"
FINITE = "finite"
INF = "inf"


@dataclass(frozen=True)
class ExtOrder:
    """An order value in [0, inf] with exact tags for {0, 1, inf}.

    ``value`` carries the float payload (0.0, 1.0, the finite order, or
    math.inf) so ``as_float`` is always meaningful.
    """

    tag: str
    value: float

    @staticmethod
    def zero() -> "ExtOrder":
        return ExtOrder(ZERO, 0.0)

    @staticmethod
    def one() -> "ExtOrder":
        return ExtOrder(ONE, 1.0)

    @staticmethod
    def infinity() -> "ExtOrder":
        return ExtOrder(INF, math.inf)

    @staticmethod
    def finite(value: float, allow_one: bool = False) -> "ExtOrder":
        value = float(value)
        if not math.isfinite(value) or value <= 0.0:
            raise ValueError(f"finite order must be in (0, inf), got {value!r}")
        if value == 1.0 and not allow_one:
            raise ValueError("order 1 must be the exact tag, not Finite(1)")
        return ExtOrder(FINITE, value)

    @staticmethod
    def of(x, allow_one: bool = False) -> "ExtOrder":
        """Parse a float, string, or ExtOrder into a tagged order."""
        if isinstance(x, ExtOrder):
            return x
        if isinstance(x, str):
            s = x.strip().lower()
            if s in ("inf", "infinity", "oo"):
                return ExtOrder.infinity()
            x = float(s)
        x = float(x)
        if x == 0.0:
            return ExtOrder.zero()
        if math.isinf(x):
            if x < 0:
                raise ValueError("orders are non-negative")
            return ExtOrder.infinity()
        if x == 1.0 and not allow_one:
            return ExtOrder.one()
        return ExtOrder.finite(x, allow_one=allow_one)

    @property
    def is_zero(self) -> bool:
        return self.tag == ZERO

    @property
    def is_one(self) -> bool:
        return self.tag == ONE

    @property
    def is_inf(self) -> bool:
        return self.tag == INF

    @property
    def is_finite(self) -> bool:
        return self.tag == FINITE

    def as_float(self) -> float:
        return self.value

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        if self.is_one:
            return "1"
        if self.is_inf:
            return "inf"
        return repr(self.value)


@dataclass(frozen=True)
class OrderPair:
    """An (alpha, beta) pair of extended orders.

    alpha = 1 is always a tag (removable singularity in the generic
    formulas); beta = 1 is a plain finite value since beta has no
    singularity at 1. The pair (0, 0) is the discontinuity corner: the
    value returned downstream is the beta-then-alpha iterated limit and
    carries a warning, because other limit paths yield different values.
    """

    alpha: ExtOrder
    beta: ExtOrder

    @staticmethod
    def of(alpha, beta) -> "OrderPair":
        return OrderPair(ExtOrder.of(alpha), OrderPair.beta_of(beta))

    @staticmethod
    def beta_of(beta) -> ExtOrder:
        """Parse a beta; beta = 1 is the plain finite value, never the tag."""
        b = ExtOrder.of(beta, allow_one=True)
        return ExtOrder.finite(1.0, allow_one=True) if b.is_one else b

    @property
    def is_corner(self) -> bool:
        return self.alpha.is_zero and self.beta.is_zero

    def __str__(self) -> str:
        return f"({self.alpha},{self.beta})"
