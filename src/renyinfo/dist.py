"""Exact finite-alphabet probability objects.

Marginals, joints, conditionals and products, with validated invariants
and a JSON wire format. Probabilities are 64-bit floats; the input
normalization tolerance is 1e-12 and nothing is renormalized silently.
Supports are computed by exact comparison to 0.0 (no epsilon): callers
must encode true zeros exactly.

All objects are immutable after validation and safe to share between
threads. A :class:`JointPmf` also carries a private memo that the measure
kernel fills lazily with arrays derived from ``probs`` (see
:mod:`renyinfo.measures`). Filling it is idempotent: two threads that race
store equal arrays under the same key, and the memo takes no part in
equality, repr or the wire format.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import (
    AlphabetMismatch,
    DuplicateLabel,
    NegativeMass,
    NotNormalized,
    SizeOverflow,
)

NORMALIZATION_TOL = 1e-12
PRODUCT_CELL_CAP = 10_000_000


def _check_labels(labels: Sequence[str], what: str) -> tuple[str, ...]:
    labels = tuple(str(s) for s in labels)
    if len(set(labels)) != len(labels):
        raise DuplicateLabel(f"{what} labels are not distinct: {labels}")
    return labels


def _check_mass(probs: np.ndarray, what: str) -> np.ndarray:
    if probs.size and probs.min() < 0.0:
        raise NegativeMass(f"{what} has negative entries (min {probs.min()!r})")
    total = float(probs.sum())
    if math.isnan(total):  # -inf is negative and +inf fails the deviation test
        raise NotNormalized(f"{what} has NaN entries")
    dev = abs(total - 1.0)
    if dev > NORMALIZATION_TOL:
        raise NotNormalized(
            f"{what} mass {total!r} deviates from 1 by {dev:.3e} "
            f"(tolerance {NORMALIZATION_TOL:.0e})"
        )
    return probs


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=np.float64, copy=True)
    a.setflags(write=False)
    return a


def support(probs: np.ndarray) -> np.ndarray:
    """Indices with strictly positive mass, by exact comparison to 0.0."""
    return np.flatnonzero(np.asarray(probs) > 0.0)


@dataclass(frozen=True)
class Pmf:
    """A probability vector over an ordered finite alphabet."""

    alphabet: tuple[str, ...]
    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "alphabet", _check_labels(self.alphabet, "Pmf"))
        p = np.asarray(self.probs, dtype=np.float64)
        if p.ndim != 1 or p.shape[0] != len(self.alphabet):
            raise ValueError(
                f"Pmf needs a 1-D vector of length {len(self.alphabet)}, got shape {p.shape}"
            )
        _check_mass(p, "Pmf")
        object.__setattr__(self, "probs", _frozen(p))

    @property
    def size(self) -> int:
        return len(self.alphabet)

    @property
    def support(self) -> np.ndarray:
        return support(self.probs)

    def to_dict(self) -> dict:
        return {"alphabet": list(self.alphabet), "pmf": [float(v) for v in self.probs]}

    @staticmethod
    def from_dict(d: dict) -> "Pmf":
        return Pmf(tuple(d["alphabet"]), np.asarray(d["pmf"], dtype=np.float64))

    @staticmethod
    def uniform(alphabet: Sequence[str]) -> "Pmf":
        k = len(alphabet)
        return Pmf(tuple(alphabet), np.full(k, 1.0 / k))

    def __repr__(self) -> str:
        return f"Pmf({list(self.alphabet)}, {np.array2string(self.probs, precision=6)})"


@dataclass(frozen=True)
class JointPmf:
    """A joint probability matrix over X x Y (rows = X, columns = Y)."""

    alphabet_x: tuple[str, ...]
    alphabet_y: tuple[str, ...]
    probs: np.ndarray
    # kernel inputs derived from probs, filled by measures._kernel_inputs
    _kernel_memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "alphabet_x", _check_labels(self.alphabet_x, "JointPmf X"))
        object.__setattr__(self, "alphabet_y", _check_labels(self.alphabet_y, "JointPmf Y"))
        p = np.asarray(self.probs, dtype=np.float64)
        want = (len(self.alphabet_x), len(self.alphabet_y))
        if p.shape != want:
            raise ValueError(f"JointPmf needs shape {want}, got {p.shape}")
        _check_mass(p, "JointPmf")
        object.__setattr__(self, "probs", _frozen(p))

    @property
    def shape(self) -> tuple[int, int]:
        return self.probs.shape

    def to_dict(self) -> dict:
        return {
            "alphabet_x": list(self.alphabet_x),
            "alphabet_y": list(self.alphabet_y),
            "pmf": [[float(v) for v in row] for row in self.probs],
        }

    @staticmethod
    def from_dict(d: dict) -> "JointPmf":
        return JointPmf(
            tuple(d["alphabet_x"]),
            tuple(d["alphabet_y"]),
            np.asarray(d["pmf"], dtype=np.float64),
        )

    def __repr__(self) -> str:
        return (
            f"JointPmf({list(self.alphabet_x)} x {list(self.alphabet_y)},\n"
            f"{np.array2string(self.probs, precision=6)})"
        )


@dataclass(frozen=True)
class CondPmf:
    """A bank of conditional rows: one Pmf over ``target_alphabet`` per
    conditioning symbol, absent (None) where the conditioning symbol has
    zero probability. Rows are never fabricated for zero-mass symbols.
    """

    given_alphabet: tuple[str, ...]
    target_alphabet: tuple[str, ...]
    rows: tuple[Optional[Pmf], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "given_alphabet", _check_labels(self.given_alphabet, "CondPmf given")
        )
        object.__setattr__(
            self, "target_alphabet", _check_labels(self.target_alphabet, "CondPmf target")
        )
        rows = tuple(self.rows)
        if len(rows) != len(self.given_alphabet):
            raise ValueError("one row slot per conditioning symbol required")
        for r in rows:
            if r is not None and r.alphabet != self.target_alphabet:
                raise AlphabetMismatch(
                    f"row alphabet {r.alphabet} != target {self.target_alphabet}"
                )
        object.__setattr__(self, "rows", rows)

    @staticmethod
    def from_matrix(
        given_alphabet: Sequence[str],
        target_alphabet: Sequence[str],
        matrix: Iterable[Sequence[float]],
    ) -> "CondPmf":
        """Build a total conditional (every row defined) from a row-stochastic matrix."""
        target = tuple(target_alphabet)
        rows = tuple(Pmf(target, np.asarray(r, dtype=np.float64)) for r in matrix)
        return CondPmf(tuple(given_alphabet), target, rows)

    @property
    def defined(self) -> tuple[bool, ...]:
        return tuple(r is not None for r in self.rows)

    def row(self, i: int) -> Pmf:
        r = self.rows[i]
        if r is None:
            raise KeyError(
                f"no conditional row for zero-probability symbol {self.given_alphabet[i]!r}"
            )
        return r

    def matrix(self, fill: float = 0.0) -> np.ndarray:
        """Dense (given, target) matrix with ``fill`` in absent rows."""
        out = np.full((len(self.given_alphabet), len(self.target_alphabet)), fill)
        for i, r in enumerate(self.rows):
            if r is not None:
                out[i] = r.probs
        return out


def validate(obj):
    """Return the object iff its invariants hold.

    Construction already validates; this re-runs the checks so callers can
    gate untrusted payloads explicitly.
    """
    if isinstance(obj, Pmf):
        return Pmf(obj.alphabet, obj.probs)
    if isinstance(obj, JointPmf):
        return JointPmf(obj.alphabet_x, obj.alphabet_y, obj.probs)
    if isinstance(obj, CondPmf):
        return CondPmf(obj.given_alphabet, obj.target_alphabet, obj.rows)
    raise TypeError(f"cannot validate object of type {type(obj).__name__}")


def marginal_x(joint: JointPmf) -> Pmf:
    """P_X(x) = sum_y P_XY(x, y)."""
    return Pmf(joint.alphabet_x, joint.probs.sum(axis=1))


def marginal_y(joint: JointPmf) -> Pmf:
    """P_Y(y) = sum_x P_XY(x, y)."""
    return Pmf(joint.alphabet_y, joint.probs.sum(axis=0))


def condition_on_y(joint: JointPmf) -> tuple[Pmf, CondPmf]:
    """Split a joint into (P_Y, P_{X|Y}).

    Conditional rows exist exactly for y with P_Y(y) > 0; nothing is
    divided by zero and absent rows stay absent.
    """
    py = marginal_y(joint)
    rows: list[Optional[Pmf]] = []
    for j in range(py.size):
        if py.probs[j] > 0.0:
            rows.append(Pmf(joint.alphabet_x, joint.probs[:, j] / py.probs[j]))
        else:
            rows.append(None)
    return py, CondPmf(joint.alphabet_y, joint.alphabet_x, tuple(rows))


def condition_on_x(joint: JointPmf) -> tuple[Pmf, CondPmf]:
    """Split a joint into (P_X, P_{Y|X}); mirror of :func:`condition_on_y`."""
    px = marginal_x(joint)
    rows: list[Optional[Pmf]] = []
    for i in range(px.size):
        if px.probs[i] > 0.0:
            rows.append(Pmf(joint.alphabet_y, joint.probs[i, :] / px.probs[i]))
        else:
            rows.append(None)
    return px, CondPmf(joint.alphabet_x, joint.alphabet_y, tuple(rows))


def joint_from_channel(px: Pmf, channel: CondPmf) -> JointPmf:
    """Compose an input distribution with a channel into the joint P_X * P_{Y|X}."""
    if channel.given_alphabet != px.alphabet:
        raise AlphabetMismatch(
            f"channel conditions on {channel.given_alphabet}, input is over {px.alphabet}"
        )
    nx, ny = len(px.alphabet), len(channel.target_alphabet)
    m = np.zeros((nx, ny))
    for i in range(nx):
        if px.probs[i] > 0.0:
            m[i] = px.probs[i] * channel.row(i).probs
    return JointPmf(px.alphabet, channel.target_alphabet, m)


def _pair_labels(a: Sequence[str], b: Sequence[str]) -> tuple[str, ...]:
    return tuple(f"({s},{t})" for s in a for t in b)


def product(p: JointPmf, q: JointPmf, cell_cap: int = PRODUCT_CELL_CAP) -> JointPmf:
    """Independent product joint on (X x X') x (Y x Y').

    Entry ((x,x'), (y,y')) = p(x,y) * q(x',y'). Used for additivity checks
    and n-fold extensions; refuses to materialize more than ``cell_cap``
    cells.
    """
    nx = len(p.alphabet_x) * len(q.alphabet_x)
    ny = len(p.alphabet_y) * len(q.alphabet_y)
    if nx * ny > cell_cap:
        raise SizeOverflow(f"product would have {nx * ny} cells > cap {cell_cap}")
    probs = np.kron(p.probs, q.probs)
    return JointPmf(
        _pair_labels(p.alphabet_x, q.alphabet_x),
        _pair_labels(p.alphabet_y, q.alphabet_y),
        probs,
    )


def iid_power(p: JointPmf, n: int, cell_cap: int = PRODUCT_CELL_CAP) -> JointPmf:
    """n-fold independent product of a joint with itself."""
    if n < 1:
        raise ValueError("n >= 1 required")
    out = p
    for _ in range(n - 1):
        out = product(out, p, cell_cap=cell_cap)
    return out


def to_json(obj: Pmf | JointPmf, indent: int | None = None) -> str:
    """Serialize to the wire schema; floats use shortest-form decimal repr,
    so values representable that way round-trip bit exactly."""
    return json.dumps(obj.to_dict(), indent=indent)


def from_json(text: str) -> Pmf | JointPmf:
    d = json.loads(text)
    if "alphabet_x" in d:
        return JointPmf.from_dict(d)
    if "alphabet" in d:
        return Pmf.from_dict(d)
    raise ValueError("JSON payload is neither a marginal nor a joint distribution")
