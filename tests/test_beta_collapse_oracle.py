"""The beta in {0, inf} collapse identities against a plain-Python oracle.

h_tilde and i_tilde reach their beta = 0 and beta = inf branches through
the bar variants of ``renyinfo.measures``, so comparing the two inside the
library checks a function against itself. The oracle below recomputes the
four bar variants row by row with ``math.log2`` loops and nothing from
``renyinfo.measures``.
"""

import math

import numpy as np
import pytest

from renyinfo.dist import JointPmf
from renyinfo.sampling import random_joint, random_joint_with_zeros
from renyinfo.two_param import h_tilde, i_tilde

INF = math.inf
EXT_ALPHAS = (0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 4.0, INF)
TOL = 1e-9


def _rows(p):
    """(P_Y(y), [P(x|y) for x]) for every y with P_Y(y) > 0."""
    out = []
    for y in range(len(p[0])):
        w = math.fsum(p[x][y] for x in range(len(p)))
        if w > 0.0:
            out.append((w, [p[x][y] / w for x in range(len(p))]))
    return out


def _renyi_div(row, ref, a):
    """D_a(row || ref) in bits for a in [0, inf]; ref may be unnormalized."""
    pairs = [(r, q) for r, q in zip(row, ref) if r > 0.0]
    if a == 0.0:
        return -math.log2(math.fsum(q for _, q in pairs))
    if a == 1.0:
        return math.fsum(r * (math.log2(r) - math.log2(q)) for r, q in pairs)
    if a == INF:
        return max(math.log2(r) - math.log2(q) for r, q in pairs)
    return math.log2(math.fsum(r**a * q ** (1.0 - a) for r, q in pairs)) / (a - 1.0)


def _row_entropy(row, a):
    return -_renyi_div(row, [1.0] * len(row), a)


def hbar(p, a):
    return math.fsum(w * _row_entropy(row, a) for w, row in _rows(p))


def hbarstar(p, a):
    if a == 1.0:
        return hbar(p, a)
    hs = [_row_entropy(row, a) for _, row in _rows(p)]
    return max(hs) if a < 1.0 else min(hs)


def ibar(p, a):
    px = [math.fsum(r) for r in p]
    return math.fsum(w * _renyi_div(row, px, a) for w, row in _rows(p))


def ibarstar(p, a):
    if a == 1.0:
        return ibar(p, a)
    px = [math.fsum(r) for r in p]
    divs = [_renyi_div(row, px, a) for _, row in _rows(p)]
    return min(divs) if a < 1.0 else max(divs)


def _joints():
    rng = np.random.default_rng(20251103)
    out = [random_joint(rng, int(rng.integers(2, 6)), int(rng.integers(2, 6))) for _ in range(8)]
    out += [random_joint_with_zeros(rng, int(rng.integers(2, 6)), int(rng.integers(2, 6)))
            for _ in range(8)]
    # an absent Y symbol and a point-mass row
    out.append(JointPmf(("a", "b", "c"), ("u", "v", "w"),
                        [[0.3, 0.0, 0.0], [0.1, 0.0, 0.25], [0.2, 0.0, 0.15]]))
    return out


@pytest.mark.parametrize("joint", _joints(), ids=lambda j: f"{j.shape[0]}x{j.shape[1]}")
def test_beta_zero_and_inf_match_row_oracle(joint):
    p = joint.probs.tolist()
    for a in EXT_ALPHAS:
        cases = [(0.0, h_tilde, hbar), (0.0, i_tilde, ibar)]
        if a != 1.0:  # (1, inf) has no value
            cases += [(INF, h_tilde, hbarstar), (INF, i_tilde, ibarstar)]
        for b, measure, oracle in cases:
            got = measure(joint, (a, b)).value
            want = oracle(p, a)
            assert abs(got - want) <= TOL, (measure.__name__, a, b, got, want)
