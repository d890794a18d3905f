"""The eight classical variants and the collapse identities against a
plain-Python oracle.

Every variant except "h" and "i" is a slice of the one kernel behind
h_tilde and i_tilde, so comparing the two inside the library checks a
function against itself. The oracle below recomputes all eight variants
with ``math.log2`` loops and nothing from ``renyinfo.measures``: the bar
variants row by row, "h" and "i" as divergences of the flattened joint,
and hstar / istar by the closed form of the minimum over the reference
Q_Y. Both the variants and h_tilde / i_tilde at beta in {alpha, 0, 1, inf}
are checked against it.
"""

import math

import numpy as np
import pytest

from renyinfo.dist import JointPmf
from renyinfo.measures import cond_entropy_variant, mutual_info_variant
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


def _flat(p, ref_x):
    """The cells of P_XY and of ref_x x P_Y, flattened alike."""
    py = [math.fsum(col) for col in zip(*p)]
    cells = [v for row in p for v in row]
    ref = [q * w for q in ref_x for w in py]
    return cells, ref


def _px(p):
    return [math.fsum(r) for r in p]


def h(p, a):
    return -_renyi_div(*_flat(p, [1.0] * len(p)), a)


def i(p, a):
    return _renyi_div(*_flat(p, _px(p)), a)


def _min_over_reference(p, ref_x, a):
    """min over Q_Y of D_a(P_XY || ref_x x Q_Y), by its closed form."""
    cols = [[(v, q) for v, q in zip(col, ref_x) if v > 0.0] for col in zip(*p)]
    cols = [c for c in cols if c]
    if a == 0.0:
        return -math.log2(max(math.fsum(q for _, q in c) for c in cols))
    if a == 1.0:  # the minimizer is P_Y
        return _renyi_div(*_flat(p, ref_x), a)
    if a == INF:
        return math.log2(math.fsum(max(v / q for v, q in c) for c in cols))
    norms = [math.fsum(q ** (1.0 - a) * v**a for v, q in c) ** (1.0 / a) for c in cols]
    return a / (a - 1.0) * math.log2(math.fsum(norms))


def hstar(p, a):
    return -_min_over_reference(p, [1.0] * len(p), a)


def istar(p, a):
    return _min_over_reference(p, _px(p), a)


ORACLES = {"h": h, "hstar": hstar, "hbar": hbar, "hbarstar": hbarstar,
           "i": i, "istar": istar, "ibar": ibar, "ibarstar": ibarstar}


def _joints():
    rng = np.random.default_rng(20251103)
    out = [random_joint(rng, int(rng.integers(2, 6)), int(rng.integers(2, 6))) for _ in range(8)]
    out += [random_joint_with_zeros(rng, int(rng.integers(2, 6)), int(rng.integers(2, 6)))
            for _ in range(8)]
    # an absent Y symbol and a point-mass row
    out.append(JointPmf(("a", "b", "c"), ("u", "v", "w"),
                        [[0.3, 0.0, 0.0], [0.1, 0.0, 0.25], [0.2, 0.0, 0.15]]))
    return out


JOINTS = _joints()


def _ids(j):
    return f"{j.shape[0]}x{j.shape[1]}"


@pytest.mark.parametrize("joint", JOINTS, ids=_ids)
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


@pytest.mark.parametrize("joint", JOINTS, ids=_ids)
def test_beta_alpha_and_one_match_oracle(joint):
    p = joint.probs.tolist()
    for a in EXT_ALPHAS:
        cases = [(1.0, h_tilde, hstar), (1.0, i_tilde, istar)]
        if a != 0.0:  # the (0, 0) corner is the beta-then-alpha limit, not the diagonal one
            cases += [(a, h_tilde, h), (a, i_tilde, i)]
        for b, measure, oracle in cases:
            got = measure(joint, (a, b)).value
            want = oracle(p, a)
            assert abs(got - want) <= TOL, (measure.__name__, a, b, got, want)


@pytest.mark.parametrize("joint", JOINTS, ids=_ids)
def test_variants_match_oracle(joint):
    p = joint.probs.tolist()
    for a in EXT_ALPHAS:
        for variant, oracle in ORACLES.items():
            fn = cond_entropy_variant if variant.startswith("h") else mutual_info_variant
            got = fn(variant, joint, a).value
            want = oracle(p, a)
            assert abs(got - want) <= TOL, (variant, a, got, want)
