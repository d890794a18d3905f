"""Naive reference evaluations written straight from the defining formulas.

Everything here is plain Python over nested lists with ``math`` only: no
numpy and no code from ``renyinfo``. The benchmark compares the library's
outputs against these routes outside the timed region, so a check never
compares a function with itself.

Joints are lists of rows ``p[x][y]``; values are in bits. Orders are
floats, with ``math.inf`` for the infinite order.
"""

from __future__ import annotations

import itertools
import math

INF = math.inf


def _py(p):
    return [math.fsum(p[x][y] for x in range(len(p))) for y in range(len(p[0]))]


def _px(p):
    return [math.fsum(row) for row in p]


def _rows(p):
    """(P_Y(y), [P(x|y) for x]) for every y with P_Y(y) > 0."""
    py = _py(p)
    return [(w, [p[x][y] / w for x in range(len(p))]) for y, w in enumerate(py) if w > 0.0]


def _log2_sum(terms):
    return math.log2(math.fsum(terms))


def renyi_div(p, q, a):
    """D_a(p || q) for flat lists, a in [0, inf]."""
    supp = [(pi, qi) for pi, qi in zip(p, q) if pi > 0.0]
    if a == 1.0:
        return math.fsum(pi * (math.log2(pi) - math.log2(qi)) for pi, qi in supp)
    if a == 0.0:
        return -math.log2(math.fsum(qi for _, qi in supp))
    if a == INF:
        return max(math.log2(pi) - math.log2(qi) for pi, qi in supp)
    return _log2_sum(pi**a * qi ** (1.0 - a) for pi, qi in supp) / (a - 1.0)


def _row_entropy(row, a):
    return -renyi_div(row, [1.0] * len(row), a)


def shannon_cond_entropy(p):
    return math.fsum(w * _row_entropy(row, 1.0) for w, row in _rows(p))


def shannon_mi(p):
    px, py = _px(p), _py(p)
    return math.fsum(
        p[x][y] * (math.log2(p[x][y]) - math.log2(px[x] * py[y]))
        for x in range(len(p)) for y in range(len(p[0])) if p[x][y] > 0.0
    )


def h_tilde(p, a, b):
    """Two-parameter conditional entropy H~_{a,b}(X|Y), every branch.

    The (0, 0) corner returns the beta-then-alpha iterated limit, as the
    library documents; (1, inf) has no value and raises ValueError.
    """
    rows = _rows(p)
    if a == 1.0:
        if b == INF:
            raise ValueError("(1, inf) is undefined")
        return shannon_cond_entropy(p)
    supp = [sum(1 for v in row if v > 0.0) for _, row in rows]
    if a == 0.0:
        if b == 0.0:
            return math.fsum(w * math.log2(s) for (w, _), s in zip(rows, supp))
        return math.log2(max(supp))
    if a == INF:
        tops = [max(row) for _, row in rows]
        if b == 0.0:
            return -math.fsum(w * math.log2(t) for (w, _), t in zip(rows, tops))
        if b == INF:
            return -math.log2(max(tops))
        return -_log2_sum(w * t**b for (w, _), t in zip(rows, tops)) / b
    ents = [_row_entropy(row, a) for _, row in rows]
    if b == 0.0:
        return math.fsum(w * h for (w, _), h in zip(rows, ents))
    if b == INF:
        return max(ents) if a < 1.0 else min(ents)
    power_sums = [math.fsum(v**a for v in row if v > 0.0) for _, row in rows]
    outer = _log2_sum(w * s ** (b / a) for (w, _), s in zip(rows, power_sums))
    return a / (b * (1.0 - a)) * outer


def i_tilde(p, a, b):
    """Two-parameter mutual information I~_{a,b}(X:Y), every branch."""
    px = _px(p)
    rows = _rows(p)
    if a == 1.0:
        if b == INF:
            raise ValueError("(1, inf) is undefined")
        return shannon_mi(p)
    masses = [math.fsum(px[x] for x, v in enumerate(row) if v > 0.0) for _, row in rows]
    if a == 0.0:
        if b == 0.0:
            return -math.fsum(w * math.log2(m) for (w, _), m in zip(rows, masses))
        return -math.log2(max(masses))
    if a == INF:
        best = [max(math.log2(v) - math.log2(px[x]) for x, v in enumerate(row) if v > 0.0)
                for _, row in rows]
        if b == 0.0:
            return math.fsum(w * t for (w, _), t in zip(rows, best))
        if b == INF:
            return max(best)
        return _log2_sum(w * 2.0 ** (b * t) for (w, _), t in zip(rows, best)) / b
    divs = [renyi_div(row, px, a) for _, row in rows]
    if b == 0.0:
        return math.fsum(w * d for (w, _), d in zip(rows, divs))
    if b == INF:
        return min(divs) if a < 1.0 else max(divs)
    inner = [math.fsum(px[x] ** (1.0 - a) * v**a for x, v in enumerate(row) if v > 0.0)
             for _, row in rows]
    outer = _log2_sum(w * s ** (b / a) for (w, _), s in zip(rows, inner))
    return a / (b * (a - 1.0)) * outer


# beta at which each classical variant sits on the two-parameter square
_VARIANT_BETA = {"h": None, "hstar": 1.0, "hbar": 0.0, "hbarstar": INF,
                 "i": None, "istar": 1.0, "ibar": 0.0, "ibarstar": INF}


def variant(name, p, a):
    """One of the eight classical variants at order a.

    Away from a = 0 each is the two-parameter measure at its beta (beta = a
    for the divergence forms "h" and "i"). At a = 0 the divergence forms
    are evaluated from their own definition, since the (0, 0) corner
    convention differs from the diagonal limit.
    """
    if a == 1.0:
        return shannon_cond_entropy(p) if name.startswith("h") else shannon_mi(p)
    if a == 0.0 and name in ("h", "i"):
        flat = [v for row in p for v in row]
        if name == "h":
            py = _py(p)
            ideal = [py[y] for _ in range(len(p)) for y in range(len(py))]
            return -renyi_div(flat, ideal, 0.0)
        px, py = _px(p), _py(p)
        return renyi_div(flat, [px[x] * py[y] for x in range(len(p)) for y in range(len(py))], 0.0)
    b = _VARIANT_BETA[name]
    b = a if b is None else b
    return (h_tilde if name.startswith("h") else i_tilde)(p, a, b)


def power(p, n):
    """n-fold product joint, rows ordered as the library's Kronecker power."""
    out = p
    for _ in range(n - 1):
        out = [[u * v for u in ra for v in rb] for ra in out for rb in p]
    return out


def hash_divergence(p, table, m, b):
    """D_b of the induced joint on Z x Y from the ideal 1_Z/m x P_Y."""
    ny = len(p[0])
    induced = [[0.0] * ny for _ in range(m)]
    for x, z in enumerate(table):
        for y in range(ny):
            induced[z][y] += p[x][y]
    py = _py(p)
    flat = [induced[z][y] for z in range(m) for y in range(ny)]
    ideal = [py[y] / m for _ in range(m) for y in range(ny)]
    return renyi_div(flat, ideal, b)


def min_hash_divergence(p, m, b):
    """Minimum of :func:`hash_divergence` over all m^|X| tables."""
    return min(hash_divergence(p, t, m, b) for t in itertools.product(range(m), repeat=len(p)))
