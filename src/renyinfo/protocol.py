"""Desk-scale operational validation of the exponent calculators.

Privacy amplification: exact pushforward of a joint through enumerable
hash tables, exhaustive minimization of the order-beta divergence from the
ideal uniform-and-independent target, and sampling from the bit-affine
2-universal family. Soft covering: the exact codebook-ensemble divergence
of an i.i.d. random code and a seeded Monte-Carlo estimator with jackknife
standard errors, checked against the one-shot converse bounds.

The exact enumerations visit one representative per symmetry class. The
PA divergence does not change when hash outputs are relabelled, so the
minimum runs over set partitions of X into at most M blocks, written as
restricted growth strings. The SC ensemble depends only on the multiset of
codewords, so the expectation runs over multisets with multinomial
weights. Both work in blocks of at most ``_CHUNK`` classes.

This is a verification rig, not a scalable tool: enumeration caps keep
everything tiny by design. The caps count the ordered objects (M^|X| hash
tables, |supp P_X|^(n M) codebooks), so which inputs are accepted does not
depend on the symmetry reduction. Identical seeds produce bit-identical
records.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import reduce
from typing import Optional

import numpy as np

from .dist import CondPmf, JointPmf, Pmf, joint_from_channel, marginal_y
from .errors import (
    BetaOutOfFamilyRange,
    DomainMismatch,
    EnumerationCap,
    NonPowerOfTwoAlphabet,
)
from .exponents import sc_one_shot_bound
from .measures import _divergence
from .orders import ExtOrder

HASH_ENUMERATION_CAP = 1_000_000
CODEBOOK_ENUMERATION_CAP = 1_000_000
_CHUNK = 4096
# Tie rule of pa_min_divergence_exhaustive: partitions within this many bits
# of the minimum count as minimizers, and the lexicographically first
# restricted growth string among them is returned.
PA_TIE_TOL = 1e-12


@dataclass(frozen=True)
class HashSpec:
    """A hash table x_index -> z_index into a range of size ``range_size``."""

    table: tuple[int, ...]
    range_size: int
    origin: str = "table"

    def __post_init__(self):
        if self.range_size < 1:
            raise ValueError("range size must be >= 1")
        if any(not (0 <= z < self.range_size) for z in self.table):
            raise ValueError("table values must lie in [0, range_size)")

    @staticmethod
    def identity(domain: int) -> "HashSpec":
        return HashSpec(tuple(range(domain)), domain, "identity")

    @staticmethod
    def constant(domain: int, z: int = 0, range_size: int = 1) -> "HashSpec":
        return HashSpec((z,) * domain, max(range_size, z + 1), "constant")


@dataclass(frozen=True)
class Codebook:
    """M codewords, each a length-n tuple of input symbols, plus the seed
    they were drawn with (None for hand-built codebooks)."""

    codewords: tuple[tuple[str, ...], ...]
    seed: Optional[int] = None

    def __post_init__(self):
        if len(self.codewords) < 1:
            raise ValueError("a codebook needs at least one codeword")


@dataclass(frozen=True)
class SimRecord:
    """One simulated divergence value with its estimator provenance."""

    n: int
    M: int
    beta: float
    value_bits: float
    estimator: str
    stderr: Optional[float] = None
    seed: Optional[int] = None
    note: str = ""

    def __post_init__(self):
        if self.value_bits < -1e-12:
            raise ValueError("divergence must be non-negative")

    def csv_row(self) -> list:
        return [
            self.n,
            self.M,
            self.beta,
            self.estimator,
            repr(self.value_bits),
            "" if self.stderr is None else repr(self.stderr),
            "" if self.seed is None else self.seed,
            self.note,
        ]


SIM_CSV_HEADER = ["n", "M", "beta", "estimator", "value_bits", "stderr", "seed", "rounding_note"]


def m_from_rate(n: int, rate_bits: float) -> tuple[int, str]:
    """Nearest integer codebook / range size M >= 1 for 2^(n R)."""
    m = max(1, round(2.0 ** (n * rate_bits)))
    return m, f"M=round(2^(n*R))={m}"


# ---------------------------------------------------------------------------
# privacy amplification


def _induced(joint_n: JointPmf, h: HashSpec) -> np.ndarray:
    """The (M, |Y|) array of the joint pushed through z = h(x)."""
    if len(h.table) != len(joint_n.alphabet_x):
        raise DomainMismatch(
            f"hash table covers {len(h.table)} symbols, joint has {len(joint_n.alphabet_x)}"
        )
    out = np.zeros((h.range_size, len(joint_n.alphabet_y)))
    np.add.at(out, np.asarray(h.table), joint_n.probs)
    return out


def pa_apply_hash(joint_n: JointPmf, h: HashSpec) -> JointPmf:
    """Exact pushforward of the joint through z = h(x): the induced joint
    on Z x Y sums the preimage rows."""
    labels_z = tuple(f"z{k}" for k in range(h.range_size))
    return JointPmf(labels_z, joint_n.alphabet_y, _induced(joint_n, h))


def _pa_divergence_batch(r: np.ndarray, py: np.ndarray, beta: float, m: int) -> np.ndarray:
    """D_beta(R || 1_Z/M x P_Y) for a stack of induced joints r (..., k, ny).

    The k rows are the first k of the M hash outputs; the M - k others carry
    no mass and add nothing. The induced joint is always dominated by the
    ideal (r(z,y) <= py(y)), so no support violation can occur for any beta.
    """
    ref = py[None, :] / m
    pos = r > 0.0
    if beta == 1.0:
        lr = np.log2(np.where(pos, r, 1.0))
        lref = np.log2(np.where(ref > 0.0, ref, 1.0))
        return np.where(pos, r * (lr - lref), 0.0).sum(axis=(-2, -1))
    t = np.where(pos, np.power(np.where(pos, r, 1.0), beta) * np.power(np.where(ref > 0.0, ref, 1.0), 1.0 - beta), 0.0)
    s = t.sum(axis=(-2, -1))
    return np.log2(s) / (beta - 1.0)


def pa_divergence(joint_n: JointPmf, h: HashSpec, beta: float) -> float:
    """Divergence of one hash's induced joint from the ideal, in bits."""
    induced = _induced(joint_n, h)
    ideal = np.tile(joint_n.probs.sum(axis=0) / h.range_size, (h.range_size, 1))
    return _divergence(induced.ravel(), ideal.ravel(), ExtOrder.of(beta)).value


def _rgs_blocks(p: np.ndarray, k: int):
    """Every restricted growth string over the len(p) rows of p with labels
    below k, in lexicographic order, as blocks (labels (B, len(p)), induced
    joints (B, k, |Y|)) of at most ``_CHUNK`` strings.

    A restricted growth string labels row 0 with 0 and each later row with
    at most one more than the largest label so far: it is the
    lexicographically smallest table of its set partition. Strings grow one
    row at a time and carry their prefix's induced joint, so each level adds
    one row per string; a level is split whenever it would exceed the block
    size, which bounds the working set by depth x ``_CHUNK`` strings.
    """
    d = len(p)

    def grow(labels, top, induced):
        row = labels.shape[1]
        if row == d:
            yield labels, induced
            return
        counts = np.minimum(top + 2, k)
        ends = np.cumsum(counts)
        lo = 0
        while lo < len(counts):
            base = ends[lo - 1] if lo else 0
            hi = max(lo + 1, int(np.searchsorted(ends, base + _CHUNK, side="right")))
            c = counts[lo:hi]
            parent = np.repeat(np.arange(lo, hi), c)
            label = np.arange(len(parent)) - np.repeat(ends[lo:hi] - c - base, c)
            child = induced[parent]
            child[np.arange(len(parent)), label] += p[row]
            yield from grow(
                np.concatenate([labels[parent], label[:, None]], axis=1),
                np.maximum(top[parent], label),
                child,
            )
            lo = hi

    first = np.zeros((1, k, p.shape[1]))
    first[0, 0] = p[0]
    yield from grow(np.zeros((1, 1), dtype=np.intp), np.zeros(1, dtype=np.intp), first)


def pa_min_divergence_exhaustive(
    joint_n: JointPmf, m: int, beta: float, cap: int = HASH_ENUMERATION_CAP
) -> tuple[float, HashSpec]:
    """Minimum order-beta divergence over all M^|X| hash tables.

    Relabelling the hash outputs permutes the rows of the induced joint and
    leaves its divergence from 1_Z/M x P_Y unchanged, so the minimum runs
    over the set partitions of X into at most M blocks, each written as its
    restricted growth string (RGS), in lexicographic order. The cap still
    counts the M^|X| tables.

    Tie rule: among the partitions within ``PA_TIE_TOL`` bits of the
    minimum, the returned table is the lexicographically first RGS, and the
    returned value is that table's own divergence.
    """
    d = len(joint_n.alphabet_x)
    total = m**d
    if total > cap:
        raise EnumerationCap(f"{m}^{d} = {total} hash tables exceed cap {cap}")
    p = joint_n.probs
    py = p.sum(axis=0)
    best = math.inf
    # the tie rule's table is a strict running-minimum record (an earlier
    # partition at or below its value would come first), so keep the records
    # still within PA_TIE_TOL of the running minimum; the first one wins
    records: list[tuple[float, np.ndarray]] = []
    for labels, induced in _rgs_blocks(p, min(m, d)):
        vals = _pa_divergence_batch(induced, py, beta, m)
        run = np.fmin.accumulate(np.concatenate(([best], vals)))
        best = float(run[-1])
        new = np.flatnonzero(vals < run[:-1])
        records = [r for r in records if r[0] <= best + PA_TIE_TOL]
        records += [(float(vals[i]), labels[i].copy()) for i in new if vals[i] <= best + PA_TIE_TOL]
    if not records:
        raise RuntimeError(f"no hash table of {m}^{d} gave a divergence below +inf")
    value, table = records[0]
    return value, HashSpec(tuple(int(z) for z in table), m, "exhaustive-min")


def _bit_matrix(count: int, bits: int) -> np.ndarray:
    return (np.arange(count)[:, None] >> np.arange(bits)[None, :]) & 1


def sample_affine_tables(
    rng: np.random.Generator, domain_bits: int, range_bits: int, count: int
) -> np.ndarray:
    """Tables of z = A x + b over GF(2) with uniform A, b: a 2-universal family."""
    xbits = _bit_matrix(2**domain_bits, domain_bits)  # (D, a)
    a_mats = rng.integers(0, 2, size=(count, range_bits, domain_bits))
    b_vecs = rng.integers(0, 2, size=(count, range_bits))
    zbits = (np.einsum("kca,da->kdc", a_mats, xbits) + b_vecs[:, None, :]) % 2
    weights = 1 << np.arange(range_bits)
    return (zbits * weights).sum(axis=2)  # (count, D)


def pa_universal_family_divergence(
    joint_n: JointPmf,
    m: int,
    beta: float,
    family: str = "affine-over-bits",
    seed: int = 0,
    n_samples: int = 64,
    n: int = 1,
) -> SimRecord:
    """Best and average divergence over hashes sampled from the bit-affine
    family (2-universal, so the guarantee covers beta in [1, 2]).

    The family average upper-bounds its own minimum, so a hash at least as
    good as the reported ensemble mean exists; value_bits carries the best
    sampled hash, the mean travels in the note.
    """
    if family != "affine-over-bits":
        raise ValueError(f"unsupported family {family!r}")
    beta = float(beta)
    if not (1.0 <= beta <= 2.0):
        raise BetaOutOfFamilyRange("the affine family is 2-universal: beta must lie in [1, 2]")
    d = len(joint_n.alphabet_x)
    a_bits = d.bit_length() - 1
    k_bits = m.bit_length() - 1
    if 2**a_bits != d or 2**k_bits != m:
        raise NonPowerOfTwoAlphabet(f"|X|={d} and M={m} must both be powers of two")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    tables = sample_affine_tables(rng, a_bits, k_bits, n_samples)
    p = joint_n.probs
    py = p.sum(axis=0)
    onehot = tables[:, :, None] == np.arange(m)[None, None, :]
    induced = np.einsum("bdm,dy->bmy", onehot.astype(np.float64), p)
    vals = _pa_divergence_batch(induced, py, beta, m)
    mean = float(vals.mean())
    se = float(vals.std(ddof=1) / math.sqrt(n_samples)) if n_samples > 1 else None
    return SimRecord(
        n=n,
        M=m,
        beta=beta,
        value_bits=float(vals.min()),
        estimator=f"affine-family(N={n_samples})",
        stderr=se,
        seed=seed,
        note=f"ensemble_mean_bits={mean!r}",
    )


# ---------------------------------------------------------------------------
# soft covering


def _channel_power(px: Pmf, pyx: CondPmf, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(sequence probs, per-sequence output rows, n-fold output marginal).

    Sequences run over supp(P_X)^n in lexicographic order of support
    indices; rows are Kronecker powers of the single-letter channel rows.
    """
    if pyx.given_alphabet != px.alphabet:
        raise DomainMismatch("channel must condition on the input alphabet")
    supp = px.support
    rows1 = np.stack([pyx.row(int(i)).probs for i in supp])
    probs1 = px.probs[supp]
    seq_probs = probs1.copy()
    seq_rows = rows1
    for _ in range(n - 1):
        seq_probs = np.kron(seq_probs, probs1)
        # row (i, j) is kron(seq_rows[i], rows1[j])
        seq_rows = (seq_rows[:, None, :, None] * rows1[None, :, None, :]).reshape(len(seq_probs), -1)
    py1 = marginal_y(joint_from_channel(px, pyx)).probs
    pyn = reduce(np.kron, [py1] * n)
    return seq_probs, seq_rows, pyn


def _sc_inner(pyc: np.ndarray, pyn: np.ndarray, beta: float) -> np.ndarray:
    """sum_y P_{Y|C}^beta P_Y^(1-beta) per codebook (beta != 1), or the
    relative entropy D(P_{Y|C} || P_Y) when beta == 1."""
    pos = pyc > 0.0
    if beta == 1.0:
        lp = np.log2(np.where(pos, pyc, 1.0))
        lref = np.log2(np.where(pyn > 0.0, pyn, 1.0))
        return np.where(pos, pyc * (lp - lref), 0.0).sum(axis=-1)
    t = np.where(
        pos,
        np.power(np.where(pos, pyc, 1.0), beta)
        * np.power(np.where(pyn > 0.0, pyn, 1.0), 1.0 - beta),
        0.0,
    )
    return t.sum(axis=-1)


def sc_expected_divergence_exact(
    px: Pmf,
    pyx: CondPmf,
    n: int,
    m: int,
    beta: float,
    cap: int = CODEBOOK_ENUMERATION_CAP,
) -> SimRecord:
    """Exact codebook-ensemble divergence of the i.i.d. random code.

    For beta != 1 this is (1/(beta-1)) log2 of the exact ensemble
    expectation of the inner power sum; for beta = 1 it is the exact
    expected relative entropy.

    The output distribution of a codebook depends only on its multiset of
    codewords, so the expectation runs over the multisets of M sequences
    from supp(P_X)^n, each weighted by its probability under i.i.d.
    drawing, M!/prod_i k_i! * prod_i p_i^k_i, computed in the log domain.
    The cap still counts the |supp P_X|^(n M) ordered codebooks.
    """
    beta = float(beta)
    seq_probs, seq_rows, pyn = _channel_power(px, pyx, n)
    s = len(seq_probs)
    total = s ** m
    if total > cap:
        raise EnumerationCap(f"{s}^{m} = {total} codebooks exceed cap {cap}")
    logp = np.log(seq_probs)
    log_fact = np.array([math.lgamma(k + 1) for k in range(m + 1)])
    pos = np.arange(m)
    acc = 0.0
    it = itertools.combinations_with_replacement(range(s), m)
    while True:
        chunk = list(itertools.islice(it, _CHUNK))
        if not chunk:
            break
        idx = np.asarray(chunk)  # (B, M), each row non-decreasing
        # runs of equal codewords: k_i is the length of run i, read at its end
        first = np.diff(idx, axis=1, prepend=-1) != 0
        last = np.concatenate([first[:, 1:], np.ones((len(idx), 1), dtype=bool)], axis=1)
        k = pos - np.maximum.accumulate(np.where(first, pos, 0), axis=1) + 1
        log_w = log_fact[m] - np.where(last, log_fact[k], 0.0).sum(axis=1) + logp[idx].sum(axis=1)
        pyc = seq_rows[idx].mean(axis=1)  # (B, |Y|^n)
        acc += float(np.sum(np.exp(log_w) * _sc_inner(pyc, pyn, beta)))
    value = acc if beta == 1.0 else math.log2(acc) / (beta - 1.0)
    return SimRecord(n, m, beta, value, "exact-enumeration")


def sample_codebook(px: Pmf, n: int, m: int, rng: np.random.Generator) -> Codebook:
    """Draw M i.i.d. codewords of length n from P_X^n."""
    supp = px.support
    idx = rng.choice(len(supp), size=(m, n), p=px.probs[supp] / px.probs[supp].sum())
    words = tuple(tuple(px.alphabet[supp[i]] for i in row) for row in idx)
    return Codebook(words)


def _jackknife_se(values: np.ndarray) -> float:
    n = len(values)
    mean = values.mean()
    return float(math.sqrt((n - 1) / n * np.sum((values - mean) ** 2)))


def sc_expected_divergence_mc(
    px: Pmf,
    pyx: CondPmf,
    n: int,
    m: int,
    beta: float,
    n_samples: int = 1000,
    seed: int = 0,
) -> SimRecord:
    """Monte-Carlo estimate of the codebook-ensemble divergence.

    Codebooks are sampled from per-batch RNG streams split off the master
    seed, so records are seed-deterministic and batch-partitionable. For
    beta != 1 the inner expectation is estimated first and logged after;
    the (vanishing) plug-in bias of the outer log is noted, not corrected.
    Standard errors are leave-one-out jackknife on the reported value.
    """
    beta = float(beta)
    if n_samples < 2:
        raise ValueError("n_samples >= 2 required")
    seq_probs, seq_rows, pyn = _channel_power(px, pyx, n)
    s = len(seq_probs)
    streams = np.random.SeedSequence(seed).spawn(math.ceil(n_samples / _CHUNK))
    inner = np.empty(n_samples)
    done = 0
    for child in streams:
        take = min(_CHUNK, n_samples - done)
        rng = np.random.default_rng(child)
        idx = rng.choice(s, size=(take, m), p=seq_probs)
        pyc = seq_rows[idx].mean(axis=1)
        inner[done : done + take] = _sc_inner(pyc, pyn, beta)
        done += take
    if beta == 1.0:
        value = float(inner.mean())
        # jackknife of a plain mean reduces to std/sqrt(N)
        loo = (inner.sum() - inner) / (n_samples - 1)
        se = _jackknife_se(loo)
        note = ""
    else:
        total = inner.sum()
        value = math.log2(total / n_samples) / (beta - 1.0)
        loo = (total - inner) / (n_samples - 1)
        loo_vals = np.log2(np.maximum(loo, 1e-300)) / (beta - 1.0)
        se = _jackknife_se(loo_vals)
        note = "plug-in log of the sampled mean; O(1/N) bias not corrected"
    return SimRecord(
        n, m, beta, value, f"monte-carlo(N={n_samples})", se, seed, note
    )


@dataclass(frozen=True)
class BoundCheck:
    """Outcome of a one-shot converse comparison (negative margin = fail)."""

    passed: bool
    margin: float
    bound: float
    value: float


def check_one_shot_sc_bound(
    px: Pmf, pyx: CondPmf, n: int, m: int, beta: float, record: SimRecord
) -> BoundCheck:
    """Check the ensemble divergence against the one-shot converse bound
    for the n-fold source (evaluated through additivity)."""
    single = joint_from_channel(px, pyx)
    bound = sc_one_shot_bound(single, beta, math.log2(m), n=n)
    margin = record.value_bits - bound
    return BoundCheck(bool(margin >= -1e-10), float(margin), float(bound), record.value_bits)
