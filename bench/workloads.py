"""The four benchmark workloads: seeded inputs, timed operations, checks.

Each workload is a fixed cyclic schedule of operations built from
``--seed``. The seed draws the joint distributions, rates and protocol
instances; the kinds, sizes and orders of the operations are the same for
every seed, so runs with different seeds do the same amount of work. The
closed loop (one client) runs the schedule round and round until the run
time is up.

An operation's ``run`` is the timed call into the library. Its ``check``
runs after the timed loop and compares the output with an independent
route (``oracle``, or a second library route the paper proves equal). The
tolerances are fixed here and are not tuned to pass.

The library is reached through module attributes at call time
(``rx.exponents.pa_exponent``), so the traced run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Any, Callable

import oracle

rx: Any = None  # the renyinfo package, set by load_library()

# measure-table
ORDER_GRID = "0,0.25,0.5,0.75,1,1.5,2,4,inf"
TWO_PARAM_PROPS = (
    "collapse", "mono-alpha", "mono-beta", "additivity", "dpi-h", "dpi-i",
    "discard-mono", "concavity-alpha", "concavity-input", "convexity-channel",
    "continuity-one", "nonneg",
)
VERIFY_SAMPLES = 1
MEASURE_TOL = 1e-9

# exponent-curve
CURVE_BETAS_LT1 = (0.1, 0.3, 0.5, 0.7, 0.9)
CURVE_BETAS_GE1 = (1.5, 2.0)
CLOSED_FORM_TOL = 1e-12
CURVE_TOL = 1e-9
ALPHA_SAMPLE = 6

# dual-certify: acceptance criteria 3 and 4
DUAL_ALPHAS = (0.5, 1.5, 2.0)
DUAL_BETAS = (0.5, 1.0, 2.0)
DUAL_EXP_BETAS = (0.3, 0.5, 0.8)
VARIATIONAL_TOL = 1e-4
EXPONENT_TOL = 1e-3

# protocol-check
MARGIN_TOL = 1e-10
PA_BETA = 0.5
PA_ALPHAS = (0.5, 0.75, 0.95)
MC_SAMPLES = 20000
MC_SIGMAS = 3.0
DIVERGENCE_TOL = 1e-9


def load_library(src: str):
    """Import renyinfo from ``src`` and nowhere else."""
    global rx
    import sys

    sys.path.insert(0, src)
    import renyinfo
    import renyinfo.cli
    import renyinfo.sampling

    where = os.path.dirname(os.path.abspath(renyinfo.__file__))
    if os.path.dirname(where) != os.path.abspath(src):
        raise ImportError(f"renyinfo was imported from {where}, not from {src}")
    rx = renyinfo
    return renyinfo


@dataclass
class Op:
    """One timed operation and the check of its output."""

    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], tuple[bool, dict]]


def _rng(seed: int):
    import numpy as np

    return np.random.default_rng(np.random.SeedSequence(seed))


def _rows(joint) -> list[list[float]]:
    return [[float(v) for v in row] for row in joint.probs]


def _close(got: float, want: float, tol: float) -> bool:
    if math.isinf(want) or math.isinf(got):
        return got == want
    return abs(got - want) <= tol


# ---------------------------------------------------------------------------
# measure-table


def _cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = rx.cli.main(argv)
    return code, out.getvalue()


def _csv_rows(text: str) -> list[list[str]]:
    lines = text.splitlines()
    return [line.split(",") for line in lines[2:]]


def _collapse_variant(a: float, b: float) -> str | None:
    """The classical variant a two-parameter row collapses onto, if any."""
    if a == 0.0 and b == 0.0:
        return None  # the path-dependent corner is a convention, not an identity
    if b == a:
        return ""
    return {0.0: "bar", 1.0: "star", math.inf: "barstar"}.get(b)


def _check_table(joint, text: str, code: int, with_variants: bool) -> tuple[bool, dict]:
    if code != 0:
        return False, {"why": f"exit {code}"}
    p = _rows(joint)

    @functools.cache
    def library_variant(name: str, a: float) -> float:
        fn = rx.measures.cond_entropy_variant if name[0] == "h" else rx.measures.mutual_info_variant
        return fn(name, joint, a).value

    grid = [float(t) for t in ORDER_GRID.split(",")]
    want_rows = 2 * len(grid) ** 2 + (8 * len(grid) if with_variants else 0)
    rows = _csv_rows(text)
    if len(rows) != want_rows:
        return False, {"why": f"{len(rows)} rows, expected {want_rows}"}
    worst = 0.0
    for q, a_s, b_s, v_s, branch in rows:
        a = float(a_s)
        if q in ("htilde", "itilde"):
            b = float(b_s)
            if a == 1.0 and b == math.inf:
                if branch != "undefined" or v_s != "":
                    return False, {"why": "(1, inf) must be undefined"}
                continue
            want = (oracle.h_tilde if q == "htilde" else oracle.i_tilde)(p, a, b)
            got = float(v_s)
            if not _close(got, want, MEASURE_TOL):
                return False, {"why": f"{q}({a},{b}) = {got!r}, naive {want!r}"}
            worst = max(worst, abs(got - want))
            suffix = _collapse_variant(a, b)
            if suffix is not None:
                name = q[0] + suffix
                if not _close(got, library_variant(name, a), MEASURE_TOL):
                    return False, {"why": f"{q}({a},{b}) != {name}({a})"}
        else:
            want = oracle.variant(q, p, a)
            got = float(v_s)
            if not _close(got, want, MEASURE_TOL):
                return False, {"why": f"{q}({a}) = {got!r}, naive {want!r}"}
            worst = max(worst, abs(got - want))
    return True, {"worst": worst}


def _check_verify(code: int, text: str) -> tuple[bool, dict]:
    report = json.loads(text[text.index("{"):])
    ok = code == 0 and report["all_passed"]
    return ok, {} if ok else {"why": "verify reported a failure"}


def measure_table(seed: int, scratch: str) -> list[Op]:
    """sweep / measure on the 9x9 extended order grid, and verify.

    Per-point overhead path: each joint is evaluated at about 160 order
    pairs per call, through argparse, JSON loading and the CLI pool.
    """
    rng = _rng(seed)
    s = rx.sampling
    joints = [
        s.random_joint(rng, 2, 2),
        s.random_joint(rng, 3, 3),
        s.random_joint_with_zeros(rng, 4, 4),
        s.random_joint(rng, 5, 5),
        s.random_joint(rng, 16, 16),
    ]
    paths = []
    for k, j in enumerate(joints):
        path = os.path.join(scratch, f"joint{k}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(rx.to_json(j))
        paths.append(path)

    def table_op(cmd: str, k: int) -> Op:
        argv = [cmd, "--input", paths[k], "--alpha", ORDER_GRID, "--beta", ORDER_GRID]
        joint = joints[k]
        return Op(
            f"{cmd}-{joint.shape[0]}x{joint.shape[1]}",
            lambda: _cli(argv),
            lambda res: _check_table(joint, res[1], res[0], with_variants=cmd == "measure"),
        )

    def verify_op(k: int) -> Op:
        # verify draws its own joints of random size; a fixed seed per
        # property keeps that work the same for every workload seed
        prop = TWO_PARAM_PROPS[k]
        argv = ["verify", "--props", prop, "--samples", str(VERIFY_SAMPLES), "--seed", str(k)]
        return Op(f"verify-{prop}", lambda: _cli(argv), lambda res: _check_verify(*res))

    ops: list[Op] = []
    for k in range(len(joints)):
        ops.append(table_op("sweep", k))
        ops.append(table_op("measure", k))
    # every property once per cycle, after four table operations: the ten
    # slowest operations of a run then fall across two kinds, so the tail
    # percentile does not sit on the edge of the slowest property's samples
    schedule = []
    for i in range(len(TWO_PARAM_PROPS)):
        schedule += [ops[(4 * i + j) % len(ops)] for j in range(4)]
        schedule.append(verify_op(i))
    return schedule


# ---------------------------------------------------------------------------
# exponent-curve


def _check_curve(joint, problem: str, beta: float, rate: float, res) -> tuple[bool, dict]:
    p = _rows(joint)
    if beta >= 1.0:
        if problem == "pa":
            want = max(rate - oracle.variant("h", p, beta), 0.0)
        else:
            want = max(oracle.variant("i", p, beta) - rate, 0.0)
        ok = abs(res.value - want) <= CLOSED_FORM_TOL and res.arg_alpha is None
        return ok, {} if ok else {"why": f"closed form {res.value!r} vs {want!r}"}
    if not res.value >= 0.0:
        return False, {"why": f"negative exponent {res.value!r}"}
    if not (beta <= res.arg_alpha <= 1.0):
        return False, {"why": f"arg_alpha {res.arg_alpha!r} outside [{beta}, 1]"}
    coeff = lambda a: beta * (1.0 - a) / (a * (1.0 - beta))  # noqa: E731
    for k in range(ALPHA_SAMPLE):
        a = beta + k * (1.0 - beta) / ALPHA_SAMPLE
        if problem == "pa":
            point = coeff(a) * (rate - oracle.h_tilde(p, a, beta))
        else:
            point = coeff(a) * (oracle.i_tilde(p, a, beta) - rate)
        if point > res.value + CURVE_TOL:
            return False, {"why": f"alpha {a}: {point!r} exceeds the maximum {res.value!r}"}
    return True, {}


def exponent_curve(seed: int, scratch: str) -> list[Op]:
    """Primal pa_exponent / sc_exponent over a beta grid and seeded rates.

    Exercises the alpha grid, golden-section refinement and the vectorized
    curves; never reaches simplex_opt.
    """
    rng = _rng(seed)
    s = rx.sampling
    joints = [s.random_joint(rng, n, n) for n in (2, 3, 4, 5, 16)]
    ops = []
    for joint in joints:
        top = math.log2(joint.shape[0])
        rates = (0.0, float(rng.uniform(0.0, top)), top)
        for beta in CURVE_BETAS_LT1 + CURVE_BETAS_GE1:
            for problem in ("pa", "sc"):
                for rate in rates:
                    ops.append(_curve_op(joint, problem, beta, rate))
    # interleave sizes so that every stretch of the schedule mixes them
    return ops[0::5] + ops[1::5] + ops[2::5] + ops[3::5] + ops[4::5]


def _curve_op(joint, problem: str, beta: float, rate: float) -> Op:
    def run():
        fn = rx.exponents.pa_exponent if problem == "pa" else rx.exponents.sc_exponent
        return fn(joint, beta, rate)

    return Op(
        f"{problem}_exponent-{joint.shape[0]}x{joint.shape[1]}-b{beta}",
        run,
        lambda res: _check_curve(joint, problem, beta, rate, res),
    )


# ---------------------------------------------------------------------------
# dual-certify


def _solver():
    return rx.simplex_opt.SolverConfig(max_iters=2500, refine_starts=3)


def _variational_op(joint, which: str, a: float, b: float) -> Op:
    cfg = _solver()

    def run():
        fn = rx.simplex_opt.variational_h if which == "h" else rx.simplex_opt.variational_i
        return fn(joint, a, b, cfg)

    def check(rep):
        p = _rows(joint)
        if which == "h":
            target = (a - 1.0) * oracle.h_tilde(p, a, b)
        else:
            target = (1.0 - a) * oracle.i_tilde(p, a, b)
        err = abs(rep.minimum - target)
        ok = err <= max(VARIATIONAL_TOL, rep.gap)
        info = {"err": err, "gap_covers": err <= rep.gap}
        if not ok:
            info["why"] = f"|{rep.minimum!r} - {target!r}| > max(1e-4, gap {rep.gap!r})"
        return ok, info

    return Op(f"variational_{which}-{joint.shape[0]}x{joint.shape[1]}", run, check)


def _dual_exponent_op(joint, problem: str, beta: float, rate: float) -> Op:
    cfg = _solver()

    def run():
        if problem == "pa":
            return rx.exponents.pa_dual_exponent(joint, beta, rate, cfg)
        return rx.exponents.sc_dual_exponent(joint, beta, rate, cfg)

    @functools.cache
    def primal() -> float:
        fn = rx.exponents.pa_exponent if problem == "pa" else rx.exponents.sc_exponent
        return fn(joint, beta, rate).value

    def check(res):
        if problem == "pa":
            pieces = [g for g in res if math.isfinite(g.minimum)]
            dual = min(g.minimum for g in res)
            gap = max(g.gap for g in pieces)
        else:
            dual, gap = res.minimum, res.gap
        err = abs(primal() - dual)
        ok = err <= max(EXPONENT_TOL, gap)
        info = {"err": err, "gap_covers": err <= gap}
        if not ok:
            info["why"] = f"|primal {primal()!r} - dual {dual!r}| > max(1e-3, gap {gap!r})"
        return ok, info

    return Op(f"{problem}_dual_exponent-{joint.shape[0]}x{joint.shape[1]}-b{beta}", run, check)


def dual_certify(seed: int, scratch: str) -> list[Op]:
    """variational_h / variational_i / pa_dual_exponent / sc_dual_exponent.

    The orders, rates and sizes of acceptance criteria 3 and 4 with the
    acceptance solver settings; mirror descent dominates.
    """
    rng = _rng(seed)
    s = rx.sampling
    shapes = ((2, 2), (2, 3), (3, 2), (3, 3))
    pairs = len(DUAL_ALPHAS) * len(DUAL_BETAS) + 5 * len(DUAL_EXP_BETAS)
    # one joint per pair of solves, so no single draw weighs on the whole run
    joints = [s.random_joint(rng, *shapes[k % len(shapes)]) for k in range(pairs)]
    pick = iter(joints)
    ops = []
    for a in DUAL_ALPHAS:
        for b in DUAL_BETAS:
            joint = next(pick)
            for which in ("h", "i"):
                ops.append(_variational_op(joint, which, a, b))
    for beta in DUAL_EXP_BETAS:
        for slot in range(5):
            joint = next(pick)
            h = oracle.shannon_cond_entropy(_rows(joint))
            rate = (0.0, 0.25, max(h - 0.3, 0.0), h + 0.3, math.log2(joint.shape[0]))[slot]
            for problem in ("pa", "sc"):
                ops.append(_dual_exponent_op(joint, problem, beta, rate))
    # a fixed shuffle spreads the slow solves evenly over the cycle
    order = _rng(0).permutation(len(ops))
    first = next(i for i, op in enumerate(ops) if op.kind.startswith("variational_h"))
    order = [first] + [int(i) for i in order if i != first]
    return [ops[i] for i in order]


# ---------------------------------------------------------------------------
# protocol-check


def _pa_exhaustive_op(j1, n: int, m: int) -> Op:
    def run():
        jn = rx.dist.iid_power(j1, n)
        value, spec = rx.protocol.pa_min_divergence_exhaustive(jn, m, PA_BETA)
        return value, spec.table

    def check(res):
        value, table = res
        pn = oracle.power(_rows(j1), n)
        naive_min = oracle.min_hash_divergence(pn, m, PA_BETA)
        if abs(value - naive_min) > DIVERGENCE_TOL:
            return False, {"why": f"minimum {value!r}, naive {naive_min!r}"}
        if abs(oracle.hash_divergence(pn, table, m, PA_BETA) - value) > DIVERGENCE_TOL:
            return False, {"why": "reported table does not attain the minimum"}
        for a in PA_ALPHAS:
            scale = a * (1.0 - PA_BETA) / (PA_BETA * (1.0 - a))
            margin = scale * value - (math.log2(m) - oracle.h_tilde(pn, a, PA_BETA))
            if margin < -MARGIN_TOL:
                return False, {"why": f"converse margin {margin!r} at alpha {a}"}
        return True, {}

    return Op(f"pa_exhaustive-n{n}-{j1.shape[0]}x{j1.shape[1]}", run, check)


def _pa_loop_op(j1, n: int) -> Op:
    """Acceptance criterion 6: every hash, its divergence, the hashed H~."""
    m = 2

    def run():
        import itertools

        jn = rx.dist.iid_power(j1, n)
        out = []
        for table in itertools.product(range(m), repeat=len(jn.alphabet_x)):
            spec = rx.protocol.HashSpec(table, m)
            induced = rx.protocol.pa_apply_hash(jn, spec)
            div = rx.protocol.pa_divergence(jn, spec, PA_BETA)
            hashed = [rx.two_param.h_tilde(induced, (a, PA_BETA)).value for a in PA_ALPHAS]
            out.append((table, div, hashed))
        return out

    def check(res):
        pn = oracle.power(_rows(j1), n)
        source = [oracle.h_tilde(pn, a, PA_BETA) for a in PA_ALPHAS]
        if len(res) != m ** len(pn):
            return False, {"why": "not every hash was evaluated"}
        for table, div, hashed in res:
            if abs(div - oracle.hash_divergence(pn, table, m, PA_BETA)) > DIVERGENCE_TOL:
                return False, {"why": f"divergence of {table} differs from naive"}
            for a, h_hashed, h_source in zip(PA_ALPHAS, hashed, source):
                scale = a * (1.0 - PA_BETA) / (PA_BETA * (1.0 - a))
                for h in (h_hashed, h_source):
                    margin = scale * div - (math.log2(m) - h)
                    if margin < -MARGIN_TOL:
                        return False, {"why": f"margin {margin!r} for {table} at alpha {a}"}
        return True, {}

    return Op(f"pa_hash_loop-n{n}-{j1.shape[0]}x{j1.shape[1]}", run, check)


def _sc_exact_op(px, pyx, n: int, m: int, beta: float) -> Op:
    def run():
        return rx.protocol.sc_expected_divergence_exact(px, pyx, n, m, beta)

    def check(rec):
        chk = rx.protocol.check_one_shot_sc_bound(px, pyx, n, m, beta, rec)
        ok = chk.margin >= -MARGIN_TOL
        return ok, {} if ok else {"why": f"converse margin {chk.margin!r}"}

    return Op(f"sc_exact-n{n}-m{m}", run, check)


def _sc_mc_op(px, pyx, m: int, beta: float, mc_seed: int) -> Op:
    def run():
        return rx.protocol.sc_expected_divergence_mc(
            px, pyx, 1, m, beta, n_samples=MC_SAMPLES, seed=mc_seed)

    @functools.cache
    def exact() -> float:
        return rx.protocol.sc_expected_divergence_exact(px, pyx, 1, m, beta).value_bits

    def check(rec):
        err = abs(rec.value_bits - exact())
        ok = err <= MC_SIGMAS * rec.stderr
        return ok, {} if ok else {"why": f"MC off by {err!r} > 3 x {rec.stderr!r}"}

    return Op(f"sc_mc-m{m}", run, check)


def protocol_check(seed: int, scratch: str) -> list[Op]:
    """Exhaustive PA, the criterion-6 hash loop, SC enumeration and SC MC.

    Many fresh small joints, each evaluated a few times; the only workload
    that times protocol.
    """
    rng = _rng(seed)
    s = rx.sampling
    # tasks of 1.5 to 25 ms: about 2000 per 20 s run, so the tail percentile
    # falls inside the heaviest task rather than on rare stalls
    ops = [
        _pa_exhaustive_op(s.random_joint(rng, 2, 2), 3, 3),
        _pa_exhaustive_op(s.random_joint(rng, 2, 3), 3, 3),
        _pa_loop_op(s.random_joint(rng, 3, 3), 1),
        _pa_loop_op(s.random_joint(rng, 4, 2), 1),
        _pa_loop_op(s.random_joint(rng, 2, 2), 2),
    ]
    for n, m, beta in ((3, 4, 0.5), (2, 6, 0.5), (4, 3, 2.0), (2, 5, 0.7)):
        ops.append(_sc_exact_op(s.random_pmf(rng, 2), s.random_channel(rng, 2, 2), n, m, beta))
    for m, beta in ((2, 0.5), (3, 1.5)):
        px, pyx = s.random_pmf(rng, 2), s.random_channel(rng, 2, 2)
        ops.append(_sc_mc_op(px, pyx, m, beta, int(rng.integers(2**31))))
    return ops


WORKLOADS: dict[str, Callable[[int, str], list[Op]]] = {
    "measure-table": measure_table,
    "exponent-curve": exponent_curve,
    "dual-certify": dual_certify,
    "protocol-check": protocol_check,
}
