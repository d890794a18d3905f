"""Command-line surface.

Subcommands: measure, exponent {pa|sc}, variational {h|i}, simulate
{pa|sc}, verify, and sweep, an alias of measure for htilde/itilde on a
joint that writes cmd=sweep in its comment line. Sweep-style outputs are
RFC-4180 CSV with a leading comment line recording tool version, command,
seed and units; single reports are JSON. Values are in bits unless
--nats rescales them (by ln 2, at the output boundary only).

Exit codes: 0 success, 2 config/parse errors, 3 enumeration/dimension cap
violations, 4 verification failures present.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import math
import sys
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .dist import JointPmf, Pmf, condition_on_x, from_json, iid_power
from .errors import (
    DimensionCap,
    EnumerationCap,
    RenyinfoError,
    SizeOverflow,
)
from .exponents import (
    ExponentConfig,
    pa_dual_exponent,
    pa_exponent,
    sc_dual_exponent,
    sc_exponent,
)
from .measures import (
    BRANCH_CORNER,
    BRANCH_UNDEFINED,
    H_VARIANTS,
    I_VARIANTS,
    SLICE_BETAS,
    cond_entropy_variant,
    mutual_info_variant,
    order_branch,
    renyi_divergence,
    renyi_entropy,
)
from .orders import ExtOrder
from .properties import run_properties
from .protocol import (
    SIM_CSV_HEADER,
    SimRecord,
    m_from_rate,
    pa_min_divergence_exhaustive,
    pa_universal_family_divergence,
    sc_expected_divergence_exact,
    sc_expected_divergence_mc,
)
from .simplex_opt import (
    SolverConfig,
    variational_h,
    variational_h_target,
    variational_i,
    variational_i_target,
)
from .two_param import h_tilde_grid, i_tilde_grid

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CAP = 3
EXIT_VERIFY = 4

LN2 = math.log(2.0)

SWEEP_QUANTITIES = ("htilde", "itilde")
JOINT_QUANTITIES = tuple(H_VARIANTS) + tuple(I_VARIANTS) + SWEEP_QUANTITIES


class CliError(RuntimeError):
    def __init__(self, message: str, code: int = EXIT_CONFIG):
        super().__init__(message)
        self.code = code


def _comment(args, command: str) -> str:
    """The leading comment line of a CSV output."""
    units = "nats" if args.nats else "bits"
    return f"# renyinfo {__version__} cmd={command} seed={args.seed} units={units}"


def _parse_orders(text: str, what: str) -> list[ExtOrder]:
    if not text.strip():
        raise CliError(f"{what} grid is empty")
    try:
        return [ExtOrder.of(tok, allow_one=(what == "beta")) for tok in text.split(",")]
    except ValueError as e:
        raise CliError(f"bad {what} value: {e}")


def _parse_floats(text: str, what: str) -> list[float]:
    if not text.strip():
        raise CliError(f"{what} grid is empty")
    try:
        return [float(tok) for tok in text.split(",")]
    except ValueError:
        raise CliError(f"bad {what} list: {text!r}")


def _load_distribution(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return from_json(fh.read())
    except FileNotFoundError:
        raise CliError(f"input file not found: {path}")
    except json.JSONDecodeError as e:
        raise CliError(f"{path}: invalid JSON at line {e.lineno} column {e.colno}: {e.msg}")
    except RenyinfoError as e:
        raise CliError(f"{path}: {e}")


def _load_joint(path: str) -> JointPmf:
    obj = _load_distribution(path)
    if not isinstance(obj, JointPmf):
        raise CliError(f"{path}: expected a joint distribution")
    return obj


def _scale(value: float, nats: bool) -> float:
    return value * LN2 if nats else value


def _write_csv(out: Optional[str], comment: str, header: list[str], rows: list[list]):
    buf = io.StringIO()
    buf.write(comment + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    text = buf.getvalue()
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands


def _joint_rows(joint: JointPmf, quantities: list[str], alphas: list[ExtOrder],
                betas: list[ExtOrder], strict_corner: bool, nats: bool) -> list[list]:
    """The measure / sweep rows of a joint: one grid call per htilde/itilde
    quantity, and one at beta in {0, 1, inf} per family for the bar/star
    variants (their kernel slices). "h"/"i" and alpha = 1 take the variant
    functions' own routes."""
    rows: list[list] = []
    slices: dict[bool, list] = {}
    alpha_labels, beta_labels = [str(a) for a in alphas], [str(b) for b in betas]
    for q in quantities:
        if q in SWEEP_QUANTITIES:
            # strict mode prints the (0, 0) corner as undefined, like (1, inf)
            grid = (h_tilde_grid if q == "htilde" else i_tilde_grid)(joint, alphas, betas)
            for a_label, values, branches in zip(alpha_labels, grid.values.tolist(), grid.branches):
                for b_label, value, branch in zip(beta_labels, values, branches):
                    if branch == BRANCH_UNDEFINED or (strict_corner and branch == BRANCH_CORNER):
                        rows.append([q, a_label, b_label, "", BRANCH_UNDEFINED])
                    else:
                        rows.append([q, a_label, b_label, repr(_scale(value, nats)), branch])
            continue
        mutual = q in I_VARIANTS
        for i, (a, a_label) in enumerate(zip(alphas, alpha_labels)):
            if a.is_one or q in ("h", "i"):
                r = (mutual_info_variant if mutual else cond_entropy_variant)(q, joint, a)
                value, branch = r.value, r.branch
            else:
                if mutual not in slices:
                    fn = i_tilde_grid if mutual else h_tilde_grid
                    values = fn(joint, alphas, SLICE_BETAS.values()).values.tolist()
                    slices[mutual] = [dict(zip(SLICE_BETAS, row)) for row in values]
                value, branch = slices[mutual][i][q[1:]], order_branch(a)
            rows.append([q, a_label, "", repr(_scale(value, nats)), branch])
    return rows


def cmd_measure(args) -> int:
    """measure, and sweep: the same command restricted to htilde/itilde on
    a joint."""
    sweep = args.command == "sweep"
    obj = _load_joint(args.input) if sweep else _load_distribution(args.input)
    alphas = _parse_orders(args.alpha, "alpha")
    if args.beta or sweep:
        betas = _parse_orders(args.beta, "beta")
    else:
        betas = [ExtOrder.finite(1.0, allow_one=True)]
    nats = args.nats
    rows: list[list] = []
    if isinstance(obj, Pmf):
        quantities = args.quantity.split(",") if args.quantity else (
            ["h_alpha", "d"] if args.ref else ["h_alpha"]
        )
        ref = None
        if args.ref:
            ref_obj = _load_distribution(args.ref)
            if not isinstance(ref_obj, Pmf):
                raise CliError("--ref must be a marginal distribution")
            ref = ref_obj
        for q in quantities:
            for a in alphas:
                if q == "h_alpha":
                    r = renyi_entropy(obj, a)
                elif q == "d":
                    if ref is None:
                        raise CliError("quantity 'd' needs --ref")
                    r = renyi_divergence(obj, ref, a)
                else:
                    raise CliError(f"unknown marginal quantity {q!r}")
                rows.append([q, str(a), "", repr(_scale(r.value, nats)), r.branch])
    else:
        known = SWEEP_QUANTITIES if sweep else JOINT_QUANTITIES
        quantities = args.quantity.split(",") if args.quantity else list(known)
        bad = [q for q in quantities if q not in known]
        if bad:
            raise CliError(f"sweep supports htilde/itilde, got {bad}" if sweep
                           else f"unknown joint quantity {bad[0]!r}")
        rows = _joint_rows(obj, quantities, alphas, betas, args.strict_corner, nats)
    _write_csv(args.out, _comment(args, args.command),
               ["quantity", "alpha", "beta", "value", "branch"], rows)
    return EXIT_OK


def cmd_exponent(args) -> int:
    joint = _load_joint(args.input)
    betas = sorted(_parse_floats(args.beta, "beta"))
    rates = sorted(_parse_floats(args.rate, "rate"))
    if any(b <= 0 for b in betas):
        raise CliError("beta values must be positive")
    if any(r < 0 for r in rates):
        raise CliError("rates must be non-negative")
    try:
        cfg = ExponentConfig(grid_step=args.grid_step)
    except ValueError as e:
        raise CliError(str(e))
    solver = SolverConfig(max_iters=args.solver_iters)
    primal = pa_exponent if args.problem == "pa" else sc_exponent
    rows = []
    try:  # a NaN beta or a non-finite rate
        for b in betas:
            for r in rates:
                res = primal(joint, b, r, cfg)
                dual_val, gap = "", ""
                if args.dual and b < 1.0:
                    if args.problem == "pa":
                        g1, g2 = pa_dual_exponent(joint, b, r, solver)
                        pick = g1 if g1.minimum <= g2.minimum else g2
                        dual_val, gap = pick.minimum, pick.gap
                    else:
                        rep = sc_dual_exponent(joint, b, r, solver)
                        dual_val, gap = rep.minimum, rep.gap
                rows.append([b, r, repr(_scale(res.value, args.nats)),
                             "" if res.arg_alpha is None else repr(res.arg_alpha),
                             "" if dual_val == "" else repr(_scale(dual_val, args.nats)),
                             "" if gap == "" else repr(gap)])
    except ValueError as e:
        raise CliError(str(e))
    _write_csv(args.out, _comment(args, f"exponent-{args.problem}"),
               ["beta", "rate", "value", "arg_alpha", "dual_value", "gap"], rows)
    return EXIT_OK


def cmd_variational(args) -> int:
    joint = _load_joint(args.input)
    alphas = _parse_floats(args.alpha, "alpha")
    betas = _parse_floats(args.beta, "beta")
    if any(a <= 0 or not math.isfinite(a) for a in alphas + betas):
        raise CliError("variational orders must be finite positive")
    if args.which == "h":
        solve, target_of = variational_h, variational_h_target
    else:
        solve, target_of = variational_i, variational_i_target
    cfg = SolverConfig(max_iters=args.solver_iters)
    rows = []
    for a in alphas:
        for b in betas:
            rep = solve(joint, a, b, cfg)
            target = target_of(joint, a, b)
            rows.append([args.which, a, b, repr(_scale(target, args.nats)),
                         repr(_scale(rep.minimum, args.nats)), repr(rep.gap),
                         repr(abs(rep.minimum - target))])
    _write_csv(args.out, _comment(args, f"variational-{args.which}"),
               ["quantity", "alpha", "beta", "target", "minimum", "gap", "abs_err"], rows)
    return EXIT_OK


def _simulate_records(args) -> list:
    betas = _parse_floats(args.beta, "beta")
    joint = _load_joint(args.input)
    if args.problem == "pa":
        joint_n = iid_power(joint, args.n)
    else:
        px, pyx = condition_on_x(joint)
    m, note = m_from_rate(args.n, args.rate) if args.rate is not None else (args.m, "")
    records = []
    for b in betas:
        if args.mode == "exhaustive":
            val, _ = pa_min_divergence_exhaustive(joint_n, m, b)
            rec = SimRecord(args.n, m, b, val, "exact-enumeration")
        elif args.mode == "family":
            rec = pa_universal_family_divergence(
                joint_n, m, b, seed=args.seed, n_samples=args.samples, n=args.n
            )
        elif args.mode == "exact":
            rec = sc_expected_divergence_exact(px, pyx, args.n, m, b)
        else:
            rec = sc_expected_divergence_mc(px, pyx, args.n, m, b,
                                            n_samples=args.samples, seed=args.seed)
        if note:
            rec = dataclasses.replace(rec, note=(rec.note + "; " + note).strip("; "))
        records.append(rec)
    return records


def cmd_simulate(args) -> int:
    try:
        records = _simulate_records(args)
    except ValueError as e:  # n, M, beta or the sample count out of range
        raise CliError(str(e))
    rows = []
    for rec in records:
        row = rec.csv_row()
        if args.nats:
            row[4] = repr(float(row[4]) * LN2)
            if row[5] != "":
                row[5] = repr(float(row[5]) * LN2)
        rows.append(row)
    _write_csv(args.out, _comment(args, f"simulate-{args.problem}"), SIM_CSV_HEADER, rows)
    return EXIT_OK


def cmd_verify(args) -> int:
    names = args.props.split(",") if args.props else None
    try:
        results = run_properties(names, seed=args.seed, samples=args.samples)
    except KeyError as e:
        raise CliError(str(e))
    report = {
        "tool": f"renyinfo {__version__}",
        "seed": args.seed,
        "samples": args.samples,
        "results": [r.to_dict() for r in results],
        "all_passed": all(r.passed for r in results),
    }
    text = json.dumps(report, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    for r in results:
        line = (f"{'PASS' if r.passed else 'FAIL'} {r.name} "
                f"(checked {r.checked}, worst {r.worst:.3e}, {r.seconds:.3f} s)")
        print(line)
    if not args.out:
        print(text)
    return EXIT_OK if report["all_passed"] else EXIT_VERIFY


# ---------------------------------------------------------------------------
# wiring


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="renyinfo",
        description="Finite-alphabet workbench for two-parameter information measures "
                    "and strong-converse exponents",
    )
    p.add_argument("--version", action="version", version=f"renyinfo {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, seed_default=0):
        sp.add_argument("--out", help="output file (stdout when omitted)")
        sp.add_argument("--nats", action="store_true", help="emit values in nats")
        sp.add_argument("--seed", type=int, default=seed_default)

    sp = sub.add_parser("measure", help="evaluate information measures on a distribution")
    sp.add_argument("--input", required=True)
    sp.add_argument("--ref", help="reference marginal for divergences")
    sp.add_argument("--quantity", help="comma list (default: all applicable)")
    sp.add_argument("--alpha", default="1")
    sp.add_argument("--beta", default="1")
    sp.add_argument("--strict-corner", action="store_true")
    common(sp)
    sp.set_defaults(fn=cmd_measure)

    sp = sub.add_parser("exponent", help="strong-converse exponent curves")
    sp.add_argument("problem", choices=("pa", "sc"))
    sp.add_argument("--input", required=True)
    sp.add_argument("--beta", required=True)
    sp.add_argument("--rate", required=True)
    sp.add_argument("--grid-step", type=float, default=1e-3)
    sp.add_argument("--dual", action=argparse.BooleanOptionalAction, default=True)
    sp.add_argument("--solver-iters", type=int, default=3000)
    common(sp)
    sp.set_defaults(fn=cmd_exponent)

    sp = sub.add_parser("variational", help="certify the variational characterizations")
    sp.add_argument("which", choices=("h", "i"))
    sp.add_argument("--input", required=True)
    sp.add_argument("--alpha", required=True)
    sp.add_argument("--beta", required=True)
    sp.add_argument("--solver-iters", type=int, default=3000)
    common(sp)
    sp.set_defaults(fn=cmd_variational)

    sp = sub.add_parser("simulate", help="protocol simulations")
    sp.add_argument("problem", choices=("pa", "sc"))
    sp.add_argument("--input", required=True, help="single-letter joint JSON")
    sp.add_argument("--mode", default=None,
                    help="pa: exhaustive|family (default exhaustive); sc: exact|mc (default exact)")
    sp.add_argument("--n", type=int, default=1)
    sp.add_argument("--m", type=int, default=None, help="range / codebook size")
    sp.add_argument("--rate", type=float, default=None, help="bits per symbol; M = round(2^(nR))")
    sp.add_argument("--beta", required=True)
    sp.add_argument("--samples", type=int, default=1000)
    common(sp)
    sp.set_defaults(fn=cmd_simulate)

    sp = sub.add_parser("verify", help="run the property-verification suite")
    sp.add_argument("--props", help="comma list of property names (default: all)")
    sp.add_argument("--samples", type=int, default=None)
    sp.add_argument("--out", help="write the JSON report here")
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("sweep", help="measure restricted to htilde/itilde on a joint, "
                                      "with both order grids required")
    sp.add_argument("--input", required=True)
    sp.add_argument("--alpha", required=True)
    sp.add_argument("--beta", required=True)
    sp.add_argument("--quantity", help="htilde,itilde (default both)")
    sp.add_argument("--strict-corner", action="store_true")
    common(sp)
    sp.set_defaults(fn=cmd_measure)
    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process; each parse returns a fresh
    namespace."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "simulate":
        if args.mode is None:
            args.mode = "exhaustive" if args.problem == "pa" else "exact"
        valid = ("exhaustive", "family") if args.problem == "pa" else ("exact", "mc")
        if args.mode not in valid:
            print(f"error: mode must be one of {valid}", file=sys.stderr)
            return EXIT_CONFIG
        if (args.m is None) == (args.rate is None):
            print("error: give exactly one of --m / --rate", file=sys.stderr)
            return EXIT_CONFIG
    try:
        return args.fn(args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except (EnumerationCap, DimensionCap, SizeOverflow) as e:
        print(f"cap exceeded: {e}", file=sys.stderr)
        return EXIT_CAP
    except RenyinfoError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
