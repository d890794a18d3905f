"""Span tracer for the traced run.

Every public function of a layer module is replaced by a wrapper at every
name it is reachable under: the defining module, each ``renyinfo`` module
that imported it (``renyinfo.cli.h_tilde``,
``renyinfo.exponents.mirror_descent``, ...), the package namespace, and the
property registry. A wrapper records one span per call: name, wall start
and end, parent span, operation id, the calling thread's CPU time, and a
work count for the functions listed in ``WORK``. Spans stay in memory and
are written out when the run ends.

Self time is a span's thread CPU time minus that of its children in the
same thread. CPU time rather than wall time keeps the CLI thread pool
honest: a worker waiting for the interpreter lock is not charged for it.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import json
import sys
import threading
import time

LAYERS = ("cli", "properties", "two_param", "measures", "dist", "exponents",
          "simplex_opt", "protocol")

CURVES = ("two_param.h_tilde_curve", "two_param.i_tilde_curve")
PRIMAL = ("exponents.pa_exponent", "exponents.sc_exponent")


def _len_arg(i, key):
    def count(args, kwargs, result):
        seq = args[i] if len(args) > i else kwargs[key]
        return len(seq)
    return count


def _exhaustive_tables(args, kwargs, result):
    joint_n, m = args[0], args[1]
    return m ** len(joint_n.alphabet_x)


def _codebooks_exact(args, kwargs, result):
    px, m = args[0], args[3]
    return len(px.support) ** m


# work counted per call, by qualified name
WORK = {
    "two_param.h_tilde_curve": _len_arg(1, "alphas"),
    "two_param.i_tilde_curve": _len_arg(1, "alphas"),
    "simplex_opt.evaluate_grid": lambda a, k, r: len(r[0]),
    "simplex_opt.mirror_descent": lambda a, k, r: r[4],
    "protocol.pa_apply_hash": lambda a, k, r: 1,
    "protocol.pa_min_divergence_exhaustive": _exhaustive_tables,
    "protocol.sc_expected_divergence_exact": _codebooks_exact,
    "protocol.sc_expected_divergence_mc": lambda a, k, r: k.get("n_samples", 1000),
}


class Tracer:
    """Wraps the layer functions of a loaded ``renyinfo`` and keeps spans."""

    def __init__(self, package):
        self.package = package
        self.names: list[str] = []
        # span: [name id, wall start ns, wall end ns, parent, op, cpu ns,
        #        work, max_iters hit, thread ident]
        self.spans: list[list] = []
        self.op = -1
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main = threading.main_thread()
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, qualname: str, fn):
        nid = len(self.names)
        self.names.append(qualname)
        spans = self.spans
        main_stack = self._main_stack
        wall, cpu = time.perf_counter_ns, time.thread_time_ns
        work = WORK.get(qualname)
        is_descent = qualname == "simplex_opt.mirror_descent"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:  # a pool worker: its parent is what the main thread waits in
                parent = main_stack[-1] if main_stack else -1
            rec = [nid, wall(), 0, parent, self.op, cpu(), 0, 0, threading.get_ident()]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[5] = cpu() - rec[5]
                rec[2] = wall()
                stack.pop()
            if work is not None:
                rec[6] = work(args, kwargs, result)
            if is_descent:
                rec[7] = int(result[4] >= args[3].max_iters)
            return result

        return wrapper

    def install(self):
        """Replace every layer function at every name it is bound to."""
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"{self.package.__name__}.{layer}"]
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    wrappers[obj] = self._wrap(f"{layer}.{name}", obj)
        prefix = self.package.__name__
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == prefix or modname.startswith(prefix + ".")):
                continue
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((mod, name, obj))
                    setattr(mod, name, wrappers[obj])
        registry = sys.modules[f"{prefix}.properties"].REGISTRY
        for key, prop in list(registry.items()):
            if prop.fn in wrappers:
                self._patches.append((registry, key, prop))
                registry[key] = dataclasses.replace(prop, fn=wrappers[prop.fn])

    def uninstall(self):
        for target, name, obj in reversed(self._patches):
            if isinstance(target, dict):
                target[name] = obj
            else:
                setattr(target, name, obj)
        self._patches.clear()

    # -- analysis ---------------------------------------------------------

    def calibrate(self, calls: int = 20000) -> float:
        """Thread CPU ns one wrapped call adds to its caller (median of 5)."""
        def noop():
            return None

        wrapped = self._wrap("trace.calibration", noop)
        cpu = time.thread_time_ns
        costs = []
        for _ in range(5):
            t0 = cpu()
            for _ in range(calls):
                wrapped()
            t1 = cpu()
            for _ in range(calls):
                noop()
            t2 = cpu()
            costs.append(((t1 - t0) - (t2 - t1)) / calls)
        self.names.pop()
        self.spans.clear()
        return sorted(costs)[2]

    def layer_metrics(self, ops: int, check_infos: list[dict], span_ns: float) -> dict[str, float]:
        """Per-layer metrics over the ``ops`` traced operations.

        Times are thread CPU time with the wrappers' own cost, ``span_ns``
        per span (see :meth:`calibrate`), taken off the spans it lands in.
        """
        names, spans = self.names, self.spans
        layer_of = [n.split(".")[0] for n in names]
        ids = {n: i for i, n in enumerate(names)}
        n = len(spans)
        child_cpu = [0] * n
        children = [0] * n  # direct children in the same thread
        nested = [0] * n  # all descendants in the same thread
        for i in range(n - 1, -1, -1):  # children come after their parents
            rec = spans[i]
            parent = rec[3]
            if parent >= 0 and spans[parent][8] == rec[8]:
                child_cpu[parent] += rec[5]
                children[parent] += 1
                nested[parent] += nested[i] + 1

        calls = dict.fromkeys(LAYERS, 0)
        self_ns = dict.fromkeys(LAYERS, 0.0)
        points = 0
        kernel_ns = 0.0
        curve_alphas = golden_evals = 0
        searched = set()
        primal = {ids.get(q) for q in PRIMAL}
        curves = {ids.get(q) for q in CURVES}
        golden = ids.get("exponents.golden_section_max")
        for i, rec in enumerate(spans):
            layer = layer_of[rec[0]]
            calls[layer] += 1
            self_ns[layer] += max(rec[5] - child_cpu[i] - span_ns * children[i], 0.0)
            if layer == "two_param" and (rec[3] < 0 or layer_of[spans[rec[3]][0]] != "two_param"):
                # the outermost kernel span: one point, or one per curve alpha
                points += rec[6] if rec[0] in curves else 1
                kernel_ns += rec[5] - span_ns * nested[i]
            if rec[0] in curves:
                top = rec[3]
                while top >= 0 and spans[top][0] not in primal:
                    top = spans[top][3]
                if top >= 0:
                    searched.add(top)
                    curve_alphas += rec[6]
                    golden_evals += spans[rec[3]][0] == golden

        def total(qualname: str, field: int) -> float:
            nid = ids.get(qualname)
            return sum(rec[field] for rec in spans if rec[0] == nid)

        def count(qualname: str) -> int:
            nid = ids.get(qualname)
            return sum(1 for rec in spans if rec[0] == nid)

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        grids = count("simplex_opt.evaluate_grid")
        descents = count("simplex_opt.mirror_descent")
        solves = [info["gap_covers"] for info in check_infos if "gap_covers" in info]
        tables = (total("protocol.pa_apply_hash", 6)
                  + total("protocol.pa_min_divergence_exhaustive", 6))
        codebooks = (total("protocol.sc_expected_divergence_exact", 6)
                     + total("protocol.sc_expected_divergence_mc", 6))
        per_op = 1.0 / max(ops, 1)
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = calls[layer] * per_op
            out[f"{layer}.self_s"] = self_ns[layer] * 1e-9 * per_op
        out["two_param.points"] = points * per_op
        out["two_param.us_per_point"] = ratio(kernel_ns * 1e-3, points)
        out["exponents.curve_alphas"] = ratio(curve_alphas, len(searched))
        out["exponents.golden_evals"] = ratio(golden_evals, len(searched))
        out["simplex_opt.grid_s"] = total("simplex_opt.evaluate_grid", 5) * 1e-9 * per_op
        out["simplex_opt.descent_s"] = total("simplex_opt.mirror_descent", 5) * 1e-9 * per_op
        out["simplex_opt.grid_points"] = ratio(total("simplex_opt.evaluate_grid", 6), grids)
        out["simplex_opt.iterations"] = ratio(total("simplex_opt.mirror_descent", 6), descents)
        out["simplex_opt.max_iters_hits"] = float(total("simplex_opt.mirror_descent", 7))
        out["simplex_opt.gap_covers_err_frac"] = ratio(sum(solves), len(solves))
        out["protocol.tables"] = tables * per_op
        out["protocol.codebooks"] = codebooks * per_op
        return out

    def dump(self, path: str, meta: dict):
        """Write names and spans as compact JSON."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "meta": meta,
                "names": self.names,
                "fields": ["name", "start_ns", "end_ns", "parent", "op", "cpu_ns", "work",
                           "max_iters_hit", "thread"],
                "spans": self.spans,
            }, fh, separators=(",", ":"))
