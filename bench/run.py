"""Layer benchmark for renyinfo.

    python3 bench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Runs one workload (or all four, each in its own process) as a closed loop
with one client for ``--seconds`` seconds, checks every output against an
independent route outside the timed region, and prints the metrics by
name with their units. The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics:

- ``setup_s``: import ``renyinfo``, build the seeded inputs and finish one
  warm-up operation; median over one in-process and six fresh-process
  set-ups.
- ``ops_per_s`` / ``op_p50_ms``: operations completed per second and their
  median latency, each the median over windows of one whole schedule cycle
  (the whole-run values are printed beside them).
- ``op_tail_ms``: the highest latency percentile of the whole run with at
  least ten samples beyond it (the percentile and sample count are
  printed).
- ``peak_rss_mb``: peak resident memory of this process.

``fail_frac`` (failed / attempted) is printed too, and travels as the
``failed`` and ``attempted`` fields of the JSON line.

``--trace 1`` spends the first half of the run untraced and the second
half with every layer function wrapped (see ``layertrace.py``), and reports the
per-layer metrics plus ``trace.overhead_frac``, the share of throughput
the wrappers cost. Spans are written to ``.bench_out/spans-<workload>.json``.

The library is imported from ``src/`` next to this directory and from
nowhere else; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()  # before numpy: the set-up time includes its import

import argparse  # noqa: E402
import array  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pickle  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

import workloads  # noqa: E402  (imports no numpy and no renyinfo)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

# BLAS threads would only add idle threads: these joints are tiny. Set
# before numpy loads, here and in the set-up probes that inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

DEFAULT_SEED = 1
SETUP_PROBES = 6
TAIL_BEYOND = 10


def _benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _declared(section: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    return {m["name"]: m["unit"] for m in _benchmark()[section]}


class NoLibrary(RuntimeError):
    pass


def _setup(name: str, seed: int, scratch: str):
    """Import, build inputs, run one warm-up operation; returns the ops."""
    if not os.path.isfile(os.path.join(SRC, "renyinfo", "__init__.py")):
        raise NoLibrary(f"no renyinfo sources under {SRC}")
    workloads.load_library(SRC)
    os.makedirs(scratch, exist_ok=True)
    ops = workloads.WORKLOADS[name](seed, scratch)
    ops[0].run()
    return ops


def _setup_probe(name: str, seed: int) -> float:
    """One set-up in a fresh interpreter; returns its seconds."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
           "--seed", str(seed), "--setup-probe"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
    return float(done.stdout.strip().splitlines()[-1])


def _environment() -> dict:
    import numpy as np

    # the ceiling keeps git from reporting a repository that encloses ROOT
    git_env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=git_env,
                             capture_output=True, text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    digest = hashlib.sha256()
    for base, _, files in sorted(os.walk(os.path.join(SRC, "renyinfo"))):
        for f in sorted(files):
            if f.endswith(".py"):
                with open(os.path.join(base, f), "rb") as fh:
                    digest.update(f.encode() + b"\0" + fh.read())
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest()[:16],
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "threads_env": {v: os.environ.get(v) for v in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "machine": platform.machine(),
    }


class Run:
    """What a timed loop leaves: per-operation slot, latency and output key.

    Outputs are kept once per distinct (slot, output) pair, so memory does
    not grow with throughput and a faster program does not read as a
    larger ``peak_rss_mb``.
    """

    def __init__(self):
        self.slots = array.array("l")
        self.latency = array.array("d")
        self.keys = array.array("l")
        self.outputs: dict[tuple[int, bytes], int] = {}
        self.distinct: list[tuple[int, object, str | None]] = []
        self.wall = 0.0

    def record(self, slot: int, seconds: float, out, err: str | None):
        digest = hashlib.sha1(pickle.dumps(out)).digest() if err is None else err.encode()
        key = self.outputs.setdefault((slot, digest), len(self.distinct))
        if key == len(self.distinct):
            self.distinct.append((slot, out, err))
        self.slots.append(slot)
        self.latency.append(seconds)
        self.keys.append(key)

    def __len__(self):
        return len(self.slots)


def _loop(ops, seconds: float, tracer=None) -> Run:
    """Closed loop over the schedule from slot 1 (slot 0 was the warm-up)."""
    run = Run()
    i = 1
    t_begin = time.perf_counter()
    deadline = t_begin + seconds
    now = t_begin
    while now < deadline:
        slot = i % len(ops)
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter()
        try:
            out, err = ops[slot].run(), None
        except Exception as e:  # a raising operation counts as failed
            out, err = None, f"{type(e).__name__}: {e}"
        now = time.perf_counter()
        run.record(slot, now - t0, out, err)
        i += 1
    run.wall = now - t_begin
    return run


def _check(ops, run: Run) -> tuple[int, list[dict], list[str]]:
    """Check each distinct output once; returns (failed, infos, reasons)."""
    verdicts = []
    for slot, out, err in run.distinct:
        if err is not None:
            verdicts.append((False, {"why": err}))
            continue
        try:
            verdicts.append(ops[slot].check(out))
        except Exception as e:  # a check that cannot run is a failure
            verdicts.append((False, {"why": f"check raised {type(e).__name__}: {e}"}))
    failed = sum(1 for key in run.keys if not verdicts[key][0])
    why = [f"{ops[slot].kind}: {info.get('why')}"
           for (slot, _, _), (ok, info) in zip(run.distinct, verdicts) if not ok]
    return failed, [verdicts[key][1] for key in run.keys], why[:5]


def _windowed(run: Run, cycle: int) -> tuple[float, float, int, int]:
    """Median over windows of (ops per second, p50 ms).

    Each window is one whole schedule cycle, so every window does the same
    work; the median drops the cycles a noisy neighbour slowed down.
    """
    k = max(1, len(run) // cycle)
    rates, p50s = [], []
    for w in range(k):
        lat = run.latency[w * cycle:(w + 1) * cycle]
        rates.append(len(lat) / sum(lat))
        p50s.append(statistics.median(lat) * 1e3)
    return statistics.median(rates), statistics.median(p50s), k, min(cycle, len(run))


def _overhead(run: Run, traced: Run) -> float:
    """Share of throughput the wrappers cost, at equal work: per-slot
    median latencies summed over the slots both loops ran."""
    def medians(r: Run) -> dict[int, float]:
        by_slot: dict[int, list[float]] = {}
        for slot, seconds in zip(r.slots, r.latency):
            by_slot.setdefault(slot, []).append(seconds)
        return {slot: statistics.median(v) for slot, v in by_slot.items()}

    plain, wrapped = medians(run), medians(traced)
    common = plain.keys() & wrapped.keys()
    return 1.0 - sum(plain[s] for s in common) / sum(wrapped[s] for s in common)


def _tail(lat_ms: list[float]) -> tuple[float, float]:
    """Highest percentile with at least TAIL_BEYOND samples beyond it."""
    xs = sorted(lat_ms)
    n = len(xs)
    k = max(n - TAIL_BEYOND - 1, 0)
    return xs[k], 100.0 * (k + 1) / n


def _emit(result: dict, units: dict, notes: dict):
    for name, value in result["metrics"].items():
        note = notes.get(name, "")
        print(f"  {name:34s} {value['value']:>14.6g} {units[name]:9s} {note}")
    print(json.dumps(result))


def run_workload(args) -> int:
    scratch = os.path.join(OUT, f"inputs-{os.getpid()}")
    try:
        t_setup = _T_START
        ops = _setup(args.workload, args.seed, scratch)
        setups = [time.perf_counter() - t_setup]
        if args.trace == 0:
            setups += [_setup_probe(args.workload, args.seed) for _ in range(SETUP_PROBES)]
        env = _environment()
        print(f"env {json.dumps(env, sort_keys=True)}")
        print(f"workload {args.workload} seed={args.seed} seconds={args.seconds} "
              f"trace={args.trace} schedule={len(ops)} ops, closed loop, 1 client")

        if args.trace == 0:
            run = _loop(ops, args.seconds)
            traced = Run()
        else:
            import layertrace

            run = _loop(ops, args.seconds / 2.0)
            tracer = layertrace.Tracer(workloads.rx)
            span_ns = tracer.calibrate()
            tracer.install()
            try:
                traced = _loop(ops, args.seconds / 2.0, tracer)
            finally:
                tracer.uninstall()
        failed, _, why = _check(ops, run)
        failed_traced, traced_infos, why_traced = _check(ops, traced)
        failed += failed_traced
        attempted = len(run) + len(traced)
        for line in (why + why_traced)[:5]:
            print(f"FAILED {line}")
        print(f"attempted={attempted} failed={failed} fail_frac={failed / attempted:.6g}")

        by_kind: dict[str, list[float]] = {}
        for slot, seconds in zip(run.slots, run.latency):
            by_kind.setdefault(ops[slot].kind, []).append(seconds * 1e3)
        for kind, lat in sorted(by_kind.items()):
            print(f"  op {kind:40s} n={len(lat):5d} p50={statistics.median(lat):10.4f} ms")

        if args.trace == 0:
            lat = [x * 1e3 for x in run.latency]
            tail, pct = _tail(lat)
            rate, p50, windows, per = _windowed(run, len(ops))
            metrics = {
                "setup_s": statistics.median(setups),
                "ops_per_s": rate,
                "op_p50_ms": p50,
                "op_tail_ms": tail,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = _declared("end_to_end")
            notes = {
                "setup_s": f"median of {len(setups)} set-ups",
                "ops_per_s": f"median of {windows} windows of {per} ops; whole run "
                             f"{len(run) / run.wall:.6g}",
                "op_p50_ms": f"median of {windows} windows of {per} ops; whole run "
                             f"{statistics.median(lat):.6g}",
                "op_tail_ms": f"p{pct:.2f} of {len(lat)} samples",
            }
        else:
            metrics = tracer.layer_metrics(len(traced), traced_infos, span_ns)
            metrics["trace.overhead_frac"] = _overhead(run, traced)
            units = _declared("per_layer")
            notes = {"trace.overhead_frac": f"{len(traced)} traced vs {len(run)} untraced ops; "
                                            f"{span_ns:.0f} ns per span taken off the times"}
            tracer.dump(os.path.join(OUT, f"spans-{args.workload}.json"),
                        {"env": env, "workload": args.workload, "seed": args.seed})
        if set(metrics) != set(units):
            mismatch = sorted(set(metrics) ^ set(units))
            raise RuntimeError(f"metrics {mismatch} do not match BENCHMARK.json")
        result = {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }
        _emit(result, units, notes)
        return 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def run_all(args) -> int:
    """Every workload in its own process; a summary JSON line at the end."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            return done.returncode
        part = json.loads(done.stdout.strip().splitlines()[-1])
        merged["correct"] &= part["correct"]
        merged["attempted"] += part["attempted"]
        merged["failed"] += part["failed"]
        for metric, value in part["metrics"].items():
            merged["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(merged))
    return 0


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all", choices=(*workloads.WORKLOADS, "all"))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=_benchmark()["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args()
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    try:
        if args.setup_probe:
            scratch = os.path.join(OUT, f"inputs-{os.getpid()}")
            try:
                _setup(args.workload, args.seed, scratch)
            finally:
                shutil.rmtree(scratch, ignore_errors=True)
            print(repr(time.perf_counter() - _T_START))
            return 0
        if args.workload == "all":
            return run_all(args)
        return run_workload(args)
    except NoLibrary as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
