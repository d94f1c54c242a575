#!/usr/bin/env python3
"""Benchmark runner for winfty: one closed-loop client, one process.

Run one workload (from the repository root):

    python3 bench/run.py --workload bracket-rational --seed 3 --seconds 15 --trace 0

With ``--trace 0`` it prints every end-to-end metric of BENCHMARK.json,
with times scaled to a reference machine speed (see REFERENCE_KERNEL_S);
with ``--trace 1`` it runs a fixed op list twice, untraced and traced, and
prints the per-layer metrics.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--out FILE`` appends the full result, provenance included, as one JSON
line.  Compare two such files, one row per workload and metric:

    python3 bench/run.py --compare base.jsonl new.jsonl

``--write-reference`` recomputes bench/reference.json, the stored outputs
that the correctness checks compare against.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference.json"
SPEC = ROOT / "BENCHMARK.json"
SPANS = BENCH / "out"
SETUP_REPEATS = 7
# Every op, set-up and kernel time is the CPU time of this, the only thread:
# the ops do no I/O and wait for nothing, so on an unshared core it equals
# wall time, and on a shared host it leaves out the time the CPU was given
# to other work, which otherwise sets the tail latency.
CLOCK = time.thread_time
# Machine speed.  On a shared host the interpreter's speed also drifts by up
# to a half over seconds, more than any bound, so setup_s, ops_per_s and
# op_p50_ms are scaled to a reference speed: a fixed kernel that does not use
# winfty is timed after each set-up repeat and every CALIBRATE_EVERY_S of op
# time, and each time is multiplied by REFERENCE_KERNEL_S over the mean of
# the kernel's timings just before and after it.
# op_tail_ms is not scaled: it is set by the largest ops in the host's slow
# phases, which every run has, so it is steady as measured, while scaling
# would add the kernel's own timing noise, and the tail would pick out the
# ops where that noise is largest.  Unscaled figures go into the provenance.
# The reference is chosen so that on the 2-core Xeon VM the bounds were set
# on, scaled figures read on average about as measured.
REFERENCE_KERNEL_S = 0.0026
CALIBRATE_EVERY_S = 0.2
# Estimated wall seconds of one round in trace mode (plain pass plus traced
# pass); fixes the traced op count from --seconds so call counts repeat.
TRACE_ROUND_SECONDS = {
    "bracket-rational": 2.0,
    "generation-boxes": 8.0,
    "formal-modules": 1.5,
    "eval-roundtrip": 0.5,
}


def _import_library() -> None:
    """Import winfty from this checkout's src/, never from anywhere else, and
    the workload module."""
    if not (SRC / "winfty" / "__init__.py").is_file():
        sys.exit(f"error: no winfty sources at {SRC}; run from a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import winfty
    if Path(winfty.__file__).resolve().parent != SRC / "winfty":
        sys.exit(f"error: imported winfty from {winfty.__file__}, not {SRC}")
    if str(BENCH) not in sys.path:
        sys.path.insert(0, str(BENCH))
    import workloads  # noqa: F401


def _speed_kernel() -> int:
    """Fixed exact arithmetic of the kind winfty does, without winfty: a
    product of two sparse bivariate polynomials with Fraction coefficients."""
    p = {(i, j): Fraction(i - 2 * j, j + 1) for i in range(6) for j in range(4)}
    q = {}
    for (a, b), c in p.items():
        for (d, e), f in p.items():
            k = (a + d, b + e)
            q[k] = q.get(k, 0) + c * f
    return len(q)


def _kernel_seconds() -> float:
    """The speed kernel's time now: the faster of two runs."""
    times = []
    for _ in range(2):
        t0 = CLOCK()
        _speed_kernel()
        times.append(CLOCK() - t0)
    return min(times)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _provenance(name: str, seed: int) -> dict:
    return {"workload": name, "seed": seed, "python": platform.python_version(),
            "nproc": os.cpu_count(), "cpu": _cpu_model()}


def _setup(name: str, reference: dict):
    """Import winfty and build the workload's fixtures, SETUP_REPEATS times.

    Returns the workload, its fixtures and the median time of a repeat, both
    scaled by the speed kernel timed around each repeat and unscaled.  In a
    fresh interpreter each repeat first drops the modules the one before
    imported, so that every repeat pays the whole import; when the caller has
    imported winfty already (the smoke test), its modules are kept and only
    the fixtures are timed.
    """
    fresh = "winfty" not in sys.modules
    times = []
    kernel = [_kernel_seconds()]
    for _ in range(SETUP_REPEATS):
        if fresh:
            for key in [k for k in sys.modules
                        if k.split(".")[0] in ("winfty", "workloads")]:
                del sys.modules[key]
            gc.collect()
        t0 = CLOCK()
        _import_library()
        import workloads
        wl = workloads.make_workload(name, reference)
        fx = wl.setup()
        times.append(CLOCK() - t0)
        kernel.append(_kernel_seconds())
    scaled = [t * 2 * REFERENCE_KERNEL_S / (kernel[i] + kernel[i + 1])
              for i, t in enumerate(times)]
    return wl, fx, statistics.median(scaled), statistics.median(times)


class Runner:
    """Executes ops, times the run part, checks the result untimed."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.latencies = []

    def execute(self, op, index: int = 0, digest: bool = False):
        """Run one op and count it failed unless its check holds.

        Returns the op's digest when asked and the check held, else None.
        """
        self.attempted += 1
        tracer = self.tracer
        t0 = CLOCK()
        try:
            result = op.run() if tracer is None else tracer.run_op(index, op.run)
        except Exception:
            self.failed += 1
            print(f"op {op.label} raised:\n{traceback.format_exc()}", file=sys.stderr)
            return None
        finally:
            self.latencies.append(CLOCK() - t0)
        if tracer is not None:
            tracer.active = False
        try:
            ok = op.check(result)
            text = op.digest(result) if digest else None
        except Exception:
            print(f"check of {op.label} raised:\n{traceback.format_exc()}",
                  file=sys.stderr)
            ok, text = False, None
        finally:
            if tracer is not None:
                tracer.active = True
        if not ok:
            self.failed += 1
            print(f"op {op.label} failed its check", file=sys.stderr)
            return None
        return text


def _check_digests(runner: Runner, ops, want, what: str) -> None:
    """Run ops untimed; an op whose output differs from the reference fails."""
    for i, op in enumerate(ops):
        expected = want[i] if i < len(want) else None
        got = runner.execute(op, digest=True)
        if got is not None and got != expected:
            runner.failed += 1
            print(f"{what} op {op.label}: output digest {got} != reference {expected}",
                  file=sys.stderr)


def _fixed_ops(wl, fx):
    """Ops with fixed inputs (formal-modules only); every round runs them too."""
    return wl.fixed_ops(fx) if hasattr(wl, "fixed_ops") else []


def _warm_up(wl, fx, ref: dict) -> Runner:
    """Default-seed canary round and fixed ops, checked against the reference."""
    import workloads
    runner = Runner()
    canary = wl.round(fx, random.Random(workloads.DEFAULT_SEED))[:wl.canary_ops]
    _check_digests(runner, canary, ref.get("canary", []), "canary")
    fixed = _fixed_ops(wl, fx)
    _check_digests(runner, fixed, ref.get("fixed", []), "fixed")
    return runner


def _tail(latencies):
    """Highest percentile with at least ten samples beyond it: (value, pct)."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run of one workload; the result printed as the last line, plus
    ``provenance``.  In a fresh interpreter ``setup_s`` includes the import."""
    reference = json.loads(REFERENCE.read_text())
    wl, fx, setup_s, unscaled_setup_s = _setup(name, reference)
    ref = reference.get(name, {})
    info = _provenance(name, seed)
    warm = _warm_up(wl, fx, ref)
    rng = random.Random(seed)
    gc.collect()

    if not trace:
        runner = Runner()
        kernel = [_kernel_seconds()]
        segment = []  # per op: index of the kernel timing just before it
        rounds = 0
        busy = since = 0.0
        while not rounds or busy < seconds:
            for op in wl.round(fx, rng):
                runner.execute(op)
                segment.append(len(kernel) - 1)
                busy += runner.latencies[-1]
                since += runner.latencies[-1]
                if since >= CALIBRATE_EVERY_S:
                    kernel.append(_kernel_seconds())
                    since = 0.0
            rounds += 1
        kernel.append(_kernel_seconds())
        raw = runner.latencies
        lat = [t * 2 * REFERENCE_KERNEL_S / (kernel[k] + kernel[k + 1])
               for t, k in zip(raw, segment)]
        tail, pct = _tail(raw)
        metrics = {
            "setup_s": setup_s,
            "ops_per_s": len(lat) / sum(lat),
            "op_p50_ms": 1000 * statistics.median(lat),
            "op_tail_ms": 1000 * tail,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        info.update(ops=len(lat), rounds=rounds, busy_s=busy,
                    tail_percentile=pct, tail_samples_beyond=min(10, len(lat) - 1),
                    unscaled={"setup_s": unscaled_setup_s,
                              "ops_per_s": len(raw) / busy,
                              "op_p50_ms": 1000 * statistics.median(raw)},
                    kernel_s=statistics.median(kernel), kernel_timings=len(kernel))
    else:
        from tracing import Tracer
        rounds = max(1, round(seconds / TRACE_ROUND_SECONDS[name]))
        tracer = Tracer()
        tracer.calibrate()
        runner, traced = Runner(), Runner(tracer)
        # Each round runs untraced, then traced, so that both passes see
        # the same machine speed and their ratio is the tracer's overhead.
        for _ in range(rounds):
            ops = wl.round(fx, rng)
            for op in ops:
                runner.execute(op)
            with tracer:
                for op in ops:
                    traced.execute(op, index=len(traced.latencies))
        plain_s = sum(runner.latencies)
        traced_s = sum(traced.latencies)
        metrics = tracer.metrics()
        metrics["trace.overhead_ratio"] = traced_s / plain_s
        runner.attempted += traced.attempted
        runner.failed += traced.failed
        info.update(ops=len(traced.latencies), rounds=rounds, plain_s=plain_s,
                    traced_s=traced_s, spans=len(tracer.name),
                    wrapper_overhead_ns=tracer.overhead_ns)
        SPANS.mkdir(exist_ok=True)
        spans = SPANS / f"spans-{name}.tsv"
        tracer.write(spans)
        info["spans_file"] = str(spans.relative_to(ROOT))

    attempted = warm.attempted + runner.attempted
    failed = warm.failed + runner.failed
    info.update(attempted=attempted, failed=failed, failed_ratio=failed / attempted)
    spec = json.loads(SPEC.read_text())["per_layer" if trace else "end_to_end"]
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                        for m in spec},
            "provenance": info}


# -- two-run comparison ----------------------------------------------------


def _load_results(path):
    by_workload = {}
    with open(path) as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                by_workload.setdefault(rec["provenance"]["workload"], []).append(rec)
    return by_workload


def _quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base, new, better: str, bound: float) -> str:
    """better / no worse / worse / unresolved for two sets of runs of one metric.

    Better when ``new`` wins at least nine tenths of the (new, base) pairs and
    its median gains more than the base quartile spread.  Unresolved when
    either side's quartile spread exceeds the bound, unless every run of
    ``new`` beats every run of ``base``.
    """
    sign = 1 if better == "lower" else -1
    b1, bm, b3 = _quartiles(base)
    n1, nm, n3 = _quartiles(new)
    worse_by = sign * (nm - bm) / abs(bm)
    base_spread = (b3 - b1) / abs(bm)
    spread = max(base_spread, (n3 - n1) / abs(nm) if nm else math.inf)
    wins = sum(sign * (x - y) < 0 for x in new for y in base) / (len(new) * len(base))
    if wins == 1:
        return "better"
    if spread > bound:
        return "unresolved"
    if wins >= 0.9 and -worse_by > base_spread:
        return "better"
    return "no worse" if worse_by <= bound else "worse"


def compare(base_path, new_path) -> int:
    spec = json.loads(SPEC.read_text())
    base, new = _load_results(base_path), _load_results(new_path)
    print(f"{'workload':18s} {'metric':12s} {'base median [q1, q3]':>32s} "
          f"{'new median [q1, q3]':>32s}  verdict")
    worst = 0
    for name in sorted(set(base) & set(new)):
        for m in spec["end_to_end"]:
            key = m["name"]
            bv = [r["metrics"][key]["value"] for r in base[name] if key in r["metrics"]]
            nv = [r["metrics"][key]["value"] for r in new[name] if key in r["metrics"]]
            if not bv or not nv:
                continue
            v = verdict(bv, nv, m["better"], m["bound"])
            b1, bm, b3 = _quartiles(bv)
            n1, nm, n3 = _quartiles(nv)
            print(f"{name:18s} {key:12s} {bm:12.5g} [{b1:.5g}, {b3:.5g}]".ljust(64)
                  + f" {nm:12.5g} [{n1:.5g}, {n3:.5g}]".ljust(33) + f"  {v} "
                  f"({len(bv)} vs {len(nv)} runs, bound {m['bound']})")
            worst = max(worst, v == "worse")
    return 1 if worst else 0


# -- reference outputs -----------------------------------------------------


def write_reference() -> None:
    import workloads
    reference = {"default_seed": workloads.DEFAULT_SEED}
    for name in workloads.WORKLOAD_NAMES:
        wl = workloads.make_workload(name, {})
        fx = wl.setup()
        entry = {}
        canary = wl.round(fx, random.Random(workloads.DEFAULT_SEED))[:wl.canary_ops]
        fixed = _fixed_ops(wl, fx)
        for key, ops in (("canary", canary), ("fixed", fixed)):
            if ops:
                entry[key] = [op.digest(op.run()) for op in ops]
        if name == "generation-boxes":
            entry["boxes"] = wl.reference_table(fx)
        if name == "eval-roundtrip":
            entry["cli"] = wl.reference_table(fx)
        reference[name] = entry
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="append the full result as one JSON line")
    ap.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.write_reference:
        _import_library()
        write_reference()
        return 0
    if not args.workload:
        ap.error("--workload is required")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    info = result.pop("provenance")
    for key, m in result["metrics"].items():
        print(f"{key:40s} {m['value']:.6g} {m['unit']}")
    print(f"failed_ratio {info['failed_ratio']:.6g} ({result['failed']} of "
          f"{result['attempted']} ops)")
    print("provenance " + json.dumps(info, sort_keys=True))
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(json.dumps({**result, "provenance": info}, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
