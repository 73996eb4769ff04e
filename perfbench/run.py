"""The flatdef benchmark: one workload per run, closed loop, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all     # every workload in turn

With --trace 0 the run sets up the workload (several times, for a median
set-up time), then runs ops back to back for S seconds, checks every
output and reports the end-to-end metrics.  Its times are scaled to a
reference machine speed, measured by a fixed kernel run between ops
(see `Speed`); the table also prints them as measured.  With --trace 1
it runs a fixed number of ops twice, untraced and traced in turn, and reports the
per-layer metrics and the tracing overhead.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.
FLATDEF_THREADS is removed from the environment, so the library runs its
default of one thread.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(BENCH_DIR, "reference_digests.json")
SETUP_REPS = 5
# The tail percentile is fixed, so that runs holding different numbers of
# ops report the same statistic.  Every workload completes at least 40 ops
# at the commit that added the benchmark, which leaves at least ten
# samples beyond p75; the report warns when a run has fewer.
TAIL_PERCENTILE = 75
TAIL_BEYOND = 10
# The share of a run spent on the speed kernel, its time on each side of
# a set-up, and its time at the reference speed: about its time on the
# 2-core 2.1 GHz Xeon virtual machine, Python 3.11, where the bounds in
# BENCHMARK.json were set.
SPEED_SHARE = 0.15
SETUP_KERNEL_S = 0.1
KERNEL_STEPS = 1000
REFERENCE_KERNEL_S = 0.010


def import_library():
    """Import flatdef from this checkout's source tree; returns seconds."""
    if not os.path.isfile(os.path.join(SRC, "flatdef", "__init__.py")):
        sys.exit(f"error: no flatdef source at {SRC}")
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import flatdef  # noqa: F401
    import workloads  # noqa: F401  (imports the flatdef modules it drives)
    elapsed = time.perf_counter() - start
    if os.path.dirname(os.path.dirname(os.path.abspath(flatdef.__file__))) != SRC:
        sys.exit(f"error: flatdef imported from {flatdef.__file__}, not {SRC}")
    return elapsed


def load_reference(workload: str, seed: int):
    with open(REFERENCE, encoding="utf-8") as fh:
        ref = json.load(fh)
    return ref["workloads"][workload] if seed == ref["seed"] else None


def tail(latencies):
    """(value, samples beyond it): the TAIL_PERCENTILE latency, nearest rank."""
    ordered = sorted(latencies)
    rank = max(1, math.ceil(TAIL_PERCENTILE / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def kernel() -> None:
    """Fixed pure-Python rational arithmetic, like flatdef's scalar core."""
    x = Fraction(1, 3)
    for i in range(KERNEL_STEPS):
        x = (x * Fraction(7, 5) + Fraction(i % 7, 11)) / Fraction(3, 2)
        if x.denominator > 10 ** 30:
            x = Fraction(1, 3)


class Speed:
    """The machine's speed, sampled by `kernel` around timed steps.

    A shared virtual machine can change speed by 40% within minutes, for
    the same work.  Between ops the kernel runs for SPEED_SHARE of the
    time the ops took, so it samples the same stretches of time; each
    set-up is sampled just before and after.  A time multiplied by
    REFERENCE_KERNEL_S over the kernel's mean time reads as at the
    reference speed.  The kernel uses no flatdef code, so a change to
    flatdef moves the scaled times as it moves the measured ones.
    """

    def __init__(self):
        self.busy_s = 0.0
        self.kernel_s = 0.0
        self.kernels = 0

    def sample(self, seconds: float) -> float:
        """Runs the kernel for at least `seconds`; returns its mean time."""
        start = time.perf_counter()
        runs = 0
        while True:
            kernel()
            runs += 1
            elapsed = time.perf_counter() - start
            if elapsed >= seconds:
                break
        self.kernel_s += elapsed
        self.kernels += runs
        return elapsed / runs

    def keep_up(self, busy_s: float) -> None:
        self.busy_s += busy_s
        owed = SPEED_SHARE * self.busy_s - self.kernel_s
        if owed > 0:
            self.sample(owed)

    def scale(self) -> float:
        return REFERENCE_KERNEL_S * self.kernels / self.kernel_s


class Loop:
    """Runs ops one after another and checks each output."""

    def __init__(self, wl, reference):
        from workloads import digest
        self.digest = digest
        self.wl = wl
        self.reference = reference
        self.latencies = []
        self.digests = []
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.decompositions = 0
        self.busy_s = 0.0

    def step(self, index: int, item, tracer=None) -> float:
        """Runs and checks one op; returns its latency in seconds."""
        span = tracer.open("harness.op") if tracer else None
        start = time.perf_counter()
        try:
            text = self.wl.run(item)
            error = None
        except Exception as exc:  # an op that raises counts as failed
            text, error = None, f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - start
        if tracer:
            tracer.close(span)
        self.busy_s += latency
        self.attempted += 1
        self.digests.append(None if text is None else self.digest(text))
        if error is None:
            error = self.check(index, text)
            if error is not None:
                self.wrong += 1
        if error is not None:
            self.failed += 1
            print(f"op {index} failed: {error}", file=sys.stderr)
        else:
            # a failed op counts in `failed`; its latency, cut short where
            # it raised, would make the percentiles depend on the failure mix
            self.latencies.append(latency)
        return latency

    def check(self, index: int, text: str):
        data = json.loads(text)
        problem = self.wl.check(data)
        if problem is not None:
            return problem
        if self.reference is not None:
            want = self.reference[index] if index < len(self.reference) else None
            if want is not None and want != self.digests[-1]:
                return "output differs from the reference digest"
        self.decompositions += self.wl.decompositions(data)
        return None


def run_untraced(wl, seed, seconds, workdir, import_s):
    setup_times = []
    setup_scales = []
    setup_speed = Speed()
    for _ in range(SETUP_REPS):
        items = None  # let the previous set-up's objects go first
        gc.collect()
        before = setup_speed.sample(SETUP_KERNEL_S)
        start = time.perf_counter()
        items = wl.setup(seed, workdir)
        setup_times.append(time.perf_counter() - start)
        after = setup_speed.sample(SETUP_KERNEL_S)
        setup_scales.append(2 * REFERENCE_KERNEL_S / (before + after))
    loop = Loop(wl, load_reference(wl.name, seed))
    speed = Speed()
    gc.collect()
    start = time.perf_counter()
    for index, item in enumerate(items):
        if time.perf_counter() - start >= seconds:
            break
        speed.keep_up(loop.step(index, item))
    if loop.attempted == len(items):
        print(f"note: all {len(items)} inputs used before {seconds} s",
              file=sys.stderr)
    completed = len(loop.latencies)
    if not completed:
        sys.exit(f"error: all {loop.attempted} ops failed")
    tail_s, beyond = tail(loop.latencies)
    setup_s = import_s + statistics.median(setup_times)
    scaled_setup_s = (import_s * statistics.median(setup_scales)
                      + statistics.median(t * k for t, k in
                                          zip(setup_times, setup_scales)))
    measured = {
        "setup_s": (setup_s, "s"),
        "op_p50_ms": (statistics.median(loop.latencies) * 1000, "ms"),
        "op_tail_ms": (tail_s * 1000, "ms"),
        # per second spent in ops: the kernel's share of the run is left out
        "ops_per_s": (completed / loop.busy_s, "1/s"),
        "decompositions_per_s": (loop.decompositions / loop.busy_s, "1/s"),
    }
    scales = {"op_p50_ms": speed.scale(), "op_tail_ms": speed.scale(),
              "ops_per_s": 1 / speed.scale(),
              "decompositions_per_s": 1 / speed.scale()}
    metrics = {"setup_s": (scaled_setup_s, "s")}
    metrics.update((name, (measured[name][0] * k, measured[name][1]))
                   for name, k in scales.items())
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    notes = [
        f"times are scaled to the reference speed: the speed kernel took "
        f"{REFERENCE_KERNEL_S / speed.scale() * 1000:.3f} ms in the ops "
        f"and {REFERENCE_KERNEL_S / setup_speed.scale() * 1000:.3f} ms in "
        f"set-up, against {REFERENCE_KERNEL_S * 1000:g} ms; as measured:",
    ] + [f"  {name:<42} {value:>16.6f} {unit}"
         for name, (value, unit) in measured.items()] + [
        f"op_tail_ms is p{TAIL_PERCENTILE} of {completed} completed ops, "
        f"{beyond} beyond it"
        + ("" if beyond >= TAIL_BEYOND else " (warning: fewer than ten)"),
        f"failed_frac {loop.failed / loop.attempted:.4f} "
        f"({loop.failed} of {loop.attempted})",
        f"setup_s = import {import_s:.4f} s + median of "
        f"{[round(t, 4) for t in setup_times]}, as measured",
    ]
    return loop, metrics, notes


def run_traced(wl, seed, workdir):
    """The first trace_ops inputs, each run untraced and traced in turn.

    Each side gets its own set-up, so neither reuses the other's
    objects.  Alternating per op, and which side goes first, keeps
    interpreter warm-up out of the measured overhead.
    """
    import tracer as tracing
    reference = load_reference(wl.name, seed)
    plain_items = wl.setup(seed, workdir)[:wl.trace_ops]
    traced_items = wl.setup(seed, workdir)[:wl.trace_ops]
    plain, loop, tr = Loop(wl, reference), Loop(wl, reference), tracing.Tracer()
    for index, (a, b) in enumerate(zip(plain_items, traced_items)):
        for traced in ((False, True) if index % 2 == 0 else (True, False)):
            if not traced:
                plain.step(index, a)
                continue
            tr.op = index
            restore = tracing.install(tr)
            try:
                loop.step(index, b, tr)
            finally:
                restore()
    if plain.digests != loop.digests:
        loop.failed += 1
        loop.wrong += 1
        print("traced and untraced outputs differ", file=sys.stderr)
    os.makedirs(os.path.join(BENCH_DIR, "traces"), exist_ok=True)
    tr.write(os.path.join(BENCH_DIR, "traces", f"{wl.name}-seed{seed}.jsonl"))
    metrics = tracing.per_layer_metrics(tr)
    plain_s, traced_s = sum(plain.latencies), sum(loop.latencies)
    metrics["trace.overhead_frac"] = (traced_s / plain_s - 1, "fraction")
    loop.attempted += plain.attempted
    loop.failed += plain.failed
    loop.wrong += plain.wrong
    total = sum(metrics[f"layer.{layer}.self_s"][0] for layer in tracing.LAYERS)
    notes = [f"{len(plain_items)} ops per side; untraced {plain_s:.3f} s, "
             f"traced {traced_s:.3f} s; layer self time when traced:"]
    for layer in sorted(tracing.LAYERS,
                        key=lambda x: -metrics[f"layer.{x}.self_s"][0]):
        s = metrics[f"layer.{layer}.self_s"][0]
        notes.append(f"  {layer:<12} {s:9.4f} s  {100 * s / total:5.1f}%")
    return loop, metrics, notes


def report(workload, loop, metrics, notes):
    print(f"== {workload}")
    for line in notes:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name:<44} {value:>16.6f} {unit}")
    return {
        "correct": loop.wrong == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def run_all(args):
    """Each workload in its own process, so memory and set-up stay apart."""
    import workloads
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.exit(f"error: workload {name} exited with {proc.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    os.environ.pop("FLATDEF_THREADS", None)
    import_s = import_library()
    import workloads
    if args.workload == "all":
        result = run_all(args)
    else:
        if args.workload not in workloads.WORKLOADS:
            parser.error(f"unknown workload {args.workload!r}; choose from "
                         f"{', '.join(workloads.WORKLOADS)} or all")
        wl = workloads.WORKLOADS[args.workload]
        workdir = os.path.join(BENCH_DIR, ".work", str(os.getpid()))
        os.makedirs(workdir)
        try:
            if args.trace:
                loop, metrics, notes = run_traced(wl, args.seed, workdir)
            else:
                loop, metrics, notes = run_untraced(wl, args.seed, args.seconds,
                                                    workdir, import_s)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        result = report(args.workload, loop, metrics, notes)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
