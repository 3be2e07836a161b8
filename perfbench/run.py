#!/usr/bin/env python3
"""Seeded benchmark of the four skolemff CLI pipelines.

    python3 perfbench/run.py --workload solve-small --seed 3 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 3          # every workload, one table
    python3 perfbench/run.py --workload solve-small --record  # rewrite expected answers

One closed-loop client calls `skolemff.cli.main` in process, one instance or
suite call per operation, on one thread: the next call starts when the
previous one returns.  `--trace 0` repeats whole passes over the workload's
pool for about `--seconds` and reports the end-to-end metrics; `--trace 1`
runs every n-th operation of the pool once untraced and once with the layer
wrappers bound, and reports the per-layer metrics.  Every answer is checked;
the last line of standard output is the JSON result, and the exit code is 0
only when every answer was right.

End-to-end timings are given at reference machine speed.  On a shared host
the speed of the same code drifts by 15-40% within minutes, and every timing
moves with it, so the timed loop runs a fixed pure-Python calibration kernel
(about 1 ms) every CALIBRATE_EVERY_S of work and scales each operation's wall
time by REFERENCE_KERNEL_S / (kernel time around that operation).  A change
to skolemff cannot change the kernel, so the scaled times compare commits;
the summary line also prints the unscaled figures and the mean scale.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

PERCENTILES = (50, 90, 99, 99.9)
SETUP_RUNS = 7
CALIBRATE_EVERY_S = 0.25
REFERENCE_KERNEL_S = 0.001  # kernel time that defines reference speed
WARMUP_OPS = 6  # one of each verify suite

# Runs in a fresh interpreter: what a CLI user pays once per process.
SETUP_CODE = """
import json, sys, time
t0 = time.perf_counter()
import skolemff.cli
from skolemff.constants import FieldSpec, field_for
for spec in json.loads(sys.argv[1]):
    field_for(FieldSpec(*spec))
print(time.perf_counter() - t0)
"""


def highest_percentile(n: int, tail: int = 10) -> float | None:
    """Highest reportable percentile: at least `tail` of `n` samples lie beyond it."""
    ok = [p for p in PERCENTILES if n * (1000 - round(p * 10)) >= tail * 1000]
    return max(ok) if ok else None


def percentile(values: list[float], p: float) -> float:
    return statistics.quantiles(values, n=1000, method="inclusive")[round(p * 10) - 1]


def _kernel() -> Fraction:
    acc = Fraction(0)
    for i in range(1, 120):
        acc += Fraction(i, i + 7) * Fraction(2 * i + 1, 3 * i + 2)
    return acc


def kernel_s() -> float:
    """Median time of five calibration kernel runs: the machine's current speed."""
    samples = []
    for _ in range(5):
        t0 = time.perf_counter()
        _kernel()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def measure_setup(specs) -> tuple[float, float]:
    """Median (scaled, unscaled) seconds to import the CLI and build the fields."""
    env = dict(os.environ, PYTHONPATH=SRC)
    scaled, raw = [], []
    for _ in range(SETUP_RUNS):
        before = kernel_s()
        out = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, json.dumps(specs)],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
        )
        scale = REFERENCE_KERNEL_S * 2 / (before + kernel_s())
        raw.append(float(out.stdout.strip()))
        scaled.append(raw[-1] * scale)
    return statistics.median(scaled), statistics.median(raw)


def call(argv: list[str]):
    """One operation: (seconds, exit code or None, stdout, error text or None)."""
    from skolemff import cli

    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        error = None
    except (Exception, SystemExit) as exc:  # the CLI must turn every error into an exit code
        code, error = None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, code, buf.getvalue(), error


def run_pass(ops, indices):
    t0 = time.perf_counter()
    records = [(i, *call(ops[i].argv)) for i in indices]
    return time.perf_counter() - t0, records


def calibrated_pass(ops, indices):
    """Records of one pass and, per record, the speed scale measured around it."""
    records, scales = [], []
    before, pending, busy = kernel_s(), 0, 0.0
    for n, i in enumerate(indices, 1):
        records.append((i, *call(ops[i].argv)))
        pending += 1
        busy += records[-1][1]
        if busy >= CALIBRATE_EVERY_S or n == len(indices):
            after = kernel_s()
            scales.extend([REFERENCE_KERNEL_S * 2 / (before + after)] * pending)
            before, pending, busy = after, 0, 0.0
    return records, scales


class Judge:
    """Checks every record; `failed` and `inconclusive` count operations."""

    def __init__(self, wl, ops, expected):
        self.wl, self.ops, self.expected = wl, ops, expected
        self.seen: dict[int, dict] = {}
        self.attempted = self.failed = self.inconclusive = 0
        self.problems: list[str] = []

    def add(self, records) -> None:
        from workloads import answer_of, independent_check

        for i, _, code, text, error in records:
            self.attempted += 1
            op = self.ops[i]
            problem = error
            if problem is None:
                result = json.loads(text)["result"]
                answer = answer_of(self.wl, result, code)
                if code == 3:
                    self.inconclusive += 1
                if i in self.seen:
                    if answer != self.seen[i]:
                        problem = f"answer changed between passes: {answer} != {self.seen[i]}"
                else:
                    problem = independent_check(self.wl, op, result, code)
                    if problem is None and not op.fresh and self.expected is not None:
                        want = self.expected["answers"][i]
                        if answer != want:
                            problem = f"answer {answer} != expected {want}"
                    self.seen[i] = answer
            if problem is not None:
                self.failed += 1
                self.problems.append(f"{op.label}: {problem}")


def result_line(correct: bool, judge: Judge, metrics: dict) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": judge.attempted,
        "failed": judge.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def run_timed(wl, ops, seconds: float, specs, judge: Judge) -> dict:
    setup_s, setup_raw = measure_setup(specs)
    everything = range(len(ops))
    judge.add(run_pass(ops, range(min(WARMUP_OPS, len(ops))))[1])
    raw, scaled = [], []  # per-operation milliseconds
    t0 = time.perf_counter()
    while True:
        records, scales = calibrated_pass(ops, everything)
        judge.add(records)
        raw.extend(rec[1] * 1000 for rec in records)
        scaled.extend(rec[1] * 1000 * k for rec, k in zip(records, scales))
        elapsed = time.perf_counter() - t0
        if elapsed * (len(raw) + len(ops)) / len(raw) > seconds:  # the next pass would overrun
            break
    if (highest_percentile(len(raw)) or 0) < 90:
        raise SystemExit(f"{len(raw)} operations are too few to report p90")
    print(f"# {wl.name}: {len(raw)} latency samples in {len(raw) // len(ops)} pass(es); "
          f"fail_ratio {judge.failed / judge.attempted:.4f}, "
          f"inconclusive_ratio {judge.inconclusive / judge.attempted:.4f}; "
          f"unscaled: setup_s {setup_raw:.4f}, throughput_ops_s {len(raw) / sum(raw) * 1000:.3f}, "
          f"latency_p50_ms {statistics.median(raw):.3f}, latency_p90_ms {percentile(raw, 90):.3f}, "
          f"mean scale {sum(scaled) / sum(raw):.3f}")
    return {
        "setup_s": (setup_s, "s"),
        "throughput_ops_s": (len(scaled) / sum(scaled) * 1000, "1/s"),
        "latency_p50_ms": (statistics.median(scaled), "ms"),
        "latency_p90_ms": (percentile(scaled, 90), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def run_traced(wl, ops, judge: Judge) -> dict:
    from layers import PER_LAYER, WORKS_MOST_IN, layer_values, make_layers, window_size
    from tracer import Tracer, bind, unbind

    subset = range(0, len(ops), wl.trace_every)
    judge.add(run_pass(ops, range(min(WARMUP_OPS, len(ops))))[1])
    plain_wall, records = run_pass(ops, subset)
    judge.add(records)
    tracer = Tracer()
    undo = bind(tracer, make_layers(), "skolemff")
    try:
        traced_wall, records = run_pass(ops, subset)
    finally:
        unbind(undo)
    judge.add(records)
    values = layer_values(tracer, sum(window_size(inst) for inst in tracer.kept))
    values["trace.ops"] = len(subset)
    values["trace.traced_s"] = traced_wall
    values["trace.overhead_ratio"] = traced_wall / plain_wall
    values["fail_ratio"] = judge.failed / judge.attempted
    values["inconclusive_ratio"] = judge.inconclusive / judge.attempted
    missing = [name for name in WORKS_MOST_IN[wl.name] if tracer.stat(name).calls == 0]
    if missing:
        judge.failed += 1
        judge.problems.append(f"layers with no calls where they should work most: {missing}")
    return {name: (values[name], unit) for name, unit, _ in PER_LAYER}


def record(wl, ops, seeds, digest: str) -> int:
    from workloads import answer_of, expected_path

    judge = Judge(wl, ops, None)
    answers = []
    for i in range(len(ops)):
        _, records = run_pass(ops, [i])
        judge.add(records)
        _, _, code, text, error = records[0]
        answers.append(None if error else answer_of(wl, json.loads(text)["result"], code))
    if judge.failed:
        print("\n".join(judge.problems), file=sys.stderr)
        return 1
    doc = {"workload": wl.name, "seeds": seeds, "digest": digest, "answers": answers}
    with open(expected_path(wl), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(answers)} answers for {wl.name}")
    return 0


def run_all(args) -> int:
    """Every workload in its own fresh interpreter; one table of every metric."""
    from workloads import WORKLOADS

    worst = 0
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = out.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(line)
        try:
            doc = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit {out.returncode})\n{out.stderr}", file=sys.stderr)
            worst = max(worst, out.returncode or 1)
            continue
        print(f"{name}: correct={doc['correct']} attempted={doc['attempted']} failed={doc['failed']} "
              f"fail_ratio={doc['failed'] / doc['attempted']:.4f}")
        for metric, mv in doc["metrics"].items():
            print(f"  {metric} = {mv['value']:.6g} {mv['unit']}")
        worst = max(worst, out.returncode)
    return worst


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true", help="rewrite the expected answers of the reference part")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "skolemff", "cli.py")):
        print(f"skolemff sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    if args.workload == "all":
        return run_all(args)

    from workloads import WORKLOADS, build_ops, load_expected

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or all")
    wl = WORKLOADS[args.workload]
    workdir = os.path.join(HERE, ".work", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        if args.record:
            ops, seeds, digest, _ = build_ops(wl, args.seed, workdir)
            return record(wl, ops, seeds, digest)
        expected = load_expected(wl)
        ops, _, digest, specs = build_ops(wl, args.seed, workdir, expected["seeds"])
        if digest != expected["digest"]:
            print(f"{wl.name}: the reference instances no longer match the pinned digest "
                  f"({digest} != {expected['digest']}); the generator changed, so results would not "
                  "compare with earlier runs.  Re-record deliberately with --record.", file=sys.stderr)
            return 3
        judge = Judge(wl, ops, expected)
        if args.trace:
            metrics = run_traced(wl, ops, judge)
        else:
            metrics = run_timed(wl, ops, args.seconds, specs, judge)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in judge.problems[:20]:
        print(f"# FAIL {problem}", file=sys.stderr)
    correct = judge.failed == 0
    print(result_line(correct, judge, metrics))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
