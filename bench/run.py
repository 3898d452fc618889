#!/usr/bin/env python3
"""Fixed-seed benchmark of the tensornorm property suites.

One process runs one workload's suites as a closed loop, one trial after
another, no threads; each trial is one request and draws its inputs only
from ``--seed``.  From the root of a source checkout:

    python3 bench/run.py --workload closed-mult --seed 1 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the
workload untraced for a third of ``--seconds``, replays exactly those
trials under the per-layer tracer and reports the per-layer metrics and
the tracing overhead.  Human-readable lines come first; the last line of
stdout is one JSON object (correct, attempted, failed, metrics).  The full
result, stamped with the environment, goes to ``<out-dir>/``; a traced run
also writes its spans there.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from math import ceil
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_REPEATS = 7
# The machine's speed drifts by up to 2x over seconds to minutes.  A fixed
# pure-Python loop, timed after every trial, tracks it; end-to-end times are
# scaled to a machine on which one probe takes REFERENCE_PROBE_S (a 2-core
# x86-64 VM under CPython 3.11, in its faster state).
PROBE_LOOPS = 2000
REFERENCE_PROBE_S = 0.35e-3
SETUP_PROBES = 9
TRACE_SHARE = 1 / 3  # of --seconds spent on the untraced half of a traced run
SLOWEST = 3
TAIL_PERCENTILE = 95  # fixed, so that runs of different throughput compare

_SETUP_CHILD = """\
import json, sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from tensornorm import ScenarioConfig
for options in json.loads(sys.argv[2]):
    ScenarioConfig(**options).build_setup()
setup = time.perf_counter() - start
sys.path.insert(0, sys.argv[3])
from run import SETUP_PROBES, probe_seconds
print(setup, probe_seconds(SETUP_PROBES))
"""


def parse_args(argv):
    parser = argparse.ArgumentParser(description="tensornorm suite benchmark")
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out-dir", type=Path, default=BENCH / "out")
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# environment stamp
# ---------------------------------------------------------------------------

def _commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def _source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "tensornorm").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment():
    return {
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "load1_start": os.getloadavg()[0],
    }


# ---------------------------------------------------------------------------
# measurements
# ---------------------------------------------------------------------------

def speed_probe():
    x = s = 0
    for _ in range(PROBE_LOOPS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        s += x % 1000
    return s


def probe_seconds(repeats=1):
    """Median time of ``repeats`` speed probes."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        speed_probe()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def measure_setup(workload):
    """Fresh-process import plus build_setup of every stream.

    Returns [(seconds, probe seconds)], the probe timed in the same child
    right after its set-up.
    """
    options = json.dumps([dict(s.options) for s in workload.streams])
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", _SETUP_CHILD, str(SRC), options,
                              str(BENCH)],
                             capture_output=True, text=True, timeout=120, check=True,
                             cwd=ROOT)
        seconds, probe = map(float, out.stdout.split())
        times.append((seconds, probe))
    return times


def trial_caller(plan):
    """(stream, offset) -> failure text, or None when the trial passed."""
    from tensornorm import suites, trial_rng

    fns = [suites._TRIALS[s.suite] for s in plan.workload.streams]

    def call(stream, offset):
        try:
            fail = fns[stream](plan.setups[stream], plan.scenarios[stream],
                               trial_rng(plan.seed, offset))
        except Exception as exc:  # a trial that raises is a failed trial
            return f"exception: {type(exc).__name__}: {exc}"
        return None if fail is None else f"{fail[1]}: {fail[2]}"
    return call


def run_rounds(plan, call, budget):
    """Whole rounds of trials until their summed time reaches ``budget``.

    A speed probe is timed after each trial, outside the trial's time.
    Returns ([(stream, offset, seconds, failure or None)], [probe seconds]).
    """
    results = []
    probes = []
    spent = 0.0
    while spent < budget:
        for stream, offset in plan.next_round():
            start = time.perf_counter()
            failure = call(stream, offset)
            seconds = time.perf_counter() - start
            results.append((stream, offset, seconds, failure))
            probes.append(probe_seconds())
            spent += seconds
    return results, probes


def traced_replay(call, trials):
    """Rerun ``trials`` under the tracer; returns (results, tracer)."""
    from tracing import Tracer

    tracer = Tracer()
    results = []
    tracer.install()
    try:
        for i, (stream, offset, _, _) in enumerate(trials):
            seconds, failure = tracer.run_trial(i, call, stream, offset)
            results.append((stream, offset, seconds, failure))
    finally:
        tracer.restore()
    return results, tracer


def percentile(sorted_values, pct):
    """Nearest-rank percentile and the number of values beyond it."""
    rank = max(1, ceil(pct / 100 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def trial_lines(workload, seed, results):
    failed = [r for r in results if r[3] is not None]
    slow = sorted(results, key=lambda r: -r[2])[:SLOWEST]
    lines = ["slowest trials (replay with the command shown):"]
    for stream, offset, seconds, _ in slow:
        lines.append(f"  {seconds * 1000:9.1f} ms  "
                     f"{workload.streams[stream].replay(seed, offset)}")
    for stream, offset, _, failure in failed[:10]:
        lines.append(f"  FAILED {workload.streams[stream].replay(seed, offset)}: {failure}")
    return lines, [{"ms": r[2] * 1000, "replay": workload.streams[r[0]].replay(seed, r[1])}
                   for r in slow]


def end_to_end(results, probes, setup_times):
    """The end-to-end metrics, times scaled to the reference machine speed."""
    speed = REFERENCE_PROBE_S / statistics.mean(probes)
    raw = sorted(r[2] for r in results)
    times = [t * speed for t in raw]
    total = sum(times)
    tail, beyond = percentile(times, TAIL_PERCENTILE)
    setup = [seconds * REFERENCE_PROBE_S / probe for seconds, probe in setup_times]
    metrics = {
        "trials_per_s": {"value": len(times) / total, "unit": "1/s"},
        "trial_p50_ms": {"value": statistics.median(times) * 1000, "unit": "ms"},
        "trial_tail_ms": {"value": tail * 1000, "unit": "ms"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "unit": "MB"},
    }
    notes = {
        "trials_per_s": f"{len(times)} trials; unscaled {len(raw) / sum(raw):.4g} in "
                        f"{sum(raw):.2f} s, speed factor {speed:.3f}",
        "trial_p50_ms": f"median of {len(times)} trials; unscaled "
                        f"{statistics.median(raw) * 1000:.4g}",
        "trial_tail_ms": f"p{TAIL_PERCENTILE} of {len(times)} trials, {beyond} beyond it; "
                         f"unscaled {percentile(raw, TAIL_PERCENTILE)[0] * 1000:.4g}",
        "setup_s": f"median of {len(setup)} fresh processes; unscaled "
                   f"{statistics.median(t for t, _ in setup_times):.4g}",
        "peak_rss_mb": "peak resident memory of this process",
    }
    return metrics, notes


LAYER_UNITS = (("_ratio", "ratio"), ("_s", "s/trial"), ("_cells", "cells/trial"))


def layer_unit(name):
    for suffix, unit in LAYER_UNITS:
        if name.endswith(suffix):
            return unit
    return "count/trial"


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "tensornorm" / "__init__.py").is_file():
        print(f"error: no tensornorm sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tensornorm
    if Path(tensornorm.__file__).resolve().parent != (SRC / "tensornorm").resolve():
        print(f"error: imported tensornorm from {tensornorm.__file__}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, TrialPlan
    import reference

    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    if args.workload == "all":  # each workload in a fresh process, as a user runs it
        return max(subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--out-dir", str(args.out_dir)]).returncode for name in WORKLOADS)
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    table = reference.load()

    env = environment()
    setup_times = measure_setup(workload)
    plan = TrialPlan(workload, args.seed)

    # untimed: reference outputs; this also warms the interpreter
    ref_trials, ref_failed, ref_note = reference.check(workload, args.seed, table)

    call = trial_caller(plan)
    out = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "environment": env}
    lines = [f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
             f"({workload.why})"]
    if args.trace == 0:
        (results, probes), traced = run_rounds(plan, call, args.seconds), []
        metrics, notes = end_to_end(results, probes, setup_times)
    else:
        results, _ = run_rounds(plan, call, args.seconds * TRACE_SHARE)
        traced, tracer = traced_replay(call, results)
        if tracer.not_restored():
            print(f"error: tracer left {tracer.not_restored()} patched", file=sys.stderr)
            return 1
        n = len(results)
        untraced_s = sum(r[2] for r in results)
        traced_s = sum(r[2] for r in traced)
        out["overhead"] = {"trials": n, "untraced_s": untraced_s, "traced_s": traced_s,
                           "untraced_trials_per_s": n / untraced_s,
                           "traced_trials_per_s": n / traced_s,
                           "overhead_ratio": traced_s / untraced_s - 1}
        lines.append(f"tracing overhead: untraced {n / untraced_s:.3f} trials/s "
                     f"({n} trials in {untraced_s:.2f} s) | traced {n / traced_s:.3f} "
                     f"trials/s ({n} trials in {traced_s:.2f} s) | "
                     f"{(traced_s / untraced_s - 1) * 100:+.1f}% time")
        layers = tracer.layer_metrics(n)
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in layers.items()}
        notes = {k: f"per traced trial, {n} trials" for k in layers}
        args.out_dir.mkdir(parents=True, exist_ok=True)
        spans_path = args.out_dir / f"{workload.name}-seed{args.seed}-spans.tsv"
        ids = [f"{workload.name}/{workload.streams[r[0]].label.replace(' ', ',')}/{r[1]}"
               for r in results]
        tracer.write_spans(spans_path, ids)
        lines.append(f"spans: {len(tracer.spans)} written to {spans_path}")

    timed = results + traced
    timed_failed = sum(1 for r in timed if r[3] is not None)
    attempted = len(timed) + ref_trials
    failed = timed_failed + ref_failed
    env["load1_end"] = os.getloadavg()[0]
    lines.append(f"python {env['python']}  nproc {env['nproc']}  commit {env['commit']}  "
                 f"source {env['source_sha256']}  load1 {env['load1_start']:.2f} -> "
                 f"{env['load1_end']:.2f}")
    lines.append(f"reference outputs: {ref_note}")
    for name, m in metrics.items():
        lines.append(f"{name:40s} {m['value']:14.6g} {m['unit']:12s} {notes[name]}")
    lines.append(f"{'failure_ratio':40s} {failed / attempted:14.6g} {'ratio':12s} "
                 f"{failed} failed of {attempted} attempted")
    slow_lines, slowest = trial_lines(workload, args.seed, results)
    lines += slow_lines

    out.update(attempted=attempted, failed=failed, failure_ratio=failed / attempted,
               reference=ref_note, metrics=metrics, slowest=slowest,
               trials=[[s, o, round(t * 1000, 4)] for s, o, t, _ in results])
    args.out_dir.mkdir(parents=True, exist_ok=True)
    with open(args.out_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}.json",
              "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    print("\n".join(lines))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
