#!/usr/bin/env python3
"""Benchmark of temporal regular path queries at the program's entry points.

    python3 perfbench/run.py --workload mix-inproc --seed 1 --seconds 10 --trace 0

Runs one workload (``mix-inproc``, ``mix-served`` or ``delta-served``;
see workloads.py) in a closed loop, one client over one connection, for
``--seconds`` of timed operations, and prints as its last line one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (name ->
value + unit).  ``--trace 0`` reports the end-to-end metrics; ``--trace
1`` runs the workload untraced and traced for half the time each, then
the fixed layer probe (layers.py), and reports the per-layer metrics.
The spans, their self times and the tracing overhead go to
``.perfbench-cache/trace-<workload>-<seed>.json``.

Inputs and oracle answers are prepared first by ``inputs.py`` in a child
process (cached by input digest).  A record of the host — a CPU
calibration loop before and after, steal ticks — goes to stderr and to
``.perfbench-cache/runs.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from harness import (
    CACHE,
    NullTracer,
    Tracer,
    calibration_seconds,
    latency_metrics,
    round_throughputs,
    require_source,
    steal_ticks,
)

HERE = Path(__file__).resolve().parent
#: ``(name, unit)`` of every end-to-end metric, in BENCHMARK.json order.
END_TO_END = (
    ("setup_s", "s"),
    ("throughput_ops_s", "1/s"),
    ("latency_p50_geomean_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)
#: Fewest timed operations in a run (p90 needs >= 10 samples beyond it).
MIN_OPS = 100
#: Wall time past ``--seconds`` after which a run stops starting rounds.
GIVE_UP_AFTER_S = 100


def prepare_inputs() -> dict:
    """Generate inputs and oracle answers in a child process; return paths."""
    subprocess.run([sys.executable, str(HERE / "inputs.py")], check=True, timeout=170)
    return json.loads((CACHE / "inputs.json").read_text())


def measure(workload, seconds: float, tracer, setups: int):
    """Run whole rounds until ``seconds`` of timed operations, in segments
    that each start with a cold set-up.

    The window is cut into ``setups`` segments of equal operation time,
    so the rounds are spread over that many engines or server processes
    and no one process's speed decides the run.  A workload that needs a
    fresh server per round sets up before every round and runs at least
    ``setups`` rounds.  ``setups=0`` keeps what is already set up.
    Returns ``(outcomes, setup samples, peak-RSS samples)``.
    """
    segment, segment_busy = seconds / max(setups, 1), math.inf
    setup_s: list[float] = []
    outcomes: list = []
    rss: list[float] = []
    busy = 0.0
    completed = rounds = 0
    # A workload whose operations all raise never fills the window.
    deadline = time.monotonic() + seconds + GIVE_UP_AFTER_S
    while (busy < seconds or completed < MIN_OPS or len(setup_s) < setups) and (
        time.monotonic() < deadline
    ):
        if workload.setup_each_round or (len(setup_s) < setups and segment_busy >= segment):
            setup_s.append(workload.setup())
            segment_busy = 0.0
        ops = workload.round(tracer)
        for op in ops:
            op.round = rounds
        rounds += 1
        rss.append(workload.rss_mb())
        outcomes += ops
        round_busy = sum(o.seconds for o in ops if o.seconds is not None)
        busy += round_busy
        segment_busy += round_busy
        completed += sum(o.seconds is not None for o in ops)
    workload.finish(outcomes)
    return outcomes, setup_s, rss


def end_to_end(outcomes, setup_s, rss) -> dict:
    values = latency_metrics(outcomes)
    values["setup_s"] = statistics.median(setup_s)
    values["peak_rss_mb"] = statistics.median(rss)
    return values


def run(workload, paths: dict, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the result object to print."""
    if not trace:
        outcomes, setup_s, rss = measure(workload, seconds, NullTracer(), workload.setups)
        values = end_to_end(outcomes, setup_s, rss)
        units = dict(END_TO_END)
        extra_failures: list = []
        rates = round_throughputs(outcomes)
        print(
            f"perfbench: {len(rates)} rounds, per-round throughput min/quartiles/max "
            f"{min(rates):.1f} {' '.join(f'{q:.1f}' for q in statistics.quantiles(rates, n=4))} "
            f"{max(rates):.1f} /s",
            file=sys.stderr,
        )
    else:
        import layers

        plain, _, _ = measure(workload, seconds / 2, NullTracer(), 1)
        loop_tracer = Tracer()
        traced, _, _ = measure(workload, seconds / 2, loop_tracer, 0)
        workload.teardown()
        untraced_e2e, traced_e2e = latency_metrics(plain), latency_metrics(traced)
        overhead = {name: traced_e2e[name] - untraced_e2e[name] for name in untraced_e2e}
        values, tracers, extra_failures = layers.probe(paths, seed)
        units = dict(layers.PER_LAYER)
        tracers["loop"] = loop_tracer
        outcomes = plain + traced
        trace_path = CACHE / f"trace-{workload.name}-{seed}.json"
        trace_path.write_text(json.dumps({
            "workload": workload.name,
            "seed": seed,
            "overhead": {"untraced": untraced_e2e, "traced": traced_e2e, "traced_minus_untraced": overhead},
            "self_times": {name: tracer.self_times() for name, tracer in tracers.items()},
            "spans": {name: tracer.spans for name, tracer in tracers.items()},
        }))
        print(f"perfbench: tracing overhead {json.dumps(overhead)}; spans in {trace_path}", file=sys.stderr)
    for message in workload.checker.errors:
        print(f"perfbench: operation raised: {message}", file=sys.stderr)
    for message in workload.checker.failures + extra_failures:
        print(f"perfbench: check failed: {message}", file=sys.stderr)
    return {
        # False when any answer failed a check (oracle, epoch or
        # containment), in the timed loop or in the layer probe.  An
        # operation that raised gave no answer: it counts as failed only.
        "correct": not workload.checker.failures and not extra_failures,
        "attempted": len(outcomes),
        "failed": sum(not o.ok for o in outcomes),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    require_source()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    paths = prepare_inputs()
    # Everything measured shares one vCPU: this process and the servers
    # it starts (children inherit the affinity).  In a closed loop client
    # and server take turns; a wake-up sent to the other vCPU waits until
    # the hypervisor runs it again, which on a shared host added more
    # run-to-run noise than anything else measured.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    record["calibration_before_s"] = calibration_seconds()
    steal_before, wall_start = steal_ticks(), time.perf_counter()
    workload = WORKLOADS[args.workload](paths, args.seed)
    try:
        result = run(workload, paths, args.seed, args.seconds, bool(args.trace))
    finally:
        workload.teardown()
    record["calibration_after_s"] = calibration_seconds()
    record["steal_ticks"] = steal_ticks() - steal_before
    record["wall_s"] = time.perf_counter() - wall_start
    record["metrics"] = {name: m["value"] for name, m in result["metrics"].items()}
    with open(CACHE / "runs.jsonl", "a") as log:
        log.write(json.dumps(record) + "\n")
    print(f"perfbench: record {json.dumps(record)}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
