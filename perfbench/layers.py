"""The traced run's layer probe: spans around calls into each layer.

Every span is opened here, in the benchmark, around a public function of
one layer; the program itself is not instrumented.  The probe has a
fixed size (it does not depend on ``--seconds``), so every traced run
reports every per-layer metric whichever workload it belongs to.  Each
pass records into its own :class:`~harness.Tracer`; the per-layer
metrics are means (per call) or medians (per repeated set-up) of span
durations, or counts carried on span attributes.
"""

from __future__ import annotations

import gc
import statistics
import subprocess
import sys

from harness import CACHE, Tracer, program_env
from inputs import MIX, REGISTERED, load_stream, query_text, replay
from workloads import DeltaServed, MixInproc, MixServed

#: ``(name, unit)`` of every per-layer metric, in BENCHMARK.json order.
PER_LAYER = (
    ("model.io.load_s", "s"),
    ("perf.graph_index.build_s", "s"),
    ("perf.columnar.context_s", "s"),
    ("cli.import_s", "s"),
    ("store.attach_s", "s"),
    ("lang.compile_ms", "ms"),
    ("dataflow.prepare_ms", "ms"),
    ("perf.columnar.eval_ms", "ms"),
    ("perf.columnar.covered_queries", "count"),
    ("dataflow.fallback_eval_ms", "ms"),
    ("eval.bindings.expand_ms", "ms"),
    ("eval.bindings.rows", "count"),
    ("server.service.eval_ms", "ms"),
    ("server.service.overhead_ms", "ms"),
    ("server.protocol.encode_ms", "ms"),
    ("server.protocol.decode_ms", "ms"),
    ("server.protocol.answer_kb", "KiB"),
    ("server.plans.hit_ratio", "ratio"),
    ("server.plans.misses", "count"),
    ("streaming.delta.apply_ms", "ms"),
    ("streaming.engine.rederive_ms", "ms"),
    ("streaming.engine.affected_seed_ratio", "ratio"),
    ("resilience.wal.append_ms", "ms"),
    ("resilience.wal.bytes_per_batch", "B"),
    ("server.protocol.delta_kb", "KiB"),
)

#: Repeats of each set-up layer call (the metric is their median).
SETUP_REPEATS = 5
#: Rounds of each traced mix pass.
MIX_ROUNDS = 3


def _mean_ms(tracer: Tracer, name: str) -> float:
    return statistics.fmean(tracer.durations(name)) * 1e3


def _median_s(tracer: Tracer, name: str) -> float:
    return statistics.median(tracer.durations(name))


def setup_layers(paths: dict, tracer: Tracer) -> dict:
    """Graph load, index build, columnar context, CLI import, store attach."""
    from repro.dataflow import DataflowEngine
    from repro.model.io import load_json
    from repro.perf.graph_index import graph_index_for
    from repro.store import attach

    text = query_text("Q5")
    for _ in range(SETUP_REPEATS):
        with tracer.span("model.io.load_json"):
            graph = load_json(paths["graph"])
        with tracer.span("perf.graph_index.build"):
            graph_index_for(graph)
        engine = DataflowEngine(graph, kernel="columnar")
        plan = engine.prepare(text)
        with tracer.span("perf.columnar.first_call"):
            engine.match_with_stats(plan)
        with tracer.span("perf.columnar.warm_call"):
            engine.match_with_stats(plan)
        with tracer.span("store.attach"):
            attachment = attach(paths["store"])
        attachment.close()
        with tracer.span("cli.import"):
            subprocess.run(
                [sys.executable, "-c", "import repro.cli"], env=program_env(), check=True
            )
    return {
        "model.io.load_s": _median_s(tracer, "model.io.load_json"),
        "perf.graph_index.build_s": _median_s(tracer, "perf.graph_index.build"),
        "perf.columnar.context_s": _median_s(tracer, "perf.columnar.first_call")
        - _median_s(tracer, "perf.columnar.warm_call"),
        "cli.import_s": _median_s(tracer, "cli.import"),
        "store.attach_s": _median_s(tracer, "store.attach"),
    }


def inproc_layers(paths: dict, seed: int, tracer: Tracer) -> tuple[dict, list]:
    """Parse, plan, kernel, fallback and point expansion on the in-process mix."""
    workload = MixInproc(paths, seed)
    workload.setup()
    outcomes = []
    for _ in range(MIX_ROUNDS):
        outcomes += workload.round(tracer)
    workload.finish(outcomes)
    rows = sum(span["rows"] for span in tracer.named("eval.bindings.expand"))
    return {
        "lang.compile_ms": _mean_ms(tracer, "lang.compile_match"),
        "dataflow.prepare_ms": _mean_ms(tracer, "dataflow.prepare"),
        "perf.columnar.eval_ms": _mean_ms(tracer, "perf.columnar.eval"),
        "perf.columnar.covered_queries": sum(workload.covered.values()),
        "dataflow.fallback_eval_ms": _mean_ms(tracer, "dataflow.fallback_eval"),
        "eval.bindings.expand_ms": _mean_ms(tracer, "eval.bindings.expand"),
        "eval.bindings.rows": rows / MIX_ROUNDS,
    }, workload.checker.failures + workload.checker.errors


def protocol_layer(paths: dict, tracer: Tracer) -> dict:
    """Wire encoding and decoding of the mix's answers and the stream's deltas.

    Answers come from the interpreted engine the server runs and are
    encoded as the server encodes them; each encoded line is decoded
    back as the client decodes it.
    """
    from repro.dataflow import DataflowEngine
    from repro.eval.bindings import IntervalBindingTable
    from repro.model.io import load_json
    from repro.server.protocol import decode, encode, families_to_wire, ok_response, rows_to_wire

    engine = DataflowEngine(load_json(paths["graph"]))
    for _ in range(MIX_ROUNDS):
        for name in MIX:
            table = engine.match(query_text(name))
            with tracer.span("server.protocol.encode") as span:
                if isinstance(table, IntervalBindingTable):
                    result = {"kind": "families", "families": families_to_wire(table.families)}
                else:
                    result = {"kind": "rows", "rows": rows_to_wire(table.rows)}
                line = encode(ok_response(result, server={"graph": "default", "epoch": 0}))
                span["bytes"] = len(line)
            with tracer.span("server.protocol.decode"):
                decode(line)
    _initial, batches = load_stream(paths["stream"])
    deltas = [len(encode({"op": "apply_delta", "graph": "default", "batch": batch})) for batch in batches]
    return {
        "server.protocol.encode_ms": _mean_ms(tracer, "server.protocol.encode"),
        "server.protocol.decode_ms": _mean_ms(tracer, "server.protocol.decode"),
        "server.protocol.answer_kb": statistics.fmean(
            span["bytes"] for span in tracer.named("server.protocol.encode")
        ) / 1024,
        "server.protocol.delta_kb": statistics.fmean(deltas) / 1024,
    }


def served_mix_layers(paths: dict, seed: int, tracer: Tracer) -> tuple[dict, list]:
    """Service time, the rest of the round trip, and plan-cache hits."""
    workload = MixServed(paths, seed)
    try:
        workload.setup()
        before = workload.stats()["plan_cache"]
        outcomes = []
        for _ in range(MIX_ROUNDS):
            outcomes += workload.round(tracer)
        after = workload.stats()["plan_cache"]
    finally:
        workload.teardown()
    workload.finish(outcomes)
    ops = tracer.named("op")
    hits, misses = after["hits"] - before["hits"], after["misses"] - before["misses"]
    return {
        "server.service.eval_ms": statistics.fmean(op["server_seconds"] for op in ops) * 1e3,
        "server.service.overhead_ms": statistics.fmean(
            op["end"] - op["start"] - op["server_seconds"] for op in ops
        ) * 1e3,
        "server.plans.hit_ratio": hits / (hits + misses),
    }, workload.checker.failures + workload.checker.errors


def stream_layers(paths: dict, tracer: Tracer) -> dict:
    """Delta apply + index upkeep, re-derivation and WAL appends in-process."""
    from repro.dataflow import DataflowEngine
    from repro.perf.graph_index import graph_index_for
    from repro.resilience.wal import DeltaWAL
    from repro.streaming.delta import DeltaBatch, apply_delta
    from repro.streaming.engine import StreamingEngine

    initial, payloads = load_stream(paths["stream"])
    batches = [DeltaBatch.from_json_dict(payload) for payload in payloads]
    graph = replay(initial, [])
    index = graph_index_for(graph)
    for batch in batches:
        with tracer.span("streaming.delta.apply"):
            index.apply_delta(apply_delta(graph, batch))
    session = StreamingEngine(engine=DataflowEngine(replay(initial, [])))
    for name in REGISTERED:
        session.register(query_text(name), name=name)
    for batch in batches:
        with tracer.span("streaming.engine.apply"):
            session.apply(batch)
    wal_path = CACHE / "probe.wal"
    wal_path.unlink(missing_ok=True)
    with DeltaWAL(wal_path, fsync=True) as wal:
        for batch in batches:
            with tracer.span("resilience.wal.append"):
                wal.append(batch)
    size = wal_path.stat().st_size
    wal_path.unlink()
    apply_ms = _mean_ms(tracer, "streaming.delta.apply")
    return {
        "streaming.delta.apply_ms": apply_ms,
        "streaming.engine.rederive_ms": _mean_ms(tracer, "streaming.engine.apply") - apply_ms,
        "resilience.wal.append_ms": _mean_ms(tracer, "resilience.wal.append"),
        "resilience.wal.bytes_per_batch": size / len(batches),
    }


def served_delta_layers(paths: dict, seed: int, tracer: Tracer) -> tuple[dict, list]:
    """Affected-seed ratio and plan misses of one round."""
    workload = DeltaServed(paths, seed)
    try:
        workload.setup()
        before = workload.stats()["plan_cache"]
        workload.round(tracer)
        after = workload.stats()["plan_cache"]
    finally:
        workload.teardown()
    seeds = [pair for span in tracer.named("op") for pair in span.get("seeds", ())]
    return {
        "streaming.engine.affected_seed_ratio": sum(a for a, _ in seeds) / sum(t for _, t in seeds),
        "server.plans.misses": after["misses"] - before["misses"],
    }, workload.checker.failures + workload.checker.errors


def probe(paths: dict, seed: int) -> tuple[dict, dict, list]:
    """Run every pass; returns ``(metrics, tracers by pass, check failures)``.

    Each pass starts from a collected heap: a graph left over from an
    earlier pass makes gen-2 collections, and so the spans they land in,
    tens of milliseconds longer.
    """
    tracers = {name: Tracer() for name in ("setup", "inproc", "served", "delta", "protocol", "stream")}
    passes = (
        lambda: (setup_layers(paths, tracers["setup"]), []),
        lambda: inproc_layers(paths, seed, tracers["inproc"]),
        lambda: served_mix_layers(paths, seed, tracers["served"]),
        lambda: served_delta_layers(paths, seed, tracers["delta"]),
        lambda: (protocol_layer(paths, tracers["protocol"]), []),
        lambda: (stream_layers(paths, tracers["stream"]), []),
    )
    metrics: dict = {}
    failures: list = []
    for run_pass in passes:
        gc.collect()
        values, failed = run_pass()
        metrics.update(values)
        failures += failed
    return metrics, tracers, failures
