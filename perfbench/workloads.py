"""The three workloads: cold set-up, one whole round of timed operations,
and the checks every answer goes through.

Each workload drives a real entry point of the program:

* ``mix-inproc`` — ``DataflowEngine(graph, kernel="columnar")`` in this
  process, the twelve Table-II queries as MATCH text, every answer read
  in full through the table's ``rows``;
* ``mix-served`` — a ``repro serve --store`` child process attached to a
  ``repro compile`` artifact, the same twelve queries by paper alias
  over one ``ServerClient`` connection, full answers (no ``limit``);
* ``delta-served`` — a ``repro serve --wal`` child process holding the
  stream's initial graph with three registered queries; a round applies
  the whole stream, one delta cycle per batch (``apply_delta``, then
  every registered ``table``, then one ad-hoc ``query`` read).

The operation order of every round is drawn from ``--seed``; the graph
and stream are fixed (see README.md).  Traced and untraced rounds make
the same calls; with a tracer each operation's span also carries what
the served response says of the server's share.
"""

from __future__ import annotations

import gc
import itertools
import json
import random
import time
from pathlib import Path

from harness import CACHE, NullTracer, Outcome, ServerProcess, peak_rss_mb
from inputs import (
    ADHOC,
    CONTAINMENT,
    MIX,
    REGISTERED,
    digest,
    load_stream,
    query_text,
    row_set,
    wire_row_set,
)


class Checker:
    """Compares answers with the stored oracle answers.

    ``failures`` lists wrong answers (oracle, epoch and containment
    checks); ``errors`` lists operations that raised and so gave no
    answer to check.  The first answer seen for an expected key is reduced to point rows
    and its digest compared with the oracle's; once it matches, later
    answers for the key are compared with that validated answer in its
    cheap native form (a row set or the wire list).
    """

    def __init__(self, expected: dict[str, dict]) -> None:
        self.expected = expected
        self._validated: dict[str, object] = {}
        self.rows: dict[str, frozenset] = {}
        self.failures: list[str] = []
        self.errors: list[str] = []

    def check(self, key: str, native, point_rows) -> bool:
        known = self._validated.get(key)
        if known is not None:
            if native == known:
                return True
            self.failures.append(f"{key}: answer differs from the validated one")
            return False
        rows = point_rows()
        got, want = digest(rows), self.expected[key]
        if got != want:
            self.failures.append(f"{key}: {got['rows']} rows, oracle has {want['rows']}")
            return False
        self._validated[key] = native
        self.rows[key] = rows
        return True

    def fail(self, message: str) -> bool:
        self.failures.append(message)
        return False

    def containment_violations(self) -> set[str]:
        """Sub-queries of :data:`CONTAINMENT` pairs whose answers do not nest."""
        bad = set()
        for sub, sup in CONTAINMENT:
            if sub in self.rows and sup in self.rows and not self.rows[sub] <= self.rows[sup]:
                self.failures.append(f"{sub} is not contained in {sup}")
                bad.add(sub)
        return bad


def _timed(tracer, kind: str, call):
    """Run ``call`` as one timed operation.

    Returns ``(seconds, value, span)``; ``span`` is None untraced.
    """
    with tracer.span("op", kind=kind) as span:
        start = time.perf_counter()
        value = call()
        return time.perf_counter() - start, value, span


class Workload:
    """Base: a workload is set up cold, then run in whole rounds."""

    name = ""
    #: Served workloads whose every round needs a fresh server.
    setup_each_round = False
    #: Cold set-ups per run (rounds, when ``setup_each_round``);
    #: ``setup_s`` is their median.
    setups = 7

    def __init__(self, paths: dict, seed: int) -> None:
        self.paths = paths
        self.rng = random.Random(seed)
        self._op_ids = itertools.count()

    def setup(self) -> float:
        raise NotImplementedError

    def round(self, tracer) -> list[Outcome]:
        raise NotImplementedError

    def rss_mb(self) -> float:
        raise NotImplementedError

    def finish(self, outcomes: list[Outcome]) -> None:
        """Run-level property checks; mark the operations they fail."""

    def teardown(self) -> None:
        """Release what :meth:`setup` started."""

    def annotate(self, span: dict, value) -> None:
        """Copy what an operation's answer says about itself onto its span."""

    def _op(self, outcomes, tracer, kind, call, check) -> None:
        """One operation: time ``call``, then check its answer untimed.

        An exception in the call, or a failed or raising check, counts
        the operation as failed; the run goes on.
        """
        tracer.op = next(self._op_ids)
        try:
            seconds, value, span = _timed(tracer, kind, call)
        except Exception as error:  # noqa: BLE001 - any failure is a failed op
            self.checker.errors.append(f"{kind}: {type(error).__name__}: {error}")
            outcomes.append(Outcome(kind, None, False))
            return
        if span is not None:
            self.annotate(span, value)
        try:
            ok = check(value)
        except Exception as error:  # noqa: BLE001
            ok = self.checker.fail(f"{kind}: check raised {type(error).__name__}: {error}")
        outcomes.append(Outcome(kind, seconds, ok))


class _MixChecks:
    def finish(self, outcomes: list[Outcome]) -> None:
        bad = self.checker.containment_violations()
        for outcome in outcomes:
            if outcome.kind in bad:
                outcome.ok = False


# ---------------------------------------------------------------------- #
# mix-inproc
# ---------------------------------------------------------------------- #
class MixInproc(_MixChecks, Workload):
    name = "mix-inproc"
    #: Cheap (~0.25 s) and the noisiest of the set-ups: take more.
    setups = 15

    def __init__(self, paths: dict, seed: int) -> None:
        from repro.lang.translate import compile_match

        super().__init__(paths, seed)
        self.checker = Checker(json.loads(Path(paths["oracle_mix"]).read_text())["mix"])
        self.texts = {name: query_text(name) for name in MIX}
        self.engine = None
        self.covered: dict[str, bool] = {}
        self._compile_match = compile_match

    def setup(self) -> float:
        from repro.dataflow import DataflowEngine
        from repro.model.io import load_json

        self.engine = None
        gc.collect()
        start = time.perf_counter()
        engine = DataflowEngine(load_json(self.paths["graph"]), kernel="columnar")
        for name in MIX:
            engine.match(self.texts[name]).rows
        seconds = time.perf_counter() - start
        self.engine = engine
        if not self.covered:
            self.covered = {
                name: not engine.explain(self.texts[name])["kernel_fallback"] for name in MIX
            }
        return seconds

    def _read(self, text: str):
        return self.engine.match(text).rows

    def _read_traced(self, tracer, name: str):
        with tracer.span("lang.compile_match"):
            compiled = self._compile_match(self.texts[name])
        with tracer.span("dataflow.prepare"):
            plan = self.engine.prepare(compiled)
        kernel = "perf.columnar.eval" if self.covered[name] else "dataflow.fallback_eval"
        with tracer.span(kernel):
            table = self.engine.match_with_stats(plan).table
        with tracer.span("eval.bindings.expand") as span:
            rows = table.rows
            span["rows"] = len(rows)
        return rows

    def round(self, tracer) -> list[Outcome]:
        outcomes: list[Outcome] = []
        traced = not isinstance(tracer, NullTracer)
        for name in self.rng.sample(MIX, len(MIX)):
            if traced:
                call = lambda name=name: self._read_traced(tracer, name)  # noqa: E731
            else:
                call = lambda text=self.texts[name]: self._read(text)  # noqa: E731
            self._op(
                outcomes, tracer, name, call,
                lambda rows, name=name: self.checker.check(
                    name, frozenset(rows), lambda: row_set(rows)
                ),
            )
        return outcomes

    def rss_mb(self) -> float:
        return peak_rss_mb()

    def teardown(self) -> None:
        self.engine = None


# ---------------------------------------------------------------------- #
# Served workloads
# ---------------------------------------------------------------------- #
class _Served(Workload):
    """Shared by the served workloads: one server, one client connection."""

    def __init__(self, paths: dict, seed: int) -> None:
        super().__init__(paths, seed)
        self.server: ServerProcess | None = None
        self.client = None

    def _start(self, args: list[str]):
        from repro.server import ServerClient

        self.teardown()
        self.server = ServerProcess(args)
        self.client = ServerClient(self.server.host, self.server.port)
        return self.client

    def annotate(self, span: dict, response: dict) -> None:
        # ``query`` responses carry the server's own evaluation time.
        span["server_seconds"] = response["server"].get("seconds")
        if span["kind"] == "apply_delta":
            span["seeds"] = [
                (update["affected_seeds"], update["total_seeds"])
                for update in response["result"]["queries"].values()
            ]

    def stats(self) -> dict:
        return self.client.stats()["graphs"]["default"]

    def rss_mb(self) -> float:
        return self.server.peak_rss_mb()

    def teardown(self) -> None:
        if self.server is not None:
            self.server.stop(self.client)
            self.client.close()
            self.server = self.client = None

    def _answer(self, key: str | None, epoch: int):
        """A check for one served answer at the expected graph epoch."""

        def check(response: dict) -> bool:
            if response["server"]["epoch"] != epoch:
                return self.checker.fail(
                    f"{key}: served at epoch {response['server']['epoch']}, expected {epoch}"
                )
            if key is None:
                return True
            result = response["result"]
            return self.checker.check(
                key, result[result["kind"]], lambda: wire_row_set(result)
            )

        return check


class MixServed(_MixChecks, _Served):
    name = "mix-served"

    def __init__(self, paths: dict, seed: int) -> None:
        super().__init__(paths, seed)
        self.checker = Checker(json.loads(Path(paths["oracle_mix"]).read_text())["mix"])

    def setup(self) -> float:
        start = time.perf_counter()
        client = self._start(["--store", self.paths["store"]])
        for name in MIX:
            client.query(name)
        return time.perf_counter() - start

    def round(self, tracer) -> list[Outcome]:
        client = self.client
        outcomes: list[Outcome] = []
        for name in self.rng.sample(MIX, len(MIX)):
            self._op(outcomes, tracer, name, lambda name=name: client.query(name), self._answer(name, 0))
        return outcomes


class DeltaServed(_Served):
    name = "delta-served"
    setup_each_round = True

    def __init__(self, paths: dict, seed: int) -> None:
        super().__init__(paths, seed)
        oracle = json.loads(Path(paths["oracle_stream"]).read_text())
        self.checker = Checker(
            {f"{epoch}:{name}": answer for epoch, answers in oracle.items() for name, answer in answers.items()}
        )
        _initial, self.batches = load_stream(paths["stream"])
        self.wal = CACHE / "delta-served.wal"

    def setup(self) -> float:
        self.teardown()
        self.wal.unlink(missing_ok=True)
        start = time.perf_counter()
        args = ["--graph", self.paths["stream_initial"], "--wal", str(self.wal)]
        for name in REGISTERED:
            args += ["--register", name]
        client = self._start(args)
        for name in REGISTERED:
            client.table(name)
        for name in ADHOC:
            client.query(name)
        return time.perf_counter() - start

    def _table_key(self, name: str, epoch: int) -> str | None:
        """Registered answers with an oracle answer at this epoch."""
        key = f"{epoch}:{name}"
        return key if key in self.checker.expected else None

    def round(self, tracer) -> list[Outcome]:
        client = self.client
        outcomes: list[Outcome] = []
        # One ad-hoc read per cycle, each ADHOC query equally often.  The
        # writes are then a fifth of the operations and the pooled p90
        # is their median: with three reads per cycle it was their 30th
        # percentile, where the re-derivation time of a server's hash
        # seed (fast on some seeds, slow on others) moved it most.
        adhoc = [ADHOC[i % len(ADHOC)] for i in range(len(self.batches))]
        self.rng.shuffle(adhoc)
        for epoch, (batch, query) in enumerate(zip(self.batches, adhoc), start=1):
            self._op(outcomes, tracer, "apply_delta", lambda batch=batch: client.apply_delta(batch), self._answer(None, epoch))
            for name in self.rng.sample(REGISTERED, len(REGISTERED)):
                self._op(
                    outcomes, tracer, f"table:{name}", lambda name=name: client.table(name),
                    self._answer(self._table_key(name, epoch), epoch),
                )
            self._op(
                outcomes, tracer, f"query:{query}", lambda query=query: client.query(query),
                self._answer(f"{epoch}:{query}", epoch),
            )
        return outcomes


WORKLOADS = {cls.name: cls for cls in (MixInproc, MixServed, DeltaServed)}
