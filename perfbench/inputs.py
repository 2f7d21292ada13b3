"""The benchmark's generated inputs and the oracle answers they are checked by.

Run as a script it generates every input into ``.perfbench-cache/`` and
computes the independent oracle's answers for them, once per input: the
cache key is a SHA-256 digest of the generated graph / stream, so the
oracle (``repro.eval.ReferenceEngine(use_intervals=True)``, ~25 s of CPU
for all inputs) only reruns when the generator's output changes.  The
``repro compile`` artifact ``mix-served`` attaches to is the program's
own output, not an input: it is compiled again on every run, so a change
to the store is always measured::

    python3 perfbench/inputs.py            # generate + oracle (cached)
    python3 perfbench/inputs.py --force    # recompute the oracle answers

It writes ``.perfbench-cache/inputs.json`` naming every file.  The
benchmark runs it in a child process before it measures anything, so the
generator's and the oracle's memory never count toward ``peak_rss_mb``.

Answers are compared as sets of point rows: each row a tuple of
``(object, time)`` bindings in the query's variable order.  The oracle
file keeps only a row count and a digest per answer.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness import CACHE, require_source  # noqa: E402

#: Graph scale of every workload (200 persons, 80 locations, 20 rooms,
#: 48 windows); see README.md for why the graph does not vary with --seed.
SCALE = "S2"
POSITIVITY = 0.1
DATA_SEED = 13
#: Delta batches the stream of ``delta-served`` is cut into.
STREAM_BATCHES = 12
#: The Table-II mix.
MIX = tuple(f"Q{i}" for i in range(1, 13))
#: Continuous queries registered on the ``delta-served`` server: a cheap
#: join (Q5), cheap (Q9) and heavy (Q11) temporal re-derivation.
REGISTERED = ("Q5", "Q9", "Q11")
#: Ad-hoc reads between delta cycles (families and point-mode answers),
#: one per cycle, each as often (``STREAM_BATCHES`` is a multiple).
ADHOC = ("Q2", "Q4", "Q7")
#: ``(sub, super)`` pairs whose answers must nest on every graph.
CONTAINMENT = (("Q3", "Q2"), ("Q2", "Q1"), ("Q4", "Q2"), ("Q7", "Q8"), ("Q11", "Q12"))
MANIFEST = CACHE / "inputs.json"


# ---------------------------------------------------------------------- #
# Canonical answers
# ---------------------------------------------------------------------- #
def row_set(rows) -> frozenset:
    """A table's point rows as a set of ``((obj, t), ...)`` tuples."""
    return frozenset(tuple((str(obj), int(t)) for obj, t in row) for row in rows)


def wire_row_set(result: dict) -> frozenset:
    """A served answer (``families`` or ``rows`` wire form) as point rows."""
    if result["kind"] == "rows":
        return row_set(result["rows"])
    rows = set()
    for bindings, intervals in result["families"]:
        objects = [str(obj) for _name, obj in bindings]
        for start, end in intervals:
            for t in range(start, end + 1):
                rows.add(tuple((obj, t) for obj in objects))
    return frozenset(rows)


def digest(rows: frozenset) -> dict:
    """Row count plus an order-independent SHA-256 of a row set."""
    lines = sorted(json.dumps(row) for row in rows)
    return {
        "rows": len(lines),
        "sha256": hashlib.sha256("\n".join(lines).encode()).hexdigest(),
    }


def query_text(name: str) -> str:
    from repro.dataflow import PAPER_QUERIES

    return PAPER_QUERIES[name].text


# ---------------------------------------------------------------------- #
# Generation
# ---------------------------------------------------------------------- #
def _config():
    from repro.datagen.scale import SCALE_FACTORS

    return SCALE_FACTORS[SCALE].config(positivity_rate=POSITIVITY, seed=DATA_SEED)


def _write_once(path: Path, text: str) -> None:
    if not path.exists():
        tmp = path.with_suffix(".tmp")
        tmp.write_text(text)
        tmp.replace(path)


def generate() -> dict:
    """Write the graph, its compiled store and the delta stream; return paths."""
    from repro.datagen.contact_tracing import generate_contact_tracing_graph
    from repro.datagen.streaming import contact_tracing_stream
    from repro.model.io import to_json_dict
    from repro.store import compile_graph

    CACHE.mkdir(exist_ok=True)
    graph = generate_contact_tracing_graph(_config())
    graph_text = json.dumps(to_json_dict(graph))
    graph_digest = hashlib.sha256(graph_text.encode()).hexdigest()[:16]
    graph_path = CACHE / f"graph-{graph_digest}.json"
    _write_once(graph_path, graph_text)
    store_path = CACHE / "graph.idx"
    compile_graph(graph, str(store_path))  # atomic: written aside, then renamed

    stream = contact_tracing_stream(_config(), num_batches=STREAM_BATCHES)
    stream_text = json.dumps(
        {"initial": stream.initial_payload, "batches": [b.to_json_dict() for b in stream.batches]}
    )
    stream_digest = hashlib.sha256(stream_text.encode()).hexdigest()[:16]
    stream_path = CACHE / f"stream-{stream_digest}.json"
    _write_once(stream_path, stream_text)
    initial_path = CACHE / f"stream-{stream_digest}-initial.json"
    _write_once(initial_path, json.dumps(stream.initial_payload))
    return {
        "graph": str(graph_path),
        "store": str(store_path),
        "stream": str(stream_path),
        "stream_initial": str(initial_path),
        "oracle_mix": str(CACHE / f"oracle-graph-{graph_digest}.json"),
        "oracle_stream": str(CACHE / f"oracle-stream-{stream_digest}.json"),
    }


def load_stream(path: str) -> tuple[dict, list[dict]]:
    payload = json.loads(Path(path).read_text())
    return payload["initial"], payload["batches"]


def replay(initial: dict, batches: list[dict]):
    """The stream's graph after ``batches`` (an independent rebuild)."""
    from repro.model.io import from_json_dict
    from repro.streaming.delta import DeltaBatch, apply_delta

    graph = from_json_dict(initial)
    for batch in batches:
        apply_delta(graph, DeltaBatch.from_json_dict(batch))
    return graph


# ---------------------------------------------------------------------- #
# Oracle
# ---------------------------------------------------------------------- #
def _oracle_task(task: tuple) -> tuple:
    """Answer ``queries`` with the reference engine on one graph state."""
    require_source()
    from repro.eval import ReferenceEngine
    from repro.model.io import from_json_dict

    key, kind, path, epoch, queries = task
    if kind == "graph":
        graph = from_json_dict(json.loads(Path(path).read_text()))
    else:
        initial, batches = load_stream(path)
        graph = replay(initial, batches[:epoch])
    oracle = ReferenceEngine(graph, use_intervals=True)
    return key, {name: digest(row_set(oracle.match(query_text(name)).rows)) for name in queries}


def oracle_tasks(paths: dict) -> dict[str, list[tuple]]:
    """Per oracle file, the tasks that fill it (heaviest first)."""
    heavy = ("Q8", "Q9", "Q10", "Q11", "Q12")
    mix = [("mix", "graph", paths["graph"], None, (name,)) for name in heavy]
    mix.append(("mix", "graph", paths["graph"], None, tuple(q for q in MIX if q not in heavy)))
    # Registered answers are checked at the final epoch (all of them) and,
    # for the cheap Q5, after every cycle; ad-hoc reads after every cycle.
    stream = [(STREAM_BATCHES, "stream", paths["stream"], STREAM_BATCHES, (name,)) for name in REGISTERED]
    stream += [
        (epoch, "stream", paths["stream"], epoch, ("Q5",) + ADHOC)
        for epoch in range(STREAM_BATCHES + 1)
    ]
    return {paths["oracle_mix"]: mix, paths["oracle_stream"]: stream}


def compute_oracle(paths: dict) -> None:
    """Fill every oracle file that does not exist yet."""
    todo = {
        target: tasks
        for target, tasks in oracle_tasks(paths).items()
        if not Path(target).exists()
    }
    if not todo:
        return
    answers: dict[str, dict] = {target: {} for target in todo}
    # Two workers: the oracle is CPU-bound and the host has two cores.
    with ProcessPoolExecutor(max_workers=2, mp_context=get_context("spawn")) as pool:
        futures = [
            (target, pool.submit(_oracle_task, task))
            for target, tasks in todo.items()
            for task in tasks
        ]
        for target, future in futures:
            key, result = future.result()
            answers[target].setdefault(str(key), {}).update(result)
    for target, result in answers.items():
        _write_once(Path(target), json.dumps(result, sort_keys=True))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--force", action="store_true", help="recompute the oracle answers")
    args = parser.parse_args(argv)
    require_source()
    paths = generate()
    if args.force:
        for target in oracle_tasks(paths):
            Path(target).unlink(missing_ok=True)
    compute_oracle(paths)
    MANIFEST.write_text(json.dumps(paths, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
