"""Tests of the benchmark itself (not of the program it measures).

    python3 -m pytest perfbench/tests -q

They need no generated inputs: the workloads here are stand-ins that
exercise the run loop, the statistics and the result format.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from workloads import Checker, Workload  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


class FakeWorkload(Workload):
    """Rounds of three operations; every ``fail_every``-th one raises."""

    name = "fake"

    def __init__(self, fail_every: int = 0, wrong: str = "") -> None:
        super().__init__({}, seed=1)
        self.checker = Checker({})
        self.fail_every = fail_every
        self.wrong = wrong
        self.calls = 0
        self.events: list[str] = []

    def setup(self) -> float:
        self.events.append("setup")
        return 0.01

    def _call(self, kind: str):
        self.calls += 1
        if self.fail_every and self.calls % self.fail_every == 0:
            raise RuntimeError("injected failure")
        return kind

    def round(self, tracer):
        self.events.append("round")
        outcomes = []
        for kind in ("a", "b", "c"):
            self._op(
                outcomes, tracer, kind, lambda kind=kind: self._call(kind),
                lambda value: value != self.wrong or self.checker.fail(f"{value} is wrong"),
            )
        return outcomes

    def rss_mb(self) -> float:
        return 10.0


def test_end_to_end_names_and_units_match_benchmark_json():
    spec = [(m["name"], m["unit"]) for m in SPEC["end_to_end"]]
    assert list(run.END_TO_END) == spec
    result = run.run(FakeWorkload(), {}, seed=1, seconds=0.0, trace=False)
    printed = [(name, m["unit"]) for name, m in result["metrics"].items()]
    assert printed == spec


def test_per_layer_names_and_units_match_benchmark_json():
    assert list(layers.PER_LAYER) == [(m["name"], m["unit"]) for m in SPEC["per_layer"]]


def test_workload_names_match_benchmark_json():
    from workloads import WORKLOADS

    assert list(WORKLOADS) == [w["name"] for w in SPEC["workloads"]]


def test_no_tail_percentile_with_fewer_than_ten_samples_beyond():
    with pytest.raises(ValueError):
        harness.tail_percentile([1.0] * 99, 0.90)
    assert harness.tail_percentile([float(i) for i in range(100)], 0.90) == 89.0
    few = [harness.Outcome("a", 0.001) for _ in range(50)]
    with pytest.raises(ValueError):
        harness.latency_metrics(few)


def test_run_keeps_going_until_the_tail_is_backed():
    # Zero seconds asked, yet the loop runs whole rounds up to MIN_OPS.
    outcomes, setup_s, _rss = run.measure(FakeWorkload(), 0.0, harness.NullTracer(), 3)
    assert len(outcomes) >= run.MIN_OPS and len(outcomes) % 3 == 0
    assert len(setup_s) == 3


def test_set_ups_are_spread_over_the_run():
    workload = FakeWorkload()
    _outcomes, setup_s, _rss = run.measure(workload, 0.001, harness.NullTracer(), 3)
    assert len(setup_s) == 3 and workload.events[0] == "setup"
    # Each set-up begins a segment of rounds, not a block at the start.
    assert "setup" in workload.events[workload.events.index("round"):]


def test_throughput_is_the_median_round():
    outcomes = [
        harness.Outcome("a", seconds, round=number)
        for number, seconds in enumerate((0.01, 0.02, 0.5))
        for _ in range(40)
    ]
    assert harness.round_throughputs(outcomes) == pytest.approx([100.0, 50.0, 2.0])
    assert harness.latency_metrics(outcomes)["throughput_ops_s"] == pytest.approx(50.0)


def test_failing_operation_is_counted_not_fatal():
    result = run.run(FakeWorkload(fail_every=3), {}, seed=1, seconds=0.0, trace=False)
    assert result["failed"] == result["attempted"] // 3
    # An operation that raised gave no answer, so no answer was wrong.
    assert result["correct"] is True
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_wrong_answer_is_counted_as_failed_and_not_correct():
    result = run.run(FakeWorkload(wrong="b"), {}, seed=1, seconds=0.0, trace=False)
    assert result["failed"] == result["attempted"] // 3
    assert result["correct"] is False


def test_raising_check_is_a_wrong_answer():
    workload = FakeWorkload()
    outcomes = []
    workload._op(outcomes, harness.NullTracer(), "a", lambda: "a", lambda value: 1 / 0)
    assert not outcomes[0].ok and workload.checker.failures


def test_served_response_is_copied_onto_the_operation_span():
    from workloads import DeltaServed

    tracer = harness.Tracer()
    workload = DeltaServed.__new__(DeltaServed)
    Workload.__init__(workload, {}, seed=1)
    workload.checker = Checker({})
    response = {
        "server": {"epoch": 1},
        "result": {"queries": {"Q9": {"affected_seeds": 3, "total_seeds": 4}}},
    }
    outcomes = []
    workload._op(outcomes, tracer, "apply_delta", lambda: response, lambda value: True)
    (span,) = tracer.named("op")
    assert span["seeds"] == [(3, 4)] and span["server_seconds"] is None


def test_checker_validates_against_the_oracle_digest():
    from inputs import digest

    rows = frozenset({(("p1", 3),), (("p2", 4),)})
    checker = Checker({"Q": digest(rows)})
    assert checker.check("Q", "native", lambda: rows)
    assert checker.check("Q", "native", lambda: pytest.fail("not recomputed"))
    assert not checker.check("Q", "other", lambda: rows)
    wrong = Checker({"Q": digest(rows)})
    assert not wrong.check("Q", "native", lambda: frozenset({(("p1", 3),)}))


def test_spans_record_parent_operation_and_self_time():
    tracer = harness.Tracer()
    tracer.op = 7
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    outer, inner = tracer.spans
    assert inner["parent"] == outer["id"] and inner["op"] == 7
    times = tracer.self_times()
    assert times["outer"]["self_s"] <= times["outer"]["total_s"]


def test_exits_nonzero_without_program_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mix-inproc", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
