"""Shared plumbing of the benchmark: paths, statistics, spans, processes.

Nothing here imports :mod:`repro`; the modules that drive the program
import it after :func:`require_source` has put ``src/`` on the path.
"""

from __future__ import annotations

import math
import os
import select
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

#: Root of the checkout the benchmark runs in (the parent of ``perfbench/``).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Generated inputs, oracle answers, WAL files and traces.  Never committed.
CACHE = ROOT / ".perfbench-cache"


def require_source() -> None:
    """Put the program's ``src/`` on ``sys.path``; fail when it is absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {SRC / 'repro'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def program_env() -> dict:
    """Environment for child processes that import :mod:`repro`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# ---------------------------------------------------------------------- #
# Statistics
# ---------------------------------------------------------------------- #
def percentile(samples: list[float], fraction: float) -> float:
    """Nearest-rank percentile (no interpolation between samples)."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(samples: list[float], fraction: float) -> float:
    """``percentile`` that refuses to report a tail with < 10 samples beyond it."""
    beyond = len(samples) - math.ceil(fraction * len(samples))
    if beyond < 10:
        raise ValueError(
            f"p{fraction * 100:g} over {len(samples)} samples leaves {beyond} "
            "beyond it; at least 10 are needed"
        )
    return percentile(samples, fraction)


def geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def round_throughputs(outcomes: list["Outcome"]) -> list[float]:
    """Completed operations per second of operation time, round by round."""
    rounds: dict[int, list[float]] = {}
    for outcome in outcomes:
        if outcome.seconds is not None:
            rounds.setdefault(outcome.round, []).append(outcome.seconds)
    return [len(times) / sum(times) for times in rounds.values()]


def latency_metrics(outcomes: list["Outcome"]) -> dict:
    """Throughput, per-type p50 geomean and pooled p90 of completed ops.

    Throughput is the median over rounds: every round makes the same
    calls, and a burst of host contention then slows a few rounds
    instead of the run's total.  An operation that raised has no
    latency; one whose answer failed its checks still took its time and
    counts.
    """
    done = [o for o in outcomes if o.seconds is not None]
    by_type: dict[str, list[float]] = {}
    for outcome in done:
        by_type.setdefault(outcome.kind, []).append(outcome.seconds)
    return {
        "throughput_ops_s": statistics.median(round_throughputs(done)),
        "latency_p50_geomean_ms": geomean(
            [statistics.median(v) * 1e3 for v in by_type.values()]
        ),
        "latency_p90_ms": tail_percentile([o.seconds for o in done], 0.90) * 1e3,
    }


class Outcome:
    """One timed operation: its type, duration, whether it passed checks
    and the round it ran in."""

    __slots__ = ("kind", "seconds", "ok", "round")

    def __init__(self, kind: str, seconds: float | None, ok: bool = True, round: int = 0) -> None:
        self.kind, self.seconds, self.ok, self.round = kind, seconds, ok, round


# ---------------------------------------------------------------------- #
# Host records (kept next to the metrics, not metrics themselves)
# ---------------------------------------------------------------------- #
def calibration_seconds() -> float:
    """A fixed pure-Python loop; drifts with CPU speed and contention."""
    start = time.perf_counter()
    total = 0
    for i in range(300_000):
        total += i * i % 7
    return time.perf_counter() - start


def steal_ticks() -> int:
    """Host-wide steal ticks from ``/proc/stat`` (0 where unavailable)."""
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return 0


def peak_rss_mb(pid: int | str = "self") -> float:
    """``VmHWM`` (peak resident set) of a process, in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM for process {pid}")


# ---------------------------------------------------------------------- #
# Spans
# ---------------------------------------------------------------------- #
class Tracer:
    """In-memory span recorder: name, start, end, parent, operation id.

    Spans nest through an explicit stack (the benchmark is single
    threaded); ``op`` tags every span opened while one timed operation is
    running so its spans can be grouped.  Spans stay in memory; run.py
    writes them out when the run ends.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.op: int | None = None

    @contextmanager
    def span(self, name: str, **attrs):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "op": self.op,
            "start": time.perf_counter(),
            "end": None,
        }
        record.update(attrs)
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.named(name)]

    def self_times(self) -> dict[str, dict]:
        """Per span name: count, total and self seconds (minus children)."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None:
                child_time[span["parent"]] += span["end"] - span["start"]
        summary: dict[str, dict] = {}
        for span in self.spans:
            entry = summary.setdefault(span["name"], {"count": 0, "total_s": 0.0, "self_s": 0.0})
            duration = span["end"] - span["start"]
            entry["count"] += 1
            entry["total_s"] += duration
            entry["self_s"] += duration - child_time[span["id"]]
        return summary


class NullTracer:
    """Stand-in when tracing is off: every span is a shared no-op."""

    op = None
    _null = nullcontext()

    def span(self, name: str, **attrs):
        return self._null


# ---------------------------------------------------------------------- #
# Server processes
# ---------------------------------------------------------------------- #
class ServerProcess:
    """A ``repro serve`` child process, started and awaited to ``listening``."""

    def __init__(self, args: list[str], timeout: float = 60.0) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0", *args],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=program_env(),
            cwd=str(ROOT),
        )
        self.host, self.port = self._await_listening(timeout)

    def _await_listening(self, timeout: float) -> tuple[str, int]:
        # Raw reads on the pipe: a buffered readline could hold the
        # 'listening' line in its buffer while select() sees nothing new.
        deadline = time.monotonic() + timeout
        fd = self.proc.stdout.fileno()
        pending = b""
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                self.kill()
                raise RuntimeError("server did not report 'listening' in time")
            ready, _, _ = select.select([fd], [], [], remaining)
            if not ready:
                continue
            chunk = os.read(fd, 65536)
            if not chunk:
                code = self.proc.wait()
                raise RuntimeError(f"server exited with code {code} before listening")
            pending += chunk
            *lines, pending = pending.split(b"\n")
            for line in lines:
                if line.startswith(b"listening on "):
                    host, _, port = line.decode().split()[-1].rpartition(":")
                    return host, int(port)

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.proc.pid)

    def stop(self, client=None) -> None:
        """Shut down through ``client``'s ``shutdown`` op, else terminate;
        kill what has not exited after 30 s."""
        from repro.errors import ReproError

        if self.proc.poll() is None:
            try:
                if client is None:
                    raise ConnectionError("no client to send 'shutdown' with")
                client.shutdown()
            except (ReproError, OSError):
                self.proc.terminate()
        try:
            self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.kill()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.communicate()
