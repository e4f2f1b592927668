"""Clocks, the timed window, spans and process accounting.

Nothing in here knows a workload.  A workload times each call itself
(``perf_counter`` before and after -- the result is consumed inside the
timed region because every ingest call returns finished arrays) and
hands the two stamps to :meth:`Window.add`.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import time
from pathlib import Path

import numpy as np

clock = time.perf_counter

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def percentile(samples, q: float) -> float:
    return float(np.percentile(np.asarray(samples, dtype=float), q))


def median(samples) -> float:
    return float(statistics.median(samples))


def process_cpu_seconds(pid: int) -> float:
    """user + system CPU a live process (all its threads) has used."""
    with open(f"/proc/{pid}/stat", "rb") as handle:
        # the command name may contain spaces; fields are counted from
        # the closing parenthesis (utime, stime are fields 14 and 15)
        fields = handle.read().rsplit(b")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def peak_rss_mb() -> float:
    """Max RSS of this process plus that of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


class Tracer:
    """In-memory span store, written out once when the run ends.

    A span is ``(id, parent id, name, operation id, start, end)``; spans
    of one operation share its id.  The ledger records spans from its own
    files, around the calls into each layer -- spans inside the program
    are a later change.
    """

    def __init__(self):
        self.spans: list[tuple] = []

    def add(self, name: str, start: float, end: float, parent: int = -1, op: int = -1) -> int:
        self.spans.append((len(self.spans), parent, name, op, start, end))
        return len(self.spans) - 1

    def open(self, name: str, parent: int = -1) -> int:
        """Start a span whose end is set later by :meth:`close`."""
        return self.add(name, clock(), float("nan"), parent)

    def close(self, span: int) -> None:
        identity, parent, name, op, start, _end = self.spans[span]
        self.spans[span] = (identity, parent, name, op, start, clock())

    def write(self, path: Path, header: dict) -> None:
        origin = min((span[4] for span in self.spans), default=0.0)
        document = {
            **header,
            "clock": "perf_counter seconds since the first span",
            "columns": ["id", "parent", "name", "op", "start", "end"],
            "spans": [
                [identity, parent, name, op, start - origin, end - origin]
                for identity, parent, name, op, start, end in self.spans
            ],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(document) + "\n")


#: a window is cut into segments of about this length (whole cycles)
SEGMENT_SECONDS = 0.5


class Window:
    """The timed window of one workload: operations, cycles, segments.

    A *cycle* is the workload's unit of repetition -- one operation for
    the plain workloads, a checkpoint interval for the durable ones, all
    phases of one round-trip for the mixed one, one rewind-and-replay for
    the two whose cost drifts; work between operations of a cycle (a
    checkpoint, say) is inside the window and throughput pays for it.
    The window closes at the first cycle boundary after ``seconds`` have
    passed and ``min_ops`` operations have run.

    A *segment* is about half a second of whole cycles.  Every
    end-to-end timing is the **better quartile over the segments**.  The
    sandbox this runs in is steady for minutes and then, for tens of
    seconds at a time, a third to a half slower (the virtual CPU is
    stalled in many short bursts; measured with a fixed loop).  That
    noise is one-sided -- it only ever slows a segment down -- so the
    better quartile of segments is a far steadier estimate of what the
    program does than their mean or median, while a change to the
    program moves every segment and therefore the quartile too.

    With a tracer, every second cycle records a span per operation; the
    untraced cycles of the same window are the overhead baseline.
    """

    def __init__(self, seconds: float, min_ops: int, tracer: Tracer | None = None):
        self.seconds = float(seconds)
        self.min_ops = int(min_ops)
        self.tracer = tracer
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.points: list[int] = []
        #: index of the first operation of each cycle, plus a final sentinel
        self.cycle_first_op: list[int] = []
        #: (start, end) of timed work between operations (checkpoints)
        self.other_work: list[tuple[float, float]] = []
        #: (start, end, cpu seconds) of the benchmark's own work inside a
        #: cycle (rewinding a fleet), taken out of wall and CPU alike
        self.skipped: list[tuple[float, float, float]] = []
        #: segment boundaries: (clock, cpu seconds, operations so far,
        #: cycles so far)
        self.boundaries: list[tuple] = []
        self.extra_pids: list[int] = []
        self._root = -1
        self._cycle_span = -1

    # -------------------------------------------------------------- driving

    def start(self, extra_pids=()) -> None:
        """Open the window; ``extra_pids`` are server or worker processes."""
        self.extra_pids = list(extra_pids)
        if self.tracer is not None:
            self._root = self.tracer.open("window")
        self.opened = clock()
        self._boundary(self.opened)

    def _boundary(self, now: float) -> None:
        self.boundaries.append((now, self._cpu_now(), len(self.ends), len(self.cycle_first_op)))

    def open_cycle(self) -> bool:
        """True while another cycle should run; marks the cycle boundary."""
        now = clock()
        if self.cycle_first_op and self._traced_cycle():
            self.tracer.close(self._cycle_span)
        done = now - self.opened >= self.seconds and len(self.ends) >= self.min_ops
        if self.cycle_first_op and (done or now - self.boundaries[-1][0] >= SEGMENT_SECONDS):
            self._boundary(now)
        if done:
            self.closed = now
            self.cycle_first_op.append(len(self.ends))
            if self.tracer is not None:
                self.tracer.close(self._root)
            return False
        self.cycle_first_op.append(len(self.ends))
        if self._traced_cycle():
            self._cycle_span = self.tracer.open("cycle", self._root)
        return True

    def _traced_cycle(self) -> bool:
        return self.tracer is not None and len(self.cycle_first_op) % 2 == 0

    def add(self, name: str, start: float, end: float, points: int) -> None:
        self.names.append(name)
        self.starts.append(start)
        self.ends.append(end)
        self.points.append(points)
        if self._traced_cycle():
            self.tracer.add(name, start, end, self._cycle_span, len(self.ends) - 1)

    def add_work(self, name: str, start: float, end: float) -> None:
        """Timed work between operations: inside the window, not a sample."""
        self.other_work.append((start, end))
        if self.tracer is not None:
            self.tracer.add(name, start, end, self._root)

    def skip(self, work) -> None:
        """Run ``work()`` now, outside the measurement: the benchmark's own
        housekeeping between two operations of a cycle."""
        cpu = self._cpu_now()
        start = clock()
        work()
        self.skipped.append((start, clock(), self._cpu_now() - cpu))

    def _cpu_now(self) -> float:
        return time.process_time() + sum(
            process_cpu_seconds(pid) for pid in self.extra_pids
        )

    # ------------------------------------------------------------- segments

    def _segments(self) -> range:
        return range(len(self.boundaries) - 1)

    def _skipped_in(self, k: int, column: int) -> float:
        first, last = self.boundaries[k][0], self.boundaries[k + 1][0]
        return sum(
            (entry[1] - entry[0]) if column == 0 else entry[2]
            for entry in self.skipped
            if first <= entry[0] < last
        )

    def _segment_wall(self, k: int) -> float:
        return self.boundaries[k + 1][0] - self.boundaries[k][0] - self._skipped_in(k, 0)

    def _segment_cpu(self, k: int) -> float:
        return self.boundaries[k + 1][1] - self.boundaries[k][1] - self._skipped_in(k, 1)

    def _segment_points(self, k: int) -> int:
        return int(sum(self.points[self.boundaries[k][2] : self.boundaries[k + 1][2]]))

    # -------------------------------------------------------------- reading

    @property
    def ops(self) -> int:
        return len(self.ends)

    def durations(self) -> np.ndarray:
        return np.asarray(self.ends) - np.asarray(self.starts)

    def segment_rates(self) -> list[float]:
        return [self._segment_points(k) / self._segment_wall(k) for k in self._segments()]

    def points_per_s(self) -> float:
        """Upper quartile of the segments' rates."""
        return percentile(self.segment_rates(), 75)

    def latency_ms(self, q: float) -> float:
        """Lower quartile, over segments, of each one's q-th percentile of
        per-operation wall time."""
        spans = self.durations()
        return 1e3 * percentile(
            [
                percentile(spans[self.boundaries[k][2] : self.boundaries[k + 1][2]], q)
                for k in self._segments()
            ],
            25,
        )

    @property
    def cpu_seconds(self) -> float:
        """CPU of this process and the extra pids over the whole window."""
        return self.boundaries[-1][1] - self.boundaries[0][1]

    def cpu_us_per_point(self) -> float:
        """Lower quartile of the segments' CPU per point."""
        return 1e6 * percentile(
            [self._segment_cpu(k) / self._segment_points(k) for k in self._segments()], 25
        )

    def trace_overhead_share(self) -> float:
        """What recording spans adds to a cycle, as a share of a cycle.

        Spans are appended between operations, so tracing can only widen
        the gaps (cycle wall minus time inside operations and other timed
        work).  Comparing the gaps of traced and untraced cycles keeps the
        unequal cost of the operations themselves out of it.
        """
        first = np.asarray(self.cycle_first_op)
        edges = np.concatenate([np.asarray(self.starts)[first[:-1]], [self.closed]])
        walls = np.diff(edges)
        busy = np.concatenate([[0.0], np.cumsum(self.durations())])
        gaps = walls - np.diff(busy[first])
        for start, end, *_cpu in self.other_work + self.skipped:
            gaps[np.searchsorted(edges, start, side="right") - 1] -= end - start
        if gaps[1::2].size == 0:
            return 0.0
        return (median(gaps[1::2]) - median(gaps[0::2])) / median(walls)
