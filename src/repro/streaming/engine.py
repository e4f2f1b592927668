"""Multi-series streaming engine: one process, thousands of monitored metrics.

The paper's pitch is that an O(1) online decomposition is cheap enough to
run on *every* monitored metric.  :class:`MultiSeriesEngine` is the serving
layer that makes that concrete: it multiplexes any number of independent
keyed streams over the shared fast kernel, with

* **declarative configuration** -- the engine is built from an
  :class:`~repro.specs.EngineSpec` (:meth:`from_spec`, or the
  :meth:`for_oneshotstl` shorthand): plain JSON-able data naming the
  decomposer/scorer by registry name, with optional per-key
  :class:`~repro.specs.PipelineSpec` overrides so heterogeneous fleets
  (different periods or thresholds per metric class) live in one engine;
  :attr:`spec` reports the configuration in use;
* **one way in, over a columnar fleet kernel** -- ``ingest`` accepts a
  row batch ``[(key, value), ...]``, a columnar batch ``{key: values}`` or
  parallel ``(keys, values)`` arrays, and :meth:`ingest_grid` /
  :meth:`ingest_many` take pre-normalized ``(round_keys, grid)`` pairs;
  every form is normalized (:func:`batch_record`, :func:`grid_record`)
  to the record the write-ahead log holds and applied by the function
  recovery replays the log with -- live ingest *is* replay -- as a
  round-major ``(rounds, keys)`` value grid (row batches that are whole
  rounds over one key list reshape to one, ragged ones split into
  one-row grids) advancing through a single routine
  that routes same-configuration live series through a struct-of-arrays
  :class:`~repro.core.fleet.FleetKernel` -- all planned rounds of the
  batch in one kernel call per cohort, a handful of NumPy array operations
  per point instead of a Python loop -- with outputs *exactly* equal to the
  per-series scalar path (series are grouped by their
  :class:`~repro.specs.PipelineSpec`; warming, incompatible or
  shift-diverging series fall back per series, and a cell the scalar
  path might reject is applied on its own, in input order, so it raises
  at the same observation while the rest of the batch stays batched);
* **columnar results** -- :meth:`ingest_columnar`, :meth:`ingest_grid`
  and :meth:`ingest_many` keep the outputs in struct-of-arrays form as
  an :class:`IngestResult`: parallel ``index``/``value``/``trend``/
  ``seasonal``/``residual``/``anomaly_score``/``is_anomaly``/
  ``detection_residual``/``live`` arrays, with per-row
  :class:`EngineRecord` objects materialized lazily on access -- so the
  fleet kernel's array outputs never detour through per-row Python
  objects unless the caller actually asks for them;
* **per-series lazy initialization** -- the first observation of an unseen
  key creates its pipeline; values are buffered until the configured
  initialization window is full, then the batch initialization phase runs
  and the series goes live;
* **durable sessions** -- :meth:`open` binds the engine to a store
  directory (:class:`~repro.durability.DirectoryCheckpointStore`):
  every ingested batch is appended to a write-ahead log in
  columnar form *before* state advances, :meth:`checkpoint` persists only
  the cohorts that changed since the last checkpoint (per-series progress
  markers make dirtiness detection O(fleet) array reads), and reopening
  the store after a crash recovers the latest consistent manifest and
  replays the surviving WAL prefix bit-identically -- the engine picks up
  the stream exactly where the surviving log ends; a store's directory
  alone rebuilds the engine in another process, the in-memory
  :meth:`snapshot` / :meth:`restore` pair rewinds the same process, and
  :meth:`extract_series` / :meth:`adopt_series` move series between
  engines as the bytes of a store segment;
* **fleet statistics** -- :meth:`fleet_stats` aggregates anomaly counts and
  update-latency percentiles (via
  :func:`repro.streaming.latency.summarize_latencies`) across the fleet.
  Latency is measured per kernel cohort: every kernel block records its
  amortized per-point duration in its group's one ring, one sample per
  round whatever the round's width, so a column reports its group's
  latency, summarized once per group.

A series has exactly one home.  While it is warming or not kernel-eligible
it is an ordinary :class:`~repro.streaming.pipeline.StreamingPipeline`
(plus counters and a latency ring of its own); from its first online
point, in a cohort of any width, it is a column of its cohort's kernel
arrays and nothing else: absorption consumes the scalar objects, every
write (a lone ``process`` too) advances the column, reads (``forecast``,
``series_stats``, ``fleet_stats``) come straight off it, and scalar state
is built afresh, by one function, only for the rare cell the kernel hands
back and for a caller that reads a snapshot as a mapping (a
``checkpoint``, a shard handoff and a ``snapshot`` write the columns as
they are; ``open``, ``adopt_series`` and ``restore`` read them back as
columns).  Either way the outputs are *identical* to running N
independent pipelines by hand -- the test suite asserts this.  Latency is
a measurement, not state: no checkpoint, handoff or snapshot carries a
column's.
"""

from __future__ import annotations

import copy
import enum
import gc
import os
import time
import zlib
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import repeat
from typing import Hashable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from repro.analysis import hotpath
from repro.core.fleet import FleetKernel
from repro.core.nsigma import DEFAULT_MINIMUM_STD, DEFAULT_THRESHOLD, NSigma
from repro.core.oneshotstl import OneShotSTL
from repro.durability import (
    CHECKPOINT_FORMAT_VERSION,
    CheckpointSummary,
    CorruptCheckpointError,
    DirectoryCheckpointStore,
)
from repro.durability.scrub import (
    RECOVERY_POLICIES,
    QuarantinedCohort,
    QuarantinedWalSuffix,
    RecoveryReport,
    ScrubFinding,
    decode_manifest_keys,
    encode_manifest_keys,
)
from repro.durability.format import (
    build_manifest,
    encode_segment,
    encode_wal_record,
    segment_name,
    validate_manifest,
    wal_name,
)
from repro.durability.recovery import (
    STRAY_PART,
    WalWalk,
    check_components,
    read_cohort,
    stray_wal_parts,
    unpack_cohort,
)
from repro.durability.segment import ColumnGroup, encode_columnar_segment
from repro.specs import DecomposerSpec, DetectorSpec, EngineSpec, PipelineSpec
from repro.streaming.buffer import RingBuffer
from repro.streaming.latency import LatencyReport
from repro.streaming.pipeline import StreamingPipeline, StreamRecord
from repro.utils import check_positive_int
from repro.utils import columns as columnar
from repro.utils.columns import Array, Part

__all__ = [
    "CHECKPOINT_FORMAT_VERSION",
    "EngineRecord",
    "EngineSnapshot",
    "FleetStats",
    "IngestResult",
    "MultiSeriesEngine",
    "SeriesStatus",
    "SeriesStats",
    "batch_record",
    "grid_record",
]


class SeriesStatus(str, enum.Enum):
    """Lifecycle status of one keyed series.

    String-valued for backward compatibility: ``SeriesStatus.WARMING ==
    "warming"`` holds, and ``str()``/formatting yield the bare value, so
    code comparing against or logging the old strings keeps working.
    """

    WARMING = "warming"
    LIVE = "live"

    # Python 3.11+ makes plain str-mixin enums render as
    # "SeriesStatus.WARMING"; keep the pre-enum log/format output.
    __str__ = str.__str__
    __format__ = str.__format__


class EngineRecord(NamedTuple):
    """Outcome of ingesting one observation for one key.

    ``record`` is ``None`` while the series is still warming (the value was
    buffered for the initialization window); once the series is live it
    carries the full per-point :class:`StreamRecord`.  A named tuple, like
    the record it carries.
    """

    key: Hashable
    status: SeriesStatus
    record: StreamRecord | None

    @property
    def is_anomaly(self) -> bool:
        return self.record is not None and self.record.is_anomaly


#: a named tuple from the tuple of its fields, in one C call (the class's
#: own ``__new__`` does just that, in Python)
_new = tuple.__new__


class IngestResult:
    """Struct-of-arrays view of one batched ingest: arrays out, records on demand.

    The engine's hot path produces its outputs as parallel NumPy arrays --
    one entry per ingested observation, in (the equivalent) input order --
    and this class hands them to the caller *without* first exploding them
    into per-row :class:`EngineRecord`/:class:`StreamRecord` objects, which
    would otherwise dominate large-fleet ingest cost.

    Columnar fields (all aligned, length ``len(result)``):

    ``index``, ``value``, ``trend``, ``seasonal``, ``residual``,
    ``anomaly_score``, ``is_anomaly``, ``detection_residual``
        The per-point :class:`StreamRecord` fields.  Rows whose series was
        still warming carry NaN (``0``/``False`` for the integer/boolean
        fields) -- check ``live``.
    ``live``
        Boolean mask: ``True`` where the series was live and the row
        carries a real decomposition (the array analogue of
        ``record is not None``).
    ``status``
        Object array of :class:`SeriesStatus` values (derived lazily from
        ``live``).
    ``keys``
        The row keys, as a list.

    The arrays are the one representation: a row the scalar path produced
    is written into them field for field (:meth:`_write`), like a kernel
    row.  Per-row records are materialized *on demand* from the arrays and
    are bit-identical to the records the scalar path built:
    ``result[i]`` builds the i-th :class:`EngineRecord`, iteration and
    :meth:`records` materialize them all, so existing record-oriented
    consumers keep working against a columnar result.
    """

    #: the columnar fields, in the order they cross a process boundary
    #: (a shard worker replies them as a tuple, the router fans them in)
    FIELDS = (
        "index",
        "value",
        "trend",
        "seasonal",
        "residual",
        "anomaly_score",
        "is_anomaly",
        "detection_residual",
        "live",
    )
    __slots__ = (
        "_keys_cycle", "_rounds", *FIELDS, "_floats", "_flags", "_keys", "_status"
    )

    def __init__(self, keys_cycle: list, rounds: int):
        size = len(keys_cycle) * rounds
        self._keys_cycle = list(keys_cycle)
        self._rounds = int(rounds)
        self.index = np.zeros(size, dtype=np.int64)
        # rows of two allocations: a tiny result costs two, not nine
        self._floats = floats = np.empty((6, size))
        floats.fill(np.nan)
        self.value, self.trend, self.seasonal = floats[0], floats[1], floats[2]
        self.residual, self.detection_residual = floats[3], floats[4]
        self.anomaly_score = floats[5]
        self._flags = flags = np.zeros((2, size), dtype=bool)
        self.is_anomaly, self.live = flags[0], flags[1]
        self._keys: list | None = None
        self._status: np.ndarray | None = None

    # ------------------------------------------------------- columnar views

    @property
    def keys(self) -> list[Hashable]:
        """Row keys, aligned with the arrays (read-only by convention)."""
        if self._keys is None:
            if self._rounds <= 1:
                self._keys = list(self._keys_cycle)
            else:
                self._keys = self._keys_cycle * self._rounds
        return self._keys

    @property
    def status(self) -> np.ndarray:
        """Object array of per-row :class:`SeriesStatus` values."""
        if self._status is None:
            status = np.empty(len(self), dtype=object)
            status[:] = SeriesStatus.WARMING
            status[self.live] = SeriesStatus.LIVE
            self._status = status
        return self._status

    def _grids(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The arrays as ``(rounds, width)`` grids of their rows, for a
        kernel block to write by cell: the six float fields stacked in
        :class:`~repro.core.fleet.FleetUpdate`'s order (``value``,
        ``trend``, ``seasonal``, ``residual``, ``detection_residual``,
        ``anomaly_score``), ``index``, and ``is_anomaly`` / ``live``."""
        width = len(self._keys_cycle)
        rounds = len(self) // width
        return (
            self._floats.reshape(6, rounds, width),
            self.index.reshape(rounds, width),
            self._flags.reshape(2, rounds, width),
        )

    # -------------------------------------------------- records on demand

    def _write(self, position: int, engine_record: EngineRecord) -> None:
        """Write a scalar-path record's fields into the arrays at
        ``position`` (a warming record leaves the warming defaults)."""
        record = engine_record.record
        if record is None:
            return
        self.index[position] = record.index
        self.value[position] = record.value
        self.trend[position] = record.trend
        self.seasonal[position] = record.seasonal
        self.residual[position] = record.residual
        self.anomaly_score[position] = record.anomaly_score
        self.is_anomaly[position] = record.is_anomaly
        self.detection_residual[position] = record.detection_residual
        self.live[position] = True

    def __len__(self) -> int:
        return self.index.shape[0]

    def __getitem__(self, position: int | slice) -> "EngineRecord | list[EngineRecord]":
        if isinstance(position, slice):
            return [self[i] for i in range(*position.indices(len(self)))]
        position = int(position)
        size = len(self)
        if position < 0:
            position += size
        if not 0 <= position < size:
            raise IndexError("ingest result position out of range")
        key = self._keys_cycle[position % len(self._keys_cycle)]
        is_anomaly, live = self._flags[:, position].tolist()
        if not live:
            return _new(EngineRecord, (key, SeriesStatus.WARMING, None))
        # ``tolist`` and ``item`` yield the exact Python scalars
        value, trend, seasonal, residual, detection, score = self._floats[
            :, position
        ].tolist()
        record = (
            self.index.item(position),
            value,
            trend,
            seasonal,
            residual,
            score,
            is_anomaly,
            detection,
        )
        return _new(EngineRecord, (key, SeriesStatus.LIVE, _new(StreamRecord, record)))

    def __iter__(self) -> Iterator[EngineRecord]:
        return iter(self.records())

    def records(self) -> "list[EngineRecord]":
        """Materialize every row as an eager :class:`EngineRecord`.

        Bulk-converts the arrays to Python scalars first (``ndarray.tolist``
        yields exact Python floats, so the materialized records are
        bit-identical to eagerly built ones) -- substantially faster than
        per-row array indexing.  For large results the cyclic garbage
        collector is suspended around the loop: the records are acyclic
        (named tuples of scalars), but allocating tens of
        thousands of young objects into one long-lived list otherwise
        triggers repeated generational scans that can double the cost.
        """
        size = len(self)
        if size == 0:
            return []
        if size >= 4096 and gc.isenabled():
            gc.disable()
            try:
                return self._materialize()
            finally:
                gc.enable()
        return self._materialize()

    def _materialize(self) -> "list[EngineRecord]":
        # The live rows' records are built from their fields in
        # StreamRecord's order, then matched to the rows in order.
        live = self.live
        fields = (getattr(self, name)[live].tolist() for name in StreamRecord._fields)
        streams = map(partial(_new, StreamRecord), zip(*fields))
        if live.all():  # a fleet past its warm-up: no Python-level loop
            rows = zip(self.keys, repeat(SeriesStatus.LIVE), streams)
            return list(map(partial(_new, EngineRecord), rows))
        next_stream = streams.__next__
        warming = SeriesStatus.WARMING
        live_status = SeriesStatus.LIVE
        return [
            _new(EngineRecord, (key, live_status, next_stream()))
            if flag
            else _new(EngineRecord, (key, warming, None))
            for key, flag in zip(self.keys, live.tolist())
        ]

    def __repr__(self) -> str:
        return (
            f"IngestResult(rows={len(self)}, live={int(self.live.sum())}, "
            f"anomalies={int(self.is_anomaly.sum())})"
        )


@dataclass(frozen=True, slots=True)
class SeriesStats:
    """Aggregated statistics of a single keyed series."""

    key: Hashable
    status: SeriesStatus
    points: int
    anomalies: int
    latency: LatencyReport | None


@dataclass(frozen=True, slots=True)
class FleetStats:
    """Aggregated statistics of the whole fleet."""

    series_total: int
    series_live: int
    series_warming: int
    points_total: int
    anomalies_total: int
    per_series: dict = field(default_factory=dict)


@dataclass(slots=True)
class _Cohort:
    """One durable checkpoint cohort: its series and its segment.

    ``segment`` and ``crc`` are the name and CRC32 of the segment last
    written for it in this store (``None`` before that; ``crc`` also when
    an older manifest recorded none), ``markers`` each member's progress
    marker (:meth:`MultiSeriesEngine._series_marker`) at that write.
    ``markers=None`` means dirty: the next checkpoint rewrites it.
    """

    members: list
    segment: str | None = None
    crc: int | None = None
    markers: dict | None = None


class _SeriesState:
    """Scalar home of one series: pipeline, warmup buffer, counters and
    its own latency ring.

    What a series is while it is off the kernel, and the shape the
    scalar boundaries speak (the fallback section of a store segment, a
    handoff payload or a snapshot -- every segment of format 3 -- is
    ``{key: _SeriesState}``, and so is a snapshot read as a mapping): the
    module path and the slots are part of the store format.  A state
    built from a kernel column carries an empty ring: the column's
    latency is its group's.
    """

    __slots__ = ("pipeline", "warmup", "live", "points", "anomalies", "latencies")

    def __init__(self, pipeline: StreamingPipeline, latency_window: int):
        self.pipeline = pipeline
        self.warmup: list[float] = []
        self.live = False
        self.points = 0
        self.anomalies = 0
        self.latencies = RingBuffer(latency_window)


#: the per-column latency ring the first format-4 builds saved beside
#: a group's declared arrays: only the names of two sections a reader drops
_RING_ARRAYS = ("latency_counts", "latency_values")
#: what earlier builds also saved, as the kernel state each copies
_COPIES = {
    "indices": lambda kernel: kernel.global_index,
    "monitor_count": lambda kernel: kernel.global_index,
    "last_trend": lambda kernel: kernel.last_trend,
    "solver_sizes": lambda kernel: np.broadcast_to(
        2 * kernel.points_processed, (kernel.iterations, kernel.n_series)
    ),
}


def _image(array: np.ndarray) -> tuple:
    """What a byte-for-byte check of two arrays compares."""
    return array.dtype.str, array.shape, array.tobytes()


class _FleetGroup:
    """Columnar home of one same-spec cohort of live series.

    An absorbed series *is* its column: the :class:`FleetKernel` and the
    per-column totals (points, anomalies) are the only copy of its state
    -- :meth:`absorb` consumes the scalar objects it packs; its next
    record index is its kernel's ``global_index``.
    The detector's moments are the monitor's, so the kernel's score is
    the detector's and the group keeps only its parameters.  Reads index
    the arrays, and so do the store and a shard handoff: a checkpoint or
    an extraction writes a gathered copy of the columns themselves
    (:meth:`save_columns`), and recovery or adoption appends them back
    (:meth:`from_columns`, :meth:`extend`) without a scalar object in
    between, so :attr:`COLUMNS` is part of the store format.
    The one way to scalar form is :meth:`materialize`, which builds
    *fresh* states for the fallback section, the rare cell the kernel
    hands back and columns decoded where they cannot be columns, and
    :meth:`load` takes one back after that cell.

    Latency is the group's, not a column's: a kernel block advances its
    columns together, so its amortized per-point duration is theirs
    alike, and :attr:`latencies` -- one ring -- records it once per round.
    It is a measurement, not state: nothing saves it, and columns that
    join a group bring none along.
    """

    __slots__ = (
        "spec",
        "keys",
        "kernel",
        "threshold",
        "minimum_std",
        "points",
        "anomalies",
        "latencies",
    )

    #: A column, in segment order: the kernel's sections, then the totals
    #: -- points seen (warmup included) and anomalies flagged -- each a
    #: scalar home's (:class:`_SeriesState`) attribute.
    COLUMNS = (
        Part("kernel", FleetKernel),
        Array("points", np.int64, scalar="points"),
        Array("anomalies", np.int64, scalar="anomalies"),
    )

    def __init__(self, spec: PipelineSpec, latency_window: int):
        self.spec = spec
        self.keys: list[Hashable] = []
        self.kernel: FleetKernel | None = None
        #: the spec's NSigma threshold and floor, defaults filled in
        detector = spec.detector.params
        self.threshold = float(detector.get("threshold", DEFAULT_THRESHOLD))
        self.minimum_std = float(detector.get("minimum_std", DEFAULT_MINIMUM_STD))
        columnar.pack(self, ())  # no columns yet
        #: the newest ``latency_window`` per-point update durations of
        #: the group's kernel blocks (and of the cells it handed back)
        self.latencies = RingBuffer(latency_window)

    def absorb(self, members: dict[Hashable, _SeriesState]) -> None:
        """Move a cohort of live series into the columnar arrays at once.

        The states are consumed (their latency rings dropped with them):
        packed into a joining group, one array per declared array, which
        :meth:`extend` appends into the spare capacity the columns carry
        -- one late series joining a large group per round costs O(total
        members), not one full-group copy per cohort.
        """
        states = list(members.values())
        joining = self._blank(len(states))
        joining.keys = list(members)
        joining.kernel = FleetKernel.pack([s.pipeline.decomposer for s in states])
        columnar.pack(joining, states)
        self.extend(joining)

    def _blank(self, n: int) -> "_FleetGroup":
        """A keyless group of this spec sharing its ring: the gathered
        copy a checkpoint saves, or the cohort :meth:`absorb` extends by."""
        group = copy.copy(self)
        group.keys, group.kernel = [], None
        return group

    def save_columns(self, columns: Sequence[int] | np.ndarray) -> ColumnGroup:
        """The members at ``columns`` as the arrays a checkpoint writes:
        one gathered copy per declared array, and a ``meta`` naming the
        pipeline spec and the kernel's resolved hyper-parameters.  No
        scalar object is built, and no latency is written."""
        columns = np.asarray(columns, dtype=np.intp)
        arrays = columnar.to_arrays(columnar.select(self, columns))
        meta = {"spec": self.spec.to_dict(), "kernel": self.kernel.get_params()}
        return ColumnGroup(meta, arrays)

    @classmethod
    def from_columns(
        cls, keys: list, saved: ColumnGroup, latency_window: int
    ) -> "_FleetGroup":
        """A standalone group of ``keys`` from what :meth:`save_columns` wrote.

        No scalar object is built.  ``saved`` comes off a disk, so it is
        checked before it is believed -- the sections and their shapes
        against the declaration, the key count and the hyper-parameters,
        those against the pipeline spec -- and a mismatch raises
        ``ValueError`` / ``KeyError`` / ``TypeError``.  The ring sections
        an earlier build saved (:data:`_RING_ARRAYS`) are dropped unread;
        the detector's moments (``scorer_*``, ``meta["scorer"]``) must be
        the monitor's byte for byte (its count the kernel's
        ``global_index``), the sections of :data:`_COPIES` what they copy,
        and are dropped too.
        """
        meta = saved.meta
        spec = PipelineSpec.from_dict(meta["spec"])
        params = meta["kernel"]
        if (
            spec.decomposer.component_class() is not OneShotSTL
            or spec.detector.component_class() is not NSigma
            or not spec.detector.params.keys() <= {"threshold", "minimum_std"}
            or any(
                params[name] != value
                for name, value in spec.decomposer.params.items()
            )
        ):
            raise ValueError(
                f"columns of {params} do not belong to the pipeline spec "
                f"{meta['spec']}"
            )
        n = len(keys)
        arrays: dict[str, np.ndarray] = {}
        scorer_arrays: dict[str, np.ndarray] = {}
        for name, array in saved.arrays.items():
            if name.startswith("scorer_"):
                scorer_arrays[name[len("scorer_") :]] = array
            elif name not in _RING_ARRAYS:
                arrays[name] = array
        copies = {name: arrays.pop(name) for name in _COPIES if name in arrays}

        def build() -> "_FleetGroup":
            group = cls(spec, latency_window)
            group.kernel = FleetKernel._empty(params, n)
            return group

        group = columnar.from_arrays(cls, arrays, n, FleetKernel._sizes(params), build)
        kernel = group.kernel
        monitor = kernel.global_index, kernel.monitor_mean, kernel.monitor_m2
        if ("scorer" in meta or scorer_arrays) and {
            name: _image(array) for name, array in zip(("count", "mean", "m2"), monitor)
        } != {name: _image(array) for name, array in scorer_arrays.items()}:
            raise ValueError("the detector's moments are not the monitor's")
        for name, array in copies.items():
            if _image(array) != _image(_COPIES[name](kernel)):
                raise ValueError(f"section {name!r} is not what it copies")
        group.keys = list(keys)
        return group

    def extend(self, other: "_FleetGroup") -> int:
        """Append every column of ``other`` (same spec; consumed, its ring
        dropped); returns the first new column."""
        columnar.append(self, other)
        first = len(self.keys)
        self.keys.extend(other.keys)
        return first

    def materialize(self, columns: Sequence[int] | np.ndarray) -> list[_SeriesState]:
        """Fresh scalar states of the members at ``columns``: the one way out.

        One gathered read per declared array, whatever the size of the
        group.  The states alias nothing in the group: the fallback
        section pickles those whose keys JSON cannot carry, the kernel's
        non-finite hand-back or a suspect cell advances one (:meth:`load`
        takes it back), and a snapshot's mapping view or an engine whose
        kernel is disabled keeps those of a decoded group.  A detector is its
        model's monitor with the group's threshold and floor; the latency
        rings are empty (the group's ring is the columns' latency).
        """
        columns = np.asarray(columns, dtype=np.intp)
        states = []
        for model in self.kernel.extract_many(columns):
            scorer = model._residual_monitor.copy()
            scorer.threshold, scorer.minimum_std = self.threshold, self.minimum_std
            pipeline = StreamingPipeline(model, scorer=scorer)
            pipeline._index = model._global_index
            pipeline._initialized = True
            pipeline._spec = self.spec
            state = _SeriesState(pipeline, self.latencies.capacity)
            state.live = True
            states.append(state)
        columnar.unpack(self, columns, states)
        return states

    def remove(self, columns: Sequence[int]) -> None:
        """Drop the members at ``columns``; the survivors close ranks.

        One gathered copy per state array, so a group never carries a
        dead column: whatever leaves, the rest still advance full-width.
        Survivors change column (the caller re-reads ``keys``), and at
        least one must stay: an emptied group is dropped instead.
        """
        keep = np.setdiff1d(np.arange(len(self.keys)), columns)
        columnar.select(self, keep, into=self)
        self.keys = [self.keys[column] for column in keep.tolist()]

    def load(self, column: int, state: _SeriesState) -> None:
        """Take a materialized (and since advanced) member back into
        ``column``; the durations its ring recorded since join the group's."""
        self.kernel.load(column, state.pipeline.decomposer)
        columnar.load(self, column, state)
        self.latencies.extend(state.latencies.to_array())


def _decode_segment(
    source: str,
    saved: list[ColumnGroup],
    states: dict,
    latency_window: int,
    peers: dict[str, _FleetGroup] | None,
) -> tuple[list, list[_FleetGroup]]:
    """``(members, groups)`` of one read segment, validated whole.

    ``members`` is the segment's key order -- every column group's
    ``positions``, the fallback ``states`` in the places left -- and
    ``groups`` one standalone :class:`_FleetGroup` per saved column
    group, each checked against the group of its spec it will join:
    ``peers``' (by spec key; not changed) or an earlier one of this
    segment.  ``peers=None`` -- an engine whose kernel is disabled, or a
    snapshot's mapping view -- decodes every column into a scalar home
    instead, and so do columns saved under another ``minimum_std``: they
    join ``states``.  Nothing of an engine is touched, so a cohort is
    committed only once all of it decoded, and damage found in its last
    group cannot leave the first half-registered.  Everything wrong with
    what a header claims is
    ``CorruptCheckpointError(problem="undecodable")``.
    """
    groups = []
    scalar: dict = {}
    joined = None if peers is None else dict(peers)
    try:
        n_columns = sum(len(columnar.meta["keys"]) for columnar in saved)
        members: list = [None] * (len(states) + n_columns)
        free = set(range(len(members)))
        for columnar in saved:
            keys = list(decode_manifest_keys(columnar.meta["keys"]))
            positions = columnar.meta["positions"]
            taken = set(positions)
            if not len(keys) == len(positions) == len(taken) or not taken <= free:
                raise ValueError(
                    f"positions {positions} do not place {len(keys)} keys "
                    f"in a cohort of {len(members)}"
                )
            free -= taken
            for position, key in zip(positions, keys):
                members[position] = key
            restored = _FleetGroup.from_columns(keys, columnar, latency_window)
            if joined is None or restored.minimum_std != DEFAULT_MINIMUM_STD:
                scalar.update(zip(keys, restored.materialize(range(len(keys)))))
                continue
            # The group these columns will join -- a peer, or an earlier
            # one of this segment -- must be able to take them.
            peer = joined.setdefault(restored.spec.to_json(sort_keys=True), restored)
            if peer.kernel.get_params() != restored.kernel.get_params():
                raise ValueError(
                    f"columns of {restored.kernel.get_params()} cannot join "
                    f"their spec's group of {peer.kernel.get_params()}"
                )
            groups.append(restored)
        for position, key in zip(sorted(free), states):
            members[position] = key
        if len(set(members)) != len(members):
            raise ValueError("a key appears twice in the cohort")
    except (ValueError, KeyError, TypeError) as error:
        raise CorruptCheckpointError(
            f"{source}: cohort segment's columns are malformed "
            f"({type(error).__name__}: {error})",
            problem="undecodable",
        ) from error
    states.update(scalar)
    return members, groups


class EngineSnapshot(Mapping):
    """A whole engine's in-memory rewind point (``MultiSeriesEngine.snapshot()``).

    It holds the bytes of one store segment of every series, in the
    engine's key order (``MultiSeriesEngine._encode_cohort``: the kernel
    columns as they are, the other series in the fallback section), and
    the engine's ``latency_window``, and pickles as those two values.
    :meth:`MultiSeriesEngine.restore` installs the bytes: a column comes
    back a column.

    It is also a read-only ``{key: _SeriesState}`` mapping, in that
    order, for callers that want scalar state: the states are decoded
    once, on the first read, and alias nothing of any engine.  A column's
    state carries an empty latency ring of ``latency_window``.
    """

    __slots__ = ("payload", "latency_window", "_states")

    def __init__(self, payload: bytes, latency_window: int):
        self.payload = payload
        self.latency_window = latency_window
        self._states: dict | None = None

    def __reduce__(self):
        return type(self), (self.payload, self.latency_window)

    def __getitem__(self, key: Hashable) -> _SeriesState:
        return self._scalar_view()[key]

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._scalar_view())

    def __len__(self) -> int:
        return len(self._scalar_view())

    def _scalar_view(self) -> dict:
        if self._states is None:
            source = "snapshot"
            saved, states = unpack_cohort(self.payload, source, _SeriesState)
            members, _ = _decode_segment(
                source, saved, states, self.latency_window, peers=None
            )
            self._states = {key: states[key] for key in members}
        return self._states


#: the grid column of a one-key round's one cell (read-only: every such
#: round's plan shares it)
_LONE_TAKE = np.zeros(1, dtype=np.intp)
_LONE_TAKE.flags.writeable = False


def _latency_report(ring: RingBuffer, label: str) -> LatencyReport | None:
    """``ring``'s durations summarized under ``label``; None while it is empty."""
    return replace(ring.summary(), method=label) if len(ring) else None


def grid_record(round_keys: Sequence[Hashable], grid: np.ndarray) -> tuple:
    """A ``(round_keys, grid)`` pair, checked, as a ``("grid", keys, grid)`` record."""
    round_keys = list(round_keys)
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 2 or grid.shape[1] != len(round_keys):
        raise ValueError(
            "a (round_keys, grid) batch must be a round-major (L, n) "
            f"grid with one column per key; got shape {grid.shape} for "
            f"{len(round_keys)} keys"
        )
    if len(set(round_keys)) != len(round_keys):
        raise ValueError("(round_keys, grid) keys must be unique")
    return "grid", round_keys, grid


def batch_record(batch: dict | tuple | Iterable) -> tuple[tuple, Exception | None]:
    """Any batch :meth:`MultiSeriesEngine.ingest` takes, as ``(record, error)``.

    ``record`` is what the write-ahead log journals and replay applies:
    ``("grid", keys, grid)`` (round-major ``(L, n)``) for a dict,
    ``("rows", keys, values)`` for parallel arrays and ``(key, value)``
    rows.  Rows that do not convert (a malformed row, a value ``float``
    refuses) normalize to the rows ahead of the first such one, and
    ``error`` is the exception to raise once those are applied -- what
    feeding the rows one by one does.  A shape the form itself rules out
    raises here, before anything is journaled.
    """
    if isinstance(batch, dict):
        length = None
        columns = []
        for key, values in batch.items():
            values = np.atleast_1d(np.asarray(values, dtype=float))
            if values.ndim != 1:
                raise ValueError(
                    f"columnar ingest values for key {key!r} must be scalars "
                    "or 1-D arrays"
                )
            if length is None:
                length = values.size
            elif values.size != length:
                raise ValueError(
                    "columnar ingest requires equal-length value arrays; "
                    f"key {key!r} has {values.size} values, expected {length}"
                )
            columns.append(values)
        grid = np.stack(columns, axis=1) if columns else np.zeros((0, 0))
        return ("grid", list(batch), grid), None
    if (
        isinstance(batch, tuple)
        and len(batch) == 2
        and isinstance(batch[1], np.ndarray)
    ):
        keys, values = batch
        values = np.asarray(values, dtype=float)
        if values.ndim != 1 or len(keys) != values.size:
            raise ValueError(
                "parallel-array ingest expects (keys, values) of equal "
                "length with a 1-D value array"
            )
        return ("rows", list(keys), values), None
    rows = list(batch)
    error = None
    try:
        keys = [row[0] for row in rows]
        values = np.array([row[1] for row in rows], dtype=float)
    except (TypeError, ValueError, IndexError):
        keys, converted = [], []
        try:
            for key, value in rows:
                converted.append(float(value))
                keys.append(key)
        except (TypeError, ValueError) as failure:
            error = failure
        values = np.array(converted, dtype=float)
    return ("rows", keys, values), error


class MultiSeriesEngine:
    """A keyed fleet of online decomposition pipelines behind one ingest API.

    An engine is built from a declarative :class:`~repro.specs.EngineSpec`
    -- :meth:`from_spec`, or :meth:`for_oneshotstl` for the common case --
    which is plain data: it can be serialized, shipped to a worker, and
    rebuilt from a checkpoint.  Per-key configuration goes in the spec's
    ``overrides``.

    Every public ingest form (:meth:`process`, :meth:`ingest` rows /
    parallel arrays / ``{key: values}`` dicts, :meth:`ingest_grid`,
    :meth:`ingest_many`) is an adaptor over one commit, so they share
    its contract.  The call normalizes to WAL-shaped records; in a
    durable session (:meth:`open`) the records are journaled as one
    group *before* validation or any state change; each is then applied
    by the function recovery replays a log with.  Application is not
    transactional: a rejected observation (a non-finite value the
    series cannot take, a value that does not convert) raises with every
    earlier observation of its batch applied and every later one not --
    live and at replay alike, so recovery is unaffected, though a caller
    retry-looping a rejected batch grows the log by one dead record per
    attempt.  :attr:`checkpoint_interval` is looked at after the call's
    records are applied, never mid-batch.  Every form advances through
    one grid routine (:meth:`process` is a 1 x 1 grid), and the
    reference they all equal float for float is the engine's
    ``fleet_kernel_enabled = False`` twin, which runs every series
    through its own scalar pipeline.

    Parameters
    ----------
    spec:
        Keyword-only.  The :class:`~repro.specs.EngineSpec` that fully
        configures the engine: the pipelines, and

        * ``initialization_length`` -- the number of leading observations
          buffered per series before its batch initialization phase runs.
          Should cover at least two seasonal periods of the slowest
          configured decomposer (the paper uses about four).  Warmup
          values must be finite (non-finite samples are rejected with
          ``ValueError`` before they can poison the window); once live,
          NaN gaps are handled by the decomposer's own missing-value
          imputation;
        * ``latency_window`` -- the number of most recent per-point
          update durations a latency ring retains for the percentiles in
          :meth:`series_stats` / :meth:`fleet_stats`.  Each kernel group
          keeps one ring, recording every block it advances (a column
          reports its group's), and each series off the kernel one of its
          own.  Recording is two clock reads per block and stays on; WAL
          replay records nothing.
    """

    def __init__(self, *, spec: EngineSpec):
        if not isinstance(spec, EngineSpec):
            raise TypeError(
                f"spec must be an EngineSpec, got {type(spec).__name__}"
            )
        self.spec = spec
        self.initialization_length = spec.initialization_length
        self.latency_window = spec.latency_window
        #: the fleet's roster in first-seen order: a key's scalar home, or
        #: None while the key lives in kernel columns (see ``_absorbed``)
        self._series: dict[Hashable, _SeriesState | None] = {}
        #: routes every write to a live kernel-eligible series through the
        #: columnar fleet kernel; False keeps every series on its scalar
        #: pipeline -- the oracle twin the tests compare against (outputs
        #: are identical either way).
        self.fleet_kernel_enabled = True
        self._groups: dict[str, _FleetGroup] = {}
        self._absorbed: dict[Hashable, tuple[_FleetGroup, int]] = {}
        self._never_absorb: set = set()
        #: ``(round_keys, cohorts)`` of the last all-kernel one-key round
        #: (under True) and of the last wider one (under False)
        #: :meth:`_grid_plan` built; emptied once membership changes
        self._plans: dict[bool, tuple[list, list]] = {}
        # ----- durable-session state (inert until open()/attach_store()) --
        #: series per durable checkpoint cohort: an incremental checkpoint
        #: re-serializes state one cohort at a time, so this bounds both
        #: the write amplification of a single dirty series (one cohort)
        #: and the segment count of a full fleet (n_series / size files).
        self.checkpoint_cohort_size = 64
        #: auto-checkpoint after this many WAL records (None: manual only);
        #: checked after each completed ingest/process call, never mid-batch.
        self.checkpoint_interval: int | None = None
        self._store: DirectoryCheckpointStore | None = None
        self._generation = 0
        self._replaying = False
        self._wal_records_pending = 0
        self._cohort_of: dict[Hashable, int] = {}
        self._cohorts: dict[int, _Cohort] = {}
        self._next_cohort_id = 0
        #: what the last open()/recovery actually did (None before any
        #: recovery; a clean report on undamaged stores)
        self.last_recovery: RecoveryReport | None = None

    # --------------------------------------------------------- construction

    @classmethod
    def from_spec(cls, spec: EngineSpec) -> "MultiSeriesEngine":
        """Build an engine from a declarative :class:`EngineSpec`.

        The spec is plain data: it can come from a JSON file
        (``EngineSpec.from_json``), a checkpoint, or another process.  The
        engine keeps it available as :attr:`spec`.
        """
        return cls(spec=spec)

    @classmethod
    def for_oneshotstl(
        cls,
        period: int,
        initialization_length: int | None = None,
        anomaly_threshold: float = 5.0,
        latency_window: int = 1024,
        **oneshotstl_parameters,
    ) -> "MultiSeriesEngine":
        """Engine whose every series runs a OneShotSTL pipeline.

        ``initialization_length`` defaults to four periods, the paper's
        initialization window.  Extra keyword arguments are forwarded to
        :class:`repro.core.OneShotSTL` and must be primitive values (they
        are stored in the engine's :class:`EngineSpec`, so a store the
        resulting engine checkpoints into reopens from its directory
        alone).
        """
        if initialization_length is None:
            initialization_length = 4 * int(period)

        spec = EngineSpec(
            pipeline=PipelineSpec(
                decomposer=DecomposerSpec(
                    "oneshotstl", {"period": int(period), **oneshotstl_parameters}
                ),
                detector=DetectorSpec(
                    "nsigma", {"threshold": float(anomaly_threshold)}
                ),
            ),
            initialization_length=int(initialization_length),
            latency_window=latency_window,
        )
        return cls.from_spec(spec)

    # ------------------------------------------------------------ streaming

    def process(self, key: Hashable, value: float) -> EngineRecord:
        """Ingest one observation for one series.

        Unknown keys lazily create their pipeline; while the initialization
        window is filling the value is buffered and a ``warming`` record is
        returned.  The observation that completes the window triggers the
        batch initialization phase (still reported as ``warming``: its
        decomposition is part of the initialization result, not an online
        point).

        The observation is a 1 x 1 grid: a live kernel-eligible key is a
        column from its first online point, whether it went live here or
        in a batch, and advances as a one-column kernel run -- so mixing
        ``process`` and ``ingest`` freely is safe (and exactly equal to
        never batching at all).  The run is the column's own, in place:
        one native call reads and writes that column of its group's
        kernel and writes its outputs into the one-row result, and a
        clean run commits by copying the column from the working side --
        nothing else of the group is gathered, copied or scattered, and
        the key's route is planned once until membership changes.

        Journaled as one ``point`` record (see the class docstring for
        what a rejected observation leaves behind); a rejected *first*
        observation does not create the key.
        """
        (record,) = self._commit([("point", key, value)])
        return record

    @hotpath
    def _process_unlogged(self, key: Hashable, value: float) -> EngineRecord:
        """Apply one observation off the kernel: a warming or never
        absorbable key's, or -- through a fresh scalar state of its column
        -- an absorbed key's cell the kernel hands back or the scalar path
        might reject."""
        location = self._absorbed.get(key)
        if location is not None:
            group, column = location
            (state,) = group.materialize([column])
        else:
            state = self._series.get(key)
        if state is None or not state.live:
            # Validated before the key exists: a rejected first
            # observation must not leave a zero-point series behind.
            value = float(value)
            if not np.isfinite(value):
                # Online NaN gaps are imputed by the decomposer, but the
                # batch initialization phase needs finite values; reject the
                # sample up front (without buffering it) instead of letting
                # it poison the window and wedge the series.
                raise ValueError(
                    f"series {key!r} is still warming up and received a "
                    f"non-finite value ({value}); warmup values must be finite"
                )
            if state is None:
                pipeline = StreamingPipeline.from_spec(self.spec.pipeline_for(key))
                state = self._series[key] = _SeriesState(
                    pipeline, self.latency_window
                )
            state.warmup.append(value)
            state.points += 1
            if len(state.warmup) >= self.initialization_length:
                window = np.asarray(state.warmup)
                # Discard the window if initialization fails so the series
                # starts a fresh one instead of retrying the same bad
                # window (and failing) on every subsequent observation.
                state.warmup = []
                state.pipeline.initialize(window)
                state.live = True
            return EngineRecord(key, SeriesStatus.WARMING, None)
        start = time.perf_counter()
        record = state.pipeline.process(value)
        if not self._replaying:
            state.latencies.append(time.perf_counter() - start)
        state.points += 1
        if record.is_anomaly:
            state.anomalies += 1
        if location is not None:
            group.load(column, state)
        return EngineRecord(key, SeriesStatus.LIVE, record)

    def ingest(self, batch: dict | tuple | Sequence) -> list[EngineRecord]:
        """Ingest a batch of observations, batching same-spec series.

        ``batch`` may be

        * a **row iterable** of ``(key, value)`` pairs (the original form),
        * a **columnar batch** ``{key: values}`` mapping each key to a
          scalar or a 1-D array of per-key observations (all arrays must
          share one length ``L``; the batch is equivalent to the
          interleaved rows ``[(key, values[t]) for t in range(L) for key
          in batch]``) -- the fastest input form: it is advanced round by
          round directly from the value grid, without building per-record
          Python tuples or re-deriving the round structure, or
        * **parallel arrays** ``(keys, values)`` -- a sequence of keys plus
          an equal-length NumPy array of values -- which also avoids
          per-record Python tuples on the way in.

        Results come back in (the equivalent) input order as a list of
        :class:`EngineRecord`; multiple values for one key are processed
        oldest first.  :meth:`ingest_columnar` takes the same batches and
        keeps the outcomes columnar.  Live series that share a
        :class:`~repro.specs.PipelineSpec` are advanced together through
        the columnar fleet kernel -- one batched solver step per IRLS
        iteration for the whole cohort -- with results identical to
        processing every observation through :meth:`process`.

        Application is *not* transactional (see the class docstring).
        Only the cells the scalar path might reject leave the batched
        route -- each is applied on its own, at its place in input order
        -- and the stretches between them still advance through the
        kernel.  Callers that need to resume should sanitize values up
        front, or re-submit only the tail of the batch that follows the
        offending observation.  The batch is journaled in normalized,
        columnar form, one record per call.
        """
        return self.ingest_columnar(batch).records()

    def ingest_columnar(self, batch: dict | tuple | Sequence) -> IngestResult:
        """Ingest a batch and keep the results columnar (arrays out).

        Takes every batch :meth:`ingest` takes and advances state exactly
        as it does; the returned :class:`IngestResult` exposes the
        per-point outputs as parallel NumPy arrays and materializes
        :class:`EngineRecord` rows (equal to :meth:`ingest`'s) only on
        demand.
        """
        record, error = batch_record(batch)
        (result,) = self._commit([record], error)
        return result

    def ingest_grid(
        self, round_keys: Sequence[Hashable], grid: np.ndarray
    ) -> IngestResult:
        """Ingest a pre-normalized round-major ``(L, n)`` value grid.

        Equivalent to ``ingest({key: grid[:, j] for j, key in
        enumerate(round_keys)})`` without rebuilding (and re-validating,
        re-stacking) the dict: column ``j`` holds ``L`` consecutive
        observations of ``round_keys[j]``, applied round by round.  This
        is the shard-transport entry point -- a
        :class:`~repro.sharding.ShardRouter` ships each worker its slice
        of a batch as a ``(keys, grid)`` pair, and the worker feeds it
        straight to the engine's batch routine.  The result is an
        :class:`IngestResult`, the form that fans back in as arrays; the
        grid is journaled as one record.
        """
        (result,) = self._commit([grid_record(round_keys, grid)])
        return result

    def ingest_many(self, batches: Sequence) -> list[IngestResult]:
        """Ingest several batches with one WAL group commit.

        Each element of ``batches`` is a columnar batch accepted by
        :meth:`ingest` -- a ``{key: values}`` dict or a pre-normalized
        ``(round_keys, grid)`` pair as in :meth:`ingest_grid`.  State
        advances exactly as the equivalent sequence of :meth:`ingest`
        calls would, and one :class:`IngestResult` is returned per batch,
        in order.

        The difference is durability cadence: in a durable session every
        batch is normalized and encoded up front, the whole group of WAL
        records is appended with *one* flush (one ``fsync`` when the
        store syncs) via ``DirectoryCheckpointStore.wal_append_many``, and only
        then does any state advance.  A crash mid-commit loses at most a
        suffix of the group -- each surviving record is complete -- and
        replay applies the surviving prefix exactly as if those batches
        alone had been ingested.

        A batch rejected by validation (``ValueError`` / ``TypeError``)
        does not stop the batches journaled after it -- replay would
        apply them, and the live engine must not sit behind its own WAL
        -- and the first such error is re-raised after the last batch.
        """
        records = []
        for batch in batches:
            if isinstance(batch, dict):
                records.append(batch_record(batch)[0])
            elif isinstance(batch, tuple) and len(batch) == 2:
                records.append(grid_record(*batch))
            else:
                raise TypeError(
                    "ingest_many() accepts {key: values} dicts or "
                    "(round_keys, grid) pairs; got "
                    f"{type(batch).__name__}"
                )
        return self._commit(records)

    def _commit(self, records: list, error: Exception | None = None) -> list:
        """Journal ``records`` as one group, then apply each: the one way in.

        The records reach state through :meth:`_apply`, the function
        :meth:`_recover` feeds a surviving log to.  Replay swallows a
        record's validation error and goes on; so does this, or the
        engine would sit behind its own log.  The first such error (else
        ``error``, the row the normalizer could not convert past) is
        raised after the group -- and after the auto-checkpoint, which
        therefore only ever drops fully applied records from the log.
        """
        self._wal_append(records)
        results = []
        rejected = None
        for record in records:
            try:
                results.append(self._apply(record))
            except (ValueError, TypeError) as failure:
                rejected = rejected or failure
        interval = self.checkpoint_interval
        if (
            self._store is not None
            and interval is not None
            and self._wal_records_pending >= interval
        ):
            self.checkpoint()
        rejected = rejected or error
        if rejected is not None:
            raise rejected
        return results

    def _apply(self, record: tuple) -> "IngestResult | EngineRecord":
        """Advance state by one WAL-shaped record, live and at replay alike.

        A validation error (``ValueError`` / ``TypeError``) leaves exactly
        the observations ahead of the rejected one applied, whoever calls.
        A ``point`` is a 1 x 1 grid: on an absorbed key, a one-column
        kernel run.
        """
        kind, *parts = record
        if kind == "grid":
            return self._ingest_grid(*parts)
        if kind == "rows":
            return self._ingest_rows(*parts)
        key, value = parts
        return self._ingest_grid([key], np.array([[float(value)]]))[0]

    def _clean_spans(
        self,
        keys: list,
        grid: np.ndarray,
        finite: np.ndarray,
        clean: list,
        result: IngestResult,
        cuts: Sequence[int] = (),
    ) -> Iterator[tuple[int, int]]:
        """Cut a batch *at* the cells the scalar path might reject.

        Yields the row-major spans ``[start, stop)`` between such cells
        for the caller to advance, and applies the cell behind a span on
        its own before handing out the next: a rejection raises at the
        same observation, with the same message, as feeding the cells one
        by one.  Suspect is an infinity anywhere and NaN on a key that is
        not absorbed (it may be warming; on an absorbed series NaN is a
        missing point the kernel imputes), plus the row-major positions
        in ``cuts``.  Conservative is fine -- a harmless cell costs one
        scalar update -- missing one is not.  ``finite`` is
        ``np.isfinite(grid)`` and ``clean`` its per-row ``all``: the
        batch's one screen, whose row flags the caller hands the kernel.
        """
        suspects: list = []
        if False in clean:
            bad = ~finite
            absorbed = self._absorbed
            imputed = np.fromiter(
                (key in absorbed for key in keys), dtype=bool, count=len(keys)
            )
            suspects = np.flatnonzero(bad & ~(np.isnan(grid) & imputed)).tolist()
        if cuts:
            suspects = sorted({*suspects, *cuts})
        n = grid.shape[1]
        start = 0
        for stop in (*suspects, grid.size):
            yield start, stop
            if stop < grid.size:
                row, column = divmod(stop, n)
                result._write(
                    stop, self._process_unlogged(keys[column], grid[row, column])
                )
            start = stop + 1

    def _ingest_rows(self, keys: list, values: np.ndarray) -> IngestResult:
        """Advance parallel ``(keys, values)`` rows as round-major grids.

        A batch that is a whole number of rounds over one repeating unique
        key list -- what a producer emitting round after round builds --
        *is* a grid, and reshapes to one.  Anything else (ragged rounds,
        repeated keys) splits into rounds holding each key's k-th
        occurrence (values for one key apply oldest first); every such
        round is a one-row grid whose outputs land at the rows' input
        positions.  Regrouping reorders rows across keys, so each clean
        span (:meth:`_clean_spans`) regroups on its own, and the rows of
        a key off the kernel when the call starts -- the scalar path may
        reject one, a warm-up window that will not initialize -- are cut
        out to apply alone, in input order.
        """
        if not keys:
            return IngestResult([], 0)
        try:
            width = keys.index(keys[0], 1)
        except ValueError:
            width = len(keys)
        cycle = keys[:width]
        n_rounds, ragged = divmod(len(keys), width)
        if not ragged and len(set(cycle)) == width and keys == cycle * n_rounds:
            return self._ingest_grid(cycle, values.reshape(n_rounds, width))
        result = IngestResult(keys, 1)
        absorbed = self._absorbed
        cuts = [position for position, key in enumerate(keys) if key not in absorbed]
        batch = values[None, :]
        finite = np.isfinite(batch)
        clean = finite.all(axis=1).tolist()
        for start, stop in self._clean_spans(keys, batch, finite, clean, result, cuts):
            occurrence: dict = {}
            rounds: list[tuple[list, list]] = []
            for position in range(start, stop):
                key = keys[position]
                seen = occurrence.get(key, 0)
                occurrence[key] = seen + 1
                if seen == len(rounds):
                    rounds.append(([], []))
                rounds[seen][0].append(key)
                rounds[seen][1].append(position)
            for round_keys, taken in rounds:
                slots = np.array(taken, dtype=np.intp)
                self._advance_grid(
                    round_keys, values[slots][None, :], result, slots, 0, clean
                )
        return result

    def _ingest_grid(self, round_keys: list, grid: np.ndarray) -> IngestResult:
        """Advance a round-major ``(L, n)`` value grid: the one batch routine.

        Each clean span (:meth:`_clean_spans`; almost always the whole
        grid) advances as rectangles: its whole rows as one, and the part
        of a row on either side of a cut.  The grid is screened for
        non-finite values once, here: a rectangle carries its rows' flags.
        """
        n_rounds, n = grid.shape
        result = IngestResult(round_keys, n_rounds)
        finite = np.isfinite(grid)
        clean = finite.all(axis=1).tolist()
        for start, stop in self._clean_spans(round_keys, grid, finite, clean, result):
            while start < stop:
                row, column = divmod(start, n)
                width = min(stop - start, n - column)
                rows = (stop - start) // n if width == n else 1
                self._advance_grid(
                    round_keys[column : column + width],
                    grid[row : row + rows, column : column + width],
                    result,
                    np.arange(start, start + width, dtype=np.intp),
                    n,
                    clean[row : row + rows],
                )
                start += rows * width
        return result

    @hotpath
    def _advance_grid(
        self,
        round_keys: list,
        grid: np.ndarray,
        result: IngestResult,
        slots: np.ndarray,
        stride: int,
        clean: list,
    ) -> None:
        """Advance a clean ``(L, n)`` rectangle; cell ``(l, j)`` lands at
        ``result`` position ``slots[j] + l * stride``.  ``clean[l]`` is
        True when row ``l`` of the batch the rectangle comes from is all
        finite (False: it may hold a missing value for the kernel to
        impute, and the kernel screens it again).

        Every key appears exactly once per round, so the round structure
        is implied by the grid.  Each pass plans the current round
        (:meth:`_grid_plan`): keys on the kernel advance cohort by cohort
        through :meth:`_advance_cohort_block`, keys off it through the
        scalar path first, in column order (one rejected there -- a warm-up
        window that will not initialize -- cuts the round: only the kernel
        cells left of it apply).  While any key is off the kernel the
        rectangle advances a round per pass (the round that completes a
        warming key's window initializes it, the next pass absorbs it);
        then all remaining rounds advance as one block of array operations.
        """
        n_rounds = grid.shape[0]
        row = 0
        while row < n_rounds:
            cohorts, scalar = self._grid_plan(round_keys)
            stop = row + 1 if scalar else n_rounds
            cut, error = (
                self._apply_off_kernel(scalar, grid[row], slots, row * stride, result)
                if scalar
                else (len(round_keys), None)
            )
            for group, columns, takes, full in cohorts:
                if error is not None:
                    ahead = takes < cut
                    columns, takes, full = columns[ahead], takes[ahead], False
                if takes.size:
                    self._advance_cohort_block(
                        group,
                        columns,
                        grid[row:stop, takes],
                        slots[takes] + row * stride,
                        stride,
                        full,
                        result,
                        clean[row:stop],
                    )
            if error is not None:
                raise error
            row = stop

    def _apply_off_kernel(
        self,
        scalar: list,
        values: np.ndarray,
        slots: np.ndarray,
        offset: int,
        result: IngestResult,
    ) -> tuple[int, Exception | None]:
        """Apply one round's off-kernel cells ``[(key, j), ...]`` in column
        order; ``(j, error)`` of the first one rejected, else ``(n, None)``."""
        for key, j in scalar:
            try:
                record = self._process_unlogged(key, values[j])
                result._write(slots[j] + offset, record)
            except (ValueError, TypeError) as error:
                return j, error
        return values.size, None

    def _grid_plan(self, round_keys: list) -> tuple[list, list]:
        """Per-group routing of one round: ``(cohorts, scalar)``.

        Series that went live since the last pass are absorbed first (a
        cohort enters the kernel in the pass after the round that
        initialized it).  ``cohorts`` is
        ``[(group, columns, takes, full), ...]`` for the keys the kernel
        advances (``takes`` are their grid columns; a lone member of a wide
        group is a one-column run); ``scalar`` is ``[(key, j), ...]`` for
        the keys off the kernel path, warming or never absorbable.

        A producer sends the same key list round after round, so a round
        with no key off the kernel keeps its plan: the next call with an
        equal list -- compared key by key, identity then ``==``, as the
        dict lookups it skips would -- gets the same cohorts until
        membership changes (:meth:`_absorb_eligible`, :meth:`_install`,
        :meth:`extract_series`, :meth:`_reset_fleet_groups` drop them).
        One-key rounds -- ``process`` calls -- keep theirs in a slot of
        their own, so they never evict a wider list's plan, and a key
        absorbed already is planned straight from ``_absorbed``.
        """
        if not self.fleet_kernel_enabled:
            return [], list(zip(round_keys, range(len(round_keys))))
        single = len(round_keys) == 1
        plan = self._plans.get(single)
        if plan is not None and plan[0] == round_keys:
            return plan[1], []
        absorbed = self._absorbed
        location = absorbed.get(round_keys[0]) if single else None
        if location is not None:
            group, column = location
            full = column == 0 and len(group.keys) == 1
            columns = np.array((column,), dtype=np.int64)
            cohorts = [(group, columns, _LONE_TAKE, full)]
            self._plans[True] = (list(round_keys), cohorts)
            return cohorts, []
        pending = [key for key in round_keys if key not in absorbed]
        if pending:
            self._absorb_eligible(pending)
        parts: dict[int, tuple[_FleetGroup, list, list]] = {}
        scalar = []
        for j, key in enumerate(round_keys):
            location = absorbed.get(key)
            if location is None:
                scalar.append((key, j))
                continue
            group, column = location
            part = parts.get(id(group))
            if part is None:
                part = parts[id(group)] = (group, [], [])
            part[1].append(column)
            part[2].append(j)
        cohorts = []
        for group, members, taken in parts.values():
            # A whole group in column order is the kernel's full width;
            # any other member list advances in place, in grid order.
            full = len(members) == len(group.keys) and members == list(
                range(len(members))
            )
            cohorts.append(
                (
                    group,
                    np.array(members, dtype=np.int64),
                    np.array(taken, dtype=np.intp),
                    full,
                )
            )
        if not scalar:
            # A copy: the caller may reorder or extend its own list.
            self._plans[single] = (list(round_keys), cohorts)
        return cohorts, scalar

    def _absorb_eligible(self, keys: list) -> None:
        """Absorb every newly eligible live series among ``keys``.

        Cohort-at-a-time, so a fleet that goes live together is packed in
        one shot; a cohort of any width founds its spec's group, so a key
        fed alone is a column from its first online point.
        """
        to_absorb: dict[str, tuple[PipelineSpec, dict]] = {}
        for key in keys:
            if key in self._never_absorb:
                continue
            state = self._series.get(key)
            if state is None or not state.live:
                continue
            spec = self._absorption_spec(key, state)
            if spec is not None:
                _spec, members = to_absorb.setdefault(
                    spec.to_json(sort_keys=True), (spec, {})
                )
                members[key] = state
        if to_absorb:
            self._plans.clear()
        for spec_key, (spec, members) in to_absorb.items():
            group = self._groups.get(spec_key)
            if group is None:
                group = self._groups[spec_key] = _FleetGroup(spec, self.latency_window)
            first = len(group.keys)
            group.absorb(members)
            for column, key in enumerate(members, first):
                # The column is the series now; its scalar home is gone.
                self._series[key] = None
                self._absorbed[key] = (group, column)

    @hotpath
    def _advance_cohort_block(
        self,
        group: _FleetGroup,
        columns: np.ndarray,
        block_values: np.ndarray,
        targets: np.ndarray,
        stride: int,
        full: bool,
        result: IngestResult,
        clean: list,
    ) -> None:
        """Advance one kernel cohort through a ``(rounds, m)`` value block.

        Cell ``(r, j)`` of the block is member ``columns[j]``'s round
        ``r`` and lands at ``result`` position ``targets[j] + r * stride``
        (``targets`` ascend).  One kernel call
        (:meth:`FleetKernel._advance_planes`, the body of
        :meth:`FleetKernel.update_block`) moves the members through every
        round of the block in place -- the whole group as its full width
        when ``full``, else exactly those columns -- splitting internally
        on NaN rounds and replaying the members whose shift search
        triggers as one narrow kernel, their candidate shifts as columns
        of a stacked solve, bit-identically to the scalar path.  When the
        targets are one run of consecutive positions (the cohort's keys
        side by side in the key list: every ``process`` call, every grid
        over one group in column order) the block's cells are a rectangle
        of the result's arrays read as ``(rounds, width)`` grids, and the
        kernel writes its output planes right there; else it writes
        planes of its own, scattered by cell.  The per-member bookkeeping
        -- record indices, point and anomaly totals -- is all batched
        array operations, and the block's amortized per-point duration
        goes into the group's latency ring once per round it advanced; no
        per-row Python objects are built here (records are materialized
        lazily by the :class:`IngestResult`).

        A round that went non-finite under the kernel's unguarded solves
        (a shift-search candidate included) is left uncommitted and ends
        the kernel call early.  It replays key by key through the
        single-key scalar path -- which owns the scorer, the record index
        and the counters, so the values, the error and what is applied
        before an error are the scalar engine's by construction -- and
        the loop resubmits the rest of the block.
        """
        kernel = group.kernel
        threshold = group.threshold
        latencies = group.latencies
        count = np.add.reduce
        floats, index, flags = result._grids()
        width = index.shape[1]
        n_rounds = block_values.shape[0]
        m = columns.size
        first = targets.item(0)
        row, column = divmod(first, width)
        if targets.item(-1) - first == m - 1 and (n_rounds == 1 or stride == width):
            # The block's cells are a rectangle of the result: the kernel
            # writes its planes in place.
            rectangle = slice(column, column + m)
            planes = floats[:, row : row + n_rounds, rectangle]
        else:
            rectangle = None
            planes = np.empty((6, n_rounds, m))
            offsets = stride * np.arange(n_rounds)[:, None]
            cells = np.divmod(targets + offsets, width)
        planes[0] = block_values
        members = None if full else columns
        at = columnar.span(columns)
        done = 0
        while True:
            start = time.perf_counter()
            rounds = kernel._advance_planes(
                planes[:, done:], members, clean[done:]
            )
            if rounds:
                if not self._replaying:
                    per_point = (time.perf_counter() - start) / (rounds * m)
                    if rounds == 1:
                        latencies.append(per_point)
                    else:
                        latencies.extend(np.full(rounds, per_point))
                block = planes[:, done : done + rounds]
                if rectangle is not None:
                    where = (slice(row + done, row + done + rounds), rectangle)
                else:
                    advanced = slice(done, done + rounds)
                    where = (cells[0][advanced], cells[1][advanced])
                    for plane, values in zip(floats, block):
                        plane[where] = values
                hits = block[5] > threshold
                # The record index of round r is global_index before it.
                index[where] = kernel.global_index[at] + np.arange(-rounds, 0)[:, None]
                flags[0][where] = hits
                flags[1][where] = True
                group.points[at] += rounds
                group.anomalies[at] += count(hits)
            done += rounds
            if done == n_rounds:
                return
            for j, key_column in enumerate(columns.tolist()):
                result._write(
                    int(targets[j]) + done * stride,
                    self._process_unlogged(
                        group.keys[key_column], block_values[done, j]
                    ),
                )
            done += 1
            if done == n_rounds:
                return

    def _absorption_spec(self, key: Hashable, state: _SeriesState):
        """Spec to group the live series ``key`` under, or None (never packable).

        A packable series is packable from the moment it is initialized,
        so there is no "not yet": the answer is final either way.  A
        column's detector must score like its monitor, moments included.
        """
        pipeline = state.pipeline
        scorer = pipeline.scorer
        if (
            type(pipeline) is not StreamingPipeline
            or type(scorer) is not NSigma
            or not FleetKernel.eligible(pipeline.decomposer)
            # the detector must be the monitor but for its threshold
            or vars(scorer) | {"threshold": 0}
            != vars(pipeline.decomposer._residual_monitor) | {"threshold": 0}
        ):
            self._never_absorb.add(key)
            return None
        return pipeline.spec

    def forecast(self, key: Hashable, horizon: int) -> np.ndarray:
        """Forecast ``horizon`` values ahead for one live series."""
        state = self._series[key]
        if state is None:
            group, column = self._absorbed[key]
            return group.kernel.forecast(
                column, check_positive_int(horizon, "horizon")
            )
        if not state.live:
            raise RuntimeError(f"series {key!r} is still warming up")
        return state.pipeline.forecast(horizon)

    def _materialized(self, keys: Iterable[Hashable]) -> dict:
        """``{key: scalar state}`` of the given series, in the order given.

        A key off the kernel maps to its own ``_SeriesState`` (the live
        object, not a copy); an absorbed key to a fresh state built from
        its column, one :meth:`_FleetGroup.materialize` per group, so
        exporting a cohort costs a handful of gathered array reads
        rather than per-series indexing.  Nothing in the engine changes.
        """
        states = {key: self._series[key] for key in keys}
        by_group: dict[int, tuple[_FleetGroup, list, list]] = {}
        for key, state in states.items():
            if state is None:
                group, column = self._absorbed[key]
                entry = by_group.setdefault(id(group), (group, [], []))
                entry[1].append(column)
                entry[2].append(key)
        for group, columns, members in by_group.values():
            states.update(zip(members, group.materialize(columns)))
        return states

    def _install(self, members: list, groups: list[_FleetGroup], states: dict) -> None:
        """Make a decoded cohort (:meth:`_decode_cohort`) part of the fleet,
        at recovery and adoption alike: what was a column is a column,
        appended to its spec's group (or founding it), the rest are
        scalar homes."""
        self._plans.clear()
        self._series.update((key, states.get(key)) for key in members)
        for restored in groups:
            spec_key = restored.spec.to_json(sort_keys=True)
            group = self._groups.setdefault(spec_key, restored)
            first = 0 if group is restored else group.extend(restored)
            for column, key in enumerate(restored.keys, first):
                self._absorbed[key] = (group, column)

    def _reset_fleet_groups(self) -> None:
        """Drop all columnar bookkeeping (after replacing ``_series``)."""
        self._groups = {}
        self._absorbed = {}
        self._never_absorb = set()
        self._plans.clear()

    # ------------------------------------------------------------- fleet API

    def __len__(self) -> int:
        return len(self._series)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._series

    def keys(self) -> list[Hashable]:
        """All known series keys, in first-seen order."""
        return list(self._series)

    def live_keys(self) -> list[Hashable]:
        """Keys of the series that completed initialization."""
        return [
            key
            for key, state in self._series.items()
            if state is None or state.live
        ]

    def series_stats(self, key: Hashable) -> SeriesStats:
        """Statistics of a single series; a column's latency is its group's.

        A group's ring holds one sample per round the group advanced,
        whatever the round's width: a full-width round adds its amortized
        per-point duration, a one-column :meth:`process` call its whole
        duration.  So in a group that also serves subset or ``process``
        traffic, every member's percentiles follow that call mix.
        """
        state = self._series[key]
        home = self._absorbed[key][0] if state is None else state
        return self._stats(key, _latency_report(home.latencies, f"series[{key!r}]"))

    def _stats(self, key: Hashable, latency: LatencyReport | None) -> SeriesStats:
        """:class:`SeriesStats` of ``key`` reporting ``latency``."""
        state = self._series[key]
        if state is None:
            group, column = self._absorbed[key]
            live = True
            points = int(group.points[column])
            anomalies = int(group.anomalies[column])
        else:
            live = state.live
            points = state.points
            anomalies = state.anomalies
        return SeriesStats(
            key=key,
            status=SeriesStatus.LIVE if live else SeriesStatus.WARMING,
            points=points,
            anomalies=anomalies,
            latency=latency,
        )

    def fleet_stats(self) -> FleetStats:
        """Aggregate statistics across every series in the fleet.

        Each kernel group's latency ring is summarized once, and its
        members share that report, each under its own ``series[key]``
        label.
        """
        group_reports = {
            id(group): _latency_report(group.latencies, "group")
            for group in self._groups.values()
        }
        per_series = {}
        for key, state in self._series.items():
            label = f"series[{key!r}]"
            if state is None:
                report = group_reports[id(self._absorbed[key][0])]
                latency = None if report is None else replace(report, method=label)
            else:
                latency = _latency_report(state.latencies, label)
            per_series[key] = self._stats(key, latency)
        live = sum(
            1 for stats in per_series.values() if stats.status == SeriesStatus.LIVE
        )
        return FleetStats(
            series_total=len(per_series),
            series_live=live,
            series_warming=len(per_series) - live,
            points_total=sum(stats.points for stats in per_series.values()),
            anomalies_total=sum(stats.anomalies for stats in per_series.values()),
            per_series=per_series,
        )

    def points_total(self) -> int:
        """:attr:`FleetStats.points_total` without the per-series reports:
        one array sum per kernel group plus the scalar homes."""
        scalar = sum(
            state.points for state in self._series.values() if state is not None
        )
        return scalar + sum(
            int(group.points.sum()) for group in self._groups.values()
        )

    # ------------------------------------- series migration (shard handoff)

    def extract_series(self, keys: Iterable[Hashable]) -> bytes:
        """Remove the given series from this engine and return their state.

        The returned bytes are a store segment of exactly these series
        (:meth:`_encode_cohort`, the checkpoint's own codec; no scalar
        object is built for an absorbed series), for :meth:`adopt_series`
        on another engine, in this process or another: the drain half of
        a live shard migration.

        The columns are then removed: the group's survivors close ranks
        (one gathered copy, see ``_FleetGroup.remove``) and keep
        advancing full-width, and a group left empty is dropped.  Durable
        cohorts that held an extracted key are forced dirty, and in a
        durable session the extraction is committed with an immediate
        :meth:`checkpoint` before returning: extraction is a
        control-plane operation with no WAL representation, so the
        manifest must move past it atomically -- otherwise a crash would
        recover the extracted series into *this* engine while another
        engine also serves them.  (The
        migration coordinator holds the returned bytes until the target
        engine has committed its :meth:`adopt_series`; a coordinator
        crash inside that window loses the in-flight series, which is the
        usual hand-off trade against duplicating them.)

        Unknown keys raise ``KeyError`` before anything is touched.
        """
        keys = list(keys)
        unknown = [key for key in keys if key not in self._series]
        if unknown:
            raise KeyError(
                f"cannot extract series not in this engine: {unknown!r}"
            )
        if len(set(keys)) != len(keys):
            raise ValueError("extract_series() keys must be unique")
        payload = self._encode_cohort(keys)
        self._plans.clear()
        for key in keys:
            self._absorbed.pop(key, None)
            self._never_absorb.discard(key)
            del self._series[key]
            cohort_id = self._cohort_of.pop(key, None)
            if cohort_id is not None:
                # The cohort goes dirty: its segment still contains the
                # extracted series, and a clean-reading cohort would let
                # recovery resurrect them.  An emptied one is gone.
                cohort = self._cohorts[cohort_id]
                cohort.members.remove(key)
                cohort.markers = None
                if not cohort.members:
                    del self._cohorts[cohort_id]
        for spec_key, group in list(self._groups.items()):
            gone = [
                column
                for column, key in enumerate(group.keys)
                if key not in self._absorbed
            ]
            if len(gone) == len(group.keys):
                del self._groups[spec_key]
            elif gone:
                group.remove(gone)
                for column, key in enumerate(group.keys):
                    self._absorbed[key] = (group, column)
        if self._store is not None:
            self.checkpoint()
        return payload

    def adopt_series(self, payload: bytes) -> None:
        """Install series extracted from another engine (shard handoff).

        ``payload`` is what :meth:`extract_series` returned.  It is read
        as recovery reads a segment and validated whole first: bytes that
        do not decode, or columns that cannot join this engine's group of
        their spec, raise :class:`~repro.durability.CorruptCheckpointError`
        and keys already present ``ValueError``, with nothing installed.
        (The payload has no checksum of its own: what carried it vouches
        for its bytes, this check for their structure.)  What was a
        column is a column at once -- no ``FleetKernel.pack`` -- and every
        series continues bit-identically to never having moved.

        In a durable session the adoption is committed with an immediate
        :meth:`checkpoint` before returning, so once this method returns
        the migration's target side is crash-safe.
        """
        if not isinstance(payload, (bytes, bytearray)):
            raise TypeError(
                "adopt_series() takes the bytes extract_series() returned, "
                f"got {type(payload).__name__}"
            )
        source = "adopt_series() payload"
        saved, states = unpack_cohort(bytes(payload), source, _SeriesState)
        members, groups = self._decode_cohort(source, saved, states, self._groups)
        duplicates = [key for key in members if key in self._series]
        if duplicates:
            raise ValueError(
                "cannot adopt series already present in this engine: "
                f"{duplicates!r}"
            )
        self._install(members, groups, states)
        if self._store is not None and members:
            self.checkpoint()

    # ------------------------------------------------------ durable sessions

    def __enter__(self) -> "MultiSeriesEngine":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        # A clean exit checkpoints (the WAL is then empty and recovery is
        # instant); an exception skips the checkpoint but keeps the WAL --
        # everything ingested before the failure replays on reopen.
        self.close(checkpoint=exc_type is None)

    @classmethod
    def open(
        cls,
        store: "DirectoryCheckpointStore | str | os.PathLike",
        spec: EngineSpec | None = None,
        recovery: str = "strict",
    ) -> "MultiSeriesEngine":
        """Open a durable engine session on ``store`` (create or recover).

        ``store`` is a :class:`~repro.durability.DirectoryCheckpointStore`
        or the path (``str`` / :class:`os.PathLike`) of its directory.

        * **Empty store**: ``spec`` is required; the engine is built from
          it and the spec is committed to the store's manifest immediately,
          so even a crash before the first :meth:`checkpoint` recovers
          (spec from the manifest, data from the WAL).
        * **Populated store**: the engine is rebuilt from the latest
          consistent manifest -- configuration comes from the manifest, so
          no code-side configuration is needed -- and the surviving WAL
          tail is replayed bit-identically.  Passing ``spec`` is then only
          a cross-check: a mismatch raises ``ValueError``.

        The returned engine is a context manager: ``with
        MultiSeriesEngine.open(...) as engine: ...`` checkpoints on clean
        exit and closes the store either way.  While the session is open,
        every ingested batch is WAL-appended before state advances and
        :meth:`checkpoint` persists dirty cohorts incrementally.

        Two caveats.  *Runtime tuning knobs* --
        :attr:`checkpoint_interval`, :attr:`checkpoint_cohort_size` --
        are process-local, not part of the stream's configuration, so
        they are not stored in the manifest: re-set them after ``open()``
        if you changed the defaults.  And
        pickle is still how two things travel: WAL records (their keys
        and values) and the fallback section of a segment -- series that
        are not kernel columns, in a store or an :meth:`extract_series`
        payload, and every segment a format-3 build wrote.  Those must
        unpickle in the recovering process (classes defined in a script's
        ``__main__`` or in modules absent on the recovery side fail with
        :class:`~repro.durability.CorruptCheckpointError`) and carry
        pickle's trust model; the kernel columns of a segment -- all of
        a default fleet's checkpointed state -- are a JSON header and raw
        arrays, checked structurally and never unpickled.

        ``recovery`` selects the corruption policy.  Every policy reads
        the store through the walk ``store.verify()`` reports from
        (:mod:`repro.durability.recovery`), so they differ only in what
        they do about a damaged cohort segment or a WAL record that does
        not decode (a torn tail is crash debris under every policy, and a
        WAL part past the generation's one file, which only a build that
        rotated the log wrote, is refused by every policy):

        * ``"strict"`` (default): raises
          :class:`~repro.durability.CorruptCheckpointError` naming the
          artifact (and byte offset) -- nothing is modified, nothing is
          silently lost, and ``store.verify().ok`` says beforehand
          whether it will.
        * ``"truncate"``: an undecodable WAL record ends replay there (the
          readable prefix is kept, the rest is dropped and pruned by the
          immediate re-checkpoint); segment damage still raises.
        * ``"quarantine"``: damaged cohort segments and the unreadable
          WAL remainder are *moved aside* into the store's
          ``quarantine/`` directory and recovery continues with every
          unaffected series; the surviving state is re-checkpointed
          immediately so the store is consistent again.  What happened
          -- down to the affected series keys and the records lost -- is
          recorded on ``engine.last_recovery``.
        """
        if recovery not in RECOVERY_POLICIES:
            raise ValueError(
                f"recovery must be one of {RECOVERY_POLICIES}, "
                f"got {recovery!r}"
            )
        if not isinstance(store, DirectoryCheckpointStore):
            store = DirectoryCheckpointStore(store)
        manifest = store.read_manifest()
        if manifest is None:
            if spec is None:
                raise ValueError(
                    f"checkpoint store {store.root} is empty and no "
                    "spec was given: opening a fresh durable session needs "
                    "an EngineSpec (recovery reads it from the manifest)"
                )
            engine = cls.from_spec(spec)
            engine.attach_store(store, checkpoint=False)
            return engine
        manifest = validate_manifest(manifest, store.root)
        if spec is not None:
            # Cross-check before recovery runs: rebuilding segments and
            # replaying the WAL of a large store is expensive, and a
            # mismatched spec fails regardless of what they contain.
            stored = EngineSpec.from_dict(manifest["engine_spec"])
            if stored != spec:
                store.close()
                raise ValueError(
                    f"checkpoint store {store.root} already holds a "
                    "session with a different EngineSpec; recovery always "
                    "uses the stored spec.  Open without spec=, or use a "
                    f"fresh store.  stored={stored!r} given={spec!r}"
                )
        return cls._recover(store, manifest, recovery)

    def attach_store(
        self,
        store: "DirectoryCheckpointStore | str | os.PathLike",
        checkpoint: bool = True,
    ) -> None:
        """Bind this engine to an *empty* store and start journaling.

        The manifest (carrying the engine's spec) is committed immediately
        and the WAL opens, so everything ingested from here on is
        recoverable.  With ``checkpoint=True`` (default) the engine's
        *current* state is persisted right away too -- otherwise series
        that exist now are only durable after the next :meth:`checkpoint`.
        """
        if self._store is not None:
            raise RuntimeError(
                "engine is already attached to a checkpoint store; close() "
                "the current session first"
            )
        if not isinstance(store, DirectoryCheckpointStore):
            store = DirectoryCheckpointStore(store)
        if store.read_manifest() is not None:
            raise ValueError(
                f"checkpoint store {store.root} already holds a "
                "session; use MultiSeriesEngine.open(store) to recover it, "
                "or point attach_store() at a fresh location"
            )
        self._generation = 0
        # Any bookkeeping from a previous session describes segments of the
        # *old* store: dropped, so every cohort reads as dirty and the
        # first checkpoint writes complete segments into this store.
        for cohort in self._cohorts.values():
            cohort.segment = cohort.crc = cohort.markers = None
        # Without a manifest nothing in the store is reachable; a WAL part
        # left behind by a lost one would be replayed as this session's.
        for name in store.list_wals():
            store.wal_delete(name)
        store.write_manifest(
            build_manifest(0, self.spec.to_dict(), [])
        )
        store.wal_start(wal_name(0))
        self._store = store
        self._wal_records_pending = 0
        if checkpoint and self._series:
            self.checkpoint()

    @classmethod
    def _recover(
        cls,
        store: DirectoryCheckpointStore,
        manifest: dict,
        recovery: str = "strict",
    ) -> "MultiSeriesEngine":
        """Rebuild an engine from a validated manifest + segments + WAL tail.

        The store is read through :mod:`repro.durability.recovery`, the
        walk ``store.verify()`` reports from; ``recovery`` only decides
        what happens to a cohort error or a WAL stop (see :meth:`open`).
        """
        source = store.root
        generation = manifest["generation"]
        stray = stray_wal_parts(store, generation)
        if stray:
            # Its records follow the generation's file: replaying the file
            # alone would drop them, under any policy.
            raise CorruptCheckpointError(
                f"{source}/wal/{stray[0]}: {STRAY_PART}", problem="stray_part"
            )
        engine = cls.from_spec(EngineSpec.from_dict(manifest["engine_spec"]))
        quarantined_cohorts: list[QuarantinedCohort] = []
        quarantined_keys: set = set()
        #: damaged segments, moved aside only once recovery cannot refuse
        damaged: list[str] = []
        for cohort in manifest["cohorts"]:
            cohort_id = cohort["id"]
            name = cohort["segment"]
            # The whole cohort is validated before any of it is committed
            # to the engine: damage discovered on the Nth key must not
            # leave keys 0..N-1 half-registered (quarantine keeps going
            # with the rest of the store).
            try:
                saved, states = read_cohort(store, cohort, state_type=_SeriesState)
                members, groups = engine._decode_cohort(
                    f"{source}/{name}", saved, states, engine._groups
                )
            except CorruptCheckpointError as error:
                if recovery != "quarantine":
                    raise
                keys = decode_manifest_keys(cohort.get("keys"))
                if keys is None:
                    # Without the manifest's key list the cohort's WAL
                    # records cannot be filtered out of replay -- they
                    # would fabricate partial series holding only
                    # post-checkpoint points.  That is silent corruption,
                    # so it refuses rather than degrades.
                    raise CorruptCheckpointError(
                        f"{source}/{name}: cannot quarantine this cohort "
                        "-- the manifest records no key list for it "
                        "(checkpoint written by an older build?); recover "
                        "strict from a backup instead",
                        problem=error.problem,
                    ) from error
                if error.problem != "missing":
                    damaged.append(name)
                quarantined_cohorts.append(
                    QuarantinedCohort(cohort_id, name, keys, str(error))
                )
                quarantined_keys.update(keys)
                continue
            engine._install(members, groups, states)
            # Progress markers are taken *before* WAL replay, so they
            # describe what the segment holds: replayed series drift past
            # their marker and read as dirty at the next checkpoint,
            # untouched series stay clean.
            engine._cohorts[cohort_id] = _Cohort(
                members,
                name,
                cohort.get("crc"),
                {key: engine._series_marker(key) for key in members},
            )
            engine._cohort_of.update(dict.fromkeys(members, cohort_id))
        # Under every policy: a spec this process cannot run is the
        # manifest's damage, not a cohort's.
        check_components(manifest, source)
        for name in damaged:
            store.quarantine_segment(name)
        engine._next_cohort_id = max(engine._cohorts, default=-1) + 1
        engine._generation = generation
        engine._store = store
        walk = WalWalk(store, wal_name(generation))
        # _replaying suspends latency recording on every path:
        # the rings hold *observed ingest* durations, and
        # replay-speed timings (on the record-free columnar path, usually
        # much faster) would fabricate post-recovery latency percentiles.
        engine._replaying = True
        try:
            for record in walk:
                if record[0] == "raw_rows":
                    # Unconverted rows, as earlier builds journaled a
                    # malformed batch: its convertible prefix applied.
                    record = batch_record(record[1])[0]
                elif record[0] not in ("grid", "rows", "point"):
                    raise CorruptCheckpointError(
                        f"{source}: unknown WAL record kind {record[0]!r} "
                        "(this build understands grid/rows/raw_rows/point)"
                    )
                record = engine._filter_wal_record(record, quarantined_keys)
                if record is None:
                    continue
                try:
                    engine._apply(record)
                except (ValueError, TypeError):
                    # Rejected live too, after the same partial
                    # application.  Anything else is a failure the
                    # original run did not have, and fails recovery.
                    pass
        finally:
            engine._replaying = False
        stop = walk.stop
        quarantined_wal: list[QuarantinedWalSuffix] = []
        findings: list[ScrubFinding] = []
        if stop is not None and recovery == "strict":
            # Records after a hole would replay into a stream missing its
            # middle.  Nothing on disk has been touched.
            raise CorruptCheckpointError(
                f"{source}/{stop.segment}: WAL is unreadable from "
                f"byte offset {stop.offset}: {stop.reason}.  {walk.frames} "
                f"records precede it, at least {stop.frames_lost} are "
                "unreachable; recovery='truncate' or 'quarantine' keeps "
                "the prefix",
                problem=stop.problem,
            )
        if stop is not None and recovery == "quarantine":
            moved = store.quarantine_wal_suffix(stop.segment, stop.offset)
            quarantined_wal.append(
                QuarantinedWalSuffix(stop.segment, stop.offset, moved, stop.reason)
            )
        elif stop is not None:  # truncate: drop without preserving
            findings.append(
                ScrubFinding(stop.segment, "truncated", stop.reason, fatal=False)
            )
        if stop is not None:
            lost = stop.frames_lost
        else:
            # Crash debris under every policy, but a whole last frame that
            # fails its CRC was acknowledged: it counts as lost.
            lost = walk.torn[3] if walk.torn else 0
        engine.last_recovery = RecoveryReport(
            policy=recovery,
            quarantined_cohorts=tuple(quarantined_cohorts),
            quarantined_wal=tuple(quarantined_wal),
            wal_records_replayed=walk.frames,
            wal_records_lost=lost,
            findings=tuple(findings),
        )
        if quarantined_cohorts or stop is not None:
            # The store references artifacts that were moved aside (or a
            # WAL remainder that must not be extended): re-checkpoint the
            # surviving state immediately so the manifest, segments and a
            # fresh WAL are consistent again before the session serves
            # anything.
            engine.checkpoint()
        else:
            # Reopen the WAL for appending: new records extend the
            # replayed prefix.  The replayed records still
            # count toward checkpoint_interval -- they are real
            # un-checkpointed WAL backlog, and a crash-looping process
            # would otherwise reset the counter on every restart and
            # never auto-checkpoint.
            store.wal_start(walk.name)
            engine._wal_records_pending = walk.frames
        return engine

    def _decode_cohort(
        self, source: str, saved: list[ColumnGroup], states: dict, peers: dict
    ) -> tuple[list, list[_FleetGroup]]:
        """:func:`_decode_segment` for this engine: its latency window, and
        no peers while its kernel is disabled, so a
        ``fleet_kernel_enabled = False`` engine decodes every column into
        a scalar home -- at recovery, adoption and restore alike."""
        return _decode_segment(
            source,
            saved,
            states,
            self.latency_window,
            peers if self.fleet_kernel_enabled else None,
        )

    @staticmethod
    def _filter_wal_record(record: tuple, skip_keys: set) -> tuple | None:
        """Drop quarantined keys from a WAL record (``None``: drop it all).

        A record naming a quarantined series must not replay for that
        key: its checkpointed base state is gone, so replay would
        fabricate a partial series holding only post-checkpoint points.
        """
        kind = record[0]
        if not skip_keys:
            return record
        if kind == "point":
            return None if record[1] in skip_keys else record
        keys = record[1]
        keep = [index for index, key in enumerate(keys) if key not in skip_keys]
        if len(keep) == len(keys):
            return record
        if not keep:
            return None
        kept_keys = [keys[index] for index in keep]
        # a grid keeps columns (round-major), parallel rows keep positions
        return (kind, kept_keys, record[2][..., keep])

    def _wal_append(self, records: list) -> None:
        """Journal one WAL record per ``(kind, *parts)`` tuple, as one group.

        One flush (one ``fsync`` when the store syncs) covers the group.
        Nothing is even encoded when detached, so the WAL-off ingest path
        pays nothing for the plumbing.
        """
        if self._store is None or not records:
            return
        self._store.wal_append_many(
            [encode_wal_record(*record) for record in records]
        )
        self._wal_records_pending += len(records)

    # ------------------------------------------------ incremental checkpoints

    def _series_marker(self, key: Hashable) -> int:
        """Monotone progress counter of one series: its observation count.

        One counter in one place -- the column's ``points`` total for an
        absorbed series, the state's otherwise; absorption and
        materialization copy it, every mutation of a series advances it
        -- so a stale marker can never alias a newer state, which is
        what lets :meth:`checkpoint` trust "marker unchanged" to mean
        "cohort segment still valid".
        """
        state = self._series[key]
        if state is None:
            group, column = self._absorbed[key]
            return int(group.points[column])
        return state.points

    def _assign_cohorts(self) -> None:
        """Place every unassigned series into a durable checkpoint cohort.

        New series fill the newest cohort up to
        :attr:`checkpoint_cohort_size`, then open a fresh one -- appending
        only ever dirties the newest cohort, so long-idle cohorts keep
        their segments byte-for-byte.
        """
        newest = self._next_cohort_id - 1
        for key in self._series:
            if key in self._cohort_of:
                continue
            cohort = self._cohorts.get(newest)
            if cohort is None or len(cohort.members) >= self.checkpoint_cohort_size:
                newest = self._next_cohort_id
                self._next_cohort_id += 1
                cohort = self._cohorts[newest] = _Cohort([])
            cohort.members.append(key)
            self._cohort_of[key] = newest

    def _cohort_dirty(self, cohort: _Cohort) -> bool:
        """Whether a cohort changed since its segment was last written."""
        markers = cohort.markers
        if markers is None or len(markers) != len(cohort.members):
            return True
        get = markers.get
        return any(get(key) != self._series_marker(key) for key in cohort.members)

    def _encode_cohort(self, members: list) -> bytes:
        """One cohort's segment: its kernel columns, gathered, as they are.

        Per kernel group with members in the cohort, one
        :meth:`_FleetGroup.save_columns` -- no scalar object is built for
        an absorbed series and nothing of it is pickled -- with the
        members' keys and their places in the cohort's order in the
        group's ``meta``.  The members that are not columns (warming,
        never absorbable) and the columns keyed
        by something JSON cannot carry ride in the fallback section as
        the scalar-state codec's ``{key: state}``, in cohort order.
        """
        by_group: dict[int, tuple[_FleetGroup, list, list, list]] = {}
        for position, key in enumerate(members):
            location = self._absorbed.get(key)
            encoded = encode_manifest_keys([key]) if location is not None else None
            if location is None or encoded is None:
                continue
            group, column = location
            entry = by_group.setdefault(id(group), (group, [], [], []))
            entry[1].append(column)
            entry[2].append(position)
            entry[3].extend(encoded)
        saved = []
        scalar = set(range(len(members)))
        for group, columns, positions, keys in by_group.values():
            columnar = group.save_columns(columns)
            columnar.meta.update(keys=keys, positions=positions)
            saved.append(columnar)
            scalar.difference_update(positions)
        fallback = b""
        if scalar:
            fallback = encode_segment(
                self._materialized(members[position] for position in sorted(scalar))
            )
        return encode_columnar_segment(saved, fallback)

    def checkpoint(self) -> CheckpointSummary:
        """Persist all changes since the last checkpoint to the store.

        Only *dirty* cohorts -- those whose series ingested anything since
        their segment was written -- are re-serialized; clean cohorts keep
        their existing segment files, so checkpointing a mostly-idle fleet
        writes a handful of segments plus one manifest.  A segment is a
        gathered write of the kernel columns its series live in
        (:meth:`_encode_cohort`): no scalar model is built and nothing
        of an absorbed series is pickled.  The sequence is
        crash-safe at every step: segments first (atomic each), then the
        manifest swap (the commit point), then WAL truncation and garbage
        collection -- a crash anywhere leaves either the old or the new
        checkpoint fully intact, never a mixture.

        Returns a :class:`~repro.durability.CheckpointSummary` saying how
        much was actually written.
        """
        store = self._store
        if store is None:
            raise RuntimeError(
                "engine has no checkpoint store: open a durable session "
                "with MultiSeriesEngine.open(store, spec=...) or "
                "attach_store() first (snapshot() is the in-memory rewind)"
            )
        self._assign_cohorts()
        generation = self._generation + 1
        #: each dirty cohort's new ``(segment, crc, markers)``, assigned
        #: only once the manifest naming them is committed
        written: dict[int, tuple[str, int, dict]] = {}
        series_written = 0
        cohorts = []
        for cohort_id in sorted(self._cohorts):
            cohort = self._cohorts[cohort_id]
            segment, crc = cohort.segment, cohort.crc
            if self._cohort_dirty(cohort):
                segment = segment_name(generation, cohort_id)
                payload = self._encode_cohort(cohort.members)
                store.write_segment(segment, payload)
                crc = zlib.crc32(payload)
                markers = {key: self._series_marker(key) for key in cohort.members}
                written[cohort_id] = (segment, crc, markers)
                series_written += len(cohort.members)
            entry: dict = {
                "id": cohort_id,
                "segment": segment,
                "series": len(cohort.members),
            }
            # Scrub/quarantine metadata: the segment payload's CRC32 (so
            # store.verify() can check bytes it cannot decode) and the
            # cohort's key list (so quarantine can name the affected
            # series without decoding the damaged segment).  Keys outside
            # the JSON-encodable family leave the list off -- visible as
            # "keys unknown", never wrong.
            if crc is not None:
                entry["crc"] = crc
            encoded_keys = encode_manifest_keys(cohort.members)
            if encoded_keys is not None:
                entry["keys"] = encoded_keys
            cohorts.append(entry)
        store.write_manifest(
            build_manifest(generation, self.spec.to_dict(), cohorts)
        )
        # -- the manifest rename above is the commit point ------------------
        self._generation = generation
        for cohort_id, (segment, crc, markers) in written.items():
            cohort = self._cohorts[cohort_id]
            cohort.segment, cohort.crc, cohort.markers = segment, crc, markers
        store.wal_start(wal_name(generation))
        self._wal_records_pending = 0
        # Garbage: segments/WALs the new manifest no longer references.
        segments = {entry["segment"] for entry in cohorts}
        for name in store.list_segments():
            if name not in segments:
                store.delete_segment(name)
        current_wal = wal_name(generation)
        for name in store.list_wals():
            if name != current_wal:
                store.wal_delete(name)
        return CheckpointSummary(
            generation=generation,
            cohorts_total=len(self._cohorts),
            cohorts_written=len(written),
            series_total=len(self._series),
            series_written=series_written,
        )

    def close(self, checkpoint: bool = True) -> None:
        """End the durable session (checkpointing first by default).

        Idempotent; a detached engine closes as a no-op.  The engine stays
        fully usable in memory afterwards -- it just stops journaling.
        """
        store = self._store
        if store is None:
            return
        if checkpoint:
            self.checkpoint()
        self._store = None
        self._wal_records_pending = 0
        store.close()

    # --------------------------------------------------------- checkpointing

    def snapshot(self) -> EngineSnapshot:
        """Capture the engine state as an in-memory rewind point.

        The snapshot is one store segment of every series
        (:meth:`_encode_cohort`, what a checkpoint and
        :meth:`extract_series` write): the kernel columns are gathered as
        they are, and no scalar object is built for them.  Later ingests
        do not change it; it can be restored any number of times, and
        pickled by the caller.  For a checkpoint that survives process
        boundaries and carries its own configuration, use a durable
        session (:meth:`open` / :meth:`checkpoint`).

        An :class:`EngineSnapshot` is also a read-only
        ``{key: _SeriesState}`` mapping, decoded on its first read; no
        latency travels with a column (its group's ring stays behind).
        """
        payload = self._encode_cohort(list(self._series))
        return EngineSnapshot(payload, self.latency_window)

    def restore(self, snapshot: EngineSnapshot) -> None:
        """Rewind the engine to a snapshot taken with :meth:`snapshot`.

        The snapshot's bytes are decoded and checked whole first: bytes
        that do not decode raise
        :class:`~repro.durability.CorruptCheckpointError` with the engine
        untouched.  Then the fleet is replaced and the series installed as
        recovery installs a cohort: what was a column is a column at once
        -- no ``FleetKernel.pack`` on the next batch -- and the rest are
        scalar homes (every series is, on a ``fleet_kernel_enabled =
        False`` engine).  The snapshot itself is unchanged.

        Not available while a durable session is open: an in-memory rewind
        would silently diverge from the write-ahead log (the rewind is not
        a logged event), so recovery after a crash would replay into the
        wrong base state.  ``close()`` the session first.
        """
        if self._store is not None:
            raise RuntimeError(
                "restore() inside a durable session would diverge from the "
                "write-ahead log; close() the session first, restore, then "
                "attach a fresh store"
            )
        if not isinstance(snapshot, EngineSnapshot):
            raise TypeError(
                "restore() takes what MultiSeriesEngine.snapshot() returned, "
                f"got {type(snapshot).__name__}"
            )
        source = "restore() snapshot"
        saved, states = unpack_cohort(snapshot.payload, source, _SeriesState)
        members, groups = self._decode_cohort(source, saved, states, peers={})
        self._series = {}
        self._reset_fleet_groups()
        # Durable-cohort bookkeeping described the replaced fleet too.
        self._cohort_of = {}
        self._cohorts = {}
        self._next_cohort_id = 0
        self._install(members, groups, states)
