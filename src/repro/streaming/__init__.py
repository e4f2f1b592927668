"""Streaming execution utilities: pipelines, engines, buffers and latency."""

from repro.streaming.buffer import RingBuffer
from repro.streaming.engine import (
    CHECKPOINT_FORMAT_VERSION,
    EngineRecord,
    EngineSnapshot,
    FleetStats,
    IngestResult,
    MultiSeriesEngine,
    SeriesStats,
    SeriesStatus,
)
from repro.streaming.latency import (
    LatencyReport,
    measure_update_latency,
    summarize_latencies,
)
from repro.streaming.pipeline import StreamingPipeline, StreamRecord

__all__ = [
    "CHECKPOINT_FORMAT_VERSION",
    "EngineRecord",
    "EngineSnapshot",
    "FleetStats",
    "IngestResult",
    "LatencyReport",
    "MultiSeriesEngine",
    "RingBuffer",
    "SeriesStats",
    "SeriesStatus",
    "StreamRecord",
    "StreamingPipeline",
    "measure_update_latency",
    "summarize_latencies",
]
