"""Writes tests/data/store_v4_derived_columns: a current-format store whose
segments hold kernel columns only -- every key absorbed and JSON-encodable,
two column groups (the fleet spec and a 3-iteration override), no fallback
states and no legacy sections -- checkpointed with nothing after it in the
WAL.  Recovering it and re-encoding each cohort must give the committed
segment bytes back, which pins the section list, order and dtypes across
builds (tests/test_columnar_segments.py), and so must running this script
again (a CI step compares the two).  Run with PYTHONPATH=<that build>/src;
argument: output directory.

tests/data/store_v4_kernel_columns is this script's store as a build
wrote it whose columns still stored copies of three facts (``indices``,
``last_trend`` and ``solver_sizes``, now derived from ``global_index``,
the trend pairs and ``points_processed``); it is kept as an old-layout
fixture."""
import dataclasses
import sys
from pathlib import Path

import numpy as np

from repro.durability import DirectoryCheckpointStore
from repro.specs import DecomposerSpec
from repro.streaming import MultiSeriesEngine

out = Path(sys.argv[1])
PERIOD, INIT = 8, 16
KEYS = [f"m-{i:02d}" for i in range(10)]
OVERRIDDEN = KEYS[3::3]


def stream(k, length=120):
    steps = np.arange(length)
    values = (
        1 + 0.5 * k + 0.01 * steps + np.sin(2 * np.pi * steps / PERIOD)
        + 0.05 * (((steps * 7 + k * 3) % 11) - 5) / 5
    )
    values[INIT + 9 + 3 * k :: 37] += 3.0  # spikes: flags and shift searches
    return values


DATA = np.column_stack([stream(k) for k in range(len(KEYS))])

spec = MultiSeriesEngine.for_oneshotstl(
    PERIOD, initialization_length=INIT, shift_window=2
).spec
override = dataclasses.replace(
    spec.pipeline,
    decomposer=DecomposerSpec(
        "oneshotstl", {**spec.pipeline.decomposer.params, "iterations": 3}
    ),
)
spec = dataclasses.replace(spec, overrides=dict.fromkeys(OVERRIDDEN, override))
store = DirectoryCheckpointStore(out / "store_v4_derived_columns")
engine = MultiSeriesEngine.open(store, spec=spec)
engine.checkpoint_cohort_size = 4
engine.ingest_grid(KEYS, DATA[:70])
assert set(engine._absorbed) == set(KEYS) and len(engine._groups) == 2
engine.checkpoint()
engine.close(checkpoint=False)

print(sorted(p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()))
