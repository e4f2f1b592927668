"""Writes tests/data/store_v4_scorer_sections with a format-4 build whose
column groups still carry the detector's moments (``scorer_*`` sections
and ``meta["scorer"]``).  Run with PYTHONPATH=<that build>/src; argument:
output directory."""
import sys
from pathlib import Path

import numpy as np

from repro.durability import DirectoryCheckpointStore
from repro.streaming import MultiSeriesEngine

out = Path(sys.argv[1])
PERIOD, INIT = 8, 16
KEYS = [f"m-{i:02d}" for i in range(10)]


def stream(k, length=120):
    steps = np.arange(length)
    values = (
        1 + 0.5 * k + 0.01 * steps + np.sin(2 * np.pi * steps / PERIOD)
        + 0.05 * (((steps * 7 + k * 3) % 11) - 5) / 5
    )
    values[INIT + 9 + 3 * k :: 37] += 3.0  # spikes: flags and shift searches
    return values


DATA = np.column_stack([stream(k) for k in range(len(KEYS))])
LATE = stream(10)

spec = MultiSeriesEngine.for_oneshotstl(PERIOD, initialization_length=INIT).spec
store = DirectoryCheckpointStore(out / "store_v4_scorer_sections")
engine = MultiSeriesEngine.open(store, spec=spec)
engine.checkpoint_cohort_size = 4
engine.ingest_grid(KEYS, DATA[:40])
for value in LATE[:5]:
    engine.process("late", float(value))
assert set(engine._absorbed) == set(KEYS)
engine.checkpoint()
# The tail: one three-round grid over every column, one point for "late".
engine.ingest_grid(KEYS, DATA[40:43])
engine.process("late", float(LATE[5]))
engine.close(checkpoint=False)

print(sorted(p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()))
