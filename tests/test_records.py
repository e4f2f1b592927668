"""The per-point result types are named tuples that keep their meaning.

``StreamRecord``, ``EngineRecord`` and ``DecompositionPoint`` are
``typing.NamedTuple`` classes: their field names, order and defaults are
pinned here, and every way the engine hands a record out -- ``records()``,
``result[i]``, iteration, ``process`` -- gives records equal, field by
field and float by float, to the scalar ``StreamingPipeline``'s.
"""

import math
import pickle

import numpy as np
import pytest

from repro.core import OneShotSTL
from repro.decomposition import DecompositionPoint
from repro.streaming import (
    EngineRecord,
    MultiSeriesEngine,
    SeriesStatus,
    StreamingPipeline,
    StreamRecord,
)

from tests.conftest import make_seasonal_series

PERIOD = 12
INIT = 4 * PERIOD
KEYS = ["a", "b", "c"]


def exact(record) -> tuple:
    """A record as data whose floats compare by their bits."""
    if record is None:
        return None
    return (type(record).__name__,) + tuple(
        float(value).hex() if type(value) is float else value for value in record
    )


def streams(length: int) -> dict:
    data = {}
    for index, key in enumerate(KEYS):
        values = make_seasonal_series(length, PERIOD, seed=70 + index)["values"]
        values[INIT + 7 + index] += 6.0  # an anomaly on each key
        data[key] = values
    return data


def test_the_fields_are_the_dataclasses_fields_in_their_order():
    assert StreamRecord._fields == (
        "index",
        "value",
        "trend",
        "seasonal",
        "residual",
        "anomaly_score",
        "is_anomaly",
        "detection_residual",
    )
    assert StreamRecord._field_defaults == {"detection_residual": 0.0}
    assert EngineRecord._fields == ("key", "status", "record")
    assert EngineRecord._field_defaults == {}
    assert DecompositionPoint._fields == ("value", "trend", "seasonal", "residual")


def test_a_record_is_a_tuple_of_its_fields():
    record = StreamRecord(3, 1.5, 1.0, 0.25, 0.25, 0.5, False)
    assert record == (3, 1.5, 1.0, 0.25, 0.25, 0.5, False, 0.0)
    assert len(record) == 8 and record.detection_residual == 0.0
    index, value, *_rest = record
    assert (index, value) == (3, 1.5)
    assert record._replace(index=4).index == 4
    assert record._asdict()["anomaly_score"] == 0.5
    point = DecompositionPoint(2.0, 1.25, 0.5, 0.25)
    assert point.reconstruct() == 2.0 and tuple(point) == (2.0, 1.25, 0.5, 0.25)


@pytest.mark.usefixtures("kernel_body")
def test_every_way_out_gives_the_scalar_pipelines_records():
    data = streams(INIT + 30)
    engine = MultiSeriesEngine.for_oneshotstl(PERIOD, initialization_length=INIT)
    pipelines = {
        key: StreamingPipeline.from_spec(engine.spec.pipeline_for(key)) for key in KEYS
    }
    for key in KEYS:
        pipelines[key].initialize(data[key][:INIT])
    grid = np.stack([data[key] for key in KEYS], axis=1)
    engine.ingest_grid(KEYS, grid[: INIT - 1])
    result = engine.ingest_grid(KEYS, grid[INIT - 1 : INIT + 20])
    rows = result.records()
    assert [exact(row.record) for row in rows] == [
        exact(result[position].record) for position in range(len(result))
    ]
    assert [exact(row.record) for row in rows] == [
        exact(row.record) for row in result
    ]
    assert all(type(row) is EngineRecord for row in rows)
    warming, live = rows[: len(KEYS)], rows[len(KEYS) :]
    assert all(
        row.record is None and row.status == SeriesStatus.WARMING for row in warming
    )
    expected = [
        pipelines[key].process(float(value))
        for row in grid[INIT : INIT + 20]
        for key, value in zip(KEYS, row)
    ]
    assert [exact(row.record) for row in live] == list(map(exact, expected))
    assert all(type(row.record) is StreamRecord for row in live)
    # Rows past warm-up take records() another way: the same records.
    result = engine.ingest_grid(KEYS, grid[INIT + 20 : INIT + 24])
    assert result.live.all()
    assert [exact(row.record) for row in result.records()] == [
        exact(result[position].record) for position in range(len(result))
    ] == [
        exact(pipelines[key].process(float(value)))
        for row in grid[INIT + 20 : INIT + 24]
        for key, value in zip(KEYS, row)
    ]
    assert all(type(row) is EngineRecord for row in result.records())
    for offset in range(24, 30):
        for key in KEYS:
            value = float(data[key][INIT + offset])
            got = engine.process(key, value)
            assert type(got) is EngineRecord and got.key == key
            assert exact(got.record) == exact(pipelines[key].process(value))


def test_is_anomaly_holds_for_warming_and_live_rows():
    warming = EngineRecord("k", SeriesStatus.WARMING, None)
    assert warming.is_anomaly is False
    record = StreamRecord(0, 9.0, 1.0, 0.0, 8.0, 12.0, True, 8.0)
    assert EngineRecord("k", SeriesStatus.LIVE, record).is_anomaly is True
    quiet = record._replace(is_anomaly=False)
    assert EngineRecord("k", SeriesStatus.LIVE, quiet).is_anomaly is False


def test_records_pickle_and_come_back_equal():
    data = streams(INIT + 12)["a"]
    model = OneShotSTL(PERIOD)
    model.initialize(data[:INIT])
    point = model.update(float(data[INIT]))
    record = StreamRecord(5, 1.0, 0.5, math.nan, -0.0, 0.1, False, -0.0)
    for value in (
        point,
        record,
        EngineRecord("k", SeriesStatus.LIVE, record),
        EngineRecord(("tuple", 1), SeriesStatus.WARMING, None),
    ):
        back = pickle.loads(pickle.dumps(value))
        assert type(back) is type(value)
        assert exact(back.record if type(back) is EngineRecord else back) == exact(
            value.record if type(value) is EngineRecord else value
        )
        assert back[:2] == value[:2]
