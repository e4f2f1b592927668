"""A member subset of a cohort advances in place, under both bodies.

``FleetKernel.update_block(values, columns)`` runs the members at their
own columns of the kernel's state: the run reads and writes those columns
and no others, there is no gathered sub-kernel to scatter back, and a run
that goes non-finite commits nothing anywhere.  At the engine, every
``process`` call and every subset grid is such a run; the
``fleet_kernel_enabled = False`` twin is the oracle, float for float.
"""

import numpy as np
import pytest

from repro.core.fleet import FleetKernel
from repro.utils import columns as columnar

from tests.conftest import without_latency
from tests.test_fleet_kernel import (
    INIT,
    PERIOD,
    assert_results_equal,
    engine_pair,
    fleet_series,
    recorded_searches,
    spy_on_native_runs,
    warm_fleet,
)

pytestmark = pytest.mark.usefixtures("kernel_body")

N = 12
KEYS = [f"m-{index:02d}" for index in range(N)]


def sections(kernel):
    """``{section: (column axis, bytes-comparable copy)}`` of a kernel."""
    return {
        section: (entry.axis, np.array(columnar.to_arrays(holder)[entry.name]))
        for section, holder, entry in columnar.walk(kernel)
    }


def column_bytes(state, column):
    """Every section of ``state`` at ``column``, as bytes."""
    return {
        section: np.ascontiguousarray(
            array[column] if axis == 0 else array[..., column]
        ).tobytes()
        for section, (axis, array) in state.items()
    }


class TestEngineSubsetsMatchTheScalarTwin:
    """Unsorted, gapped subsets, lone members and ``process`` interleaved
    with full-width grids, a NaN round and spikes that trip the search
    inside a subset run."""

    def test_interleaved_forms_match_float_for_float(self, monkeypatch):
        data = {
            key: fleet_series(index, length=INIT + 200)
            for index, key in enumerate(KEYS)
        }
        fast, twin = engine_pair(N)
        warm = {key: values[: INIT + 20] for key, values in data.items()}
        fast.ingest(warm)
        twin.ingest(warm)
        assert len(fast._absorbed) == N
        cursor = {key: INIT + 20 for key in KEYS}

        data["warming"] = fleet_series(N, length=INIT)
        cursor["warming"] = 0

        def grid(keys, rounds, spikes=(), holes=()):
            block = np.array(
                [data[key][cursor[key] : cursor[key] + rounds] for key in keys]
            ).T.copy()
            for key in keys:
                cursor[key] += rounds
            for r, j in spikes:
                block[r, j] += 10.0
            for r, j in holes:
                block[r, j] = np.nan
            result = fast.ingest_grid(keys, block)
            assert_results_equal(result, twin.ingest_grid(keys, block))

        def process(key, spike=0.0):
            value = float(data[key][cursor[key]]) + spike
            cursor[key] += 1
            assert fast.process(key, value) == twin.process(key, value)

        runs = []
        advance = FleetKernel._advance_planes

        def spy(kernel, planes, members=None, clean=None):
            runs.append(None if members is None else members.tolist())
            return advance(kernel, planes, members, clean)

        monkeypatch.setattr(FleetKernel, "_advance_planes", spy)
        with recorded_searches() as searches:
            grid(["m-07", "m-02", "m-09", "m-04"], 5)
            process("m-03")
            grid(KEYS, 3)
            process("m-03")
            process("m-11", spike=10.0)  # a lone member trips and searches
            grid(["m-10", "m-01", "m-05"], 4, holes=[(2, 1)])
            grid(["m-08", "m-00"], 1, spikes=[(0, 1)])
            process("m-08")
            grid(["m-06", "m-09", "m-02"], 6, spikes=[(3, 0), (4, 2)])
            # A key off the kernel splits the cohort's cells: not a rectangle.
            grid(["m-01", "warming", "m-04", "m-11"], 3, spikes=[(1, 2)])
            grid(KEYS, 2)
            for key in ("m-05", "m-00", "m-05"):
                process(key)
        assert len(searches) >= 3, "the spikes did not all trip a search"
        # Subsets ran as themselves, in grid order; full grids at full width.
        assert runs[:3] == [[7, 2, 9, 4], [3], None]
        assert [6, 9, 2] in runs
        for key in KEYS:
            assert without_latency(fast.series_stats(key)) == without_latency(
                twin.series_stats(key)
            )
            expected = twin.forecast(key, PERIOD + 3).tobytes()
            assert fast.forecast(key, PERIOD + 3).tobytes() == expected, key


class TestNonMembersAreUntouched:
    """A subset run writes its members' columns and nothing else."""

    @pytest.mark.parametrize("rounds", [1, 5, PERIOD])
    def test_every_section_of_every_other_column_keeps_its_bytes(self, rounds):
        streams, _scalar, kernel = warm_fleet(N)
        members = np.array([9, 2, 6, 3])
        block = np.array(streams)[members, INIT + 8 : INIT + 8 + rounds].T.copy()
        block[rounds // 2, 1] += 10.0  # a replay or a search, inside the subset
        before = sections(kernel)
        with recorded_searches() as searches:
            out = kernel.update_block(block, columns=members)
        assert out.value.shape == block.shape and searches
        after = sections(kernel)
        for column in sorted(set(range(N)) - set(members.tolist())):
            assert column_bytes(after, column) == column_bytes(before, column), column
        for column in members.tolist():
            assert column_bytes(after, column) != column_bytes(before, column), column

    def test_a_subset_run_that_goes_non_finite_commits_nothing(self):
        streams, _scalar, kernel = warm_fleet(N)
        members = np.array([8, 1, 4])
        block = np.array(streams)[members, INIT + 8 : INIT + 11].T.copy()
        block[0, :2] = 1e308  # two trends overflow the screen's sum
        before = sections(kernel)
        with np.errstate(over="ignore", invalid="ignore"):
            out = kernel.update_block(block, columns=members)
        assert out.value.shape == (0, members.size)
        after = sections(kernel)
        for column in range(N):
            assert column_bytes(after, column) == column_bytes(before, column), column


class TestAGatheredSubKernelCannotComeBack:
    """A clean subset advance builds no kernel: one body call per run."""

    def test_a_clean_subset_update_block_builds_no_sub_kernel(
        self, monkeypatch, kernel_body
    ):
        streams, _scalar, kernel = warm_fleet(N)
        blanks = []
        original = FleetKernel._blank

        def counted(self, n):
            blanks.append(n)
            return original(self, n)

        monkeypatch.setattr(FleetKernel, "_blank", counted)
        native_calls = spy_on_native_runs(monkeypatch)
        members = np.array([5, 0, 11, 7])
        block = np.array(streams)[members, INIT + 8 : INIT + 13].T.copy()
        out = kernel.update_block(block, columns=members)
        assert out.value.shape == block.shape
        assert blanks == []
        if kernel_body == "native":
            assert native_calls == [(5, kernel.iterations, members.size)]

    def test_columns_are_checked_before_a_body_reads_them(self):
        streams, _scalar, kernel = warm_fleet(4)
        values = np.zeros((1, 2))
        with pytest.raises(IndexError):
            kernel.update_block(values, columns=[1, 4])
        with pytest.raises(ValueError, match="repeat"):
            kernel.update_block(values, columns=[3, -1])


class TestNativeArgumentsFollowTheArrays:
    """The native run's handle is built once for both sides of the
    ping-pong and kept while the arrays are the same objects, and never
    across a copy of the kernel."""

    @pytest.fixture(autouse=True)
    def native_only(self, kernel_body):
        if kernel_body != "native":
            pytest.skip("the handle is the native body's")

    def test_full_width_runs_reuse_both_sides_arguments(self, monkeypatch):
        from repro.core import fleet

        streams, _scalar, kernel = warm_fleet(N)
        built = []
        original = fleet._native_side

        def counted(committed, working, common):
            built.append(len(common))
            return original(committed, working, common)

        monkeypatch.setattr(fleet, "_native_side", counted)
        values = np.array(streams)[:, INIT + 8 : INIT + 14].T.copy()
        for row in range(values.shape[0]):
            kernel.update_block(values[row : row + 1])
        assert len(built) == 2

    def test_a_pickled_copy_runs_on_its_own_arrays(self):
        import pickle

        streams, _scalar, kernel = warm_fleet(N)
        values = np.array(streams)[:, INIT + 8 : INIT + 12].T.copy()
        kernel.update_block(values[:1])
        kernel.update_block(values[1:2])
        copied = pickle.loads(pickle.dumps(kernel))
        before = sections(kernel)
        advanced = copied.update_block(values[2:])
        after = sections(kernel)
        for column in range(N):
            assert column_bytes(after, column) == column_bytes(before, column), column
        expected = kernel.update_block(values[2:])
        assert advanced.trend.tobytes() == expected.trend.tobytes()
        assert column_bytes(sections(copied), 3) == column_bytes(sections(kernel), 3)
