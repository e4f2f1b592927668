"""Tests for the LDL^T solver substrate."""

import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.online_system import ContributionWorkspace
from repro.durability import CorruptCheckpointError
from repro.durability.format import decode_segment
from repro.solvers import (
    BandedLDLT,
    IncrementalBandedLDLT,
    ldlt_factor,
    ldlt_solve,
    solve_symmetric,
)


def random_spd(n: int, rng: np.random.Generator) -> np.ndarray:
    base = rng.normal(size=(n, n))
    return base @ base.T + n * np.eye(n)


def random_banded_spd(n: int, w: int, rng: np.random.Generator) -> np.ndarray:
    matrix = np.zeros((n, n))
    for i in range(n):
        for j in range(max(0, i - w), i + 1):
            value = rng.normal()
            matrix[i, j] = value
            matrix[j, i] = value
    matrix += (w + 2) * n * np.eye(n)
    return matrix


class TestDenseLDLT:
    def test_factor_reconstructs_matrix(self):
        rng = np.random.default_rng(0)
        matrix = random_spd(8, rng)
        lower, diag = ldlt_factor(matrix)
        reconstructed = lower @ np.diag(diag) @ lower.T
        np.testing.assert_allclose(reconstructed, matrix, atol=1e-8)

    def test_unit_lower_triangular(self):
        rng = np.random.default_rng(1)
        matrix = random_spd(6, rng)
        lower, _ = ldlt_factor(matrix)
        np.testing.assert_allclose(np.diag(lower), np.ones(6))
        assert np.allclose(np.triu(lower, 1), 0.0)

    def test_solve_matches_numpy(self):
        rng = np.random.default_rng(2)
        matrix = random_spd(10, rng)
        rhs = rng.normal(size=10)
        lower, diag = ldlt_factor(matrix)
        x = ldlt_solve(lower, diag, rhs)
        np.testing.assert_allclose(x, np.linalg.solve(matrix, rhs), atol=1e-8)

    def test_solve_symmetric_convenience(self):
        rng = np.random.default_rng(3)
        matrix = random_spd(5, rng)
        rhs = rng.normal(size=5)
        np.testing.assert_allclose(
            solve_symmetric(matrix, rhs), np.linalg.solve(matrix, rhs), atol=1e-8
        )

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            ldlt_factor(np.zeros((3, 4)))

    def test_rejects_singular(self):
        with pytest.raises(ValueError):
            ldlt_factor(np.zeros((3, 3)))

    def test_rejects_bad_rhs_shape(self):
        rng = np.random.default_rng(4)
        matrix = random_spd(4, rng)
        lower, diag = ldlt_factor(matrix)
        with pytest.raises(ValueError):
            ldlt_solve(lower, diag, np.zeros(5))

    @given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_property_solution_satisfies_system(self, n, seed):
        rng = np.random.default_rng(seed)
        matrix = random_spd(n, rng)
        rhs = rng.normal(size=n)
        x = solve_symmetric(matrix, rhs)
        np.testing.assert_allclose(matrix @ x, rhs, atol=1e-6)


class TestBandedLDLT:
    def test_matches_dense_solution(self):
        rng = np.random.default_rng(5)
        matrix = random_banded_spd(30, 4, rng)
        rhs = rng.normal(size=30)
        solver = BandedLDLT.from_dense(matrix, 4)
        np.testing.assert_allclose(solver.solve(rhs), np.linalg.solve(matrix, rhs), atol=1e-8)

    def test_diagonal_positive_for_spd(self):
        rng = np.random.default_rng(6)
        matrix = random_banded_spd(20, 3, rng)
        solver = BandedLDLT.from_dense(matrix, 3)
        assert np.all(solver.diagonal > 0)

    def test_rejects_wrong_rhs(self):
        rng = np.random.default_rng(7)
        matrix = random_banded_spd(10, 2, rng)
        solver = BandedLDLT.from_dense(matrix, 2)
        with pytest.raises(ValueError):
            solver.solve(np.zeros(11))

    @given(
        st.integers(min_value=6, max_value=40),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_property_banded_matches_dense(self, n, w, seed):
        rng = np.random.default_rng(seed)
        matrix = random_banded_spd(n, w, rng)
        rhs = rng.normal(size=n)
        solver = BandedLDLT.from_dense(matrix, w)
        np.testing.assert_allclose(solver.solve(rhs), np.linalg.solve(matrix, rhs), atol=1e-6)


class DenseReference:
    """Reference implementation of the growing system used to validate the
    incremental solver: it keeps the full dense matrix at every step."""

    def __init__(self):
        self.matrix = np.zeros((0, 0))
        self.rhs = np.zeros(0)

    def extend(self, num_new, updates, rhs_new):
        old = self.matrix.shape[0]
        new = old + num_new
        matrix = np.zeros((new, new))
        matrix[:old, :old] = self.matrix
        rhs = np.zeros(new)
        rhs[:old] = self.rhs
        rhs[old:] = rhs_new
        for row, column, value in updates:
            matrix[row, column] += value
            if row != column:
                matrix[column, row] += value
        self.matrix = matrix
        self.rhs = rhs

    def tail_solution(self, count):
        return np.linalg.solve(self.matrix, self.rhs)[-count:]


def _random_growth_step(rng, old_size, num_new, w):
    """Generate random SPD-preserving updates confined to the mutable tail."""
    new_size = old_size + num_new
    lowest = max(0, old_size - w)
    updates = []
    # Strong diagonal terms for the new variables keep the system SPD.
    for index in range(old_size, new_size):
        updates.append((index, index, 5.0 + rng.uniform(0, 1)))
    # A handful of random off-diagonal couplings within the allowed region.
    for _ in range(6):
        row = int(rng.integers(lowest, new_size))
        column = int(rng.integers(max(lowest, row - w), row + 1))
        updates.append((row, column, rng.normal() * 0.3))
    # Small diagonal bumps on mutable existing indices.
    for index in range(lowest, old_size):
        updates.append((index, index, abs(rng.normal()) * 0.2 + 0.2))
    rhs_new = rng.normal(size=num_new)
    return updates, rhs_new


class TestIncrementalBandedLDLT:
    @pytest.mark.parametrize(
        "w,num_new", [(4, 2), (4, 1), (3, 3), (2, 1), (5, 2), (1, 1)]
    )
    def test_matches_dense_reference(self, w, num_new):
        rng = np.random.default_rng(42 + w * 10 + num_new)
        incremental = IncrementalBandedLDLT(w)
        reference = DenseReference()
        for _ in range(40):
            updates, rhs_new = _random_growth_step(
                rng, incremental.size, num_new, w
            )
            incremental.extend(num_new, updates, rhs_new)
            reference.extend(num_new, updates, rhs_new)
            count = min(w, incremental.size)
            np.testing.assert_allclose(
                incremental.tail_solution(count),
                reference.tail_solution(count),
                atol=1e-8,
            )

    def test_copy_is_independent(self):
        rng = np.random.default_rng(3)
        solver = IncrementalBandedLDLT(4)
        for _ in range(20):
            updates, rhs_new = _random_growth_step(rng, solver.size, 2, 4)
            solver.extend(2, updates, rhs_new)
        clone = solver.copy()
        before = solver.tail_solution(2).copy()
        updates, rhs_new = _random_growth_step(rng, clone.size, 2, 4)
        clone.extend(2, updates, rhs_new)
        np.testing.assert_allclose(solver.tail_solution(2), before)
        assert clone.size == solver.size + 2

    def test_copy_pickles_like_a_built_solver(self):
        """A copy skips ``__init__`` but has its attributes in that order,
        so it pickles byte for byte like a built solver of the same state
        (a winning shift-search trial becomes the model's state)."""
        rng = np.random.default_rng(5)
        solver = IncrementalBandedLDLT(4)
        for _ in range(7):
            updates, rhs_new = _random_growth_step(rng, solver.size, 2, 4)
            solver.extend(2, updates, rhs_new)
        built = IncrementalBandedLDLT(4)
        built.size = solver.size
        built._m_trail = [row[:] for row in solver._m_trail]
        built._bp_trail = solver._bp_trail[:]
        clone = solver.copy()
        assert list(vars(clone)) == list(vars(built))
        assert pickle.dumps(clone) == pickle.dumps(built)

    def test_rejects_update_outside_mutable_region(self):
        rng = np.random.default_rng(4)
        solver = IncrementalBandedLDLT(3)
        for _ in range(10):
            updates, rhs_new = _random_growth_step(rng, solver.size, 1, 3)
            solver.extend(1, updates, rhs_new)
        with pytest.raises(ValueError):
            solver.extend(1, [(0, 0, 1.0), (solver.size, solver.size, 5.0)], [0.0])

    def test_rejects_bandwidth_violation(self):
        solver = IncrementalBandedLDLT(2)
        solver.extend(2, [(0, 0, 5.0), (1, 1, 5.0)], [1.0, 1.0])
        with pytest.raises(ValueError):
            solver.extend(
                2,
                [(2, 2, 5.0), (3, 3, 5.0), (3, 0, 1.0)],
                [1.0, 1.0],
            )

    def test_rejects_too_many_new_variables(self):
        solver = IncrementalBandedLDLT(2)
        with pytest.raises(ValueError):
            solver.extend(3, [], [1.0, 1.0, 1.0])

    def test_empty_system_has_no_solution(self):
        solver = IncrementalBandedLDLT(2)
        with pytest.raises(ValueError):
            solver.tail_solution(1)

    def test_tail_count_limited_in_incremental_mode(self):
        rng = np.random.default_rng(5)
        solver = IncrementalBandedLDLT(2)
        for _ in range(10):
            updates, rhs_new = _random_growth_step(rng, solver.size, 1, 2)
            solver.extend(1, updates, rhs_new)
        with pytest.raises(ValueError):
            solver.tail_solution(3)

    def test_tail_count_limited_to_the_real_variables(self):
        """Phantom pivots fill the block of a short stream; they are not
        part of its solution."""
        rng = np.random.default_rng(6)
        solver = IncrementalBandedLDLT(4)
        reference = DenseReference()
        for size in (1, 2, 3):
            updates, rhs_new = _random_growth_step(rng, solver.size, 1, 4)
            solver.extend(1, updates, rhs_new)
            reference.extend(1, updates, rhs_new)
            np.testing.assert_allclose(
                solver.tail_solution(size), reference.tail_solution(size), atol=1e-12
            )
            with pytest.raises(ValueError, match="system size"):
                solver.tail_solution(size + 1)

    def test_phantom_indices_are_not_addressable(self):
        solver = IncrementalBandedLDLT(4)
        with pytest.raises(ValueError, match="allowed indices start at 0"):
            solver.extend(1, [(0, 0, 5.0), (0, -1, 1.0)], [1.0])

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_property_incremental_equals_dense(self, seed):
        rng = np.random.default_rng(seed)
        w = int(rng.integers(2, 6))
        num_new = int(rng.integers(1, w + 1))
        incremental = IncrementalBandedLDLT(w)
        reference = DenseReference()
        for _ in range(15):
            updates, rhs_new = _random_growth_step(rng, incremental.size, num_new, w)
            incremental.extend(num_new, updates, rhs_new)
            reference.extend(num_new, updates, rhs_new)
        count = min(w, incremental.size)
        np.testing.assert_allclose(
            incremental.tail_solution(count),
            reference.tail_solution(count),
            atol=1e-7,
        )


def as_update_arrays(updates):
    rows, columns, values = zip(*updates)
    return (
        np.array(rows, dtype=np.intp),
        np.array(columns, dtype=np.intp),
        np.array(values, dtype=float),
    )


class TestArrayFastPath:
    @pytest.mark.parametrize("check_indices", [True, False])
    def test_matches_triple_list_path(self, check_indices):
        rng = np.random.default_rng(11)
        from_triples = IncrementalBandedLDLT(4)
        from_arrays = IncrementalBandedLDLT(4)
        for _ in range(30):
            updates, rhs_new = _random_growth_step(rng, from_triples.size, 2, 4)
            from_triples.extend(2, updates, rhs_new)
            from_arrays.extend(
                2, as_update_arrays(updates), np.asarray(rhs_new), check_indices
            )
            count = min(4, from_triples.size)
            np.testing.assert_allclose(
                from_arrays.tail_solution(count),
                from_triples.tail_solution(count),
                atol=1e-10,
            )

    def test_array_input_validated_like_triples(self):
        solver = IncrementalBandedLDLT(2)
        solver.extend(2, as_update_arrays([(0, 0, 5.0), (1, 1, 5.0)]), [1.0, 1.0])
        with pytest.raises(ValueError):
            solver.extend(
                2,
                as_update_arrays([(2, 2, 5.0), (3, 3, 5.0), (3, 0, 1.0)]),
                [1.0, 1.0],
            )

    def test_rejects_mismatched_array_lengths(self):
        solver = IncrementalBandedLDLT(2)
        with pytest.raises(ValueError):
            solver.extend(
                1,
                (np.array([0, 0]), np.array([0]), np.array([1.0])),
                [1.0],
            )

    def test_tuple_of_three_triples_is_not_transposed(self):
        """Regression: a 3-tuple of triples is the triples form, not arrays."""
        as_list = IncrementalBandedLDLT(2)
        as_tuple = IncrementalBandedLDLT(2)
        triples = [(0, 0, 5.0), (1, 1, 5.0), (1, 0, 1.0)]
        as_list.extend(2, triples, [1.0, 2.0])
        as_tuple.extend(2, tuple(triples), [1.0, 2.0])
        np.testing.assert_array_equal(
            as_tuple.tail_solution(2), as_list.tail_solution(2)
        )

    def test_input_arrays_are_not_retained(self):
        """The caller may reuse the update arrays after extend returns."""
        rng = np.random.default_rng(12)
        solver = IncrementalBandedLDLT(4)
        reference = DenseReference()
        for _ in range(20):
            updates, rhs_new = _random_growth_step(rng, solver.size, 2, 4)
            arrays = as_update_arrays(updates)
            solver.extend(2, arrays, rhs_new)
            reference.extend(2, updates, rhs_new)
            for array in arrays:
                array.fill(-1)  # scribble over the shared buffers
        np.testing.assert_allclose(
            solver.tail_solution(4), reference.tail_solution(4), atol=1e-8
        )


def generic_point(solver, value, anchor, first_weight, second_weight):
    """``append_point`` spelled as the generic pair it fuses: the
    workspace's steady-state pattern (lambdas of 1.0 pass the weights
    through unchanged), moved to the point whose trend variable is index
    ``size``, then ``extend`` and ``tail_solution(2)``."""
    workspace = ContributionWorkspace(1.0, 1.0)
    (rows, columns, values), rhs = workspace.fill(
        2, value, anchor, first_weight, second_weight
    )
    shift = solver.size - 4
    solver.extend(2, (rows + shift, columns + shift, values), rhs, check_indices=False)
    tail = solver.tail_solution(2)
    return float(tail[0]), float(tail[1])


def run_point(step, solver, *arguments):
    """``(returned pair or the ValueError's message, pickled solver)``."""
    try:
        outcome = step(solver, *arguments)
    except ValueError as error:
        outcome = str(error)
    return pickle.dumps(outcome), pickle.dumps(solver)


_SPECIAL_FLOATS = [0.0, -0.0, float("nan"), float("inf"), float("-inf")]


class TestAppendPoint:
    """``append_point`` is ``extend`` + ``tail_solution(2)`` on the
    steady-state pattern, fused; both are compared as pickles, so every
    float of the state and the result is compared bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        steps=st.lists(st.sampled_from([1, 2]), max_size=8),
        value=st.one_of(st.sampled_from(_SPECIAL_FLOATS), st.floats(-1e6, 1e6)),
        anchor=st.one_of(st.sampled_from(_SPECIAL_FLOATS), st.floats(-1e6, 1e6)),
        first_weight=st.one_of(
            st.sampled_from(_SPECIAL_FLOATS), st.floats(1e-300, 1e300)
        ),
        second_weight=st.one_of(
            st.sampled_from(_SPECIAL_FLOATS), st.floats(1e-300, 1e300)
        ),
        damage=st.one_of(
            st.none(),
            st.tuples(
                st.integers(0, 3),
                st.integers(0, 3),
                st.sampled_from(_SPECIAL_FLOATS + [1e300, -1.0, 5e-324]),
            ),
        ),
        pending_undo=st.booleans(),
    )
    # an infinite coupling to a phantom pivot: the new trend row's
    # structurally zero seasonal cell becomes inf * 0.0 = NaN, and a
    # trailing pivot error commits it
    @example(0, [], 1.0, 0.0, 1.0, 1.0, (0, 1, float("inf")), True)
    def test_equals_the_generic_pair(
        self,
        seed,
        steps,
        value,
        anchor,
        first_weight,
        second_weight,
        damage,
        pending_undo,
    ):
        """From sizes 0 (all phantom pivots) up past the band, with
        weights across the float range (and the 0.0, inf and NaN a trend
        of inf or NaN makes of the IRLS weights), special values, and a
        trailing cell overwritten so that pivots go zero or non-finite."""
        rng = np.random.default_rng(seed)
        solver = IncrementalBandedLDLT(4)
        for num_new in steps:
            updates, rhs_new = _random_growth_step(rng, solver.size, num_new, 4)
            solver.extend(num_new, updates, rhs_new)
        if damage is not None:
            row, column, cell = damage
            solver._m_trail[row][column] = cell
        if steps and not pending_undo:
            solver.rollback()
        twin = pickle.loads(pickle.dumps(solver))
        arguments = (value, anchor, first_weight, second_weight)
        fused = run_point(IncrementalBandedLDLT.append_point, solver, *arguments)
        assert fused == run_point(generic_point, twin, *arguments)
        outcome = pickle.loads(fused[0])
        if not (isinstance(outcome, str) and "finalizing" in outcome):
            # committed, so the undo level is the pre-point state
            solver.rollback()
            twin.rollback()
            assert pickle.dumps(solver) == pickle.dumps(twin)

    @pytest.mark.parametrize(
        "diagonal,first_weight,second_weight,message",
        [
            ((0.0, 1.0, 1.0, 1.0), 1.0, 0.0, "finalizing index 6"),
            ((float("nan"), 1.0, 1.0, 1.0), 1.0, 1.0, "finalizing index 6"),
            ((1.0, 0.0, 1.0, 1.0), 1.0, 1.0, "finalizing index 7"),
            ((1.0, 1.0, -1.0, 1.0), 1.0, 0.0, "singular trailing system at pivot 0"),
            ((1.0, 1.0, 1.0, 0.0), 1.0, 0.0, "singular trailing system at pivot 1"),
            ((1.0, 1.0, -0.5, 1.0), 1.0, 0.0, "singular trailing system at pivot 2"),
            ((1.0, 1.0, -0.25, 1.0), 0.5, 0.0, "singular trailing system at pivot 3"),
        ],
    )
    def test_each_pivot_error_is_the_generic_pairs(
        self, diagonal, first_weight, second_weight, message
    ):
        """A finalizing pivot raises with nothing committed, a trailing
        one after the append is: both as the generic pair does."""
        solver = IncrementalBandedLDLT(4)
        solver.size = 10
        solver._m_trail = [
            [diagonal[row] if row == column else 0.0 for column in range(4)]
            for row in range(4)
        ]
        solver._bp_trail = [0.5, -0.5, 1.0, 2.0]
        twin = solver.copy()
        before = pickle.dumps(solver)
        arguments = (1.5, -0.25, first_weight, second_weight)
        fused = run_point(IncrementalBandedLDLT.append_point, solver, *arguments)
        assert fused == run_point(generic_point, twin, *arguments)
        assert message in pickle.loads(fused[0])
        committed = "trailing" in message
        assert solver.size == (12 if committed else 10)
        assert (fused[1] == before) is not committed

    def test_needs_the_oneshotstl_half_bandwidth(self):
        with pytest.raises(ValueError, match="half bandwidth 4"):
            IncrementalBandedLDLT(3).append_point(1.0, 0.0, 1.0, 1.0)


class TestRollback:
    def test_rollback_restores_previous_solution(self):
        rng = np.random.default_rng(21)
        solver = IncrementalBandedLDLT(4)
        for _ in range(20):
            updates, rhs_new = _random_growth_step(rng, solver.size, 2, 4)
            solver.extend(2, updates, rhs_new)
        before_tail = solver.tail_solution(4).copy()
        before_size = solver.size
        updates, rhs_new = _random_growth_step(rng, solver.size, 2, 4)
        solver.extend(2, updates, rhs_new)
        solver.rollback()
        assert solver.size == before_size
        np.testing.assert_allclose(solver.tail_solution(4), before_tail)

    def test_reextend_after_rollback_matches_straight_line(self):
        rng = np.random.default_rng(22)
        straight = IncrementalBandedLDLT(4)
        replayed = IncrementalBandedLDLT(4)
        steps = [
            _random_growth_step(rng, 2 * index, 2, 4) for index in range(25)
        ]
        for updates, rhs_new in steps:
            straight.extend(2, updates, rhs_new)
            replayed.extend(2, updates, rhs_new)
            replayed.rollback()
            replayed.extend(2, updates, rhs_new)
            count = min(4, straight.size)
            np.testing.assert_allclose(
                replayed.tail_solution(count), straight.tail_solution(count)
            )

    @pytest.mark.parametrize("size", [2, 4, 6])
    def test_rollback_below_at_and_above_the_half_bandwidth(self, size):
        """One representation from the first append: a rollback restores
        the pre-extend state bit for bit whether phantom pivots still fill
        the block (size < w), have just left it (== w) or are long gone."""
        rng = np.random.default_rng(23)
        w = 4
        solver = IncrementalBandedLDLT(w)
        while solver.size < size:
            updates, rhs_new = _random_growth_step(rng, solver.size, 2, w)
            solver.extend(2, updates, rhs_new)
        before = solver.copy()
        before_tail = solver.tail_solution(2)
        updates, rhs_new = _random_growth_step(rng, solver.size, 2, w)
        solver.extend(2, updates, rhs_new)
        after_tail = solver.tail_solution(2)
        solver.rollback()
        assert solver.size == before.size == size
        assert solver._m_trail == before._m_trail
        assert solver._bp_trail == before._bp_trail
        np.testing.assert_array_equal(solver.tail_solution(2), before_tail)
        solver.extend(2, updates, rhs_new)
        np.testing.assert_array_equal(solver.tail_solution(2), after_tail)

    def test_single_undo_level(self):
        solver = IncrementalBandedLDLT(2)
        with pytest.raises(ValueError):
            solver.rollback()
        solver.extend(2, [(0, 0, 5.0), (1, 1, 5.0)], [1.0, 1.0])
        solver.rollback()
        with pytest.raises(ValueError):
            solver.rollback()

    def test_copy_does_not_share_rollback_state(self):
        rng = np.random.default_rng(24)
        solver = IncrementalBandedLDLT(4)
        for _ in range(15):
            updates, rhs_new = _random_growth_step(rng, solver.size, 2, 4)
            solver.extend(2, updates, rhs_new)
        clone = solver.copy()
        with pytest.raises(ValueError):
            clone.rollback()  # pending undo level is not carried over
        solver.rollback()  # the original still has its own undo level


class TestParentStoreMigration:
    """A solver pickled before it was born in Schur form -- in the dense
    mode of a short system, or already incremental -- carries an
    ``_incremental`` flag; it is refused, never installed as it is."""

    @pytest.mark.parametrize("incremental", [False, True], ids=["dense", "schur"])
    def test_a_pre_schur_pickle_is_refused(self, incremental):
        w = 4
        state = {
            "half_bandwidth": w,
            "warmup_size": 3 * w,
            "size": 2,
            "_dense_matrix": None if incremental else np.eye(2),
            "_dense_rhs": None if incremental else np.zeros(2),
            "_incremental": incremental,
            "_m_trail": [[0.0] * w for _ in range(w)],
            "_bp_trail": [0.0] * w,
            "_undo": None,
        }
        stale = IncrementalBandedLDLT(w)
        vars(stale).update(state)  # the attributes an older build pickled
        payload = pickle.dumps(stale)
        with pytest.raises(ValueError, match="_incremental"):
            pickle.loads(payload)
        # ... which a store reader reports as an undecodable segment.
        with pytest.raises(CorruptCheckpointError) as error:
            decode_segment(pickle.dumps({"m": stale}), "seg")
        assert error.value.problem == "undecodable"

    def test_current_pickle_round_trips_with_its_undo_level(self):
        rng = np.random.default_rng(38)
        live = IncrementalBandedLDLT(4)
        for _ in range(3):
            updates, rhs_new = _random_growth_step(rng, live.size, 2, 4)
            live.extend(2, updates, rhs_new)
        loaded = pickle.loads(pickle.dumps(live))
        assert vars(loaded) == vars(live)
        loaded.rollback()
        assert loaded.size == live.size - 2

    def test_a_loaded_solver_pickles_like_a_built_one(self):
        """Attribute names come back interned, as ``__init__`` leaves them:
        a pickle shares one name string between a built solver and a
        loaded one exactly as it does between two built ones."""
        built = IncrementalBandedLDLT(4)
        loaded = pickle.loads(pickle.dumps(built))
        assert pickle.dumps([built, loaded]) == pickle.dumps([built, built.copy()])
