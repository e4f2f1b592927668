"""The native body's loader: private cache, atomic build, honest fall-back.

:mod:`repro.core._native` compiles ``advance_run.c`` on first use and
:func:`repro.core.fleet.kernel_backend` decides -- once, from what the
machine has -- which body a run takes.  Whatever goes wrong on the way
(no compiler, a compile error, a damaged cache, a library that computes
different bits) must end on the NumPy wavefront with the reason on
record, never in an exception out of ``FleetKernel``.
"""

import copy
import ctypes
import os
import re
import select
import shutil
import signal
import stat
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.core import _native, fleet
from repro.core.fleet import FleetKernel, kernel_backend

from tests.test_fleet_kernel import (
    INIT,
    PERIOD,
    assert_blocks_match_scalar,
    fleet_series,
    warm_fleet,
    warm_models,
)

SRC = Path(__file__).resolve().parents[1] / "src"

needs_compiler = pytest.mark.skipif(
    kernel_backend()["body"] != "native",
    reason=f"no native body on this machine: {kernel_backend()['reason']}",
)


@pytest.fixture
def undecided(monkeypatch, tmp_path):
    """A process that has not chosen its body yet, on an empty private cache."""
    monkeypatch.setattr(fleet, "_backend", None)
    monkeypatch.setattr(fleet, "_native_run", None)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    return tmp_path / "repro-oneshotstl"


def cache_files(directory):
    return sorted(path.name for path in directory.iterdir())


def choosing_process(cache_home):
    """A fresh interpreter that chooses its body against ``cache_home``."""
    return subprocess.Popen(
        [
            sys.executable,
            "-c",
            "from repro.core.fleet import kernel_backend\n"
            "print(kernel_backend()['body'])\n",
        ],
        env=dict(os.environ, PYTHONPATH=str(SRC), XDG_CACHE_HOME=str(cache_home)),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


@needs_compiler
def test_four_processes_on_an_empty_cache_leave_one_library(tmp_path):
    processes = [choosing_process(tmp_path) for _ in range(4)]
    for process in processes:
        out, err = process.communicate(timeout=120)
        assert process.returncode == 0, err
        assert out.strip() == "native", err
    directory = tmp_path / "repro-oneshotstl"
    assert stat.S_IMODE(directory.stat().st_mode) == 0o700
    (library,) = cache_files(directory)
    assert library.startswith("advance_run-") and library.endswith(".so")


@needs_compiler
def test_cold_then_warm_and_a_warm_start_spawns_nothing(undecided, monkeypatch):
    assert kernel_backend()["body"] == "native"
    assert kernel_backend()["reason"].startswith("compiled ")
    (library,) = cache_files(undecided)
    monkeypatch.setattr(fleet, "_backend", None)

    def no_children(*args, **kwargs):
        raise AssertionError("a warm start ran a child process")

    monkeypatch.setattr(subprocess, "run", no_children)
    backend = kernel_backend()
    assert backend["body"] == "native"
    assert backend["reason"] == f"loaded {library}"
    assert backend["compiler"] and "-ffp-contract=off" in backend["flags"]
    assert backend["vector"] in CLONES
    # Served on /health: names, not the directories they live in.
    assert os.sep not in backend["reason"] + backend["compiler"]


def test_no_compiler_means_the_numpy_body_and_one_warning(undecided, monkeypatch):
    monkeypatch.setattr(_native.shutil, "which", lambda name: None)
    with pytest.warns(RuntimeWarning, match="no C compiler") as caught:
        streams, scalar, kernel = warm_fleet(3)
        assert_blocks_match_scalar(kernel, scalar, streams, INIT + 8, [1, 5])
        warm_fleet(2)
    assert len(caught) == 1
    backend = kernel_backend()
    assert backend["body"] == "numpy" and backend["compiler"] is None
    assert fleet._native_run is None
    assert not undecided.exists()


@needs_compiler
def test_a_compile_error_means_the_numpy_body_and_no_litter(undecided, monkeypatch):
    def failing(command, **kwargs):
        return subprocess.CompletedProcess(command, 1, "", "advance_run.c:1: error: no")

    monkeypatch.setattr(subprocess, "run", failing)
    with pytest.warns(RuntimeWarning, match="error: no"):
        streams, scalar, kernel = warm_fleet(3)
    assert_blocks_match_scalar(kernel, scalar, streams, INIT + 8, [3])
    assert kernel_backend()["body"] == "numpy"
    assert cache_files(undecided) == []


@needs_compiler
def test_a_compiler_that_cannot_run_means_the_numpy_body(undecided, monkeypatch):
    def missing(command, **kwargs):
        raise FileNotFoundError(command[0])

    monkeypatch.setattr(subprocess, "run", missing)
    with pytest.warns(RuntimeWarning, match="could not run"):
        warm_fleet(1)
    assert kernel_backend()["body"] == "numpy"
    assert cache_files(undecided) == []


@needs_compiler
def test_a_truncated_cached_library_is_rebuilt(undecided):
    # Built by another process and cut short before this one ever loads
    # that path: truncating a library that is already mapped would crash
    # the process that mapped it -- which is why builds are moved into
    # place, never written there.
    builder = choosing_process(undecided.parent)
    assert builder.communicate(timeout=120)[0].strip() == "native"
    (planted,) = undecided.iterdir()
    complete = planted.read_bytes()
    planted.write_bytes(complete[:100])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        backend = kernel_backend()
    assert backend["body"] == "native"
    assert backend["reason"] == f"compiled {planted.name}"
    assert cache_files(undecided) == [planted.name]
    assert len(planted.read_bytes()) == len(complete)


@needs_compiler
def test_a_cache_someone_else_can_write_is_not_trusted(undecided, monkeypatch):
    undecided.mkdir(mode=0o777)
    undecided.chmod(0o777)
    assert kernel_backend()["body"] == "native"
    # Built in a private temporary directory instead, dropped once loaded.
    assert kernel_backend()["reason"].startswith("compiled ")
    assert cache_files(undecided) == []


@needs_compiler
def test_without_a_user_id_the_build_goes_to_a_private_temporary(
    undecided, monkeypatch
):
    monkeypatch.delattr(os, "geteuid")
    assert kernel_backend()["body"] == "native"
    assert cache_files(undecided) == []


@needs_compiler
def test_a_body_that_cannot_be_called_is_refused_not_raised(undecided, monkeypatch):
    load = _native.load

    def uncallable_load():
        (_advance_run, *rest), report = load()

        def rejects(*arguments):
            raise ctypes.ArgumentError("argument 2: wrong type")

        return (rejects, *rest), report

    monkeypatch.setattr(_native, "load", uncallable_load)
    with pytest.warns(RuntimeWarning, match="self-check failed.*ArgumentError"):
        streams, scalar, kernel = warm_fleet(2)
    assert kernel_backend()["body"] == "numpy"
    assert_blocks_match_scalar(kernel, scalar, streams, INIT + 8, [2])


@needs_compiler
def test_a_body_one_ulp_off_fails_the_self_check_and_is_refused(
    undecided, monkeypatch
):
    load = _native.load

    def perturbed_load():
        (advance_run, *rest), report = load()

        def one_ulp_off(side, run):
            status = advance_run(side, run)
            # The trend plane is the second.
            planes = _native.Run.from_address(run)
            first_trend = ctypes.c_double.from_address(
                planes.planes + 8 * planes.plane_stride
            )
            first_trend.value = np.nextafter(first_trend.value, np.inf)
            return status

        return (one_ulp_off, *rest), report

    monkeypatch.setattr(_native, "load", perturbed_load)
    with pytest.warns(RuntimeWarning, match="self-check failed.*different bits"):
        backend = kernel_backend()
    assert backend["body"] == "numpy"
    assert fleet._native_run is None
    streams, scalar, kernel = warm_fleet(3)
    assert_blocks_match_scalar(kernel, scalar, streams, INIT + 8, [4])


# ----------------------------------------------------------- ISA clones

#: the ISA clones ``advance_run.c`` declares, widest first
CLONES = ("avx512f", "avx2", "default")
CLONE_LIST = "target_clones(" + ", ".join(f'"{name}"' for name in CLONES) + ")"


def _cpu_flags():
    try:
        text = Path("/proc/cpuinfo").read_text()
    except OSError:
        return set()
    return {
        flag
        for line in text.splitlines()
        if line.startswith("flags")
        for flag in line.partition(":")[2].split()
    }


def _compiler():
    return next(filter(None, map(shutil.which, _native.COMPILERS)))


_SPIKED = {}


def spiked_fleet(n_series):
    """``(streams, scalar, kernel)``: a spike on every third series, H = 20."""
    if n_series not in _SPIKED:
        streams = [
            fleet_series(i, spike=INIT + 20 + i if i % 3 == 0 else None)
            for i in range(n_series)
        ]
        params = {"shift_window": 20, "shift_threshold": 5.0}
        _SPIKED[n_series] = (streams, warm_models(streams, 8, **params))
    streams, models = _SPIKED[n_series]
    return streams, copy.deepcopy(models), FleetKernel.pack(copy.deepcopy(models))


@needs_compiler
@pytest.mark.parametrize("vector", CLONES)
def test_every_clone_this_cpu_runs_computes_the_reference_bits(
    vector, tmp_path, monkeypatch
):
    """Each clone, built alone, against the wavefront and the scalar model.

    The dispatcher only ever hands out the widest clone the CPU has, so
    the narrower ones are built here on their own -- the source with its
    clone list replaced by one ``target`` -- and held to the same checks.
    """
    if vector != "default" and vector not in _cpu_flags():
        pytest.skip(f"this CPU has no {vector} (not in /proc/cpuinfo flags)")
    shipped = _native.SOURCE.read_text()
    assert CLONE_LIST in shipped
    source = tmp_path / "advance_run.c"
    source.write_text(shipped.replace(CLONE_LIST, f'target("{vector}")'))
    monkeypatch.setattr(_native, "SOURCE", source)
    library = tmp_path / f"advance_run-{vector}.so"
    assert _native._build(_compiler(), library) is None
    routines, _dispatched = _native._open(library)
    assert fleet._same_bits(routines)
    monkeypatch.setattr(fleet, "_native_run", routines)
    # Two full 16-lane chunks and a ragged tail of 5, shift searches included.
    streams, scalar, kernel = spiked_fleet(37)
    assert_blocks_match_scalar(
        kernel, scalar, streams, INIT + 8, [1, 7, PERIOD, PERIOD]
    )
    assert any(model.current_shift != 0 for model in scalar)
    # The residual monitor runs inside the clone: its residual, detection
    # and score planes and the moments it leaves are the wavefront's bytes.
    images = []
    for body in (routines, None):
        monkeypatch.setattr(fleet, "_native_run", body)
        streams, _scalar, kernel = spiked_fleet(37)
        position = INIT + 8
        image = []
        for rounds in (1, 7, PERIOD):
            block = np.array(streams)[:, position : position + rounds].T.copy()
            out = kernel.update_block(block)
            image += [out.residual, out.detection_residual, out.score]
            image += [kernel.global_index, kernel.monitor_mean, kernel.monitor_m2]
            position += rounds
        images.append([array.tobytes() for array in image])
    assert images[0] == images[1]


@needs_compiler
@pytest.mark.skipif(shutil.which("objdump") is None, reason="no objdump on PATH")
def test_no_clone_contains_a_fused_multiply_add(tmp_path):
    """AVX-512F allows FMA instructions; only -ffp-contract=off keeps them out."""
    library = tmp_path / "advance_run.so"
    assert _native._build(_compiler(), library) is None
    disassembly = subprocess.run(
        ["objdump", "-d", str(library)], capture_output=True, text=True, check=True
    ).stdout
    assert "<advance_run" in disassembly
    fused = [
        line
        for line in disassembly.splitlines()
        if any(op in line for op in ("vfmadd", "vfmsub", "vfnmadd", "vfnmsub"))
    ]
    assert fused == []


# ------------------------------------------------------- two widths


#: the narrow cut's and the split cut's definitions in ``advance_run.c``
NARROW_CUT = re.compile(r"#define NARROW_BELOW \d+")
SPLIT_CUT = re.compile(r"#define SPLIT_FROM \d+")
#: the variants the ``widths`` fixture builds: ``(name, pattern, value)``
VARIANTS = (
    ("wide", NARROW_CUT, "#define NARROW_BELOW 0"),
    ("narrow", NARROW_CUT, "#define NARROW_BELOW 17"),
    ("split", SPLIT_CUT, "#define SPLIT_FROM 0"),
    ("whole", SPLIT_CUT, "#define SPLIT_FROM 1000000000"),
)


def build_variant(directory, name, source_text):
    """The routines of ``source_text`` built in ``directory``."""
    source = directory / "advance_run.c"
    source.write_text(source_text)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_native, "SOURCE", source)
        library = directory / f"advance_run-{name}.so"
        assert _native._build(_compiler(), library) is None
        return _native._open(library)[0]


@pytest.fixture(scope="module")
def widths(tmp_path_factory):
    """``{name: routines}``: the shipped library and the source built with
    every chunk on the 16-lane body (``wide``) or on the 1-lane body
    (``narrow``) -- the narrow cut set to 0 and to 17 -- and with every run
    split with the helper thread (``split``) or none (``whole``) -- the
    split cut set to 0 and past any run."""
    if kernel_backend()["body"] != "native":
        pytest.skip(f"no native body on this machine: {kernel_backend()['reason']}")
    shipped = _native.SOURCE.read_text()
    built = {"shipped": fleet._native_run}
    for name, pattern, value in VARIANTS:
        assert len(pattern.findall(shipped)) == 1
        directory = tmp_path_factory.mktemp(name)
        built[name] = build_variant(directory, name, pattern.sub(value, shipped))
    return built


def made_up_state(n, iterations=3, period=4):
    """A positive definite state that differs in every cell, iteration and
    column; ages 0, 1 and 7 in turn (both gated patterns and the steady
    one) and monitor counts from nothing seen to far past a run."""
    ramp = np.arange(16.0 * iterations * n).reshape(4, 4, iterations, n)
    blocks = (ramp + ramp.transpose(1, 0, 2, 3)) / (4.0 * ramp.size)
    blocks[np.arange(4), np.arange(4)] += 2.0
    counts = np.resize([0, 3, 40, 9, 1], n)
    spreads = np.resize([0.5, 0.0, 2.0, 0.1], n) * (1.0 + np.arange(n) / n)
    return {
        "seasonal_buffer": np.sin(np.arange(period * n)).reshape(n, period),
        "global_index": counts,
        "points_processed": np.resize([0, 1, 7], n),
        "last_detection_residual": np.zeros(n),
        "last_applied_shift": np.zeros(n, dtype=np.int64),
        "trend_pairs": np.sin(np.arange(2.0 * iterations * n)).reshape(2, -1, n),
        "solver_blocks": blocks,
        "solver_rhs": np.cos(np.arange(4.0 * iterations * n)).reshape(4, -1, n),
        "monitor_mean": np.cos(np.arange(n) * 0.9),
        "monitor_m2": spreads * counts,
    }


def kernel_params(shift_window, iterations=3, period=4):
    return {
        "period": period, "lambda1": 2.0, "lambda2": 3.0, "iterations": iterations,
        "shift_window": shift_window, "shift_threshold": 5.0, "epsilon": 1e-8,
    }  # fmt: skip


def run_image(kernel, body, values, columns):
    """``(status, [bytes])`` of one run through ``_solve_run``: the planes,
    the saved moments and every committed section after it -- the
    monitor's moments, the trend pairs and the solver's committed side
    included -- and, for a run left uncommitted, the run's columns of the
    working side and of the working trend pairs.

    Every NaN is compared as one: a NaN's sign and payload are no value
    (IEEE 754 leaves them to the implementation, and which of two NaN
    operands an x86 instruction passes on follows an operand order the
    compiler may swap), and a run that makes one is never committed.
    Signed zeros and infinities are compared as they are."""
    planes = np.empty((6,) + values.shape)
    planes[0] = values
    status = kernel._solve_run(body, planes, 0, values.shape[0], columns)
    arrays = [planes, kernel._saved_space(columns.size), *kernel.to_arrays().values()]
    if status != fleet._COMMITTED:
        arrays += [side[..., columns] for side in kernel.solver.sides()[2:]]
        arrays.append(kernel._pairs_out[..., columns])
    return status, [
        np.where(np.isnan(array), np.nan, array).tobytes()
        if array.dtype.kind == "f"
        else np.ascontiguousarray(array).tobytes()
        for array in arrays
    ]


def case_run(width, full, case):
    """``(params, state, values, columns)`` of a three-round run of
    ``width`` shuffled columns (of ``width + 5``, or all of them when
    ``full``) aged 0, 1 and 7: ``clean``, one that trips while tripped
    columns are searched, or one with a non-finite round."""
    n = width if full else width + 5
    columns = np.random.default_rng(width).permutation(n)[:width]
    values = 3.0 * np.sin(np.arange(3.0 * width) * 0.7).reshape(3, width)
    if case == "non_finite":
        values[1, width // 2] = np.inf
    params = kernel_params(shift_window=2 if case == "trip" else 0)
    state = made_up_state(n)
    if case == "trip":
        # No spread seen: every residual is far past the floored std.
        state["monitor_m2"] = np.zeros(n)
        state["global_index"] = state["global_index"] + 1
    return params, state, values, columns


@needs_compiler
@pytest.mark.parametrize("variant", ["shipped", "wide", "narrow", "split", "whole"])
@pytest.mark.parametrize("full", [False, True], ids=["subset", "full_width"])
@pytest.mark.parametrize("width", [1, 2, 15, 16, 17, 35, 160, 163])
@pytest.mark.parametrize("case", ["clean", "trip", "non_finite"])
def test_narrow_and_wide_give_the_numpy_bodys_bits(widths, variant, full, width, case):
    """Either instance of the iteration, alone or mixed as shipped, on any
    width and shuffled columns, split with the helper thread or not (160
    and 163 columns fall either side of the shipped cut at three rounds),
    equals the NumPy body byte for byte: a clean run and a run that trips
    while tripped columns are searched (every tripped column searched
    inside the run) as committed, one with a non-finite round as left
    uncommitted."""
    params, state, values, columns = case_run(width, full, case)
    with np.errstate(invalid="ignore", over="ignore"):  # the non-finite round
        images = [
            run_image(FleetKernel.from_arrays(params, state), body, values, columns)
            for body in (widths[variant], None)
        ]
    status = images[0][0]
    expected = {
        "clean": fleet._COMMITTED,
        "trip": fleet._COMMITTED,
        "non_finite": 2 * 1,
    }[case]
    assert status == expected, (status, images[1][0])
    assert images[0] == images[1]


# ------------------------------------------------------- the helper thread

#: how often a split run is made afresh for the helper to take part in one
TRIES = 50


def helped_images(routines, params, state, values, columns):
    """``(image, helped)``: :func:`run_image` of a run made afresh until the
    helper has run a chunk of it (``helped`` True), or :data:`TRIES`
    times; every image is the first one."""
    helped = routines[2]
    first = None
    for _ in range(TRIES):
        before = helped()
        with np.errstate(invalid="ignore", over="ignore"):
            kernel = FleetKernel.from_arrays(params, state)
            image = run_image(kernel, routines, values, columns)
        assert first is None or image == first
        first = image
        if helped() > before:
            return image, True
    return first, False


def needs_helper(routines):
    if routines[2]() < 0:
        pytest.skip("no helper thread in this process (one allowed CPU)")


@needs_compiler
@pytest.mark.parametrize("full", [False, True], ids=["subset", "full_width"])
@pytest.mark.parametrize("width", [67, 160, 163])
@pytest.mark.parametrize("case", ["clean", "trip", "non_finite"])
def test_chunks_the_helper_runs_are_the_numpy_bodys_bits(widths, full, width, case):
    """Every run split: runs the helper took part in -- its chunks from the
    back, a ragged tail first among them, consecutive columns moved as
    vectors or shuffled ones lane by lane -- equal the NumPy body byte
    for byte."""
    routines = widths["split"]
    params, state, values, columns = case_run(width, full, case)
    with np.errstate(invalid="ignore", over="ignore"):
        kernel = FleetKernel.from_arrays(params, state)
        expected = run_image(kernel, None, values, columns)
    image, helped = helped_images(routines, params, state, values, columns)
    assert image == expected
    needs_helper(routines)
    # Five chunks of three rounds can all be done before the helper is up
    # on a slow machine; ten or more leave it time to take some.
    assert helped or width < 160, f"the helper ran no chunk of {TRIES} runs"


@needs_compiler
def test_a_split_kernel_gives_the_same_bits_in_a_forked_child(widths):
    """The parent's helper does not survive ``fork``: the child's first
    split run starts its own (``pthread_atfork`` reset the pool) instead of
    waiting on a thread that is not there -- under a timeout -- and its
    bits are the parent's."""
    routines = widths["split"]
    params, state, values, columns = case_run(163, False, "clean")
    image, _helped = helped_images(routines, params, state, values, columns)
    needs_helper(routines)
    reading, writing = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child: report, never return into pytest
        code = 1
        try:
            child, helped = helped_images(routines, params, state, values, columns)
            os.write(writing, b"%d %d" % (child == image, helped))
            code = 0
        finally:
            os._exit(code)
    os.close(writing)
    try:
        ready, _, _ = select.select([reading], [], [], 60)
        if not ready:
            os.kill(pid, signal.SIGKILL)
        assert ready, "the forked child hung in its split run"
        report = os.read(reading, 64)
    finally:
        os.close(reading)
        os.waitpid(pid, 0)
    assert report == b"1 1"


@needs_compiler
def test_two_threads_running_two_kernels_give_the_sequential_bits(widths):
    """ctypes lets go of the GIL: two threads' runs overlap, one holds the
    helper and the other, finding it busy, runs alone -- each equal to
    the same runs made one after the other."""
    routines = widths["split"]
    cases = [case_run(163, False, "clean"), case_run(160, True, "trip")]
    expected = [
        [run_image(FleetKernel.from_arrays(p, s), routines, v, c) for _ in range(20)]
        for p, s, v, c in cases
    ]
    barrier = threading.Barrier(len(cases))
    images = [None] * len(cases)

    def run(index):
        params, state, values, columns = cases[index]
        barrier.wait()
        images[index] = [
            run_image(FleetKernel.from_arrays(params, state), routines, values, columns)
            for _ in range(20)
        ]

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(cases))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads)
    assert images == expected


#: the helper's end of the split in ``advance_run.c``: chunk ``chunks - 1``
#: first, then down
HELPER_RANGE = "job->chunks - 1 - mine"


@needs_compiler
def test_a_helper_handed_the_wrong_range_fails_the_self_check(
    undecided, monkeypatch, tmp_path
):
    """A mutant whose helper starts one chunk past the end (and so never
    runs the last chunk the caller leaves it) computes other bits: the
    self-check, which crosses the split, refuses it."""
    shipped = _native.SOURCE.read_text()
    assert shipped.count(HELPER_RANGE) == 1
    mutant = build_variant(
        tmp_path, "mutant", shipped.replace(HELPER_RANGE, "job->chunks - mine")
    )
    monkeypatch.setattr(_native, "load", lambda: (mutant, {
        "reason": "loaded mutant", "compiler": "cc", "flags": [], "vector": None,
    }))  # fmt: skip
    with pytest.warns(RuntimeWarning, match="self-check failed.*different bits"):
        backend = kernel_backend()
    needs_helper(mutant)
    assert backend["body"] == "numpy"
    assert fleet._native_run is None


@needs_compiler
@pytest.mark.parametrize("variant", ["shipped", "wide", "narrow", "split"])
def test_a_kernel_grown_between_runs_rebuilds_its_handle(widths, variant, monkeypatch):
    """Growing the columns (``columnar.append``, arrays replaced) drops the
    handle: the next run builds both sides afresh, on the new arrays, and
    the runs before and after equal the NumPy body's."""
    built = []
    original = fleet._native_side

    def counted(committed, working, common):
        built.append(common["members"])
        return original(committed, working, common)

    monkeypatch.setattr(fleet, "_native_side", counted)
    params = kernel_params(shift_window=0)
    images = []
    for body in (widths[variant], None):
        rng = np.random.default_rng(3)
        kernel = FleetKernel.from_arrays(params, made_up_state(10))
        image = []
        for grow in (False, True):
            if grow:
                joining = made_up_state(30)
                joining["monitor_mean"] = joining["monitor_mean"] + 1.0
                kernel.append(FleetKernel.from_arrays(params, joining))
            n = kernel.n_series
            for columns in (np.arange(n), rng.permutation(n)[: n // 2], np.arange(n)):
                values = rng.normal(size=(2, columns.size))
                image.append(run_image(kernel, body, values, columns))
        images.append(image)
    assert images[0] == images[1]
    assert built == [10, 10, 40, 40]
