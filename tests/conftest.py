"""Shared fixtures for the OneShotSTL reproduction test suite."""

import dataclasses
import io
import pickle

import numpy as np
import pytest

from repro.core.online_system import ContributionWorkspace
from repro.solvers import IncrementalBandedLDLT
from repro.streaming import RingBuffer


class SimulatedCrash(RuntimeError):
    """Raised by durability fault hooks to model the process dying there."""


class PathLikeWrapper:
    """Minimal ``os.PathLike`` that is not a ``str`` or ``pathlib.Path``."""

    def __init__(self, path):
        self._path = str(path)

    def __fspath__(self) -> str:
        return self._path


class _CanonicalPickler(pickle.Pickler):
    """Pickles model state without the bytes that are not state.

    A ``ContributionWorkspace`` holds ``np.empty`` scratch (whatever the
    allocator handed out), a scalar solver keeps one undo level of its
    last ``extend`` and a latency ring holds wall-clock durations; none
    is decomposition state, and each differs between two objects that
    are otherwise equal bit for bit.  A ring pickles as an empty ring of
    its capacity.
    """

    def reducer_override(self, obj):
        if isinstance(obj, ContributionWorkspace):
            return ContributionWorkspace, (obj.lambda1, obj.lambda2)
        if isinstance(obj, RingBuffer):
            return RingBuffer, (obj.capacity,)
        if isinstance(obj, IncrementalBandedLDLT):
            new, args, state = obj.__reduce_ex__(pickle.HIGHEST_PROTOCOL)[:3]
            return new, args, dict(state, _undo=None)
        return NotImplemented


def canonical_bytes(obj) -> bytes:
    """``pickle.dumps(obj)`` modulo uninitialised scratch, undo levels and
    latency rings.

    Equal bytes mean equal types, attribute order, sharing and floats.
    """
    stream = io.BytesIO()
    _CanonicalPickler(stream, protocol=pickle.HIGHEST_PROTOCOL).dump(obj)
    return stream.getvalue()


def without_latency(stats):
    """A ``SeriesStats`` with its latency report dropped.

    Latency is a wall-clock measurement, not state: a kernel column
    reports its group's and a scalar home its own, so two engines that
    hold the same series agree on everything else.
    """
    return dataclasses.replace(stats, latency=None)


def make_seasonal_series(
    length: int,
    period: int,
    trend_slope: float = 0.01,
    noise: float = 0.05,
    seed: int = 0,
    trend_break: int | None = None,
    trend_break_size: float = 2.0,
) -> dict:
    """Build a synthetic additive series with known components."""
    rng = np.random.default_rng(seed)
    time = np.arange(length)
    trend = trend_slope * time
    if trend_break is not None:
        trend = trend + trend_break_size * (time >= trend_break)
    phase = 2 * np.pi * (time % period) / period
    seasonal = np.sin(phase) + 0.3 * np.sin(2 * phase)
    residual = rng.normal(0.0, noise, size=length)
    return {
        "values": trend + seasonal + residual,
        "trend": trend,
        "seasonal": seasonal,
        "residual": residual,
        "period": period,
    }


@pytest.fixture
def small_seasonal():
    """A short series with period 24 for fast unit tests."""
    return make_seasonal_series(length=24 * 8, period=24, seed=1)


@pytest.fixture
def medium_seasonal():
    """A medium series with period 50 and a trend break."""
    return make_seasonal_series(
        length=50 * 10, period=50, seed=2, trend_break=300, trend_break_size=3.0
    )


@pytest.fixture(params=["native", "numpy"])
def kernel_body(request, monkeypatch):
    """Run the test once per body of the fleet kernel's run; yields its name.

    ``native`` is what :func:`repro.core.fleet.kernel_backend` chose (the
    test skips, saying why, on a machine where that is not the native
    body); ``numpy`` patches the one module attribute that holds the
    choice, so kernels built in the test advance on the reference
    wavefront.  Suites opt in with ``pytest.mark.usefixtures("kernel_body")``
    as a module's ``pytestmark`` or on the classes that reach a kernel.
    """
    from repro.core import fleet

    backend = fleet.kernel_backend()
    if request.param == "numpy":
        monkeypatch.setattr(fleet, "_native_run", None)
    elif backend["body"] != "native":
        pytest.skip(f"no native body on this machine: {backend['reason']}")
    return request.param
