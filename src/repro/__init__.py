"""OneShotSTL reproduction: online seasonal-trend decomposition for TSAD and TSF.

This package is a from-scratch Python reproduction of

    He, Li, Tan, Wu, Li.  "OneShotSTL: One-Shot Seasonal-Trend Decomposition
    For Online Time Series Anomaly Detection And Forecasting."
    PVLDB 16(6), 2023.

The most common entry points are re-exported here:

* :class:`OneShotSTL` -- online decomposition with O(1) updates (the paper's
  contribution), plus :class:`JointSTL` (its batch form).
* :class:`STL`, :class:`RobustSTL`, :class:`OnlineSTL` -- the decomposition
  baselines.
* :class:`OneShotSTLDetector` / :class:`OneShotSTLForecaster` -- the
  downstream anomaly-detection and forecasting wrappers of Section 4.
* :class:`StreamingPipeline` / :class:`MultiSeriesEngine` -- decomposition
  + scoring + forecasting wired together for production-style streaming
  use, single-series and keyed-fleet form.
* :class:`DecomposerSpec`, :class:`DetectorSpec`, :class:`ForecasterSpec`,
  :class:`PipelineSpec`, :class:`EngineSpec`, :func:`build` -- the
  declarative configuration layer (:mod:`repro.specs`): JSON-able specs
  that name components by their :mod:`repro.registry` names and rebuild
  any pipeline from data alone.
* :func:`find_length` -- autocorrelation-based period detection.

Subpackages: ``core``, ``decomposition``, ``anomaly``, ``forecasting``,
``metrics``, ``datasets``, ``periodicity``, ``solvers``, ``neural``,
``streaming``, ``durability`` (checkpoint stores, write-ahead log and
crash recovery behind ``MultiSeriesEngine.open``), ``sharding``
(consistent-hash routing of the fleet across durable worker processes
with checkpoint-handoff failover), ``utils``, plus the flat ``registry``
and ``specs`` modules.  See README.md for the full map.
"""

from repro.core import JointSTL, ModifiedJointSTL, NSigma, OneShotSTL, select_lambda
from repro.decomposition import (
    STL,
    DecompositionPoint,
    DecompositionResult,
    OnlineSTL,
    RobustSTL,
)
from repro.periodicity import find_length

__version__ = "1.0.0"

__all__ = [
    "DecomposerSpec",
    "DecompositionPoint",
    "DecompositionResult",
    "DetectorSpec",
    "EngineSpec",
    "ForecasterSpec",
    "JointSTL",
    "ModifiedJointSTL",
    "MultiSeriesEngine",
    "NSigma",
    "OneShotSTL",
    "OnlineSTL",
    "PipelineSpec",
    "RobustSTL",
    "STL",
    "SeriesStatus",
    "StreamingPipeline",
    "__version__",
    "build",
    "find_length",
    "select_lambda",
]

#: names re-exported lazily from the declarative configuration layer
_SPEC_EXPORTS = (
    "DecomposerSpec",
    "DetectorSpec",
    "EngineSpec",
    "ForecasterSpec",
    "PipelineSpec",
    "build",
)


def __getattr__(name):
    """Lazily expose the heavier downstream wrappers at the package root."""
    if name in ("OneShotSTLDetector", "OnlineSTLDetector", "NSigmaDetector"):
        from repro import anomaly

        return getattr(anomaly, name)
    if name in ("OneShotSTLForecaster", "OnlineSTLForecaster"):
        from repro import forecasting

        return getattr(forecasting, name)
    if name in ("StreamingPipeline", "MultiSeriesEngine", "SeriesStatus"):
        from repro import streaming

        return getattr(streaming, name)
    if name in _SPEC_EXPORTS:
        from repro import specs

        return getattr(specs, name)
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
