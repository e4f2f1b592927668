"""End-to-end streaming pipeline: decomposition -> scoring -> forecasting.

:class:`StreamingPipeline` wires an online decomposer to the downstream
consumers described in the paper's Section 4: a residual-based anomaly
scorer and the periodic-continuation forecaster.  It is the object a
downstream user would embed in a monitoring service, and it is what the
example applications use.

Pipelines are **spec-native**: :meth:`StreamingPipeline.from_spec` builds
one from a declarative :class:`~repro.specs.PipelineSpec` (plain data,
JSON round-trippable), and :attr:`StreamingPipeline.spec` reports the spec
of a pipeline whose components are registered -- which is what lets the
multi-series engine persist its configuration inside a portable
checkpoint.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.analysis import hotpath
from repro.anomaly.nsigma import NSigma
from repro.decomposition.base import OnlineDecomposer
from repro.utils import as_float_array, check_positive_int

__all__ = ["StreamRecord", "StreamingPipeline"]


class StreamRecord(NamedTuple):
    """Everything the pipeline derives from one observation.

    ``residual`` is the residual of the returned decomposition (for
    OneShotSTL this is *after* any seasonality-shift correction), while
    ``detection_residual`` is the residual the anomaly scorer consumed --
    the pre-correction value when the decomposer exposes one, otherwise
    identical to ``residual``.

    A named tuple: records are built once per observation per series, so
    their construction cost sits directly on the engine's hot path (the
    columnar :class:`~repro.streaming.engine.IngestResult` materializes
    them lazily for the same reason), and a tuple is built by one C call.
    A record therefore also compares equal to the plain tuple of its
    fields, unpacks and has a ``len()``; ``_fields`` / ``_replace`` /
    ``_asdict`` are its field helpers.
    """

    index: int
    value: float
    trend: float
    seasonal: float
    residual: float
    anomaly_score: float
    is_anomaly: bool
    detection_residual: float = 0.0


class StreamingPipeline:
    """Online decomposition with anomaly scoring and forecasting.

    Parameters
    ----------
    decomposer:
        Any online decomposer (OneShotSTL, OnlineSTL, a windowed batch
        method, ...).
    anomaly_threshold:
        NSigma threshold applied to the decomposed residual (ignored when
        an explicit ``scorer`` is passed).
    scorer:
        Optional streaming scorer instance (``update(value) -> verdict``
        with ``score`` / ``is_anomaly`` fields); defaults to
        ``NSigma(anomaly_threshold)``.
    """

    def __init__(
        self,
        decomposer: OnlineDecomposer,
        anomaly_threshold: float = 5.0,
        scorer=None,
    ):
        self.decomposer = decomposer
        self.scorer = scorer if scorer is not None else NSigma(anomaly_threshold)
        self._index = 0
        self._initialized = False
        self._spec = None

    # -------------------------------------------------------- configuration

    @classmethod
    def from_spec(cls, spec) -> "StreamingPipeline":
        """Build a fresh pipeline from a :class:`~repro.specs.PipelineSpec`."""
        from repro.specs import PipelineSpec

        if not isinstance(spec, PipelineSpec):
            raise TypeError(
                f"from_spec() expects a PipelineSpec, got {type(spec).__name__}"
            )
        pipeline = cls(spec.decomposer.build(), scorer=spec.detector.build())
        pipeline._spec = spec
        return pipeline

    @property
    def spec(self):
        """The :class:`~repro.specs.PipelineSpec` describing this pipeline.

        For spec-built pipelines this is the spec that was used; for
        hand-constructed ones it is derived from the components' registry
        names and ``get_params()``.  ``None`` when the configuration cannot
        be expressed declaratively (unregistered component classes or
        non-primitive constructor arguments).
        """
        if self._spec is not None:
            return self._spec
        from repro.specs import DecomposerSpec, DetectorSpec, PipelineSpec, spec_of

        decomposer_spec = spec_of(self.decomposer, DecomposerSpec)
        detector_spec = spec_of(self.scorer, DetectorSpec)
        if decomposer_spec is None or detector_spec is None:
            return None
        return PipelineSpec(decomposer=decomposer_spec, detector=detector_spec)

    # ------------------------------------------------------------ streaming

    def initialize(self, values) -> None:
        """Run the decomposer's initialization phase and warm up the scorer."""
        values = as_float_array(values, "values", min_length=2)
        result = self.decomposer.initialize(values)
        # Seeding wants the statistics, not 96 discarded verdicts; a scorer
        # without the statistics-only half is fed through update().
        seed = getattr(self.scorer, "update_stats", self.scorer.update)
        for residual_value in result.residual.tolist():
            seed(residual_value)
        self._index = values.size
        self._initialized = True

    @hotpath
    def process(self, value: float) -> StreamRecord:
        """Consume one observation and return the derived record.

        Non-finite inputs are rejected with ``ValueError`` before they can
        reach (and silently poison) the decomposer's solver state.  The one
        sanctioned exception is NaN fed to a decomposer that declares
        ``supports_missing`` (OneShotSTL): there NaN is the documented
        missing-value marker and is imputed by the model itself.
        """
        if not self._initialized:
            raise RuntimeError("initialize() must be called before process()")
        value = float(value)
        if not np.isfinite(value) and not (
            np.isnan(value) and getattr(self.decomposer, "supports_missing", False)
        ):
            raise ValueError(
                f"process() received a non-finite value ({value}); only "
                "decomposers with missing-value support accept NaN, and "
                "infinities are never valid observations"
            )
        point = self.decomposer.update(value)
        # Score the decomposer's *detection* residual when it exposes one:
        # OneShotSTL's seasonality-shift search rewrites the residual of a
        # point it re-explains as a shift, so scoring the post-correction
        # residual would silently explain genuine spikes away (the model's
        # own docs warn about exactly this).
        detection_residual = getattr(self.decomposer, "last_detection_residual", None)
        if detection_residual is None:
            detection_residual = point.residual
        detection_residual = float(detection_residual)
        verdict = self.scorer.update(detection_residual)
        record = StreamRecord(
            self._index,
            point.value,
            point.trend,
            point.seasonal,
            point.residual,
            verdict.score,
            verdict.is_anomaly,
            detection_residual,
        )
        self._index += 1
        return record

    def process_many(self, values) -> list[StreamRecord]:
        """Convenience wrapper around :meth:`process` for a chunk of values."""
        return [self.process(float(value)) for value in np.asarray(values, dtype=float)]

    def forecast(self, horizon: int) -> np.ndarray:
        """Forecast future values if the underlying decomposer supports it."""
        horizon = check_positive_int(horizon, "horizon")
        forecaster = getattr(self.decomposer, "forecast", None)
        if forecaster is None:
            raise AttributeError(
                f"{type(self.decomposer).__name__} does not implement forecasting"
            )
        return forecaster(horizon)
