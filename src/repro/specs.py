"""Declarative, serializable pipeline configuration.

A monitoring deployment should be describable as *data*: a JSON document
that names each component by its stable registry name plus its primitive
constructor parameters.  That is what the spec classes here are -- plain
frozen dataclasses of JSON-able primitives that round-trip through
``to_dict()`` / ``from_dict()`` (and ``to_json()`` / ``from_json()``) and
rebuild the live objects via :func:`build`:

    >>> spec = PipelineSpec(
    ...     decomposer=DecomposerSpec("oneshotstl", {"period": 24}),
    ...     detector=DetectorSpec("nsigma", {"threshold": 5.0}),
    ... )
    >>> pipeline = build(PipelineSpec.from_dict(spec.to_dict()))

Because a spec is data, it can be shipped to a worker process, stored next
to a checkpoint, diffed in code review, or templated per metric class --
none of which a factory callable can do.  A durable store's manifest
(:meth:`repro.streaming.engine.MultiSeriesEngine.open`) embeds an
:class:`EngineSpec` for exactly this reason.

Spec params must be JSON primitives (``None``/bool/int/float/str and
lists/dicts thereof); anything else -- a custom initializer object, a
callable -- is rejected at construction time so that non-portable
configuration fails loudly instead of disappearing on serialization.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro import registry
from repro.utils import check_positive_int

__all__ = [
    "ComponentSpec",
    "DecomposerSpec",
    "DetectorSpec",
    "EngineSpec",
    "ForecasterSpec",
    "PipelineSpec",
    "build",
    "spec_of",
]


def _check_primitive(value: Any, context: str) -> Any:
    """Validate that ``value`` is a JSON-serializable primitive tree."""
    if isinstance(value, float) and not math.isfinite(value):
        # json.dumps would emit NaN/Infinity, which is not valid JSON
        # (RFC 8259) -- the spec would fail exactly when shipped elsewhere.
        raise ValueError(
            f"{context}: parameter values must be finite (got {value!r}); "
            "non-finite floats do not survive JSON serialization"
        )
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_check_primitive(item, context) for item in value]
    if isinstance(value, Mapping):
        result = {}
        for key, item in value.items():
            if not isinstance(key, str):
                raise ValueError(
                    f"{context}: mapping keys must be strings, got {key!r}"
                )
            result[key] = _check_primitive(item, context)
        return result
    raise ValueError(
        f"{context}: parameter values must be JSON primitives "
        f"(None/bool/int/float/str, lists or string-keyed dicts of them); "
        f"got {type(value).__name__}"
    )


def _reject_unknown_keys(data: Mapping, allowed: tuple, context: str) -> None:
    unknown = set(data) - set(allowed)
    if unknown:
        raise ValueError(
            f"{context}: unknown keys {sorted(unknown)}; expected a subset of "
            f"{list(allowed)}"
        )


@dataclass(frozen=True)
class ComponentSpec:
    """Base spec: a registry name plus primitive constructor parameters."""

    name: str
    params: dict = field(default_factory=dict)

    #: registry namespace the name resolves in (set by subclasses)
    kind = ""

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise ValueError(f"{type(self).__name__}.name must be a non-empty string")
        if not isinstance(self.params, Mapping):
            raise ValueError(f"{type(self).__name__}.params must be a mapping")
        object.__setattr__(
            self, "params", _check_primitive(dict(self.params), type(self).__name__)
        )

    def to_dict(self) -> dict:
        return {"name": self.name, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, data: Mapping) -> "ComponentSpec":
        _reject_unknown_keys(data, ("name", "params"), cls.__name__)
        if "name" not in data:
            raise ValueError(f"{cls.__name__}: missing required key 'name'")
        return cls(name=data["name"], params=dict(data.get("params", {})))

    def to_json(self, **dumps_kwargs) -> str:
        return json.dumps(self.to_dict(), **dumps_kwargs)

    @classmethod
    def from_json(cls, text: str) -> "ComponentSpec":
        return cls.from_dict(json.loads(text))

    def component_class(self) -> type:
        """Resolve the registered class this spec names."""
        return registry.get_component(self.kind, self.name)

    def build(self):
        """Instantiate the component: ``registered_class(**params)``."""
        return self.component_class()(**self.params)


class DecomposerSpec(ComponentSpec):
    """Spec of an online decomposer (``repro.registry`` kind ``decomposer``)."""

    kind = registry.DECOMPOSER


class DetectorSpec(ComponentSpec):
    """Spec of a pipeline's streaming anomaly scorer (kind ``scorer``).

    Named after the pipeline stage it configures; the classes it resolves
    to are the streaming scorers (e.g. ``"nsigma"`` ->
    :class:`repro.core.nsigma.NSigma`), not the batch
    :class:`~repro.anomaly.base.AnomalyDetector` benchmark methods (those
    live in the ``detector`` registry namespace).
    """

    kind = registry.SCORER


class ForecasterSpec(ComponentSpec):
    """Spec of a standalone forecaster (kind ``forecaster``)."""

    kind = registry.FORECASTER


def spec_of(
    component: object, spec_class: type[ComponentSpec] | None = None
) -> ComponentSpec | None:
    """Derive a component spec from a *live* component, or ``None``.

    Requires the component's class to be registered and to implement
    ``get_params()`` returning its primitive constructor parameters.
    Components that cannot be described portably (unregistered classes, or
    ``get_params`` raising because e.g. a custom initializer object was
    injected) yield ``None``.
    """
    candidates = (
        [spec_class]
        if spec_class is not None
        else [DecomposerSpec, DetectorSpec, ForecasterSpec]
    )
    get_params = getattr(component, "get_params", None)
    if get_params is None:
        return None
    for candidate in candidates:
        name = registry.component_name(candidate.kind, type(component))
        if name is None:
            continue
        try:
            return candidate(name=name, params=get_params())
        except ValueError:
            return None
    return None


@dataclass(frozen=True)
class PipelineSpec:
    """Spec of a :class:`~repro.streaming.pipeline.StreamingPipeline`."""

    decomposer: DecomposerSpec
    detector: DetectorSpec = field(
        default_factory=lambda: DetectorSpec("nsigma", {"threshold": 5.0})
    )

    def __post_init__(self) -> None:
        if not isinstance(self.decomposer, DecomposerSpec):
            raise ValueError("PipelineSpec.decomposer must be a DecomposerSpec")
        if not isinstance(self.detector, DetectorSpec):
            raise ValueError("PipelineSpec.detector must be a DetectorSpec")

    def to_dict(self) -> dict:
        return {
            "decomposer": self.decomposer.to_dict(),
            "detector": self.detector.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "PipelineSpec":
        _reject_unknown_keys(data, ("decomposer", "detector"), cls.__name__)
        if "decomposer" not in data:
            raise ValueError("PipelineSpec: missing required key 'decomposer'")
        spec = {"decomposer": DecomposerSpec.from_dict(data["decomposer"])}
        if "detector" in data:
            spec["detector"] = DetectorSpec.from_dict(data["detector"])
        return cls(**spec)

    def to_json(self, **dumps_kwargs) -> str:
        return json.dumps(self.to_dict(), **dumps_kwargs)

    @classmethod
    def from_json(cls, text: str) -> "PipelineSpec":
        return cls.from_dict(json.loads(text))

    def build(self):
        """Construct the live :class:`StreamingPipeline`."""
        from repro.streaming.pipeline import StreamingPipeline

        return StreamingPipeline.from_spec(self)


@dataclass(frozen=True)
class EngineSpec:
    """Spec of a :class:`~repro.streaming.engine.MultiSeriesEngine`.

    ``initialization_length`` (at least 2) is the number of leading
    observations a series buffers before its batch initialization phase.
    ``latency_window`` (at least 1) is the number of most recent per-point
    update durations a latency ring keeps: one ring per kernel group,
    shared by its columns, and one per series off the kernel.

    ``overrides`` maps *string* series keys to the :class:`PipelineSpec`
    used for that key instead of the fleet default, so heterogeneous fleets
    (different periods or thresholds per metric class) are one engine with
    one spec.  Keys that are not strings always get the default pipeline
    (JSON object keys are strings, and the overrides must survive JSON).
    """

    pipeline: PipelineSpec
    initialization_length: int
    latency_window: int = 1024
    overrides: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.pipeline, PipelineSpec):
            raise ValueError("EngineSpec.pipeline must be a PipelineSpec")
        for name, minimum in (("initialization_length", 2), ("latency_window", 1)):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"EngineSpec.{name} must be an int, got {value!r}")
            check_positive_int(value, f"EngineSpec.{name}", minimum=minimum)
        if not isinstance(self.overrides, Mapping):
            raise ValueError("EngineSpec.overrides must be a mapping")
        for key, value in self.overrides.items():
            if not isinstance(key, str):
                raise ValueError(
                    f"EngineSpec.overrides keys must be strings, got {key!r}"
                )
            if not isinstance(value, PipelineSpec):
                raise ValueError(
                    f"EngineSpec.overrides[{key!r}] must be a PipelineSpec"
                )
        object.__setattr__(self, "overrides", dict(self.overrides))

    def pipeline_for(self, key) -> PipelineSpec:
        """Pipeline spec for one series key (override or fleet default)."""
        if isinstance(key, str) and key in self.overrides:
            return self.overrides[key]
        return self.pipeline

    def to_dict(self) -> dict:
        return {
            "pipeline": self.pipeline.to_dict(),
            "initialization_length": self.initialization_length,
            "latency_window": self.latency_window,
            "overrides": {
                key: spec.to_dict() for key, spec in self.overrides.items()
            },
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "EngineSpec":
        """The inverse of :meth:`to_dict`.

        A ``track_latency`` key -- what manifests written before latency
        was always recorded carry -- is accepted and ignored.
        """
        allowed = (
            "pipeline",
            "initialization_length",
            "latency_window",
            "track_latency",
            "overrides",
        )
        _reject_unknown_keys(data, allowed, cls.__name__)
        for required in ("pipeline", "initialization_length"):
            if required not in data:
                raise ValueError(f"EngineSpec: missing required key {required!r}")
        spec = {
            "pipeline": PipelineSpec.from_dict(data["pipeline"]),
            "initialization_length": data["initialization_length"],
        }
        if "latency_window" in data:
            spec["latency_window"] = data["latency_window"]
        if "overrides" in data:
            spec["overrides"] = {
                key: PipelineSpec.from_dict(value)
                for key, value in data["overrides"].items()
            }
        return cls(**spec)

    def to_json(self, **dumps_kwargs) -> str:
        return json.dumps(self.to_dict(), **dumps_kwargs)

    @classmethod
    def from_json(cls, text: str) -> "EngineSpec":
        return cls.from_dict(json.loads(text))

    def build(self):
        """Construct the live :class:`MultiSeriesEngine`."""
        from repro.streaming.engine import MultiSeriesEngine

        return MultiSeriesEngine.from_spec(self)


def build(spec):
    """Build the live object described by any spec (dispatch on type)."""
    if isinstance(
        spec, (ComponentSpec, PipelineSpec, EngineSpec)
    ):
        return spec.build()
    raise TypeError(
        f"build() expects a spec instance, got {type(spec).__name__}"
    )
