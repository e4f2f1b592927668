"""Tests for the declarative spec layer and the component registry."""

import json

import numpy as np
import pytest

from repro import registry
from repro.core import NSigma, OneShotSTL
from repro.decomposition import OnlineSTL
from repro.specs import (
    DecomposerSpec,
    DetectorSpec,
    EngineSpec,
    ForecasterSpec,
    PipelineSpec,
    build,
    spec_of,
)
from repro.streaming import MultiSeriesEngine, StreamingPipeline

from tests.conftest import make_seasonal_series

PERIOD = 24
INIT = 4 * PERIOD


class TestRegistry:
    def test_builtins_are_discoverable(self):
        assert "oneshotstl" in registry.available("decomposer")
        assert "online_stl" in registry.available("decomposer")
        assert "nsigma" in registry.available("scorer")
        assert "oneshotstl" in registry.available("detector")
        assert "oneshotstl" in registry.available("forecaster")

    def test_lookup_resolves_class(self):
        assert registry.get_component("decomposer", "oneshotstl") is OneShotSTL
        assert registry.get_component("scorer", "nsigma") is NSigma

    def test_unknown_name_raises_with_alternatives(self):
        with pytest.raises(KeyError, match="oneshotstl"):
            registry.get_component("decomposer", "no-such-method")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown registry kind"):
            registry.get_component("widget", "oneshotstl")

    def test_duplicate_name_rejected(self):
        with pytest.raises(ValueError, match="already registered"):

            @registry.register_decomposer("oneshotstl")
            class Impostor:
                pass

    def test_reregistering_same_class_is_noop(self):
        registry.register_decomposer("oneshotstl")(OneShotSTL)
        assert registry.get_component("decomposer", "oneshotstl") is OneShotSTL

    def test_module_reload_replaces_registration(self):
        """importlib.reload re-executes the decorator on a new class object."""
        import importlib

        import repro.core.nsigma as nsigma_module

        try:
            reloaded = importlib.reload(nsigma_module)
            assert registry.get_component("scorer", "nsigma") is reloaded.NSigma
            assert reloaded.NSigma is not NSigma
        finally:
            # Other modules still hold the originally imported class; point
            # the registry (and the module) back at it for later tests.
            registry.register_scorer("nsigma")(NSigma)
            nsigma_module.NSigma = NSigma

    def test_component_name_ignores_unregistered_subclass(self):
        class Subclass(OneShotSTL):
            pass

        assert registry.component_name("decomposer", OneShotSTL) == "oneshotstl"
        assert registry.component_name("decomposer", Subclass) is None


class TestSpecRoundTrip:
    def test_component_spec_dict_and_json(self):
        spec = DecomposerSpec("oneshotstl", {"period": PERIOD, "iterations": 2})
        assert DecomposerSpec.from_dict(spec.to_dict()) == spec
        assert DecomposerSpec.from_json(spec.to_json()) == spec
        # to_json emits valid, self-contained JSON
        assert json.loads(spec.to_json())["name"] == "oneshotstl"

    def test_pipeline_spec_round_trip(self):
        spec = PipelineSpec(
            decomposer=DecomposerSpec("oneshotstl", {"period": PERIOD}),
            detector=DetectorSpec("nsigma", {"threshold": 4.0}),
        )
        assert PipelineSpec.from_dict(spec.to_dict()) == spec
        assert PipelineSpec.from_json(spec.to_json()) == spec

    def test_engine_spec_round_trip_with_overrides(self):
        spec = EngineSpec(
            pipeline=PipelineSpec(DecomposerSpec("oneshotstl", {"period": PERIOD})),
            initialization_length=INIT,
            latency_window=256,
            overrides={
                "slow": PipelineSpec(DecomposerSpec("online_stl", {"period": PERIOD}))
            },
        )
        assert EngineSpec.from_dict(spec.to_dict()) == spec
        assert EngineSpec.from_json(spec.to_json()) == spec

    def test_non_primitive_params_rejected(self):
        with pytest.raises(ValueError, match="JSON primitives"):
            DecomposerSpec("oneshotstl", {"initializer": object()})

    def test_non_finite_params_rejected(self):
        """NaN/Infinity serialize to invalid JSON, so they must fail early."""
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match="finite"):
                DecomposerSpec("oneshotstl", {"epsilon": bad})

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown keys"):
            DecomposerSpec.from_dict({"name": "oneshotstl", "parms": {}})
        with pytest.raises(ValueError, match="unknown keys"):
            EngineSpec.from_dict(
                {
                    "pipeline": {"decomposer": {"name": "oneshotstl"}},
                    "initialization_length": INIT,
                    "factory": "nope",
                }
            )

    def test_missing_required_keys_rejected(self):
        with pytest.raises(ValueError, match="name"):
            DecomposerSpec.from_dict({"params": {}})
        with pytest.raises(ValueError, match="pipeline"):
            EngineSpec.from_dict({"initialization_length": INIT})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("initialization_length", 1),
            ("initialization_length", "x"),
            ("initialization_length", True),
            ("latency_window", 0),
            ("latency_window", 2.5),
            ("latency_window", False),
        ],
    )
    def test_engine_sizes_are_checked_by_the_spec(self, field, value):
        with pytest.raises(ValueError, match=field):
            EngineSpec(
                pipeline=PipelineSpec(DecomposerSpec("oneshotstl", {"period": 8})),
                **{"initialization_length": 16, field: value},
            )

    def test_a_track_latency_key_is_accepted_and_ignored(self):
        data = {
            "pipeline": {"decomposer": {"name": "oneshotstl"}},
            "initialization_length": INIT,
        }
        for flag in (False, "false", True):
            assert EngineSpec.from_dict({**data, "track_latency": flag}) == (
                EngineSpec.from_dict(data)
            )
        assert "track_latency" not in EngineSpec.from_dict(data).to_dict()

    def test_override_keys_must_be_strings(self):
        with pytest.raises(ValueError, match="strings"):
            EngineSpec(
                pipeline=PipelineSpec(DecomposerSpec("oneshotstl", {"period": 8})),
                initialization_length=16,
                overrides={3: PipelineSpec(DecomposerSpec("oneshotstl", {"period": 8}))},
            )


#: registered online decomposers with cheap reference parameters
DECOMPOSER_CASES = [
    ("oneshotstl", {"period": PERIOD, "shift_window": 0}),
    ("oneshotstl", {"period": PERIOD, "shift_window": 10}),
    ("modified_joint_stl", {"period": PERIOD, "iterations": 2}),
    ("online_stl", {"period": PERIOD}),
    ("window_stl", {"period": PERIOD, "recompute_stride": 16}),
]


class TestBuildEquivalence:
    @pytest.mark.parametrize("name,params", DECOMPOSER_CASES)
    def test_spec_built_pipeline_matches_hand_constructed(self, name, params):
        """build(Spec.from_dict(spec.to_dict())) == hand-wired pipeline, bit for bit."""
        values = make_seasonal_series(PERIOD * 7, PERIOD, seed=31)["values"]
        spec = PipelineSpec(
            decomposer=DecomposerSpec(name, params),
            detector=DetectorSpec("nsigma", {"threshold": 5.0}),
        )
        from_spec = build(PipelineSpec.from_dict(spec.to_dict()))
        decomposer_class = registry.get_component("decomposer", name)
        by_hand = StreamingPipeline(decomposer_class(**params), anomaly_threshold=5.0)

        from_spec.initialize(values[:INIT])
        by_hand.initialize(values[:INIT])
        assert from_spec.process_many(values[INIT:]) == by_hand.process_many(
            values[INIT:]
        )

    def test_detector_threshold_flows_through(self):
        spec = PipelineSpec(
            decomposer=DecomposerSpec("oneshotstl", {"period": PERIOD}),
            detector=DetectorSpec("nsigma", {"threshold": 2.5}),
        )
        pipeline = build(spec)
        assert pipeline.scorer.threshold == 2.5

    def test_forecaster_spec_builds(self):
        spec = ForecasterSpec("seasonal_naive", {"period": PERIOD})
        forecaster = build(ForecasterSpec.from_json(spec.to_json()))
        values = make_seasonal_series(PERIOD * 6, PERIOD, seed=32)["values"]
        forecaster.fit(values[: PERIOD * 4])
        predictions = forecaster.forecast(values[: PERIOD * 5], PERIOD)
        np.testing.assert_allclose(
            predictions, values[PERIOD * 4 : PERIOD * 5]
        )

    def test_build_rejects_non_spec(self):
        with pytest.raises(TypeError):
            build({"name": "oneshotstl"})


class TestSpecDerivation:
    def test_pipeline_spec_property_round_trips(self):
        """A hand-built pipeline reports a spec that rebuilds it exactly."""
        values = make_seasonal_series(PERIOD * 7, PERIOD, seed=33)["values"]
        original = StreamingPipeline(
            OneShotSTL(PERIOD, shift_window=0), anomaly_threshold=4.0
        )
        spec = original.spec
        assert spec is not None
        rebuilt = build(spec)
        original.initialize(values[:INIT])
        rebuilt.initialize(values[:INIT])
        assert original.process_many(values[INIT:]) == rebuilt.process_many(
            values[INIT:]
        )

    def test_spec_is_none_for_unportable_configuration(self):
        from repro.decomposition import STL

        custom_initializer = StreamingPipeline(
            OneShotSTL(PERIOD, initializer=STL(PERIOD, seasonal_window="periodic"))
        )
        assert custom_initializer.spec is None

    def test_spec_of_unregistered_component_is_none(self):
        class Anonymous:
            def get_params(self):
                return {}

        assert spec_of(Anonymous()) is None


class TestEngineSpecNative:
    def test_from_spec_and_spec_property(self):
        spec = EngineSpec(
            pipeline=PipelineSpec(
                DecomposerSpec("oneshotstl", {"period": PERIOD, "shift_window": 0})
            ),
            initialization_length=INIT,
        )
        engine = MultiSeriesEngine.from_spec(spec)
        assert engine.spec == spec
        assert engine.initialization_length == INIT

    def test_per_key_overrides_select_pipeline(self):
        spec = EngineSpec(
            pipeline=PipelineSpec(
                DecomposerSpec("oneshotstl", {"period": PERIOD, "shift_window": 0})
            ),
            initialization_length=INIT,
            overrides={
                "legacy": PipelineSpec(DecomposerSpec("online_stl", {"period": PERIOD}))
            },
        )
        engine = MultiSeriesEngine.from_spec(spec)
        values = make_seasonal_series(PERIOD * 6, PERIOD, seed=34)["values"]
        for value in values:
            engine.process("legacy", float(value))
            engine.process("modern", float(value))
        assert type(engine._series["legacy"].pipeline.decomposer) is OnlineSTL
        # "modern" is a kernel column: its group runs the spec it resolved to
        group, _column = engine._absorbed["modern"]
        assert group.spec == spec.pipeline_for("modern")
        assert group.spec.decomposer.component_class() is OneShotSTL

    def test_override_engine_matches_hand_run_pipelines(self):
        """Heterogeneous fleets in one engine equal independent pipelines."""
        values = make_seasonal_series(PERIOD * 7, PERIOD, seed=35)["values"]
        spec = EngineSpec(
            pipeline=PipelineSpec(
                DecomposerSpec("oneshotstl", {"period": PERIOD, "shift_window": 0})
            ),
            initialization_length=INIT,
            overrides={
                "legacy": PipelineSpec(DecomposerSpec("online_stl", {"period": PERIOD}))
            },
        )
        engine = MultiSeriesEngine.from_spec(spec)
        engine_records = {"legacy": [], "modern": []}
        for value in values:
            for key in engine_records:
                record = engine.process(key, float(value))
                if record.status == "live":
                    engine_records[key].append(record.record)
        for key in engine_records:
            pipeline = spec.pipeline_for(key).build()
            pipeline.initialize(values[:INIT])
            assert engine_records[key] == pipeline.process_many(values[INIT:])

    def test_for_oneshotstl_is_spec_built(self):
        engine = MultiSeriesEngine.for_oneshotstl(PERIOD, shift_window=0)
        assert engine.spec is not None
        assert engine.spec.pipeline.decomposer.name == "oneshotstl"
        assert engine.spec.pipeline.decomposer.params["shift_window"] == 0
