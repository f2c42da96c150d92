"""The unified session API: config validation, streaming, sources."""

import re
import warnings
from dataclasses import fields

import numpy as np
import pytest

from repro.errors import ConfigurationError, FusionError, VideoError
from repro.hw.registry import create_engine, engine_names, register_engine
from repro.session import (
    ArraySource,
    CameraPairSource,
    CaptureChainSource,
    FrameGroup,
    FramePair,
    FusionConfig,
    FusionSession,
    SyntheticSource,
    as_frame_source,
)
from repro.types import FrameShape
from repro.video.scene import SyntheticScene

SMALL = FrameShape(40, 40)

#: one invalid value per validated field
INVALID_FIELDS = [
    dict(engine="abacus"),
    dict(levels=0),
    dict(fusion_rule="median"),
    dict(objective="joules"),
    dict(target_fps=0.0),
    dict(energy_budget_mj=-1.0),
    dict(probe_frames=0),
    dict(reprobe_every=1),
    dict(fusion_shape="88x72"),
]


def small_config(**overrides):
    defaults = dict(engine="neon", fusion_shape=SMALL, levels=2,
                    scene=SyntheticScene(width=96, height=80, seed=5))
    defaults.update(overrides)
    return FusionConfig(**defaults)


class TestEngineRegistry:
    def test_names_and_creation(self):
        assert set(engine_names()) >= {"arm", "neon", "fpga"}
        for name in ("arm", "neon", "fpga"):
            assert create_engine(name).name == name

    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigurationError):
            create_engine("abacus")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigurationError):
            register_engine("arm", lambda: None)


class TestFusionConfig:
    def test_defaults_are_valid(self):
        config = FusionConfig()
        assert config.engine == "adaptive"
        assert config.fusion_shape == FrameShape(88, 72)

    def test_tuple_shape_coerced(self):
        config = FusionConfig(fusion_shape=(40, 32))
        assert config.fusion_shape == FrameShape(40, 32)

    @pytest.mark.parametrize("bad", INVALID_FIELDS)
    def test_invalid_fields_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            FusionConfig(**bad)

    def test_with_overrides_validates(self):
        config = FusionConfig().with_overrides(engine="fpga", levels=2)
        assert config.engine == "fpga"
        with pytest.raises(ConfigurationError):
            FusionConfig().with_overrides(engines="fpga")
        with pytest.raises(ConfigurationError):
            FusionConfig().with_overrides(levels=0)
        # a session takes one path for its overrides, with or without a
        # config: an unknown name is a ConfigurationError naming it
        for name in ("bogus", "autotune", "plan_cache_dir"):
            with pytest.raises(ConfigurationError, match=name):
                FusionSession(**{name: True})
            with pytest.raises(ConfigurationError, match=name):
                FusionSession(FusionConfig(), **{name: True})

    @pytest.mark.parametrize("good", [
        dict(engine="fpga", levels=2),
        dict(executor="batch", batch_size=4),
        dict(fusion_shape=(40, 32)),
        dict(engine="neon", precision="float64"),
        dict(engine="online", probe_frames=2, reprobe_every=4),
        dict(objective="time", target_fps=30.0),
    ])
    def test_session_override_paths_agree(self, good):
        """Overrides with or without a config build the config that
        ``FusionConfig(**good)`` describes."""
        expected = FusionConfig(**good)
        for args in ((), (FusionConfig(),)):
            with FusionSession(*args, **good) as session:
                assert session.config == expected

    @pytest.mark.parametrize("bad", INVALID_FIELDS)
    def test_session_override_paths_reject_alike(self, bad):
        """One validation path: both session forms raise the error
        ``FusionConfig(**bad)`` raises, message included."""
        with pytest.raises(ConfigurationError) as direct:
            FusionConfig(**bad)
        for args in ((), (FusionConfig(),)):
            with pytest.raises(ConfigurationError) as via_session:
                FusionSession(*args, **bad)
            assert str(via_session.value) == str(direct.value)

    def test_docstring_names_every_field(self):
        doc = FusionConfig.__doc__
        params = doc[doc.index("Parameters\n"):]
        named = {name for line in re.findall(
            r"^    (\w+(?: / \w+)*):$", params, re.MULTILINE)
            for name in line.split(" / ")}
        assert named == {f.name for f in fields(FusionConfig)}

    def test_seed_controls_default_scene(self):
        assert FusionConfig(seed=7).make_scene().seed == 7


class TestEngineChoice:
    """Host engines fuse the same pixels at different modelled cost, so
    the engine is a cost-model decision (``engine=``, ``bind_engine``)
    that host timing has nothing to add to."""

    @staticmethod
    def _fuse(engine):
        config = small_config(engine=engine, quality_metrics=False)
        source = SyntheticSource(scene=SyntheticScene(width=96, height=80,
                                                      seed=5))
        with FusionSession(config) as session:
            return [(r.pixels, r.model_millijoules)
                    for r in session.stream(source, limit=2)]

    @pytest.mark.parametrize("engine", ["arm", "jit", "gpu"])
    def test_host_engines_fuse_neon_pixels_at_their_own_cost(self, engine):
        reference = self._fuse("neon")
        frames = self._fuse(engine)
        assert len(frames) == len(reference) == 2
        for (pixels, mj), (ref_pixels, ref_mj) in zip(frames, reference):
            assert np.array_equal(pixels, ref_pixels)
            assert mj > 0 and mj != ref_mj


#: (config overrides, engines one session builds): one instance per
#: distinct engine its binding and its plan's placements name
ENGINE_SETS = {
    "adaptive": (dict(engine="adaptive"), 3),
    "online": (dict(engine="online"), 3),
    "fpga": (dict(engine="fpga"), 1),
    "neon": (dict(engine="neon"), 1),
    "neon+visible@fpga": (dict(engine="neon", graph_overrides={
        "place": {"visible": "fpga"}}), 2),
    "adaptive+thermal@fpga": (dict(engine="adaptive", graph_overrides={
        "place": {"thermal": "fpga"}}), 3),
}


class TestOneEngineSet:
    """The lowered plan owns every engine a session computes and bills
    on: a session builds each engine once, whatever names it."""

    @pytest.mark.parametrize("label", list(ENGINE_SETS))
    def test_session_builds_each_engine_once(self, label, built_engines):
        overrides, expected = ENGINE_SETS[label]
        # the config's own precision check builds engines; count only
        # what the session builds
        config = FusionConfig(**overrides)
        built_engines.clear()
        session = FusionSession(config)
        assert len(built_engines) == expected
        assert len({engine.name for engine in built_engines}) == expected
        for name in {node.engine for node in session.plan.nodes.values()}:
            assert name == "host" or session.plan.engines[name] \
                in built_engines

    def test_forced_placement_reuses_the_bound_engine(self):
        overrides, _ = ENGINE_SETS["adaptive+thermal@fpga"]
        session = FusionSession(FusionConfig(**overrides))
        assert session.engine.name == "fpga"
        assert session.plan.engines["fpga"] is session.engine
        assert session._processor._forced_engines["thermal"] \
            is session.engine


class TestFusionSession:
    def test_run_reports(self):
        report = FusionSession(small_config()).run(2)
        assert report.frames == 2
        assert report.engine_used == "neon"
        assert report.model_fps > 0
        assert report.millijoules_per_frame > 0
        assert "qabf" in report.quality

    def test_kwarg_construction(self):
        session = FusionSession(engine="arm", fusion_shape=SMALL, levels=2)
        assert session.engine.name == "arm"

    def test_adaptive_decision_at_init(self):
        full = FusionSession(FusionConfig(engine="adaptive"))
        assert full.engine.name == "fpga"
        assert full.decision is not None
        small = FusionSession(FusionConfig(engine="adaptive",
                                           fusion_shape=(32, 24)))
        assert small.engine.name == "neon"

    def test_online_explores_then_exploits(self):
        report = FusionSession(small_config(engine="online")).run(8)
        assert set(report.engine_usage) == {"arm", "neon", "fpga"}
        assert max(report.engine_usage.values()) >= 5

    def test_process_single_pair(self, structured_pair):
        visible, thermal = structured_pair
        session = FusionSession(small_config())
        result = session.process(visible, thermal)
        assert result.pixels.shape == SMALL.array_shape
        assert result.engine == "neon"
        assert result.model_seconds > 0
        assert session.frames_processed == 1

    def test_process_rejects_color_frames(self):
        session = FusionSession(small_config())
        rgb = np.zeros((40, 40, 3))
        with pytest.raises(ConfigurationError):
            session.process(rgb, rgb)

    def test_run_validates_count(self):
        with pytest.raises(ConfigurationError):
            FusionSession(small_config()).run(0)

    def test_stream_validates_limit(self):
        session = FusionSession(small_config())
        with pytest.raises(ConfigurationError):
            list(session.stream(SyntheticSource(seed=1), limit=0))

    def test_streaming_does_not_retain_records(self):
        """stream() hands results to the consumer; only run() batches
        retain them, so infinite streams stay bounded in memory."""
        session = FusionSession(small_config())
        streamed = list(session.stream(SyntheticSource(seed=1), limit=2))
        assert len(streamed) == 2
        assert session.report().records == []
        assert session.report().frames == 2
        assert "qabf" in session.report().quality  # aggregates still kept
        assert "qabf" in streamed[0].quality       # per-frame on the result
        batch = session.run(2)
        assert len(batch.records) == 2

    def test_run_reports_stats_of_the_source_it_used(self):
        """Transport health comes from whichever source fed the run,
        not from the built-in capture chain."""
        session = FusionSession(small_config())
        custom = CaptureChainSource(scene=SyntheticScene(width=96,
                                                         height=80, seed=7))
        report = session.run(2, source=custom)
        assert report.fifo_dropped == custom.fifo_dropped
        assert report.decode_errors == custom.decode_errors
        # a source with no transport counters contributes none
        synthetic = FusionSession(small_config()).run(
            2, source=SyntheticSource(seed=7))
        assert synthetic.fifo_dropped == 0
        assert synthetic.decode_errors == 0

    def test_report_accumulates_across_runs(self):
        session = FusionSession(small_config())
        first = session.run(2)
        second = session.run(3)
        assert first.frames == 2 and second.frames == 3
        assert session.report().frames == 5

    def test_full_feature_stack_runs(self):
        config = small_config(engine="online", fusion_shape=FrameShape(48, 40),
                              registration=True, temporal=True, monitor=True,
                              energy_budget_mj=5000.0)
        session = FusionSession(config)
        report = session.run(5)
        assert report.frames == 5
        assert sum(report.actions.values()) == 5
        assert report.telemetry["frames"] == 5
        assert 0.0 <= report.mean_qabf <= 1.0
        assert report.registered_shift_px < 1.0  # aligned rig
        assert session.telemetry.frames_remaining() is not None


class TestStreamRunEquivalence:
    def test_stream_matches_run_on_fixed_seed(self):
        """run(n) is exactly stream(capture chain, n) — same frames,
        same modelled costs — when the scene seed matches."""
        batch = FusionSession(small_config(scene=None, seed=11))
        batch_report = batch.run(3)

        streamed = FusionSession(small_config(scene=None, seed=11))
        source = CaptureChainSource(scene=SyntheticScene(seed=11))
        results = list(streamed.stream(source, limit=3))

        assert len(results) == batch_report.frames == 3
        for result, record in zip(results, batch_report.records):
            assert np.array_equal(result.pixels, record.pixels)
        assert np.isclose(
            sum(r.model_millijoules for r in results),
            batch_report.model_millijoules_total,
        )

    def test_deterministic_given_seed(self):
        def totals():
            report = FusionSession(small_config(engine="online")).run(4)
            return report.engine_usage, report.model_millijoules_total

        first, second = totals(), totals()
        assert first[0] == second[0]
        assert np.isclose(first[1], second[1])


class TestFrameSources:
    def test_synthetic_source_limit_and_timestamps(self):
        pairs = list(SyntheticSource(seed=3, fps=10.0, limit=3))
        assert len(pairs) == 3
        assert pairs[1].timestamp_s == pytest.approx(0.1)
        assert pairs[0].visible.shape == pairs[0].thermal.shape

    def test_array_source_replays_and_loops(self):
        vis = [np.full((8, 8), float(i)) for i in range(2)]
        th = [np.full((8, 8), 10.0 + i) for i in range(2)]
        assert len(list(ArraySource(vis, th))) == 2
        looped = ArraySource(vis, th, loop=True)
        taken = [pair for pair, _ in zip(looped, range(5))]
        assert len(taken) == 5
        assert np.array_equal(taken[4].visible, vis[0])

    def test_array_source_validation(self):
        good = [np.zeros((8, 8))]
        with pytest.raises(VideoError):
            ArraySource([], [])
        with pytest.raises(FusionError, match="counts differ"):
            ArraySource(good, good * 2)
        with pytest.raises(VideoError):
            ArraySource([np.zeros((8, 8, 3))], good)
        with pytest.raises(FusionError, match="group 0 mismatched"):
            ArraySource([np.zeros((8, 8))], [np.zeros((8, 10))])

    def test_array_source_rejects_empty_visible_side(self):
        """An empty visible recording must hit the emptiness guard,
        not fall through to the count-mismatch complaint."""
        with pytest.raises(VideoError, match="at least one frame group"):
            ArraySource([], [np.zeros((8, 8))])

    def test_array_source_rejects_empty_thermal_side(self):
        with pytest.raises(VideoError, match="at least one frame group"):
            ArraySource([np.zeros((8, 8))], [])

    def test_close_is_idempotent_across_all_sources(self):
        """The streaming layer may close a source more than once
        (stream teardown + context manager); every built-in source
        must tolerate it."""
        vis = [np.zeros((8, 8))]
        sources = [
            SyntheticSource(seed=3, limit=1),
            ArraySource(vis, vis),
            CameraPairSource(seed=3, limit=1),
            CaptureChainSource(seed=3),
        ]
        for source in sources:
            next(iter(source))
            source.close()
            source.close()  # second close must be a no-op, not an error

    def test_camera_pair_source_native_geometries(self):
        scene = SyntheticScene(width=96, height=80, seed=5)
        pair = next(iter(CameraPairSource(scene=scene, limit=1)))
        assert pair.visible.shape == (80, 96)   # webcam at scene size
        assert pair.thermal.shape == (288, 384)  # microbolometer native

    def test_capture_chain_source_stats(self):
        source = CaptureChainSource(scene=SyntheticScene(width=96, height=80,
                                                         seed=5))
        pairs = [pair for pair, _ in zip(source, range(2))]
        assert pairs[0].visible.shape == (80, 96)
        assert pairs[0].thermal.shape == (480, 640)
        assert source.fifo_dropped >= 0 and source.decode_errors >= 0

    def test_plain_iterables_are_coerced(self):
        pairs = [(np.zeros((8, 8)), np.ones((8, 8)))] * 2
        source = as_frame_source(iter(pairs))
        out = list(source)
        assert len(out) == 2 and type(out[0]) is FrameGroup
        assert len(out[0]) == 2
        assert np.array_equal(out[0].visible, np.zeros((8, 8)))
        assert np.array_equal(out[0].thermal, np.ones((8, 8)))
        with pytest.raises(VideoError):
            as_frame_source(42)

    def test_duck_typed_sources_accepted(self):
        class Pairs:  # not a FrameSource subclass, but walks like one
            def frames(self):
                yield FramePair(np.zeros((8, 8)), np.ones((8, 8)))

        assert len(list(as_frame_source(Pairs()))) == 1

    def test_single_camera_source_gets_a_guided_error(self):
        from repro.video import WebcamSimulator
        camera = WebcamSimulator(SyntheticScene(width=96, height=80, seed=1))
        with pytest.raises(VideoError, match="CameraPairSource"):
            as_frame_source(camera)

    def test_run_warns_when_finite_source_exhausts(self):
        vis = [np.zeros((8, 8))] * 2
        th = [np.ones((8, 8))] * 2
        session = FusionSession(small_config())
        with pytest.warns(RuntimeWarning, match="2 of the 10"):
            report = session.run(10, source=ArraySource(vis, th))
        assert report.frames == 2  # the report tells the truth

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("executor", ["serial", "batch"])
    def test_non_finite_frame_fails_at_ingest(self, bad, executor):
        """One non-finite pixel is a FusionError naming the frame and
        the source, raised before any kernel or metric warns on it."""
        rng = np.random.default_rng(0)
        vis = [rng.random((48, 48)) * 255 for _ in range(3)]
        th = [rng.random((48, 48)) * 255 for _ in range(3)]
        th[1][7, 9] = bad
        session = FusionSession(small_config(executor=executor))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FusionError,
                               match=r"frame 1, source 'thermal'.*infinite"):
                session.run(3, source=ArraySource(vis, th))

    def test_non_finite_frame_names_its_nway_source(self):
        good = [np.full((40, 40), 9.0)]
        depth = [np.full((40, 40), np.nan)]
        session = FusionSession(small_config(n_sources=3))
        with pytest.raises(FusionError,
                           match=r"frame 0, source 'source2': 1600 NaN"):
            session.run(1, source=ArraySource(good, good, depth))

    @pytest.mark.parametrize("bad", [
        np.full((48, 48), 3 + 4j), np.full((48, 48), "12")],
        ids=["complex", "str"])
    @pytest.mark.parametrize("executor", ["serial", "batch"])
    def test_mistyped_frame_fails_at_ingest(self, bad, executor):
        """A complex or string frame is a FusionError naming frame,
        source and dtype — not a silently dropped imaginary part
        (ComplexWarning) or NumPy's raw conversion error."""
        good = np.full((48, 48), 9.0)

        class _Raw:  # hands frames to the session uncast
            def frames(self):
                yield FramePair(good, good)
                yield FramePair(good, bad)

        session = FusionSession(small_config(executor=executor))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(
                    FusionError,
                    match=rf"frame 1, source 'thermal': dtype {bad.dtype}"):
                session.run(2, source=_Raw())

    @pytest.mark.parametrize("bad", [
        np.full((8, 8), 1j), np.full((8, 8), "x")], ids=["complex", "str"])
    def test_mistyped_frame_fails_in_array_sources(self, bad):
        good = np.zeros((8, 8))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FusionError,
                               match=r"frame 1, source 'visible': dtype"):
                ArraySource([good, bad], [good, good])
            with pytest.raises(FusionError,
                               match=r"frame 0, source 'source2': dtype"):
                ArraySource([good], [good], [bad])
            with pytest.raises(FusionError,
                               match=r"frame 0, source 'thermal': dtype"):
                list(as_frame_source(iter([(good, bad)])))

    def test_non_2d_frame_names_frame_and_source(self):
        good = np.zeros((8, 8))
        with pytest.raises(VideoError,
                           match=r"frame 1, source 'thermal': .*2-D"):
            ArraySource([good, good], [good, np.zeros((8, 8, 3))])
        session = FusionSession(small_config())
        with pytest.raises(ConfigurationError,
                           match=r"frame 0, source 'visible': .*2-D"):
            session.process(np.zeros((8, 8, 3)), good)

    def test_session_streams_every_source_kind(self, structured_pair):
        """The acceptance matrix: synthetic, arrays, camera sims."""
        visible, thermal = structured_pair
        sources = (
            SyntheticSource(seed=2),
            ArraySource([visible] * 2, [thermal] * 2),
            CameraPairSource(scene=SyntheticScene(width=96, height=80,
                                                  seed=2)),
        )
        for source in sources:
            session = FusionSession(small_config())
            results = list(session.stream(source, limit=2))
            assert len(results) == 2
            for result in results:
                assert result.pixels.shape == SMALL.array_shape
                assert result.pixels.dtype == np.uint8


class TestFrameGroups:
    """The N-way source protocol: FrameGroup, its pair constructor,
    and N-way sessions."""

    def test_frame_group_basics(self):
        frames = tuple(np.full((8, 8), float(i)) for i in range(3))
        group = FrameGroup(frames=frames, timestamp_s=0.5, index=2)
        assert len(group) == 3
        assert np.array_equal(group.visible, frames[0])
        assert np.array_equal(group.thermal, frames[1])
        assert group.timestamp_s == 0.5 and group.index == 2

    def test_frame_group_needs_two_sources(self):
        with pytest.raises(FusionError, match=">= 2"):
            FrameGroup(frames=(np.zeros((8, 8)),))

    def test_frame_pair_is_a_two_source_group(self):
        pair = FramePair(np.zeros((8, 8)), np.ones((8, 8)))
        assert isinstance(pair, FrameGroup)
        assert len(pair) == 2
        assert pair.frames[0] is pair.visible
        assert pair.frames[1] is pair.thermal

    def test_synthetic_source_modalities(self):
        triples = list(SyntheticSource(
            seed=3, limit=2,
            modalities=("visible", "thermal", "depth")))
        assert len(triples) == 2
        assert all(len(group) == 3 for group in triples)
        # the first two modalities are the exact frames the default
        # pair stream renders — adding a modality must not perturb the
        # existing sequence
        pairs = list(SyntheticSource(seed=3, limit=2))
        for pair, triple in zip(pairs, triples):
            assert np.array_equal(pair.visible, triple.frames[0])
            assert np.array_equal(pair.thermal, triple.frames[1])

    def test_unknown_modality_rejected(self):
        with pytest.raises(VideoError, match="depth"):
            list(SyntheticSource(seed=1, limit=1,
                                 modalities=("visible", "sonar")))

    def test_array_group_source_replays_and_loops(self):
        # N streams replay as N-frame groups, drawn position by position
        streams = [[np.full((8, 8), float(10 * s + i)) for i in range(2)]
                   for s in range(3)]
        groups = list(ArraySource(*streams))
        assert len(groups) == 2
        assert all(len(g) == 3 for g in groups)
        assert np.array_equal(groups[1].frames[2], streams[2][1])
        looped = ArraySource(*streams, loop=True)
        taken = [g for g, _ in zip(looped, range(5))]
        assert np.array_equal(taken[4].frames[0], streams[0][0])

    def test_array_group_source_validation(self):
        # ArraySource holds the N-way contract at N = 3
        good = [np.zeros((8, 8))]
        with pytest.raises(VideoError, match=">= 2 streams"):
            ArraySource(good)
        with pytest.raises(VideoError, match="at least one"):
            ArraySource(good, [], good)
        with pytest.raises(FusionError, match="counts differ"):
            ArraySource(good, good * 2, good)
        with pytest.raises(VideoError, match="2-D"):
            ArraySource(good, good, [np.zeros((8, 8, 3))])
        with pytest.raises(FusionError, match="group 0 mismatched"):
            ArraySource(good, good, [np.zeros((8, 10))])

    def test_three_source_session_stream(self):
        config = small_config(n_sources=3)
        source = SyntheticSource(
            seed=5, modalities=("visible", "thermal", "depth"))
        with FusionSession(config) as session:
            results = list(session.stream(source, limit=2))
        assert len(results) == 2
        for result in results:
            assert len(result.sources) == 3
            assert result.pixels.shape == SMALL.array_shape

    def test_source_width_must_match_plan(self):
        with FusionSession(small_config(n_sources=3)) as session:
            with pytest.raises(FusionError, match="fuses 3 sources"):
                list(session.stream(SyntheticSource(seed=1), limit=1))
        with FusionSession(small_config()) as session:
            source = SyntheticSource(
                seed=1, modalities=("visible", "thermal", "depth"))
            with pytest.raises(FusionError, match="fuses 2 sources"):
                list(session.stream(source, limit=1))

    def test_process_accepts_n_frames(self):
        rng = np.random.default_rng(9)
        frames = [rng.uniform(0, 255, SMALL.array_shape)
                  for _ in range(3)]
        with FusionSession(small_config(n_sources=3)) as session:
            result = session.process(*frames)
        assert result.pixels.shape == SMALL.array_shape
        assert len(result.sources) == 3

    @pytest.mark.parametrize("executor", ("serial", "batch"))
    @pytest.mark.parametrize("n_sources", (2, 3, 4))
    def test_model_seconds_bill_every_forward(self, n_sources, executor):
        rng = np.random.default_rng(n_sources)
        groups = [tuple(rng.uniform(0, 255, SMALL.array_shape)
                        for _ in range(n_sources)) for _ in range(3)]
        config = small_config(n_sources=n_sources, executor=executor,
                              batch_size=2, keep_records=True,
                              quality_metrics=False)
        with FusionSession(config) as session:
            report = session.run(len(groups), source=iter(groups))
            per_frame = session.plan.model_seconds_per_frame
        assert [r.model_seconds for r in report.records] \
            == [pytest.approx(per_frame, rel=1e-12)] * len(groups)

    def test_config_rejects_bad_n_sources(self):
        with pytest.raises(ConfigurationError):
            FusionConfig(n_sources=1)
        with pytest.raises(ConfigurationError):
            FusionConfig(n_sources=3, temporal=True)
