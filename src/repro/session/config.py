"""Declarative configuration of a fusion session.

:class:`FusionConfig` is the single place a user describes *what* to
run — engine/scheduler, frame geometry, fusion algorithm, the optional
production features (registration, temporal fusion, quality
monitoring) and the accounting models.  The :class:`~repro.session.FusionSession`
facade turns one config into a running system; every field is validated
eagerly so a misconfiguration fails at construction, not mid-stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Optional

from ..core.fusion_rules import FUSION_RULES, FusionRule
from ..errors import ConfigurationError
from ..exec import executor_names
from ..graph import Stage
from ..hw.power import DEFAULT_POWER_MODEL, PowerModel
from ..hw.registry import create_engine, engine_names
from ..types import FULL_FRAME, FrameShape
from ..video.scene import SyntheticScene

#: Engine field values that select a scheduler instead of a fixed engine.
SCHEDULER_NAMES = ("adaptive", "online")


@dataclass
class FusionConfig:
    """Everything a :class:`~repro.session.FusionSession` needs to run.

    Parameters
    ----------
    engine:
        A registered engine name (``"arm"``, ``"neon"``, ``"fpga"``, or
        anything added via :func:`repro.hw.register_engine`), or a
        scheduler: ``"adaptive"`` picks the cost-model optimum once at
        construction (the paper's conclusion), ``"online"`` selects
        per-frame from live measurements (probe, exploit, re-probe).
    executor:
        How frame execution is driven (see :mod:`repro.exec`):
        ``"serial"`` fuses one frame at a time (the paper's baseline
        loop), ``"pipeline"`` overlaps capture/transform/fuse/report
        across threads with bounded queues (the double-buffering
        idea), ``"batch"`` stacks ``batch_size`` frame pairs through
        single NumPy transform calls on one thread.  All executors
        produce bitwise-identical frames and identical modelled costs
        for a fixed seed.  To run a stage on a named engine, force its
        placement through ``graph_overrides["place"]``.
    precision:
        Working precision of the wavelet kernels: ``None`` (default)
        runs every engine at its native precision — bitwise-identical
        to historical behaviour — while ``"float32"``/``"float64"``
        force that dtype end-to-end (session, planner, executors,
        serving).  Engines that cannot run the requested precision are
        rejected eagerly (the FPGA datapath is float32-only), and the
        scheduler modes restrict their candidate set to engines that
        support it.  See README "Precision & compiled backends" for
        the tolerance-parity contract between the two precisions.
    workers:
        Compute pool size of the ``"pipeline"`` executor: each pool
        thread computes whole frames, so up to ``workers`` frames
        compute at once (one on a sequential plan, such as temporal
        fusion).  Ignored by the other executors.
    queue_depth:
        Bound on frames in flight between capture and finalize — the
        analogue of the driver's buffer-area count.
    batch_size:
        Micro-batch size for the ``"batch"`` executor: how many frame
        pairs ride one stacked transform invocation (both modalities
        share the stack, so the transform sees ``2 x batch_size``
        frames).  Larger batches amortize more per-call overhead but
        add latency — the first frame of a batch is not reported until
        the whole batch has computed — and a bounded run's last batch
        is simply smaller.  Ignored by the other executors.
    fusion_shape:
        Geometry frames are fused at (the paper's 88x72 by default).
        A ``(width, height)`` tuple is accepted for convenience.
    levels:
        DT-CWT decomposition depth.
    fusion_rule:
        Coefficient-combination rule name (see :data:`FUSION_RULES`).
    objective:
        ``"energy"`` or ``"time"`` — what the adaptive scheduler
        minimises.
    registration:
        Calibrate the thermal camera onto the visible rig and apply the
        consensus shift.
    temporal:
        Flicker-suppressing temporal fusion instead of independent
        per-frame fusion.
    monitor:
        Runtime quality monitoring with sensor-failure detection.
    quality_metrics:
        Score every fused frame with the no-reference metric suite and
        report the mean (costs a few ms per frame).
    keep_records:
        Retain per-frame results on :meth:`FusionSession.run` reports.
        Streaming never retains results — :meth:`FusionSession.stream`
        yields each one to the consumer — so unbounded streams stay
        bounded in memory either way.
    target_fps / energy_budget_mj:
        Telemetry parameters: deadline for jitter/miss accounting and
        an optional mission energy budget.
    probe_frames / reprobe_every:
        Online-scheduler exploration parameters.
    power_model:
        Rail model used to turn modelled seconds into millijoules.
    seed:
        Seed for the default :class:`SyntheticScene` built when no
        ``scene`` is supplied — fixing it makes runs reproducible.
    scene:
        Optional explicit scene shared by the default frame sources.
    graph_overrides:
        Declarative edits applied to the session's canonical
        :class:`~repro.graph.FusionGraph` before lowering.  A dict
        with any of three keys: ``"drop"`` (tuple of stage names to
        remove, e.g. ``("register",)``), ``"place"`` (stage name ->
        engine name, forcing that stage's arithmetic onto one engine
        and billing its modelled time/energy there — a mixed placement
        such as ``{"visible": "fpga", "thermal": "neon"}`` runs the
        pair's forwards on different engines under any executor),
        and ``"insert_after"`` (anchor stage name -> a
        :class:`~repro.graph.Stage` or tuple of stages spliced in
        after it).  Equivalent to customizing
        :meth:`FusionSession.canonical_graph` by hand, but carried by
        the config so every drive of the session uses it.
    n_sources:
        Number of co-registered source frames fused per output frame.
        The default 2 is the paper's visible+thermal pair; higher
        values add ``source2``, ``source3``, ... forward stages to
        the canonical graph and every executor fuses N-way through
        the same plan.  Temporal fusion is pairwise only.
    """

    engine: str = "adaptive"
    executor: str = "serial"
    precision: Optional[str] = None
    workers: int = 2
    queue_depth: int = 4
    batch_size: int = 8
    fusion_shape: FrameShape = FULL_FRAME
    levels: int = 3
    fusion_rule: str = "max-magnitude"
    objective: str = "energy"
    registration: bool = False
    temporal: bool = False
    monitor: bool = False
    quality_metrics: bool = True
    keep_records: bool = True
    target_fps: float = 25.0
    energy_budget_mj: Optional[float] = None
    probe_frames: int = 1
    reprobe_every: int = 20
    power_model: PowerModel = field(default_factory=lambda: DEFAULT_POWER_MODEL)
    seed: int = 2016
    scene: Optional[SyntheticScene] = None
    graph_overrides: Optional[dict] = None
    n_sources: int = 2

    def __post_init__(self) -> None:
        if isinstance(self.fusion_shape, tuple):
            self.fusion_shape = FrameShape(*self.fusion_shape)
        if not isinstance(self.fusion_shape, FrameShape):
            raise ConfigurationError(
                f"fusion_shape must be a FrameShape or (width, height) "
                f"tuple, got {self.fusion_shape!r}"
            )
        known = engine_names() + SCHEDULER_NAMES
        if self.engine not in known:
            raise ConfigurationError(
                f"unknown engine {self.engine!r}; expected one of "
                f"{sorted(known)}"
            )
        if self.executor not in executor_names():
            raise ConfigurationError(
                f"unknown executor {self.executor!r}; expected one of "
                f"{sorted(executor_names())}"
            )
        if self.workers < 1:
            raise ConfigurationError(
                f"workers must be >= 1, got {self.workers}")
        if self.queue_depth < 1:
            raise ConfigurationError(
                f"queue_depth must be >= 1, got {self.queue_depth}")
        if self.batch_size < 1:
            raise ConfigurationError(
                f"batch_size must be >= 1, got {self.batch_size}")
        if self.precision is not None:
            if self.precision not in ("float32", "float64"):
                raise ConfigurationError(
                    f"precision must be None, 'float32' or 'float64', "
                    f"got {self.precision!r}")
            # fail eagerly when a named engine cannot run the requested
            # precision (e.g. the float32-only FPGA datapath asked for
            # float64); scheduler modes filter candidates at runtime
            if self.engine in engine_names():
                create_engine(self.engine).working_dtype(self.precision)
        if self.levels < 1:
            raise ConfigurationError(f"levels must be >= 1, got {self.levels}")
        if self.fusion_rule not in FUSION_RULES:
            raise ConfigurationError(
                f"unknown fusion rule {self.fusion_rule!r}; expected one "
                f"of {sorted(FUSION_RULES)}"
            )
        if self.objective not in ("time", "energy"):
            raise ConfigurationError(
                f"objective must be 'time' or 'energy', got {self.objective!r}"
            )
        if self.target_fps <= 0:
            raise ConfigurationError(
                f"target_fps must be positive, got {self.target_fps}"
            )
        if self.energy_budget_mj is not None and self.energy_budget_mj <= 0:
            raise ConfigurationError("energy budget must be positive")
        if self.probe_frames < 1:
            raise ConfigurationError("probe_frames must be >= 1")
        if self.reprobe_every < 2:
            raise ConfigurationError("reprobe_every must be >= 2")
        if self.n_sources < 2:
            raise ConfigurationError(
                f"n_sources must be >= 2, got {self.n_sources}")
        if self.temporal and self.n_sources != 2:
            raise ConfigurationError(
                "temporal fusion is pairwise (visible + thermal); "
                f"n_sources={self.n_sources} cannot be combined with "
                f"temporal=True")
        self._validate_graph_overrides()

    def _validate_graph_overrides(self) -> None:
        """Structural validation of ``graph_overrides`` (the semantic
        checks — stage names, engine names, graph shape — happen when
        the session lowers the graph)."""
        if self.graph_overrides is None:
            return
        if not isinstance(self.graph_overrides, dict):
            raise ConfigurationError(
                f"graph_overrides must be a dict, got "
                f"{self.graph_overrides!r}")
        known = {"drop", "place", "insert_after"}
        bad = set(self.graph_overrides) - known
        if bad:
            raise ConfigurationError(
                f"unknown graph_overrides key(s) {sorted(bad)}; "
                f"expected a subset of {sorted(known)}")
        drop = self.graph_overrides.get("drop", ())
        if isinstance(drop, str) or not all(isinstance(n, str)
                                            for n in drop):
            raise ConfigurationError(
                "graph_overrides['drop'] must be an iterable of stage "
                "names")
        place = self.graph_overrides.get("place", {})
        if not isinstance(place, dict) or not all(
                isinstance(k, str) and isinstance(v, str)
                for k, v in place.items()):
            raise ConfigurationError(
                "graph_overrides['place'] must map stage names to "
                "engine names")
        inserts = self.graph_overrides.get("insert_after", {})
        if not isinstance(inserts, dict):
            raise ConfigurationError(
                "graph_overrides['insert_after'] must map anchor stage "
                "names to Stage(s)")
        for anchor, stages in inserts.items():
            if isinstance(stages, Stage):
                continue
            if not isinstance(stages, (list, tuple)) or not all(
                    isinstance(s, Stage) for s in stages):
                raise ConfigurationError(
                    f"graph_overrides['insert_after'][{anchor!r}] must "
                    f"be a Stage or a tuple of Stages")

    # ------------------------------------------------------------------
    def make_rule(self) -> FusionRule:
        """Instantiate the configured fusion rule."""
        return FUSION_RULES[self.fusion_rule]()

    def make_scene(self) -> SyntheticScene:
        """The configured scene, or a seeded default one."""
        return self.scene if self.scene is not None \
            else SyntheticScene(seed=self.seed)

    def with_overrides(self, **changes) -> "FusionConfig":
        """A copy of this config with ``changes`` applied (validated)."""
        bad = set(changes) - {f.name for f in fields(self)}
        if bad:
            raise ConfigurationError(
                f"unknown config field(s): {sorted(bad)}"
            )
        return replace(self, **changes)
