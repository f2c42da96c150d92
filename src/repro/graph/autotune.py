"""Plan autotuning: measure candidate plans once, reuse the winner.

The planner's defaults are safe, not optimal: the best executor, batch
size, worker count and engine placement for a given workload depend on
frame shape, graph structure and the host the session runs on.  The
:class:`PlanAutotuner` settles the question empirically — it enumerates
a bounded set of candidate configurations (executor x batch size x
workers x dtype-compatible placement),
drives each over a short pre-rendered calibration prefix, and applies
the fastest.  The incumbent configuration is always candidate zero, so
the winner is **never worse than the default** by construction.

Winners persist in an on-disk JSON cache keyed by the tuple the
measurement actually depends on — graph signature, config fingerprint
and frame shape — so the next session with the same key skips the
calibration entirely (:attr:`PlanDecision.source` tells a cache hit
from a fresh tune).  Cache files are treated as untrusted
input: corrupt JSON, stale cache versions, shape mismatches or invalid
overrides are logged on the ``repro.autotune`` logger and ignored — the
tuner re-measures and overwrites; it never crashes on a bad file and
never applies a plan whose key does not match.

``FusionConfig(autotune=True)`` consults the tuner on session
construction; ``repro tune`` runs it from the command line.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None

log = logging.getLogger("repro.autotune")

#: bump when the cache entry layout changes; older entries re-tune
#: (2: precision joined the fingerprint and the tunable field set;
#: 3: the optimization flag left both: every lowering fuses stages)
CACHE_VERSION = 3

#: config fields a cached decision may override (anything else in a
#: cache file marks the entry invalid)
TUNABLE_FIELDS = ("executor", "workers", "batch_size", "engine",
                  "precision")


@dataclass(frozen=True)
class PlanDecision:
    """The autotuner's verdict for one (graph, config, shape) key."""

    #: config-field overrides of the winning candidate ({} = keep the
    #: config exactly as given)
    overrides: Dict[str, object]
    #: calibration throughput of the winner, frames/second
    fps: float
    #: ``"tuned"`` (measured this call) or ``"cache"`` (loaded)
    source: str
    #: the cache key the decision is stored under
    key: str
    #: every measured candidate as ``{"overrides", "fps"}`` rows,
    #: winner first by fps (empty on a cache hit)
    candidates: Tuple[Dict[str, object], ...] = field(default=())

    def apply(self, config):
        """``config`` with the winning overrides applied (autotuning
        disabled on the result so sessions built from it lower
        directly)."""
        return config.with_overrides(autotune=False, **self.overrides)

    def as_dict(self) -> Dict[str, object]:
        return {
            "overrides": dict(self.overrides),
            "fps": self.fps,
            "source": self.source,
            "key": self.key,
            "candidates": [dict(c) for c in self.candidates],
        }


def default_cache_dir() -> Path:
    """``$REPRO_PLAN_CACHE`` when set, else ``~/.cache/repro/plans``."""
    env = os.environ.get("REPRO_PLAN_CACHE")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro" / "plans"


@contextmanager
def cache_write_lock(path: Path):
    """Exclusive advisory lock serializing publishes of one cache entry.

    The lock lives in a sibling ``<entry>.lock`` file (never the entry
    itself — the entry is replaced by rename, which would drop the
    lock's inode).  ``fcntl.flock`` is advisory and process-wide, which
    is exactly the concurrency the sharded service creates; platforms
    without :mod:`fcntl` fall back to lockless last-writer-wins, which
    is still torn-file-free because every writer renames a complete
    pid-unique tmp file into place.
    """
    if fcntl is None:  # pragma: no cover - non-POSIX fallback
        yield
        return
    lock_path = path.with_name(path.name + ".lock")
    with open(lock_path, "w") as lock_fh:
        fcntl.flock(lock_fh, fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(lock_fh, fcntl.LOCK_UN)


class PlanAutotuner:
    """Measure candidate plans on a calibration prefix; cache winners.

    Parameters
    ----------
    cache_dir:
        Where winners persist (default :func:`default_cache_dir`).
    calibration_frames:
        Length of the pre-rendered prefix each candidate is measured
        on.  Short by design — the tuner compares candidates under
        identical input, it does not benchmark absolute throughput.
    """

    def __init__(self, cache_dir: Optional[str] = None,
                 calibration_frames: int = 6):
        if calibration_frames < 1:
            raise ValueError(
                f"calibration_frames must be >= 1, got "
                f"{calibration_frames}")
        self.cache_dir = Path(cache_dir) if cache_dir else default_cache_dir()
        self.calibration_frames = calibration_frames

    # -- cache keys ----------------------------------------------------
    def cache_key(self, config) -> str:
        """Hex digest identifying what a tuning verdict depends on:
        graph signature, config fingerprint, frame shape."""
        material = {
            "version": CACHE_VERSION,
            "graph": self._graph_signature(config),
            "config": self._config_fingerprint(config),
            "shape": [config.fusion_shape.width,
                      config.fusion_shape.height],
        }
        blob = json.dumps(material, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:24]

    @staticmethod
    def _graph_signature(config) -> List[List[object]]:
        """The structural identity of the graph this config lowers."""
        from ..session.session import build_session_graph
        graph = build_session_graph(config)
        return [
            [stage.name, stage.kind, stage.state, stage.placement,
             stage.batchable, list(stage.after)]
            for stage in (graph.stage(name) for name in graph.topo_order())
        ]

    @staticmethod
    def _config_fingerprint(config) -> Dict[str, object]:
        """The config fields a tuning verdict is conditioned on — the
        workload identity, including the incumbent values of the axes
        the tuner searches (a different starting point is a different
        default candidate)."""
        return {
            "engine": config.engine,
            "executor": config.executor,
            "workers": config.workers,
            "queue_depth": config.queue_depth,
            "batch_size": config.batch_size,
            "levels": config.levels,
            "fusion_rule": config.fusion_rule,
            "objective": config.objective,
            "registration": config.registration,
            "temporal": config.temporal,
            "monitor": config.monitor,
            "precision": getattr(config, "precision", None),
            "n_sources": getattr(config, "n_sources", 2),
        }

    def cache_path(self, key: str) -> Path:
        return self.cache_dir / f"{key}.json"

    # -- the decision --------------------------------------------------
    def decide(self, config) -> PlanDecision:
        """The winning plan decision for ``config``: loaded from the
        cache when a valid entry exists, otherwise measured on the
        calibration prefix and persisted."""
        key = self.cache_key(config)
        cached = self._load(key, config)
        if cached is not None:
            return cached
        decision = self._tune(config, key)
        self._store(decision, config)
        return decision

    # -- cache IO (tolerant of hostile files) --------------------------
    def _load(self, key: str, config) -> Optional[PlanDecision]:
        path = self.cache_path(key)
        try:
            raw = path.read_text()
        except FileNotFoundError:
            return None
        except OSError as exc:
            log.warning("plan cache %s unreadable (%s); re-tuning",
                        path, exc)
            return None
        try:
            entry = json.loads(raw)
        except ValueError:
            log.warning("plan cache %s is corrupt JSON; ignoring and "
                        "re-tuning", path)
            return None
        reason = self._validate(entry, key, config)
        if reason is not None:
            log.warning("plan cache %s rejected (%s); ignoring and "
                        "re-tuning", path, reason)
            return None
        return PlanDecision(overrides=dict(entry["overrides"]),
                            fps=float(entry["fps"]),
                            source="cache", key=key)

    def _validate(self, entry: object, key: str, config) -> Optional[str]:
        """Why ``entry`` must not be applied, or None when it is
        sound.  Every check guards the never-apply-a-wrong-plan
        contract; the caller logs the reason and re-tunes."""
        if not isinstance(entry, dict):
            return f"entry is {type(entry).__name__}, not an object"
        if entry.get("version") != CACHE_VERSION:
            return (f"stale cache version {entry.get('version')!r} "
                    f"(expected {CACHE_VERSION})")
        if entry.get("key") != key:
            return f"key mismatch: entry carries {entry.get('key')!r}"
        shape = entry.get("shape")
        expected = [config.fusion_shape.width, config.fusion_shape.height]
        if shape != expected:
            return f"shape mismatch: entry tuned for {shape}, not {expected}"
        overrides = entry.get("overrides")
        if not isinstance(overrides, dict):
            return "overrides missing or not an object"
        unknown = set(overrides) - set(TUNABLE_FIELDS)
        if unknown:
            return f"non-tunable override field(s) {sorted(unknown)}"
        if not isinstance(entry.get("fps"), (int, float)):
            return "fps missing or not a number"
        try:
            config.with_overrides(autotune=False, **overrides)
        except Exception as exc:
            return f"overrides do not validate: {exc}"
        return None

    def _store(self, decision: PlanDecision, config) -> None:
        path = self.cache_path(decision.key)
        entry = {
            "version": CACHE_VERSION,
            "key": decision.key,
            "shape": [config.fusion_shape.width,
                      config.fusion_shape.height],
            "overrides": dict(decision.overrides),
            "fps": decision.fps,
        }
        # Concurrent writers exist: shard processes autotuning the
        # same (graph, config, shape) key race here.  A fixed tmp name
        # would let two writers interleave write_text/replace and
        # publish a torn file, so each writer gets a pid-unique tmp
        # and the publish (tmp -> path rename) runs under an exclusive
        # lock file next to the entry — last writer wins, readers only
        # ever see a complete JSON document.
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
            tmp.write_text(json.dumps(entry, indent=2, sort_keys=True))
            with cache_write_lock(path):
                tmp.replace(path)
        except OSError as exc:
            log.warning("plan cache %s not persisted (%s); tuning "
                        "result applies to this session only", path, exc)

    # -- candidate enumeration and measurement -------------------------
    def candidates(self, config) -> List[Dict[str, object]]:
        """Bounded candidate set, incumbent (no overrides) first."""
        seen = set()
        out: List[Dict[str, object]] = []

        def add(ov: Dict[str, object]) -> None:
            # drop axes already at the config's value so duplicates of
            # the incumbent never re-measure
            ov = {k: v for k, v in ov.items()
                  if getattr(config, k) != v}
            marker = tuple(sorted(ov.items()))
            if marker not in seen:
                seen.add(marker)
                out.append(ov)

        add({})
        add({"executor": "serial"})
        add({"executor": "pipeline", "workers": 2})
        for batch in (4, 8):
            add({"executor": "batch", "batch_size": batch})
        for name in self._placement_axis(config):
            add({"engine": name})
        for precision in self._precision_axis(config):
            add({"precision": precision})
            for name in self._placement_axis(config, precision):
                add({"engine": name, "precision": precision})
        return out

    @staticmethod
    def _placement_axis(config, precision: Optional[str] = None
                        ) -> List[str]:
        """Alternative fixed placements that preserve output bits: only
        engines whose working dtype matches the incumbent's (a dtype
        change is a numerics change, not a tuning decision), and only
        when the config names a concrete engine to begin with.

        Registered extension engines (``jit``, ``gpu``) qualify through
        the same dtype test, so they become placement candidates
        automatically.  ``precision`` probes the axis under
        a candidate precision override instead of the config's own;
        engines that reject the pinned dtype are skipped, not fatal."""
        from ..errors import ConfigurationError
        from ..hw.registry import create_engine, engine_names
        if config.engine not in engine_names():
            return []
        if precision is None:
            precision = getattr(config, "precision", None)
        try:
            base = create_engine(config.engine).transform(
                1, precision=precision).backend.dtype
        except ConfigurationError:
            return []
        axis = []
        for name in engine_names():
            if name == config.engine:
                continue
            try:
                dtype = create_engine(name).transform(
                    1, precision=precision).backend.dtype
            except ConfigurationError:
                continue
            if dtype == base:
                axis.append(name)
        return axis

    @staticmethod
    def _precision_axis(config) -> List[str]:
        """Candidate precision overrides.  Only a config that already
        pinned ``precision="float64"`` opts into exploring the float32
        datapath (the documented tolerance-parity contract); the
        engine-native default stays bitwise by never moving this
        axis."""
        if getattr(config, "precision", None) == "float64":
            return ["float32"]
        return []

    def _calibration_pairs(self, config) -> List[Tuple[object, object]]:
        """A deterministic pre-rendered prefix shared by every
        candidate (rendering cost must not contaminate the
        comparison)."""
        from ..video.scene import SyntheticScene
        shape = config.fusion_shape
        scene = SyntheticScene(width=shape.width, height=shape.height,
                               seed=config.seed)
        return [(scene.render_visible(i / 25.0),
                 scene.render_thermal(i / 25.0))
                for i in range(self.calibration_frames)]

    def _measure(self, config, overrides: Dict[str, object],
                 pairs: List[Tuple[object, object]]) -> Optional[float]:
        """Wall-clock fps of one candidate over the calibration
        prefix, or None when the candidate does not apply to this
        config (validation rejects the combination)."""
        from ..errors import ReproError
        from ..session.session import FusionSession
        try:
            candidate = config.with_overrides(
                autotune=False, quality_metrics=False,
                keep_records=False, **overrides)
        except ReproError:
            return None
        session = FusionSession(candidate)
        try:
            for _ in session.stream(list(pairs)):
                pass
            fps = session._last_throughput.get("wall_fps", 0.0)
        except ReproError:
            return None
        finally:
            session.close()
        return float(fps)

    def _tune(self, config, key: str) -> PlanDecision:
        pairs = self._calibration_pairs(config)
        measured: List[Dict[str, object]] = []
        for overrides in self.candidates(config):
            fps = self._measure(config, overrides, pairs)
            if fps is None:
                continue
            measured.append({"overrides": overrides, "fps": fps})
        # the incumbent always measures, so `measured` is never empty;
        # strict > keeps the incumbent on ties
        best = measured[0]
        for row in measured[1:]:
            if row["fps"] > best["fps"]:
                best = row
        ranked = tuple(sorted(measured, key=lambda r: -r["fps"]))
        decision = PlanDecision(overrides=dict(best["overrides"]),
                                fps=float(best["fps"]),
                                source="tuned", key=key,
                                candidates=ranked)
        return decision

    def clear_cache(self) -> int:
        """Delete every cache entry under this tuner's directory;
        returns how many files were removed."""
        removed = 0
        if self.cache_dir.is_dir():
            for path in self.cache_dir.glob("*.json"):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed


__all__ = ["CACHE_VERSION", "PlanAutotuner", "PlanDecision",
           "TUNABLE_FIELDS", "default_cache_dir"]
