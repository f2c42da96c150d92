"""Regression tests of the plan autotuner and its persistent cache.

The cache is untrusted input: corrupt JSON, stale versions, mismatched
shapes or invalid overrides must be logged and ignored — the tuner
re-measures and overwrites, it never crashes and never applies a wrong
plan.  A valid entry short-circuits the measurement entirely, which is
the contract sessions rely on for fast construction.
"""

import json
import logging

import pytest

from repro.graph.autotune import (CACHE_VERSION, PlanAutotuner,
                                  PlanDecision)
from repro.session import FusionConfig, FusionSession
from repro.types import FrameShape

SHAPE = FrameShape(40, 32)


def _config(**kw):
    kw.setdefault("engine", "arm")
    kw.setdefault("fusion_shape", SHAPE)
    kw.setdefault("quality_metrics", False)
    kw.setdefault("keep_records", False)
    return FusionConfig(**kw)


@pytest.fixture()
def tuner(tmp_path):
    return PlanAutotuner(cache_dir=str(tmp_path), calibration_frames=2)


def _write_entry(tuner, key, **mutations):
    """A structurally valid cache entry for ``key``, then mutated."""
    entry = {
        "version": CACHE_VERSION,
        "key": key,
        "shape": [SHAPE.width, SHAPE.height],
        "overrides": {"executor": "batch"},
        "fps": 10.0,
    }
    entry.update(mutations)
    path = tuner.cache_path(key)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(entry))
    return path


class TestDecisions:
    def test_tunes_then_hits_the_cache(self, tuner):
        config = _config()
        first = tuner.decide(config)
        assert first.source == "tuned"
        assert tuner.cache_path(first.key).is_file()
        second = tuner.decide(config)
        assert second.source == "cache"
        assert second.key == first.key
        assert second.overrides == first.overrides

    def test_winner_is_never_worse_than_the_default(self, tuner):
        decision = tuner.decide(_config())
        rows = {tuple(sorted(r["overrides"].items())): r["fps"]
                for r in decision.candidates}
        assert () in rows, "the incumbent config must always measure"
        assert decision.fps >= rows[()]

    def test_apply_disables_further_autotuning(self, tuner):
        decision = PlanDecision(overrides={"executor": "batch"}, fps=1.0,
                                source="tuned", key="k")
        applied = decision.apply(_config(autotune=True))
        assert applied.autotune is False
        assert applied.executor == "batch"

    def test_different_shapes_use_different_keys(self, tuner):
        a = tuner.cache_key(_config())
        b = tuner.cache_key(_config(fusion_shape=FrameShape(24, 24)))
        assert a != b

    def test_different_graphs_use_different_keys(self, tuner):
        a = tuner.cache_key(_config())
        b = tuner.cache_key(_config(registration=True))
        assert a != b


class TestCacheTolerance:
    """Bad cache files are ignored with a logged event, never fatal."""

    def _decide_expecting_retune(self, tuner, caplog, needle):
        config = _config()
        with caplog.at_level(logging.WARNING, logger="repro.autotune"):
            decision = tuner.decide(config)
        assert decision.source == "tuned", \
            "a bad cache entry must force a re-tune"
        assert any(needle in record.message for record in caplog.records)
        return decision

    def test_corrupt_json_is_ignored_and_retuned(self, tuner, caplog):
        key = tuner.cache_key(_config())
        path = _write_entry(tuner, key)
        path.write_text("{not json at all")
        decision = self._decide_expecting_retune(tuner, caplog,
                                                 "corrupt JSON")
        # the re-tune overwrites the bad file with a valid one
        assert json.loads(path.read_text())["key"] == key
        assert decision.key == key

    def test_stale_version_is_ignored_and_retuned(self, tuner, caplog):
        key = tuner.cache_key(_config())
        _write_entry(tuner, key, version=CACHE_VERSION - 1)
        self._decide_expecting_retune(tuner, caplog, "stale cache")

    def test_shape_mismatch_is_ignored_and_retuned(self, tuner, caplog):
        key = tuner.cache_key(_config())
        _write_entry(tuner, key, shape=[640, 480])
        self._decide_expecting_retune(tuner, caplog, "shape mismatch")

    def test_key_mismatch_is_ignored_and_retuned(self, tuner, caplog):
        key = tuner.cache_key(_config())
        path = _write_entry(tuner, key)
        entry = json.loads(path.read_text())
        entry["key"] = "somebody-else"
        path.write_text(json.dumps(entry))
        self._decide_expecting_retune(tuner, caplog, "key mismatch")

    def test_non_tunable_override_is_ignored(self, tuner, caplog):
        key = tuner.cache_key(_config())
        # {"optimize": True} is what entries wrote while plan
        # optimization was a config field: it must re-tune, not crash
        for overrides in ({"seed": 1, "executor": "batch"},
                          {"optimize": True}):
            _write_entry(tuner, key, overrides=overrides)
            caplog.clear()
            self._decide_expecting_retune(tuner, caplog, "non-tunable")

    def test_invalid_override_value_is_ignored(self, tuner, caplog):
        key = tuner.cache_key(_config())
        _write_entry(tuner, key, overrides={"executor": "warp-drive"})
        self._decide_expecting_retune(tuner, caplog,
                                      "do not validate")

    def test_non_object_entry_is_ignored(self, tuner, caplog):
        key = tuner.cache_key(_config())
        path = tuner.cache_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([1, 2, 3]))
        self._decide_expecting_retune(tuner, caplog, "not an object")

    def test_clear_cache_removes_entries(self, tuner):
        key = tuner.cache_key(_config())
        _write_entry(tuner, key)
        assert tuner.clear_cache() == 1
        assert not tuner.cache_path(key).exists()


class TestConcurrentWriters:
    """The sharded service creates real multi-process writers of one
    cache entry; the publish path (pid-unique tmp + locked rename)
    must never let a reader observe a torn file."""

    def test_concurrent_processes_publish_whole_entries(self, tmp_path):
        import multiprocessing as mp

        ctx = mp.get_context("fork" if "fork"
                             in mp.get_all_start_methods() else "spawn")
        stop = ctx.Event()
        fail = ctx.Event()
        workers = [ctx.Process(target=_hammer_cache,
                               args=(str(tmp_path), seed, stop, fail))
                   for seed in range(4)]
        for worker in workers:
            worker.start()
        try:
            # read the entry continuously while four processes publish
            tuner = PlanAutotuner(cache_dir=str(tmp_path),
                                  calibration_frames=2)
            path = tuner.cache_path(tuner.cache_key(_config()))
            deadline = __import__("time").monotonic() + 3.0
            reads = 0
            while __import__("time").monotonic() < deadline:
                if fail.is_set():
                    break
                if path.exists():
                    text = path.read_text()
                    entry = json.loads(text)  # torn JSON would raise
                    assert entry["key"] == tuner.cache_key(_config())
                    reads += 1
        finally:
            stop.set()
            for worker in workers:
                worker.join(timeout=30)
                if worker.is_alive():
                    worker.kill()
        assert not fail.is_set(), "a writer process crashed"
        assert reads > 0, "the readers never saw a published entry"
        # no abandoned tmp files once the dust settles
        assert not list(tmp_path.rglob("*.tmp"))

    def test_store_leaves_no_tmp_residue(self, tuner):
        decision = tuner.decide(_config())
        parent = tuner.cache_path(decision.key).parent
        assert not list(parent.glob("*.tmp"))


def _hammer_cache(cache_dir, seed, stop, fail):
    """Child-process body: republish the same cache entry in a loop."""
    try:
        tuner = PlanAutotuner(cache_dir=cache_dir, calibration_frames=2)
        config = _config()
        decision = PlanDecision(overrides={"batch_size": seed + 1},
                                fps=float(seed + 1), source="tuned",
                                key=tuner.cache_key(config))
        while not stop.is_set():
            tuner._store(decision, config)
    except BaseException:
        fail.set()
        raise


class TestSessionIntegration:
    def test_second_session_hits_the_plan_cache(self, tmp_path):
        config = _config(autotune=True, plan_cache_dir=str(tmp_path))
        with FusionSession(config) as first:
            assert first.autotune_decision is not None
            assert first.autotune_decision.source == "tuned"
            assert first.config.autotune is False
        with FusionSession(config) as second:
            assert second.autotune_decision.source == "cache", \
                "an identical key must not re-tune"
            assert second.autotune_decision.overrides \
                == first.autotune_decision.overrides
            assert second.autotune_decision.candidates == ()

    def test_untuned_session_has_no_decision(self):
        with FusionSession(_config()) as session:
            assert session.autotune_decision is None
