"""Sweep runtime and the CLI."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.sweeps import (
    energy_sweep,
    find_crossover,
    format_rows,
    forward_stage_sweep,
    total_time_sweep,
)
from repro.types import PAPER_FRAME_SIZES, FrameShape


class TestWarningFreeImport:
    def test_importing_repro_raises_no_warnings(self):
        """DeprecationWarning escalated to an error: a clean
        interpreter must import the package silently."""
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        result = subprocess.run(
            [sys.executable, "-W", "error::DeprecationWarning", "-c",
             "import repro, repro.sweeps, repro.exec, repro.graph; "
             "print('clean')"],
            capture_output=True, text=True, env=env, timeout=120)
        assert result.returncode == 0, result.stderr
        assert "clean" in result.stdout


class TestRuntimeSweeps:
    def test_sweep_covers_paper_sizes(self):
        rows = forward_stage_sweep()
        assert [r.shape for r in rows] == list(PAPER_FRAME_SIZES)
        for row in rows:
            assert set(row.values) == {"arm", "neon", "fpga"}

    def test_energy_sweep_units(self):
        rows = energy_sweep(frames=10)
        full = rows[-1]
        assert full.shape == FrameShape(88, 72)
        # hundreds of millijoules for 10 frames (Fig. 10's axis)
        assert 300 < full.values["arm"] < 1500

    def test_find_crossover(self):
        """First paper size where FPGA beats NEON on total time: the
        model places it at 40x40 (the paper's text says 'beyond 40x40';
        its own -48.1 % anchor pulls the model to the window edge)."""
        rows = total_time_sweep()
        crossover = find_crossover(rows, "fpga", "neon")
        assert crossover in (FrameShape(40, 40), FrameShape(64, 48))

    def test_format_rows_renders_every_size(self):
        text = format_rows(forward_stage_sweep(), "s", "Fig 9a")
        for shape in PAPER_FRAME_SIZES:
            assert str(shape) in text
        assert "ARM" in text and "NEON" in text and "FPGA" in text


class TestCli:
    def test_schedule_command(self, capsys):
        from repro.cli import main
        assert main(["schedule", "--size", "32x24"]) == 0
        out = capsys.readouterr().out
        assert "neon" in out and "chosen" in out

    def test_sweep_command(self, capsys):
        from repro.cli import main
        assert main(["sweep", "--table", "fig10"]) == 0
        assert "Fig. 10" in capsys.readouterr().out

    def test_fuse_command_writes_pgms(self, tmp_path, capsys):
        from repro.cli import main
        out = tmp_path / "fused"
        assert main(["fuse", "--size", "40x40", "--levels", "2",
                     "--output", str(out)]) == 0
        for name in ("visible.pgm", "thermal.pgm", "fused.pgm"):
            path = out / name
            assert path.exists()
            header = path.read_bytes()[:2]
            assert header == b"P5"

    def test_demo_command(self, capsys):
        from repro.cli import main
        assert main(["demo", "--frames", "1", "--size", "40x40",
                     "--levels", "2", "--engine", "neon"]) == 0
        out = capsys.readouterr().out
        assert "modelled fps" in out

    @pytest.mark.parametrize("executor", ["pipeline", "batch"])
    def test_demo_executor_flag(self, executor, capsys):
        from repro.cli import main
        assert main(["demo", "--frames", "2", "--size", "40x40",
                     "--levels", "2", "--engine", "neon",
                     "--executor", executor, "--workers", "2",
                     "--queue-depth", "2"]) == 0
        out = capsys.readouterr().out
        assert f"executor         : {executor}" in out
        assert "wall-clock fps" in out

    def test_tune_subcommand_is_gone(self, capsys):
        """Engine choice belongs to the cost model; ``--executor batch``
        is the tuner's one kept win."""
        from repro.cli import main
        with pytest.raises(SystemExit) as exit_info:
            main(["tune", "--size", "32x32", "--engine", "neon"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'tune'" in capsys.readouterr().err

    def test_demo_json_output(self, capsys):
        import json
        from repro.cli import main
        assert main(["demo", "--frames", "2", "--size", "40x40",
                     "--levels", "2", "--engine", "neon", "--seed", "7",
                     "--executor", "pipeline", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["frames"] == 2
        assert payload["engine_used"] == "neon"
        assert payload["throughput"]["executor"] == "pipeline"
        assert payload["throughput"]["wall_fps"] > 0

    def test_fuse_json_output(self, tmp_path, capsys):
        import json
        from repro.cli import main
        out = tmp_path / "fused"
        assert main(["fuse", "--size", "40x40", "--levels", "2",
                     "--output", str(out), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["frames"] == 1
        assert (out / "fused.pgm").exists()

    def test_demo_online_engine(self, capsys):
        from repro.cli import main
        assert main(["demo", "--frames", "3", "--size", "32x24",
                     "--levels", "2", "--engine", "online"]) == 0
        assert "engine used" in capsys.readouterr().out

    def test_plan_command_prints_graph_and_plan(self, capsys):
        from repro.cli import main
        assert main(["plan", "--size", "40x40", "--levels", "2",
                     "--engine", "neon"]) == 0
        out = capsys.readouterr().out
        assert "FusionGraph" in out and "FusionPlan" in out
        for stage in ("ingest", "visible", "thermal", "fuse", "finalize"):
            assert stage in out
        assert "fused units  : visible+thermal+fuse = " in out
        assert "batch groups" not in out

    def test_plan_json_output(self, capsys):
        from repro.cli import main
        assert main(["plan", "--size", "40x40", "--levels", "2",
                     "--engine", "adaptive", "--executor", "batch",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schedule"] == ["ingest", "visible", "thermal",
                                       "fuse", "finalize"]
        # lowering reads no executor, so the plan names none
        assert "executor" not in payload
        assert payload["compute"] == ["visible+thermal+fuse"]
        assert payload["units"] == {
            "visible+thermal+fuse": ["visible", "thermal", "fuse"]}
        for key in ("batch_schedule", "batch_groups", "fusable_core"):
            assert key not in payload
        assert payload["model_seconds_per_frame"] > 0
        placements = {s["name"]: s["placement"] for s in payload["stages"]}
        assert placements["fuse"] in ("arm", "neon", "fpga")

    def test_plan_temporal_and_wave_fusion(self, capsys):
        from repro.cli import main
        assert main(["plan", "--temporal", "--registration",
                     "--engine", "neon", "--size", "40x40",
                     "--levels", "2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["sequential"] is True
        assert "register" in payload["head"]
        assert payload["compute"] == ["temporal"]

        # the overlapping executor drives the same whole-core unit
        assert main(["plan", "--executor", "pipeline",
                     "--engine", "neon", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["units"] == {
            "visible+thermal+fuse": ["visible", "thermal", "fuse"]}
        assert payload["compute"] == ["visible+thermal+fuse"]
        for key in ("parallel", "mid", "affinity"):
            assert key not in payload

    def _serve_spec(self, tmp_path, **top):
        spec = {
            "pool": {"neon": 1, "fpga": 1},
            "max_in_flight": 4,
            "stream_queue_depth": 2,
            "streams": [
                {"name": "cam-a", "frames": 3, "seed": 1,
                 "config": {"engine": "neon", "size": "40x40",
                            "levels": 2, "quality_metrics": False}},
                {"name": "cam-b", "frames": 3, "seed": 2, "priority": 2,
                 "config": {"engine": "fpga", "size": "40x40",
                            "levels": 2, "temporal": True,
                            "quality_metrics": False}},
            ],
        }
        spec.update(top)
        path = tmp_path / "streams.json"
        path.write_text(json.dumps(spec))
        return path

    def test_serve_command(self, tmp_path, capsys):
        from repro.cli import main
        path = self._serve_spec(tmp_path)
        assert main(["serve", "--streams", str(path)]) == 0
        out = capsys.readouterr().out
        assert "ServiceReport" in out
        assert "cam-a" in out and "cam-b" in out
        assert "engine occupancy" in out

    def test_serve_json_output(self, tmp_path, capsys):
        from repro.cli import main
        path = self._serve_spec(tmp_path)
        assert main(["serve", "--streams", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["frames_total"] == 6
        assert set(payload["streams"]) == {"cam-a", "cam-b"}
        assert payload["pool"]["granted"] == payload["pool"]["released"]
        assert payload["energy_mj_total"] == pytest.approx(
            sum(payload["energy_mj_by_stream"].values()))

    def test_serve_rejects_bad_specs(self, tmp_path, capsys):
        from repro.cli import main
        # unreadable file
        assert main(["serve", "--streams",
                     str(tmp_path / "missing.json")]) == 1
        # no streams
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps({"pool": {"neon": 1}}))
        assert main(["serve", "--streams", str(empty)]) == 1
        # unknown config key
        bad = self._serve_spec(tmp_path, streams=[
            {"name": "x", "config": {"warp": 9}}])
        assert main(["serve", "--streams", str(bad)]) == 1
        # typo'd stream-level key must not be silently ignored
        typo = self._serve_spec(tmp_path, streams=[
            {"name": "x", "priorty": 4.0,
             "config": {"engine": "neon", "size": "40x40"}}])
        assert main(["serve", "--streams", str(typo)]) == 1
        # stream engine missing from the pool
        unpooled = self._serve_spec(tmp_path, pool={"neon": 1})
        assert main(["serve", "--streams", str(unpooled)]) == 1

    def test_serve_workers_and_export_flags(self, tmp_path, capsys):
        from repro.cli import main
        from repro.serve.ops.metrics import parse_prometheus
        path = self._serve_spec(tmp_path, workers=1)
        metrics = tmp_path / "metrics.prom"
        events = tmp_path / "events.jsonl"
        # an explicit --workers overrides the spec's value
        assert main(["serve", "--streams", str(path), "--workers", "2",
                     "--metrics-out", str(metrics),
                     "--events-out", str(events), "--json"]) == 0
        out = capsys.readouterr()
        payload = json.loads(out.out)
        assert f"wrote metrics to {metrics}" in out.err

        samples = parse_prometheus(metrics.read_text())
        assert samples["repro_serve_aggregate_fps"] == pytest.approx(
            payload["aggregate_fps"])
        assert samples["repro_serve_streams_attached_total"] == 2
        assert samples["repro_serve_active_streams"] == 0

        records = [json.loads(line)
                   for line in events.read_text().splitlines()]
        kinds = {record["kind"] for record in records}
        assert {"attach", "lease", "detach", "service"} <= kinds
        start = next(r for r in records if r["kind"] == "service"
                     and r.get("phase") == "start")
        assert start["workers"] == 2  # the CLI flag won

    def test_serve_workers_defaults_to_spec_value(self, tmp_path,
                                                  capsys):
        from repro.cli import main
        path = self._serve_spec(tmp_path, workers=1)
        events = tmp_path / "events.jsonl"
        assert main(["serve", "--streams", str(path),
                     "--events-out", str(events)]) == 0
        capsys.readouterr()
        records = [json.loads(line)
                   for line in events.read_text().splitlines()]
        start = next(r for r in records if r["kind"] == "service"
                     and r.get("phase") == "start")
        assert start["workers"] == 1  # the spec's value held

    def test_serve_spec_slo_and_shedding_blocks(self, tmp_path, capsys):
        from repro.cli import main
        path = self._serve_spec(
            tmp_path,
            shedding={"high_watermark": 1.0, "low_watermark": 0.5},
            streams=[
                {"name": "cam-slo", "frames": 3, "seed": 1,
                 "slo": {"target_fps": 5.0,
                         "priority_class": "critical"},
                 "config": {"engine": "neon", "size": "40x40",
                            "levels": 2, "quality_metrics": False}}])
        assert main(["serve", "--streams", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scheduler"]["cam-slo"]["priority_class"] \
            == "critical"
        assert payload["shedding"]["policy"]["high_watermark"] == 1.0
        assert payload["ledger"]["balanced"] is True
        # an infeasible SLO fails loudly
        greedy = self._serve_spec(tmp_path, streams=[
            {"name": "greedy", "frames": 2,
             "slo": {"target_fps": 1e9},
             "config": {"engine": "neon", "size": "40x40",
                        "levels": 2, "quality_metrics": False}}])
        assert main(["serve", "--streams", str(greedy)]) == 1

    def test_serve_help_documents_the_ops_flags(self, capsys):
        from repro.cli import main
        with pytest.raises(SystemExit):
            main(["serve", "--help"])
        text = capsys.readouterr().out
        assert "--workers" in text
        assert "--metrics-out" in text
        assert "--events-out" in text
        assert "--shards" in text
        assert "Prometheus" in text

    def test_serve_sharded_flag_and_exports(self, tmp_path, capsys):
        """``--shards 2`` serves the spec through the process-sharded
        tier: same report shape, merged metrics, and the parent event
        log records the shard lifecycle."""
        from repro.cli import main
        from repro.serve.ops.metrics import parse_prometheus
        path = self._serve_spec(tmp_path)
        metrics = tmp_path / "metrics.prom"
        events = tmp_path / "events.jsonl"
        assert main(["serve", "--streams", str(path), "--shards", "2",
                     "--metrics-out", str(metrics),
                     "--events-out", str(events), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["frames_total"] == 6
        assert set(payload["streams"]) == {"cam-a", "cam-b"}
        assert payload["admission"]["shards"] == 2
        assert payload["pool"]["granted"] == payload["pool"]["released"]
        assert payload["ledger"]["balanced"] is True

        samples = parse_prometheus(metrics.read_text())
        assert samples["repro_serve_aggregate_fps"] == pytest.approx(
            payload["aggregate_fps"])
        assert samples["repro_serve_live_shards"] == 0  # all drained

        records = [json.loads(line)
                   for line in events.read_text().splitlines()]
        kinds = [record["kind"] for record in records]
        assert kinds.count("shard_start") == 2
        assert kinds.count("shard_exit") == 2

    def test_serve_sharded_spec_key_matches_solo_output(self, tmp_path,
                                                        capsys):
        """The spec's ``"shards"`` key routes to the sharded service,
        and the per-stream energy/frames match the solo run exactly
        (the determinism contract, exercised end to end)."""
        from repro.cli import main
        solo = self._serve_spec(tmp_path)
        assert main(["serve", "--streams", str(solo), "--json"]) == 0
        solo_payload = json.loads(capsys.readouterr().out)

        sharded = self._serve_spec(tmp_path, shards=2)
        assert main(["serve", "--streams", str(sharded), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["admission"]["shards"] == 2
        assert payload["frames_total"] == solo_payload["frames_total"]
        assert payload["energy_mj_by_stream"] \
            == solo_payload["energy_mj_by_stream"]

    def test_seed_makes_runs_reproducible(self, tmp_path):
        from repro.cli import main
        outputs = []
        for attempt in ("a", "b"):
            out = tmp_path / attempt
            assert main(["fuse", "--size", "40x40", "--levels", "2",
                         "--seed", "99", "--output", str(out)]) == 0
            outputs.append((out / "fused.pgm").read_bytes())
        assert outputs[0] == outputs[1]

    def test_seed_changes_the_scene(self, tmp_path):
        from repro.cli import main
        outputs = []
        for seed in ("99", "100"):
            out = tmp_path / seed
            assert main(["fuse", "--size", "40x40", "--levels", "2",
                         "--seed", seed, "--output", str(out)]) == 0
            outputs.append((out / "fused.pgm").read_bytes())
        assert outputs[0] != outputs[1]

    def test_bad_size_argument(self):
        from repro.cli import main
        with pytest.raises(SystemExit):
            main(["demo", "--size", "banana"])

    @pytest.mark.parametrize("size", ["0x24", "-4x24", "32x0", "32x-8"])
    def test_non_positive_size_rejected(self, size, capsys):
        from repro.cli import main
        with pytest.raises(SystemExit):
            main(["demo", f"--size={size}"])
        assert "positive" in capsys.readouterr().err

    def test_write_pgm_roundtrip(self, tmp_path, rng):
        from repro.cli import write_pgm
        img = rng.integers(0, 255, (10, 12)).astype(np.uint8)
        path = tmp_path / "x.pgm"
        write_pgm(path, img)
        raw = path.read_bytes()
        assert raw.startswith(b"P5\n12 10\n255\n")
        data = np.frombuffer(raw.split(b"\n", 3)[3], dtype=np.uint8)
        assert np.array_equal(data.reshape(10, 12), img)
