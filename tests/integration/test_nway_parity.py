"""N-way fusion parity: the acceptance bars of the N-source issue.

Two families of guarantees, both verified by hash:

* **N=2 is untouched** — the pair pipeline (core fuse, the serial
  session stream, the canonical graph's structure) is bitwise/
  structurally identical to what the repository produced before
  N-way generalization.  The pixel and structure hashes below were
  captured at that commit; any drift is a regression, not a retune.
* **N=3 is deterministic** — a visible+thermal+depth triple fuses
  bitwise-identically across every executor, worker count and shard
  count, and reproduces the same bytes run-to-run.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.core.fusion import ImageFusion
from repro.graph import FusionGraph
from repro.serve import ShardedFusionService
from repro.session import FusionConfig, FusionSession, SyntheticSource
from repro.types import FrameShape

#: hashes captured at the pre-N-way commit (pair pipeline) and at the
#: introduction of N-way (triple pipeline, its own anchor going
#: forward).  Pixel hashes cover float64 NumPy arithmetic and are
#: stable on the CI platform; structure hashes are platform-free.
GOLDEN = {
    "core_fuse_pair":
        "11b92791a495a40769b8afdf1b7308c24221d57683c8be4bbb4d1c0942554b40",
    "session_stream_pair":
        "3c0e534f52cfc68fdd61afd348c16eb18502bb14f3b92d597b6b645361a935b0",
    "graph_canonical":
        "c8f07f935dd95c06dc4eb43b29455827b8e3d61a3a79b54bdf84f1c3afe5099c",
    "graph_canonical_registration":
        "334e3ff75b2839165590e9b94d60f894613afdf15e806e6173c121dbc019fc23",
    "session_stream_triple":
        "acccec3c9f1f41eadde6e004c230cb5788199c749d0014508db974b4c4cde323",
}

TRIPLE = ("visible", "thermal", "depth")


def graph_signature(graph: FusionGraph) -> str:
    """Structural hash of a graph: names, kinds, state, placement,
    batchability and edges in topological order."""
    material = [[st.name, st.kind, st.state, st.placement, st.batchable,
                 list(st.after)]
                for st in (graph.stage(n) for n in graph.topo_order())]
    return hashlib.sha256(
        json.dumps(material).encode("utf-8")).hexdigest()


def stream_hash(overrides, modalities=("visible", "thermal"),
                limit=4, source_seed=7) -> str:
    """sha256 over the fused pixel bytes of a short synthetic stream."""
    defaults = dict(engine="arm", executor="serial",
                    fusion_shape=FrameShape(40, 48), levels=2, seed=7,
                    quality_metrics=False)
    defaults.update(overrides)
    config = FusionConfig(**defaults)
    source = SyntheticSource(seed=source_seed, limit=limit,
                             modalities=tuple(modalities))
    digest = hashlib.sha256()
    with FusionSession(config) as session:
        for result in session.stream(source):
            digest.update(result.frame.pixels.tobytes())
    return digest.hexdigest()


class TestPairUnchanged:
    """N=2 must be bitwise/structurally identical to the pre-N-way
    repository."""

    def test_core_fuse_matches_head_golden(self):
        rng = np.random.default_rng(7)
        visible = rng.uniform(0.0, 255.0, (48, 40))
        thermal = rng.uniform(0.0, 255.0, (48, 40))
        fused = ImageFusion(levels=2).fuse(visible, thermal).fused
        assert hashlib.sha256(fused.tobytes()).hexdigest() \
            == GOLDEN["core_fuse_pair"]

    def test_session_stream_matches_head_golden(self):
        assert stream_hash({}) == GOLDEN["session_stream_pair"]

    def test_canonical_graph_structure_matches_head(self):
        assert graph_signature(FusionGraph.canonical()) \
            == GOLDEN["graph_canonical"]
        assert graph_signature(FusionGraph.canonical(registration=True)) \
            == GOLDEN["graph_canonical_registration"]

    def test_n2_canonical_graph_is_the_default_graph(self):
        assert graph_signature(FusionGraph.canonical(n_sources=2)) \
            == graph_signature(FusionGraph.canonical())


class TestTripleParity:
    """A three-source stream is bitwise-reproducible everywhere."""

    def test_serial_matches_triple_golden(self):
        assert stream_hash({"n_sources": 3}, modalities=TRIPLE) \
            == GOLDEN["session_stream_triple"]

    @pytest.mark.parametrize("overrides", [
        dict(executor="pipeline", workers=2),
        dict(executor="pipeline", workers=4),
        dict(executor="batch", batch_size=2),
        dict(executor="batch", batch_size=4),
    ], ids=lambda o: f"{o['executor']}-{o.get('workers', o.get('batch_size'))}")
    def test_every_executor_matches_serial(self, overrides):
        overrides = dict(overrides, n_sources=3)
        assert stream_hash(overrides, modalities=TRIPLE) \
            == GOLDEN["session_stream_triple"]

    def test_core_batch_matches_single_triple(self):
        rng = np.random.default_rng(11)
        stacks = [rng.uniform(0.0, 255.0, (3, 40, 48)) for _ in range(3)]
        fusion = ImageFusion(levels=2)
        batch = fusion.fuse(*stacks)
        for i in range(3):
            # the slow reference: one forward per source frame
            pyramids = [fusion.decompose(stack[i]) for stack in stacks]
            single = fusion.reconstruct(fusion.combine(*pyramids))
            assert np.array_equal(batch.fused[i], single)

    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_sharded_triple_matches_solo(self, shards):
        config = FusionConfig(engine="neon",
                              fusion_shape=FrameShape(40, 40), levels=2,
                              seed=5, quality_metrics=False,
                              keep_records=True, n_sources=3)

        def source():
            return SyntheticSource(seed=5, modalities=TRIPLE)

        solo = hashlib.sha256()
        with FusionSession(config) as session:
            for result in session.stream(source(), limit=6):
                solo.update(result.frame.pixels.tobytes())

        service = ShardedFusionService(
            shards=shards, pool={"arm": 1, "neon": 1, "fpga": 2},
            max_in_flight=8, stream_queue_depth=4,
            ring_slot_bytes=4 * 1024 * 1024)
        service.add_stream("triple", config=config, source=source(),
                           frames=6)
        report = service.serve()
        assert not report.errors
        records = sorted(report.streams["triple"].records,
                         key=lambda r: r.index)
        sharded = hashlib.sha256()
        for record in records:
            assert len(record.sources) == 3
            sharded.update(record.frame.pixels.tobytes())
        assert sharded.hexdigest() == solo.hexdigest()
