"""Round-trip tests for typed artifacts and the artifact store."""

import numpy as np
import pytest

from repro.color import Color
from repro.decompose import routing_to_targets, synthesize_masks
from repro.decompose.bitmap import Bitmap
from repro.errors import PipelineError
from repro.geometry import Rect
from repro.pipeline import (
    ArtifactStore,
    DesignArtifact,
    GridArtifact,
    Pipeline,
    PipelineConfig,
    mask_set_from_dict,
    mask_set_to_dict,
    replay_onto_grid,
)
from repro.pipeline.artifacts import (
    _decode_bitmap,
    _encode_bitmap,
    artifact_from_record,
)


def _run(tmp_path, **overrides):
    config = PipelineConfig(circuit="Test1", scale=0.1, cache_dir=str(tmp_path), **overrides)
    return Pipeline(config).run()


class TestBitmapCodec:
    def test_roundtrip_preserves_bits(self):
        rng = np.random.default_rng(7)
        window = Rect(0, 0, 640, 480)
        data = rng.random((64, 48)) > 0.5
        bmp = Bitmap(window, 10, data=data)
        rec = _encode_bitmap(bmp)
        back = _decode_bitmap(window, 10, rec)
        assert np.array_equal(back.data, data)
        assert back.window == window

    def test_non_multiple_of_eight_shape(self):
        window = Rect(0, 0, 130, 70)
        data = np.zeros((13, 7), dtype=bool)
        data[3, 5] = True
        data[12, 6] = True
        back = _decode_bitmap(window, 10, _encode_bitmap(Bitmap(window, 10, data=data)))
        assert np.array_equal(back.data, data)


class TestMaskSetRoundtrip:
    def test_roundtrip(self, tmp_path):
        run = _run(tmp_path)
        grid = run.artifact("grid").build()
        result = run.artifact("routing").result()
        targets = routing_to_targets(grid, result, 0)
        masks = synthesize_masks(targets, grid.rules)
        back = mask_set_from_dict(mask_set_to_dict(masks))
        assert back.window == masks.window
        assert back.resolution == masks.resolution
        assert back.rules == masks.rules
        assert len(back.targets) == len(masks.targets)
        for mine, theirs in zip(back.targets, masks.targets):
            assert mine == theirs
        for name in ("target_bmp", "core_mask", "spacer", "cut_mask", "printed"):
            assert np.array_equal(getattr(back, name).data, getattr(masks, name).data)


class TestArtifactAccessors:
    def test_design_parses_netlist(self, tmp_path):
        run = _run(tmp_path)
        design = run.artifact("design")
        assert isinstance(design, DesignArtifact)
        netlist = design.netlist()
        assert len(netlist) == len(run.artifact("routing").result().routes)

    def test_grid_build_applies_blockages(self):
        from repro.geometry import Point
        from repro.grid.routing_grid import CellState

        art = GridArtifact(
            {"width": 10, "height": 10, "num_layers": 2, "blockages": [[0, 2, 2, 4, 4]]}
        )
        grid = art.build()
        assert grid.width == 10 and grid.num_layers == 2
        assert grid.owner(0, Point(3, 3)) == CellState.BLOCKED
        assert grid.owner(1, Point(3, 3)) == CellState.FREE

    def test_routing_artifact_typed_keys(self, tmp_path):
        """The routing artifact carries the final colors inside its
        result, and the scenario census and overlay breakdown beside it."""
        routing = _run(tmp_path).artifact("routing")
        colorings = routing.result().colorings
        assert colorings
        for layer, per_net in colorings.items():
            assert isinstance(layer, int)
            for net, color in per_net.items():
                assert isinstance(net, int)
                assert isinstance(color, Color)
        census = routing.scenario_census()
        assert census and all(isinstance(v, int) for v in census.values())
        assert routing.overlay_breakdown().to_dict() == routing.payload["overlay"]

    def test_replay_matches_result(self, tmp_path):
        run = _run(tmp_path)
        result = run.artifact("routing").result()
        grid = replay_onto_grid(run.artifact("grid").build(), result)
        net_id, seg = next(
            (nid, s)
            for nid, r in sorted(result.routes.items())
            if r.success
            for s in r.segments
        )
        for p in seg.points():
            assert grid.owner(seg.layer, p) == net_id

    def test_unknown_kind_rejected(self):
        with pytest.raises(PipelineError):
            artifact_from_record({"kind": "nope", "payload": {}})


class TestStores:
    def test_artifact_store_roundtrip(self, tmp_path):
        store = ArtifactStore(tmp_path / "cache")
        art = DesignArtifact({"netlist_text": "x", "width": 3, "height": 3, "num_layers": 1})
        art.hash = "abc123"
        nbytes, published = store.publish(art, "load_design")
        assert nbytes > 0 and published
        assert store.has("abc123")
        back = store.load("abc123")
        assert isinstance(back, DesignArtifact)
        assert back.payload == art.payload
        assert store.load("missing") is None

    def test_corrupt_file_is_skipped_with_warning(self, tmp_path):
        """A half-written entry (killed writer) is a miss, never fatal:
        the stage re-runs and republishes over it."""
        from repro import obs

        store = ArtifactStore(tmp_path / "cache")
        (tmp_path / "cache").mkdir()
        (tmp_path / "cache" / "deadbeef.json").write_text("{not json")
        with obs.session() as ob:
            with pytest.warns(RuntimeWarning, match="corrupt artifact"):
                assert store.load("deadbeef") is None
            with pytest.warns(RuntimeWarning, match="corrupt artifact"):
                assert store.entries() == []
            assert ob.registry.total("store_corrupt_entries_total") == 2

    def test_schema_mismatch_is_a_miss(self, tmp_path):
        store = ArtifactStore(tmp_path / "cache")
        art = GridArtifact({"width": 1, "height": 1, "num_layers": 1})
        art.hash = "h1"
        store.publish(art, "build_grid")
        path = tmp_path / "cache" / "h1.json"
        path.write_text(path.read_text().replace('"schema": 1', '"schema": 999'))
        assert store.load("h1") is None

    def test_record_with_a_tenant_key_still_loads(self, tmp_path):
        """Records published before the store dropped its tenant field
        carry a ``"tenant"`` key; they stay readable."""
        import json

        store = ArtifactStore(tmp_path / "cache")
        art = GridArtifact({"width": 1, "height": 1, "num_layers": 1})
        art.hash = "h3"
        store.publish(art, "build_grid")
        path = tmp_path / "cache" / "h3.json"
        record = json.loads(path.read_text())
        assert "tenant" not in record
        path.write_text(json.dumps({**record, "tenant": "acme"}, sort_keys=True))
        assert store.load("h3").payload == art.payload
        assert [e.hash for e in store.entries()] == ["h3"]

    def test_store_clean_counts(self, tmp_path):
        store = ArtifactStore(tmp_path / "cache")
        for i in range(3):
            art = GridArtifact({"width": i + 1, "height": 1, "num_layers": 1})
            art.hash = f"h{i}"
            store.publish(art, "build_grid")
        assert store.clean() == 3
        assert store.entries() == []
