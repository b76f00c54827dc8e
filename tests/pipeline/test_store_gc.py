"""GC policy, last use by mtime, and cache-dir resolution."""

import os
import time

from repro import obs
from repro.pipeline import ArtifactStore, GridArtifact, default_cache_dir


def _put(store, hash, payload_bytes=0):
    art = GridArtifact(
        {"width": 2, "height": 2, "num_layers": 1, "pad": "x" * payload_bytes}
    )
    art.hash = hash
    store.publish(art, "build_grid")


def _backdate(store, hash, days):
    stamp = time.time() - days * 86400
    os.utime(store.root / f"{hash}.json", (stamp, stamp))


class TestCacheDirResolution:
    def test_default_is_dot_repro_cache(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert default_cache_dir() == ".repro_cache"

    def test_env_override_wins(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "elsewhere"))
        assert default_cache_dir() == str(tmp_path / "elsewhere")

    def test_empty_env_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", "")
        assert default_cache_dir() == ".repro_cache"

    def test_pipeline_config_picks_up_env(self, monkeypatch, tmp_path):
        from repro.pipeline import PipelineConfig

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envcache"))
        config = PipelineConfig(circuit="Test1", scale=0.1)
        assert config.cache_dir == str(tmp_path / "envcache")


class TestLastUse:
    """A hit sets the entry file's mtime, which the GC reads as last use."""

    def test_hit_protects_entry_from_lru_eviction(self, tmp_path):
        store = ArtifactStore(tmp_path / "cache")
        _put(store, "hot", payload_bytes=4000)
        _put(store, "cold", payload_bytes=4000)
        _backdate(store, "hot", 2)
        _backdate(store, "cold", 1)
        store.load("hot")
        total = sum(e.bytes for e in store.entries())
        assert store.gc(max_bytes=total - 1) == 1
        assert not store.has("cold")
        assert store.has("hot")

    def test_hit_resets_age(self, tmp_path):
        store = ArtifactStore(tmp_path / "cache")
        _put(store, "used")
        _put(store, "idle")
        _backdate(store, "used", 10)
        _backdate(store, "idle", 10)
        store.load("used")
        assert store.gc(max_age_days=7) == 1
        assert store.has("used")
        assert not store.has("idle")


class TestGC:
    def test_no_bounds_is_noop(self, tmp_path):
        store = ArtifactStore(tmp_path / "cache")
        _put(store, "keep")
        assert store.gc() == 0
        assert store.has("keep")

    def test_max_age_drops_stale_entries(self, tmp_path):
        store = ArtifactStore(tmp_path / "cache")
        _put(store, "old")
        _put(store, "new")
        _backdate(store, "old", 10)
        with obs.session() as ob:
            assert store.gc(max_age_days=7) == 1
            assert ob.registry.total("store_gc_removed_total") == 1
        assert not store.has("old")
        assert store.has("new")

    def test_max_bytes_evicts_lru_first(self, tmp_path):
        store = ArtifactStore(tmp_path / "cache")
        _put(store, "cold", payload_bytes=4000)
        _put(store, "warm", payload_bytes=4000)
        time.sleep(0.02)
        store.load("warm")  # refresh last use
        total = sum(e.bytes for e in store.entries())
        removed = store.gc(max_bytes=total - 1)
        assert removed == 1
        assert not store.has("cold")
        assert store.has("warm")

    def test_gc_within_budget_keeps_all(self, tmp_path):
        store = ArtifactStore(tmp_path / "cache")
        _put(store, "a")
        _put(store, "b")
        assert store.gc(max_bytes=10**9, max_age_days=365) == 0
        assert len(store.entries()) == 2
