"""Multi-process stress tests for the shared artifact store.

The routing service points N worker processes at one ``.repro_cache/``;
these tests drive the same contention patterns directly: many writers
racing on one key (compare-and-publish + single-flight dedup) and many
writers on distinct keys (no lost entries), asserting the store ends up
uncorrupted either way.
"""

import json
import multiprocessing as mp
import time

import pytest

from repro.pipeline import ArtifactStore, GridArtifact

PROCESSES = 6  # acceptance floor is 4; a bit more contention is free


def _requires_fork():
    if "fork" not in mp.get_all_start_methods():
        pytest.skip("fork start method unavailable")
    return mp.get_context("fork")


def _grid(hash: str, width: int = 5) -> GridArtifact:
    art = GridArtifact({"width": width, "height": 5, "num_layers": 1})
    art.hash = hash
    return art


def _same_key_worker(root, key, barrier, results):
    store = ArtifactStore(root)
    barrier.wait()  # line everyone up on the race
    computed = False
    with store.single_flight(key, timeout_s=30.0) as leader:
        if store.load(key) is None:
            time.sleep(0.05)  # widen the window a follower could sneak into
            store.publish(_grid(key), "build_grid")
            computed = True
    results.put((leader, computed))


def _distinct_keys_worker(root, writer_no, keys_per_writer, barrier, results):
    store = ArtifactStore(root)
    barrier.wait()
    for k in range(keys_per_writer):
        store.publish(_grid(f"w{writer_no}k{k}", width=writer_no + 1), "build_grid")
    results.put(writer_no)


def _raw_publish_worker(root, key, barrier, results):
    store = ArtifactStore(root)
    barrier.wait()
    nbytes, created = store.publish(_grid(key), "build_grid")
    results.put(created)


def _run_workers(ctx, target, root, count, extra_args):
    barrier = ctx.Barrier(count)
    results = ctx.Queue()
    procs = [
        ctx.Process(target=target, args=(root, *extra_args(i), barrier, results))
        for i in range(count)
    ]
    for p in procs:
        p.start()
    out = [results.get(timeout=60) for _ in procs]
    for p in procs:
        p.join(timeout=60)
        assert p.exitcode == 0
    return out


class TestSameKeyContention:
    def test_single_flight_dedups_to_one_computation(self, tmp_path):
        ctx = _requires_fork()
        root = str(tmp_path / "cache")
        out = _run_workers(
            ctx, _same_key_worker, root, PROCESSES, lambda i: ("sharedkey",)
        )
        computed = sum(1 for _, c in out if c)
        assert computed == 1, f"expected one leader computation, saw {computed}"
        store = ArtifactStore(root)
        art = store.load("sharedkey")
        assert art is not None and art.payload["width"] == 5
        # exactly one entry, no stray temp files
        assert [e.hash for e in store.entries()] == ["sharedkey"]
        assert list((tmp_path / "cache").glob("*.tmp")) == []

    def test_raw_publish_race_leaves_one_valid_entry(self, tmp_path):
        """Even without single-flight, compare-and-publish must converge:
        racing writers of one hash leave exactly one parseable file."""
        ctx = _requires_fork()
        root = str(tmp_path / "cache")
        out = _run_workers(
            ctx, _raw_publish_worker, root, PROCESSES, lambda i: ("racedkey",)
        )
        assert any(out), "at least one writer must report a fresh publish"
        path = tmp_path / "cache" / "racedkey.json"
        record = json.loads(path.read_text())  # parses ⇒ not torn
        assert record["hash"] == "racedkey"
        assert ArtifactStore(root).load("racedkey") is not None


class TestDistinctKeys:
    def test_no_lost_entries(self, tmp_path):
        ctx = _requires_fork()
        root = str(tmp_path / "cache")
        keys_per_writer = 4
        _run_workers(
            ctx,
            _distinct_keys_worker,
            root,
            PROCESSES,
            lambda i: (i, keys_per_writer),
        )
        store = ArtifactStore(root)
        entries = store.entries()
        expected = {
            f"w{w}k{k}" for w in range(PROCESSES) for k in range(keys_per_writer)
        }
        assert {e.hash for e in entries} == expected
        for e in entries:
            art = store.load(e.hash)
            assert art is not None
            assert art.payload["width"] == int(e.hash[1 : e.hash.index("k")]) + 1
