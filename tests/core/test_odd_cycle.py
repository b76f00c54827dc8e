"""Unit tests for the parity union-find (hard odd-cycle detection)."""

import pytest

from repro.core import ParityUnionFind


class TestBasics:
    def test_singleton(self):
        uf = ParityUnionFind()
        uf.add("a")
        assert "a" in uf
        assert uf.find("a") == ("a", 0)

    def test_union_different(self):
        uf = ParityUnionFind()
        assert uf.union("a", "b", 1)
        assert uf.relation("a", "b") == 1

    def test_union_same(self):
        uf = ParityUnionFind()
        assert uf.union("a", "b", 0)
        assert uf.relation("a", "b") == 0

    def test_transitivity(self):
        uf = ParityUnionFind()
        uf.union("a", "b", 1)
        uf.union("b", "c", 1)
        assert uf.relation("a", "c") == 0  # different of different = same

    def test_relation_unrelated_raises(self):
        uf = ParityUnionFind()
        uf.add("a")
        uf.add("b")
        with pytest.raises(KeyError):
            uf.relation("a", "b")

    def test_invalid_parity(self):
        uf = ParityUnionFind()
        with pytest.raises(ValueError):
            uf.union("a", "b", 2)


class TestOddCycles:
    def test_triangle_of_diff_edges_is_odd(self):
        uf = ParityUnionFind()
        assert uf.union("a", "b", 1)
        assert uf.union("b", "c", 1)
        assert not uf.union("c", "a", 1)  # odd cycle

    def test_even_cycle_is_fine(self):
        uf = ParityUnionFind()
        assert uf.union("a", "b", 1)
        assert uf.union("b", "c", 1)
        assert uf.union("c", "d", 1)
        assert uf.union("d", "a", 1)  # length-4 cycle: consistent

    def test_mixed_parities_fig11g(self):
        # Fig. 11(g): four nets + a dummy, five hard edges, odd overall.
        # Same-color edges are parity 0 (dummy vertices folded in).
        uf = ParityUnionFind()
        assert uf.union("a", "b", 1)
        assert uf.union("b", "c", 0)  # same-color edge (with dummy)
        assert uf.union("c", "d", 1)
        assert not uf.union("d", "a", 1)  # total cycle parity 3: odd

    def test_redundant_consistent_edge(self):
        uf = ParityUnionFind()
        uf.union("a", "b", 1)
        assert uf.union("a", "b", 1)  # redundant, consistent
        assert not uf.union("a", "b", 0)  # contradiction

    def test_failed_union_leaves_structure_intact(self):
        uf = ParityUnionFind()
        uf.union("a", "b", 1)
        uf.union("b", "c", 1)
        assert not uf.union("a", "c", 1)
        # Relations unchanged.
        assert uf.relation("a", "c") == 0


class TestStructure:
    def test_components(self):
        uf = ParityUnionFind()
        uf.union("a", "b", 1)
        uf.union("c", "d", 0)
        uf.add("e")
        comps = uf.components()
        sizes = sorted(len(v) for v in comps.values())
        assert sizes == [1, 2, 2]

    def test_same_set(self):
        uf = ParityUnionFind()
        uf.union("a", "b", 1)
        assert uf.same_set("a", "b")
        assert not uf.same_set("a", "z")

    def test_from_edges(self):
        uf, ok = ParityUnionFind.from_edges([("a", "b", 1), ("b", "c", 1), ("a", "c", 0)])
        assert ok
        uf, ok = ParityUnionFind.from_edges([("a", "b", 1), ("b", "c", 1), ("a", "c", 1)])
        assert not ok

    def test_long_chain_parity(self):
        uf = ParityUnionFind()
        n = 200
        for i in range(n):
            assert uf.union(i, i + 1, 1)
        assert uf.relation(0, n) == n % 2
        # Path compression keeps find cheap and correct afterwards.
        assert uf.relation(0, n // 2) == (n // 2) % 2


class TestSnapshot:
    def test_restore_undoes_unions_since_snapshot(self):
        uf = ParityUnionFind()
        uf.union("a", "b", 1)
        snap = uf.snapshot()
        uf.union("b", "c", 1)
        assert not uf.union("a", "c", 1)  # would close an odd cycle
        uf.restore(snap)
        assert uf.relation("a", "b") == 1
        assert "c" not in uf
        assert uf.union("a", "c", 1)  # consistent again without b-c

    def test_snapshot_is_a_copy(self):
        uf = ParityUnionFind()
        snap = uf.snapshot()
        uf.union("a", "b", 0)
        assert snap == ({}, {}, {})
        unions = uf.union_ops
        uf.restore(snap)
        assert len(uf) == 0
        assert uf.union_ops == unions  # tallies count work, not state
