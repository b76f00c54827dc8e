"""Amortised-constant-time hard odd-cycle detection.

The paper extends the LELE conflict-cycle detection of [18] to the overlay
constraint graph: hard-different edges demand opposite colors (parity 1),
hard-same edges demand equal colors (parity 0; the dummy-vertex encoding of
Fig. 11(b) is parity-equivalent). A set of hard edges is satisfiable iff no
cycle has odd total parity, which a union-find with parity decides in
amortised near-constant time per edge.

The structure cannot delete a relation. A caller that removes edges
either undoes a journal of its newest unions (:meth:`ParityUnionFind.undo`)
or forgets the affected components whole (:meth:`ParityUnionFind.forget`)
and unions their surviving edges again.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Optional, Tuple

#: Journal mark of an entry that did not exist yet (any hashable,
#: ``None`` included, can be an element).
_ABSENT = object()

#: One journal record: (element, parent, rank, parity) before a union.
JournalEntry = Tuple[Hashable, Hashable, int, int]


class ParityUnionFind:
    """Union-find where each element carries a parity relative to its root.

    ``union(u, v, parity)`` asserts ``color(u) XOR color(v) == parity``.
    It returns ``False`` (and relates nothing new) when the assertion
    contradicts the existing relations — i.e. the new edge closes a hard
    odd cycle. Its answer depends only on those relations, never on which
    elements are roots.
    """

    def __init__(self) -> None:
        self._parent: Dict[Hashable, Hashable] = {}
        self._rank: Dict[Hashable, int] = {}
        self._parity: Dict[Hashable, int] = {}  # parity to parent
        #: Lifetime operation tallies — plain ints so the hot path never
        #: touches the observability layer; the constraint graph flushes
        #: deltas into the metrics registry when one is live.
        self.find_ops = 0
        self.union_ops = 0

    def add(self, x: Hashable) -> None:
        if x not in self._parent:
            self._parent[x] = x
            self._rank[x] = 0
            self._parity[x] = 0

    def __contains__(self, x: Hashable) -> bool:
        return x in self._parent

    def __len__(self) -> int:
        return len(self._parent)

    def find(self, x: Hashable) -> Tuple[Hashable, int]:
        """(root, parity of x relative to root), with path compression."""
        self.find_ops += 1
        parent = self._parent
        if x not in parent:
            parent[x] = x
            self._rank[x] = 0
            self._parity[x] = 0
            return x, 0
        par = self._parity
        root = x
        parity = 0
        while parent[root] != root:
            parity ^= par[root]
            root = parent[root]
        # Second pass: compress and fix parities.
        node = x
        carried = parity
        while parent[node] != node:
            nxt = parent[node]
            next_carried = carried ^ par[node]
            parent[node] = root
            par[node] = carried
            node = nxt
            carried = next_carried
        return root, parity

    def same_set(self, u: Hashable, v: Hashable) -> bool:
        return self.find(u)[0] == self.find(v)[0]

    def relation(self, u: Hashable, v: Hashable) -> int:
        """Known parity between u and v; raises when not yet related."""
        ru, pu = self.find(u)
        rv, pv = self.find(v)
        if ru != rv:
            raise KeyError(f"{u!r} and {v!r} are not related")
        return pu ^ pv

    def union(
        self,
        u: Hashable,
        v: Hashable,
        parity: int,
        journal: Optional[List[JournalEntry]] = None,
    ) -> bool:
        """Merge asserting ``color(u) XOR color(v) == parity``.

        Returns True on success (including redundant consistent edges) and
        False when the edge would close an odd cycle.

        With ``journal``, first appends the entries of every element on
        the find paths of ``u`` and ``v``: the union writes no others
        (its finds compress those paths, and it links one of their roots
        under the other), so :meth:`undo` can take it back.
        """
        if parity not in (0, 1):
            raise ValueError(f"parity must be 0 or 1, got {parity}")
        if journal is not None:
            self._record_path(u, journal)
            self._record_path(v, journal)
        self.union_ops += 1
        ru, pu = self.find(u)
        rv, pv = self.find(v)
        if ru == rv:
            return (pu ^ pv) == parity
        # Union by rank; parity of rv relative to ru must be pu ^ parity ^ pv.
        link_parity = pu ^ parity ^ pv
        if self._rank[ru] < self._rank[rv]:
            ru, rv = rv, ru
            # parity of (new child root) rv relative to ru is unchanged by swap
        self._parent[rv] = ru
        self._parity[rv] = link_parity
        if self._rank[ru] == self._rank[rv]:
            self._rank[ru] += 1
        return True

    def _record_path(self, x: Hashable, journal: List[JournalEntry]) -> None:
        parent = self._parent
        if x not in parent:
            journal.append((x, _ABSENT, 0, 0))
            return
        rank = self._rank
        par = self._parity
        while True:
            up = parent[x]
            journal.append((x, up, rank[x], par[x]))
            if up == x:
                return
            x = up

    def undo(self, journal: List[JournalEntry]) -> None:
        """Take back every union recorded in ``journal``.

        Restores the recorded entries newest first, so each element ends
        with its entry from before the first journaled union, and elements
        those unions added are gone again. Correct only when nothing else
        wrote to the structure since the first journaled union. The op
        tallies keep counting: they record work done, not the state.
        """
        parent = self._parent
        rank = self._rank
        par = self._parity
        for x, up, r, p in reversed(journal):
            if up is _ABSENT:
                parent.pop(x, None)
                rank.pop(x, None)
                par.pop(x, None)
            else:
                parent[x] = up
                rank[x] = r
                par[x] = p

    def forget(self, elements: Iterable[Hashable]) -> None:
        """Drop ``elements`` and every relation they take part in.

        ``elements`` must be whole components (a member left behind could
        keep a parent link into them); unioning their surviving edges
        again then relates them afresh.
        """
        parent = self._parent
        rank = self._rank
        par = self._parity
        for x in elements:
            parent.pop(x, None)
            rank.pop(x, None)
            par.pop(x, None)

    def components(self) -> Dict[Hashable, list]:
        """root -> members (after full compression)."""
        groups: Dict[Hashable, list] = {}
        for x in list(self._parent):
            root, _ = self.find(x)
            groups.setdefault(root, []).append(x)
        return groups

    @classmethod
    def from_edges(
        cls, edges: Iterable[Tuple[Hashable, Hashable, int]]
    ) -> Tuple["ParityUnionFind", bool]:
        """Build from (u, v, parity) triples; second result is consistency."""
        uf = cls()
        ok = True
        for u, v, parity in edges:
            ok &= uf.union(u, v, parity)
        return uf, ok
