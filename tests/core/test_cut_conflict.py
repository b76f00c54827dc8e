"""Unit tests for the rule-based cut-conflict analysis (type A / type B)."""

import pytest

from repro.color import Color
from repro.core import CutConflictChecker, ScenarioType
from repro.core.cut_conflict import CriticalCut
from repro.core.scenario_detect import DetectedScenario
from repro.geometry import Rect
from repro.rules import DesignRules


def cell_rect(x0, x1, y):
    """Footprint of a horizontal wire on track y, grid points x0..x1."""
    return Rect(x0, y, x1 + 1, y + 1)


def scenario(stype, net_a, net_b, rect_a, rect_b, layer=0, tip=True, overlap=1):
    return DetectedScenario(
        layer=layer,
        net_a=net_a,
        net_b=net_b,
        scenario=stype,
        a_is_tip_owner=tip,
        overlap=overlap,
        rect_a=rect_a,
        rect_b=rect_b,
    )


@pytest.fixture
def checker(rules):
    return CutConflictChecker(rules, num_layers=1)


class TestCriticalCutSynthesis:
    def test_1b_same_color_needs_cut(self, checker):
        sc = scenario(ScenarioType.T1B, 0, 1, cell_rect(0, 4, 0), cell_rect(5, 9, 0))
        cuts = checker.critical_cuts(sc, Color.CORE, Color.CORE)
        assert len(cuts) == 1
        cut = cuts[0].rect
        # Tips at 170 nm (end of net 0) and 190 nm (start of net 1): the
        # cut covers the 20 nm gap and is >= w_cut wide.
        assert cut.width >= checker.rules.w_cut
        assert cut.xlo <= 170 + checker.rules.d_overlap
        assert cut.xhi >= 190 - checker.rules.d_overlap

    def test_1b_different_colors_no_cut(self, checker):
        sc = scenario(ScenarioType.T1B, 0, 1, cell_rect(0, 4, 0), cell_rect(5, 9, 0))
        assert checker.critical_cuts(sc, Color.CORE, Color.SECOND) == []

    def test_2b_always_cut(self, checker):
        sc = scenario(ScenarioType.T2B, 0, 1, cell_rect(0, 4, 0), cell_rect(6, 9, 0))
        for ca, cb in [(Color.CORE, Color.CORE), (Color.SECOND, Color.SECOND)]:
            assert checker.critical_cuts(sc, ca, cb)

    def test_2a_flank_cut_only_when_mixed(self, checker):
        sc = scenario(
            ScenarioType.T2A, 0, 1, cell_rect(0, 9, 0), cell_rect(0, 9, 2)
        )
        assert checker.critical_cuts(sc, Color.CORE, Color.CORE) == []
        cuts = checker.critical_cuts(sc, Color.CORE, Color.SECOND)
        assert len(cuts) == 1
        # The flank cut runs along the core (net 0) pattern's north side.
        wire = checker.wire_rect_nm(cell_rect(0, 9, 0))
        assert cuts[0].rect.ylo >= wire.yhi - checker.rules.d_overlap

    def test_3a_cc_corner_cut(self, checker):
        sc = scenario(ScenarioType.T3A, 0, 1, cell_rect(0, 4, 0), cell_rect(5, 9, 1))
        assert checker.critical_cuts(sc, Color.CORE, Color.CORE)
        assert checker.critical_cuts(sc, Color.CORE, Color.SECOND) == []


class TestTypeBDetection:
    def test_flanked_wire_conflict(self, checker):
        """Fig. 16's situation: two tip cuts flank a short middle wire."""
        # Nets: 0 | 2 | 1 collinear (net 2 a single grid point), all the
        # same color -> two merge cuts 20 nm apart across net 2.
        mid = cell_rect(5, 5, 0)
        sc1 = scenario(ScenarioType.T1B, 2, 0, mid, cell_rect(0, 4, 0))
        sc2 = scenario(ScenarioType.T1B, 2, 1, mid, cell_rect(6, 9, 0))
        cuts1 = checker.critical_cuts(sc1, Color.CORE, Color.CORE)
        cuts2 = checker.critical_cuts(sc2, Color.CORE, Color.CORE)
        checker.register_net(0, [(0, checker.wire_rect_nm(cell_rect(0, 4, 0)))], [])
        checker.register_net(1, [(0, checker.wire_rect_nm(cell_rect(6, 9, 0)))], [])
        checker.register_net(
            2, [(0, checker.wire_rect_nm(mid))], cuts1 + cuts2
        )
        conflicts = checker.conflicts_with(cuts1 + cuts2)
        assert conflicts
        assert all(c.over_net == 2 for c in conflicts)

    def test_same_pair_cuts_merge(self, checker):
        """Cuts serving the same pattern pair never conflict."""
        a = cell_rect(0, 4, 0)
        b = cell_rect(5, 9, 0)
        sc = scenario(ScenarioType.T1B, 0, 1, a, b)
        cuts = checker.critical_cuts(sc, Color.CORE, Color.CORE)
        duplicate = checker.critical_cuts(sc, Color.SECOND, Color.SECOND)
        checker.register_net(0, [(0, checker.wire_rect_nm(a))], cuts)
        assert checker.conflicts_with(duplicate) == []

    def test_far_cuts_no_conflict(self, checker):
        a = cell_rect(0, 4, 0)
        b = cell_rect(5, 9, 0)
        c = cell_rect(20, 24, 0)
        d = cell_rect(25, 29, 0)
        cuts_ab = checker.critical_cuts(
            scenario(ScenarioType.T1B, 0, 1, a, b), Color.CORE, Color.CORE
        )
        cuts_cd = checker.critical_cuts(
            scenario(ScenarioType.T1B, 2, 3, c, d), Color.CORE, Color.CORE
        )
        checker.register_net(0, [], cuts_ab)
        assert checker.conflicts_with(cuts_cd) == []

    def test_violation_over_spacer_ignored(self, checker):
        """Two nearby cuts with no wire between them are harmless."""
        a = cell_rect(0, 4, 0)
        b = cell_rect(5, 9, 0)
        c = cell_rect(0, 4, 1)
        d = cell_rect(5, 9, 1)
        cuts_ab = checker.critical_cuts(
            scenario(ScenarioType.T1B, 0, 1, a, b), Color.CORE, Color.CORE
        )
        cuts_cd = checker.critical_cuts(
            scenario(ScenarioType.T1B, 2, 3, c, d), Color.SECOND, Color.SECOND
        )
        # No wires registered between the cuts: spacing violation region
        # holds no target -> ignorable per Ma et al.
        checker.register_net(0, [], cuts_ab)
        assert checker.conflicts_with(cuts_cd) == []


def _first_seen_dedup(checker):
    """The endgame sweep's original form, kept as the oracle: every
    registered cut fed back through ``conflicts_with`` (which meets each
    pair up to three times), then a first-seen dedup by cut identity.

    Replacing a net's cuts moves them to the end of the cut index's
    buckets, so the oracle sweeps a checker that registers every net
    afresh, in registration order."""
    fresh = CutConflictChecker(checker.rules, len(checker._cut_index))
    for net_id, cuts in checker._cuts_by_net.items():
        fresh.register_net(net_id, checker._wires_by_net.get(net_id, []), cuts)
    unique = []
    seen = set()
    for conflict in fresh.conflicts_with(fresh.all_cuts()):
        key = tuple(sorted([id(conflict.first), id(conflict.second)]))
        if key not in seen:
            seen.add(key)
            unique.append(conflict)
    return unique


def _assert_same_conflicts(got, want):
    assert [(id(c.first), id(c.second)) for c in got] == [
        (id(c.first), id(c.second)) for c in want
    ]
    assert got == want


class TestAllConflicts:
    def test_flanked_wire_reported_once(self, checker):
        mid = cell_rect(5, 5, 0)
        sc1 = scenario(ScenarioType.T1B, 2, 0, mid, cell_rect(0, 4, 0))
        sc2 = scenario(ScenarioType.T1B, 2, 1, mid, cell_rect(6, 9, 0))
        cuts = checker.critical_cuts(
            sc1, Color.CORE, Color.CORE
        ) + checker.critical_cuts(sc2, Color.CORE, Color.CORE)
        checker.register_net(0, [(0, checker.wire_rect_nm(cell_rect(0, 4, 0)))], [])
        checker.register_net(1, [(0, checker.wire_rect_nm(cell_rect(6, 9, 0)))], [])
        checker.register_net(2, [(0, checker.wire_rect_nm(mid))], cuts)
        got = checker.all_conflicts()
        assert len(got) == 1
        assert (got[0].first, got[0].second) == (cuts[0], cuts[1])
        _assert_same_conflicts(got, _first_seen_dedup(checker))

    def test_matches_oracle_on_every_endgame_sweep(self, monkeypatch):
        from repro.bench.workloads import generate_benchmark, spec_by_name
        from repro.router import SadpRouter

        sweeps = []
        original = CutConflictChecker.all_conflicts

        def checked(checker):
            got = original(checker)
            _assert_same_conflicts(got, _first_seen_dedup(checker))
            sweeps.append(len(got))
            return got

        monkeypatch.setattr(CutConflictChecker, "all_conflicts", checked)
        grid, nets = generate_benchmark(spec_by_name("Test1"), scale=0.15, seed=7)
        result = SadpRouter(grid, nets).route_all()
        assert result.cut_conflicts == 0
        # the seed's repair loop runs: some sweeps do find conflicts
        assert len(sweeps) > 1 and max(sweeps) > 0


def _flanking_cuts(checker, centre, left, right):
    """Cut ``x`` at ``centre`` nm, 20 nm from ``c1`` on its right and
    ``c2`` on its left, all over one wire: both pairs conflict. Nets
    9 (the wire), 0 (``x``), 1 (``c1``) and 2 (``c2``) register in that
    order."""

    def cut(xlo, nets):
        return CriticalCut(
            rect=Rect(xlo, 0, xlo + 20, 20), layer=0, nets=nets,
            scenario=ScenarioType.T1B,
        )

    x, c1, c2 = cut(centre, (0, 5)), cut(right, (1, 6)), cut(left, (2, 7))
    checker.register_net(9, [(0, Rect(left + 10, 0, right + 10, 20))], [])
    for net_id, c in ((0, x), (1, c1), (2, c2)):
        checker.register_net(net_id, [], [c])
    return x, c1, c2


class TestConflictOrder:
    """``all_conflicts()`` keeps the order a full re-registration gave:
    ``_repair_round`` takes its offenders in that order."""

    def test_replaced_cuts_keep_their_place(self, checker):
        # One index bucket: replacing c1 moves it behind c2 there.
        x, c1, c2 = _flanking_cuts(checker, 60, 20, 100)
        checker.replace_net_cuts(1, [c1])
        got = checker.all_conflicts()
        assert [(c.first, c.second) for c in got] == [(x, c1), (x, c2)]
        _assert_same_conflicts(got, _first_seen_dedup(checker))

    def test_hits_come_bucket_by_bucket(self, checker):
        # x straddles the 160 nm bucket edge: its neighbour query meets
        # c2's bucket before c1's, although c1 registered first.
        x, c1, c2 = _flanking_cuts(checker, 150, 110, 190)
        got = checker.all_conflicts()
        assert [(c.first, c.second) for c in got] == [(x, c2), (x, c1)]
        _assert_same_conflicts(got, _first_seen_dedup(checker))


class TestRegistration:
    def test_remove_net_clears_cuts_and_wires(self, checker):
        a = cell_rect(0, 4, 0)
        sc = scenario(ScenarioType.T1B, 0, 1, a, cell_rect(5, 9, 0))
        cuts = checker.critical_cuts(sc, Color.CORE, Color.CORE)
        checker.register_net(0, [(0, checker.wire_rect_nm(a))], cuts)
        assert checker.all_cuts() == cuts
        checker.remove_net(0)
        assert checker.all_cuts() == []
        assert checker._wires_by_net == {}

    def test_replace_net_cuts(self, checker):
        a = cell_rect(0, 4, 0)
        sc = scenario(ScenarioType.T1B, 0, 1, a, cell_rect(5, 9, 0))
        cuts = checker.critical_cuts(sc, Color.CORE, Color.CORE)
        checker.register_net(0, [], cuts)
        checker.register_net(1, [], [])
        checker.replace_net_cuts(0, [])
        assert checker.all_cuts() == []
        # A replaced net keeps its place in the registration order.
        checker.replace_net_cuts(0, cuts)
        assert list(checker._cuts_by_net) == [0, 1]
        assert checker.all_cuts() == cuts
