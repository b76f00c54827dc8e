"""The coloring layer recomputes only what a flip changed.

A flip refreshes the cuts of the nets it can affect (``_recolor``'s
owners), and the endgame's ``_refresh_all_cuts`` recomputes only those
and re-registers every other net's list as it is. These tests hold that
to a full recompute on routed designs:

* after every ``_post_route`` and at the end of ``route_all``, each
  committed net's registered cuts are the objects ``_cuts_for_net``
  returns, in the same order;
* after every endgame ``_refresh_all_cuts``, ``all_conflicts()`` returns
  the same conflicts, in the same order, as after recomputing and
  re-registering every net;
* on the final graphs, the row contraction equals the object path's,
  and the 0/1 kernel returns the Color-based oracle's unit colors.
"""

import pytest

from repro.bench.workloads import generate_benchmark, spec_by_name
from repro.core.color_flip import _COLORS, _color_units, _contract
from repro.core.reference import reference_unit_colors
from repro.router import SadpRouter

#: Every design reaches per-net and layout flips; Test1@0.15 seeds 7
#: and 2015, Test6@0.15 seeds 1 and 6 and Test1@0.3 also enter endgame
#: rounds with conflicts to order.
DESIGNS = [
    ("Test1", 0.15, 2014),
    ("Test1", 0.15, 7),
    ("Test1", 0.15, 2015),
    ("Test6", 0.15, 2014),
    ("Test6", 0.15, 1),
    ("Test6", 0.15, 6),
    ("Test1", 0.3, 2014),
]


def _stale_cuts(router):
    """Committed nets whose registered cuts differ from a recompute."""
    stale = []
    for net_id in router._scenarios_by_net:
        registered = router.checker.cuts_of(net_id)
        fresh = router._cuts_for_net(net_id)
        if len(registered) != len(fresh) or any(
            a is not b for a, b in zip(registered, fresh)
        ):
            stale.append(net_id)
    return stale


def _conflict_key(conflict):
    return (id(conflict.first), id(conflict.second), conflict.gap_nm, conflict.over_net)


class _CheckedRouter(SadpRouter):
    """Checks the cut bookkeeping at every point the tests name."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.post_routes = 0
        self.refreshes = []  # conflicts per endgame refresh
        self.stale = []  # nets found stale after a _post_route
        self.misordered = []  # refreshes whose conflicts differed

    def _post_route(self, net_id):
        super()._post_route(net_id)
        self.post_routes += 1
        self.stale.extend(_stale_cuts(self))

    def _refresh_all_cuts(self, stale):
        super()._refresh_all_cuts(stale)
        fast = [_conflict_key(c) for c in self.checker.all_conflicts()]
        for net_id in list(self._scenarios_by_net):
            self.checker.replace_net_cuts(net_id, self._cuts_for_net(net_id))
        full = [_conflict_key(c) for c in self.checker.all_conflicts()]
        if fast != full:
            self.misordered.append(len(self.refreshes))
        self.refreshes.append(len(full))


@pytest.fixture(scope="module", params=DESIGNS, ids=lambda d: f"{d[0]}@{d[1]}-{d[2]}")
def routed(request):
    circuit, scale, seed = request.param
    grid, nets = generate_benchmark(spec_by_name(circuit), scale=scale, seed=seed)
    router = _CheckedRouter(grid, nets)
    result = router.route_all()
    return router, result


def test_registered_cuts_match_a_recompute(routed):
    router, result = routed
    assert router.post_routes > 0
    assert router.stale == []
    assert _stale_cuts(router) == []
    registered = sum(len(router.checker.cuts_of(n)) for n in router._scenarios_by_net)
    assert registered == len(router.checker.all_cuts())
    assert result.cut_conflicts == 0


def test_endgame_refresh_matches_a_full_one(routed):
    router, _ = routed
    assert router.misordered == []
    # One refresh per endgame round; the last found no conflict.
    assert router.refreshes and router.refreshes[-1] == 0


def test_kernel_and_contraction_match_the_oracles(routed):
    router, _ = routed
    for graph in router.graphs:
        for comp in graph.components():
            rows = graph.contract_component(comp)
            objects = _contract(graph.edges_within(comp), comp)
            assert rows.units == objects.units
            assert rows.members == objects.members
            assert rows.self_cost == objects.self_cost
            assert list(rows.pair_cost.items()) == list(objects.pair_cost.items())
            got = [(u, _COLORS[c]) for u, c in _color_units(rows).items()]
            assert got == list(reference_unit_colors(rows).items())
