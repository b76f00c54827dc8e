"""The coloring layer recomputes only what a flip changed.

A flip refreshes the cuts of the nets it can affect (``_recolor``'s
owners), and the checker keeps every net's place in its registration
order while its cuts are replaced. These tests hold that to a full
recompute on routed designs:

* after every ``_post_route`` and at the end of ``route_all``, each
  committed net's registered cuts are the objects ``_cuts_for_net``
  returns, in the same order, and the checker lists the nets in
  ``_scenarios_by_net`` (commit) order;
* at every endgame sweep, ``all_conflicts()`` returns the same
  conflicts, in the same order, as a fresh checker that registers every
  committed net in ``_scenarios_by_net`` order, swept through its own
  cut index as the endgame did when it re-registered every net;
* on the final graphs, the row contraction equals the object path's,
  and the 0/1 kernel returns the Color-based oracle's unit colors.
"""

import pytest

from repro.bench.workloads import generate_benchmark, spec_by_name
from repro.core import CutConflictChecker
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
    """Committed nets whose registered cuts differ from a recompute, and
    ``"order"`` when the checker does not list the committed nets in
    ``_scenarios_by_net`` order."""
    stale = []
    registered = router.checker._cuts_by_net
    for net_id in router._scenarios_by_net:
        cuts = registered.get(net_id, [])
        fresh = router._cuts_for_net(net_id)
        if len(cuts) != len(fresh) or any(a is not b for a, b in zip(cuts, fresh)):
            stale.append(net_id)
    if list(registered) != list(router._scenarios_by_net):
        stale.append("order")
    return stale


def _conflict_key(conflict):
    return (id(conflict.first), id(conflict.second), conflict.gap_nm, conflict.over_net)


def _fresh_checker(router):
    """A checker that registers every committed net afresh, in
    ``_scenarios_by_net`` order, with its wires and recomputed cuts."""
    fresh = CutConflictChecker(router.grid.rules, router.grid.num_layers)
    wires = router.checker._wires_by_net
    for net_id in router._scenarios_by_net:
        fresh.register_net(net_id, wires.get(net_id, []), router._cuts_for_net(net_id))
    return fresh


def _index_sweep(checker):
    """The endgame sweep as it ran on a checker whose persistent cut
    index held every cut in registration order."""
    cuts = checker.all_cuts()
    position = {id(cut): k for k, cut in enumerate(cuts)}
    d_cut = checker.rules.d_cut
    out = []
    for k, cut in enumerate(cuts):
        for _, other in checker._cut_index[cut.layer].neighbours(cut.rect, d_cut):
            if position[id(other)] > k:
                conflict = checker._pair_conflict(cut, other)
                if conflict is not None:
                    out.append(conflict)
    return out


class _CheckedRouter(SadpRouter):
    """Checks the cut bookkeeping at every point the tests name."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.post_routes = 0
        self.sweeps = []  # conflicts per all_conflicts() sweep
        self.stale = []  # nets found stale after a _post_route
        self.misordered = []  # sweeps whose conflicts differed
        sweep = self.checker.all_conflicts

        def checked():
            conflicts = sweep()
            got = [_conflict_key(c) for c in conflicts]
            fresh = _fresh_checker(self)
            want = [_conflict_key(c) for c in _index_sweep(fresh)]
            if got != want or got != [_conflict_key(c) for c in fresh.all_conflicts()]:
                self.misordered.append(len(self.sweeps))
            self.sweeps.append(len(got))
            return conflicts

        self.checker.all_conflicts = checked

    def _post_route(self, net_id):
        super()._post_route(net_id)
        self.post_routes += 1
        self.stale.extend(_stale_cuts(self))


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
    registered = sum(
        len(router.checker._cuts_by_net.get(n, [])) for n in router._scenarios_by_net
    )
    assert registered == len(router.checker.all_cuts())
    assert result.cut_conflicts == 0


def test_endgame_refresh_matches_a_full_one(routed):
    router, _ = routed
    assert router.misordered == []
    # One sweep per endgame round and one for the result's count; the
    # last round found no conflict.
    assert len(router.sweeps) >= 2 and router.sweeps[-2:] == [0, 0]


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
