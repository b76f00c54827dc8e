"""Netlist container with validation and ordering helpers."""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List

from ..errors import NetlistError
from .net import Net


class Netlist:
    """An ordered collection of uniquely-named, uniquely-numbered nets."""

    def __init__(self, nets: Iterable[Net] = ()) -> None:
        self._nets: List[Net] = []
        self._by_id: Dict[int, Net] = {}
        self._by_name: Dict[str, Net] = {}
        for net in nets:
            self.add(net)

    def add(self, net: Net) -> None:
        if net.net_id in self._by_id:
            raise NetlistError(f"duplicate net id {net.net_id}")
        if net.name in self._by_name:
            raise NetlistError(f"duplicate net name {net.name!r}")
        self._nets.append(net)
        self._by_id[net.net_id] = net
        self._by_name[net.name] = net

    def __len__(self) -> int:
        return len(self._nets)

    def __iter__(self) -> Iterator[Net]:
        return iter(self._nets)

    def __contains__(self, net_id: int) -> bool:
        return net_id in self._by_id

    def by_id(self, net_id: int) -> Net:
        try:
            return self._by_id[net_id]
        except KeyError:
            raise NetlistError(f"no net with id {net_id}") from None

    def by_name(self, name: str) -> Net:
        try:
            return self._by_name[name]
        except KeyError:
            raise NetlistError(f"no net named {name!r}") from None

    def ordered_for_routing(self) -> List[Net]:
        """Nets in routing order: shortest half-perimeter first, id ties.

        Short nets have the fewest detour alternatives, so routing them
        first is the standard sequential heuristic; rip-up & reroute
        recovers the cases where the order was wrong.
        """
        return sorted(self._nets, key=lambda n: (n.half_perimeter, n.net_id))

    def total_half_perimeter(self) -> int:
        return sum(n.half_perimeter for n in self._nets)

    def multi_candidate_count(self) -> int:
        return sum(1 for n in self._nets if n.is_multi_candidate)
