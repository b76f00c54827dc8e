"""Unit tests for units (TrackGrid) and the color enums."""

import copy
import pickle

import pytest

from repro.color import ALL_PAIRS, Color, ColorPair
from repro.errors import GeometryError
from repro.units import DEFAULT_BITMAP_RESOLUTION_NM, TrackGrid, nm_to_um, um_to_nm


class TestTrackGrid:
    def test_track_centers(self):
        tg = TrackGrid(pitch_nm=40, wire_width_nm=20)
        assert tg.track_center_nm(0) == 0
        assert tg.track_center_nm(5) == 200

    def test_origin_offset(self):
        tg = TrackGrid(pitch_nm=40, wire_width_nm=20, origin_nm=100)
        assert tg.track_center_nm(1) == 140

    def test_wire_span(self):
        tg = TrackGrid(pitch_nm=40, wire_width_nm=20)
        assert tg.wire_span_nm(2) == (70, 90)

    def test_nearest_track(self):
        tg = TrackGrid(pitch_nm=40, wire_width_nm=20)
        assert tg.nearest_track(0) == 0
        assert tg.nearest_track(58) == 1
        assert tg.nearest_track(-35) == -1

    def test_span_tracks(self):
        tg = TrackGrid(pitch_nm=40, wire_width_nm=20)
        # Interval [30, 130): wires on tracks 1, 2, 3 intersect it.
        assert list(tg.span_tracks(30, 130)) == [1, 2, 3]
        assert list(tg.span_tracks(10, 10)) == []

    def test_validation(self):
        with pytest.raises(GeometryError):
            TrackGrid(pitch_nm=0, wire_width_nm=0)
        with pytest.raises(GeometryError):
            TrackGrid(pitch_nm=40, wire_width_nm=50)

    def test_resolution_divides_rules(self):
        from repro.rules import DesignRules

        r = DesignRules()
        for value in (r.w_line, r.w_spacer, r.w_cut, r.w_core, r.d_cut, r.d_core):
            assert value % DEFAULT_BITMAP_RESOLUTION_NM == 0

    def test_um_conversions(self):
        assert um_to_nm(6.8) == 6800
        assert nm_to_um(6800) == 6.8


class TestColor:
    def test_flipped(self):
        assert Color.CORE.flipped is Color.SECOND
        assert Color.SECOND.flipped is Color.CORE
        assert Color.CORE.flipped.flipped is Color.CORE

    def test_pair_components(self):
        assert ColorPair.CS.a is Color.CORE
        assert ColorPair.CS.b is Color.SECOND

    def test_pair_same(self):
        assert ColorPair.CC.same and ColorPair.SS.same
        assert not ColorPair.CS.same

    def test_pair_swapped(self):
        assert ColorPair.CS.swapped is ColorPair.SC
        assert ColorPair.CC.swapped is ColorPair.CC

    def test_pair_of(self):
        for pair in ALL_PAIRS:
            assert ColorPair.of(pair.a, pair.b) is pair

    def test_all_pairs_order(self):
        assert [p.name for p in ALL_PAIRS] == ["CC", "CS", "SC", "SS"]

    def test_identity_hash_survives_pickle_and_deepcopy(self):
        """Colors hash by identity; a pickled or deep-copied color (or
        color-keyed dict) is still the singleton, so lookups keep working."""
        assert hash(Color.CORE) == object.__hash__(Color.CORE)
        table = {Color.CORE: "core", Color.SECOND: "second"}
        copies = [
            pickle.loads(pickle.dumps(table, protocol))
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
        ]
        copies.append(copy.deepcopy(table))
        for other in copies:
            assert other[Color.CORE] == "core" and other[Color.SECOND] == "second"
            assert all(a is b for a, b in zip(other, table))
        for color in Color:
            assert pickle.loads(pickle.dumps(color)) is color
            assert copy.deepcopy(color) is color and copy.copy(color) is color
            assert {color: 1}[Color(color.value)] == 1
