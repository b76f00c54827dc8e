"""Unit tests for the canonical scenario clips."""

import pytest

from repro.color import ALL_PAIRS, ColorPair
from repro.core import ScenarioType
from repro.core.reference import ScenarioDetector
from repro.decompose import scenario_clip
from repro.geometry import Point, Segment
from repro.rules import DesignRules


class TestClips:
    @pytest.mark.parametrize("stype", list(ScenarioType), ids=lambda s: s.value)
    def test_clip_exists_for_every_scenario(self, stype):
        clip = scenario_clip(stype, ColorPair.CC)
        assert len(clip) == 2
        assert clip[0].net_id == 0 and clip[1].net_id == 1

    @pytest.mark.parametrize("pair", ALL_PAIRS, ids=lambda p: p.name)
    def test_colors_follow_pair(self, pair):
        clip = scenario_clip(ScenarioType.T1A, pair)
        assert clip[0].color is pair.a
        assert clip[1].color is pair.b

    @pytest.mark.parametrize("stype", list(ScenarioType), ids=lambda s: s.value)
    def test_clip_geometry_detects_as_its_scenario(self, stype):
        """Each clip, re-expressed in track coordinates and run through
        the detector, must produce exactly its own scenario type."""
        rules = DesignRules()
        pitch, half = rules.pitch, rules.w_line // 2
        clip = scenario_clip(stype, ColorPair.CC, rules)
        det = ScenarioDetector(num_layers=1, include_trivial=True)
        for pattern in clip:
            rect = pattern.rects[0]
            if pattern.horizontal[0]:
                y = (rect.ylo + half) // pitch
                x0 = (rect.xlo + half) // pitch
                x1 = (rect.xhi - half) // pitch
                seg = Segment(0, Point(x0, y), Point(x1, y))
            else:
                x = (rect.xlo + half) // pitch
                y0 = (rect.ylo + half) // pitch
                y1 = (rect.yhi - half) // pitch
                seg = Segment(0, Point(x, y0), Point(x, y1))
            found = det.add_net(pattern.net_id, [seg])
        assert [sc.scenario for sc in found] == [stype]

    def test_custom_rules_scale_geometry(self):
        rules = DesignRules().scaled(2)
        clip = scenario_clip(ScenarioType.T1A, ColorPair.CS, rules)
        a, b = clip[0].rects[0], clip[1].rects[0]
        assert a.height == rules.w_line
        assert b.ylo - a.yhi == rules.w_spacer  # adjacent tracks
