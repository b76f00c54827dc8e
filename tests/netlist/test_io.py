"""Unit tests for netlist text I/O."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NetlistError, ReproError
from repro.geometry import Point
from repro.netlist import read_netlist, write_netlist
from repro.netlist.io import parse_design, parse_netlist, read_design


SAMPLE = """
# comment line
n0 L0 1,2 -> L0 9,2
n1 L0 4,4 -> L1 4,11   # trailing comment

n2 L0 0,0;0,1 -> L0 7,7;8,7;9,7
"""


class TestParse:
    def test_parses_nets_in_order(self):
        nl = parse_netlist(SAMPLE)
        assert len(nl) == 3
        assert nl.by_name("n0").net_id == 0
        assert nl.by_name("n2").net_id == 2

    def test_fixed_pin_coordinates(self):
        nl = parse_netlist(SAMPLE)
        n0 = nl.by_name("n0")
        assert n0.source.primary == Point(1, 2)
        assert n0.target.primary == Point(9, 2)

    def test_layers(self):
        nl = parse_netlist(SAMPLE)
        assert nl.by_name("n1").target.layer == 1

    def test_multi_candidates(self):
        nl = parse_netlist(SAMPLE)
        n2 = nl.by_name("n2")
        assert len(n2.target.candidates) == 3
        assert n2.is_multi_candidate

    def test_malformed_line(self):
        with pytest.raises(NetlistError, match="line 1"):
            parse_netlist("garbage without arrow")

    def test_bad_layer_tag(self):
        with pytest.raises(NetlistError):
            parse_netlist("n0 X0 1,2 -> L0 3,4")

    def test_bad_coordinate(self):
        with pytest.raises(NetlistError):
            parse_netlist("n0 L0 1.5,2 -> L0 3,4")


class TestParseErrorsCarryTheLine:
    """Every error raised while parsing a line — not only the line-shape
    checks — becomes a NetlistError naming the line."""

    @pytest.mark.parametrize(
        "text,line,reason",
        [
            ("BLOCK L0 5,5,1,1", 1, "degenerate rect"),
            ("n0 L0 1,2 -> L0 9,2\nn1 L0 3,x -> L0 9,3", 2, "bad coordinate"),
            ("n0 L-1 1,2 -> L0 9,2", 1, "layer must be >= 0"),
            ("n0 L0 1,1;1,1 -> L0 3,3", 1, "duplicate pin candidates"),
            ("a L0 1,1 -> L0 2,2\n\n# c\na L0 3,3 -> L0 4,4", 4, "duplicate net name"),
            ("BLOCK L0 1,2", 1, "malformed BLOCK"),
        ],
    )
    def test_parse_design(self, text, line, reason):
        with pytest.raises(NetlistError, match=f"^line {line}: .*{reason}"):
            parse_design(text)

    def test_read_design_adds_the_path_to_block_errors(self, tmp_path):
        path = tmp_path / "design.txt"
        path.write_text("n0 L0 1,2 -> L0 9,2\nBLOCK L0 5,5,1,1\n")
        with pytest.raises(NetlistError) as info:
            read_design(path)
        assert str(info.value).startswith(f"{path}: line 2: degenerate rect")


class TestRoundTrip:
    def test_write_then_read(self, tmp_path):
        nl = parse_netlist(SAMPLE)
        path = tmp_path / "nets.txt"
        write_netlist(nl, path)
        back = read_netlist(path)
        assert len(back) == len(nl)
        for net in nl:
            twin = back.by_name(net.name)
            assert twin.source == net.source
            assert twin.target == net.target


#: Tokens of the design format, so fuzzed files get past the first word.
_TOKENS = ["a", "n0", "L0", "L1", "L-1", "1,2", "3,x", "4,4;5,5", "->",
           "BLOCK", "5,5,1,1", "0,0,9,9", "#", ";", ",", "-1", " ", "\t"]

design_bytes = st.one_of(
    st.binary(max_size=120),
    st.text(max_size=120).map(lambda text: text.encode("utf-8")),
    st.lists(
        st.lists(st.sampled_from(_TOKENS), max_size=6).map(" ".join),
        max_size=5,
    ).map(lambda lines: "\n".join(lines).encode("utf-8")),
)


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "design.nets"


@settings(max_examples=300, deadline=None)
@given(design_bytes)
def test_read_design_raises_only_repro_errors(fuzz_path, data):
    """Any file content either parses or fails with a ReproError — never
    a raw exception (decode errors included)."""
    fuzz_path.write_bytes(data)
    try:
        read_design(fuzz_path)
    except ReproError:
        pass


def test_non_utf8_file_names_path_and_offset(tmp_path):
    path = tmp_path / "latin1.nets"
    path.write_bytes("a L0 1,2 -> L0 9,2 # caf\xe9\n".encode("latin-1"))
    with pytest.raises(NetlistError, match=r"latin1\.nets.*offset 24"):
        read_design(path)
