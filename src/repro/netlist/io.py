"""Plain-text netlist serialisation.

Format (one net per line, ``#`` comments, blank lines ignored)::

    <name> L<layer> <x1>,<y1>[;<x2>,<y2>...] -> L<layer> <x1>,<y1>[;...] [-> ...]

A pin with several ``;``-separated coordinates is a multi-candidate pin;
pins beyond the second are taps of a multi-pin net. Net ids are assigned
in file order.

Blockage directives (macros, pre-routes) may be interleaved::

    BLOCK L<layer> <xlo>,<ylo>,<xhi>,<yhi>      # half-open track rect
    BLOCK * <xlo>,<ylo>,<xhi>,<yhi>             # on every layer

Example::

    # two fixed-pin nets, a multi-candidate one, and a 3-pin net
    BLOCK * 10,4,26,15
    n0 L0 1,2 -> L0 9,2
    n1 L0 4,4 -> L0 4,11
    n2 L0 0,0;0,1 -> L0 7,7;8,7;9,7
    n3 L0 1,1 -> L0 9,1 -> L0 5,8
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Tuple, Union

from ..errors import NetlistError, ReproError
from ..geometry import Point
from .net import Net, Pin
from .netlist import Netlist


def _parse_pin(text: str) -> Pin:
    text = text.strip()
    if not text.startswith("L"):
        raise NetlistError(f"pin must start with layer tag 'L<n>': {text!r}")
    try:
        layer_part, coords_part = text.split(None, 1)
    except ValueError:
        raise NetlistError(f"malformed pin: {text!r}") from None
    try:
        layer = int(layer_part[1:])
    except ValueError:
        raise NetlistError(f"bad layer tag {layer_part!r}") from None
    points: List[Point] = []
    for chunk in coords_part.split(";"):
        try:
            x_str, y_str = chunk.split(",")
            points.append(Point(int(x_str), int(y_str)))
        except ValueError:
            raise NetlistError(f"bad coordinate {chunk!r} in pin {text!r}") from None
    return Pin(candidates=tuple(points), layer=layer)


def _format_pin(pin: Pin) -> str:
    coords = ";".join(f"{p.x},{p.y}" for p in pin.candidates)
    return f"L{pin.layer} {coords}"


def _parse_block(line: str, raw: str):
    from ..geometry import Rect

    try:
        _, layer_tag, coords = line.split(None, 2)
        layer = -1 if layer_tag == "*" else int(layer_tag[1:])
        xlo, ylo, xhi, yhi = (int(v) for v in coords.split(","))
    except (ValueError, IndexError):
        raise NetlistError(f"malformed BLOCK directive {raw!r}") from None
    return layer, Rect(xlo, ylo, xhi, yhi)


def _parse_net(net_id: int, line: str, raw: str) -> Net:
    try:
        name, rest = line.split(None, 1)
        pin_texts = rest.split("->")
        if len(pin_texts) < 2:
            raise ValueError
    except ValueError:
        raise NetlistError(f"malformed net line {raw!r}") from None
    pins = [_parse_pin(text) for text in pin_texts]
    return Net(
        net_id=net_id,
        name=name,
        source=pins[0],
        target=pins[1],
        taps=tuple(pins[2:]),
    )


def parse_design(text: str):
    """Parse a design file into ``(blockages, netlist)``.

    ``blockages`` is a list of ``(layer, Rect)`` with layer ``-1`` meaning
    "every layer" (the ``BLOCK *`` form). Any error raised while parsing
    a line — a bad coordinate, a degenerate rect, an invalid pin, a
    duplicate net name — surfaces as a :class:`NetlistError` naming the
    line number.
    """
    netlist = Netlist()
    blockages = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            if line.split(None, 1)[0].upper() == "BLOCK":
                blockages.append(_parse_block(line, raw))
            else:
                netlist.add(_parse_net(len(netlist), line, raw))
        except ReproError as exc:
            raise NetlistError(f"line {lineno}: {exc}") from None
    return blockages, netlist


def parse_netlist(text: str) -> Netlist:
    """Parse netlist text into a :class:`Netlist` (BLOCK lines ignored)."""
    _, netlist = parse_design(text)
    return netlist


def read_design_text(path: Union[str, Path]) -> str:
    """Read a design file's raw text (UTF-8) with actionable errors.

    Missing, unreadable or non-UTF-8 files raise a :class:`NetlistError`
    naming the path (and, for a decode error, the byte offset) instead of
    surfacing a raw traceback; parse errors raised downstream already
    carry the offending line number.
    """
    path = Path(path)
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise NetlistError(
            f"netlist file {path} is not UTF-8 text: "
            f"invalid byte at offset {exc.start}"
        ) from None
    except FileNotFoundError:
        raise NetlistError(f"netlist file not found: {path}") from None
    except IsADirectoryError:
        raise NetlistError(f"netlist path is a directory, not a file: {path}") from None
    except OSError as exc:
        reason = exc.strerror or exc
        raise NetlistError(f"cannot read netlist file {path}: {reason}") from None


def read_design(path: Union[str, Path]):
    """Read a design file: returns ``(blockages, netlist)``.

    File-system problems and malformed content both raise a clean
    :class:`NetlistError` carrying the path (and, for parse errors, the
    line number) — never a raw traceback.
    """
    text = read_design_text(path)
    try:
        return parse_design(text)
    except NetlistError as exc:
        raise NetlistError(f"{path}: {exc}") from None


def read_netlist(path: Union[str, Path]) -> Netlist:
    """Read a netlist file (same error contract as :func:`read_design`)."""
    _, netlist = read_design(path)
    return netlist


def netlist_to_text(netlist: Netlist) -> str:
    """Serialise a netlist to the text format (round-trips with
    :func:`parse_netlist`; net ids are re-assigned in order on re-read)."""
    lines = []
    for net in netlist:
        pins = [net.source, net.target, *net.taps]
        lines.append(f"{net.name} " + " -> ".join(_format_pin(p) for p in pins))
    return "\n".join(lines) + "\n"


def write_netlist(netlist: Netlist, path: Union[str, Path]) -> None:
    """Write a netlist in the text format (round-trips with read_netlist)."""
    Path(path).write_text(netlist_to_text(netlist))
