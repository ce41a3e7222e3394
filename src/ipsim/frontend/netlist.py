"""Plain gate netlists read straight into the flat module.

A plain netlist is one module of scalar port and wire declarations and
primitive gates whose terminals are plain identifiers (the ISCAS-85
form), which elaboration leaves as it is. Its body is read in one pass
of one pattern, with no token list and no AST, and its gates go to the
builder unlowered, their terminals as names. Any other text goes to the
parser, which owns every diagnostic.
"""

from __future__ import annotations

import re

from ipsim.frontend import nodes as n
from ipsim.frontend.flatten import FlatModule, FlatPort
from ipsim.frontend.lexer import _RESERVED, BLANK, IDENT, IDENT_CHAR

_S = BLANK + "*"
_END = f"(?!{IDENT_CHAR})"  # a keyword ends where an identifier does, not at \b
_LIST = f"{IDENT}(?:{_S},{_S}{IDENT})*"
_PORT = rf"(?:(input|output|inout){_END}{_S})?({IDENT})"
_IDENT_RE, _PORT_RE = re.compile(IDENT), re.compile(_PORT)
_HEADER_RE = re.compile(
    rf"{_S}module{_END}{_S}({IDENT}){_S}(?:\({_S}(?:({_PORT}(?:{_S},{_S}{_PORT})*){_S})?\){_S})?;")
# One body statement: a port or wire declaration, a gate, or endmodule
# with nothing but blanks after it. Where none starts, the last
# alternative takes one stray character.
_ITEM_RE = re.compile(
    rf"{_S}(?:(input|output|inout|wire){_END}{_S}({_LIST}){_S};"
    rf"|({'|'.join(n.GATES)}){_END}{_S}(?:({IDENT}){_S})?\({_S}({_LIST}){_S}\){_S};"
    rf"|(endmodule){_END}{_S}\Z)|([\s\S])")


def read_netlist(text: str) -> FlatModule | None:
    """The FlatModule that parsing and elaborating a plain netlist gives,
    or None for any other text: every width None, and the gates in order
    as (gate, terminal names, None). No gate has a location, which the
    builder reads only for a terminal that is not a name."""
    # A text with an assignment or a range is no plain netlist: RTL is
    # turned away before any pattern runs.
    header = None if "=" in text or "[" in text else _HEADER_RE.match(text)
    if header is None:
        return None
    # ANSI ports, where a bare name keeps the direction before it, or
    # names that the body gives directions.
    listed = _PORT_RE.findall(header.group(2) or "")
    ansi, direction, ports = bool(listed and listed[0][0]), "", {}
    for given, name in listed:
        if name in ports or given and not ansi:
            return None
        direction = ports[name] = given or direction
    items = _ITEM_RE.findall(text, header.end())
    if not items or items[-1][5] != "endmodule":
        return None
    wires, terminals, gates, labels = [], [], [], [header.group(1)]
    for word, names, gate, label, connected, _, stray in items:
        if gate:
            # connected holds names, commas and blanks only
            terms = "".join(connected.split()).split(",")
            if len(terms) < (2 if n.GATES[gate][0] is None else 3):
                return None
            gates.append((gate, terms, None))
            terminals += terms
            labels.append(label)
        elif word == "wire":
            wires += _IDENT_RE.findall(names)
        elif word:
            for name in _IDENT_RE.findall(names):
                if ports.get(name):
                    return None  # a second direction for one port
                ports[name] = word
        elif stray:
            return None  # a statement outside the form
    widths = dict.fromkeys([*ports, *wires, *terminals])  # implicit nets last
    if not all(ports.values()) or not _RESERVED.isdisjoint(widths) or not _RESERVED.isdisjoint(labels):
        return None
    return FlatModule(header.group(1), [FlatPort(name, d, None) for name, d in ports.items()], widths, gates)
