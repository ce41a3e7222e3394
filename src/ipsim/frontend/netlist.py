"""Plain gate netlists read straight into the flat module.

A plain netlist is one module of scalar port and wire declarations and
primitive gates whose terminals are plain identifiers (the ISCAS-85
form), whose elaboration only lowers the gates. It is read one statement
at a time, with no token list and no AST. Any other text goes to the
parser, which owns every diagnostic.
"""

from __future__ import annotations

import re

from ipsim.frontend import nodes as n
from ipsim.frontend.flatten import FlatModule, FlatPort, lower_gate
from ipsim.frontend.lexer import _RESERVED, BLANK, IDENT, IDENT_CHAR

_S = BLANK + "*"
_END = f"(?!{IDENT_CHAR})"  # a keyword ends where an identifier does, not at \b
_LIST = f"{IDENT}(?:{_S},{_S}{IDENT})*"
_PORT = rf"(?:(input|output|inout){_END}{_S})?({IDENT})"
_IDENT_RE, _PORT_RE = re.compile(IDENT), re.compile(_PORT)
_HEADER_RE = re.compile(
    rf"{_S}module{_END}{_S}({IDENT}){_S}(?:\({_S}(?:({_PORT}(?:{_S},{_S}{_PORT})*){_S})?\){_S})?;")
# One body statement: a port or wire declaration, a gate, or endmodule
# with nothing but blanks after it.
_ITEM_RE = re.compile(
    rf"{_S}(?:(input|output|inout|wire){_END}{_S}({_LIST}){_S};"
    rf"|({'|'.join(n.GATES)}){_END}{_S}(?:({IDENT}){_S})?\({_S}({_LIST}){_S}\){_S};"
    rf"|endmodule{_END}{_S}\Z)")


def read_netlist(text: str) -> FlatModule | None:
    """The FlatModule that parsing and elaborating a plain netlist gives,
    or None for any other text: every width None, the gates lowered in
    order by flatten.lower_gate. Its nodes carry no location, which the
    builder reads only for a select, a concatenation or an unsupported
    target, none of which a plain netlist has."""
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
    wires, terminals, gates, labels = [], [], [], [header.group(1)]
    pos = header.end()
    while item := _ITEM_RE.match(text, pos):
        pos = item.end()
        word, names, gate, label, connected = item.groups()
        if word == "wire":
            wires += _IDENT_RE.findall(names)
        elif word:
            for name in _IDENT_RE.findall(names):
                if ports.get(name):
                    return None  # a second direction for one port
                ports[name] = word
        elif not gate:
            break  # endmodule
        else:
            terms = _IDENT_RE.findall(connected)
            if len(terms) < (2 if n.GATES[gate][0] is None else 3):
                return None
            gates.append((gate, terms))
            terminals += terms
            labels.append(label)
    else:  # a statement outside the form
        return None
    widths = dict.fromkeys([*ports, *wires, *terminals])  # implicit nets last
    if not all(ports.values()) or not _RESERVED.isdisjoint(widths) or not _RESERVED.isdisjoint(labels):
        return None
    flat = FlatModule(header.group(1), [FlatPort(name, d, None) for name, d in ports.items()], widths)
    idents = {name: n.Ident(None, name) for name in widths}
    for gate, terms in gates:
        flat.assigns += lower_gate(gate, [idents[t] for t in terms], None)
    return flat
