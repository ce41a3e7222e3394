"""Tokenizer for the supported Verilog subset."""

from __future__ import annotations

import re
from dataclasses import dataclass

from ipsim.errors import SourceLocation, VerilogSyntaxError

KEYWORDS = frozenset(
    """module endmodule input output inout wire reg parameter localparam assign
    always begin end if else case casex casez endcase default posedge negedge
    and nand or nor xor xnor not buf""".split()
)

# Reserved words we recognize only to reject with a precise diagnostic.
UNSUPPORTED_KEYWORDS = frozenset(
    """initial function endfunction task endtask generate endgenerate genvar
    integer real realtime time event signed for while repeat forever wait fork
    join force release deassign disable specify endspecify defparam primitive
    endprimitive table endtable tri tri0 tri1 triand trior trireg wand wor
    supply0 supply1 cmos nmos pmos rcmos rnmos rpmos tran tranif0 tranif1
    rtran rtranif0 rtranif1 pullup pulldown bufif0 bufif1 notif0 notif1
    scalared vectored small medium large highz0 highz1 strong0 strong1
    pull0 pull1 weak0 weak1 automatic cell config design edge endconfig
    ifnone incdir include instance liblist library macromodule noshowcancelled
    pulsestyle_onevent pulsestyle_ondetect showcancelled use""".split()
)

GATE_KEYWORDS = frozenset("and nand or nor xor xnor not buf".split())

_TOKEN_RE = re.compile(
    r"""
    (?P<newline>\n)
  | (?P<blank>[ \t\r\f]+)
  | (?P<based>(\d[\d_]*)?'[sS]?[bodhBODH][0-9a-fA-FxXzZ_?]+)
  | (?P<real>\d[\d_]*\.\d+)
  | (?P<number>\d[\d_]*)
  | (?P<escaped>\\\S+)
  | (?P<system>\$[A-Za-z_][A-Za-z0-9_$]*)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_$]*)
  | (?P<op><<<|>>>|===|!==|<<|>>|<=|>=|==|!=|&&|\|\||~&|~\||~\^|\^~
       |[-+*/%&|^~!<>=?:;,.()\[\]{}@\#])
  | (?P<bad>.)
    """,
    re.VERBOSE,
)

# Token kind of each _TOKEN_RE group; an ident may still turn out a keyword.
_KINDS = {"based": "number", "number": "number", "real": "real", "escaped": "ident",
          "system": "system", "ident": "ident", "op": "op"}


@dataclass(frozen=True)
class Token:
    kind: str  # keyword | ident | number | op | system | real | eof
    text: str
    loc: SourceLocation


def tokenize(text: str, path: str = "<text>") -> list[Token]:
    tokens: list[Token] = []
    line, line_start = 1, 0
    for m in _TOKEN_RE.finditer(text):
        group, word = m.lastgroup, m.group()
        if group == "newline":
            line, line_start = line + 1, m.end()
            continue
        if group == "blank":
            continue
        loc = SourceLocation(path, line, m.start() - line_start + 1)
        if group == "bad":
            raise VerilogSyntaxError(loc, ("a token",), word)
        kind = _KINDS[group]
        if group == "escaped":
            word = word[1:]
        elif group == "ident" and (word in KEYWORDS or word in UNSUPPORTED_KEYWORDS):
            kind = "keyword"
        tokens.append(Token(kind, word, loc))
    tokens.append(Token("eof", "", SourceLocation(path, line, len(text) - line_start + 1)))
    return tokens


def parse_number(text: str) -> int | None:
    """Numeric value of a literal, or None when it contains x/z/? bits."""
    text = text.replace("_", "")
    if "'" not in text:
        return int(text)
    _, rest = text.split("'", 1)
    if rest and rest[0] in "sS":
        rest = rest[1:]
    base_char, digits = rest[0].lower(), rest[1:]
    if any(ch in "xXzZ?" for ch in digits):
        return None
    base = {"b": 2, "o": 8, "d": 10, "h": 16}[base_char]
    return int(digits, base)
