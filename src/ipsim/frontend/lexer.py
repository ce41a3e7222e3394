"""Tokenizer for the supported Verilog subset."""

from __future__ import annotations

import bisect
import re

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

_RESERVED = KEYWORDS | UNSUPPORTED_KEYWORDS

# Each match skips blanks, then takes one token into the group named for
# its kind. An ident may still turn out a keyword; an escaped identifier is
# an ident without its backslash; "bad" is a character that starts no token.
_TOKEN_RE = re.compile(
    r"""
    [ \t\r\f\n]* (?:
      (?P<real>\d[\d_]*\.\d+)
    | (?P<number>(?:\d[\d_]*)?'[sS]?[bodhBODH][0-9a-fA-FxXzZ_?]+|\d[\d_]*)
    | (?P<escaped>\\\S+)
    | (?P<system>\$[A-Za-z_][A-Za-z0-9_$]*)
    | (?P<ident>[A-Za-z_][A-Za-z0-9_$]*)
    | (?P<op><<<|>>>|===|!==|<<|>>|<=|>=|==|!=|&&|\|\||~&|~\||~\^|\^~
         |[-+*/%&|^~!<>=?:;,.()\[\]{}@\#])
    | (?P<bad>.)
    | (?P<eof>\Z) )
    """,
    re.VERBOSE,
)


def tokenize(text: str, path: str = "<text>") -> tuple[list[str], list[str], list[int]]:
    """Kind (keyword, ident, number, op, system, real or eof), text and
    offset of each token, as three lists that end with eof at len(text)."""
    kinds, texts, offsets = [], [], []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        offsets.append(m.start(kind))
        word = m[kind]
        if kind == "ident" and word in _RESERVED:
            kind = "keyword"
        elif kind == "escaped":
            kind, word = "ident", word[1:]
        kinds.append(kind)
        texts.append(word)
        if kind == "eof":  # an empty match at the end follows one after blanks
            break
    if "bad" in kinds:
        bad = kinds.index("bad")
        raise VerilogSyntaxError(Lines(text, path).location(offsets[bad]), ("a token",), texts[bad])
    return kinds, texts, offsets


class Lines:
    """Offsets in one text to locations, by line starts found on first use."""

    def __init__(self, text: str, path: str):
        self.text, self.path = text, path
        self.starts: list[int] | None = None

    def location(self, offset: int) -> SourceLocation:
        if self.starts is None:
            self.starts = [0, *(m.end() for m in re.finditer("\n", self.text))]
        line = bisect.bisect_right(self.starts, offset)
        return SourceLocation(self.path, line, offset - self.starts[line - 1] + 1)


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
