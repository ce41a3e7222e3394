"""Tokenizer for the supported Verilog subset."""

from __future__ import annotations

import bisect
import math
import re

from ipsim.errors import SourceLocation, VerilogSyntaxError
from ipsim.frontend.nodes import BINARY, FOUR_STATE, GATES, MAX_CONST_BITS, UNARY

KEYWORDS = frozenset("""module endmodule input output inout wire reg parameter localparam assign
    always begin end if else case casex casez endcase default posedge negedge""".split()).union(GATES)

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

_RESERVED = KEYWORDS | UNSUPPORTED_KEYWORDS

# The operator table's spellings and the lexer's own punctuation, longest
# first, so that a match takes "<<<" before "<<" and "<".
_OPS = sorted({*BINARY, *FOUR_STATE, *UNARY, *"=?:;,.()[]{}@#"}, key=lambda op: (-len(op), op))

# Each match skips blanks, then captures one token: an identifier, a real,
# a based or plain number, an escaped identifier, a system name, an
# operator, a character that starts no token, or the empty text at the end.
_TOKEN_RE = re.compile(
    r"[ \t\r\f\n]*([A-Za-z_][A-Za-z0-9_$]*|\d[\d_]*\.\d+|(?:\d[\d_]*)?'[sS]?[bodhBODH][0-9a-fA-FxXzZ_?]+"
    r"|\d[\d_]*|\\\S+|\$[A-Za-z_][A-Za-z0-9_$]*|"
    + "".join(re.escape(op) + "|" for op in _OPS if len(op) > 1)
    + "[" + re.escape("".join(op for op in _OPS if len(op) == 1)) + r"]|.|\Z)"
)
# A token's kind by its whole text, else by its first character.
_KIND_BY_TEXT = {**dict.fromkeys(_OPS, "op"), **dict.fromkeys(_RESERVED, "keyword"),
                 **dict.fromkeys("\\$'", "bad"), "": "eof"}
_KIND_BY_FIRST = {**dict.fromkeys("0123456789'", "number"), "$": "system", "\\": "escaped",
                  **dict.fromkeys("_abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ", "ident")}


def scan(text: str, path: str = "<text>") -> tuple[list[str], list[str]]:
    """Kind (keyword, ident, number, op, system, real or eof) and text of
    each token, as two lists that end with eof. An escaped identifier's
    text drops its backslash."""
    texts = _TOKEN_RE.findall(text)
    if texts[-2:] == ["", ""]:
        texts.pop()  # blanks at the end: eof after them, then an empty match
    kinds = [_KIND_BY_TEXT.get(t) or _KIND_BY_FIRST.get(t[0], "bad") for t in texts]
    if "\\" in text or "." in text:  # an escaped identifier or a real may be here
        for i, kind in enumerate(kinds):
            if kind == "escaped":
                kinds[i], texts[i] = "ident", texts[i][1:]
            elif kind == "number" and "." in texts[i]:
                kinds[i] = "real"
    if "bad" in kinds:
        bad = kinds.index("bad")
        raise VerilogSyntaxError(Lines(text, path).location(offsets(text)[bad]), ("a token",), texts[bad])
    return kinds, texts


def offsets(text: str) -> list[int]:
    """Offset of each token that scan finds in text, eof at len(text)."""
    found = [m.start(1) for m in _TOKEN_RE.finditer(text)]
    if found[-2:] == [len(text)] * 2:
        found.pop()
    return found


def tokenize(text: str, path: str = "<text>") -> tuple[list[str], list[str], list[int]]:
    """scan's kinds and texts, and the tokens' offsets."""
    return *scan(text, path), offsets(text)


class Lines:
    """Locations in one text: of an offset, by line starts found on first
    use, and of a token, by its offset from a second pass on first use."""

    def __init__(self, text: str, path: str):
        self.text, self.path = text, path
        self.starts: list[int] | None = None
        self.offsets: list[int] | None = None

    def location(self, offset: int) -> SourceLocation:
        if self.starts is None:
            self.starts = [0, *(m.end() for m in re.finditer("\n", self.text))]
        line = bisect.bisect_right(self.starts, offset)
        return SourceLocation(self.path, line, offset - self.starts[line - 1] + 1)

    def token_offset(self, index: int) -> int:
        if self.offsets is None:
            self.offsets = offsets(self.text)
        return self.offsets[index]


def parse_number(text: str) -> int | None:
    """A literal's value, truncated to its size as IEEE 1364-2005 3.5.1
    says: None for x/z/? bits, ValueError naming what was expected for a
    zero size or a digit outside its base, OverflowError for a value wider
    than MAX_CONST_BITS."""
    text = text.replace("_", "")
    base, digits, size = 10, text, ""
    if "'" in text:
        size, rest = text.split("'", 1)
        size = size.lstrip("0") or size[:1]
        if size == "0":
            raise ValueError("a literal of nonzero size")
        if rest and rest[0] in "sS":
            rest = rest[1:]
        base_char, digits = rest[0].lower(), rest[1:]
        if any(ch in "xXzZ?" for ch in digits):
            return None
        base = {"b": 2, "o": 8, "d": 10, "h": 16}[base_char]
        # int() also takes "0b", and refuses "" (the digits of 4'h_).
        if not digits or not set(digits.lower()) <= set("0123456789abcdef"[:base]):
            raise ValueError("a literal whose digits fit its base")
    # A value of d significant digits is at least base ** (d - 1). That is
    # tested before int(), which refuses decimal text longer than the
    # process's digit limit, leading zeros included.
    significant = digits.lstrip("0")
    if (len(significant) - 1) * math.log2(base) < MAX_CONST_BITS:
        value = int(significant or digits[:1], base)
        if value.bit_length() <= MAX_CONST_BITS:
            # A size of five digits is wider than any value that gets here.
            if size and len(size) < 5 and value.bit_length() > int(size):
                value &= (1 << int(size)) - 1
            return value
    raise OverflowError(f"literal wider than {MAX_CONST_BITS} bits")
