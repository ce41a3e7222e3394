"""Verilog preprocessing: comments, `define/`undef, conditionals, `include.

Output is plain Verilog with no backtick directives. Every source line
keeps its line number: blank lines, directives, lines of an inactive
branch and `define continuation lines come out empty. Text pulled in by
`include is inserted without its blank lines and shifts the lines after it.
Supported directives: `define (object-like), `undef, `ifdef/`ifndef/`else/
`endif, `include, `timescale (stripped). Anything else is an error.
"""

from __future__ import annotations

import itertools
import os
import re
from collections.abc import Callable
from dataclasses import dataclass, field

from ipsim.errors import PreprocessError, SourceLocation

MACRO_RE = re.compile(r"`([A-Za-z_][A-Za-z0-9_$]*)")
MAX_MACRO_DEPTH = 16
MAX_MACRO_USES = 1024  # substitutions on one line, nested ones included: bounds a fan-out
# A string literal (an unterminated one runs to the end), a line comment, a
# block comment, or a lone /* that never closes.
_COMMENT_RE = re.compile(r'"(?:\\.|[^"\\])*"?|//[^\n]*|/\*.*?\*/|/\*', re.DOTALL)
# The whitespace of a line that holds nothing else, as str.strip sees it.
_BLANK_RE = re.compile(r"^[^\S\n]+$", re.MULTILINE)


@dataclass
class SourceUnit:
    """A preprocessed compilation unit: source files plus macro seed.

    files are (path, text) pairs processed in order with a shared macro
    table, matching common tool behavior. root anchors `include lookup
    when the including file's directory does not resolve.
    """

    files: list[tuple[str, str]]
    top_module: str = ""
    defines: dict[str, str] = field(default_factory=dict)
    root: str | None = None

    def __post_init__(self):
        if not self.files:
            raise PreprocessError("source unit has no files")


def read_source(path: str | os.PathLike) -> str:
    """A design file's text, decoded as UTF-8."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise PreprocessError(f"{path}: not UTF-8 at byte {exc.start}") from exc


def strip_comments(text: str) -> str:
    """Remove // and /* */ comments, leaving string literals intact.

    Newlines inside block comments are kept so every surviving token
    stays on its original line and diagnostics do not drift.
    """
    return _COMMENT_RE.sub(_drop_comment, text)


def _drop_comment(m: re.Match) -> str:
    found = m.group()
    if found == "/*":
        raise PreprocessError("unterminated block comment")
    return found if found[0] == '"' else "\n" * found.count("\n")


def _expand_macros(line: str, macros: dict[str, str], error: Callable[[str], PreprocessError],
                   depth: int = 1, uses: itertools.count | None = None) -> str:
    """Replace each macro use with its body, expanded in turn one level deeper.
    ``uses`` numbers the line's substitutions, nested ones included, and
    ``error`` makes the error for the line."""
    if "`" not in line:
        return line
    uses = uses or itertools.count(1)

    def substitute(m: re.Match) -> str:
        if depth > MAX_MACRO_DEPTH:
            raise error(f"macro recursion beyond depth {MAX_MACRO_DEPTH}")
        if next(uses) > MAX_MACRO_USES:
            raise error(f"macro expansion beyond {MAX_MACRO_USES} uses on one line")
        if m.group(1) not in macros:
            raise error(f"undefined macro `{m.group(1)}")
        return _expand_macros(macros[m.group(1)], macros, error, depth + 1, uses)

    return MACRO_RE.sub(substitute, line)


class _Preprocessor:
    def __init__(self, unit: SourceUnit):
        self.unit = unit
        self.macros = dict(unit.defines)
        self.file_map = {os.path.normpath(p): t for p, t in unit.files}
        first_dir = os.path.dirname(unit.files[0][0])
        self.root = unit.root if unit.root is not None else first_dir

    def run(self) -> list[tuple[str, str]]:
        return [(path, self.process_file(path, text, ())) for path, text in self.unit.files]

    def process_file(self, path: str, text: str, include_stack: tuple[str, ...]) -> str:
        if path in include_stack:
            raise PreprocessError(f"circular `include of {path!r}")
        text = strip_comments(text)
        if "`" not in text:  # no directive and no macro: only the blank lines change
            return _BLANK_RE.sub("", text)
        return "\n".join(self._process_lines(path, text, include_stack + (path,)))

    def _read_include(self, inc: str, including: str) -> tuple[str, str]:
        candidates = [
            os.path.normpath(os.path.join(os.path.dirname(including), inc)),
            os.path.normpath(os.path.join(self.root, inc)),
        ]
        for cand in candidates:
            if cand in self.file_map:
                return cand, self.file_map[cand]
            if os.path.isfile(cand):
                return cand, read_source(cand)
        raise PreprocessError(f"cannot resolve `include \"{inc}\" from {including}")

    def _process_lines(self, path: str, text: str, include_stack: tuple[str, ...]) -> list[str]:
        """The lines of text, whose comments are stripped, with every
        directive resolved and every macro expanded."""
        raw_lines = text.split("\n")
        out: list[str] = []
        # Each conditional frame: [active, parent_active, seen_else].
        cond: list[list[bool]] = []
        i = 0  # lines read, so the number of the line being processed

        def error(message: str) -> PreprocessError:
            return PreprocessError(message, SourceLocation(path, i, 1))

        while i < len(raw_lines):
            line = raw_lines[i]
            i += 1
            stripped = line.strip()
            active = not cond or cond[-1][0]  # a frame is active only in an active parent
            if not stripped.startswith("`"):
                out.append(_expand_macros(line, self.macros, error) if active and stripped else "")
                continue
            out.append("")

            m = MACRO_RE.match(stripped)
            directive = m.group(1) if m else ""
            rest = stripped[m.end() :].strip() if m else ""

            if directive in ("ifdef", "ifndef"):
                name = rest.split()[0] if rest else ""
                if not name:
                    raise error(f"`{directive} needs a macro name")
                defined = name in self.macros
                branch = defined if directive == "ifdef" else not defined
                cond.append([active and branch, active, False])
            elif directive == "else":
                if not cond or cond[-1][2]:
                    raise error("`else without matching `ifdef")
                frame = cond[-1]
                frame[0] = frame[1] and not frame[0]
                frame[2] = True
            elif directive == "endif":
                if not cond:
                    raise error("`endif without matching `ifdef")
                cond.pop()
            elif not active:
                continue
            elif directive == "define":
                dm = re.match(r"([A-Za-z_][A-Za-z0-9_$]*)(.*)", rest)
                if dm is None:
                    raise error("`define needs a macro name")
                name, body = dm.group(1), dm.group(2)
                if body.startswith("("):
                    raise error("function-like macros are not supported")
                while body.rstrip().endswith("\\") and i < len(raw_lines):
                    body = body.rstrip()[:-1] + " " + raw_lines[i].strip()
                    i += 1
                    out.append("")
                self.macros[name] = body.strip()
            elif directive == "undef":
                self.macros.pop(rest.split()[0] if rest else "", None)
            elif directive == "include":
                im = re.match(r'"([^"]+)"', rest)
                if im is None:
                    raise error("`include needs a quoted path")
                inc_text = self.process_file(*self._read_include(im.group(1), path), include_stack)
                out.extend(ln for ln in inc_text.split("\n") if ln.strip())
            elif directive == "timescale":
                continue
            else:
                raise error(f"unsupported directive `{directive}")
        if cond:
            raise PreprocessError(f"unterminated `ifdef at end of {path}")
        return out


def preprocess(unit: SourceUnit) -> list[tuple[str, str]]:
    """Resolve directives and strip comments for every file in the unit."""
    return _Preprocessor(unit).run()


def preprocess_text(text: str, path: str = "<text>", defines: dict[str, str] | None = None) -> str:
    """Preprocess a single in-memory source string."""
    unit = SourceUnit(files=[(path, text)], defines=defines or {})
    return preprocess(unit)[0][1]
