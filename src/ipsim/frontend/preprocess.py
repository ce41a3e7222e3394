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
from dataclasses import dataclass, field

from ipsim.errors import PreprocessError, SourceLocation

MACRO_RE = re.compile(r"`([A-Za-z_][A-Za-z0-9_$]*)")
MAX_MACRO_DEPTH = 16
MAX_MACRO_USES = 1024  # substitutions on one line, nested ones included: bounds a fan-out
# A string literal (an unterminated one runs to the end), a line comment, a
# block comment, or a lone /* that never closes.
_COMMENT_RE = re.compile(r'"(?:\\.|[^"\\])*"?|//[^\n]*|/\*.*?\*/|/\*', re.DOTALL)


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


def _expand_macros(line: str, macros: dict[str, str], loc: SourceLocation, depth: int = 1,
                   uses: itertools.count | None = None) -> str:
    """Replace each macro use with its body, expanded in turn one level deeper.
    ``uses`` numbers the line's substitutions, nested ones included."""
    uses = uses or itertools.count(1)

    def substitute(m: re.Match) -> str:
        if depth > MAX_MACRO_DEPTH:
            raise PreprocessError(f"macro recursion beyond depth {MAX_MACRO_DEPTH}", loc)
        if next(uses) > MAX_MACRO_USES:
            raise PreprocessError(f"macro expansion beyond {MAX_MACRO_USES} uses on one line", loc)
        if m.group(1) not in macros:
            raise PreprocessError(f"undefined macro `{m.group(1)}", loc)
        return _expand_macros(macros[m.group(1)], macros, loc, depth + 1, uses)

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
                with open(cand, encoding="utf-8") as fh:
                    return cand, fh.read()
        raise PreprocessError(f"cannot resolve `include \"{inc}\" from {including}")

    def _process_lines(self, path: str, text: str, include_stack: tuple[str, ...]) -> list[str]:
        raw_lines = strip_comments(text).split("\n")
        out: list[str] = []
        # Each conditional frame: [active, parent_active, seen_else].
        cond: list[list[bool]] = []
        i = 0
        while i < len(raw_lines):
            line = raw_lines[i]
            loc = SourceLocation(path, i + 1, 1)
            i += 1
            stripped = line.strip()
            active = all(f[0] for f in cond)
            if not stripped.startswith("`"):
                out.append(_expand_macros(line, self.macros, loc) if active and stripped else "")
                continue
            out.append("")

            m = MACRO_RE.match(stripped)
            directive = m.group(1) if m else ""
            rest = stripped[m.end() :].strip() if m else ""

            if directive in ("ifdef", "ifndef"):
                name = rest.split()[0] if rest else ""
                if not name:
                    raise PreprocessError(f"`{directive} needs a macro name", loc)
                defined = name in self.macros
                branch = defined if directive == "ifdef" else not defined
                cond.append([active and branch, active, False])
            elif directive == "else":
                if not cond or cond[-1][2]:
                    raise PreprocessError("`else without matching `ifdef", loc)
                frame = cond[-1]
                frame[0] = frame[1] and not frame[0]
                frame[2] = True
            elif directive == "endif":
                if not cond:
                    raise PreprocessError("`endif without matching `ifdef", loc)
                cond.pop()
            elif not active:
                continue
            elif directive == "define":
                dm = re.match(r"([A-Za-z_][A-Za-z0-9_$]*)(.*)", rest)
                if dm is None:
                    raise PreprocessError("`define needs a macro name", loc)
                name, body = dm.group(1), dm.group(2)
                if body.startswith("("):
                    raise PreprocessError("function-like macros are not supported", loc)
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
                    raise PreprocessError("`include needs a quoted path", loc)
                inc_path, inc_text = self._read_include(im.group(1), path)
                out.extend(
                    ln
                    for ln in self.process_file(inc_path, inc_text, include_stack).split("\n")
                    if ln.strip()
                )
            elif directive == "timescale":
                continue
            else:
                raise PreprocessError(f"unsupported directive `{directive}", loc)
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
