"""Locations that cost nothing until a diagnostic reads them: a compile
that succeeds finds no token offset and resolves no location, and a lazy
location reads, compares, hashes and prints as the eager one does."""

import importlib

import pytest

from conftest import CORPUS_ROOT
from ipsim.errors import SourceLocation, TokenLocation, VerilogSyntaxError
from ipsim.frontend import lexer, parse, preprocess_text
from ipsim.pipeline import compile_design, compile_text
from reference import tokenize_reference
from test_scanners import PERFBENCH


def forbid(*_):
    raise AssertionError("a successful compile computed a token offset or a location")


def test_compiles_find_no_offset_and_resolve_no_location(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    ladder, inputs = importlib.import_module("ladder"), importlib.import_module("inputs")
    texts = [ladder.SHAPES[shape](size, seed).text
             for seed in range(3) for shape, size in inputs.RUNGS if shape != "chain"]
    paths = sorted(CORPUS_ROOT.rglob("*.v"))
    assert len(paths) >= 90 and len(texts) == 21
    monkeypatch.setattr(lexer, "offsets", forbid)
    monkeypatch.setattr(lexer.Lines, "location", forbid)
    monkeypatch.setattr(TokenLocation, "__getattr__", forbid)
    for path in paths:
        compile_design([path])
    for text in texts:
        compile_text(text)


def test_a_failing_parse_still_locates_its_error(monkeypatch):
    # The same patch does fire on the diagnostic path, so the test above
    # would see a location being resolved.
    monkeypatch.setattr(lexer, "offsets", forbid)
    with pytest.raises(AssertionError, match="token offset"):
        parse("module m(y); output y; assign y = ; endmodule", "f.v")


@pytest.mark.parametrize("path", sorted(CORPUS_ROOT.rglob("*.v"))[::15], ids=lambda p: p.name)
def test_lazy_and_eager_locations_agree(path):
    text = preprocess_text(path.read_text(), str(path))
    eager = []
    tokenize_reference(text, str(path), eager)
    lines = lexer.Lines(text, str(path))
    for index, want in enumerate(eager):
        # Each check reads a fresh lazy location, so each one resolves it.
        assert TokenLocation(lines, index) == want and want == TokenLocation(lines, index)
        assert hash(TokenLocation(lines, index)) == hash(want)
        assert str(TokenLocation(lines, index)) == str(want)
        assert repr(TokenLocation(lines, index)) == repr(want)
        lazy = TokenLocation(lines, index)
        assert (lazy.path, lazy.line, lazy.col) == (want.path, want.line, want.col)
        assert lazy != SourceLocation(want.path, want.line, want.col + 1)
        assert len({lazy, want, TokenLocation(lines, index)}) == 1


def test_location_prints_as_before():
    loc = SourceLocation("f.v", 3, 7)
    assert (str(loc), repr(loc)) == ("f.v:3:7", "SourceLocation(path='f.v', line=3, col=7)")
    assert loc != ("f.v", 3, 7) and loc == SourceLocation("f.v", 3, 7)
    with pytest.raises(AttributeError):
        TokenLocation(lexer.Lines("a", "f.v"), 0).name


def test_syntax_error_location_is_exact():
    with pytest.raises(VerilogSyntaxError) as err:
        parse("module m(y);\n  output y;\n\tassign y = ;\nendmodule\n", "f.v")
    assert str(err.value.location) == "f.v:3:13"
