"""The token form: offsets whose locations match the character loop's
line and column, and tokens that leave the cyclic collector nothing to
track."""

import gc
import importlib
import random

import pytest

from conftest import CORPUS_ROOT
from ipsim.errors import PreprocessError, VerilogSyntaxError
from ipsim.frontend import preprocess_text, strip_comments
from ipsim.frontend.lexer import Lines, tokenize
from reference import tokenize_reference
from test_scanners import FRAGMENTS, PERFBENCH


def assert_locations_match(text, path="<text>"):
    """Each token's location, computed from its offset, is the one the
    character loop tracks as it goes, end of text included."""
    try:
        _, _, offsets = tokenize(text, path)
    except VerilogSyntaxError:
        return  # the error and its location are test_scanners' to compare
    want = []
    tokenize_reference(text, path, want)
    lines = Lines(text, path)
    assert [lines.location(offset) for offset in offsets] == want, repr(text)


def ladder_texts():
    ladder = importlib.import_module("ladder")
    inputs = importlib.import_module("inputs")
    return [ladder.SHAPES[shape](size, seed).text
            for seed in range(3) for shape, size in inputs.RUNGS]


def test_locations_match_reference_on_corpus():
    paths = sorted(CORPUS_ROOT.rglob("*.v"))
    assert len(paths) >= 90
    for path in paths:
        assert_locations_match(preprocess_text(path.read_text(), str(path)), str(path))


def test_locations_match_reference_on_ladder(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for text in ladder_texts():
        assert_locations_match(text)


@pytest.mark.parametrize("seed", range(3))
def test_locations_match_reference_on_random_text(seed):
    # The same 3,000 strings as test_scanners: blanks such as \r and \f
    # inside and at the end of lines, and text that ends mid-line.
    rng = random.Random(f"scanners/{seed}")
    for _ in range(1000):
        text = "".join(rng.choices(FRAGMENTS, k=rng.randint(0, 24)))
        assert_locations_match(text)
        try:
            stripped = strip_comments(text)
        except PreprocessError:
            continue  # an unterminated comment
        assert_locations_match(stripped)


def test_location_of_each_line_end_and_of_the_end_of_text():
    lines = Lines("ab\r\n\fc\n", "f.v")
    assert [str(lines.location(offset)) for offset in range(8)] == [
        "f.v:1:1", "f.v:1:2", "f.v:1:3", "f.v:1:4", "f.v:2:1", "f.v:2:2", "f.v:2:3", "f.v:3:1"]
    assert tokenize("ab\r\n\fc\n") == (["ident", "ident", "eof"], ["ab", "c", ""], [0, 5, 7])


def test_tokens_leave_no_object_for_the_collector(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    text = max(ladder_texts(), key=len)
    tokenize(text)
    gc.collect()
    before = len(gc.get_objects())
    tokens = tokenize(text)
    gc.collect()
    assert len(tokens[0]) > 5000
    # The three lists and the tuple that holds them; strings and ints
    # are not tracked.
    assert len(gc.get_objects()) - before <= 8
