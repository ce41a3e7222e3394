"""The regex scanners (`tokenize`, `strip_comments`) against the character
loops they replaced, kept in reference.py: same tokens with the same
locations, same stripped text, or the same error with the same message."""

import importlib
import random
from pathlib import Path

import pytest

from conftest import CORPUS_ROOT
from ipsim.frontend import preprocess_text, strip_comments
from ipsim.frontend.lexer import tokenize
from reference import strip_comments_reference, tokenize_reference

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# Pieces of random sources: comment and string delimiters, every blank the
# lexer skips and some it rejects, non-ASCII text, based numbers, escaped
# identifiers, and ordinary tokens.
FRAGMENTS = ['"', "\\", "//", "/*", "*/", "\r", "\f", "\t", "\0", "\v", "\n", "\n", " ", " ",
             "é", "λ", "∑", "`", "4'b10x1", "8'hFF", "'sd3", "12_3", "3.14", "\\esc[0]",
             "\\a+b ", "abc", "module", "$display", "<<<", "==", "~^", ";", "#", "@", "*", "/"]


def outcome(fn, text):
    """The stripped text or token list (tokens compare by kind, text and
    location), or the error's type and message."""
    try:
        return fn(text)
    except Exception as exc:
        return type(exc), str(exc)


def assert_same_strip(text):
    assert outcome(strip_comments, text) == outcome(strip_comments_reference, text), repr(text)


def assert_same_tokens(text):
    assert outcome(tokenize, text) == outcome(tokenize_reference, text), repr(text)


def test_scanners_match_reference_on_corpus():
    paths = sorted(CORPUS_ROOT.rglob("*.v"))
    assert len(paths) >= 90
    for path in paths:
        assert_same_strip(path.read_text())
        assert_same_tokens(preprocess_text(path.read_text(), str(path)))


def test_scanners_match_reference_on_ladder(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    ladder, inputs = importlib.import_module("ladder"), importlib.import_module("inputs")
    for seed in range(3):
        for shape, size in inputs.RUNGS:
            text = ladder.SHAPES[shape](size, seed).text
            assert_same_strip(text)
            assert_same_tokens(text)


@pytest.mark.parametrize("seed", range(3))
def test_scanners_match_reference_on_random_text(seed):
    rng = random.Random(f"scanners/{seed}")
    for _ in range(1000):
        text = "".join(rng.choices(FRAGMENTS, k=rng.randint(0, 24)))
        assert_same_strip(text)
        assert_same_tokens(text)
        stripped = outcome(strip_comments_reference, text)
        if isinstance(stripped, str):
            assert_same_tokens(stripped)
