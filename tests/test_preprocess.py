import pytest

from conftest import CORPUS_ROOT
from ipsim.errors import PipelineError, PreprocessError
from ipsim.frontend import SourceUnit, preprocess, preprocess_text, strip_comments
from ipsim.frontend.preprocess import _Preprocessor
from ipsim.pipeline import compile_text


def test_strip_comments_line_and_block():
    src = "a // line comment\nb /* block */ c\n/* multi\nline */d\n"
    out = strip_comments(src)
    assert "comment" not in out and "block" not in out
    assert "a" in out and "b" in out and "c" in out and "d" in out
    # Newlines survive so diagnostics keep their line numbers.
    assert out.count("\n") == src.count("\n")


def test_strip_comments_ignores_comment_tokens_in_strings():
    out = strip_comments('x = "//not a comment"; // real\n')
    assert '"//not a comment"' in out
    assert "real" not in out


def test_define_expansion():
    out = preprocess_text("`define WIDTH 8\nwire [`WIDTH-1:0] w;\n")
    assert "wire [8-1:0] w;" in out


def test_undef_then_use_is_error():
    with pytest.raises(PreprocessError):
        preprocess_text("`define A 1\n`undef A\nwire w = `A;\n")


def test_ifdef_else_branches():
    src = "`ifdef FAST\nfast\n`else\nslow\n`endif\n"
    assert "slow" in preprocess_text(src)
    assert "fast" not in preprocess_text(src)
    out = preprocess_text(src, defines={"FAST": "1"})
    assert "fast" in out and "slow" not in out


def test_ifndef():
    src = "`ifndef SEEN\nfirst\n`endif\n"
    assert "first" in preprocess_text(src)
    assert "first" not in preprocess_text(src, defines={"SEEN": "1"})


def test_nested_conditionals():
    src = "`define A 1\n`ifdef A\n`ifdef B\nab\n`else\na_only\n`endif\n`endif\n"
    out = preprocess_text(src)
    assert "a_only" in out and "ab" not in out


def test_timescale_stripped():
    out = preprocess_text("`timescale 1ns/1ps\nmodule m; endmodule\n")
    assert "timescale" not in out
    assert "module m" in out


def test_unterminated_ifdef_is_error():
    with pytest.raises(PreprocessError):
        preprocess_text("`ifdef X\nbody\n")


def test_unknown_directive_is_error():
    with pytest.raises(PreprocessError):
        preprocess_text("`pragma something\n")


def test_include_resolves_relative(tmp_path):
    (tmp_path / "inc.vh").write_text("`define FROM_INCLUDE 4\n")
    main = tmp_path / "top.v"
    main.write_text('`include "inc.vh"\nwire [`FROM_INCLUDE:0] w;\n')
    unit = SourceUnit(files=[(str(main), main.read_text())])
    out = preprocess(unit)[0][1]
    assert "wire [4:0] w;" in out


def test_circular_include_is_error(tmp_path):
    a = tmp_path / "a.vh"
    b = tmp_path / "b.vh"
    a.write_text('`include "b.vh"\n')
    b.write_text('`include "a.vh"\n')
    unit = SourceUnit(files=[(str(a), a.read_text())])
    with pytest.raises(PreprocessError):
        preprocess(unit)


def test_empty_unit_rejected():
    with pytest.raises(PreprocessError):
        SourceUnit(files=[])


@pytest.mark.parametrize("source", [
    "`timescale 1ns/1ps\n\n// adder\nmodule m(input a, output y);\n"
    "  wire t;\n  assign t = a;\n  assign y = t +;\nendmodule\n",
    "`define W \\\n  1\n`ifdef MISSING\n  junk here\n`endif\n"
    "module m(input a, output y);\n  assign y = a +;\nendmodule\n",
], ids=["blank-and-comment", "continuation-and-inactive-branch"])
def test_parse_errors_keep_source_line_numbers(source):
    with pytest.raises(PipelineError, match="t.v:7:17: expected an expression"):
        compile_text(source, "t.v")


def test_macro_depth_counts_nesting_not_uses():
    out = preprocess_text("`define ONE 1\nwire [" + "+".join(["`ONE"] * 40) + ":0] w;\n")
    assert "wire [" + "+".join(["1"] * 40) + ":0] w;" in out


@pytest.mark.parametrize("leaf", ["x", ""], ids=["text", "empty"])
def test_macro_fan_out_is_bounded(leaf):
    """`A<k> is 8 copies of `A<k-1>: 15 levels ask for 8**15 substitutions."""
    lines = [f"`define A0 {leaf}"] + [f"`define A{k} " + " ".join([f"`A{k - 1}"] * 8) for k in range(1, 16)]
    with pytest.raises(PreprocessError, match=r"^<text>:17:1: macro expansion beyond 1024 uses on one line$"):
        preprocess_text("\n".join(lines) + "\nwire w = `A15;\n")


def chain_of_macros(depth: int) -> str:
    """`M1 expands to `M2 and so on; `M<depth> expands to 1."""
    lines = [f"`define M{i} `M{i + 1}" for i in range(1, depth)] + [f"`define M{depth} 1"]
    return "\n".join(lines) + "\nwire w = `M1;\n"


def test_macro_chain_sixteen_deep_expands_and_seventeen_raises():
    assert "wire w = 1;" in preprocess_text(chain_of_macros(16))
    with pytest.raises(PreprocessError, match=r"^<text>:18:1: macro recursion beyond depth 16$"):
        preprocess_text(chain_of_macros(17))


def test_self_referential_macro_raises():
    with pytest.raises(PreprocessError, match=r"^<text>:2:1: macro recursion beyond depth 16$"):
        preprocess_text("`define LOOP (`LOOP + 1)\nwire w = `LOOP;\n")


def line_loop(text: str, path: str = "t.v") -> str:
    """What the line loop makes of text: the reference for the shortcut
    that a text with no backtick takes."""
    return "\n".join(_Preprocessor(SourceUnit(files=[(path, text)]))._process_lines(path, strip_comments(text), (path,)))


@pytest.mark.parametrize("text", [
    "", "\n", "  ", "a\n  \n\tb\n", "x\r\n \r\n\r\ny\r\n", "a\f\n\f\n \x0b \nb\n \f",
    "wire w; /* one\n  two */ \n  \n/* three\n*/ assign w = 1;\n", "// c\n  // d\n\n  x // e\n",
    "a\u3000\n\u3000\u00a0\n\x1c\nb", "s = \"a // b\";\n \t \n",
])
def test_shortcut_matches_line_loop(text):
    assert "`" not in text
    assert preprocess_text(text, "t.v") == line_loop(text)


def test_shortcut_matches_line_loop_on_corpus():
    paths = sorted(CORPUS_ROOT.rglob("*.v"))
    assert len(paths) == 92
    for path in paths:
        text = path.read_text()
        assert "`" not in text
        assert preprocess_text(text, "t.v") == line_loop(text), path
