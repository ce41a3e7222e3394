"""The plain-netlist reader: where it applies, and that it gives what the
parser and the elaborator give."""

import hashlib
import importlib
import random
import re

import pytest

from conftest import CORPUS_ROOT
from ipsim import dfg, pipeline
from ipsim.dfg import build_dfg, serialize
from ipsim.encode import encode
from ipsim.errors import PipelineError, UnknownModule
from ipsim.frontend import SourceUnit, flatten_hierarchy, nodes as n, parse_unit, preprocess, preprocess_text
from ipsim.frontend.netlist import read_netlist
from ipsim.model import Hyper, embed, init_params
from ipsim.pipeline import compile_design, compile_text
from test_scanners import PERFBENCH

PLAIN_CORPUS = {f"fa/netlist/{stem}.v" for stem in ("fa_gates", "fa_gates_v0", "fa_gates_v1", "fa_nand", "fa_nand_v0")}


def ladder_texts(monkeypatch, chain: bool = True) -> list[str]:
    """One text per file of a netlist_ladder run: every rung, the chain
    unless told otherwise, in each of its variants."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    ladder, inputs = importlib.import_module("ladder"), importlib.import_module("inputs")
    return [ladder.SHAPES[shape](size, variant).text
            for shape, size in inputs.RUNGS if chain or shape != "chain"
            for variant in range(inputs.LADDER_VARIANTS)]


def shape(expr: n.Expr):
    """An expression without its locations."""
    if isinstance(expr, n.Ident):
        return expr.name
    return (type(expr).__name__, expr.op, *map(shape, n.children(expr)))


def parsed(text: str):
    return flatten_hierarchy(parse_unit([("<text>", text)]))


def assert_same_flat(read, elaborated):
    """The same module, the reader's gates with names where the
    elaborator's have identifiers, and no locations."""
    assert (read.name, read.ports, read.always_blocks) == (elaborated.name, elaborated.ports, [])
    assert list(read.widths.items()) == list(elaborated.widths.items())
    assert all(loc is None and all(type(t) is str for t in terms) for _, terms, loc in read.assigns)
    assert [(gate, terms) for gate, terms, _ in read.assigns] == \
        [(gate, [shape(t) for t in terms]) for gate, terms, _ in elaborated.assigns]


def test_reader_takes_every_ladder_netlist(monkeypatch):
    texts = ladder_texts(monkeypatch)
    assert len(texts) == 32
    for text in texts:
        read = read_netlist(preprocess_text(text))
        assert read is not None
        assert_same_flat(read, parsed(text))


def test_reader_takes_the_plain_corpus_netlists_only():
    taken = set()
    paths = sorted(CORPUS_ROOT.rglob("*.v"))
    for path in paths:
        text = preprocess_text(path.read_text())
        read = read_netlist(text)
        if read is not None:
            taken.add(path.relative_to(CORPUS_ROOT).as_posix())
            assert_same_flat(read, parsed(text))
    assert len(paths) == 92 and taken == PLAIN_CORPUS


def test_netlist_compiles_skip_the_parser_and_the_elaborator(monkeypatch, tmp_path):
    texts = ladder_texts(monkeypatch)[:4]
    expected = [serialize(compile_text(text)) for text in texts]

    def forbidden(*args):
        raise AssertionError("a plain netlist reached the parser or the elaborator")

    monkeypatch.setattr(pipeline, "parse_unit", forbidden)
    monkeypatch.setattr(pipeline, "flatten_hierarchy", forbidden)
    for i, (text, graph) in enumerate(zip(texts, expected)):
        path = tmp_path / f"n{i}.v"
        path.write_text(text)
        assert serialize(compile_design([path])) == graph
        assert serialize(compile_text(text, top=read_netlist(text).name)) == graph


def test_netlist_compiles_build_no_expression_and_no_node(monkeypatch):
    """A gate reaches the graph with no AST expression, no continuous
    assignment and no dfg.Node made for it."""
    texts = ladder_texts(monkeypatch, chain=False)
    assert len(texts) == 28
    hyper = Hyper()
    params = init_params(hyper, 0)

    def forbid(*_args, **_kwargs):
        raise AssertionError("a netlist compile built an AST node or a dfg.Node")

    for cls in (n.Ident, n.Binary, n.Unary, n.ContinuousAssign):
        monkeypatch.setattr(cls, "__init__", forbid)
    monkeypatch.setattr(dfg.Node, "__new__", forbid)
    for text in texts:
        graph = compile_text(text)
        assert embed(params, encode(graph), hyper).shape == (hyper.hidden_dim,)
    # The patches do fire: on the parser's path, and on the nodes view.
    with pytest.raises(AssertionError, match="built an AST node"):
        compile_text("module m(input a, output y); assign y = ~a; endmodule")
    with pytest.raises(AssertionError, match="dfg.Node"):
        graph.nodes


def test_a_top_other_than_the_netlist_module_goes_to_the_elaborator():
    with pytest.raises(PipelineError) as info:
        compile_text("module m(input a, output y); not (y, a); endmodule", top="other")
    assert info.value.stage == "elaborate" and isinstance(info.value.cause, UnknownModule)


# --- differential property test ----------------------------------------------

BLANKS = [" ", " ", " ", "  ", "\n", "\t", "\r\n", "\f", " \t"]
# Spellings of a valid name: plain, with $ inside, led by _ or by a keyword.
DECOR = ["{}", "{}", "{}", "{}", "{}$x", "_{}", "wire_{}", "and{}", "module{}", "end{}"]
RESERVED = ["wire", "input", "and", "module", "initial", "tri", "reg", "endmodule", "assign", "bufif0", "not"]
# Constructs outside the plain form, each inserted as one body statement.
FOREIGN = [";", "wire [1:0] v;", "reg r;", "assign q = 1'b0;", "wire x = y;", "and (y, a[0], b);",
           "and g0 (y, a, b), g1 (z, a, b);", "input wire k;", "parameter P = 1;", "and (y, 1'b0, a);",
           "nand\\x (y, a, b);", "and$ (y, a, b);", "and #1 (y, a, b);", "inout [0:0] k;",
           "and wire (y, a, b);", "xor initial (y, a, b);"]


def plain_netlist(rng: random.Random) -> tuple[str, list[str], list[str]]:
    """A plain netlist that compiles, its body statements and its names.
    Every output and wire has one driver; a gate may drive a net nothing
    declares, and may read any net, its own output too."""
    names = iter(rng.choice(DECOR).format(f"n{i}") for i in rng.sample(range(100), 20))
    ins = [next(names) for _ in range(rng.randint(1, 4))]
    outs = [next(names) for _ in range(rng.randint(1, 3))]
    inouts = [next(names) for _ in range(rng.random() < 0.1)]
    wires = [next(names) for _ in range(rng.randint(0, 4))]
    implicit = [next(names) for _ in range(rng.randint(0, 2))]
    ports = [("input", p) for p in ins] + [("output", p) for p in outs] + [("inout", p) for p in inouts]
    b = lambda: rng.choice(BLANKS)  # noqa: E731
    body = [f"wire{b()}{', '.join(wires[i:i + 2])};" for i in range(0, len(wires), 2)]
    style = rng.random()
    if style < 0.45:  # ANSI, a bare name keeping the direction before it
        items, last = [], None
        for d, p in ports:
            items.append(p if d == last and rng.random() < 0.5 else f"{d}{b()}{p}")
            last = d
        header = f"({b()}{(',' + b()).join(items)}{b()})"
    else:  # names, or none, given directions in the body
        header = f"({', '.join(p for _, p in ports)})" if style < 0.9 else rng.choice(["", "()", f"({b()})"])
        body += [f"{d}{b()}{p};" for d, p in ports]
    targets = outs + wires + implicit
    rng.shuffle(targets)
    reads = ins + inouts + targets
    while targets:
        gate = rng.choice(list(n.GATES))
        if n.GATES[gate][0] is None:
            terms = [targets.pop() for _ in range(min(len(targets), rng.choice([1, 1, 2])))] + [rng.choice(reads)]
        else:
            terms = [targets.pop()] + [rng.choice(reads) for _ in range(rng.choice([2, 2, 3, 4]))]
        label = f"g{rng.randrange(99)}{b()}" if rng.random() < 0.6 else ""
        body.append(f"{gate}{b()}{label}({b()}{(',' + b()).join(terms)}{b()});")
    rng.shuffle(body)
    return header, body, ins + outs + inouts + wires + implicit


def near_miss(rng: random.Random, header: str, body: list[str], names: list[str]) -> str:
    """Module text from a plain netlist's parts, one change made to it
    about half the time: a name, a blank, a statement, the header or the
    text around the module. The parser or the builder refuses many."""
    change = rng.randrange(22)
    name = rng.choice(names)
    if change == 0:  # a second driver
        body.append(f"buf ({name}, {rng.choice(names)});")
    elif change == 1:  # an undriven output, or a port with no direction
        body.append(f"output {name}_u;")
        header = header[:-1] + f", {name}_u)" if header.endswith(")") else header
    elif change == 2:  # a redeclared port
        body.append(f"{rng.choice(['input', 'output'])} {name};")
    elif change == 3:
        body.insert(rng.randrange(len(body) + 1), rng.choice(FOREIGN))
    elif change == 4:  # too few terminals
        body.append(rng.choice(["not (y);", "and (y, a);", "buf g ( y );", "xor (y, a);"]))
    elif change == 5:  # a port named twice in the header
        header = header[:-1] + f", {name})" if header.endswith(")") else header
    elif change == 11:  # a direction after the header's first port, which a list of names refuses
        header = header[:-1] + f", output {name}_v)" if header.endswith(")") else header
        body.append(f"buf ({name}_v, {name});")
    text = f"module {rng.choice(DECOR).format('m')} {header};\n" + rng.choice(BLANKS).join(body) + "\nendmodule\n"
    if change == 6:  # a name the parser reads otherwise
        word = rng.choice(RESERVED + ["$x", chr(92) + "esc "])
        text = re.sub(rf"(?<![\w$]){re.escape(name)}(?![\w$])", lambda _: word, text)
    elif change == 7:
        text = text.replace(" ", chr(11), 1)  # a vertical tab
    elif change == 8:
        text += rng.choice(["module extra(input a, output y); buf (y, a); endmodule\n", "x", ";"])
    elif change == 9:
        text = text.replace("endmodule", "", 1)
    elif change == 10:
        text = f"// comment\n{text}/* end */\n"
    return text


def generated(seed: int, count: int) -> list[str]:
    rng = random.Random(f"netlist/{seed}")
    return [near_miss(rng, *plain_netlist(rng)) for _ in range(count)]


def reference(text: str, trimmed: bool):
    """What compile_text gave before the reader: every stage run."""
    stage, unit = pipeline._stage, SourceUnit(files=[("<text>", text)])
    try:
        ast = stage("parse", "<text>", parse_unit, stage("preprocess", "<text>", preprocess, unit))
        flat = stage("elaborate", "<text>", flatten_hierarchy, ast, None)
        return serialize(stage("dfg", "<text>", build_dfg, flat, trimmed))
    except PipelineError as exc:
        return exc.stage, type(exc.cause), str(exc)


def outcome(text: str, trimmed: bool):
    try:
        return serialize(compile_text(text, trimmed=trimmed))
    except PipelineError as exc:
        return exc.stage, type(exc.cause), str(exc)


# SHA-256 over each seed's outcomes, trimmed then untrimmed per text, as
# written before the builder lowered gates itself, when both paths ran
# the elaborator's lowering. The comparison with the parser's path
# cannot see a drift that both paths share; this can.
GENERATED_SHA256 = {0: "cc287d1f9e6d87a0f0ab553cf661b46ada1751e91eedca04351fd625cbfe90f8",
                    1: "64051aafa77376a754d01c2bc2e976d1267bdd1f405fd08aba7296bfaa6ade1b"}


@pytest.mark.parametrize("seed", [0, 1])
def test_reader_matches_the_parser_on_generated_netlists(seed):
    texts = generated(seed, 1000)
    digest = hashlib.sha256()
    for text in texts:
        for trimmed in (True, False):
            result = outcome(text, trimmed)
            assert result == reference(text, trimmed), text
            if not isinstance(result, str):
                stage, cause, message = result
                result = f"{stage}\t{cause.__name__}\t{message}"
            digest.update(result.encode() + b"\n")
    assert digest.hexdigest() == GENERATED_SHA256[seed]
    taken = sum(read_netlist(preprocess_text(text)) is not None for text in texts)
    assert taken >= 0.4 * len(texts)
