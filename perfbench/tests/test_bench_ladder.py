"""The ladder generator's netlists and their closed-form kind counts."""

import pytest

import ladder
from ipsim.pipeline import compile_text


def gates(text: str, kind: str) -> int:
    return sum(1 for line in text.splitlines() if line.strip().startswith(kind + " "))


@pytest.mark.parametrize("n, xors", [(2, 1), (3, 2), (4, 3), (5, 4)])
def test_parity_counted_by_hand(n, xors):
    netlist = ladder.parity(n, seed=0)
    assert gates(netlist.text, "xor") == xors
    assert netlist.kinds == {"Input": n, "Output": 1, "Xor": n - 1}
    assert netlist.nodes == 2 * n
    assert compile_text(netlist.text).kind_counts() == netlist.kinds


@pytest.mark.parametrize("n, expect", [
    (1, {"Input": 3, "Output": 2, "Xor": 2, "And": 2, "Or": 1}),
    (2, {"Input": 5, "Output": 3, "Xor": 4, "And": 4, "Or": 2}),
])
def test_adder_counted_by_hand(n, expect):
    netlist = ladder.adder(n, seed=0)
    assert gates(netlist.text, "xor") == expect["Xor"]
    assert gates(netlist.text, "and") == expect["And"]
    assert gates(netlist.text, "or") == expect["Or"]
    assert netlist.kinds == expect
    assert netlist.nodes == 8 * n + 2
    assert compile_text(netlist.text).kind_counts() == expect


def test_chain_counted_by_hand():
    netlist = ladder.chain(3, seed=0)
    assert gates(netlist.text, "not") == 3
    assert netlist.kinds == {"Input": 1, "Output": 1, "Not": 3}
    assert compile_text(netlist.text).kind_counts() == netlist.kinds


@pytest.mark.parametrize("shape, size", [("parity", 9), ("adder", 5), ("chain", 7)])
def test_seed_changes_text_not_counts(shape, size):
    make = ladder.SHAPES[shape]
    assert make(size, 1).text == make(size, 1).text
    assert make(size, 1).text != make(size, 2).text
    for seed in range(4):
        netlist = make(size, seed)
        assert compile_text(netlist.text).kind_counts() == netlist.kinds
