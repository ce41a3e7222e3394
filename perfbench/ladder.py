"""Seeded gate-level netlist generator for the netlist_ladder workload.

Each shape is built from two-input primitive gates on scalar wires and
carries the kind counts its trimmed data-flow graph must have:

- ``parity(n)``: a balanced XOR tree over n inputs. Trimmed, it has
  n Input, n-1 Xor and 1 Output nodes (2n in all).
- ``adder(n)``: an n-bit ripple-carry adder. Trimmed, it has 2n+1 Input,
  n+1 Output, 2n Xor, 2n And and n Or nodes (8n+2 in all).
- ``chain(k)``: k inverters in series. Trimmed, it has k Not, 1 Input and
  1 Output nodes.

The seed only renames wires and shuffles declaration and gate order, so
the closed forms hold for every seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Netlist:
    name: str           # rung name, e.g. "parity_256"
    text: str           # Verilog source
    kinds: dict         # closed-form trimmed kind counts

    @property
    def nodes(self) -> int:
        return sum(self.kinds.values())


class _Namer:
    """Hands out seeded, collision-free wire names."""

    def __init__(self, rng: random.Random, count: int):
        ids = list(range(count))
        rng.shuffle(ids)
        self._ids = iter(ids)
        self._width = len(str(count))

    def __call__(self) -> str:
        return f"n{next(self._ids):0{self._width}d}"


def _module(name: str, inputs: list[str], outputs: list[str], wires: list[str],
            gates: list[str], rng: random.Random) -> str:
    rng.shuffle(gates)
    lines = [f"module {name}({', '.join(inputs + outputs)});"]
    lines += [f"  input {p};" for p in inputs]
    lines += [f"  output {p};" for p in outputs]
    lines += [f"  wire {w};" for w in wires]
    lines += [f"  {g}" for g in gates]
    lines.append("endmodule")
    return "\n".join(lines) + "\n"


def parity(n: int, seed: int) -> Netlist:
    if n < 2:
        raise ValueError("a parity tree needs at least two inputs")
    rng = random.Random(f"parity/{n}/{seed}")
    name = _Namer(rng, n)
    inputs = [f"x{i}" for i in range(n)]
    level = inputs[:]
    rng.shuffle(level)
    wires: list[str] = []
    gates: list[str] = []
    while len(level) > 1:
        nxt = []
        for i in range(0, len(level) - 1, 2):
            out = "y" if len(level) == 2 else name()
            if out != "y":
                wires.append(out)
            gates.append(f"xor g{len(gates)} ({out}, {level[i]}, {level[i + 1]});")
            nxt.append(out)
        if len(level) % 2:
            nxt.append(level[-1])
        level = nxt
    rng.shuffle(wires)
    text = _module(f"parity{n}", inputs, ["y"], wires, gates, rng)
    return Netlist(f"parity_{n}", text, {"Input": n, "Output": 1, "Xor": n - 1})


def adder(n: int, seed: int) -> Netlist:
    if n < 1:
        raise ValueError("an adder needs at least one bit")
    rng = random.Random(f"adder/{n}/{seed}")
    name = _Namer(rng, 4 * n)
    a = [f"a{i}" for i in range(n)]
    b = [f"b{i}" for i in range(n)]
    s = [f"s{i}" for i in range(n)]
    wires: list[str] = []
    gates: list[str] = []
    carry = "cin"
    for i in range(n):
        p, g, t = name(), name(), name()
        cout = "cout" if i == n - 1 else name()
        wires += [p, g, t] + ([] if cout == "cout" else [cout])
        gates += [
            f"xor u{5 * i} ({p}, {a[i]}, {b[i]});",
            f"xor u{5 * i + 1} ({s[i]}, {p}, {carry});",
            f"and u{5 * i + 2} ({g}, {a[i]}, {b[i]});",
            f"and u{5 * i + 3} ({t}, {p}, {carry});",
            f"or u{5 * i + 4} ({cout}, {g}, {t});",
        ]
        carry = cout
    rng.shuffle(wires)
    text = _module(f"rca{n}", a + b + ["cin"], s + ["cout"], wires, gates, rng)
    kinds = {"Input": 2 * n + 1, "Output": n + 1, "Xor": 2 * n, "And": 2 * n, "Or": n}
    return Netlist(f"adder_{n}", text, kinds)


def chain(k: int, seed: int) -> Netlist:
    if k < 1:
        raise ValueError("a chain needs at least one stage")
    rng = random.Random(f"chain/{k}/{seed}")
    name = _Namer(rng, k)
    wires: list[str] = []
    gates: list[str] = []
    prev = "x"
    for i in range(k):
        out = "y" if i == k - 1 else name()
        if out != "y":
            wires.append(out)
        gates.append(f"not v{i} ({out}, {prev});")
        prev = out
    rng.shuffle(wires)
    text = _module(f"chain{k}", ["x"], ["y"], wires, gates, rng)
    return Netlist(f"chain_{k}", text, {"Input": 1, "Output": 1, "Not": k})


SHAPES = {"parity": parity, "adder": adder, "chain": chain}
