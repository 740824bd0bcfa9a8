"""Netlist data model for logic gate networks.

A network is a layered DAG of 2-input Boolean gates. Every gate op is a
4-bit truth-table code: the output for inputs (a, b) is bit ``2*a + b`` of
the code, so AND = 8, OR = 14, XOR = 6, NAND = 7, constant-false = 0,
constant-true = 15, pass-a = 12, not-b = 5. The final layer is partitioned
into ``num_classes`` blocks of ``block_size`` gates each; block popcounts
are the class scores.

All indexing is 0-based, in files and in code. Gate ids are global,
numbered in layer order. A gate input is one int ref: ``r >= 0`` reads
gate r and ``r < 0`` reads input bit ``~r`` (file text ``g{r}`` and
``i{~r}``). Refs do not depend on ``input_width``, so an input bit out of
range stays an input bit that ``validate`` can name.

A gate is an exact ``(op, a, b)`` int tuple, never a tuple subclass or a
dataclass: the cyclic collector untracks exact tuples of ints, so the
thousands of gates of a parsed netlist add nothing to a full collection.

``Netlist.program`` is the compiled form that the CNF encoder and the
evaluator both walk. Only there are nodes numbered in one space: input
bit i is node i and gate g is node ``input_width + g``.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from functools import cached_property
from operator import neg, xor

from .errors import InvalidNetlistError, LocatedFormatError, NetlistFormatError

Gate = tuple[int, int, int]
"""One 2-input gate ``(op, a, b)``: an exact int triple, which the cyclic
collector untracks. Inputs are ordered, as op codes need not be commutative;
a ref ``r >= 0`` is gate r (global id) and ``r < 0`` is input bit ``~r``."""


@dataclass(frozen=True)
class Netlist:
    """Layered gate network with a class-block output structure.

    The last layer must hold exactly ``num_classes * block_size`` gates;
    output bit (j, k) is final-layer gate ``j * block_size + k``.
    """

    input_width: int
    layers: tuple[tuple[Gate, ...], ...]
    num_classes: int
    block_size: int

    @property
    def num_gates(self) -> int:
        return sum(len(layer) for layer in self.layers)

    @property
    def num_outputs(self) -> int:
        return self.num_classes * self.block_size

    @cached_property
    def program(self) -> tuple[tuple[int, int, int, int], ...]:
        """The gates in the cone of influence of the outputs, compiled once.

        Entries are (node, op, node a, node b) in gate-id order, which is
        topological; gates no output depends on are left out. The output
        bits are the last ``num_outputs`` nodes. Compiling is where an
        invalid netlist raises InvalidNetlistError, so every consumer of the
        program (encoder, evaluator, oracle) rejects one.
        """
        violations = validate(self)
        if violations:
            raise InvalidNetlistError(violations)
        gates = [g for layer in self.layers for g in layer]
        live = [False] * (len(gates) - self.num_outputs) + [True] * self.num_outputs
        for gid in reversed(range(len(gates))):
            if live[gid]:
                _, a, b = gates[gid]
                if a >= 0:
                    live[a] = True
                if b >= 0:
                    live[b] = True
        w = self.input_width
        return tuple(
            (w + gid, op, ~a if a < 0 else w + a, ~b if b < 0 else w + b)
            for gid, (op, a, b) in enumerate(gates)
            if live[gid]
        )


def validate(netlist: Netlist) -> tuple[str, ...]:
    """Check every structural invariant; return all violations with their
    location, an empty tuple for a valid netlist. A schema is checked
    against the netlist by ``schema_violations``."""
    v: list[str] = []
    if netlist.input_width < 1:
        v.append(f"input_width must be >= 1, got {netlist.input_width}")
    if netlist.num_classes < 2:
        v.append(f"num_classes must be >= 2, got {netlist.num_classes}")
    if netlist.block_size < 1:
        v.append(f"block_size must be >= 1, got {netlist.block_size}")
    if not netlist.layers:
        v.append("netlist has no layers")
    else:
        final = netlist.layers[-1]
        if len(final) != netlist.num_outputs:
            v.append(
                f"output count != C*L: final layer has {len(final)} gates, "
                f"expected {netlist.num_classes}*{netlist.block_size}"
                f"={netlist.num_outputs}"
            )
    w = netlist.input_width
    start = 0  # global id of the layer's first gate
    for li, layer in enumerate(netlist.layers):
        if not layer:
            v.append(f"layer {li}: empty layer")
        for gi, (op, a, b) in enumerate(layer):
            # Refs -w..-1 are the input bits, 0..start-1 the earlier gates.
            if 0 <= op <= 15 and -w <= a < start and -w <= b < start:
                continue
            where = f"layer {li} gate {gi}"
            if not 0 <= op <= 15:
                v.append(f"{where}: op code {op} outside 0..15")
            for side, ref in (("a", a), ("b", b)):
                if ref < 0 and ~ref >= w:
                    v.append(
                        f"{where} input {side}: input bit {~ref} outside 0..{w - 1}"
                    )
                elif ref >= start:
                    v.append(
                        f"{where} input {side}: forward/self reference "
                        f"to gate {ref} (layer starts at id {start})"
                    )
        start += len(layer)
    return tuple(v)


def schema_violations(netlist: Netlist, schema) -> list[str]:
    """The schema's own invariants, and its total bit width against the
    netlist's input width."""
    v = [message for _, message in schema.located_violations()]
    if schema.width != netlist.input_width:
        v.append(
            f"schema width {schema.width} != netlist input_width "
            f"{netlist.input_width}"
        )
    return v


# ---------------------------------------------------------------------------
# File format
#
#   lgn 1
#   input_width 4
#   num_classes 2
#   block_size 1
#   layer (8, i0, i1) (6, i2, i3)
#   layer (14, g0, g1) (9, g1, g0)
#
# Lines end at '\n' only; a '\r' before one is trailing whitespace. Blank and
# '#' comment lines are permitted when parsing; the canonical form has neither.
# ---------------------------------------------------------------------------

# A whole layer line, its gates in group 1. A match that stops short of the
# end of the line stops at the first token that is not a gate. Nothing is
# captured inside the repeat, which keeps the match cheap; in the matched
# text each "(" starts a gate, so _OP_RE finds every op code.
_LAYER_RE = re.compile(r"\s*layer((?:\s*\(\s*\d+\s*,\s*[ig]\d+\s*,\s*[ig]\d+\s*\))*)\s*")
_OP_RE = re.compile(r"\(\s*(\d+)")
# Matched gate text holds only gates and whitespace. Blanking "(" and ref
# kinds and turning ")" into "," leaves three comma-ended numbers per gate.
# Keeping only "(", "i" and "g" leaves one kind byte per number: 1 for an
# input ref, else 0.
_NUMBERS = str.maketrans("()ig", " ,  ")
_KINDS = bytes.maketrans(b"(ig", b"\x00\x01\x00")
_NOT_KINDS = bytes(c for c in range(256) if c not in b"(ig")
_MAGIC = "lgn 1"


def read_int(text: str) -> int:
    """``int(text)`` for the digits ``_LAYER_RE`` reads, with an optional
    minus and surrounding whitespace. Beyond those, int() takes only a plus
    sign and underscores, so ``+1`` and ``1_0`` raise ValueError here."""
    if "_" in text or "+" in text:
        raise ValueError(f"invalid integer {text!r}")
    return int(text)


def read_float(text: str) -> float:
    """``float(text)`` without the ``_`` digit separators float() takes."""
    if "_" in text:
        raise ValueError(f"invalid number {text!r}")
    return float(text)


def read_text(data: bytes | str, error: type[LocatedFormatError]) -> str:
    """An input file's text: UTF-8 after an optional byte order mark. A byte
    that does not decode is an ``error`` on its line."""
    try:
        return data if isinstance(data, str) else data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:  # exc.object: the bytes after the mark
        raise error(f"byte 0x{exc.object[exc.start]:02x} is not UTF-8 ({exc.reason})",
                    line=exc.object.count(b"\n", 0, exc.start) + 1) from None


def read_lines(data: bytes | str, error: type[LocatedFormatError]) -> list[tuple[int, str]]:
    r"""``(line number, line)`` per record line of ``read_text(data, error)``:
    lines end at ``\n`` only and count from 1; blank and ``#`` lines are dropped."""
    return [(i, line) for i, line in enumerate(read_text(data, error).split("\n"), 1)
            if line.strip() and not line.lstrip().startswith("#")]


def _ref_text(ref: int) -> str:
    return f"g{ref}" if ref >= 0 else f"i{~ref}"


def serialize_netlist(netlist: Netlist) -> bytes:
    """Canonical text form; parse(serialize(n)) == n for valid netlists."""
    lines = [
        _MAGIC,
        f"input_width {netlist.input_width}",
        f"num_classes {netlist.num_classes}",
        f"block_size {netlist.block_size}",
    ]
    for layer in netlist.layers:
        gates = " ".join(
            f"({op}, {_ref_text(a)}, {_ref_text(b)})" for op, a, b in layer
        )
        lines.append(f"layer {gates}")
    return ("\n".join(lines) + "\n").encode("ascii")


def _parse_header_int(lines, idx: int, key: str) -> int:
    if idx >= len(lines):
        raise NetlistFormatError(f"truncated file: missing '{key}' line", line=idx + 1)
    lineno, text = lines[idx]
    parts = text.split()
    if len(parts) != 2 or parts[0] != key:
        raise NetlistFormatError(
            f"expected '{key} <int>', got {text.strip()!r}", line=lineno
        )
    try:
        return read_int(parts[1])
    except ValueError:
        raise NetlistFormatError(f"non-integer value for {key}: {parts[1]!r}", line=lineno)


def _parse_layer_line(lineno: int, line: str) -> tuple[Gate, ...]:
    """The gates of one raw file line; error columns count from its start."""
    whole = _LAYER_RE.match(line)
    if whole is None:
        raise NetlistFormatError(
            f"expected 'layer ...', got {line.strip()!r}", line=lineno
        )
    end = whole.end()
    body = whole[1]
    numbers = body.translate(_NUMBERS)[:-1]
    try:  # json reads in C; int() also takes "08", non-ASCII digits and spaces
        nums = json.loads(f"[{numbers}]")
    except ValueError:
        nums = list(map(int, numbers.split(",")))
    if "i" in body:  # n ^ -kind: the number n of an input ref becomes ~n
        nums = list(map(xor, nums, map(neg, body.encode().translate(_KINDS, _NOT_KINDS))))
    gates = tuple(zip(nums[0::3], nums[1::3], nums[2::3]))
    if gates and max(nums[0::3]) > 15:
        bad = next(m for m in _OP_RE.finditer(line, 0, end) if int(m[1]) > 15)
        raise NetlistFormatError(
            f"op code {int(bad[1])} outside 0..15", line=lineno, col=bad.start(1) + 1
        )
    if end < len(line):
        raise NetlistFormatError(
            f"malformed gate near {line.rstrip()[end:end + 20]!r}",
            line=lineno,
            col=end + 1,
        )
    if not gates:
        raise NetlistFormatError("layer line with no gates", line=lineno)
    return gates


def parse_netlist(data: bytes | str) -> Netlist:
    """Parse the netlist file format.

    Syntax problems raise NetlistFormatError with position info. Parsing
    does not check structure: ``validate`` lists the violations, and
    compiling (``Netlist.program``) raises InvalidNetlistError on them.
    """
    lines = read_lines(data, NetlistFormatError)
    if not lines:
        raise NetlistFormatError("empty netlist file", line=1)
    if lines[0][1].strip() != _MAGIC:
        raise NetlistFormatError(
            f"bad magic line, expected {_MAGIC!r}", line=lines[0][0]
        )
    input_width = _parse_header_int(lines, 1, "input_width")
    num_classes = _parse_header_int(lines, 2, "num_classes")
    block_size = _parse_header_int(lines, 3, "block_size")
    layers = [_parse_layer_line(lineno, line) for lineno, line in lines[4:]]
    if not layers:
        raise NetlistFormatError("truncated file: no layer lines", line=lines[-1][0])
    return Netlist(input_width, tuple(layers), num_classes, block_size)


def random_netlist(
    input_width: int,
    layer_sizes: list[int] | tuple[int, ...],
    num_classes: int,
    block_size: int,
    seed: int,
) -> Netlist:
    """Generate a random netlist: ops uniform over all 16 codes, each gate
    input drawn uniformly from the immediately preceding layer (layer 0 from
    the input bits). Deterministic for a fixed seed. Arguments that would
    give an invalid netlist raise ValueError, so the output needs no check."""
    if input_width < 1:
        raise ValueError(f"input_width must be >= 1, got {input_width}")
    if num_classes < 2 or block_size < 1:
        raise ValueError(f"need C >= 2 and L >= 1, got C={num_classes}, L={block_size}")
    if not layer_sizes or any(s < 1 for s in layer_sizes):
        raise ValueError(f"layer sizes must be positive, got {layer_sizes}")
    if layer_sizes[-1] != num_classes * block_size:
        raise ValueError(
            f"last layer size {layer_sizes[-1]} != C*L = {num_classes * block_size}"
        )
    rng = random.Random(seed)
    layers: list[tuple[Gate, ...]] = []
    lo, n = None, input_width  # lo is None while the previous layer is the inputs

    def draw() -> int:
        k = rng.randrange(n)
        return ~k if lo is None else lo + k

    for size in layer_sizes:
        layers.append(
            tuple((rng.randrange(16), draw(), draw()) for _ in range(size))
        )
        lo, n = (0 if lo is None else lo + n), size
    return Netlist(input_width, tuple(layers), num_classes, block_size)
