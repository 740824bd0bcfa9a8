"""Netlist data model for logic gate networks.

A network is a layered DAG of 2-input Boolean gates. Every gate op is a
4-bit truth-table code: the output for inputs (a, b) is bit ``2*a + b`` of
the code, so AND = 8, OR = 14, XOR = 6, NAND = 7, constant-false = 0,
constant-true = 15, pass-a = 12, not-b = 5. The final layer is partitioned
into ``num_classes`` blocks of ``block_size`` gates each; block popcounts
are the class scores.

All indexing is 0-based, in files and in code. Gate ids are global,
numbered in layer order.

``Netlist.program`` is the compiled form that the CNF encoder and the
evaluator both walk. It numbers nodes in one space: input bit i is node i
and gate g is node ``input_width + g``.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from functools import cached_property

from .errors import InvalidNetlistError, NetlistFormatError

INPUT = "in"
GATE = "gate"

# Common op codes, for readability at call sites.
OP_FALSE = 0
OP_NOR = 1
OP_NOT_A = 3
OP_NOT_B = 5
OP_XOR = 6
OP_NAND = 7
OP_AND = 8
OP_XNOR = 9
OP_PASS_B = 10
OP_PASS_A = 12
OP_OR = 14
OP_TRUE = 15


def gate_truth(op: int, a: int, b: int) -> int:
    """Output of truth-table code ``op`` on bits (a, b)."""
    return (op >> (2 * a + b)) & 1


@dataclass(frozen=True)
class NodeRef:
    """Reference to a gate input: an input bit or an earlier gate (global id)."""

    kind: str  # INPUT or GATE
    index: int

    def __str__(self) -> str:
        return ("i" if self.kind == INPUT else "g") + str(self.index)


def input_ref(index: int) -> NodeRef:
    return NodeRef(INPUT, index)


def gate_ref(index: int) -> NodeRef:
    return NodeRef(GATE, index)


@dataclass(frozen=True)
class Gate:
    """One 2-input gate. Inputs are ordered: op codes need not be commutative."""

    op: int
    in_a: NodeRef
    in_b: NodeRef


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
        bits are the last ``num_outputs`` nodes. Compiling runs
        ``check_valid`` first, so every consumer of the program (encoder,
        evaluator, oracle) raises InvalidNetlistError on an invalid netlist.
        """
        check_valid(self)
        gates = [g for layer in self.layers for g in layer]
        first_output = len(gates) - self.num_outputs
        live = [gid >= first_output for gid in range(len(gates))]
        for gid in reversed(range(len(gates))):
            if live[gid]:
                for ref in (gates[gid].in_a, gates[gid].in_b):
                    if ref.kind == GATE:
                        live[ref.index] = True
        w = self.input_width

        def node(ref: NodeRef) -> int:
            return ref.index if ref.kind == INPUT else w + ref.index

        return tuple(
            (w + gid, g.op, node(g.in_a), node(g.in_b))
            for gid, g in enumerate(gates)
            if live[gid]
        )

    def layer_starts(self) -> list[int]:
        """Global gate id of the first gate in each layer."""
        starts, acc = [], 0
        for layer in self.layers:
            starts.append(acc)
            acc += len(layer)
        return starts


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def validate(netlist: Netlist, schema=None) -> ValidationReport:
    """Check every structural invariant; report all violations with location.

    ``schema`` (a FeatureSchema) is optional; when given, its total bit width
    must equal the netlist's input width.
    """
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
    starts = netlist.layer_starts()
    for li, layer in enumerate(netlist.layers):
        if not layer:
            v.append(f"layer {li}: empty layer")
        for gi, gate in enumerate(layer):
            where = f"layer {li} gate {gi}"
            if not 0 <= gate.op <= 15:
                v.append(f"{where}: op code {gate.op} outside 0..15")
            for side, ref in (("a", gate.in_a), ("b", gate.in_b)):
                if ref.kind == INPUT:
                    if not 0 <= ref.index < netlist.input_width:
                        v.append(
                            f"{where} input {side}: input bit {ref.index} "
                            f"outside 0..{netlist.input_width - 1}"
                        )
                elif ref.kind == GATE:
                    if not 0 <= ref.index < starts[li]:
                        v.append(
                            f"{where} input {side}: forward/self reference "
                            f"to gate {ref.index} (layer starts at id {starts[li]})"
                        )
                else:
                    v.append(f"{where} input {side}: unknown ref kind {ref.kind!r}")
    if schema is not None:
        v.extend(schema_violations(netlist, schema))
    return ValidationReport(tuple(v))


def schema_violations(netlist: Netlist, schema) -> list[str]:
    """The schema half of validate(): the schema's own invariants, and its
    total bit width against the netlist's input width."""
    v = schema.invariant_violations()
    if schema.width != netlist.input_width:
        v.append(
            f"schema width {schema.width} != netlist input_width "
            f"{netlist.input_width}"
        )
    return v


def check_valid(netlist: Netlist, schema=None) -> None:
    """Raise InvalidNetlistError unless validate() is clean."""
    report = validate(netlist, schema)
    if not report.ok:
        raise InvalidNetlistError(report.violations)


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
# Blank lines and '#' comments are permitted when parsing; the canonical
# serialized form contains neither.
# ---------------------------------------------------------------------------

_GATE_RE = re.compile(r"\(\s*(\d+)\s*,\s*([ig])(\d+)\s*,\s*([ig])(\d+)\s*\)")
_MAGIC = "lgn 1"


def serialize_netlist(netlist: Netlist) -> bytes:
    """Canonical text form; parse(serialize(n)) == n for valid netlists."""
    lines = [
        _MAGIC,
        f"input_width {netlist.input_width}",
        f"num_classes {netlist.num_classes}",
        f"block_size {netlist.block_size}",
    ]
    for layer in netlist.layers:
        gates = " ".join(f"({g.op}, {g.in_a}, {g.in_b})" for g in layer)
        lines.append(f"layer {gates}")
    return ("\n".join(lines) + "\n").encode("ascii")


def _parse_header_int(lines, idx: int, key: str) -> int:
    if idx >= len(lines):
        raise NetlistFormatError(f"truncated file: missing '{key}' line", line=idx + 1)
    lineno, text = lines[idx]
    parts = text.split()
    if len(parts) != 2 or parts[0] != key:
        raise NetlistFormatError(f"expected '{key} <int>', got {text!r}", line=lineno)
    try:
        return int(parts[1])
    except ValueError:
        raise NetlistFormatError(f"non-integer value for {key}: {parts[1]!r}", line=lineno)


def _parse_layer_line(lineno: int, text: str) -> tuple[Gate, ...]:
    body = text[len("layer"):].strip()
    gates: list[Gate] = []
    pos = 0
    while pos < len(body):
        m = _GATE_RE.match(body, pos)
        if m is None:
            raise NetlistFormatError(
                f"malformed gate near {body[pos:pos + 20]!r}", line=lineno, col=pos + 1
            )
        op = int(m.group(1))
        if op > 15:
            raise NetlistFormatError(
                f"op code {op} outside 0..15", line=lineno, col=m.start(1) + 1
            )
        ref_a = NodeRef(INPUT if m.group(2) == "i" else GATE, int(m.group(3)))
        ref_b = NodeRef(INPUT if m.group(4) == "i" else GATE, int(m.group(5)))
        gates.append(Gate(op, ref_a, ref_b))
        pos = m.end()
        while pos < len(body) and body[pos].isspace():
            pos += 1
    if not gates:
        raise NetlistFormatError("layer line with no gates", line=lineno)
    return tuple(gates)


def parse_netlist(data: bytes | str, run_validation: bool = True) -> Netlist:
    """Parse the netlist file format.

    Syntax problems raise NetlistFormatError with position info. With
    ``run_validation`` (the default) the netlist is compiled before it is
    returned, so structural violations raise InvalidNetlistError here and
    the checked program is cached for the encoder and the evaluator.
    """
    text = data.decode("utf-8") if isinstance(data, bytes) else data
    lines = [
        (i + 1, ln.strip())
        for i, ln in enumerate(text.splitlines())
        if ln.strip() and not ln.lstrip().startswith("#")
    ]
    if not lines:
        raise NetlistFormatError("empty netlist file", line=1)
    if lines[0][1] != _MAGIC:
        raise NetlistFormatError(
            f"bad magic line, expected {_MAGIC!r}", line=lines[0][0]
        )
    input_width = _parse_header_int(lines, 1, "input_width")
    num_classes = _parse_header_int(lines, 2, "num_classes")
    block_size = _parse_header_int(lines, 3, "block_size")
    layers: list[tuple[Gate, ...]] = []
    for lineno, textline in lines[4:]:
        if not textline.startswith("layer"):
            raise NetlistFormatError(
                f"expected 'layer ...', got {textline!r}", line=lineno
            )
        layers.append(_parse_layer_line(lineno, textline))
    if not layers:
        raise NetlistFormatError("truncated file: no layer lines", line=lines[-1][0])
    netlist = Netlist(input_width, tuple(layers), num_classes, block_size)
    if run_validation:
        netlist.program  # compiling checks the netlist (and caches the program)
    return netlist


def random_netlist(
    input_width: int,
    layer_sizes: list[int] | tuple[int, ...],
    num_classes: int,
    block_size: int,
    seed: int,
) -> Netlist:
    """Generate a random netlist: ops uniform over all 16 codes, each gate
    input drawn uniformly from the immediately preceding layer (layer 0 from
    the input bits). Deterministic for a fixed seed.
    """
    if input_width < 1:
        raise ValueError(f"input_width must be >= 1, got {input_width}")
    if not layer_sizes or any(s < 1 for s in layer_sizes):
        raise ValueError(f"layer sizes must be positive, got {layer_sizes}")
    if layer_sizes[-1] != num_classes * block_size:
        raise ValueError(
            f"last layer size {layer_sizes[-1]} != C*L = {num_classes * block_size}"
        )
    rng = random.Random(seed)
    layers: list[tuple[Gate, ...]] = []
    prev_start = 0
    prev_size = input_width
    prev_kind = INPUT
    for size in layer_sizes:
        gates = tuple(
            Gate(
                rng.randrange(16),
                NodeRef(prev_kind, prev_start + rng.randrange(prev_size)),
                NodeRef(prev_kind, prev_start + rng.randrange(prev_size)),
            )
            for _ in range(size)
        )
        layers.append(gates)
        prev_start = prev_start + prev_size if prev_kind == GATE else 0
        prev_kind = GATE
        prev_size = size
    net = Netlist(input_width, tuple(layers), num_classes, block_size)
    check_valid(net)
    return net
