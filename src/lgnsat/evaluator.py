"""Concrete network evaluation: predictions, confidences, and the
similarity predicate.

Evaluation is bit-sliced: the netlist's compiled program runs once over a
whole batch of rows, on Python ints whose bit r belongs to row r. A batch
comes in as these words, one per input bit: ``ingest`` builds them from a
CSV a feature column at a time, and one row's bits (each 0 or 1) are
already its words, so ``predict`` and ``forward`` pass them through as a
one-row batch. Class scores come from carry-save bit-plane counters over
each block's output words, about one full adder per word, read back by
bytes operations, so a batch costs one pass over the live gates plus work
linear in the row count, with no Python loop over set bits. ``accuracy``
evaluates all its rows in one batch.

Confidence is the winner block's popcount over the total output popcount,
kept as an exact Fraction throughout: float comparison would corrupt
boundary cases such as 150/151 vs 0.99. When the total is zero the
confidence is defined as the degenerate minimum 1/C and the winner as
class 0; reports flag this convention.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import DataError
from .netlist import Netlist
from .schema import FeatureSchema, NumericFeature

HOLDS = "holds"
COUNTEREXAMPLE = "counterexample"
UNKNOWN = "unknown"

FAIR = "fair"
ROBUST = "robust"


@dataclass(frozen=True)
class InputRecord:
    """One well-formed input with its concrete evaluation: per-feature
    values, input bits, predicted class and exact confidence."""

    values: tuple[int, ...]
    bits: tuple[int, ...]
    cls: int
    conf: Fraction


@dataclass(frozen=True)
class Witness:
    """Decoded counterexample pair (x, x'), each with its evaluation."""

    x: InputRecord
    x_prime: InputRecord


@dataclass(frozen=True)
class VerdictStats:
    wall_time: float = 0.0
    num_clauses: int = 0
    num_vars: int = 0


@dataclass(frozen=True)
class Verdict:
    """The result of one query at threshold ``kappa``: its status, the
    rechecked pair when it is a counterexample, and what the query cost.
    The driver's searches and sweeps keep one per probe."""

    status: str  # HOLDS / COUNTEREXAMPLE / UNKNOWN
    kappa: Fraction
    witness: Witness | None = None
    stats: VerdictStats = field(default_factory=VerdictStats)

    def __post_init__(self):
        assert (self.witness is not None) == (self.status == COUNTEREXAMPLE)


# Bit-sliced gate ops, indexed by truth-table code: a and b hold one bit per
# row, m has a bit set for every row, and a complement is an XOR with m.
_OPS = (
    lambda a, b, m: 0,
    lambda a, b, m: (a | b) ^ m,
    lambda a, b, m: b & ~a,
    lambda a, b, m: a ^ m,
    lambda a, b, m: a & ~b,
    lambda a, b, m: b ^ m,
    lambda a, b, m: a ^ b,
    lambda a, b, m: (a & b) ^ m,
    lambda a, b, m: a & b,
    lambda a, b, m: a ^ b ^ m,
    lambda a, b, m: b,
    lambda a, b, m: (a & ~b) ^ m,
    lambda a, b, m: a,
    lambda a, b, m: (b & ~a) ^ m,
    lambda a, b, m: a | b,
    lambda a, b, m: m,
)

# A binary digit -> the byte of its value: b"0" -> 0, b"1" -> 1.
_DIGIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


def _output_words(netlist: Netlist, columns, num_rows: int) -> list[int]:
    """Run the compiled program over ``num_rows`` rows at once, given one
    word per input bit; returns one word per output bit, in block order.
    Bit r of every word belongs to row r."""
    if len(columns) != netlist.input_width:
        raise DataError(
            f"input width mismatch: got {len(columns)}, expected {netlist.input_width}"
        )
    mask = (1 << num_rows) - 1
    values = [*columns, *[None] * netlist.num_gates]
    for node, op, a, b in netlist.program:
        values[node] = _OPS[op](values[a], values[b], mask)
    return values[len(values) - netlist.num_outputs:]


def _popcounts(words, num_rows: int) -> list[int]:
    """Per-row count of set bits over ``words``: a carry-save add into bit
    planes, then their weighted sum as one int of ``lane``-byte
    little-endian lanes, row r's from byte ``r * lane``, wide enough that no
    count carries into the next. At each weight a full adder takes the words
    three at a time: their sum stays at that weight and their carry moves up
    one, until one word is left, that weight's plane. A plane's binary
    digits run from the last row to the first, so read big-endian, one byte
    each, they land in order."""
    planes: list[int] = []
    level = list(words)
    while level:
        if len(level) % 2 == 0:
            level.append(0)  # an odd count of words reduces to one
        up: list[int] = []
        it = iter(level)  # it also reads the sums appended to level
        for a, b, c in zip(it, it, it):
            ab = a ^ b
            level.append(ab ^ c)
            up.append(a & b | ab & c)
        planes.append(level[-1])
        level = up
    lane = (len(planes) + 7) // 8 or 1
    spread = bytearray(num_rows * lane)
    total = 0
    for i, plane in enumerate(planes):
        spread[lane - 1::lane] = format(plane, f"0{num_rows}b").encode().translate(_DIGIT_BYTES)
        total += int.from_bytes(spread, "big") << i
    data = total.to_bytes(num_rows * lane, "little")
    counts = list(data[lane - 1::lane])  # the high byte of each lane first
    for k in range(lane - 2, -1, -1):
        counts = [c << 8 | d for c, d in zip(counts, data[k::lane])]
    return counts


def forward(netlist: Netlist, input_bits) -> list[int]:
    """Final-layer bits in block order for one input."""
    return [w & 1 for w in _output_words(netlist, input_bits, 1)]


def winner_of(scores: tuple[int, ...]) -> int:
    """Smallest class index attaining the maximal score (class 0 when all
    scores are zero)."""
    return scores.index(max(scores))


def confidence_of(scores: tuple[int, ...], num_classes: int) -> Fraction:
    total = sum(scores)
    if total == 0:
        return Fraction(1, num_classes)
    return Fraction(scores[winner_of(scores)], total)


def class_scores(netlist: Netlist, columns, num_rows: int) -> list[tuple[int, ...]]:
    """Each row's class-block popcounts, for ``num_rows`` (at least one) rows
    given as one word per input bit, all evaluated bit-sliced."""
    words, L = _output_words(netlist, columns, num_rows), netlist.block_size
    blocks = (words[c * L:(c + 1) * L] for c in range(netlist.num_classes))
    return list(zip(*(_popcounts(block, num_rows) for block in blocks)))


def predict(netlist: Netlist, input_bits) -> tuple[int, tuple[int, ...], Fraction]:
    """Predicted class, block scores, and exact confidence for one input."""
    [scores] = class_scores(netlist, input_bits, 1)
    return winner_of(scores), scores, confidence_of(scores, netlist.num_classes)


def phi_on_values(values, values_p, schema: FeatureSchema, eps: int, mode: str) -> bool:
    """Concrete similarity predicate over a pair of decoded inputs.

    True iff every non-sensitive numeric feature is within eps thermometer
    bit-flips, every non-sensitive categorical feature is equal, and (in
    fair mode) every sensitive categorical feature differs. Robust mode
    treats the sensitive set as empty, so all categoricals must be equal.
    """
    for f, a, b in zip(schema.features, values, values_p):
        if isinstance(f, NumericFeature):
            if abs(a - b) > eps:
                return False
        elif mode == FAIR and f.sensitive:
            if a == b:
                return False
        elif a != b:
            return False
    return True
