"""Concrete network evaluation: predictions, confidences, and the
similarity predicate.

Evaluation is bit-sliced: the netlist's compiled program runs once over a
whole batch of rows, on Python ints whose bit r belongs to row r. Class
scores come from bit-plane counters over each block's output words, so a
batch costs one pass over the live gates plus work linear in the row count.
``predict`` and ``forward`` are one-row batches; ``accuracy`` evaluates
all its rows in one batch.

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
class ScoreVector:
    """Per-class popcounts of the output blocks."""

    scores: tuple[int, ...]

    @property
    def total(self) -> int:
        return sum(self.scores)


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

# Byte b of an input column -> its binary digit: "0" for 0, "1" otherwise.
_BIT_DIGITS = b"0" + b"1" * 255


def _output_words(netlist: Netlist, rows) -> list[int]:
    """Run the compiled program over all rows at once; returns one int per
    output bit, in block order, whose bit r is that output on row r."""
    program = netlist.program
    for bits in rows:
        if len(bits) != netlist.input_width:
            raise DataError(
                f"input width mismatch: got {len(bits)}, "
                f"expected {netlist.input_width}"
            )
    mask = (1 << len(rows)) - 1
    values: list = [None] * (netlist.input_width + netlist.num_gates)
    for i, column in enumerate(zip(*rows)):
        values[i] = int(bytes(column[::-1]).translate(_BIT_DIGITS), 2)
    for node, op, a, b in program:
        values[node] = _OPS[op](values[a], values[b], mask)
    return values[len(values) - netlist.num_outputs:]


def _popcounts(words, num_rows: int) -> list[int]:
    """Per-row count of set bits over ``words``: a ripple-carry add into bit
    planes, each plane then read back through one binary formatting."""
    planes: list[int] = []
    for carry in words:
        i = 0
        while carry:
            if i == len(planes):
                planes.append(carry)
                break
            planes[i], carry = planes[i] ^ carry, planes[i] & carry
            i += 1
    counts = [0] * num_rows
    for i, plane in enumerate(planes):
        digits = format(plane, "b")[::-1]  # digits[r] is bit r
        r = digits.find("1")
        while r >= 0:
            counts[r] += 1 << i
            r = digits.find("1", r + 1)
    return counts


def forward(netlist: Netlist, input_bits) -> list[int]:
    """Final-layer bits in block order for one input."""
    return [w & 1 for w in _output_words(netlist, [input_bits])]


def winner_of(scores: ScoreVector) -> int:
    """Smallest class index attaining the maximal score (class 0 when all
    scores are zero)."""
    best = max(scores.scores)
    return scores.scores.index(best)


def confidence_of(scores: ScoreVector, num_classes: int) -> Fraction:
    if scores.total == 0:
        return Fraction(1, num_classes)
    return Fraction(scores.scores[winner_of(scores)], scores.total)


def predict_batch(netlist: Netlist, rows) -> list[tuple[int, ScoreVector, Fraction]]:
    """``predict`` for every row of a list, evaluated together bit-sliced."""
    if not rows:
        return []
    words = _output_words(netlist, rows)
    L = netlist.block_size
    per_class = [
        _popcounts(words[c * L:(c + 1) * L], len(rows))
        for c in range(netlist.num_classes)
    ]
    results = []
    for row_scores in zip(*per_class):
        scores = ScoreVector(row_scores)
        results.append(
            (winner_of(scores), scores, confidence_of(scores, netlist.num_classes))
        )
    return results


def predict(netlist: Netlist, input_bits) -> tuple[int, ScoreVector, Fraction]:
    """Predicted class, block scores, and exact confidence for one input."""
    return predict_batch(netlist, [input_bits])[0]


def check_phi(x_bits, x_prime_bits, schema: FeatureSchema, eps: int, mode: str) -> bool:
    """Concrete similarity predicate over a decoded input pair.

    True iff every non-sensitive numeric feature is within eps thermometer
    bit-flips, every non-sensitive categorical feature is equal, and (in
    fair mode) every sensitive categorical feature differs. Robust mode
    treats the sensitive set as empty, so all categoricals must be equal.
    Ill-formed inputs are rejected (DataError).
    """
    if mode not in (FAIR, ROBUST):
        raise ValueError(f"mode must be {FAIR!r} or {ROBUST!r}, got {mode!r}")
    values = schema.decode_bits(x_bits)
    values_p = schema.decode_bits(x_prime_bits)
    return phi_on_values(values, values_p, schema, eps, mode)


def phi_on_values(values, values_p, schema: FeatureSchema, eps: int, mode: str) -> bool:
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
