"""Lowering of hyperproperty constraints into CNF.

A fair/robust query conjoins: well-formedness of both input copies, two
disjoint network encodings, the confidence constraint on the first copy,
the different-class constraint on the winner flags, and the similarity
constraints (numeric proximity, categorical equality, sensitive-categorical
inequality). SAT means a counterexample pair exists; UNSAT means the
property holds at the queried threshold.

The attainability query keeps a single copy and asks for any well-formed
input that clears the threshold with at least one output bit set.

Each copy's literals form one ``CopyLits`` record, and the ``VarMap`` of a
query holds one record per copy: x alone, or x then x'.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from operator import neg

from .cnf import FALSE_LIT, TRUE_LIT, CnfBuilder, CnfFormula, Lit
from .errors import InvalidNetlistError, QueryBuildError
from .evaluator import FAIR, ROBUST
from .netlist import Netlist, schema_violations
from .schema import FeatureSchema, NumericFeature

ATTAINABLE = "attainable"
_MODES = (FAIR, ROBUST, ATTAINABLE)


@dataclass(frozen=True)
class PropertyQuery:
    """One verification query: mode, integer tolerance, exact threshold."""

    mode: str
    eps: int
    kappa: Fraction

    def __post_init__(self):
        if self.mode not in _MODES:
            raise QueryBuildError(f"unknown mode {self.mode!r}")
        if self.eps < 0:
            raise QueryBuildError(f"eps must be >= 0, got {self.eps}")
        if not 0 <= self.kappa <= 1:
            raise QueryBuildError(f"kappa must be in [0, 1], got {self.kappa}")


@dataclass(frozen=True)
class CopyLits:
    """Literals of one network copy: its input bits, its output bits in
    block order, each class block sorted descending, and its winner flags
    (empty for single-copy queries)."""

    inputs: tuple[Lit, ...]
    outputs: tuple[Lit, ...]
    sorted_blocks: tuple[tuple[Lit, ...], ...]
    winners: tuple[Lit, ...] = ()


@dataclass(frozen=True)
class VarMap:
    """Semantic roles -> literal vectors, for decoding and debugging.

    ``copies`` holds one CopyLits for attainability queries and two, x then
    x', for fair and robust queries. Literals may be folded constants (+/-1)
    or aliases; the underlying variable sets of the two copies are disjoint
    apart from constants. ``total_sorted`` is the first copy's outputs,
    merged from its sorted blocks.
    """

    query: PropertyQuery
    copies: tuple[CopyLits, ...]
    total_sorted: tuple[Lit, ...]

    def sidecar(self) -> str:
        """Role -> literal list sidecar text, one line per role; the second
        copy's roles carry a ``_prime`` suffix."""
        def line(name, lits):
            return f"{name} " + " ".join(map(str, lits))

        named = list(zip(("", "_prime"), self.copies))
        lines = [
            f"mode {self.query.mode}",
            f"eps {self.query.eps}",
            f"kappa {self.query.kappa}",
        ]
        lines += [line("v_in" + s, c.inputs) for s, c in named]
        lines += [line("v_out" + s, c.outputs) for s, c in named]
        lines += [
            line(f"sorted_block{s}.{i}", blk)
            for s, c in named
            for i, blk in enumerate(c.sorted_blocks)
        ]
        lines.append(line("total_sorted", self.total_sorted))
        lines += [line("winner" + s, c.winners) for s, c in named if c.winners]
        return "\n".join(lines) + "\n"


def emit_well_formed(b: CnfBuilder, schema: FeatureSchema, in_lits) -> None:
    """Thermometer monotonicity per numeric feature; exactly-one per
    categorical feature."""
    assert len(in_lits) == schema.width
    for f, (start, end) in zip(schema.features, schema.bit_ranges()):
        block = in_lits[start:end]
        if isinstance(f, NumericFeature):
            for k in range(1, f.bits):
                b.add_clause((-block[k], block[k - 1]))
        else:
            b.add_clause(block)
            for i in range(f.arity):
                for j in range(i + 1, f.arity):
                    b.add_clause((-block[i], -block[j]))


def emit_prox(b: CnfBuilder, eps: int, t, t_prime) -> None:
    """Thermometer values within eps bit-flips (vacuous when eps >= width)."""
    assert len(t) == len(t_prime)
    for k in range(eps, len(t)):
        b.add_clause((-t[k], t_prime[k - eps]))
        b.add_clause((-t_prime[k], t[k - eps]))


def emit_same_cat(b: CnfBuilder, c, c_prime) -> None:
    for x, y in zip(c, c_prime):
        b.add_clause((-x, y))
        b.add_clause((x, -y))


def emit_diff_cat(b: CnfBuilder, c, c_prime) -> None:
    """Category inequality under one-hot: some position is set here and not
    there. Fresh selectors keep clause growth linear in arity."""
    selectors = [b.lit_and(x, -y) for x, y in zip(c, c_prime)]
    b.add_clause(selectors)


def emit_winning(b: CnfBuilder, sorted_blocks) -> list[Lit]:
    """Winner flags over descending-sorted class blocks.

    w_c implies a strictly higher score than every lower-indexed class and
    at least as high a score as every higher-indexed class, so the flags
    pin the minimum-index argmax — the same tie-break the concrete
    evaluator uses. An at-least-one clause completes the one-directional
    implications; at-most-one follows from the strictness asymmetry.

    The maximum of sorted unary counts is their elementwise OR, so each
    class compares against two maxima rather than against every other
    class: ``lower[c]``, the OR of the blocks below c, built bottom-up, and
    ``upper[c]``, the OR of the blocks above c, built top-down, each step
    one ``lit_or`` per position. w_c implies some k with s_c[k] and not
    lower[c][k], and upper[c][k] -> s_c[k] for every k.

    Per copy that is (C-2)*L chain ``lit_or`` each way and (C-1)*L
    ``lit_and``, three clauses each, plus (C-1)*L implications: about
    (10C-16)*L clauses. At C=2, lower[1] is s_0 and upper[0] is s_1, so no
    chain variable exists and the clauses are those of the pairwise form.
    """
    num_classes = len(sorted_blocks)
    winners = b.new_vars(num_classes)

    def running_max(blocks):
        top = blocks[0]
        maxima = [top]
        for blk in blocks[1:]:
            top = tuple(map(b.lit_or, top, blk))
            maxima.append(top)
        return maxima

    lower = [()] + running_max(sorted_blocks[:-1])
    upper = running_max(sorted_blocks[:0:-1])[::-1] + [()]
    for w_c, s_c, below, above in zip(winners, sorted_blocks, lower, upper):
        if below:
            b.add_clause([-w_c, *map(b.lit_and, s_c, map(neg, below))])
        for q, p in zip(above, s_c):
            b.add_clause((-w_c, -q, p))
    b.add_clause(winners)
    return winners


def emit_diff_class(b: CnfBuilder, winners, winners_prime) -> None:
    for w, wp in zip(winners, winners_prime):
        b.add_clause((-w, -wp))


def emit_confidence_gt(
    b: CnfBuilder, kappa: Fraction, sorted_blocks, total_sorted
) -> None:
    """Threshold constraint: whenever the total popcount reaches i, some
    class block holds more than i*kappa ones.

    The clauses read kappa only through floor(i*kappa) for i <= N = C*L, in
    exact integer arithmetic, so thresholds in one gap of the Farey set F_N
    give the same clauses; ``build_query`` reads it otherwise only to test
    kappa >= 1/C. Indices past the block width become the FALSE constant:
    over-tight demands are unsatisfiable, not dropped. ``kappa`` lies in
    [0, 1], as ``PropertyQuery`` checks.
    """
    width = len(sorted_blocks[0])
    p, q = kappa.numerator, kappa.denominator
    for i in range(1, len(total_sorted) + 1):
        idx = (i * p) // q
        conclusion = [
            blk[idx] if idx < width else FALSE_LIT for blk in sorted_blocks
        ]
        b.add_clause([-total_sorted[i - 1]] + conclusion)


def _encode_copy(b: CnfBuilder, netlist: Netlist, schema: FeatureSchema) -> CopyLits:
    """Fresh input variables, well-formedness, network, per-block sorts."""
    in_lits = b.new_vars(schema.width)
    emit_well_formed(b, schema, in_lits)
    out_lits = b.encode_network(netlist, in_lits)
    L = netlist.block_size
    blocks = [out_lits[c * L:(c + 1) * L] for c in range(netlist.num_classes)]
    sorted_blocks = tuple(tuple(b.sort_block(blk)) for blk in blocks)
    return CopyLits(tuple(in_lits), tuple(out_lits), sorted_blocks)


def build_query(
    netlist: Netlist, schema: FeatureSchema, query: PropertyQuery
) -> tuple[CnfFormula, VarMap]:
    """Lower one query to CNF over fresh variables.

    Fair/robust queries are SAT iff a counterexample pair exists. To keep
    exact agreement with the brute-force oracle's total-zero convention
    (confidence 1/C, class 0), the first copy gets a some-output-bit-set
    clause whenever kappa >= 1/C: the bare confidence constraint is
    vacuously true on an all-zero output, while the oracle's degenerate
    confidence only clears thresholds below 1/C.
    """
    netlist.program  # compiling checks the netlist, before the schema and mode
    violations = schema_violations(netlist, schema)
    if violations:
        raise InvalidNetlistError(violations)
    if query.mode == FAIR and not any(f.sensitive for f in schema.features):
        raise QueryBuildError("fair mode requires at least one sensitive feature")

    b = CnfBuilder()
    x = _encode_copy(b, netlist, schema)
    total_sorted = tuple(
        b.sort_block([l for blk in x.sorted_blocks for l in blk], run=netlist.block_size)
    )
    emit_confidence_gt(b, query.kappa, x.sorted_blocks, total_sorted)

    if query.mode == ATTAINABLE:
        b.add_clause(x.outputs)
        return b.build(), VarMap(query, (x,), total_sorted)

    if query.kappa >= Fraction(1, netlist.num_classes):
        b.add_clause(x.outputs)

    xp = _encode_copy(b, netlist, schema)
    x, xp = (
        replace(c, winners=tuple(emit_winning(b, c.sorted_blocks))) for c in (x, xp)
    )
    emit_diff_class(b, x.winners, xp.winners)

    for f, (start, end) in zip(schema.features, schema.bit_ranges()):
        blk1, blk2 = x.inputs[start:end], xp.inputs[start:end]
        if isinstance(f, NumericFeature):
            emit_prox(b, query.eps, blk1, blk2)
        elif query.mode == FAIR and f.sensitive:
            emit_diff_cat(b, blk1, blk2)
        else:
            emit_same_cat(b, blk1, blk2)

    return b.build(), VarMap(query, (x, xp), total_sorted)
