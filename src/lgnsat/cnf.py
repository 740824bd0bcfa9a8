"""CNF construction: variable pool, gate encoding, sorting networks, DIMACS.

Literals are nonzero signed ints (negative = negation). Variable 1 is
reserved as the constant TRUE, pinned by a unit clause emitted once, so
constant FALSE is -1 and constant folding can hand out +/-1 freely.

Every auxiliary variable is defined with full (both-polarity) equivalence
clauses. That discipline is what makes counterexample decoding sound: a
model restricted to the input variables extends uniquely, so output
variables always agree with the concrete forward pass.

Networks are encoded from ``Netlist.program``, the same compiled,
cone-pruned gate list the evaluator runs, so gates no output depends on
get no variables.

Cardinalities are unary sorts built from Batcher odd-even merges of sorted
runs: each class block is sorted from single literals, and the total count
merges the already sorted blocks instead of sorting all outputs again. A
merge network depends only on its size, so each size is traced once into a
comparator program that every later merge of that size runs as a flat loop.

DIMACS is written with one format string for the whole formula.
"""

from __future__ import annotations

import functools
import heapq
from dataclasses import dataclass
from itertools import chain

from .netlist import Netlist

Lit = int
Clause = tuple[Lit, ...]

TRUE_LIT: Lit = 1
FALSE_LIT: Lit = -1


@dataclass(frozen=True)
class CnfFormula:
    """Immutable finished formula; shareable across threads."""

    num_vars: int
    clauses: tuple[Clause, ...]


class _ClauseFormats(dict):
    """``"%d " * n + "0\\n"`` for each clause length n, made on first use."""

    def __missing__(self, n: int) -> str:
        fmt = self[n] = "%d " * n + "0\n"
        return fmt


def to_dimacs(formula: CnfFormula) -> bytes:
    """Standard DIMACS CNF bytes; deterministic for a given formula.

    The header and one ``"%d ... 0\\n"`` format per clause are joined into
    a single format string, applied once to all literals in order, so no
    clause is formatted on its own."""
    clauses = formula.clauses
    fmt = f"p cnf {formula.num_vars} {len(clauses)}\n" + "".join(
        map(_ClauseFormats().__getitem__, map(len, clauses))
    )
    return (fmt % tuple(chain.from_iterable(clauses))).encode("ascii")


_AND, _OR, _XOR, _A, _B, _CONST = range(6)

# Per truth-table code: (kind, sign of a, sign of b, sign of the result).
# A code true on one row is an AND of suitably negated inputs, and a code
# false on one row an OR of them.
_GATES = (
    (_CONST, 1, 1, -1),  # 0  false
    (_AND, -1, -1, 1),   # 1  nor
    (_AND, -1, 1, 1),    # 2  b and not a
    (_A, 1, 1, -1),      # 3  not a
    (_AND, 1, -1, 1),    # 4  a and not b
    (_B, 1, 1, -1),      # 5  not b
    (_XOR, 1, 1, 1),     # 6  xor
    (_OR, -1, -1, 1),    # 7  nand
    (_AND, 1, 1, 1),     # 8  and
    (_XOR, 1, 1, -1),    # 9  xnor
    (_B, 1, 1, 1),       # 10 b
    (_OR, -1, 1, 1),     # 11 a implies b
    (_A, 1, 1, 1),       # 12 a
    (_OR, 1, -1, 1),     # 13 b implies a
    (_OR, 1, 1, 1),      # 14 or
    (_CONST, 1, 1, 1),   # 15 true
)


class CnfBuilder:
    """Single-writer clause accumulator with constant folding helpers."""

    def __init__(self):
        self.num_vars = 1
        self.clauses: list[Clause] = [(TRUE_LIT,)]

    def new_var(self) -> Lit:
        self.num_vars += 1
        return self.num_vars

    def new_vars(self, n: int) -> list[Lit]:
        return [self.new_var() for _ in range(n)]

    def add_clause(self, lits) -> None:
        """Add one clause, normalized: duplicate literals collapse,
        tautologies and clauses satisfied by the TRUE constant are elided,
        falsified constant literals are dropped."""
        seen: list[Lit] = []
        for lit in lits:
            if lit == TRUE_LIT:
                return
            if lit == FALSE_LIT:
                continue
            if -lit in seen:
                return
            if lit not in seen:
                seen.append(lit)
        # A clause of only falsified constants is an explicit falsum.
        self.clauses.append(tuple(seen) if seen else (FALSE_LIT,))

    def add_clauses(self, clause_list) -> None:
        for c in clause_list:
            self.add_clause(c)

    def build(self) -> CnfFormula:
        return CnfFormula(self.num_vars, tuple(self.clauses))

    # -- folded connectives -------------------------------------------------
    # Once the folds have run, a and b are distinct non-constant literals
    # with a != -b and o is fresh, so the defining clauses need none of
    # add_clause's normalisation and are appended directly.

    def lit_and(self, a: Lit, b: Lit) -> Lit:
        if a == FALSE_LIT or b == FALSE_LIT or a == -b:
            return FALSE_LIT
        if a == TRUE_LIT:
            return b
        if b == TRUE_LIT or a == b:
            return a
        o = self.new_var()
        self.clauses += [(-o, a), (-o, b), (o, -a, -b)]
        return o

    def lit_or(self, a: Lit, b: Lit) -> Lit:
        if a == TRUE_LIT or b == TRUE_LIT or a == -b:
            return TRUE_LIT
        if a == FALSE_LIT:
            return b
        if b == FALSE_LIT or a == b:
            return a
        o = self.new_var()
        self.clauses += [(o, -a), (o, -b), (-o, a, b)]
        return o

    def lit_xor(self, a: Lit, b: Lit) -> Lit:
        if a == TRUE_LIT:
            return -b
        if a == FALSE_LIT:
            return b
        if b == TRUE_LIT:
            return -a
        if b == FALSE_LIT:
            return a
        if a == b:
            return FALSE_LIT
        if a == -b:
            return TRUE_LIT
        o = self.new_var()
        self.clauses += [(-o, a, b), (-o, -a, -b), (o, -a, b), (o, a, -b)]
        return o

    # -- gates and networks --------------------------------------------------

    def encode_gate(self, op: int, la: Lit, lb: Lit) -> Lit:
        """Literal fully equivalent to truth-table code ``op`` on (la, lb).

        Constant and single-input codes fold to +/-TRUE or +/-la/lb with no
        new variable; genuine 2-input codes cost at most 4 clauses.
        """
        kind, sa, sb, sign = _GATES[op]
        if kind == _AND:
            return self.lit_and(sa * la, sb * lb)
        if kind == _OR:
            return self.lit_or(sa * la, sb * lb)
        if kind == _XOR:
            return sign * self.lit_xor(la, lb)
        if kind == _A:
            return sign * la
        if kind == _B:
            return sign * lb
        return sign * TRUE_LIT

    def encode_network(self, netlist: Netlist, in_lits) -> list[Lit]:
        """One encode_gate per entry of the compiled program; returns the
        output literals in block order. Gates outside the outputs' cone of
        influence are not in the program, so they get no variables and no
        clauses."""
        assert len(in_lits) == netlist.input_width
        lits: list = list(in_lits) + [None] * netlist.num_gates
        for node, op, a, b in netlist.program:
            lits[node] = self.encode_gate(op, lits[a], lits[b])
        return lits[len(lits) - netlist.num_outputs:]

    # -- sorting network -----------------------------------------------------

    def sort_block(self, lits, run: int = 1) -> list[Lit]:
        """Unary (descending) sort of ``lits``, read as a concatenation of
        descending runs of ``run`` literals (the last may be shorter).

        Output s[k] is true iff at least k+1 inputs are true. The two
        shortest runs are merged first (ties in input order) by Batcher's
        odd-even merge; each merge pads only its own two runs with constant
        FALSE to a shared power of two, and the padding falls off the low
        end. ``run=1`` sorts arbitrary literals; sorted class blocks with
        ``run`` set to the block size merge without being sorted again.

        Each merge runs the cached comparator program of its size. A
        comparator is (hi, lo) = (a OR b, a AND b), folded as ``lit_or``
        and ``lit_and`` fold: hi gets its variable before lo, and the OR
        clauses come before the AND clauses.
        """
        lits = list(lits)
        # Runs are kept ascending, the order the merge programs work in.
        runs = [lits[k:k + run][::-1] for k in range(0, len(lits), run)]
        heap = [(len(r), i, r) for i, r in enumerate(runs)]
        heapq.heapify(heap)
        order = len(heap)
        clauses = self.clauses
        while len(heap) > 1:
            (na, _, a), (nb, _, b) = heapq.heappop(heap), heapq.heappop(heap)
            size = 1 << (max(na, nb) - 1).bit_length()
            steps, outs = _merge_program(size)
            wires = [FALSE_LIT] * (size - na) + a + [FALSE_LIT] * (size - nb) + b
            add = wires.append
            n = self.num_vars
            for x, y in steps:
                p, q = wires[x], wires[y]
                # The folds of lit_or then lit_and: equal inputs pass, a
                # complementary pair gives (TRUE, FALSE), and a constant
                # input makes the other one lo (TRUE) or hi (FALSE).
                if p == q:
                    add(p)
                    add(p)
                elif p == -q:
                    add(TRUE_LIT)
                    add(FALSE_LIT)
                elif p == TRUE_LIT or q == FALSE_LIT:
                    add(p)
                    add(q)
                elif q == TRUE_LIT or p == FALSE_LIT:
                    add(q)
                    add(p)
                else:
                    hi, lo = n + 1, n + 2
                    n = lo
                    clauses += [
                        (hi, -p), (hi, -q), (-hi, p, q), (-lo, p), (-lo, q), (lo, -p, -q)
                    ]
                    add(hi)
                    add(lo)
            self.num_vars = n
            merged = [wires[w] for w in outs[2 * size - na - nb:]]
            heapq.heappush(heap, (na + nb, order, merged))
            order += 1
        return heap[0][2][::-1] if heap else []


@functools.cache
def _merge_program(size: int) -> tuple[tuple[tuple[int, int], ...], tuple[int, ...]]:
    """Batcher's odd-even merge of two ascending runs of ``size`` wires (a
    power of two), traced once on wire indices: wires 0..size-1 hold the
    first run and size..2*size-1 the second. Returns the comparator steps
    in the order they are applied, and the ascending output wires. Step k
    reads wires (x, y) and writes wire 2*size + 2k (their OR, hi) and the
    wire after it (their AND, lo)."""
    steps: list[tuple[int, int]] = []

    def comparator(x: int, y: int) -> tuple[int, int]:
        steps.append((x, y))
        hi = 2 * size + 2 * len(steps) - 2
        return hi, hi + 1

    def merge(a: list[int], b: list[int]) -> list[int]:
        if len(a) == 1:
            hi, lo = comparator(a[0], b[0])
            return [lo, hi]
        even = merge(a[0::2], b[0::2])
        odd = merge(a[1::2], b[1::2])
        out = [even[0]]
        for i in range(1, len(a)):
            hi, lo = comparator(odd[i - 1], even[i])
            out += (lo, hi)
        out.append(odd[-1])
        return out

    outs = merge(list(range(size)), list(range(size, 2 * size)))
    return tuple(steps), tuple(outs)
