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
merges the already sorted blocks instead of sorting all outputs again.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

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
    """Standard DIMACS CNF bytes; deterministic for a given formula."""
    formats = _ClauseFormats()
    lines = [f"p cnf {formula.num_vars} {len(formula.clauses)}\n"]
    lines += [formats[len(clause)] % clause for clause in formula.clauses]
    return "".join(lines).encode("ascii")


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
        if op == 0:
            return FALSE_LIT
        if op == 15:
            return TRUE_LIT
        if op == 12:
            return la
        if op == 3:
            return -la
        if op == 10:
            return lb
        if op == 5:
            return -lb
        rows = [i for i in range(4) if (op >> i) & 1]
        if len(rows) == 1:
            # True on one row: an AND of suitably negated inputs.
            (i,) = rows
            return self.lit_and(la if i & 2 else -la, lb if i & 1 else -lb)
        if len(rows) == 3:
            # False on one row: an OR of suitably negated inputs.
            (i,) = set(range(4)) - set(rows)
            return self.lit_or(-la if i & 2 else la, -lb if i & 1 else lb)
        x = self.lit_xor(la, lb)
        return x if op == 6 else -x

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

    def comparator(self, a: Lit, b: Lit) -> tuple[Lit, Lit]:
        """2-input comparator: (hi, lo) = (a OR b, a AND b)."""
        return self.lit_or(a, b), self.lit_and(a, b)

    def sort_block(self, lits, run: int = 1) -> list[Lit]:
        """Unary (descending) sort of ``lits``, read as a concatenation of
        descending runs of ``run`` literals (the last may be shorter).

        Output s[k] is true iff at least k+1 inputs are true. The two
        shortest runs are merged first (ties in input order) by Batcher's
        odd-even merge; each merge pads only its own two runs with constant
        FALSE to a shared power of two, and the padding falls off the low
        end. ``run=1`` sorts arbitrary literals; sorted class blocks with
        ``run`` set to the block size merge without being sorted again.
        """
        lits = list(lits)
        # Runs are kept ascending, the order _oe_merge works in.
        runs = [lits[k:k + run][::-1] for k in range(0, len(lits), run)]
        heap = [(len(r), i, r) for i, r in enumerate(runs)]
        heapq.heapify(heap)
        order = len(heap)
        while len(heap) > 1:
            (na, _, a), (nb, _, b) = heapq.heappop(heap), heapq.heappop(heap)
            size = 1 << (max(na, nb) - 1).bit_length()
            merged = self._oe_merge(
                [FALSE_LIT] * (size - na) + a, [FALSE_LIT] * (size - nb) + b
            )
            heapq.heappush(heap, (na + nb, order, merged[2 * size - na - nb:]))
            order += 1
        return heap[0][2][::-1] if heap else []

    def _oe_merge(self, a: list[Lit], b: list[Lit]) -> list[Lit]:
        # Inputs sorted ascending, equal power-of-two lengths.
        if len(a) == 1:
            hi, lo = self.comparator(a[0], b[0])
            return [lo, hi]
        even = self._oe_merge(a[0::2], b[0::2])
        odd = self._oe_merge(a[1::2], b[1::2])
        out = [even[0]]
        for i in range(1, len(a)):
            hi, lo = self.comparator(odd[i - 1], even[i])
            out.extend((lo, hi))
        out.append(odd[-1])
        return out
