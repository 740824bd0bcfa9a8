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
sort's network depends only on its number of inputs and its run length, so
the comparators of each such shape are listed once, by Batcher's recursion
(merge the even wires, merge the odd wires, then compare across), into a
cached program that every sort of that shape runs as one flat loop.

Clauses are kept as chunks of DIMACS lines. Each writer appends its
clauses' literals, with no 0 terminators, to a pending stream and a
constant chunk (``%d `` per literal, ``0\n`` per clause) to its format.
``encode_network`` and ``sort_block`` format that batch into a chunk as
they return, so no query holds its literals as ints.
"""

from __future__ import annotations

import functools
import heapq
from array import array
from dataclasses import dataclass
from operator import neg

from .netlist import Netlist

Lit = int

TRUE_LIT: Lit = 1
FALSE_LIT: Lit = -1


class Clauses:
    """Clauses as chunks of DIMACS lines and a pending batch.

    ``body`` holds a bytes chunk of lines per flush: a list in a builder, a
    tuple in a finished formula, which has nothing pending. ``lits`` holds
    the literals of the clauses added since, with no terminator, and
    ``fmt`` their lines' format; ``flush`` appends ``fmt % tuple(lits)`` to
    the body and empties both. ``count`` counts every clause. Iterating
    flushes, then yields each clause as a tuple of literals."""

    __slots__ = ("body", "lits", "fmt", "count")

    def __init__(self, body, count: int):
        self.body = body
        self.lits = []
        self.fmt = bytearray()
        self.count = count

    def extend(self, lits, fmt: bytes, count: int) -> None:
        """Append ``count`` clauses: their literals and their lines' format."""
        self.lits += lits
        self.fmt += fmt
        self.count += count

    def flush(self) -> None:
        """Format the pending clauses into a chunk of the body."""
        if self.fmt:
            self.body.append(bytes(self.fmt) % tuple(self.lits))
            self.lits.clear()
            self.fmt.clear()

    def __len__(self) -> int:
        return self.count

    def __iter__(self):
        self.flush()
        for chunk in self.body:
            for line in chunk.splitlines():
                yield tuple(map(int, line.split()[:-1]))


def _line_format(size: int) -> bytes:
    """The format of one clause line of ``size`` literals."""
    return b"%d " * size + b"0\n"


# The format chunks of the clauses lit_and and lit_or write (two binary
# clauses, then a ternary one), of lit_xor's four ternary clauses, and of
# one sort comparator, an OR then an AND.
_GATE_FORMAT = _line_format(2) * 2 + _line_format(3)
_XOR_FORMAT = _line_format(3) * 4
_COMPARATOR_FORMAT = _GATE_FORMAT * 2


@dataclass(frozen=True)
class CnfFormula:
    """Immutable finished formula; shareable across threads.

    ``clauses`` is a flushed ``Clauses`` with a tuple body; any other
    iterable of clauses given here is written into one, a chunk each."""

    num_vars: int
    clauses: Clauses

    def __post_init__(self):
        if not isinstance(self.clauses, Clauses):
            clauses = tuple(self.clauses)
            body = tuple(_line_format(len(c)) % tuple(c) for c in clauses)
            object.__setattr__(self, "clauses", Clauses(body, len(clauses)))


def to_dimacs(formula: CnfFormula) -> bytes:
    """Standard DIMACS CNF bytes; deterministic for a given formula.

    One join of the header and the body's chunks, with no format pass:
    each clause ends with "0" and a line end, and an empty clause is a
    line of its own "0"."""
    clauses = formula.clauses
    return b"".join((b"p cnf %d %d\n" % (formula.num_vars, len(clauses)), *clauses.body))


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
        self.clauses = Clauses([b"%d 0\n" % TRUE_LIT], 1)

    def new_var(self) -> Lit:
        self.num_vars += 1
        return self.num_vars

    def new_vars(self, n: int) -> list[Lit]:
        first = self.num_vars + 1
        self.num_vars += n
        return list(range(first, first + n))

    def add_clause(self, lits) -> None:
        """Add one clause, normalized: duplicate literals collapse,
        tautologies and clauses satisfied by the TRUE constant are elided,
        falsified constant literals are dropped."""
        if TRUE_LIT in lits:
            return
        # A dict keeps the first of each literal in order, and its lookups
        # keep a long clause linear.
        seen = dict.fromkeys(lits)
        seen.pop(FALSE_LIT, None)
        if not seen.keys().isdisjoint(map(neg, seen)):
            return
        # A clause of only falsified constants is an explicit falsum.
        seen = seen or (FALSE_LIT,)
        self.clauses.extend(seen, _line_format(len(seen)), 1)

    def build(self) -> CnfFormula:
        self.clauses.flush()
        return CnfFormula(self.num_vars, Clauses(tuple(self.clauses.body), len(self.clauses)))

    # -- folded connectives -------------------------------------------------
    # Once the folds have run, a and b are distinct non-constant literals
    # with a != -b and o is fresh, so the defining clauses need none of
    # add_clause's normalisation and are appended directly to the stream,
    # with their constant format chunk.

    def lit_and(self, a: Lit, b: Lit) -> Lit:
        if a == FALSE_LIT or b == FALSE_LIT or a == -b:
            return FALSE_LIT
        if a == TRUE_LIT:
            return b
        if b == TRUE_LIT or a == b:
            return a
        o = self.new_var()
        self.clauses.extend((-o, a, -o, b, o, -a, -b), _GATE_FORMAT, 3)
        return o

    def lit_or(self, a: Lit, b: Lit) -> Lit:
        if a == TRUE_LIT or b == TRUE_LIT or a == -b:
            return TRUE_LIT
        if a == FALSE_LIT:
            return b
        if b == FALSE_LIT or a == b:
            return a
        o = self.new_var()
        self.clauses.extend((o, -a, o, -b, -o, a, b), _GATE_FORMAT, 3)
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
        self.clauses.extend((-o, a, b, -o, -a, -b, o, -a, b, o, a, -b), _XOR_FORMAT, 4)
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
        self.clauses.flush()
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

        The whole sort runs as the cached comparator program of its
        ``(len(lits), run)``. A comparator is (hi, lo) = (a OR b, a AND b),
        folded as ``lit_or`` and ``lit_and`` fold: hi gets its variable
        before lo, and the OR clauses come before the AND clauses.
        """
        wires = list(lits)
        xs, ys, outs = _sort_program(len(wires), run)
        wires.append(FALSE_LIT)
        add = wires.append
        stream = self.clauses.lits
        n = self.num_vars
        for x, y in zip(xs, ys):
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
                stream += (hi, -p, hi, -q, -hi, p, q, -lo, p, -lo, q, lo, -p, -q)
                add(hi)
                add(lo)
        # Each comparator that did not fold made 2 variables and 6 clauses.
        made = (n - self.num_vars) // 2
        self.clauses.extend((), _COMPARATOR_FORMAT * made, 6 * made)
        self.clauses.flush()
        self.num_vars = n
        return list(map(wires.__getitem__, outs))


@functools.lru_cache(maxsize=16)
def _sort_program(n: int, run: int) -> tuple[array, array, array]:
    """The comparator program of ``sort_block`` on ``n`` literals in runs of
    ``run``, as three int arrays (4 bytes a wire) that every caller only
    reads. Wires 0..n-1 hold the inputs and wire n constant FALSE; step k
    reads wires (xs[k], ys[k]) and writes wire n+1+2k (hi) and the wire
    after it (lo). ``outs`` lists the output wires, s[0] first.

    A comparator with the FALSE wire as an input always folds to (the other
    input, FALSE) and makes no variable, so it is resolved here and no step
    reads wire n."""
    xs, ys = array("i"), array("i")

    def comparator(x: int, y: int) -> list[int]:
        """Appends a step unless an input is the FALSE wire; returns the
        output wires, (lo, hi)."""
        if x == n or y == n:
            return [n, x + y - n]
        xs.append(x)
        ys.append(y)
        hi = n - 1 + 2 * len(xs)
        return [hi + 1, hi]

    def merge(a: list[int], b: list[int]) -> list[int]:
        """Batcher's odd-even merge of two ascending runs of the same
        power-of-two length; returns the ascending output wires."""
        if len(a) == 1:
            return comparator(a[0], b[0])
        even = merge(a[0::2], b[0::2])
        odd = merge(a[1::2], b[1::2])
        out = [even[0]]
        for i in range(1, len(a)):
            out += comparator(odd[i - 1], even[i])
        out.append(odd[-1])
        return out

    # Runs are kept ascending, the order merge works in. Ties go to the
    # older run: input runs by their first wire, below n, then merged runs
    # in the order they were made.
    heap = [
        (min(run, n - k), k, list(range(min(k + run, n) - 1, k - 1, -1)))
        for k in range(0, n, run)
    ]
    heapq.heapify(heap)
    order = n
    while len(heap) > 1:
        (na, _, a), (nb, _, b) = heapq.heappop(heap), heapq.heappop(heap)
        size = 1 << (max(na, nb) - 1).bit_length()
        merged = merge([n] * (size - na) + a, [n] * (size - nb) + b)
        heapq.heappush(heap, (na + nb, order, merged[2 * size - na - nb:]))
        order += 1
    outs = array("i", heap[0][2][::-1] if heap else ())
    return xs, ys, outs
