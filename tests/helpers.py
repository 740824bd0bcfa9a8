"""Independent oracles and tiny SAT utilities for the test suite.

Everything here is deliberately written against different primitives than
the package code: the op table spells out named Boolean functions instead
of indexing truth-table bits, the interpreter walks the DAG recursively
instead of sweeping layers, and the unit propagator checks encodings
without the external solver (full-equivalence Tseitin makes every
auxiliary variable derivable from a complete input assignment).
"""

from __future__ import annotations

import itertools

from lgnsat.netlist import Netlist

# The 16 two-input Boolean functions by name, keyed by truth-table code.
NAMED_OPS = {
    0: lambda a, b: 0,                       # false
    1: lambda a, b: int(not (a or b)),       # nor
    2: lambda a, b: int(b and not a),        # b and not a
    3: lambda a, b: int(not a),              # not a
    4: lambda a, b: int(a and not b),        # a and not b
    5: lambda a, b: int(not b),              # not b
    6: lambda a, b: a ^ b,                   # xor
    7: lambda a, b: int(not (a and b)),      # nand
    8: lambda a, b: int(a and b),            # and
    9: lambda a, b: int(not (a ^ b)),        # xnor
    10: lambda a, b: b,                      # b
    11: lambda a, b: int(b or not a),        # a implies b
    12: lambda a, b: a,                      # a
    13: lambda a, b: int(a or not b),        # b implies a
    14: lambda a, b: int(a or b),            # or
    15: lambda a, b: 1,                      # true
}


def interpret(netlist: Netlist, input_bits) -> list[int]:
    """Reference forward pass: recursive memoized DAG walk."""
    gates = [g for layer in netlist.layers for g in layer]
    memo: dict[int, int] = {}

    def value(ref):
        if ref < 0:
            return input_bits[~ref]
        if ref not in memo:
            g = gates[ref]
            memo[ref] = NAMED_OPS[g.op](value(g.in_a), value(g.in_b))
        return memo[ref]

    start = netlist.num_gates - netlist.num_outputs
    out = []
    for gid in range(start, netlist.num_gates):
        g = gates[gid]
        out.append(NAMED_OPS[g.op](value(g.in_a), value(g.in_b)))
    return out


# -- CNF utilities ------------------------------------------------------------


def unit_propagate(clauses, assumptions: dict[int, bool]):
    """Propagate units to fixpoint; returns the extended assignment or None
    on conflict."""
    assign = dict(assumptions)
    changed = True
    while changed:
        changed = False
        for clause in clauses:
            unassigned = []
            satisfied = False
            for lit in clause:
                val = assign.get(abs(lit))
                if val is None:
                    unassigned.append(lit)
                elif (lit > 0) == val:
                    satisfied = True
                    break
            if satisfied:
                continue
            if not unassigned:
                return None
            if len(unassigned) == 1:
                lit = unassigned[0]
                assign[abs(lit)] = lit > 0
                changed = True
    return assign


def lit_val(assign, lit: int) -> int:
    if lit == 1:
        return 1
    if lit == -1:
        return 0
    return int(assign[abs(lit)]) ^ (lit < 0)


def _complete(formula, assign) -> None:
    free = {abs(l) for c in formula.clauses for l in c} - set(assign)
    if free:
        raise AssertionError(
            f"BCP left variables free ({sorted(free)[:5]}...): encoding is "
            "not fully input-determined"
        )


def forced_values(formula, assumptions: dict[int, bool], lits):
    """BCP from a complete-input assumption set; read back literal values.

    Returns None on conflict; raises if a requested non-constant literal is
    left unassigned (a full-equivalence violation).
    """
    assign = unit_propagate(formula.clauses, {1: True, **assumptions})
    if assign is None:
        return None
    out = []
    for lit in lits:
        if lit not in (1, -1) and abs(lit) not in assign:
            raise AssertionError(f"literal {lit} not derived by BCP")
        out.append(lit_val(assign, lit))
    return out


def bcp_satisfiable(formula, assumptions: dict[int, bool]) -> bool:
    """Does the formula hold once BCP from the assumptions fixes everything?

    Sound only when the assumptions determine the whole model, which our
    fully-equivalent encodings guarantee for complete input assignments.
    """
    assign = unit_propagate(formula.clauses, {1: True, **assumptions})
    if assign is None:
        return False
    _complete(formula, assign)
    return all(
        any((lit > 0) == assign[abs(lit)] for lit in clause)
        for clause in formula.clauses
    )


def models_over(formula, variables):
    """Enumerate assignments of ``variables`` that extend (via BCP over the
    remaining, functionally-determined vars) to a model of the formula."""
    for bits in itertools.product([False, True], repeat=len(variables)):
        assumptions = {1: True, **dict(zip(variables, bits))}
        assign = unit_propagate(formula.clauses, assumptions)
        if assign is None:
            continue
        _complete(formula, assign)
        if all(
            any((lit > 0) == assign[abs(lit)] for lit in clause)
            for clause in formula.clauses
        ):
            yield bits


def count_models(formula, variables) -> int:
    return sum(1 for _ in models_over(formula, variables))
