"""Independent oracles and tiny SAT utilities for the test suite.

Everything here is deliberately written against different primitives than
the package code: the op table spells out named Boolean functions instead
of indexing truth-table bits, the interpreter walks the DAG recursively
instead of sweeping layers, the sorting-network oracle builds Batcher's
merge recursively instead of running a traced program, the brute-force
verifier enumerates every well-formed input pair instead of calling a
solver, and the unit propagator checks encodings without the external
solver (full-equivalence Tseitin makes every auxiliary variable derivable
from a complete input assignment). ``reference_add_clause`` restates the
package's clause normaliser in its plainest form, a list scan, so tests can
require the very same clause stream. The named op codes and ``gate_truth``
are for building and reading test netlists, ``check_phi`` reads Phi on bit
vectors, ``sleeping_solver`` stands in for a solver that stops answering,
``lying_solver`` for one whose model is wrong, and ``running`` tells
whether a process these solvers started is still alive.
"""

from __future__ import annotations

import itertools
import os
import re
import sys
import time
from fractions import Fraction
from pathlib import Path

from lgnsat.errors import NetlistFormatError

from lgnsat.evaluator import (
    COUNTEREXAMPLE,
    FAIR,
    HOLDS,
    ROBUST,
    InputRecord,
    Verdict,
    VerdictStats,
    Witness,
    class_scores,
    confidence_of,
    phi_on_values,
    winner_of,
)
from lgnsat.netlist import Netlist
from lgnsat.schema import CategoricalFeature, FeatureSchema, NumericFeature
from lgnsat.solver import BUILTIN_SOLVER


def adult_schema() -> FeatureSchema:
    """The Adult-shaped schema: 100 input bits, two sensitive features."""
    return FeatureSchema(
        tuple(NumericFeature(f"num{i}", 10, 0.0, 11.0) for i in range(6))
        + tuple(CategoricalFeature(f"cat{i}", 8) for i in range(4))
        + (CategoricalFeature("sex", 2, True), CategoricalFeature("race", 6, True))
    )


def ten_class_schema() -> FeatureSchema:
    """The ten-class workload's schema: 60 input bits, no sensitive feature."""
    return FeatureSchema(
        tuple(NumericFeature(f"num{i}", 8, 0.0, 9.0) for i in range(5))
        + tuple(CategoricalFeature(f"cat{i}", 5) for i in range(4))
    )


def input_ref(index: int) -> int:
    """Gate-input ref of input bit ``index``."""
    return ~index


def gate_ref(index: int) -> int:
    """Gate-input ref of gate ``index`` (global id)."""
    return index

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

# Constant and pass-through op codes, for readability in test netlists.
OP_FALSE = 0
OP_PASS_A = 12
OP_TRUE = 15


def gate_truth(op: int, a: int, b: int) -> int:
    """Output of truth-table code ``op`` on bits (a, b): bit ``2*a + b`` of
    the code, as the netlist format defines it."""
    return (op >> (2 * a + b)) & 1


def interpret(netlist: Netlist, input_bits) -> list[int]:
    """Reference forward pass: recursive memoized DAG walk."""
    gates = [g for layer in netlist.layers for g in layer]
    memo: dict[int, int] = {}

    def value(ref):
        if ref < 0:
            return input_bits[~ref]
        if ref not in memo:
            op, a, b = gates[ref]
            memo[ref] = NAMED_OPS[op](value(a), value(b))
        return memo[ref]

    start = netlist.num_gates - netlist.num_outputs
    out = []
    for op, a, b in gates[start:]:
        out.append(NAMED_OPS[op](value(a), value(b)))
    return out


# -- layer-line parsing oracle ------------------------------------------------

_GATE = r"\(\s*(\d+)\s*,\s*(?:i(\d+)|g(\d+))\s*,\s*(?:i(\d+)|g(\d+))\s*\)"
_GATE_RE = re.compile(_GATE)
_LAYER_RE = re.compile(rf"\s*layer\s*(?:{_GATE}\s*)*")


def findall_parse_layer_line(lineno: int, line: str) -> tuple:
    """Reference layer-line parser: the whole-line match, then one findall
    over the gates it covers and three ``int`` calls per gate. Same errors,
    lines and columns as ``lgnsat.netlist._parse_layer_line``."""
    whole = _LAYER_RE.match(line)
    if whole is None:
        raise NetlistFormatError(
            f"expected 'layer ...', got {line.strip()!r}", line=lineno
        )
    end = whole.end()
    gates = tuple([
        (int(op), ~int(ia) if ia else int(ga), ~int(ib) if ib else int(gb))
        for op, ia, ga, ib, gb in _GATE_RE.findall(line, 0, end)
    ])
    if any(op > 15 for op, _, _ in gates):
        bad = next(m for m in _GATE_RE.finditer(line, 0, end) if int(m[1]) > 15)
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


# -- CNF utilities ------------------------------------------------------------


def render_dimacs(num_vars: int, clauses) -> bytes:
    """Reference DIMACS writer: one line per clause, each written on its
    own as its literals and a 0, after the header."""
    lines = [f"p cnf {num_vars} {len(clauses)}\n"]
    lines += ["".join(f"{lit} " for lit in clause) + "0\n" for clause in clauses]
    return "".join(lines).encode("ascii")


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


# -- sorting-network oracle -----------------------------------------------------


class OracleSorter:
    """Reference for ``CnfBuilder.sort_block``: Batcher's odd-even merge
    built recursively, each comparator an OR then an AND of two literals,
    folded on the constants 1 (TRUE) and -1 (FALSE). It numbers fresh
    variables from ``num_vars`` and collects clauses as the builder does, so
    both can be compared literal for literal."""

    def __init__(self, num_vars: int):
        self.num_vars = num_vars
        self.clauses: list[tuple[int, ...]] = []

    def _fresh(self) -> int:
        self.num_vars += 1
        return self.num_vars

    def _or(self, a: int, b: int) -> int:
        if a == 1 or b == 1 or a == -b:
            return 1
        if a == -1:
            return b
        if b == -1 or a == b:
            return a
        o = self._fresh()
        self.clauses.extend([(o, -a), (o, -b), (-o, a, b)])
        return o

    def _and(self, a: int, b: int) -> int:
        if a == -1 or b == -1 or a == -b:
            return -1
        if a == 1:
            return b
        if b == 1 or a == b:
            return a
        o = self._fresh()
        self.clauses.extend([(-o, a), (-o, b), (o, -a, -b)])
        return o

    def merge(self, a: list[int], b: list[int]) -> list[int]:
        """Merge two ascending runs of equal power-of-two length."""
        if len(a) == 1:
            hi = self._or(a[0], b[0])
            return [self._and(a[0], b[0]), hi]
        even = self.merge(a[0::2], b[0::2])
        odd = self.merge(a[1::2], b[1::2])
        out = [even[0]]
        for i in range(1, len(a)):
            hi = self._or(odd[i - 1], even[i])
            out += [self._and(odd[i - 1], even[i]), hi]
        return out + [odd[-1]]

    def sort(self, lits, run: int = 1) -> list[int]:
        """Descending sort of descending runs of ``run`` literals: merge the
        two shortest runs (ties by age) after padding both with FALSE to a
        shared power of two, and drop the padding from the low end."""
        lits = list(lits)
        pending = [
            (len(lits[k:k + run]), age, list(reversed(lits[k:k + run])))
            for age, k in enumerate(range(0, len(lits), run))
        ]
        age = len(pending)
        while len(pending) > 1:
            pending.sort(key=lambda entry: entry[:2])
            (na, _, a), (nb, _, b) = pending[0], pending[1]
            del pending[:2]
            size = 1
            while size < max(na, nb):
                size *= 2
            merged = self.merge([-1] * (size - na) + a, [-1] * (size - nb) + b)
            pending.append((na + nb, age, merged[2 * size - na - nb:]))
            age += 1
        return list(reversed(pending[0][2])) if pending else []


def reference_add_clause(builder, lits) -> None:
    """Reference for ``CnfBuilder.add_clause``: one scan that keeps the
    literals seen so far in a list."""
    seen: list[int] = []
    for lit in lits:
        if lit == 1:
            return
        if lit == -1:
            continue
        if -lit in seen:
            return
        if lit not in seen:
            seen.append(lit)
    if not seen:
        seen = [-1]
    builder.clauses.extend(seen, b"%d " * len(seen) + b"0\n", 1)


# -- brute-force verification oracles ------------------------------------------

# Pair-enumeration guard for the brute-force oracle.
MAX_PAIR_COUNT = 10**8


class InstanceTooLargeError(Exception):
    """The brute-force oracle would enumerate too many input pairs."""


def enumerate_inputs(schema: FeatureSchema):
    """All well-formed inputs in lexicographic feature-value order."""
    domains = [
        range(f.bits + 1) if isinstance(f, NumericFeature) else range(f.arity)
        for f in schema.features
    ]
    return itertools.product(*domains)


def well_formed_count(schema: FeatureSchema) -> int:
    w = 1
    for f in schema.features:
        w *= f.bits + 1 if isinstance(f, NumericFeature) else f.arity
    return w


def _guard(schema: FeatureSchema) -> int:
    w = well_formed_count(schema)
    if w * w > MAX_PAIR_COUNT:
        raise InstanceTooLargeError(
            f"{w}^2 well-formed pairs exceed the {MAX_PAIR_COUNT} oracle guard"
        )
    return w


def predict_rows(netlist: Netlist, rows) -> list[tuple[int, tuple[int, ...], Fraction]]:
    """``predict`` for every row, all rows evaluated in one ``class_scores``
    batch."""
    return [
        (winner_of(s), s, confidence_of(s, netlist.num_classes))
        for s in class_scores(netlist, rows)
    ]


def _prediction_table(netlist: Netlist, schema: FeatureSchema) -> list[InputRecord]:
    inputs = [(v, schema.encode_values(v)) for v in enumerate_inputs(schema)]
    predictions = predict_rows(netlist, [bits for _, bits in inputs])
    return [
        InputRecord(values, bits, cls, conf)
        for (values, bits), (cls, _, conf) in zip(inputs, predictions)
    ]


def check_phi(x_bits, x_prime_bits, schema: FeatureSchema, eps: int, mode: str) -> bool:
    """``phi_on_values`` on a pair of input bit vectors: ill-formed inputs
    raise DataError, and a mode other than fair or robust ValueError."""
    if mode not in (FAIR, ROBUST):
        raise ValueError(f"mode must be {FAIR!r} or {ROBUST!r}, got {mode!r}")
    values = schema.decode_bits(x_bits)
    values_p = schema.decode_bits(x_prime_bits)
    return phi_on_values(values, values_p, schema, eps, mode)


def brute_force_verify(
    netlist: Netlist, schema: FeatureSchema, mode: str, eps: int, kappa: Fraction
) -> Verdict:
    """Enumerate all well-formed ordered pairs (x, x'); Counterexample with
    the lexicographically first pair satisfying Phi and conf(f(x)) > kappa
    and f(x) != f(x'), else Holds. Comparisons are exact rationals, strict
    on kappa.
    """
    _guard(schema)
    kappa = Fraction(kappa)
    started = time.monotonic()
    table = _prediction_table(netlist, schema)
    for x in table:
        if not x.conf > kappa:
            continue
        for xp in table:
            if xp.cls == x.cls:
                continue
            if phi_on_values(x.values, xp.values, schema, eps, mode):
                stats = VerdictStats(wall_time=time.monotonic() - started)
                return Verdict(COUNTEREXAMPLE, kappa, Witness(x, xp), stats)
    stats = VerdictStats(wall_time=time.monotonic() - started)
    return Verdict(HOLDS, kappa, stats=stats)


def brute_force_min_kappa(
    netlist: Netlist, schema: FeatureSchema, mode: str, eps: int
) -> Fraction:
    """Maximum conf(f(x)) over all bad pairs (Phi holds, classes differ); the
    property holds exactly for kappa >= this value. Degenerate minimum 1/C
    when no bad pair exists.
    """
    _guard(schema)
    table = _prediction_table(netlist, schema)
    # Scanning x by descending confidence lets the first hit decide.
    for x in sorted(table, key=lambda r: r.conf, reverse=True):
        for xp in table:
            if xp.cls != x.cls and phi_on_values(x.values, xp.values, schema, eps, mode):
                return x.conf
    return Fraction(1, netlist.num_classes)


# -- solver stand-ins -----------------------------------------------------------


def sleeping_solver(tmp_path, answered: int = 0) -> Path:
    """A solver that hands its first ``answered`` calls to the built-in and
    sleeps through every later one. Each call writes its pid, which its
    ``exec`` keeps, to ``tmp_path / "pid"``."""
    counter = tmp_path / "calls"
    exe = tmp_path / "sleepy-solver"
    exe.write_text(
        "#!/bin/sh\n"
        f"echo $$ > '{tmp_path / 'pid'}'\n"
        f"calls=$(cat '{counter}' 2>/dev/null || echo 0)\n"
        f"echo $((calls + 1)) > '{counter}'\n"
        f"[ \"$calls\" -lt {answered} ] || exec sleep 30\n"
        f"exec '{sys.executable}' '{BUILTIN_SOLVER}' \"$1\"\n"
    )
    exe.chmod(0o755)
    return exe


def lying_solver(tmp_path) -> Path:
    """A solver that answers every query SATISFIABLE with the all-false
    model. That model breaks the query's TRUE unit clause, and its bits
    decode under no schema with a categorical feature."""
    exe = tmp_path / "lying-solver"
    exe.write_text(
        "#!/bin/sh\n"
        "echo 's SATISFIABLE'\n"
        "awk '/^p cnf/ { printf \"v\"; for (i = 1; i <= $3; i++) printf \" -%d\", i;"
        " print \" 0\"; exit }' \"$1\"\n"
        "exit 10\n"
    )
    exe.chmod(0o755)
    return exe


def running(pid: int) -> bool:
    """Whether ``pid`` names a live process. A zombie has ended: nothing may
    ever reap an orphan's. Without /proc, a pid that takes a signal is live."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        stat_line = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return not Path("/proc/self").exists()
    return stat_line.rsplit(")", 1)[1].split()[0] != "Z"
