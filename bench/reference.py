"""Independent reference for the benchmark's correctness checks.

Nothing here imports lgnsat. The reference reads only documented file
formats: the netlist text format, DIMACS CNF and the varmap sidecar. It is
written against other primitives than the package: the op table spells out
named Boolean functions on row masks, the interpreter evaluates every row at
once (bit r of a Python int holds row r), and the CNF check runs unit
propagation for all input pairs at once (bit p of a mask holds pair p).
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from fractions import Fraction

# The 16 two-input Boolean functions by name, keyed by truth-table code, on
# row masks a and b; ``ones`` has a bit set for every row.
MASK_OPS = {
    0: lambda a, b, ones: 0,                   # false
    1: lambda a, b, ones: ones ^ (a | b),      # nor
    2: lambda a, b, ones: b & ~a,              # b and not a
    3: lambda a, b, ones: ones ^ a,            # not a
    4: lambda a, b, ones: a & ~b,              # a and not b
    5: lambda a, b, ones: ones ^ b,            # not b
    6: lambda a, b, ones: a ^ b,               # xor
    7: lambda a, b, ones: ones ^ (a & b),      # nand
    8: lambda a, b, ones: a & b,               # and
    9: lambda a, b, ones: ones ^ a ^ b,        # xnor
    10: lambda a, b, ones: b,                  # b
    11: lambda a, b, ones: b | (ones ^ a),     # a implies b
    12: lambda a, b, ones: a,                  # a
    13: lambda a, b, ones: a | (ones ^ b),     # b implies a
    14: lambda a, b, ones: a | b,              # or
    15: lambda a, b, ones: ones,               # true
}

_GATE = re.compile(r"\(\s*(\d+)\s*,\s*([ig])(\d+)\s*,\s*([ig])(\d+)\s*\)")


@dataclass(frozen=True)
class RefNet:
    """A netlist as read from its text file: gates in global id order."""

    num_classes: int
    block_size: int
    gates: tuple[tuple[int, bool, int, bool, int], ...]  # op, a_is_gate, a, b_is_gate, b

    @property
    def num_outputs(self) -> int:
        return self.num_classes * self.block_size


def read_netlist(text: str) -> RefNet:
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if lines[0] != "lgn 1":
        raise ValueError(f"not a netlist file: {lines[0]!r}")
    header = dict(ln.split() for ln in lines[1:4])
    gates = []
    for ln in lines[4:]:
        for op, ka, ia, kb, ib in _GATE.findall(ln):
            gates.append((int(op), ka == "g", int(ia), kb == "g", int(ib)))
    return RefNet(int(header["num_classes"]), int(header["block_size"]), tuple(gates))


def evaluate(net: RefNet, columns: list[int], num_rows: int) -> list[int]:
    """Output masks of the final ``C*L`` gates; ``columns[j]`` is the row
    mask of input bit j."""
    ones = (1 << num_rows) - 1
    values: list[int] = []
    for op, a_gate, a, b_gate, b in net.gates:
        va = values[a] if a_gate else columns[a]
        vb = values[b] if b_gate else columns[b]
        values.append(MASK_OPS[op](va, vb, ones))
    return values[-net.num_outputs:]


def row_scores(net: RefNet, outputs: list[int], num_rows: int) -> list[tuple[int, ...]]:
    """Per-row class scores: the popcount of each class block."""
    rows_first = [format(v, f"0{num_rows}b")[::-1] for v in outputs]
    L = net.block_size
    per_class = [
        [column.count("1") for column in zip(*rows_first[c * L:(c + 1) * L])]
        for c in range(net.num_classes)
    ]
    return list(zip(*per_class))


def decide(scores: tuple[int, ...]) -> tuple[int, Fraction]:
    """Class (lowest index among the best scores) and exact confidence; an
    all-zero output has confidence 1/C and class 0."""
    total = sum(scores)
    best = max(range(len(scores)), key=lambda c: (scores[c], -c))
    if total == 0:
        return 0, Fraction(1, len(scores))
    return best, Fraction(scores[best], total)


# -- feature specs: the benchmark's own description of the schema -----------


@dataclass(frozen=True)
class Feature:
    name: str
    kind: str  # "num" (thermometer over ``size`` bits) or "cat" (one-hot, arity ``size``)
    size: int
    sensitive: bool = False

    def domain(self) -> int:
        return self.size + 1 if self.kind == "num" else self.size

    def bits(self, value: int) -> list[int]:
        if self.kind == "num":
            return [1] * value + [0] * (self.size - value)
        return [1 if k == value else 0 for k in range(self.size)]


def input_bits(features, values) -> list[int]:
    bits: list[int] = []
    for f, v in zip(features, values):
        bits.extend(f.bits(v))
    return bits


def classify(net: RefNet, features, rows) -> list[tuple[int, Fraction]]:
    """(class, confidence) of every row of feature values."""
    n = len(rows)
    width = sum(f.size for f in features)
    columns = [0] * width
    for r, values in enumerate(rows):
        for j, bit in enumerate(input_bits(features, values)):
            if bit:
                columns[j] |= 1 << r
    outputs = evaluate(net, columns, n)
    return [decide(s) for s in row_scores(net, outputs, n)]


def similar(features, x, xp, eps: int, mode: str) -> bool:
    """The similarity predicate of a fair or robust query."""
    for f, a, b in zip(features, x, xp):
        if f.kind == "num":
            if abs(a - b) > eps:
                return False
        elif mode == "fair" and f.sensitive:
            if a == b:
                return False
        elif a != b:
            return False
    return True


# -- input pairs for the CNF check ------------------------------------------


@dataclass(frozen=True)
class Pair:
    x: tuple[int, ...]
    xp: tuple[int, ...]
    similar: bool
    x_class: int
    xp_class: int
    x_conf: Fraction

    def counterexample(self, kappa: Fraction) -> bool:
        return self.similar and self.x_conf > kappa and self.x_class != self.xp_class


def _neighbour(rng, features, x, eps: int, mode: str, violate: bool):
    xp = []
    for f, v in zip(features, x):
        if f.kind == "num":
            xp.append(min(f.size, max(0, v + rng.randint(-eps, eps))))
        elif mode == "fair" and f.sensitive:
            xp.append(rng.choice([c for c in range(f.size) if c != v]))
        else:
            xp.append(v)
    if violate:
        nums = [i for i, f in enumerate(features) if f.kind == "num"]
        i = rng.choice(nums)
        step = eps + 1
        xp[i] = x[i] + step if x[i] + step <= features[i].size else x[i] - step
    return tuple(xp)


def _sample_pairs(net: RefNet, features, eps: int, mode: str, rng, samples: int) -> list[Pair]:
    xs = [tuple(rng.randrange(f.domain()) for f in features) for _ in range(samples)]
    violate = [k % 4 == 3 for k in range(samples)]
    xps = [_neighbour(rng, features, x, eps, mode, v) for x, v in zip(xs, violate)]
    decided = classify(net, features, xs + xps)
    return [
        Pair(x, xp, similar(features, x, xp, eps, mode), x_class, xp_class, x_conf)
        for x, xp, (x_class, x_conf), (xp_class, _) in zip(xs, xps, decided, decided[samples:])
    ]


def choose_pairs(net: RefNet, features, eps: int, mode: str, seed: int):
    """Seeded input pairs and a threshold that splits them.

    Random networks rarely reach a confidence far above 1/C, so the query's
    own threshold leaves every pair a non-counterexample. The returned
    threshold is the median of the distinct confidences of the similar,
    class-changing pairs sampled, short of the largest. So some pairs are
    counterexamples at it, one sits exactly on it and some fall below it.
    A network that rarely changes class gets more samples.
    """
    rng = random.Random(seed)
    for samples in (1024, 4096, 16384):
        pairs = _sample_pairs(net, features, eps, mode, rng, samples)
        flips = [p for p in pairs if p.similar and p.x_class != p.xp_class]
        if flips:
            break
    else:
        raise RuntimeError("no similar class-changing pair among the samples")
    confs = sorted({p.x_conf for p in flips})
    if len(confs) > 1:
        kappa = confs[(len(confs) - 1) // 2]
    else:
        kappa = max((p.x_conf for p in pairs if p.x_conf < confs[0]), default=Fraction(0))

    def first(pred):
        return next((p for p in pairs if pred(p)), None)

    above = sorted((p for p in flips if p.x_conf > kappa), key=lambda p: p.x_conf)
    chosen = [
        above[0],
        above[-1],
        above[len(above) // 2],
        first(lambda p: p.similar and p.x_class != p.xp_class and p.x_conf == kappa),
        first(lambda p: p.similar and p.x_class != p.xp_class and p.x_conf < kappa),
        first(lambda p: p.similar and p.x_class == p.xp_class),
        first(lambda p: not p.similar and p.x_class != p.xp_class and p.x_conf > kappa),
    ]
    chosen = list(dict.fromkeys(p for p in chosen if p is not None))
    if all(p.counterexample(kappa) for p in chosen):
        raise RuntimeError("the sampled pairs hold no non-counterexample")
    return kappa, chosen


# -- DIMACS, varmap sidecar and unit propagation ----------------------------


def read_dimacs(data: bytes) -> tuple[int, int, list[tuple[int, ...]]]:
    """(declared vars, declared clauses, clauses)."""
    data = re.sub(rb"(?m)^c.*$", b"", data)
    header = re.search(rb"(?m)^p\s+cnf\s+(\d+)\s+(\d+)\s*$", data)
    if header is None:
        raise ValueError("missing 'p cnf' header")
    lits = list(map(int, data[header.end():].split()))
    if lits and lits[-1] != 0:
        raise ValueError("last clause is not terminated by 0")
    ends = [i for i, lit in enumerate(lits) if lit == 0]
    clauses = [tuple(lits[a + 1:b]) for a, b in zip([-1] + ends, ends)]
    return int(header.group(1)), int(header.group(2)), clauses


def read_sidecar(text: str) -> dict[str, list[int]]:
    roles = {}
    for line in text.splitlines():
        name, _, rest = line.partition(" ")
        if name in ("v_in", "v_in_prime"):
            roles[name] = [int(t) for t in rest.split()]
    return roles


def propagation_outcomes(num_vars: int, clauses, assumptions) -> list[bool]:
    """For each assumption set (literal -> bool), does unit propagation end
    conflict-free with every variable assigned and every clause satisfied?

    All sets propagate at once: T[v] and F[v] are masks of the sets in which
    variable v is derived true or false.
    """
    n = len(assumptions)
    full = (1 << n) - 1
    T = [0] * (num_vars + 1)
    F = [0] * (num_vars + 1)
    for p, assign in enumerate(assumptions):
        for lit, val in assign.items():
            if (lit > 0) == val:
                T[abs(lit)] |= 1 << p
            else:
                F[abs(lit)] |= 1 << p
    changed = True
    while changed:
        changed = False
        for clause in clauses:
            sat = 0
            falses = []
            for lit in clause:
                if lit > 0:
                    sat |= T[lit]
                    falses.append(F[lit])
                else:
                    sat |= F[-lit]
                    falses.append(T[-lit])
            live = full & ~sat
            if not live:
                continue
            k = len(clause)
            prefix = [live]
            for f in falses:
                prefix.append(prefix[-1] & f)
            suffix = full
            for j in range(k - 1, -1, -1):
                forced = prefix[j] & suffix & ~falses[j]
                if forced:
                    lit = clause[j]
                    changed = True
                    if lit > 0:
                        T[lit] |= forced
                    else:
                        F[-lit] |= forced
                suffix &= falses[j]
    ok = full
    for v in range(1, num_vars + 1):
        ok &= (T[v] | F[v]) & ~(T[v] & F[v])
    for clause in clauses:
        sat = 0
        for lit in clause:
            sat |= T[lit] if lit > 0 else F[-lit]
        ok &= sat
    return [bool(ok >> p & 1) for p in range(n)]


def check_query(dimacs: bytes, sidecar: str, features, pairs, kappa: Fraction) -> list[str]:
    """Compare propagation on a written query with the reference verdict of
    every pair; returns one message per disagreement."""
    num_vars, num_clauses, clauses = read_dimacs(dimacs)
    if num_clauses != len(clauses):
        return [f"header declares {num_clauses} clauses, file has {len(clauses)}"]
    roles = read_sidecar(sidecar)
    if set(roles) != {"v_in", "v_in_prime"}:
        return [f"sidecar lacks v_in or v_in_prime: has {sorted(roles)}"]
    assumptions = []
    for p in pairs:
        assign = dict(zip(roles["v_in"], map(bool, input_bits(features, p.x))))
        assign.update(zip(roles["v_in_prime"], map(bool, input_bits(features, p.xp))))
        assumptions.append(assign)
    outcomes = propagation_outcomes(num_vars, clauses, assumptions)
    return [
        f"pair {k}: propagation says {'sat' if got else 'conflict'}, reference "
        f"says {'counterexample' if p.counterexample(kappa) else 'none'} at kappa {kappa}"
        for k, (p, got) in enumerate(zip(pairs, outcomes))
        if got != p.counterexample(kappa)
    ]
