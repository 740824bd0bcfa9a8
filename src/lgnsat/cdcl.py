#!/usr/bin/env python3
"""A small CDCL SAT solver that speaks the DIMACS solver protocol.

Usage: ``cdcl.py [IGNORED...] FILE.cnf``

It reads the DIMACS CNF file named by its last argument. On a satisfiable
formula it prints ``s SATISFIABLE`` and a full model on ``v`` lines ending
in ``0``, and exits 10; on an unsatisfiable one it prints
``s UNSATISFIABLE`` and exits 20. Its counters go to ``c`` lines. A missing
or malformed file exits 1.

The design follows MiniSat (Eén & Sörensson, "An Extensible SAT-solver",
SAT 2003): two watched literals, first-UIP clause learning with local
minimisation, VSIDS decisions taken from a heap, phase saving, Luby
restarts, and halving of the learnt clauses by LBD at restarts.

It is the last default backend of ``lgnsat.solver.find_solver``. It uses
only the standard library and imports nothing from lgnsat, so it runs as a
plain executable; it is much slower than kissat on large queries.

Literals are encoded as ``2*v`` for ``v`` and ``2*v + 1`` for ``-v``, so
``lit ^ 1`` is the negation and ``lit >> 1`` the variable.
"""

import heapq
import sys

RESTART_UNIT = 100  # conflicts per Luby unit
VAR_DECAY = 0.95
RESCALE_AT = 1e100


def luby(i):
    """The i-th element (from 0) of the Luby sequence 1 1 2 1 1 2 4 ..."""
    size, seq = 1, 0
    while size < i + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != i:
        size = (size - 1) >> 1
        seq -= 1
        i %= size
    return 1 << seq


def read_dimacs(text):
    """Return (num_vars, clauses) with clauses as lists of DIMACS ints."""
    num_vars = 0
    body = []
    for line in text.splitlines():
        if line.startswith("c"):
            continue
        if line.startswith("p"):
            fields = line.split()
            if len(fields) != 4 or fields[1] != "cnf":
                raise ValueError(f"bad problem line {line!r}")
            num_vars = int(fields[2])
            continue
        body.append(line)
    clauses, lits = [], []
    for tok in " ".join(body).split():
        lit = int(tok)
        if lit:
            lits.append(lit)
        else:
            clauses.append(lits)
            lits = []
    if lits:
        clauses.append(lits)
    top = max((abs(lit) for c in clauses for lit in c), default=0)
    return max(num_vars, top), clauses


class Solver:
    def __init__(self, num_vars, clauses):
        n = num_vars
        self.num_vars = n
        self.value = [0] * (2 * n + 2)  # per literal: 1 true, -1 false, 0 free
        self.level = [0] * (n + 1)
        self.reason = [None] * (n + 1)
        self.phase = [1] * (n + 1)  # saved polarity bit; 1 = negative first
        self.activity = [0.0] * (n + 1)
        self.var_inc = 1.0
        self.seen = [False] * (n + 1)
        self.watches = [[] for _ in range(2 * n + 2)]  # clauses watching lit
        self.trail, self.trail_lim, self.qhead = [], [], 0
        # Lazy max-heap of (-activity, var): every free variable has an
        # entry carrying its current activity; other entries are stale.
        # newest[v] is the activity of v's newest entry, None once popped.
        self.heap = [(0.0, v) for v in range(1, n + 1)]
        self.newest = [0.0] * (n + 1)
        self.learnts = []  # (lbd, clause)
        self.max_learnts = max(len(clauses) / 3, 1000)
        self.conflicts = self.decisions = self.propagations = self.restarts = 0
        self.ok = all(self.add_clause(c) for c in clauses)

    def add_clause(self, dimacs_lits):
        """Add an input clause at level 0; False when it makes the formula UNSAT."""
        value = self.value
        c = []
        for d in dimacs_lits:
            lit = 2 * d if d > 0 else 1 - 2 * d
            if value[lit] == 1 or (lit ^ 1) in c:
                return True  # satisfied at level 0, or a tautology
            if value[lit] == 0 and lit not in c:
                c.append(lit)
        if not c:
            return False
        if len(c) == 1:
            self.assign(c[0], None)
        else:
            self.watches[c[0]].append(c)
            self.watches[c[1]].append(c)
        return True

    def assign(self, lit, reason):
        v = lit >> 1
        self.value[lit], self.value[lit ^ 1] = 1, -1
        self.level[v] = len(self.trail_lim)
        self.reason[v] = reason
        self.trail.append(lit)

    def propagate(self):
        """Unit propagation; returns a falsified clause or None.

        A clause watches c[0] and c[1]; a reason clause has its implied
        literal at c[0].
        """
        value, watches, trail = self.value, self.watches, self.trail
        level, reason, current = self.level, self.reason, len(self.trail_lim)
        while self.qhead < len(trail):
            false_lit = trail[self.qhead] ^ 1
            self.qhead += 1
            self.propagations += 1
            ws = watches[false_lit]
            watches[false_lit] = kept = []
            for i, c in enumerate(ws):
                if c[0] == false_lit:
                    c[0], c[1] = c[1], false_lit
                first = c[0]
                if value[first] == 1:
                    kept.append(c)
                    continue
                for k in range(2, len(c)):
                    lit = c[k]
                    if value[lit] != -1:
                        c[1], c[k] = lit, false_lit
                        watches[lit].append(c)
                        break
                else:
                    kept.append(c)
                    if value[first] == -1:
                        kept.extend(ws[i + 1:])
                        self.qhead = len(trail)
                        return c
                    value[first], value[first ^ 1] = 1, -1
                    level[first >> 1], reason[first >> 1] = current, c
                    trail.append(first)
        return None

    def analyze(self, confl):
        """First-UIP learning: returns (clause, backjump level, lbd)."""
        seen, level, reason, trail = self.seen, self.level, self.reason, self.trail
        current = len(self.trail_lim)
        learnt = [0]  # slot for the asserting literal
        pending = 0
        idx = len(trail) - 1
        start = 0  # the conflict clause counts whole; a reason skips c[0]
        while True:
            for q in confl[start:]:
                v = q >> 1
                if not seen[v] and level[v] > 0:
                    seen[v] = True
                    self.bump(v)
                    if level[v] >= current:
                        pending += 1
                    else:
                        learnt.append(q)
            while not seen[trail[idx] >> 1]:
                idx -= 1
            p = trail[idx]
            idx -= 1
            seen[p >> 1] = False
            pending -= 1
            if pending == 0:
                break
            confl, start = reason[p >> 1], 1
        learnt[0] = p ^ 1
        # Local minimisation: drop a literal whose reason is covered by the rest.
        out = [learnt[0]]
        for q in learnt[1:]:
            r = reason[q >> 1]
            if r is None or any(not seen[l >> 1] and level[l >> 1] > 0 for l in r[1:]):
                out.append(q)
        for q in learnt[1:]:
            seen[q >> 1] = False
        if len(out) == 1:
            return out, 0, 1
        j = max(range(1, len(out)), key=lambda i: level[out[i] >> 1])
        out[1], out[j] = out[j], out[1]
        return out, level[out[1] >> 1], len({level[l >> 1] for l in out})

    def bump(self, v):
        self.activity[v] += self.var_inc
        if self.activity[v] > RESCALE_AT:
            self.activity = [a / RESCALE_AT for a in self.activity]
            self.var_inc /= RESCALE_AT
            self.rebuild_heap()

    def rebuild_heap(self):
        act, value = self.activity, self.value
        self.heap = [(-act[v], v) for v in range(1, self.num_vars + 1) if value[2 * v] == 0]
        heapq.heapify(self.heap)
        self.newest = [a if value[2 * v] == 0 else None for v, a in enumerate(act)]

    def backtrack(self, target):
        if len(self.trail_lim) <= target:
            return
        start = self.trail_lim[target]
        value, phase, act, heap = self.value, self.phase, self.activity, self.heap
        newest = self.newest
        for lit in self.trail[start:]:
            v = lit >> 1
            value[lit] = value[lit ^ 1] = 0
            phase[v] = lit & 1
            if newest[v] != act[v]:  # its newest entry is stale or popped
                heapq.heappush(heap, (-act[v], v))
                newest[v] = act[v]
        del self.trail[start:]
        del self.trail_lim[target:]
        self.qhead = start
        if len(heap) > 4 * self.num_vars + 1000:
            self.rebuild_heap()

    def decide(self):
        """Pick the free variable of highest activity; False when none is left."""
        heap, value, act, newest = self.heap, self.value, self.activity, self.newest
        while heap:
            neg, v = heapq.heappop(heap)
            if -neg == newest[v]:  # v's entries rise in activity: this was its newest
                newest[v] = None
            if value[2 * v] == 0 and -neg == act[v]:
                self.decisions += 1
                self.trail_lim.append(len(self.trail))
                self.assign(2 * v + self.phase[v], None)
                return True
        return False

    def search(self, budget):
        """CDCL until SAT (True), UNSAT (False) or `budget` conflicts (None)."""
        conflicts = 0
        while True:
            confl = self.propagate()
            if confl is None:
                if conflicts >= budget:
                    self.backtrack(0)
                    return None
                if not self.decide():
                    return True
                continue
            self.conflicts += 1
            conflicts += 1
            if not self.trail_lim:
                return False
            learnt, target, lbd = self.analyze(confl)
            self.backtrack(target)
            if len(learnt) == 1:
                self.assign(learnt[0], None)
            else:
                self.watches[learnt[0]].append(learnt)
                self.watches[learnt[1]].append(learnt)
                self.learnts.append((lbd, learnt))
                self.assign(learnt[0], learnt)
            self.var_inc /= VAR_DECAY

    def reduce_learnts(self):
        """At level 0: keep the better half of the learnt clauses and all with LBD <= 2."""
        self.learnts.sort(key=lambda e: (e[0], len(e[1])))
        half = len(self.learnts) // 2
        keep = self.learnts[:half] + [e for e in self.learnts[half:] if e[0] <= 2]
        gone = {id(c) for lbd, c in self.learnts[half:] if lbd > 2}
        self.learnts = keep
        for i, ws in enumerate(self.watches):
            self.watches[i] = [c for c in ws if id(c) not in gone]

    def solve(self):
        if not self.ok or self.propagate() is not None:
            return False
        while True:
            result = self.search(RESTART_UNIT * luby(self.restarts))
            if result is not None:
                return result
            self.restarts += 1
            if len(self.learnts) >= self.max_learnts:
                self.reduce_learnts()
                self.max_learnts *= 1.1

    def model(self):
        return [v if self.value[2 * v] == 1 else -v for v in range(1, self.num_vars + 1)]


def main(argv):
    if len(argv) < 2:
        print(f"usage: {argv[0]} [IGNORED...] FILE.cnf", file=sys.stderr)
        return 1
    try:
        with open(argv[-1], encoding="ascii") as f:
            num_vars, clauses = read_dimacs(f.read())
    except (OSError, UnicodeDecodeError, ValueError) as exc:
        print(f"c error: {exc}", file=sys.stderr)
        return 1
    solver = Solver(num_vars, clauses)
    sat = solver.solve()
    for name in ("conflicts", "decisions", "propagations", "restarts"):
        print(f"c {name}: {getattr(solver, name)}")
    if not sat:
        print("s UNSATISFIABLE")
        return 20
    print("s SATISFIABLE")
    tokens = [str(lit) for lit in solver.model()] + ["0"]
    for i in range(0, len(tokens), 20):
        print("v " + " ".join(tokens[i:i + 20]))
    return 10


if __name__ == "__main__":
    sys.exit(main(sys.argv))
