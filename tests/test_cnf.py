import itertools
import random

import pytest

from helpers import (
    NAMED_OPS,
    OracleSorter,
    forced_values,
    gate_ref,
    input_ref,
    interpret,
)

from lgnsat.cnf import FALSE_LIT, TRUE_LIT, CnfBuilder, CnfFormula, to_dimacs
from lgnsat.netlist import Netlist, random_netlist


class TestBuilderBasics:
    def test_reserved_true(self):
        f = CnfBuilder().build()
        assert f.num_vars == 1
        assert f.clauses == ((1,),)
        assert to_dimacs(f) == b"p cnf 1 1\n1 0\n"

    def test_dimacs_deterministic(self):
        def build():
            b = CnfBuilder()
            x, y = b.new_var(), b.new_var()
            b.lit_or(x, y)
            return to_dimacs(b.build())

        assert build() == build()

    def test_tautology_elided(self):
        b = CnfBuilder()
        x = b.new_var()
        before = len(b.clauses)
        b.add_clause((x, -x))
        assert len(b.clauses) == before

    def test_duplicate_literals_collapse(self):
        b = CnfBuilder()
        x, y = b.new_var(), b.new_var()
        b.add_clause((x, x, y))
        assert b.clauses[-1] == (x, y)

    def test_constant_literals_simplified(self):
        b = CnfBuilder()
        x = b.new_var()
        before = len(b.clauses)
        b.add_clause((x, TRUE_LIT))       # satisfied, dropped
        assert len(b.clauses) == before
        b.add_clause((x, FALSE_LIT))      # falsified literal removed
        assert b.clauses[-1] == (x,)
        b.add_clause((FALSE_LIT,))        # explicit falsum survives
        assert b.clauses[-1] == (FALSE_LIT,)

    def test_no_clause_has_complementary_pair(self):
        b = CnfBuilder()
        out = b.encode_network(random_netlist(4, [6, 4], 2, 2, seed=3), b.new_vars(4))
        assert out
        for clause in b.build().clauses:
            assert not any(-lit in clause for lit in clause)

    def test_vars_contiguous(self):
        b = CnfBuilder()
        b.encode_network(random_netlist(4, [6, 4], 2, 2, seed=4), b.new_vars(4))
        f = b.build()
        used = {abs(l) for c in f.clauses for l in c}
        assert max(used) <= f.num_vars


class TestFolding:
    def test_and_or_constants(self):
        b = CnfBuilder()
        x = b.new_var()
        assert b.lit_and(x, TRUE_LIT) == x
        assert b.lit_and(x, FALSE_LIT) == FALSE_LIT
        assert b.lit_and(x, -x) == FALSE_LIT
        assert b.lit_or(x, FALSE_LIT) == x
        assert b.lit_or(x, TRUE_LIT) == TRUE_LIT
        assert b.lit_or(x, -x) == TRUE_LIT
        assert b.lit_xor(x, TRUE_LIT) == -x
        assert b.lit_xor(x, x) == FALSE_LIT
        assert len(b.build().clauses) == 1  # nothing but the TRUE unit


class TestEncodeGate:
    def test_pass_through_ops_fold(self):
        b = CnfBuilder()
        a, c = b.new_var(), b.new_var()
        assert b.encode_gate(12, a, c) == a
        assert b.encode_gate(3, a, c) == -a
        assert b.encode_gate(10, a, c) == c
        assert b.encode_gate(5, a, c) == -c
        assert b.encode_gate(0, a, c) == FALSE_LIT
        assert b.encode_gate(15, a, c) == TRUE_LIT
        assert len(b.build().clauses) == 1

    def test_and_clause_shape(self):
        b = CnfBuilder()
        a, c = b.new_var(), b.new_var()
        o = b.encode_gate(8, a, c)
        assert set(b.build().clauses[1:]) == {(-o, a), (-o, c), (o, -a, -c)}

    def test_at_most_four_clauses_per_op(self):
        for op in range(16):
            b = CnfBuilder()
            a, c = b.new_var(), b.new_var()
            b.encode_gate(op, a, c)
            assert len(b.build().clauses) - 1 <= 4

    def test_exhaustive_against_gate_truth(self):
        # 16 ops x 4 input assignments: unit-assuming the inputs must force
        # the output literal to the named table's value
        for op, fn in NAMED_OPS.items():
            b = CnfBuilder()
            a, c = b.new_var(), b.new_var()
            o = b.encode_gate(op, a, c)
            f = b.build()
            for va, vb in itertools.product((0, 1), repeat=2):
                got = forced_values(f, {a: bool(va), c: bool(vb)}, [o])
                assert got is not None, (op, va, vb)
                assert got[0] == fn(va, vb), (op, va, vb)


class TestEncodeNetwork:
    def test_constant_net_folds_completely(self):
        net = Netlist(
            1,
            (((15, input_ref(0), input_ref(0)),
              (0, input_ref(0), input_ref(0))),),
            2,
            1,
        )
        b = CnfBuilder()
        out = b.encode_network(net, b.new_vars(1))
        assert out == [TRUE_LIT, FALSE_LIT]
        assert len(b.build().clauses) == 1

    def test_clause_budget(self):
        net = random_netlist(6, [8, 8, 4], 2, 2, seed=11)
        b = CnfBuilder()
        b.encode_network(net, b.new_vars(6))
        assert len(b.build().clauses) <= 4 * net.num_gates + 1

    @pytest.mark.parametrize("seed", range(6))
    def test_outputs_match_forward_exhaustively(self, seed):
        net = random_netlist(5, [6, 4], 2, 2, seed=seed)
        b = CnfBuilder()
        in_lits = b.new_vars(5)
        out = b.encode_network(net, in_lits)
        f = b.build()
        for bits in itertools.product((0, 1), repeat=5):
            assumptions = {v: bool(x) for v, x in zip(in_lits, bits)}
            assert forced_values(f, assumptions, out) == interpret(net, bits)

    def test_wide_net_d8(self):
        net = random_netlist(8, [8, 6], 3, 2, seed=21)
        b = CnfBuilder()
        in_lits = b.new_vars(8)
        out = b.encode_network(net, in_lits)
        f = b.build()
        for bits in itertools.product((0, 1), repeat=8):
            assumptions = {v: bool(x) for v, x in zip(in_lits, bits)}
            assert forced_values(f, assumptions, out) == interpret(net, bits)


    def test_gate_outside_the_output_cone_is_not_encoded(self):
        i0, i1 = input_ref(0), input_ref(1)
        live = ((8, i0, i1), (14, i0, i1))
        outputs = ((6, gate_ref(0), gate_ref(1)), (7, gate_ref(0), gate_ref(1)))
        # The same net with an XOR (g2) that no output reads.
        dead = Netlist(2, (live + ((6, i0, i1),), outputs), 2, 1)
        pruned = Netlist(2, (live, outputs), 2, 1)
        assert [entry[0] for entry in dead.program] == [2, 3, 5, 6]

        sizes = []
        for net in (dead, pruned):
            b = CnfBuilder()
            in_lits = b.new_vars(2)
            out = b.encode_network(net, in_lits)
            f = b.build()
            sizes.append((f.num_vars, len(f.clauses)))
            for bits in itertools.product((0, 1), repeat=2):
                assumptions = {v: bool(x) for v, x in zip(in_lits, bits)}
                assert forced_values(f, assumptions, out) == interpret(net, bits)
        assert sizes[0] == sizes[1]


class TestSortBlock:
    def test_single_input_is_identity(self):
        b = CnfBuilder()
        x = b.new_var()
        assert b.sort_block([x]) == [x]

    def test_all_true_constants_fold(self):
        b = CnfBuilder()
        assert b.sort_block([TRUE_LIT] * 5) == [TRUE_LIT] * 5
        assert len(b.build().clauses) == 1

    @pytest.mark.parametrize("n", range(1, 9))
    def test_exhaustive_monotone_and_popcount(self, n):
        b = CnfBuilder()
        ins = b.new_vars(n)
        outs = b.sort_block(ins)
        f = b.build()
        assert len(outs) == n
        for bits in itertools.product((0, 1), repeat=n):
            assumptions = {v: bool(x) for v, x in zip(ins, bits)}
            s = forced_values(f, assumptions, outs)
            assert s is not None, (n, bits)
            assert s == sorted(s, reverse=True), (n, bits)
            assert sum(s) == sum(bits), (n, bits)

    def test_mixed_constants_fold_correctly(self):
        b = CnfBuilder()
        x = b.new_var()
        s = b.sort_block([FALSE_LIT, x, TRUE_LIT])
        f = b.build()
        for val in (False, True):
            got = forced_values(f, {x: val}, s)
            assert got == sorted([0, int(val), 1], reverse=True)


    @pytest.mark.parametrize("constants", (False, True))
    @pytest.mark.parametrize("run", (1, 2, 3))
    def test_runs_merge_monotone_and_popcount(self, run, constants):
        # Each run is descending: optional leading TRUE, free variables,
        # optional trailing FALSE; only descending assignments are tried.
        for num_runs in range(1, 5):
            for last in range(1, run + 1):
                b = CnfBuilder()
                runs, free = [], []
                for i in range(num_runs):
                    size = last if i == num_runs - 1 else run
                    head = [TRUE_LIT] if constants and i % 3 == 0 else []
                    tail = [FALSE_LIT] if constants and i % 3 == 1 else []
                    middle = b.new_vars(size - len(head) - len(tail))
                    runs.append(head + middle + tail)
                    free.append(middle)
                lits = [l for r in runs for l in r]
                outs = b.sort_block(lits, run=run)
                f = b.build()
                assert len(outs) == len(lits)
                for ones in itertools.product(*(range(len(m) + 1) for m in free)):
                    assumptions = {
                        v: k < n for m, n in zip(free, ones) for k, v in enumerate(m)
                    }
                    values = [
                        int(l == TRUE_LIT or assumptions.get(l, False)) for l in lits
                    ]
                    s = forced_values(f, assumptions, outs)
                    case = (run, num_runs, last, ones)
                    assert s == sorted(values, reverse=True), case

    def test_total_count_merge_budget(self):
        # Merging two sorted blocks of 500 costs far less than sorting
        # their 1,000 literals again (141,126 clauses).
        b = CnfBuilder()
        blocks = [b.sort_block(b.new_vars(500)) for _ in range(2)]
        before = len(b.clauses)
        b.sort_block(blocks[0] + blocks[1], run=500)
        assert len(b.clauses) - before <= 27_000

    def test_block_sort_budget(self):
        # No more clauses than Batcher's odd-even sort padded to 512.
        b = CnfBuilder()
        b.sort_block(b.new_vars(500))
        assert len(b.clauses) - 1 <= 57_066


class TestComparator:
    """A two-literal sort is one comparator, run by the same loop as every
    merge: (hi, lo) must be (lit_or, lit_and) of the pair."""

    @pytest.mark.parametrize("signs", itertools.product((1, -1), repeat=2))
    def test_fast_path_matches_or_and(self, signs):
        fast, slow = CnfBuilder(), CnfBuilder()
        for builder in (fast, slow):
            builder.new_vars(2)
        a, b = signs[0] * 2, signs[1] * 3
        assert fast.sort_block([a, b]) == [slow.lit_or(a, b), slow.lit_and(a, b)]
        assert fast.clauses == slow.clauses
        assert fast.num_vars == slow.num_vars == 5

    @pytest.mark.parametrize("signs", itertools.product((1, -1), repeat=2))
    @pytest.mark.parametrize("connective", ["lit_and", "lit_or", "lit_xor", "sort_block"])
    def test_direct_clauses_are_already_normalised(self, connective, signs):
        b = CnfBuilder()
        b.new_vars(2)
        pair = (signs[0] * 2, signs[1] * 3)
        if connective == "sort_block":
            b.sort_block(pair)
        else:
            getattr(b, connective)(*pair)
        appended = b.clauses[1:]
        b.clauses = [(TRUE_LIT,)]
        b.add_clauses(appended)
        assert b.clauses[1:] == appended

    def test_folding_unchanged(self):
        b = CnfBuilder()
        x = b.new_var()
        assert b.sort_block([x, TRUE_LIT]) == [TRUE_LIT, x]
        assert b.sort_block([FALSE_LIT, x]) == [x, FALSE_LIT]
        assert b.sort_block([x, x]) == [x, x]
        assert b.sort_block([-x, -x]) == [-x, -x]
        assert b.sort_block([x, -x]) == [TRUE_LIT, FALSE_LIT]
        assert b.sort_block([TRUE_LIT, FALSE_LIT]) == [TRUE_LIT, FALSE_LIT]
        assert b.num_vars == 2 and b.clauses == [(TRUE_LIT,)]


def _mixed_literals(rng: random.Random, n: int, num_vars: int) -> list[int]:
    """n literals over variables 2..num_vars and the constants, so that
    TRUE, FALSE, repeats and complementary pairs all turn up."""
    pool = [TRUE_LIT, FALSE_LIT] + [
        sign * v for v in range(2, num_vars + 1) for sign in (1, -1)
    ]
    return [rng.choice(pool) for _ in range(n)]


class TestSortBlockMatchesOracle:
    """sort_block gives the same literals, variables and clauses, in the same
    order, as the recursive odd-even merge in helpers."""

    @staticmethod
    def check(lits, run, num_vars):
        b = CnfBuilder()
        b.new_vars(num_vars - 1)
        oracle = OracleSorter(num_vars)
        assert b.sort_block(lits, run=run) == oracle.sort(lits, run=run)
        assert b.num_vars == oracle.num_vars
        assert b.clauses[1:] == oracle.clauses

    @pytest.mark.parametrize("run", (1, 2, 3))
    def test_mixed_inputs(self, run):
        # Up to 128 literals, so run=1 reaches merges of 64 wires a side.
        rng = random.Random(run)
        for n in range(1, 129):
            num_vars = rng.randint(2, max(2, n // 2))
            self.check(_mixed_literals(rng, n, num_vars), run, num_vars)

    @pytest.mark.parametrize("size", range(1, 65))
    def test_every_merge_size(self, size):
        # Two runs of ``size`` make one merge, padded to the next power of
        # two; a last run one shorter pads the two runs differently.
        rng = random.Random(size)
        for n in (2 * size, 2 * size - 1):
            num_vars = size + 1
            self.check(_mixed_literals(rng, n, num_vars), size, num_vars)
            self.check(list(range(2, n + 2)), size, n + 1)


class TestDimacs:
    def test_exact_bytes(self):
        b = CnfBuilder()
        x, y = b.new_var(), b.new_var()
        b.add_clause((x, -y))
        b.add_clause((-x,))
        b.add_clause((FALSE_LIT,))
        assert to_dimacs(b.build()) == b"p cnf 3 4\n1 0\n2 -3 0\n-2 0\n-1 0\n"

    def test_matches_one_join_per_clause(self):
        rng = random.Random(11)
        for _ in range(4):
            clauses = tuple(
                tuple(
                    rng.choice((-1, 1)) * rng.randint(1, 10**6)
                    for _ in range(rng.randint(1, 40))
                )
                for _ in range(500)
            )
            expected = f"p cnf {10**6} {len(clauses)}\n" + "".join(
                " ".join(map(str, c)) + " 0\n" for c in clauses
            )
            assert to_dimacs(CnfFormula(10**6, clauses)) == expected.encode("ascii")

    def test_empty_formula(self):
        assert to_dimacs(CnfFormula(0, ())) == b"p cnf 0 0\n"

    def test_long_clause(self):
        clause = tuple(range(-20, 0)) + tuple(range(1, 21))
        expected = "p cnf 20 1\n" + " ".join(map(str, clause)) + " 0\n"
        assert to_dimacs(CnfFormula(20, (clause,))) == expected.encode("ascii")

    def test_empty_clause_is_a_lone_zero(self):
        formula = CnfFormula(2, ((1,), (), (-2, 1)))
        assert to_dimacs(formula) == b"p cnf 2 3\n1 0\n0\n-2 1 0\n"

    def test_solver_round_trip(self, solver_config):
        from lgnsat.solver import solve

        b = CnfBuilder()
        x, y = b.new_var(), b.new_var()
        b.add_clause((x, y))
        b.add_clause((-x,))
        outcome = solve(b.build(), solver_config)
        assert outcome.status == "sat"
        assert outcome.model[y] is True
        assert outcome.model[x] is False
