import dataclasses
import itertools
import random
import tracemalloc

import pytest

from helpers import (
    NAMED_OPS,
    OracleSorter,
    forced_values,
    gate_ref,
    input_ref,
    interpret,
    reference_add_clause,
    render_dimacs,
)

from lgnsat import cnf
from lgnsat.cnf import FALSE_LIT, TRUE_LIT, CnfBuilder, CnfFormula, to_dimacs
from lgnsat.netlist import Netlist, random_netlist


class TestBuilderBasics:
    def test_reserved_true(self):
        f = CnfBuilder().build()
        assert f.num_vars == 1
        assert tuple(f.clauses) == ((1,),)
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
        assert tuple(b.clauses)[-1] == (x, y)

    def test_constant_literals_simplified(self):
        b = CnfBuilder()
        x = b.new_var()
        before = len(b.clauses)
        b.add_clause((x, TRUE_LIT))       # satisfied, dropped
        assert len(b.clauses) == before
        b.add_clause((x, FALSE_LIT))      # falsified literal removed
        assert tuple(b.clauses)[-1] == (x,)
        b.add_clause((FALSE_LIT,))        # explicit falsum survives
        assert tuple(b.clauses)[-1] == (FALSE_LIT,)

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
        assert set(tuple(b.build().clauses)[1:]) == {(-o, a), (-o, c), (o, -a, -c)}

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
        assert tuple(fast.clauses) == tuple(slow.clauses)
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
        appended = tuple(b.clauses)[1:]
        direct = b"".join(b.clauses.body)
        b.clauses = CnfBuilder().clauses
        for clause in appended:
            b.add_clause(clause)
        b.clauses.flush()
        assert b"".join(b.clauses.body) == direct

    def test_folding_unchanged(self):
        b = CnfBuilder()
        x = b.new_var()
        assert b.sort_block([x, TRUE_LIT]) == [TRUE_LIT, x]
        assert b.sort_block([FALSE_LIT, x]) == [x, FALSE_LIT]
        assert b.sort_block([x, x]) == [x, x]
        assert b.sort_block([-x, -x]) == [-x, -x]
        assert b.sort_block([x, -x]) == [TRUE_LIT, FALSE_LIT]
        assert b.sort_block([TRUE_LIT, FALSE_LIT]) == [TRUE_LIT, FALSE_LIT]
        assert b.num_vars == 2 and list(b.clauses) == [(TRUE_LIT,)]


def _mixed_literals(rng: random.Random, n: int, num_vars: int) -> list[int]:
    """n literals over variables 2..num_vars and the constants, so that
    TRUE, FALSE, repeats and complementary pairs all turn up."""
    pool = [TRUE_LIT, FALSE_LIT] + [
        sign * v for v in range(2, num_vars + 1) for sign in (1, -1)
    ]
    return [rng.choice(pool) for _ in range(n)]


def _check_sort(lits, run, num_vars):
    b = CnfBuilder()
    b.new_vars(num_vars - 1)
    oracle = OracleSorter(num_vars)
    assert b.sort_block(lits, run=run) == oracle.sort(lits, run=run)
    assert b.num_vars == oracle.num_vars
    assert list(b.clauses)[1:] == oracle.clauses


class TestSortBlockMatchesOracle:
    """sort_block gives the same literals, variables and clauses, in the same
    order, as the recursive odd-even merge in helpers."""

    @pytest.mark.parametrize("run", (1, 2, 3))
    def test_mixed_inputs(self, run):
        # Up to 128 literals, so run=1 reaches merges of 64 wires a side.
        rng = random.Random(run)
        for n in range(1, 129):
            num_vars = rng.randint(2, max(2, n // 2))
            _check_sort(_mixed_literals(rng, n, num_vars), run, num_vars)

    @pytest.mark.parametrize("size", range(1, 65))
    def test_every_merge_size(self, size):
        # Two runs of ``size`` make one merge, padded to the next power of
        # two; a last run one shorter pads the two runs differently.
        rng = random.Random(size)
        for n in (2 * size, 2 * size - 1):
            num_vars = size + 1
            _check_sort(_mixed_literals(rng, n, num_vars), size, num_vars)
            _check_sort(list(range(2, n + 2)), size, n + 1)


# (len(lits), run) of the sorts in the benchmark's queries: the Adult
# block sort and total count, and the ten-class ones.
BENCHMARK_SORTS = ((500, 1), (1000, 500), (100, 1), (1000, 100))


def _same_state(new: CnfBuilder, ref: CnfBuilder) -> None:
    new.clauses.flush()
    ref.clauses.flush()
    body = b"".join(new.clauses.body)
    assert body == b"".join(ref.clauses.body)
    assert body.count(b"\n") == len(new.clauses) == len(ref.clauses)
    assert new.num_vars == ref.num_vars


class TestSortBlockMatchesReference:
    """sort_block against the same oracle, the one sort reference, on run
    lengths 1, 2, 3, 5, 7 and n for every n up to 70, and on the sorts of
    the benchmark's queries."""

    @pytest.mark.parametrize("n", range(1, 71))
    def test_runs(self, n):
        rng = random.Random(n)
        for run in sorted({1, 2, 3, 5, 7, n}):
            num_vars = rng.randint(2, max(2, n // 2))
            _check_sort(_mixed_literals(rng, n, num_vars), run, num_vars)

    @pytest.mark.parametrize("n,run", BENCHMARK_SORTS)
    def test_benchmark_shapes(self, n, run):
        # Blocks are network outputs: variables with some constants among
        # them. A total count merges blocks that are already sorted.
        rng = random.Random(n * run)
        num_vars = 3 * n
        pool = [TRUE_LIT, FALSE_LIT] + list(range(2, num_vars + 1))
        lits = [rng.choice(pool) for _ in range(n)]
        if run > 1:
            b = CnfBuilder()
            b.new_vars(num_vars - 1)
            lits = [l for k in range(0, n, run) for l in b.sort_block(lits[k:k + run])]
            num_vars = b.num_vars
        _check_sort(lits, run, num_vars)

    def test_empty(self):
        _check_sort([], 1, 2)


class TestAddClauseMatchesReference:
    """add_clause normalises a clause as the list-based scan in helpers does,
    in linear time on long clauses."""

    @staticmethod
    def check(clauses):
        new, ref = CnfBuilder(), CnfBuilder()
        for b in (new, ref):
            b.new_vars(40)
        for clause in clauses:
            new.add_clause(clause)
            reference_add_clause(ref, clause)
        _same_state(new, ref)

    def test_random_clauses(self):
        # Lengths 0 to 48, with constants, duplicates and complementary pairs.
        rng = random.Random(5)
        for num_vars in (12, 40):
            pool = [TRUE_LIT, FALSE_LIT] + [s * v for v in range(2, num_vars) for s in (1, -1)]
            self.check([
                tuple(rng.choice(pool) for _ in range(length))
                for length in range(49)
                for _ in range(40)
            ])

    # The reference is quadratic in the distinct literals of a clause, so
    # the 20,000-literal clauses it checks repeat 500 variables.
    def test_long_clause_with_complementary_pair_at_the_end(self):
        lits = list(range(2, 502)) * 40
        self.check([lits + [-501], lits + [FALSE_LIT, -2]])

    def test_long_clause_with_duplicates(self):
        lits = [FALSE_LIT] + [-v for v in range(2, 502)] * 40
        self.check([lits, [FALSE_LIT] * 20_000, lits + [TRUE_LIT]])

    def test_long_distinct_clause(self):
        b = CnfBuilder()
        lits = list(range(2, 20_002))
        b.add_clause(lits + [-20_001])
        b.add_clause(lits + [FALSE_LIT])
        assert tuple(b.clauses) == ((TRUE_LIT,), tuple(lits)) and len(b.clauses) == 2


def test_program_cache_memory():
    # Comparator programs are int arrays: cached, the four benchmark sorts
    # hold under 1 MB, and tracing them peaks under 2 MB.
    cnf._sort_program.cache_clear()
    tracemalloc.start()
    try:
        programs = [cnf._sort_program(n, run) for n, run in BENCHMARK_SORTS]
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(programs) == 4
    assert held < 1_000_000
    assert peak < 2_000_000


@pytest.mark.parametrize(
    "shape,steps", zip(BENCHMARK_SORTS, (9_505, 4_489, 1_077, 13_657)), ids=str
)
def test_sort_program_resolves_false_padding(shape, steps):
    # A comparator with the padding wire n as an input always folds to
    # (the other input, FALSE), so it is resolved while the program is
    # traced and no step reads wire n.
    n = shape[0]
    xs, ys, _ = cnf._sort_program(*shape)
    assert len(xs) == len(ys) == steps
    assert n not in xs and n not in ys


class TestDimacs:
    def test_exact_bytes(self):
        b = CnfBuilder()
        x, y = b.new_var(), b.new_var()
        b.add_clause((x, -y))
        b.add_clause((-x,))
        b.add_clause((FALSE_LIT,))
        assert to_dimacs(b.build()) == b"p cnf 3 4\n1 0\n2 -3 0\n-2 0\n-1 0\n"

    def test_matches_one_join_per_clause(self):
        # Literals whose digits hold 0 and runs of empty clauses are the
        # cases a writer that found line ends by their 0s would get wrong.
        rng = random.Random(11)

        def clause(size):
            return tuple(
                rng.choice((-1, 1)) * rng.choice((10, 100, 10**6, rng.randint(1, 10**6)))
                for _ in range(size)
            )

        formulas = [
            (),
            ((),),
            ((), (3, -10)),
            ((1,), (), (-2, 10)),
            ((1,), (), (), (100,)),
            ((), (), (), (-100, 10**6), ()),
            ((10, -10, 100, -100, 10**6, -(10**6)),),
            tuple(clause(n) for n in range(1, 502)),
        ]
        formulas += [tuple(clause(rng.randint(1, 40)) for _ in range(500)) for _ in range(4)]
        for _ in range(300):
            formulas.append(tuple(
                clause(rng.choice((0, 0, 1, 2, 3, rng.randint(4, 60))))
                for _ in range(rng.randint(0, 30))
            ))
        for clauses in formulas:
            formula = CnfFormula(10**6, clauses)
            assert tuple(formula.clauses) == clauses
            assert to_dimacs(formula) == render_dimacs(10**6, clauses)

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


class TestClauseBookkeeping:
    """The builder counts clauses instead of counting line ends. Each test
    drives one builder through writers; after each step the body and the
    pending format hold a line per clause, the pending format a %d per
    pending literal, and once flushed the body alone holds every line. The
    DIMACS, header count included, is that of one join per clause, whether
    written from the body or from the clauses given as tuples."""

    @staticmethod
    def check(b):
        clauses = b.clauses
        assert clauses.fmt.count(b"%d") == len(clauses.lits)
        assert b"".join(clauses.body).count(b"\n") + clauses.fmt.count(b"\n") == len(clauses)
        listed = list(clauses)
        assert not clauses.lits and not clauses.fmt
        assert b"".join(clauses.body).count(b"\n") == len(clauses)
        expected = render_dimacs(b.num_vars, listed)
        assert to_dimacs(b.build()) == expected
        assert to_dimacs(CnfFormula(b.num_vars, listed)) == expected

    def test_every_writer(self):
        b = CnfBuilder()
        x, y, z, *rest = b.new_vars(40)
        steps = [
            (b.add_clause, ((x, -x),)),
            (b.add_clause, ((x, x, y),)),
            (b.add_clause, ((FALSE_LIT, FALSE_LIT),)),
            (b.add_clause, ((),)),
            (b.add_clause, ([FALSE_LIT, *rest, x, -z, *rest],)),
            *(
                (getattr(b, name), pair)
                for name in ("lit_and", "lit_or", "lit_xor")
                for pair in ((x, TRUE_LIT), (FALSE_LIT, y), (x, -x), (x, y), (-y, z))
            ),
            (b.sort_block, ([x, TRUE_LIT, -y, FALSE_LIT, z, x],)),
        ]
        for write, args in steps:
            write(*args)
            self.check(b)
        runs = b.sort_block([x, y, TRUE_LIT]) + b.sort_block([-z, FALSE_LIT, y, *rest[:3]])
        self.check(b)
        b.sort_block(runs, run=3)
        self.check(b)
        assert len(b.clauses) > 30

    @pytest.mark.parametrize("connective", ["lit_and", "lit_or", "lit_xor"])
    def test_connectives_folded_and_not(self, connective):
        b = CnfBuilder()
        x, y = b.new_vars(2)
        pairs = [(x, TRUE_LIT), (FALSE_LIT, y), (x, x), (x, -x), (x, y), (-x, -y)]
        for pair in pairs:
            before = len(b.clauses)
            getattr(b, connective)(*pair)
            self.check(b)
        assert len(b.clauses) > before  # the last pair did not fold

    def test_add_clause_normalisation(self):
        b = CnfBuilder()
        x, y = b.new_vars(2)
        for clause in [(x, -x), (x, x, y), (FALSE_LIT, FALSE_LIT), (), (x, TRUE_LIT), (-y,)]:
            b.add_clause(clause)
            self.check(b)
        assert len(b.clauses) == 5

    def test_sort_block_folds(self):
        b = CnfBuilder()
        x, y, z = b.new_vars(3)
        inputs = [
            [TRUE_LIT, FALSE_LIT, x],
            [TRUE_LIT] * 4,
            [x, x, y, y],
            [x, -x, y, -y],
            [FALSE_LIT, z, TRUE_LIT, -z, x],
            list(range(2, 5)) * 5,
        ]
        for lits in inputs:
            b.sort_block(lits)
            self.check(b)
        b.sort_block(b.sort_block([x, y]) + b.sort_block([-z, TRUE_LIT]), run=2)
        self.check(b)

    def test_sort_block_mixed(self):
        rng = random.Random(7)
        b = CnfBuilder()
        b.new_vars(8)
        for n in range(1, 40):
            b.sort_block(_mixed_literals(rng, n, 9), run=rng.randint(1, 4))
            self.check(b)


class TestBenchmarkContract:
    """What the benchmark reads of the builder and the formula, from
    outside the package: bench/tracing.py takes len(builder.clauses) at
    the start and end of each encoder span, and len(formula.clauses);
    bench/tests/test_bench.py corrupts a query by iterating
    formula.clauses as tuples and rendering dataclasses.replace(formula,
    clauses=...). The tracer wraps these callables by name, with the
    builder as their first argument."""

    def test_callables_the_tracer_wraps(self):
        import lgnsat.cnf
        import lgnsat.encoder

        for owner, name in [
            (CnfBuilder, "encode_network"),
            (CnfBuilder, "sort_block"),
            (lgnsat.cnf, "to_dimacs"),
            (lgnsat.encoder, "build_query"),
            *((lgnsat.encoder, f"emit_{family}") for family in (
                "well_formed", "winning", "diff_class", "confidence_gt",
                "prox", "same_cat", "diff_cat",
            )),
        ]:
            assert callable(getattr(owner, name)), name

    def test_len_partway_through_a_build(self):
        b = CnfBuilder()
        in_lits = b.new_vars(4)
        assert len(b.clauses) == 1
        out = b.encode_network(random_netlist(4, [6, 4], 2, 2, seed=3), in_lits)
        after_network = len(b.clauses)
        assert after_network == len(list(b.clauses)) > 1
        b.sort_block(out + in_lits)
        assert len(b.clauses) == len(list(b.clauses)) > after_network
        assert len(b.build().clauses) == len(b.clauses)

    def test_clauses_iterate_as_tuples(self):
        b = CnfBuilder()
        x, y = b.new_vars(2)
        b.lit_xor(x, y)
        clauses = list(b.build().clauses)
        assert all(type(clause) is tuple for clause in clauses)
        assert clauses[0] == (TRUE_LIT,) and len(clauses) == 5

    def test_replaced_clauses_are_rendered(self):
        b = CnfBuilder()
        x, y = b.new_vars(2)
        b.lit_and(x, y)
        formula = b.build()
        clauses = list(formula.clauses)
        clauses[1] = (-x, y)
        replaced = dataclasses.replace(formula, clauses=tuple(clauses))
        assert tuple(replaced.clauses) == tuple(clauses)
        assert to_dimacs(replaced) == render_dimacs(formula.num_vars, clauses)
        assert to_dimacs(replaced) != to_dimacs(formula)
