import hashlib
import itertools
import tracemalloc
from fractions import Fraction

import pytest

from helpers import (
    ORACLE_NETS,
    adult_schema,
    bcp_satisfiable,
    count_models,
    forced_values,
    models_over,
    oracle_net,
    ten_class_schema,
)

from lgnsat.cnf import CnfBuilder, to_dimacs
from lgnsat.encoder import (
    PropertyQuery,
    build_query,
    emit_confidence_gt,
    emit_diff_cat,
    emit_diff_class,
    emit_prox,
    emit_same_cat,
    emit_well_formed,
    emit_winning,
)
from lgnsat.errors import QueryBuildError
from lgnsat.evaluator import confidence_of, winner_of
from lgnsat.netlist import random_netlist
from lgnsat.schema import CategoricalFeature, FeatureSchema, NumericFeature


def thermometer(width, value):
    return tuple(1 if k < value else 0 for k in range(width))


class TestWellFormed:
    @pytest.mark.parametrize("bits", range(1, 7))
    def test_thermometer_model_count(self, bits):
        schema = FeatureSchema((NumericFeature("v", bits, 0.0, bits),))
        b = CnfBuilder()
        lits = b.new_vars(bits)
        emit_well_formed(b, schema, lits)
        models = set(models_over(b.build(), lits))
        expected = {
            tuple(bool(x) for x in thermometer(bits, v)) for v in range(bits + 1)
        }
        assert models == expected
        assert len(models) == bits + 1

    def test_single_bit_needs_no_clauses(self):
        schema = FeatureSchema((NumericFeature("v", 1, 0.0, 1.0),))
        b = CnfBuilder()
        emit_well_formed(b, schema, b.new_vars(1))
        assert len(b.build().clauses) == 1

    @pytest.mark.parametrize("arity", range(2, 6))
    def test_one_hot_model_count(self, arity):
        schema = FeatureSchema((CategoricalFeature("c", arity),))
        b = CnfBuilder()
        lits = b.new_vars(arity)
        emit_well_formed(b, schema, lits)
        assert count_models(b.build(), lits) == arity


class TestProx:
    def test_eps_zero_is_equivalence(self):
        b = CnfBuilder()
        t, t2 = b.new_vars(3), b.new_vars(3)
        emit_prox(b, 0, t, t2)
        clauses = set(tuple(b.build().clauses)[1:])
        assert clauses == {
            c for k in range(3) for c in ((-t[k], t2[k]), (-t2[k], t[k]))
        }

    def test_spec_example_values_3_and_5(self):
        for eps, expected in ((1, False), (2, True)):
            b = CnfBuilder()
            t, t2 = b.new_vars(5), b.new_vars(5)
            emit_prox(b, eps, t, t2)
            assumptions = {
                **{v: bool(x) for v, x in zip(t, thermometer(5, 3))},
                **{v: bool(x) for v, x in zip(t2, thermometer(5, 5))},
            }
            assert bcp_satisfiable(b.build(), assumptions) == expected

    def test_eps_at_least_width_is_vacuous(self):
        b = CnfBuilder()
        emit_prox(b, 4, b.new_vars(4), b.new_vars(4))
        assert len(b.build().clauses) == 1

    @pytest.mark.parametrize("bits,eps", [(b, e) for b in range(1, 7) for e in range(4)])
    def test_models_are_exactly_close_pairs(self, bits, eps):
        schema = FeatureSchema((NumericFeature("v", bits, 0.0, bits),))
        b = CnfBuilder()
        t, t2 = b.new_vars(bits), b.new_vars(bits)
        emit_well_formed(b, schema, t)
        emit_well_formed(b, schema, t2)
        emit_prox(b, eps, t, t2)
        models = set(models_over(b.build(), t + t2))
        expected = {
            tuple(map(bool, thermometer(bits, v) + thermometer(bits, w)))
            for v in range(bits + 1)
            for w in range(bits + 1)
            if abs(v - w) <= eps
        }
        assert models == expected


class TestCategorical:
    def build(self, arity, diff):
        b = CnfBuilder()
        c, c2 = b.new_vars(arity), b.new_vars(arity)
        schema = FeatureSchema((CategoricalFeature("c", arity),))
        emit_well_formed(b, schema, c)
        emit_well_formed(b, schema, c2)
        (emit_diff_cat if diff else emit_same_cat)(b, c, c2)
        return b.build(), c, c2

    def test_two_categories(self):
        f, c, c2 = self.build(2, diff=True)
        assert bcp_satisfiable(f, dict(zip(c + c2, (True, False, False, True))))
        assert not bcp_satisfiable(f, dict(zip(c + c2, (True, False, True, False))))
        f, c, c2 = self.build(2, diff=False)
        assert bcp_satisfiable(f, dict(zip(c + c2, (True, False, True, False))))
        assert not bcp_satisfiable(f, dict(zip(c + c2, (True, False, False, True))))

    @pytest.mark.parametrize("arity", range(2, 5))
    def test_diff_model_count(self, arity):
        f, c, c2 = self.build(arity, diff=True)
        assert count_models(f, c + c2) == arity * (arity - 1)

    @pytest.mark.parametrize("arity", range(2, 5))
    def test_same_model_count(self, arity):
        f, c, c2 = self.build(arity, diff=False)
        assert count_models(f, c + c2) == arity


class TestWinning:
    def winners_for(self, scores, block_size):
        b = CnfBuilder()
        blocks = [b.new_vars(block_size) for _ in scores]
        winners = emit_winning(b, [tuple(blk) for blk in blocks])
        f = b.build()
        assumptions = {}
        for blk, score in zip(blocks, scores):
            for v, x in zip(blk, thermometer(block_size, score)):
                assumptions[v] = bool(x)
        return forced_values(f, assumptions, winners)

    def test_clear_winner(self):
        assert self.winners_for((2, 1), 2) == [1, 0]

    def test_tie_goes_to_lower_index(self):
        assert self.winners_for((1, 1), 1) == [1, 0]
        assert self.winners_for((2, 2, 2), 3) == [1, 0, 0]

    @pytest.mark.parametrize("block_size", [1, 2, 3])
    @pytest.mark.parametrize("num_classes", [2, 3, 4, 5])
    def test_exhaustive_matches_evaluator(self, num_classes, block_size):
        for scores in itertools.product(range(block_size + 1), repeat=num_classes):
            got = self.winners_for(scores, block_size)
            assert got is not None, scores
            assert sum(got) == 1, scores
            assert got.index(1) == winner_of(scores), scores


class TestDiffClass:
    def test_pairwise(self):
        b = CnfBuilder()
        w, w2 = b.new_vars(2), b.new_vars(2)
        emit_diff_class(b, w, w2)
        f = b.build()
        same = dict(zip(w + w2, (True, False, True, False)))
        diff = dict(zip(w + w2, (True, False, False, True)))
        assert not bcp_satisfiable(f, same)
        assert bcp_satisfiable(f, diff)

    @pytest.mark.parametrize("num_classes", [2, 3, 4])
    def test_models_are_differing_class_pairs(self, num_classes):
        # with both winner encodings present, models project to exactly the
        # score assignments whose predicted classes differ
        b = CnfBuilder()
        blocks = [b.new_vars(2) for _ in range(num_classes)]
        blocks2 = [b.new_vars(2) for _ in range(num_classes)]
        w = emit_winning(b, [tuple(x) for x in blocks])
        w2 = emit_winning(b, [tuple(x) for x in blocks2])
        emit_diff_class(b, w, w2)
        f = b.build()
        for s1 in itertools.product(range(3), repeat=num_classes):
            for s2 in itertools.product(range(3), repeat=num_classes):
                assumptions = {}
                for blk, score in zip(blocks + blocks2, s1 + s2):
                    for v, x in zip(blk, thermometer(2, score)):
                        assumptions[v] = bool(x)
                expected = winner_of(s1) != winner_of(s2)
                assert bcp_satisfiable(f, assumptions) == expected, (s1, s2)


class TestConfidence:
    def satisfiable_at(self, scores, block_size, kappa):
        b = CnfBuilder()
        blocks = [b.new_vars(block_size) for _ in scores]
        flat = [v for blk in blocks for v in blk]
        sorted_blocks = [tuple(b.sort_block(blk)) for blk in blocks]
        total = b.sort_block(flat)
        emit_confidence_gt(b, Fraction(kappa), sorted_blocks, total)
        f = b.build()
        assumptions = {}
        for blk, score in zip(blocks, scores):
            for v, x in zip(blk, thermometer(block_size, score)):
                assumptions[v] = bool(x)
        return bcp_satisfiable(f, assumptions)

    def test_kappa_one_admits_only_all_zero(self):
        for scores in itertools.product(range(3), repeat=2):
            expected = sum(scores) == 0
            assert self.satisfiable_at(scores, 2, Fraction(1)) == expected

    def test_paper_granularity_boundary(self):
        # scores (150, 1): 150/151 beats 0.99 but nothing at or above 150/151
        assert self.satisfiable_at((150, 1), 151, Fraction(99, 100))
        assert not self.satisfiable_at((150, 1), 151, Fraction(150, 151))

    @pytest.mark.parametrize("block_size", [1, 2, 3])
    def test_exhaustive_against_score_ratio(self, block_size):
        for scores in itertools.product(range(block_size + 1), repeat=2):
            for k in range(9):
                kappa = Fraction(k, 8)
                got = self.satisfiable_at(scores, block_size, kappa)
                if sum(scores) == 0:
                    # all-zero output: the bare constraint is vacuous
                    assert got
                else:
                    assert got == (confidence_of(scores, 2) > kappa), (scores, kappa)

    @pytest.mark.parametrize("mode", ["fair", "robust"])
    @pytest.mark.parametrize("classes,block_size", ORACLE_NETS)
    def test_query_reads_kappa_only_at_farey_steps(self, classes, block_size, mode):
        # No fraction a/t with t <= C*L lies in (7/10, 71/100], so the two
        # give one formula; 1/C adds the some-output-bit-set clause.
        net, schema = oracle_net(classes, block_size)

        def dimacs(kappa):
            return to_dimacs(build_query(net, schema, PropertyQuery(mode, 1, kappa))[0])

        assert dimacs(Fraction(7, 10)) == dimacs(Fraction(71, 100))
        floor = Fraction(1, classes)
        assert dimacs(floor) != dimacs(floor - Fraction(1, 1000))

    def test_monotone_in_kappa(self):
        for scores in itertools.product(range(3), repeat=2):
            sat_at = [
                self.satisfiable_at(scores, 2, Fraction(k, 8)) for k in range(9)
            ]
            # once unsatisfiable, stays unsatisfiable for larger kappa
            assert sat_at == sorted(sat_at, reverse=True), scores


class TestBuildQuery:
    def test_fair_needs_sensitive(self):
        schema = FeatureSchema((CategoricalFeature("c", 2),))
        net = random_netlist(2, [2], 2, 1, seed=0)
        with pytest.raises(QueryBuildError):
            build_query(net, schema, PropertyQuery("fair", 0, Fraction(1, 2)))

    def test_width_mismatch_rejected(self):
        schema = FeatureSchema((CategoricalFeature("c", 3),))
        net = random_netlist(2, [2], 2, 1, seed=0)
        from lgnsat.errors import InvalidNetlistError

        with pytest.raises(InvalidNetlistError):
            build_query(net, schema, PropertyQuery("robust", 0, Fraction(1, 2)))

    def test_bad_query_values(self):
        with pytest.raises(QueryBuildError):
            PropertyQuery("fair", -1, Fraction(1, 2))
        with pytest.raises(QueryBuildError):
            PropertyQuery("fair", 0, Fraction(3, 2))
        with pytest.raises(QueryBuildError):
            PropertyQuery("nearby", 0, Fraction(1, 2))

    def test_bookkeeping_counts(self, flip_net, flip_schema):
        formula, varmap = build_query(
            flip_net, flip_schema, PropertyQuery("fair", 0, Fraction(1, 2))
        )
        used = {abs(l) for c in formula.clauses for l in c}
        assert max(used) <= formula.num_vars
        assert len(formula.clauses) >= 1
        assert varmap.copies[0].inputs and varmap.copies[1].inputs
        in_vars = {abs(l) for l in varmap.copies[0].inputs}
        in2_vars = {abs(l) for l in varmap.copies[1].inputs}
        assert not in_vars & in2_vars

    def test_sidecar_lists_all_roles(self, flip_net, flip_schema):
        _, varmap = build_query(
            flip_net, flip_schema, PropertyQuery("fair", 0, Fraction(1, 2))
        )
        text = varmap.sidecar()
        for role in ("v_in", "v_in_prime", "v_out", "v_out_prime",
                     "sorted_block.0", "total_sorted", "winner", "winner_prime"):
            assert role in text
        blocks = range(flip_net.num_classes)
        assert [line.split()[0] for line in text.splitlines()] == [
            "mode", "eps", "kappa", "v_in", "v_in_prime", "v_out", "v_out_prime",
            *(f"sorted_block.{c}" for c in blocks),
            *(f"sorted_block_prime.{c}" for c in blocks),
            "total_sorted", "winner", "winner_prime",
        ]
        _, single = build_query(
            flip_net, flip_schema, PropertyQuery("attainable", 0, Fraction(1, 2))
        )
        assert [line.split()[0] for line in single.sidecar().splitlines()] == [
            "mode", "eps", "kappa", "v_in", "v_out",
            *(f"sorted_block.{c}" for c in blocks), "total_sorted",
        ]


class TestPinnedQueryBytes:
    """DIMACS and sidecar bytes of three seeded queries, pinned so that a
    change meant to speed up the encoder cannot change what it writes."""

    @pytest.mark.parametrize(
        "schema, shape, query, dimacs_sha, sidecar_sha",
        [
            (
                adult_schema(),
                (100, [2000, 2000, 2000, 1000], 2, 500),
                PropertyQuery("fair", 1, Fraction(3, 4)),
                "5bf3d478391788531b26c3d7ec6cac36b462f964bb1cff36e70e91180b9baf5a",
                "597e2f19bbfa07a81d0fb27e783d1786ef0b25abefe23e0fbf90d1c92bcf3371",
            ),
            (
                ten_class_schema(),
                (60, [1000, 1000, 1000], 10, 100),
                PropertyQuery("robust", 1, Fraction(1, 2)),
                "6037d26a25f077838c835a8e5d5b9287335454c8aa0701b3b66b0259fa52252b",
                "2068f79954d15f1f1ee7e5033b1a3b67fe2b6d26619155a04e222c9f66c3e21d",
            ),
            (
                ten_class_schema(),
                (60, [1000, 1000, 500], 5, 100),
                PropertyQuery("robust", 1, Fraction(2, 5)),
                "6da52c5dcc673606fead5dceffd4ff35be0b9d4d53cf8f82efa589c68e2b330c",
                "e6027ba2c873ed31ab264bcf0b467b2aba203e58c65af132e97ca9b2e29a8108",
            ),
        ],
        ids=["adult-fair", "ten-class-robust", "five-class-robust"],
    )
    def test_dimacs_and_sidecar(self, schema, shape, query, dimacs_sha, sidecar_sha):
        net = random_netlist(*shape, seed=1)
        formula, varmap = build_query(net, schema, query)
        assert hashlib.sha256(to_dimacs(formula)).hexdigest() == dimacs_sha
        assert hashlib.sha256(varmap.sidecar().encode()).hexdigest() == sidecar_sha


def _adult_fair_query():
    net = random_netlist(100, [2000, 2000, 2000, 1000], 2, 500, seed=2)
    return net, adult_schema(), PropertyQuery("fair", 1, Fraction(3, 4))


def test_adult_query_clause_count_matches_stream():
    # The builder counts sort_block's clauses from the variables it made
    # (6 clauses per 2); the count must still match the lines of the
    # formula's body chunks and the DIMACS header on a full Adult-shaped query.
    formula, _ = build_query(*_adult_fair_query())
    header = to_dimacs(formula).split(b"\n", 1)[0].split()
    assert len(formula.clauses) == b"".join(formula.clauses.body).count(b"\n") == int(header[3])
    assert len(formula.clauses) > 100_000


def test_adult_query_memory():
    # Clauses are formatted into DIMACS lines as each network and sort is
    # written, so no query holds all its literals as Python ints: the
    # build and DIMACS write peak under 10 MB, and the finished formula,
    # measured as what dropping it frees, holds under 4 MB.
    query = _adult_fair_query()
    tracemalloc.start()
    try:
        formula = build_query(*query)[0]
        dimacs = to_dimacs(formula)
        with_formula, peak = tracemalloc.get_traced_memory()
        del formula
        held = with_formula - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(dimacs) > 2_000_000
    assert peak < 10_000_000
    assert held < 4_000_000
