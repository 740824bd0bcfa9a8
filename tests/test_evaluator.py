import itertools
import random
from fractions import Fraction

import pytest

from helpers import (
    InstanceTooLargeError,
    brute_force_min_kappa,
    brute_force_verify,
    check_phi,
    enumerate_inputs,
    gate_ref,
    input_ref,
    interpret,
    encode_values,
    predict_rows,
)

from lgnsat.errors import DataError
from lgnsat.evaluator import (
    COUNTEREXAMPLE,
    FAIR,
    HOLDS,
    ROBUST,
    _popcounts,
    class_scores,
    confidence_of,
    forward,
    predict,
    winner_of,
)
from lgnsat.netlist import Netlist, random_netlist
from lgnsat.schema import CategoricalFeature, FeatureSchema, NumericFeature


def all_score_lists():
    """Every score tuple of 2 to 5 classes with scores 0..5: 9,324 in all."""
    for n in range(2, 6):
        yield from itertools.product(range(6), repeat=n)


def const_block_net(block_values, num_classes, block_size, width=2) -> Netlist:
    """Final layer of constant gates producing the given per-class scores."""
    gates = []
    for score in block_values:
        gates.extend(
            (15 if k < score else 0, input_ref(0), input_ref(0))
            for k in range(block_size)
        )
    return Netlist(width, (tuple(gates),), num_classes, block_size)


class TestForward:
    def test_constant_outputs(self):
        net = const_block_net([1, 1], 2, 1)
        for bits in itertools.product((0, 1), repeat=2):
            assert forward(net, list(bits)) == [1, 1]

    def test_xor_duplicated(self):
        xor = (6, input_ref(0), input_ref(1))
        net = Netlist(2, ((xor, xor),), 2, 1)
        assert forward(net, [1, 0]) == [1, 1]
        assert forward(net, [1, 1]) == [0, 0]

    def test_width_mismatch(self):
        with pytest.raises(DataError):
            forward(const_block_net([1, 1], 2, 1), [0])

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_independent_interpreter(self, seed):
        net = random_netlist(6, [7, 5, 4], 2, 2, seed=seed)
        for bits in itertools.product((0, 1), repeat=6):
            assert forward(net, bits) == interpret(net, bits)

    def test_interpreter_agreement_wide(self):
        net = random_netlist(10, [8, 6], 3, 2, seed=99)
        for bits in itertools.product((0, 1), repeat=10):
            assert forward(net, bits) == interpret(net, bits)


class TestPredict:
    def test_granularity_boundary(self):
        # 150-vs-1 split: the largest confidence strictly below 1
        net = const_block_net([150, 1], 2, 151)
        cls, scores, conf = predict(net, [0, 0])
        assert cls == 0
        assert scores == (150, 1)
        assert conf == Fraction(150, 151)

    def test_tie_goes_to_lower_index(self):
        assert winner_of((2, 2, 1)) == 0
        assert confidence_of((2, 2, 1), 3) == Fraction(2, 5)

    def test_all_zero_is_degenerate(self):
        net = const_block_net([0, 0], 2, 1)
        cls, scores, conf = predict(net, [0, 0])
        assert cls == 0
        assert scores == (0, 0)
        assert conf == Fraction(1, 2)

    def test_winner_is_min_index_argmax(self):
        for scores in all_score_lists():
            w = winner_of(scores)
            assert all(scores[w] >= s for s in scores)
            assert all(w <= j for j, s in enumerate(scores) if s == scores[w])

    def test_confidence_bounds(self):
        for scores in all_score_lists():
            conf = confidence_of(scores, len(scores))
            assert Fraction(1, len(scores)) <= conf <= 1


def reference_prediction(net: Netlist, bits):
    """Class, scores and confidence from the independent interpreter."""
    out = interpret(net, bits)
    L = net.block_size
    scores = tuple(sum(out[c * L:(c + 1) * L]) for c in range(net.num_classes))
    total = sum(scores)
    if total == 0:
        return 0, scores, Fraction(1, net.num_classes)
    cls = min(c for c in range(net.num_classes) if scores[c] == max(scores))
    return cls, scores, Fraction(scores[cls], total)


def all_ops_net(num_classes: int, block_size: int) -> Netlist:
    """Every op code in the first layer, and again in the output layer."""
    first = tuple((op, input_ref(op % 4), input_ref((op + 1) % 4)) for op in range(16))
    out = tuple(
        (k % 16, gate_ref(k % 16), gate_ref((5 * k + 3) % 16))
        for k in range(num_classes * block_size)
    )
    return Netlist(4, (first, out), num_classes, block_size)


class TestBatchEvaluation:
    """class_scores evaluates all rows at once; each row must come out as
    the independent interpreter says, across the 64-bit word boundaries."""

    def check(self, net, rows):
        got = predict_rows(net, rows)
        assert len(got) == len(rows)
        for bits, (cls, scores, conf) in zip(rows, got):
            assert (cls, scores, conf) == reference_prediction(net, bits)
            assert forward(net, bits) == interpret(net, bits)

    # At a block size of 600 the scores run 224..415, across 255/256.
    @pytest.mark.parametrize("num_classes,block_size", [(2, 8), (3, 6), (2, 600)])
    @pytest.mark.parametrize("num_rows", [1, 63, 64, 65, 200])
    def test_all_op_codes(self, num_classes, block_size, num_rows):
        net = all_ops_net(num_classes, block_size)
        rng = random.Random(num_rows)
        rows = [tuple(rng.randrange(2) for _ in range(4)) for _ in range(num_rows)]
        self.check(net, rows)

    @pytest.mark.parametrize("num_classes", [2, 3])
    @pytest.mark.parametrize("num_rows", [1, 63, 64, 65, 200])
    def test_random_nets(self, num_classes, num_rows):
        net = random_netlist(10, [12, 9, 3 * num_classes], num_classes, 3, seed=num_rows)
        rng = random.Random(num_classes)
        rows = [tuple(rng.randrange(2) for _ in range(10)) for _ in range(num_rows)]
        self.check(net, rows)

    def test_all_zero_and_ties(self):
        # Outputs copy the inputs, one output per class: 00 is all-zero,
        # 11 is a tie, and both go to class 0 with confidence 1/2.
        net = Netlist(2, (((12, input_ref(0), input_ref(0)),
                           (12, input_ref(1), input_ref(1))),), 2, 1)
        rows = [(0, 0), (1, 1), (0, 1), (1, 0)] * 17
        got = predict_rows(net, rows)
        expected = {
            (0, 0): (0, (0, 0), Fraction(1, 2)),
            (1, 1): (0, (1, 1), Fraction(1, 2)),
            (0, 1): (1, (0, 1), Fraction(1)),
            (1, 0): (0, (1, 0), Fraction(1)),
        }
        assert got == [expected[r] for r in rows]

    def test_constant_blocks_in_batch(self):
        rows = [(r & 1, r >> 1 & 1) for r in range(65)]
        for scores, block_size, conf in [
            ((0, 0, 0), 2, Fraction(1, 3)),
            ((2, 2, 1), 2, Fraction(2, 5)),
            # Counts that need a second byte, and then a third.
            ((300, 256, 255), 300, Fraction(300, 811)),
            ((65536, 65535), 65536, Fraction(65536, 131071)),
        ]:
            net = const_block_net(scores, len(scores), block_size)
            assert set(predict_rows(net, rows)) == {(0, scores, conf)}

    # Block sizes 1 to 40 meet odd word counts and even ones, which take a
    # zero word, at each of their first weights.
    @pytest.mark.parametrize("num_rows", [1, 7, 64, 65])
    def test_popcounts_of_every_block_size(self, num_rows):
        rng = random.Random(num_rows)
        for size in range(1, 41):
            words = [rng.getrandbits(num_rows) for _ in range(size)]
            assert _popcounts(words, num_rows) == [
                sum(w >> r & 1 for w in words) for r in range(num_rows)
            ]

    def test_width_mismatch_in_any_row(self):
        # A short row among the rows leaves one word, where the net needs two.
        net = const_block_net([1, 1], 2, 1)
        with pytest.raises(DataError, match="^input width mismatch: got 1, expected 2$"):
            predict_rows(net, [(0, 0), (0,)])
        for words in ([0], [0, 0, 0]):
            with pytest.raises(DataError, match="input width mismatch"):
                class_scores(net, words, 2)


class TestCheckPhi:
    def schema(self):
        return FeatureSchema(
            (
                NumericFeature("v", 5, 0.0, 5.0),
                CategoricalFeature("c", 2),
                CategoricalFeature("s", 2, sensitive=True),
            )
        )

    def bits(self, v, c, s):
        return encode_values(self.schema(), (v, c, s))

    def test_reflexive_robust(self):
        x = self.bits(3, 1, 0)
        for eps in range(4):
            assert check_phi(x, x, self.schema(), eps, ROBUST)

    def test_fair_requires_sensitive_difference(self):
        x = self.bits(3, 1, 0)
        assert not check_phi(x, x, self.schema(), 0, FAIR)
        assert check_phi(x, self.bits(3, 1, 1), self.schema(), 0, FAIR)

    def test_thermometer_distance(self):
        a, b = self.bits(3, 0, 0), self.bits(5, 0, 0)
        assert not check_phi(a, b, self.schema(), 1, ROBUST)
        assert check_phi(a, b, self.schema(), 2, ROBUST)

    def test_nonsensitive_categorical_must_match(self):
        assert not check_phi(
            self.bits(3, 0, 0), self.bits(3, 1, 1), self.schema(), 3, FAIR
        )

    def test_ill_formed_rejected(self):
        bad = [0, 1, 0, 0, 0] + [1, 0] + [1, 0]
        with pytest.raises(DataError):
            check_phi(bad, bad, self.schema(), 0, ROBUST)

    def test_bad_mode_rejected(self):
        x = self.bits(0, 0, 0)
        with pytest.raises(ValueError):
            check_phi(x, x, self.schema(), 0, "nearby")

    def test_symmetric(self):
        schema = self.schema()
        inputs = [self.bits(*v) for v in itertools.product(range(6), range(2), range(2))]
        for x, y, eps, mode in itertools.product(inputs, inputs, range(4), (FAIR, ROBUST)):
            assert check_phi(x, y, schema, eps, mode) == check_phi(y, x, schema, eps, mode)


class TestBruteForce:
    def test_constant_net_holds(self, const_net, mixed_schema):
        net = Netlist(5, const_net.layers, 2, 1)
        for mode in (FAIR, ROBUST):
            for kappa in (Fraction(0), Fraction(1, 2), Fraction(99, 100)):
                assert brute_force_verify(net, mixed_schema, mode, 1, kappa).status == HOLDS
        assert brute_force_min_kappa(net, mixed_schema, FAIR, 1) == Fraction(1, 2)

    def test_flip_net_counterexample(self, flip_net, flip_schema):
        verdict = brute_force_verify(flip_net, flip_schema, FAIR, 0, Fraction(1, 2))
        assert verdict.status == COUNTEREXAMPLE
        w = verdict.witness
        assert w.x.cls != w.x_prime.cls
        assert w.x.conf == 1
        # first pair in lexicographic enumeration order
        assert w.x.values == (0,)
        assert w.x_prime.values == (1,)

    def test_flip_net_min_kappa_is_one(self, flip_net, flip_schema):
        assert brute_force_min_kappa(flip_net, flip_schema, FAIR, 0) == 1
        # conf > 1 is impossible, so the property is safe only at kappa = 1
        assert brute_force_verify(flip_net, flip_schema, FAIR, 0, Fraction(1)).status == HOLDS

    @pytest.mark.parametrize("seed", range(6))
    def test_min_kappa_is_the_exact_boundary(self, seed, mixed_schema):
        net = random_netlist(5, [6, 4], 2, 2, seed=seed)
        cl = net.num_outputs
        for mode in (FAIR, ROBUST):
            v = brute_force_min_kappa(net, mixed_schema, mode, 1)
            assert brute_force_verify(net, mixed_schema, mode, 1, v).status == HOLDS
            if v > Fraction(1, 2):
                just_below = v - Fraction(1, cl * (cl + 1))
                assert (
                    brute_force_verify(net, mixed_schema, mode, 1, just_below).status
                    == COUNTEREXAMPLE
                )

    def test_guard_rejects_huge_instances(self):
        schema = FeatureSchema(
            tuple(NumericFeature(f"n{i}", 20, 0.0, 20.0) for i in range(4))
        )
        net = random_netlist(80, [4, 2], 2, 1, seed=0)
        with pytest.raises(InstanceTooLargeError):
            brute_force_verify(net, schema, ROBUST, 1, Fraction(1, 2))

    def test_enumeration_is_lexicographic(self, mixed_schema):
        values = list(enumerate_inputs(mixed_schema))
        assert values == sorted(values)
        assert len(values) == 4 * 2
