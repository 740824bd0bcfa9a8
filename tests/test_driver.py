import stat
from fractions import Fraction

import pytest

from conftest import requires_solver

from lgnsat import solver
from lgnsat.driver import check_attainable, search_min_kappa, sweep, verify_at
from lgnsat.encoder import ATTAINABLE, PropertyQuery, build_query
from lgnsat.errors import EncodingConsistencyError
from lgnsat.evaluator import (
    COUNTEREXAMPLE,
    FAIR,
    HOLDS,
    ROBUST,
    UNKNOWN,
    brute_force_min_kappa,
    brute_force_verify,
    enumerate_inputs,
    predict,
)
from lgnsat.netlist import OP_FALSE, Gate, Netlist, input_ref, random_netlist
from lgnsat.schema import CategoricalFeature, FeatureSchema, NumericFeature
from lgnsat.solver import SAT, UNSAT, SolveOutcome, SolverConfig


def small_schema():
    return FeatureSchema(
        (
            NumericFeature("v", 2, 0.0, 2.0),
            CategoricalFeature("s", 2, sensitive=True),
        )
    )


@requires_solver
class TestVerifyAt:
    def test_constant_net_holds(self, const_net, flip_schema, solver_config):
        verdict = verify_at(const_net, flip_schema, "robust", 0, Fraction(1, 2), solver_config)
        assert verdict.status == HOLDS
        assert verdict.witness is None
        assert verdict.stats.num_clauses > 0

    def test_flip_net_counterexample(self, flip_net, flip_schema, solver_config):
        verdict = verify_at(flip_net, flip_schema, "fair", 0, Fraction(1, 2), solver_config)
        assert verdict.status == COUNTEREXAMPLE
        assert verdict.witness.x.conf == 1

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("mode", ["fair", "robust"])
    def test_matches_oracle(self, seed, mode, solver_config):
        schema = small_schema()
        net = random_netlist(4, [5, 4], 2, 2, seed=seed)
        for eps in (0, 1):
            for kappa in (Fraction(1, 2), Fraction(3, 4), Fraction(99, 100)):
                expected = brute_force_verify(net, schema, mode, eps, kappa).status
                got = verify_at(net, schema, mode, eps, kappa, solver_config).status
                assert got == expected, (seed, mode, eps, kappa)


@requires_solver
class TestSearchMinKappa:
    def test_constant_net_two_probes(self, const_net, flip_schema, solver_config):
        result = search_min_kappa(const_net, flip_schema, "fair", 0, config=solver_config)
        assert result.converged
        assert result.kappa_star == Fraction(1, 2)
        assert len(result.queries) == 2
        assert result.note == "safe across whole bracket"

    def test_flip_net_converges_near_one(self, flip_net, flip_schema, solver_config):
        result = search_min_kappa(flip_net, flip_schema, "fair", 0, config=solver_config)
        assert result.converged
        assert 1 - result.kappa_star <= Fraction(1, 20)
        assert verify_at(
            flip_net, flip_schema, "fair", 0, result.kappa_star, solver_config
        ).status == HOLDS

    def test_result_invariants(self, flip_net, flip_schema, solver_config):
        result = search_min_kappa(flip_net, flip_schema, "fair", 0, config=solver_config)
        assert result.queries
        assert result.total_time == pytest.approx(
            sum(q.stats.wall_time for q in result.queries)
        )
        # verdicts are monotone along the probe log
        holds_kappas = [q.kappa for q in result.queries if q.status == HOLDS]
        ce_kappas = [q.kappa for q in result.queries if q.status == COUNTEREXAMPLE]
        assert all(h > c for h in holds_kappas for c in ce_kappas)

    def test_close_to_oracle(self, solver_config):
        schema = small_schema()
        for seed in range(8):
            net = random_netlist(4, [6, 4], 2, 2, seed=seed)
            result = search_min_kappa(net, schema, "fair", 1, config=solver_config)
            assert result.converged
            oracle = brute_force_min_kappa(net, schema, "fair", 1)
            assert abs(result.kappa_star - oracle) <= Fraction(1, 20), seed

    def test_bad_tolerance(self, flip_net, flip_schema):
        with pytest.raises(ValueError):
            search_min_kappa(flip_net, flip_schema, "fair", 0, tolerance=Fraction(0))

    def test_unknown_probe_aborts(self, flip_net, flip_schema, tmp_path):
        exe = tmp_path / "slow-solver"
        exe.write_text("#!/bin/sh\nsleep 60\n")
        exe.chmod(exe.stat().st_mode | stat.S_IEXEC)
        config = SolverConfig(executable=str(exe), timeout=0.2)
        result = search_min_kappa(flip_net, flip_schema, "fair", 0, config=config)
        assert not result.converged
        assert result.queries[-1].status == UNKNOWN
        assert "aborted" in result.note


@requires_solver
class TestAttainable:
    def test_confident_constant_net(self, const_sure_net, flip_schema, solver_config):
        # scores (1, 0): confidence 1 on every input
        assert check_attainable(const_sure_net, flip_schema, Fraction(99, 100), solver_config)
        assert not check_attainable(const_sure_net, flip_schema, Fraction(1), solver_config)

    def test_balanced_constant_net(self, const_net, flip_schema, solver_config):
        # scores (1, 1): confidence is exactly 1/2, strict comparison fails
        assert not check_attainable(const_net, flip_schema, Fraction(1, 2), solver_config)
        assert check_attainable(const_net, flip_schema, Fraction(49, 100), solver_config)

    @pytest.mark.parametrize("seed", range(8))
    def test_agrees_with_enumeration(self, seed, solver_config):
        schema = small_schema()
        net = random_netlist(4, [5, 4], 2, 2, seed=seed)
        confs = []
        for values in enumerate_inputs(schema):
            bits = schema.encode_values(values)
            _, scores, conf = predict(net, bits)
            if scores.total > 0:
                confs.append(conf)
        for kappa in (Fraction(1, 2), Fraction(3, 4), Fraction(9, 10), Fraction(1)):
            expected = any(c > kappa for c in confs)
            assert check_attainable(net, schema, kappa, solver_config) == expected


@requires_solver
class TestSweep:
    def test_flip_rows(self, flip_net, flip_schema, solver_config):
        rows = sweep(
            flip_net, flip_schema, "fair", 0,
            [Fraction(99, 100), Fraction(1, 2)], solver_config,
        )
        assert [r.status for r in rows] == [COUNTEREXAMPLE, COUNTEREXAMPLE]
        # rows come back sorted by kappa
        assert rows[0].kappa == Fraction(1, 2)

    def test_empty_list_rejected(self, flip_net, flip_schema):
        with pytest.raises(ValueError):
            sweep(flip_net, flip_schema, "fair", 0, [])

    def test_monotone_rows(self, solver_config):
        schema = small_schema()
        net = random_netlist(4, [5, 4], 2, 2, seed=3)
        kappas = [Fraction(k, 8) for k in range(4, 9)]
        rows = sweep(net, schema, "robust", 1, kappas, solver_config)
        statuses = [r.status for r in rows]
        if HOLDS in statuses:
            first = statuses.index(HOLDS)
            assert all(s == HOLDS for s in statuses[first:])


def forged_model(netlist, schema, query, *copy_bits):
    """A SAT outcome for ``query`` whose model gives each network copy the
    input bits listed for it, whether or not they satisfy the formula."""
    formula, varmap = build_query(netlist, schema, query)
    model = [False] * (formula.num_vars + 1)
    for copy, bits in zip(varmap.copies, copy_bits, strict=True):
        for lit, bit in zip(copy.inputs, bits, strict=True):
            model[abs(lit)] = bool(bit) == (lit > 0)
    return SolveOutcome(SAT, tuple(model), 0.0, 10, ())


def answer(monkeypatch, *outcomes):
    """Make the solver return ``outcomes``, one per call, in order."""
    replies = iter(outcomes)
    monkeypatch.setattr(solver, "solve", lambda formula, config=None: next(replies))


class TestRechecks:
    """Each concrete recheck of a SAT model turns a model the network does
    not bear out into EncodingConsistencyError, never into a finding."""

    half = Fraction(1, 2)

    def test_valid_forged_pair_is_a_counterexample(self, monkeypatch, flip_net, flip_schema):
        query = PropertyQuery(FAIR, 0, self.half)
        answer(monkeypatch, forged_model(flip_net, flip_schema, query, (1, 0), (0, 1)))
        verdict = verify_at(flip_net, flip_schema, FAIR, 0, self.half)
        assert verdict.status == COUNTEREXAMPLE
        assert (verdict.witness.x.bits, verdict.witness.x_prime.bits) == ((1, 0), (0, 1))

    @pytest.mark.parametrize("bits", [(0, 0), (1, 1)])
    def test_ill_formed_bits(self, monkeypatch, flip_net, flip_schema, bits):
        query = PropertyQuery(FAIR, 0, self.half)
        answer(monkeypatch, forged_model(flip_net, flip_schema, query, (1, 0), bits))
        with pytest.raises(EncodingConsistencyError, match="formed"):
            verify_at(flip_net, flip_schema, FAIR, 0, self.half)

    def test_ill_formed_attainability_witness(self, monkeypatch, flip_net, flip_schema):
        query = PropertyQuery(ATTAINABLE, 0, self.half)
        answer(monkeypatch, forged_model(flip_net, flip_schema, query, (1, 1)))
        with pytest.raises(EncodingConsistencyError, match="formed"):
            check_attainable(flip_net, flip_schema, self.half)

    def test_same_class(self, monkeypatch, const_sure_net, flip_schema):
        # Class 0 with confidence 1 everywhere; the pair meets Phi.
        query = PropertyQuery(FAIR, 0, self.half)
        answer(monkeypatch, forged_model(const_sure_net, flip_schema, query, (1, 0), (0, 1)))
        with pytest.raises(EncodingConsistencyError, match="same class"):
            verify_at(const_sure_net, flip_schema, FAIR, 0, self.half)

    def test_phi_violated(self, monkeypatch, flip_net, flip_schema):
        # Classes differ at confidence 1, but robust mode needs equal groups.
        query = PropertyQuery(ROBUST, 0, self.half)
        answer(monkeypatch, forged_model(flip_net, flip_schema, query, (1, 0), (0, 1)))
        with pytest.raises(EncodingConsistencyError, match="similarity predicate"):
            verify_at(flip_net, flip_schema, ROBUST, 0, self.half)

    def test_confidence_not_above_kappa(self, monkeypatch, flip_net, flip_schema):
        # A valid pair at confidence 1, which does not clear kappa = 1.
        query = PropertyQuery(FAIR, 0, Fraction(1))
        answer(monkeypatch, forged_model(flip_net, flip_schema, query, (1, 0), (0, 1)))
        with pytest.raises(EncodingConsistencyError, match="exceed kappa"):
            verify_at(flip_net, flip_schema, FAIR, 0, Fraction(1))

    def test_attainability_confidence_not_above_kappa(self, monkeypatch, const_net, flip_schema):
        # Scores (1, 1): confidence exactly 1/2, with output bits set.
        query = PropertyQuery(ATTAINABLE, 0, self.half)
        answer(monkeypatch, forged_model(const_net, flip_schema, query, (1, 0)))
        with pytest.raises(EncodingConsistencyError):
            check_attainable(const_net, flip_schema, self.half)

    def test_attainability_output_all_zero(self, monkeypatch, flip_schema):
        # Every output is 0, so the degenerate confidence 1/2 clears 1/4.
        zero_net = Netlist(
            2,
            ((Gate(OP_FALSE, input_ref(0), input_ref(0)),
              Gate(OP_FALSE, input_ref(0), input_ref(0))),),
            2,
            1,
        )
        kappa = Fraction(1, 4)
        query = PropertyQuery(ATTAINABLE, 0, kappa)
        answer(monkeypatch, forged_model(zero_net, flip_schema, query, (1, 0)))
        with pytest.raises(EncodingConsistencyError, match="total=0"):
            check_attainable(zero_net, flip_schema, kappa)

    def test_sweep_not_monotone(self, monkeypatch, flip_net, flip_schema):
        # Holds at 1/2, then a valid counterexample at the larger 3/4.
        query = PropertyQuery(FAIR, 0, Fraction(3, 4))
        answer(
            monkeypatch,
            SolveOutcome(UNSAT, None, 0.0, 20, ()),
            forged_model(flip_net, flip_schema, query, (1, 0), (0, 1)),
        )
        with pytest.raises(EncodingConsistencyError, match="not monotone"):
            sweep(flip_net, flip_schema, FAIR, 0, [Fraction(3, 4), self.half])
