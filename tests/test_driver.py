import hashlib
import stat
from fractions import Fraction

import pytest

from helpers import (
    OP_FALSE,
    ORACLE_NETS,
    brute_force_min_kappa,
    brute_force_verify,
    encode_values,
    enumerate_inputs,
    input_ref,
    oracle_net,
    sleeping_solver,
    small_schema,
)

from lgnsat import driver, solver
from lgnsat.driver import check_attainable, search_min_kappa, sweep, verify_at
from lgnsat.cnf import to_dimacs
from lgnsat.encoder import ATTAINABLE, PropertyQuery, build_query
from lgnsat.errors import EncodingConsistencyError, QueryBuildError
from lgnsat.evaluator import (
    COUNTEREXAMPLE,
    FAIR,
    HOLDS,
    ROBUST,
    UNKNOWN,
    InputRecord,
    Verdict,
    Witness,
    predict,
)
from lgnsat.netlist import Netlist, random_netlist
from lgnsat.solver import SAT, UNSAT, SolveOutcome, SolverConfig


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

    @pytest.mark.parametrize("mode", [ATTAINABLE, "nearby"])
    @pytest.mark.parametrize("kappa", [Fraction(0), Fraction(1, 2), Fraction(1)])
    def test_only_fair_or_robust(self, monkeypatch, flip_net, flip_schema, mode, kappa):
        answer(monkeypatch)  # no replies: a solve would raise StopIteration
        with pytest.raises(QueryBuildError, match="fair.*robust"):
            verify_at(flip_net, flip_schema, mode, 0, kappa)
        with pytest.raises(QueryBuildError):
            search_min_kappa(flip_net, flip_schema, mode, 0)
        with pytest.raises(QueryBuildError):  # the bracket [1/2, 1] is within tolerance
            search_min_kappa(flip_net, flip_schema, mode, 0, tolerance=Fraction(1))
        with pytest.raises(QueryBuildError):
            sweep(flip_net, flip_schema, mode, 0, [kappa])


class TestSearchMinKappa:
    def test_constant_net_one_probe(self, const_net, flip_schema, solver_config):
        # Holds at the floor 1/C closes the bracket; 1 needs no probe
        result = search_min_kappa(const_net, flip_schema, "fair", 0, config=solver_config)
        assert result.converged
        assert result.kappa_star == result.kappa_lower == Fraction(1, 2)
        assert [(q.kappa, q.status) for q in result.queries] == [(Fraction(1, 2), HOLDS)]

    def test_flip_net_converges_near_one(self, flip_net, flip_schema, solver_config):
        result = search_min_kappa(flip_net, flip_schema, "fair", 0, config=solver_config)
        assert result.converged
        # the witness at 1/2 has confidence 1, which closes the bracket at 1
        assert result.kappa_star == result.kappa_lower == 1
        assert [q.kappa for q in result.queries] == [Fraction(1, 2)]
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
            result = search_min_kappa(net, schema, "fair", 1, 0, solver_config)
            assert result.converged
            oracle = brute_force_min_kappa(net, schema, "fair", 1)
            assert result.kappa_star == result.kappa_lower == oracle, seed

    def test_bad_tolerance(self, flip_net, flip_schema):
        with pytest.raises(ValueError):
            search_min_kappa(flip_net, flip_schema, "fair", 0, tolerance=Fraction(-1, 20))

    def test_unknown_probe_aborts(self, flip_net, flip_schema, tmp_path):
        exe = tmp_path / "slow-solver"
        exe.write_text("#!/bin/sh\nsleep 60\n")
        exe.chmod(exe.stat().st_mode | stat.S_IEXEC)
        config = SolverConfig(executable=str(exe), timeout=0.2)
        result = search_min_kappa(flip_net, flip_schema, "fair", 0, config=config)
        assert not result.converged
        assert [q.status for q in result.queries] == [UNKNOWN]
        # nothing was learned, so the bracket is still [1/C, 1]
        assert (result.kappa_lower, result.kappa_star) == (Fraction(1, 2), 1)


def assert_farey_probes(result, n):
    """Each probe and kappa* is a confidence a/t with t <= n = C*L, and no
    threshold is probed twice."""
    kappas = [q.kappa for q in result.queries]
    assert all(k.denominator <= n for k in kappas), kappas
    assert result.kappa_star.denominator <= n
    assert len(set(kappas)) == len(kappas), kappas


def recorded_digests(monkeypatch) -> list[str]:
    """The DIMACS sha256 of each formula handed to the solver, in order."""
    digests, solve = [], solver.solve

    def counting_solve(formula, config=None):
        digests.append(hashlib.sha256(to_dimacs(formula)).hexdigest())
        return solve(formula, config)

    monkeypatch.setattr(solver, "solve", counting_solve)
    return digests


class TestExactSearch:
    @pytest.mark.parametrize("mode", [FAIR, ROBUST])
    @pytest.mark.parametrize("classes,block_size", ORACLE_NETS)
    def test_zero_tolerance_is_the_oracle(self, classes, block_size, mode, solver_config):
        net, schema = oracle_net(classes, block_size)
        result = search_min_kappa(net, schema, mode, 1, 0, solver_config)
        assert result.converged
        oracle = brute_force_min_kappa(net, schema, mode, 1)
        assert result.kappa_star == result.kappa_lower == oracle
        assert all(q.kappa < 1 for q in result.queries)
        assert_farey_probes(result, classes * block_size)

    @pytest.mark.parametrize("mode", [FAIR, ROBUST])
    @pytest.mark.parametrize("classes,block_size", ORACLE_NETS)
    def test_bracket_holds_the_oracle(self, classes, block_size, mode, solver_config):
        net, schema = oracle_net(classes, block_size)
        tolerance = Fraction(1, 20)
        result = search_min_kappa(net, schema, mode, 1, tolerance, solver_config)
        assert result.converged
        oracle = brute_force_min_kappa(net, schema, mode, 1)
        assert result.kappa_lower <= oracle <= result.kappa_star
        assert result.kappa_star - result.kappa_lower <= tolerance
        assert all(q.kappa < 1 for q in result.queries)
        assert_farey_probes(result, classes * block_size)

    @pytest.mark.parametrize("mode", [FAIR, ROBUST])
    def test_no_formula_solved_twice(self, monkeypatch, mode, solver_config):
        # On this net two probes of each search give byte-identical formulas.
        net, schema = oracle_net(2, 5)
        digests = recorded_digests(monkeypatch)
        result = search_min_kappa(net, schema, mode, 1, 0, solver_config)
        assert result.kappa_star == brute_force_min_kappa(net, schema, mode, 1)
        assert len(digests) == len(set(digests))
        assert len(result.queries) > len(digests)
        reused = [q for q in result.queries if q.stats.wall_time == 0]
        assert len(reused) == len(result.queries) - len(digests)
        for q in reused:
            query = PropertyQuery(mode, 1, q.kappa)
            formula, _ = build_query(net, schema, query)
            assert q.status == HOLDS
            sizes = (len(formula.clauses), formula.num_vars)
            assert (q.stats.num_clauses, q.stats.num_vars) == sizes
            assert hashlib.sha256(to_dimacs(formula)).hexdigest() in digests

    def test_sat_formula_is_solved_again(self, monkeypatch, flip_net, flip_schema, solver_config):
        # Only UNSAT digests are kept, so a repeated SAT formula is solved and
        # rechecked each time.
        calls, solve = [], solver.solve
        monkeypatch.setattr(solver, "solve", lambda f, c=None: calls.append(f) or solve(f, c))
        unsat: set[bytes] = set()
        query = PropertyQuery(FAIR, 0, Fraction(1, 2))
        for _ in range(2):
            status, records, _ = driver._solve(flip_net, flip_schema, query, solver_config, unsat)
            assert status == SAT and records is not None
        assert len(calls) == 2 and not unsat

    def test_cut_short_bracket_holds_the_oracle(self, tmp_path):
        net, schema = oracle_net(3, 3)
        config = SolverConfig(str(sleeping_solver(tmp_path, answered=2)), timeout=2.0)
        result = search_min_kappa(net, schema, FAIR, 1, 0, config)
        assert not result.converged
        assert [q.status for q in result.queries][-1] == UNKNOWN
        assert len(result.queries) == 3
        oracle = brute_force_min_kappa(net, schema, FAIR, 1)
        assert result.kappa_lower <= oracle <= result.kappa_star
        assert result.kappa_lower < result.kappa_star


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
            bits = encode_values(schema, values)
            _, scores, conf = predict(net, bits)
            if sum(scores) > 0:
                confs.append(conf)
        for kappa in (Fraction(1, 2), Fraction(3, 4), Fraction(9, 10), Fraction(1)):
            expected = any(c > kappa for c in confs)
            assert check_attainable(net, schema, kappa, solver_config) == expected

    def test_timeout_is_unknown_not_unattainable(self, const_sure_net, flip_schema, tmp_path):
        exe = tmp_path / "slow-solver"
        exe.write_text("#!/bin/sh\nexec sleep 30\n")
        exe.chmod(exe.stat().st_mode | stat.S_IEXEC)
        config = SolverConfig(executable=str(exe), timeout=0.3)
        assert check_attainable(const_sure_net, flip_schema, Fraction(1, 2), config) is None


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

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("mode", [FAIR, ROBUST])
    def test_monotone_rows(self, monkeypatch, seed, mode, solver_config):
        # Every row matches the pair-loop oracle, and no formula is solved
        # twice: rows that a lower row settles get no solve.
        schema = small_schema()
        net = random_netlist(4, [6, 4], 2, 2, seed=seed)
        digests = recorded_digests(monkeypatch)
        kappas = [Fraction(k, 16) for k in range(8, 17)]
        rows = sweep(net, schema, mode, 1, kappas, solver_config)
        assert [r.kappa for r in rows] == kappas
        for r in rows:
            assert r.status == brute_force_verify(net, schema, mode, 1, r.kappa).status, r.kappa
        assert len(digests) == len(set(digests))

    def test_rows_above_a_holds_are_not_solved(self, monkeypatch):
        net, schema = oracle_net(2, 5)
        answer(monkeypatch, SolveOutcome(UNSAT, None, 0.5, 20, ()))
        kappas = [Fraction(1, 2), Fraction(3, 4), Fraction(1)]
        rows = sweep(net, schema, FAIR, 0, kappas)
        assert [r.status for r in rows] == [HOLDS] * 3
        assert [r.stats.wall_time for r in rows] == [0.5, 0, 0]
        for r in rows:
            formula, _ = build_query(net, schema, PropertyQuery(FAIR, 0, r.kappa))
            assert (r.stats.num_clauses, r.stats.num_vars) == (
                len(formula.clauses), formula.num_vars
            )

    def test_rows_below_a_witness_confidence_are_not_solved(
        self, monkeypatch, flip_net, flip_schema
    ):
        query = PropertyQuery(FAIR, 0, Fraction(1, 2))
        answer(monkeypatch, forged_model(flip_net, flip_schema, query, (1, 0), (0, 1)))
        kappas = [Fraction(1, 2), Fraction(3, 4), Fraction(99, 100)]
        rows = sweep(flip_net, flip_schema, FAIR, 0, kappas)
        assert [r.status for r in rows] == [COUNTEREXAMPLE] * 3
        assert rows[0].witness.x.conf == 1
        assert all(r.witness == rows[0].witness for r in rows)
        assert [r.stats.wall_time for r in rows[1:]] == [0, 0]

    def test_every_kappa_checked_before_a_solve(self, monkeypatch, flip_net, flip_schema):
        answer(monkeypatch)  # no replies: a solve would raise StopIteration
        with pytest.raises(QueryBuildError, match="kappa"):
            sweep(flip_net, flip_schema, FAIR, 0, [Fraction(1, 2), Fraction(3, 2)])


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
            (((OP_FALSE, input_ref(0), input_ref(0)),
              (OP_FALSE, input_ref(0), input_ref(0))),),
            2,
            1,
        )
        kappa = Fraction(1, 4)
        query = PropertyQuery(ATTAINABLE, 0, kappa)
        answer(monkeypatch, forged_model(zero_net, flip_schema, query, (1, 0)))
        with pytest.raises(EncodingConsistencyError, match="total=0"):
            check_attainable(zero_net, flip_schema, kappa)

    def test_search_holds_below_a_witness_confidence(self, monkeypatch):
        # Counterexample at 1/2 (confidence 3/5), Holds at 4/5, then a
        # counterexample at 7/10 whose witness has confidence 9/10 > 4/5.
        net = random_netlist(4, [10], 2, 5, seed=0)

        def record(conf):
            return InputRecord((), (), 0, conf)

        replies = iter([
            (Fraction(1, 2), COUNTEREXAMPLE, Fraction(3, 5)),
            (Fraction(4, 5), HOLDS, None),
            (Fraction(7, 10), COUNTEREXAMPLE, Fraction(9, 10)),
        ])

        def fake_verify(netlist, schema, mode, eps, kappa, config, unsat):
            expected, status, conf = next(replies)
            assert kappa == expected
            witness = Witness(record(conf), record(conf)) if conf else None
            return Verdict(status, kappa, witness)

        monkeypatch.setattr(driver, "_verify", fake_verify)
        with pytest.raises(EncodingConsistencyError, match="not monotone"):
            search_min_kappa(net, small_schema(), FAIR, 0)
