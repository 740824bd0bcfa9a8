import stat
from fractions import Fraction

import pytest

from conftest import requires_solver

from lgnsat.driver import check_attainable, search_min_kappa, sweep, verify_at
from lgnsat.evaluator import (
    COUNTEREXAMPLE,
    HOLDS,
    UNKNOWN,
    brute_force_min_kappa,
    brute_force_verify,
    enumerate_inputs,
    predict,
)
from lgnsat.netlist import Netlist, random_netlist
from lgnsat.schema import CategoricalFeature, FeatureSchema, NumericFeature
from lgnsat.solver import SolverConfig


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
            sum(q.wall_time for q in result.queries)
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
