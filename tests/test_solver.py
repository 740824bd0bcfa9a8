import ast
import os
import random
import stat
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import models_over

from lgnsat import solver as solver_module
from lgnsat.cnf import CnfBuilder
from lgnsat.driver import verify_at
from lgnsat.encoder import PropertyQuery, build_query
from lgnsat.errors import SolverNotFoundError, SolverOutputError
from lgnsat.evaluator import COUNTEREXAMPLE, check_phi
from lgnsat.netlist import random_netlist
from lgnsat.schema import CategoricalFeature, FeatureSchema, NumericFeature
from lgnsat.solver import (
    BUILTIN_SOLVER,
    SAT,
    UNKNOWN,
    UNSAT,
    SolverConfig,
    find_solver,
    solve,
)


def running(pid):
    """Whether ``pid`` is alive; a zombie counts as ended, since an orphan
    may wait long for its reaper."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        stat_line = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return not Path("/proc/self").exists()
    return stat_line.rsplit(")", 1)[1].split()[0] != "Z"


def trivial_sat():
    return CnfBuilder().build()  # just the TRUE unit


def trivial_unsat():
    b = CnfBuilder()
    b.add_clause((-1,))
    return b.build()


class TestSolve:
    def test_sat_with_model(self, solver_config):
        outcome = solve(trivial_sat(), solver_config)
        assert outcome.status == SAT
        assert outcome.exit_code == 10
        assert outcome.model[1] is True
        assert outcome.wall_time >= 0

    def test_unsat(self, solver_config):
        outcome = solve(trivial_unsat(), solver_config)
        assert outcome.status == UNSAT
        assert outcome.exit_code == 20
        assert outcome.model is None

    def test_flip_query_sat_quickly(self, flip_net, flip_schema, solver_config):
        formula, _ = build_query(
            flip_net, flip_schema, PropertyQuery("fair", 0, Fraction(1, 2))
        )
        outcome = solve(formula, solver_config)
        assert outcome.status == SAT
        assert outcome.wall_time < 1.0

    def test_no_query_file_left_behind(self, tmp_path, monkeypatch, solver_config):
        temp_dir = tmp_path / "tmp"
        temp_dir.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(temp_dir))
        assert solve(trivial_sat(), solver_config).status == SAT
        assert list(temp_dir.iterdir()) == []
        exe = tmp_path / "slow-solver"
        exe.write_text("#!/bin/sh\nexec sleep 60\n")
        exe.chmod(exe.stat().st_mode | stat.S_IEXEC)
        outcome = solve(trivial_sat(), SolverConfig(executable=str(exe), timeout=0.2))
        assert outcome.status == UNKNOWN
        assert list(temp_dir.iterdir()) == []

    def test_timeout_maps_to_unknown(self, tmp_path):
        # a fake solver that sleeps forever
        exe = tmp_path / "slow-solver"
        exe.write_text("#!/bin/sh\nsleep 60\n")
        exe.chmod(exe.stat().st_mode | stat.S_IEXEC)
        config = SolverConfig(executable=str(exe), timeout=0.2)
        outcome = solve(trivial_sat(), config)
        assert outcome.status == UNKNOWN
        assert outcome.exit_code is None

    def test_timeout_ends_the_solvers_children(self, tmp_path):
        # A wrapper script whose child would outlive a kill of the wrapper.
        pid_file = tmp_path / "child.pid"
        exe = tmp_path / "wrapped-solver"
        exe.write_text(f"#!/bin/sh\nsleep 60 &\necho $! > '{pid_file}'\nwait\n")
        exe.chmod(exe.stat().st_mode | stat.S_IEXEC)
        outcome = solve(trivial_sat(), SolverConfig(executable=str(exe), timeout=1.0))
        assert outcome.status == UNKNOWN
        child = int(pid_file.read_text())
        deadline = time.monotonic() + 5.0
        while running(child) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not running(child)


class TestSolverDiscovery:
    def test_missing_executable(self):
        with pytest.raises(SolverNotFoundError):
            find_solver("definitely-not-a-solver-name")

    def test_env_override(self, monkeypatch, tmp_path):
        exe = tmp_path / "my-solver"
        exe.write_text("#!/bin/sh\nexit 20\n")
        exe.chmod(exe.stat().st_mode | stat.S_IEXEC)
        monkeypatch.setenv("LGNSAT_SOLVER", str(exe))
        assert find_solver() == str(exe)

    def test_builtin_runs_with_an_empty_path(self, monkeypatch, tmp_path):
        # No solver and no python3 on PATH: the built-in still runs, under
        # the interpreter that runs lgnsat.
        monkeypatch.setenv("PATH", str(tmp_path))
        monkeypatch.delenv("LGNSAT_SOLVER", raising=False)
        assert find_solver() == BUILTIN_SOLVER
        config = SolverConfig(timeout=60.0)
        assert solve(pigeonhole(3, 3), config).status == SAT
        assert solve(pigeonhole(4, 3), config).status == UNSAT

    def test_env_override_must_exist(self, monkeypatch):
        monkeypatch.setenv("LGNSAT_SOLVER", "no-such-solver-here")
        with pytest.raises(SolverNotFoundError):
            find_solver()

    def test_explicit_kissat_must_exist(self, monkeypatch, tmp_path):
        # Discovery would pick the built-in here; naming kissat rules it out.
        monkeypatch.setenv("PATH", str(tmp_path))
        monkeypatch.delenv("LGNSAT_SOLVER", raising=False)
        with pytest.raises(SolverNotFoundError, match="kissat"):
            solve(trivial_sat(), SolverConfig(executable="kissat"))
        assert solve(trivial_sat(), SolverConfig(timeout=60.0)).status == SAT


@pytest.mark.parametrize("timeout", [0, -1.0, float("nan")])
def test_timeout_must_be_positive(timeout):
    with pytest.raises(ValueError, match="timeout must be > 0"):
        SolverConfig(timeout=timeout)


class TestBuiltinFallback:
    def test_chosen_when_no_solver_on_path(self, monkeypatch, tmp_path):
        # PATH models a machine with Python but no SAT solver.
        (tmp_path / "python3").symlink_to(sys.executable)
        monkeypatch.setenv("PATH", str(tmp_path))
        monkeypatch.delenv("LGNSAT_SOLVER", raising=False)
        assert find_solver() == BUILTIN_SOLVER

        b = CnfBuilder()
        x, y, z = b.new_vars(3)
        for clause in ((x, y), (-x,), (-y, z)):
            b.add_clause(clause)
        outcome = solve(b.build(), SolverConfig(timeout=60.0))
        assert outcome.status == SAT
        assert outcome.model == (False, True, False, True, True)
        assert solve(trivial_unsat(), SolverConfig(timeout=60.0)).status == UNSAT


def pigeonhole(pigeons, holes):
    """Each pigeon sits in a hole and no hole holds two pigeons."""
    b = CnfBuilder()
    sits = [b.new_vars(holes) for _ in range(pigeons)]
    for clause in sits:
        b.add_clause(clause)
    for h in range(holes):
        for i in range(pigeons):
            for j in range(i + 1, pigeons):
                b.add_clause((-sits[i][h], -sits[j][h]))
    return b.build()


def satisfies(model, formula):
    return all(any(model[abs(l)] == (l > 0) for l in c) for c in formula.clauses)


class TestBuiltinSolver:
    config = SolverConfig(executable=BUILTIN_SOLVER, timeout=60.0)

    def test_pigeonhole_needs_learning(self):
        # Unlike trivial_unsat, 4 pigeons in 3 holes survive level-0
        # propagation, so the verdict goes through conflict analysis and
        # backjumping.
        outcome = solve(pigeonhole(4, 3), self.config)
        assert outcome.status == UNSAT
        assert outcome.exit_code == 20
        conflicts = [l for l in outcome.stats_lines if l.startswith("c conflicts:")]
        assert len(conflicts) == 1 and int(conflicts[0].split(":")[1]) > 1

    def test_pigeonhole_fits(self):
        formula = pigeonhole(4, 4)
        outcome = solve(formula, self.config)
        assert outcome.status == SAT
        assert satisfies(outcome.model, formula)

    @pytest.mark.parametrize("seed", range(12))
    def test_agrees_with_enumeration(self, seed):
        # Random 3-CNF at the satisfiability threshold (about 4.3 clauses per
        # variable), so both verdicts occur across the seeds.
        rng = random.Random(seed)
        b = CnfBuilder()
        xs = b.new_vars(10)
        for _ in range(43):
            b.add_clause(tuple(rng.choice((-1, 1)) * v for v in rng.sample(xs, 3)))
        formula = b.build()
        outcome = solve(formula, self.config)
        expected = next(models_over(formula, xs), None) is not None
        assert outcome.status == (SAT if expected else UNSAT)
        if expected:
            assert satisfies(outcome.model, formula)


class TestOutputParsing:
    def fake_solver(self, tmp_path, script):
        exe = tmp_path / "fake-solver"
        exe.write_text("#!/bin/sh\n" + script)
        exe.chmod(exe.stat().st_mode | stat.S_IEXEC)
        return SolverConfig(executable=str(exe), timeout=10.0)

    def test_exit_10_without_status_line(self, tmp_path):
        config = self.fake_solver(tmp_path, "echo hello\nexit 10\n")
        with pytest.raises(SolverOutputError):
            solve(trivial_sat(), config)

    def test_exit_20_without_status_line(self, tmp_path):
        config = self.fake_solver(tmp_path, "exit 20\n")
        with pytest.raises(SolverOutputError, match="s UNSATISFIABLE"):
            solve(trivial_unsat(), config)

    def test_status_in_a_comment_is_not_a_status_line(self, tmp_path):
        config = self.fake_solver(
            tmp_path, "echo 'c status SATISFIABLE'\necho 'v 1 0'\nexit 10\n"
        )
        with pytest.raises(SolverOutputError, match="s SATISFIABLE"):
            solve(trivial_sat(), config)

    def test_contradictory_status_lines(self, tmp_path):
        config = self.fake_solver(
            tmp_path, "echo 's UNSATISFIABLE'\necho 's SATISFIABLE'\necho 'v 1 0'\nexit 10\n"
        )
        with pytest.raises(SolverOutputError):
            solve(trivial_sat(), config)

    def test_incomplete_model_rejected(self, tmp_path):
        b = CnfBuilder()
        x = b.new_var()
        b.add_clause((x,))
        config = self.fake_solver(
            tmp_path, "echo 's SATISFIABLE'\necho 'v 1 0'\nexit 10\n"
        )
        with pytest.raises(SolverOutputError, match="does not assign"):
            solve(b.build(), config)

    def test_missing_terminator_rejected(self, tmp_path):
        config = self.fake_solver(
            tmp_path, "echo 's SATISFIABLE'\necho 'v 1'\nexit 10\n"
        )
        with pytest.raises(SolverOutputError, match="terminating 0"):
            solve(trivial_sat(), config)

    def test_non_integer_model_token_rejected(self, tmp_path):
        config = self.fake_solver(
            tmp_path, "echo 's SATISFIABLE'\necho 'v 1 x 0'\nexit 10\n"
        )
        with pytest.raises(SolverOutputError, match="'x'"):
            solve(trivial_sat(), config)

    def test_unexpected_exit_code_is_unknown(self, tmp_path):
        config = self.fake_solver(tmp_path, "exit 7\n")
        outcome = solve(trivial_sat(), config)
        assert outcome.status == UNKNOWN
        assert outcome.exit_code == 7

    def test_multiline_model(self, tmp_path):
        b = CnfBuilder()
        x, y = b.new_var(), b.new_var()
        b.add_clause((x,))
        b.add_clause((y,))
        config = self.fake_solver(
            tmp_path,
            "echo 's SATISFIABLE'\necho 'v 1 2'\necho 'v 3 0'\nexit 10\n",
        )
        outcome = solve(b.build(), config)
        assert outcome.model == (False, True, True, True)


class TestDecode:
    def test_flip_witness_decodes_and_rechecks(self, flip_net, flip_schema, solver_config):
        verdict = verify_at(flip_net, flip_schema, "fair", 0, Fraction(1, 2), solver_config)
        assert verdict.status == COUNTEREXAMPLE
        witness = verdict.witness
        assert witness.x.cls != witness.x_prime.cls
        # the pair differs only in the sensitive feature (it is the only one)
        assert witness.x.values != witness.x_prime.values

    @pytest.mark.parametrize("seed", range(20))
    def test_random_sat_witnesses_recheck(self, seed, solver_config):
        schema = FeatureSchema(
            (
                NumericFeature("v", 3, 0.0, 3.0),
                CategoricalFeature("s", 2, sensitive=True),
            )
        )
        net = random_netlist(5, [6, 4], 2, 2, seed=seed)
        verdict = verify_at(net, schema, "fair", 1, Fraction(1, 2), solver_config)
        if verdict.status != COUNTEREXAMPLE:
            return
        witness = verdict.witness
        assert witness.x.cls != witness.x_prime.cls
        assert witness.x.conf > Fraction(1, 2)
        assert check_phi(witness.x.bits, witness.x_prime.bits, schema, 1, "fair")


def test_solver_imports_only_the_cnf_and_error_modules():
    # The solver seam knows DIMACS and its own errors; decoding a model
    # against the network and schema belongs to the driver.
    tree = ast.parse(Path(solver_module.__file__).read_text())
    relative, absolute = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            (relative if node.level else absolute).add(node.module)
        elif isinstance(node, ast.Import):
            absolute.update(alias.name for alias in node.names)
    assert relative == {"cnf", "errors"}
    assert not any(name.split(".")[0] == "lgnsat" for name in absolute)
