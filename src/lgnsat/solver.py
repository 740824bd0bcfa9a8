"""The DIMACS seam: write a formula, run an external SAT solver on it, and
read back its verdict and model.

The backend stays solver-agnostic: any executable that reads a DIMACS file
(its only argument), prints ``s SATISFIABLE``/``s UNSATISFIABLE`` with ``v``
model lines, and exits 10/20 works. Each query goes to a temp file that is
removed once the solver exits or times out. A timeout kills the solver's
whole process group, so a wrapper script leaves nothing running. The
preferred solver is kissat; the LGNSAT_SOLVER environment variable
overrides it, and a small fallback list of well-known solvers is probed
when kissat is absent. When none of those is on PATH, the built-in
``cdcl.py`` next to this module runs as the last fallback: it speaks the
same protocol, runs under the interpreter that runs lgnsat, and is much
slower than kissat on large queries. An explicit executable or an
LGNSAT_SOLVER value that does not resolve is an error and never falls back
to it.

This module knows formulas and models only; the driver reads a model back
as network inputs and rechecks it on the concrete network.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from .cnf import CnfFormula, to_dimacs
from .errors import SolverNotFoundError, SolverOutputError

SAT = "sat"
UNSAT = "unsat"
UNKNOWN = "unknown"

SOLVER_ENV_VAR = "LGNSAT_SOLVER"
DEFAULT_SOLVER = "kissat"
FALLBACK_SOLVERS = ("cadical", "cryptominisat5", "varisat", "picosat", "lingeling")
BUILTIN_SOLVER = str(Path(__file__).with_name("cdcl.py"))

# Exit code -> the verdict it gives and the status line that must come with it.
_STATUS_LINES = {10: (SAT, "s SATISFIABLE"), 20: (UNSAT, "s UNSATISFIABLE")}


@dataclass(frozen=True)
class SolverConfig:
    """How to run the external solver: which executable, and how many
    seconds to wait for it. ``executable`` None discovers one as
    ``find_solver()`` does; a name or path must resolve. ``solve()`` writes
    each query to a temp file and removes it afterwards; ``lgnsat encode -o``
    writes the same DIMACS for a post-mortem."""

    executable: str | None = None
    timeout: float = 300.0

    def __post_init__(self):
        if not self.timeout > 0:  # NaN fails this too
            raise ValueError(f"timeout must be > 0, got {self.timeout}")


@dataclass(frozen=True)
class SolveOutcome:
    status: str  # SAT / UNSAT / UNKNOWN
    model: tuple[bool, ...] | None  # indexed by variable id; [0] unused
    wall_time: float
    exit_code: int | None
    stats_lines: tuple[str, ...]

    def __post_init__(self):
        assert (self.model is not None) == (self.status == SAT)


def find_solver(executable: str | None = None) -> str:
    """Resolve a solver executable path.

    An explicit name/path must resolve or we fail loudly, and so must the
    LGNSAT_SOLVER environment variable when it is set. Otherwise kissat is
    tried, then the fallback list, and then the built-in solver
    (``BUILTIN_SOLVER``), which ships with the package but is much slower.
    """
    if executable:
        found = shutil.which(executable)
        if found is None:
            raise SolverNotFoundError(f"SAT solver {executable!r} not found on PATH")
        return found
    env = os.environ.get(SOLVER_ENV_VAR)
    if env:
        found = shutil.which(env)
        if found is None:
            raise SolverNotFoundError(
                f"{SOLVER_ENV_VAR}={env!r} does not resolve to an executable"
            )
        return found
    for name in (DEFAULT_SOLVER, *FALLBACK_SOLVERS):
        found = shutil.which(name)
        if found:
            return found
    return BUILTIN_SOLVER


def _parse_model(stdout: str, num_vars: int) -> tuple[bool, ...]:
    assignment: list[bool | None] = [None] * (num_vars + 1)
    assignment[0] = False
    saw_end = False
    for line in stdout.splitlines():
        if not line.startswith("v"):
            continue
        for tok in line[1:].split():
            try:
                lit = int(tok)
            except ValueError:
                raise SolverOutputError(f"model token {tok!r} is not an integer")
            if lit == 0:
                saw_end = True
                break
            var = abs(lit)
            if var <= num_vars:
                assignment[var] = lit > 0
    if not saw_end:
        raise SolverOutputError("model (v lines) missing terminating 0")
    missing = [v for v in range(1, num_vars + 1) if assignment[v] is None]
    if missing:
        raise SolverOutputError(
            f"model does not assign {len(missing)} variables (first: {missing[0]})"
        )
    return tuple(assignment)  # type: ignore[arg-type]


def solve(formula: CnfFormula, config: SolverConfig | None = None) -> SolveOutcome:
    """Write DIMACS to a temp file, run the solver on it, interpret exit
    code 10/20; the temp file is removed in every case.

    Timeouts and unexpected exit codes map to UNKNOWN (recorded, not
    raised); a missing solver or unreadable output raises, and so does an
    exit code 10 or 20 whose status lines are not just its own
    ``s SATISFIABLE`` or ``s UNSATISFIABLE``.
    """
    config = config or SolverConfig()
    exe = find_solver(config.executable)
    # The built-in runs under this interpreter, whatever PATH holds.
    command = [sys.executable, exe] if exe == BUILTIN_SOLVER else [exe]
    dimacs = to_dimacs(formula)
    fd, name = tempfile.mkstemp(prefix="lgnsat-", suffix=".cnf")
    path = Path(name)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(dimacs)
        started = time.monotonic()
        # Its own session makes the solver the leader of a process group,
        # so a timeout ends every process it started, not just the first.
        with subprocess.Popen(
            [*command, str(path)], stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, start_new_session=True,
        ) as proc:
            try:
                stdout, _ = proc.communicate(timeout=config.timeout)
            except subprocess.TimeoutExpired:
                return SolveOutcome(UNKNOWN, None, time.monotonic() - started, None, ())
            finally:
                if proc.returncode is None:  # not reaped, so the group is still ours
                    os.killpg(proc.pid, signal.SIGKILL)
    finally:
        path.unlink(missing_ok=True)
    wall = time.monotonic() - started
    lines = stdout.splitlines()
    stats = tuple(l for l in lines if l.startswith("c"))
    if proc.returncode not in _STATUS_LINES:
        return SolveOutcome(UNKNOWN, None, wall, proc.returncode, stats)
    status, line = _STATUS_LINES[proc.returncode]
    # The status is a whole line; a comment that mentions it is not one.
    if {l.rstrip() for l in lines if l.startswith("s ")} != {line}:
        raise SolverOutputError(
            f"exit code {proc.returncode} needs the status line {line!r} and no other"
        )
    model = _parse_model(stdout, formula.num_vars) if status == SAT else None
    return SolveOutcome(status, model, wall, proc.returncode, stats)
