"""One run of one workload: the timed closed loop, the reference check and
the metrics.

The load is one caller in one thread: each CLI call starts when the last
one returned. Calls go through ``lgnsat.cli.main(argv)`` in this process
with stdout captured, after a garbage collection that is not timed, so each
call starts from a clean heap as it would in a fresh process.
"""

from __future__ import annotations

import gc
import hashlib
import io
import json
import statistics
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction

import reference
from machine import calibrate, scaled
from tracing import Tracer
from workloads import ACCURACY, ENCODE, Instance

# Fewest calls of each command in a run. Encode needs eleven for the tail,
# the highest percentile with ten samples beyond it.
MIN_CALLS = {ENCODE: 11, ACCURACY: 3}
TAIL_BEYOND = 10


@dataclass
class Call:
    command: str
    instance: int
    primary: bool
    traced: bool
    seconds: float
    calibration: float
    code: int | None
    stdout: str
    stderr: str

    @property
    def scaled_seconds(self) -> float:
        return scaled(self.seconds, self.calibration)


def _run_cli(main, argv) -> tuple[int | None, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else None
        except Exception:  # a crash is a failed operation, not a failed benchmark
            traceback.print_exc()
            code = None
    return code, out.getvalue(), err.getvalue()


def encode_argv(inst: Instance, kappa: Fraction, stem: str) -> list[str]:
    w = inst.workload
    directory = inst.netlist.parent
    return [
        "encode", str(inst.netlist), "--schema", str(inst.schema), "--mode", w.mode,
        "--eps", str(w.eps), "--kappa", str(kappa),
        "--output", str(directory / f"{stem}.cnf"), "--varmap", str(directory / f"{stem}.map"),
    ]


def accuracy_argv(inst: Instance) -> list[str]:
    return ["accuracy", str(inst.netlist), "--schema", str(inst.schema), "--csv", str(inst.csv)]


def one_call(main, command: str, inst: Instance, index: int, primary: bool,
             tracer: Tracer | None = None) -> Call:
    """One timed CLI call of ``command`` on instance ``index``."""
    w = inst.workload
    argv = encode_argv(inst, w.kappa, "query") if command == ENCODE else accuracy_argv(inst)
    gc.collect()
    calibration = calibrate()
    if tracer is None:
        start = time.perf_counter()
        code, out, err = _run_cli(main, argv)
        elapsed = time.perf_counter() - start
    else:
        tracer.install()
        try:
            start = time.perf_counter()
            with tracer.cli_call(command, index):
                code, out, err = _run_cli(main, argv)
            elapsed = time.perf_counter() - start
        finally:
            tracer.uninstall()
    return Call(command, index, primary, tracer is not None, elapsed, calibration, code, out, err)


def measure(instances: list[Instance], seconds: float, tracer: Tracer | None = None) -> list[Call]:
    """Closed loop of cycles until ``seconds`` have passed: two calls of the
    workload's own command, then one of the other command, each cycle on the
    next instance in turn.

    Interleaving spreads the samples of both commands over the whole run,
    so a slow spell of the machine weighs on both alike. With a tracer, the
    first call of each cycle runs untraced and the rest traced, so the
    workload's own command can be compared with and without tracing.
    """
    main = sys.modules["lgnsat.cli"].main
    w = instances[0].workload
    secondary = ACCURACY if w.primary == ENCODE else ENCODE
    cycle = ((w.primary, False), (w.primary, True), (secondary, True))
    calls: list[Call] = []
    deadline = time.perf_counter() + seconds
    n = 0
    while (
        time.perf_counter() < deadline
        or n < len(instances)
        or any(sum(c.command == k for c in calls) < m for k, m in MIN_CALLS.items())
    ):
        index = n % len(instances)
        for command, traced in cycle:
            calls.append(one_call(
                main, command, instances[index], index, command == w.primary,
                tracer if traced else None,
            ))
        n += 1
    return calls


def _report(call: Call):
    if call.code != 0:
        return None
    try:
        return json.loads(call.stdout)["result"]
    except (ValueError, KeyError, TypeError):
        return None


@dataclass
class Checked:
    attempted: int
    failed: int
    problems: list[str]
    # Per instance: DIMACS header and file size of the workload's query.
    query_vars: list[int]
    query_clauses: list[int]
    dimacs_bytes: list[int]
    check_kappas: list[Fraction]
    pairs: int


def _check_instance(inst: Instance, index: int, calls: list[Call], out: Checked) -> None:
    w = inst.workload
    directory = inst.netlist.parent
    mine = [c for c in calls if c.instance == index]
    for call in mine:
        if call.command != ACCURACY:
            continue
        result = _report(call)
        if (
            result is None
            or result.get("rows") != w.rows
            or Fraction(result["accuracy"]["exact"]) != inst.expected_accuracy
        ):
            out.failed += 1
            out.problems.append(
                f"instance {index} accuracy: exit {call.code}, report {result}, expected "
                f"{inst.expected_accuracy}; {call.stderr.strip()[-300:]}"
            )

    net = reference.read_netlist(inst.netlist.read_text())
    check_kappa, pairs = reference.choose_pairs(net, w.features, w.eps, w.mode, inst.seed)
    dimacs = (directory / "query.cnf").read_bytes()
    digest = hashlib.sha256(dimacs).hexdigest()
    header = dimacs[:dimacs.index(b"\n")].split()
    num_vars, num_clauses = int(header[2]), int(header[3])
    wrong = reference.check_query(
        dimacs, (directory / "query.map").read_text(), w.features, pairs, w.kappa
    )
    out.problems += [f"instance {index} query at kappa {w.kappa}: {m}" for m in wrong]
    for call in mine:
        if call.command != ENCODE:
            continue
        reported = (_report(call) or {}).get("dimacs", {})
        if wrong or [reported.get(k) for k in ("sha256", "num_vars", "num_clauses")] != [
            digest, num_vars, num_clauses
        ]:
            out.failed += 1
            out.problems.append(
                f"instance {index} encode: exit {call.code}, report {reported}; "
                f"{call.stderr.strip()[-300:]}"
            )

    main = sys.modules["lgnsat.cli"].main
    code, _, err = _run_cli(main, encode_argv(inst, check_kappa, "check"))
    wrong = (
        reference.check_query(
            (directory / "check.cnf").read_bytes(), (directory / "check.map").read_text(),
            w.features, pairs, check_kappa,
        )
        if code == 0 else [f"exit {code}; {err.strip()[-300:]}"]
    )
    out.problems += [f"instance {index} check query at kappa {check_kappa}: {m}" for m in wrong]
    out.failed += bool(wrong)
    out.attempted += 1
    out.query_vars.append(num_vars)
    out.query_clauses.append(num_clauses)
    out.dimacs_bytes.append(len(dimacs))
    out.check_kappas.append(check_kappa)
    out.pairs += len(pairs)


def check(instances: list[Instance], calls: list[Call]) -> Checked:
    """Compare every call with the reference, outside the timed region.

    An accuracy call must report exactly the accuracy the CSV labels give.
    An encode call must exit 0 and report the file that was checked. That
    file, and one more query per instance at a threshold where some pairs
    are counterexamples, must agree with the reference on every input pair
    under unit propagation.
    """
    out = Checked(len(calls), 0, [], [], [], [], [], 0)
    for index, inst in enumerate(instances):
        _check_instance(inst, index, calls, out)
    return out


def tail(values) -> tuple[float, float]:
    """The highest percentile with ``TAIL_BEYOND`` samples beyond it, and
    which percentile that is."""
    values = sorted(values)
    index = len(values) - 1 - TAIL_BEYOND
    return values[index], 100.0 * index / (len(values) - 1)


def overhead_ratio(calls: list[Call]) -> float:
    """Median traced call time over median untraced time of the workload's
    own command, minus one."""
    plain = [c.scaled_seconds for c in calls if c.primary and not c.traced]
    traced = [c.scaled_seconds for c in calls if c.primary and c.traced]
    return statistics.median(traced) / statistics.median(plain) - 1
