"""Command-line interface.

One structured JSON report per invocation on stdout, human-readable
progress on stderr. Exit codes are a total function of the outcome:
0 holds/ok, 1 counterexample (or not attainable), 2 invalid input,
3 usage/environment problems (a solver answer that fails its concrete
recheck among them), 4 unknown (timeout).

``main`` owns the report: each ``cmd_*`` returns its inputs, its result,
its exit code and its stderr line, and ``main`` writes the report (or the
error report of invalid input), the line and the code.

``search-kappa`` reports the bracket ``[kappa_lower, kappa_star]`` around
the minimal safe threshold; ``--tol 0`` closes it to the exact value.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import signal
import sys
from fractions import Fraction
from pathlib import Path

from . import __version__
from .driver import DEFAULT_TOLERANCE, check_attainable, search_min_kappa, sweep, verify_at
from .encoder import PropertyQuery, build_query
from .errors import (
    DataError,
    EncodingConsistencyError,
    InvalidNetlistError,
    NetlistFormatError,
    QueryBuildError,
    SchemaFormatError,
    SolverNotFoundError,
    SolverOutputError,
)
from .evaluator import COUNTEREXAMPLE, HOLDS, UNKNOWN, predict
from .ingest import accuracy, encode_row, load_csv
from .netlist import (parse_netlist, random_netlist, read_float, read_int,
                      schema_violations, serialize_netlist, validate)
from .schema import NumericFeature, parse_schema
from .solver import SolverConfig
from .cnf import to_dimacs

EXIT_HOLDS = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_INVALID_INPUT = 2
EXIT_USAGE = 3
EXIT_UNKNOWN = 4

_STATUS_EXIT = {HOLDS: EXIT_HOLDS, COUNTEREXAMPLE: EXIT_COUNTEREXAMPLE, UNKNOWN: EXIT_UNKNOWN}

_INVALID_INPUT_ERRORS = (
    NetlistFormatError,
    SchemaFormatError,
    InvalidNetlistError,
    DataError,
)
_USAGE_ERRORS = (QueryBuildError, SolverNotFoundError, SolverOutputError,
                 EncodingConsistencyError, OSError, ValueError)


def log(message: str) -> None:
    print(message, file=sys.stderr)


def _frac(value: Fraction) -> dict:
    return {"exact": str(value), "float": float(value)}


def _fraction(text) -> Fraction:
    """A threshold option's exact value; a zero denominator or a ``_`` is a ValueError."""
    if "_" in str(text):  # the --tol default is a Fraction
        raise ValueError(f"invalid fraction {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def _read_inputs(args, *roles: str) -> tuple[dict, list[bytes]]:
    """Read each named input file once. Returns the report's ``inputs``
    entry (path and the sha256 of the bytes read, per role) and the bytes,
    in role order, for parsing."""
    inputs, data = {}, []
    for role in roles:
        path = getattr(args, role)
        raw = Path(path).read_bytes()
        inputs[role] = {"path": path, "sha256": hashlib.sha256(raw).hexdigest()}
        data.append(raw)
    return inputs, data


def _load(args, *extra: str):
    """Read and hash the netlist, the schema and any ``extra`` input roles;
    parse and check the netlist, then the schema against it. Returns the
    report's ``inputs``, the netlist, the schema and each extra role's bytes."""
    inputs, (net_data, schema_data, *rest) = _read_inputs(args, "netlist", "schema", *extra)
    netlist = parse_netlist(net_data)
    netlist.program  # compiling checks the netlist, before the schema is read
    schema = parse_schema(schema_data)
    violations = schema_violations(netlist, schema)
    if violations:
        raise InvalidNetlistError(violations)
    return inputs, netlist, schema, *rest


def _solver_config(args) -> SolverConfig:
    return SolverConfig(args.solver, args.timeout)


def _witness_side(schema, side) -> dict:
    features = []
    for f, v in zip(schema.features, side.values):
        entry = {"name": f.name, "value": v}
        if isinstance(f, NumericFeature):
            lo, hi = f.bucket_interval(v)
            entry["interval"] = [lo, hi]
        else:
            entry["sensitive"] = f.sensitive
        features.append(entry)
    return {
        "bits": "".join(map(str, side.bits)),
        "features": features,
        "class": side.cls,
        "confidence": _frac(side.conf),
    }


def _witness_json(schema, witness) -> dict:
    return {
        "x": _witness_side(schema, witness.x),
        "x_prime": _witness_side(schema, witness.x_prime),
    }


def _stats_json(stats) -> dict:
    return {
        "wall_time_s": round(stats.wall_time, 6),
        "num_vars": stats.num_vars,
        "num_clauses": stats.num_clauses,
    }


def _probe_json(verdict) -> dict:
    """One probe of a search or sweep: its threshold, status and stats."""
    return {
        "kappa": _frac(verdict.kappa),
        "status": verdict.status,
        **_stats_json(verdict.stats),
    }


# -- commands ----------------------------------------------------------------
# Each command returns (inputs, result, exit code, stderr line) for main.

Outcome = tuple[dict, dict, int, str]


def cmd_validate(args) -> Outcome:
    roles = ("netlist", "schema") if args.schema else ("netlist",)
    inputs, (net_data, *schema_data) = _read_inputs(args, *roles)
    netlist = parse_netlist(net_data)
    violations = list(validate(netlist))
    if schema_data:
        violations += schema_violations(netlist, parse_schema(schema_data[0]))
    result = {"ok": not violations, "violations": violations}
    if not violations:
        return inputs, result, EXIT_HOLDS, "validate: ok"
    return inputs, result, EXIT_INVALID_INPUT, f"validate: {len(violations)} violation(s)"


def cmd_verify(args) -> Outcome:
    inputs, netlist, schema = _load(args)
    kappa = _fraction(args.kappa)
    verdict = verify_at(netlist, schema, args.mode, args.eps, kappa, _solver_config(args))
    result = {
        "status": verdict.status,
        "mode": args.mode,
        "eps": args.eps,
        "kappa": _frac(kappa),
        "stats": _stats_json(verdict.stats),
        "witness": _witness_json(schema, verdict.witness) if verdict.witness else None,
    }
    message = f"verify: {verdict.status} at kappa={kappa} ({args.mode}, eps={args.eps})"
    return inputs, result, _STATUS_EXIT[verdict.status], message


def cmd_search_kappa(args) -> Outcome:
    inputs, netlist, schema = _load(args)
    config = _solver_config(args)
    tolerance = _fraction(args.tol)
    result = search_min_kappa(netlist, schema, args.mode, args.eps, tolerance, config)
    attainable = None
    if result.converged:
        attainable = check_attainable(netlist, schema, result.kappa_star, config)
    payload = {
        "kappa_star": _frac(result.kappa_star),
        "kappa_lower": _frac(result.kappa_lower),
        "converged": result.converged,
        "attainable": attainable,
        "tolerance": _frac(tolerance),
        "total_time_s": round(result.total_time, 6),
        "probes": [_probe_json(q) for q in result.queries],
    }
    message = (
        f"search-kappa: kappa* in [{result.kappa_lower}, {result.kappa_star}] "
        f"(attainable={attainable}, {len(result.queries)} probes, "
        f"{result.total_time:.3f}s total)"
    )
    return inputs, payload, EXIT_HOLDS if result.converged else EXIT_UNKNOWN, message


def cmd_sweep(args) -> Outcome:
    inputs, netlist, schema = _load(args)
    kappas = [_fraction(k) for k in args.kappas.split(",") if k.strip()]
    rows = sweep(netlist, schema, args.mode, args.eps, kappas, _solver_config(args))
    payload = {
        "mode": args.mode,
        "eps": args.eps,
        "rows": [_probe_json(r) for r in rows],
    }
    message = "\n".join(
        f"sweep: kappa={r.kappa} -> {r.status} ({r.stats.wall_time:.3f}s)" for r in rows
    )
    code = EXIT_UNKNOWN if any(r.status == UNKNOWN for r in rows) else EXIT_HOLDS
    return inputs, payload, code, message


def cmd_attainable(args) -> Outcome:
    inputs, netlist, schema = _load(args)
    kappa = _fraction(args.kappa)
    attainable = check_attainable(netlist, schema, kappa, _solver_config(args))
    code = EXIT_UNKNOWN if attainable is None else (
        EXIT_HOLDS if attainable else EXIT_COUNTEREXAMPLE
    )
    result = {"kappa": _frac(kappa), "attainable": attainable}
    return inputs, result, code, f"attainable at kappa={kappa}: {attainable}"


def cmd_encode(args) -> Outcome:
    inputs, netlist, schema = _load(args)
    query = PropertyQuery(args.mode, args.eps, _fraction(args.kappa))
    formula, varmap = build_query(netlist, schema, query)
    dimacs = to_dimacs(formula)
    Path(args.output).write_bytes(dimacs)
    result = {
        "dimacs": {
            "path": args.output,
            "sha256": hashlib.sha256(dimacs).hexdigest(),
            "num_vars": formula.num_vars,
            "num_clauses": len(formula.clauses),
        }
    }
    if args.varmap:
        Path(args.varmap).write_text(varmap.sidecar())
        result["varmap_path"] = args.varmap
    message = f"encode: wrote {formula.num_vars} vars / {len(formula.clauses)} clauses"
    return inputs, result, EXIT_HOLDS, message


def cmd_gen_random(args) -> Outcome:
    layer_sizes = [read_int(s) for s in args.layers.split(",") if s.strip()]
    netlist = random_netlist(
        args.input_width, layer_sizes, args.classes, args.block_size, args.seed
    )
    data = serialize_netlist(netlist)
    Path(args.output).write_bytes(data)
    result = {
        "path": args.output,
        "sha256": hashlib.sha256(data).hexdigest(),
        "seed": args.seed,
        "num_gates": netlist.num_gates,
    }
    return {}, result, EXIT_HOLDS, f"gen-random: wrote {args.output} ({netlist.num_gates} gates)"


def cmd_eval(args) -> Outcome:
    inputs, netlist, schema = _load(args)
    if (args.row is None) == (args.bits is None):
        raise QueryBuildError("eval needs exactly one of --row or --bits")
    if args.row is not None:
        bits = encode_row(schema, [v.strip() for v in args.row.split(",")])
    else:
        if not set(args.bits) <= {"0", "1"}:
            raise DataError(f"--bits must be a 0/1 string, got {args.bits!r}")
        bits = tuple(int(c) for c in args.bits)
    values = schema.decode_bits(bits)
    cls, scores, conf = predict(netlist, bits)
    result = {
        "bits": "".join(map(str, bits)),
        "values": list(values),
        "class": cls,
        "scores": list(scores),
        "confidence": _frac(conf),
        # All-zero outputs have no defined score ratio; 1/C is a convention.
        "degenerate_confidence": sum(scores) == 0,
    }
    return inputs, result, EXIT_HOLDS, f"eval: class={cls} confidence={conf}"


def cmd_accuracy(args) -> Outcome:
    inputs, netlist, schema, csv_data = _load(args, "csv")
    dataset = load_csv(schema, csv_data, label_col=args.label_col)
    acc = accuracy(netlist, dataset)
    result = {"rows": len(dataset.rows), "accuracy": _frac(acc)}
    return inputs, result, EXIT_HOLDS, f"accuracy: {float(acc):.4f} over {len(dataset.rows)} rows"


# -- argument parsing ---------------------------------------------------------


def _add_solver_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--solver", default=None, help="SAT solver executable")
    p.add_argument(
        "--timeout", type=read_float, default=SolverConfig.timeout, help="solver timeout (s)"
    )


def _add_query_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mode", choices=["fair", "robust"], required=True)
    p.add_argument("--eps", type=read_int, default=0, help="numeric tolerance (bit flips)")


class _Parser(argparse.ArgumentParser):
    """Exits with ``EXIT_USAGE``, not argparse's 2, on a usage error."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


@functools.cache  # the parser depends on no input, so build it once
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lgnsat",
        description="SAT-based global robustness/fairness verification of "
        "logic gate networks",
    )
    parser.add_argument("--version", action="version", version=f"lgnsat {__version__}")
    sub = parser.add_subparsers(dest="cmd", required=True)

    def command(name, func, help, schema_required=True) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.add_argument("netlist")
        p.add_argument("--schema", "-s", required=schema_required, help="feature schema file")
        p.set_defaults(func=func)
        return p

    command("validate", cmd_validate, "check netlist (and schema) invariants",
            schema_required=False)

    p = command("verify", cmd_verify, "decide one fixed-threshold query")
    _add_query_args(p)
    p.add_argument("--kappa", required=True, help="threshold, e.g. 1/2 or 0.99")
    _add_solver_args(p)

    p = command("search-kappa", cmd_search_kappa, "search the minimal safe threshold")
    _add_query_args(p)
    p.add_argument("--tol", default=DEFAULT_TOLERANCE, help="bracket width (0 = exact)")
    _add_solver_args(p)

    p = command("sweep", cmd_sweep, "verify across a list of thresholds")
    _add_query_args(p)
    p.add_argument("--kappas", required=True, help="comma list, e.g. 0.5,0.75,0.99")
    _add_solver_args(p)

    p = command("attainable", cmd_attainable, "does any input exceed the threshold?")
    p.add_argument("--kappa", required=True)
    _add_solver_args(p)

    p = command("encode", cmd_encode, "emit the DIMACS CNF for a query")
    _add_query_args(p)
    p.add_argument("--kappa", required=True)
    p.add_argument("--output", "-o", required=True, help="DIMACS output path")
    p.add_argument("--varmap", default=None, help="variable-map sidecar path")

    p = sub.add_parser("gen-random", help="generate a random netlist")
    p.add_argument("--input-width", "-d", type=read_int, required=True)
    p.add_argument("--layers", required=True, help="comma list of layer sizes")
    p.add_argument("--classes", "-C", type=read_int, required=True)
    p.add_argument("--block-size", "-L", type=read_int, required=True)
    p.add_argument("--seed", type=read_int, required=True)
    p.add_argument("--output", "-o", required=True)
    p.set_defaults(func=cmd_gen_random)

    p = command("eval", cmd_eval, "predict one row")
    p.add_argument("--row", default=None, help="comma list of raw feature values")
    p.add_argument("--bits", default=None, help="explicit 0/1 input bit string")

    p = command("accuracy", cmd_accuracy, "dataset accuracy of a netlist")
    p.add_argument("--csv", required=True)
    p.add_argument("--label-col", default="label")

    return parser


class _Terminated(BaseException):
    """SIGTERM while ``main`` runs. Raised from the signal handler, it
    unwinds through every ``finally`` on its way out, among them the one
    that kills the solver's process group and removes its DIMACS file. It
    is not an ``Exception``, which a handler could swallow, nor a
    ``SystemExit``, which a caller could take for a finished command."""


def _terminate(signum, frame):
    raise _Terminated


def main(argv=None) -> int:
    """Run one command: its report goes to stdout, its line to stderr, and
    its exit code is returned. Invalid input gets an error report; a usage
    error gets none. On SIGTERM the solver is stopped and its files are
    removed before the signal is handed to the handler that was in place."""
    previous = signal.signal(signal.SIGTERM, _terminate)
    try:
        return _run(argv)
    except _Terminated:
        pass
    finally:
        signal.signal(signal.SIGTERM, previous)
    os.kill(os.getpid(), signal.SIGTERM)
    return 128 + signal.SIGTERM  # the previous handler did not end the process


def _run(argv) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(argv)
    try:
        inputs, result, code, message = args.func(args)
        body = {"inputs": inputs, "result": result}
    except _INVALID_INPUT_ERRORS as exc:
        body = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        code, message = EXIT_INVALID_INPUT, f"error: {exc}"
    except _USAGE_ERRORS as exc:
        log(f"error: {exc}")
        return EXIT_USAGE
    report = {"tool": {"name": "lgnsat", "version": __version__}, "command": argv, **body}
    print(json.dumps(report, indent=2))
    log(message)
    return code


if __name__ == "__main__":
    sys.exit(main())
