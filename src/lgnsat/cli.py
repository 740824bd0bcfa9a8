"""Command-line interface.

One structured JSON report per invocation on stdout, human-readable
progress on stderr. Exit codes are a total function of the outcome:
0 holds/ok, 1 counterexample (or not attainable), 2 invalid input,
3 usage/environment problems, 4 unknown (timeout).

``search-kappa`` reports the bracket ``[kappa_lower, kappa_star]`` around
the minimal safe threshold; ``--tol 0`` closes it to the exact value.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import __version__
from .driver import DEFAULT_TOLERANCE, check_attainable, search_min_kappa, sweep, verify_at
from .encoder import PropertyQuery, build_query
from .errors import (
    DataError,
    InvalidNetlistError,
    LgnsatError,
    NetlistFormatError,
    QueryBuildError,
    SchemaFormatError,
    SolverNotFoundError,
    SolverOutputError,
)
from .evaluator import COUNTEREXAMPLE, HOLDS, UNKNOWN, predict
from .ingest import accuracy, encode_row, load_csv
from .netlist import parse_netlist, random_netlist, serialize_netlist, validate
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
_USAGE_ERRORS = (QueryBuildError, SolverNotFoundError, SolverOutputError, OSError, ValueError)


def log(message: str) -> None:
    print(message, file=sys.stderr)


def _frac(value: Fraction) -> dict:
    return {"exact": str(value), "float": float(value)}


def _report(args, inputs: dict, result: dict) -> dict:
    return {
        "tool": {"name": "lgnsat", "version": __version__},
        "command": list(args.argv),
        "inputs": inputs,
        "result": result,
    }


def emit(report: dict) -> None:
    json.dump(report, sys.stdout, indent=2)
    sys.stdout.write("\n")


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


def cmd_validate(args) -> int:
    roles = ("netlist", "schema") if args.schema else ("netlist",)
    inputs, (net_data, *schema_data) = _read_inputs(args, *roles)
    netlist = parse_netlist(net_data, run_validation=False)
    schema = parse_schema(schema_data[0]) if schema_data else None
    report = validate(netlist, schema)
    emit(_report(args, inputs, {"ok": report.ok, "violations": list(report.violations)}))
    if report.ok:
        log("validate: ok")
        return EXIT_HOLDS
    log(f"validate: {len(report.violations)} violation(s)")
    return EXIT_INVALID_INPUT


def cmd_verify(args) -> int:
    inputs, (net_data, schema_data) = _read_inputs(args, "netlist", "schema")
    netlist, schema = parse_netlist(net_data), parse_schema(schema_data)
    kappa = Fraction(args.kappa)
    verdict = verify_at(netlist, schema, args.mode, args.eps, kappa, _solver_config(args))
    result = {
        "status": verdict.status,
        "mode": args.mode,
        "eps": args.eps,
        "kappa": _frac(kappa),
        "stats": _stats_json(verdict.stats),
        "witness": _witness_json(schema, verdict.witness) if verdict.witness else None,
    }
    emit(_report(args, inputs, result))
    log(f"verify: {verdict.status} at kappa={kappa} ({args.mode}, eps={args.eps})")
    return _STATUS_EXIT[verdict.status]


def cmd_search_kappa(args) -> int:
    inputs, (net_data, schema_data) = _read_inputs(args, "netlist", "schema")
    netlist, schema = parse_netlist(net_data), parse_schema(schema_data)
    config = _solver_config(args)
    tolerance = Fraction(args.tol)
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
    emit(_report(args, inputs, payload))
    log(
        f"search-kappa: kappa* in [{result.kappa_lower}, {result.kappa_star}] "
        f"(attainable={attainable}, {len(result.queries)} probes, "
        f"{result.total_time:.3f}s total)"
    )
    return EXIT_HOLDS if result.converged else EXIT_UNKNOWN


def cmd_sweep(args) -> int:
    inputs, (net_data, schema_data) = _read_inputs(args, "netlist", "schema")
    netlist, schema = parse_netlist(net_data), parse_schema(schema_data)
    kappas = [Fraction(k) for k in args.kappas.split(",") if k.strip()]
    rows = sweep(netlist, schema, args.mode, args.eps, kappas, _solver_config(args))
    payload = {
        "mode": args.mode,
        "eps": args.eps,
        "rows": [_probe_json(r) for r in rows],
    }
    emit(_report(args, inputs, payload))
    for r in rows:
        log(f"sweep: kappa={r.kappa} -> {r.status} ({r.stats.wall_time:.3f}s)")
    return EXIT_UNKNOWN if any(r.status == UNKNOWN for r in rows) else EXIT_HOLDS


def cmd_attainable(args) -> int:
    inputs, (net_data, schema_data) = _read_inputs(args, "netlist", "schema")
    netlist, schema = parse_netlist(net_data), parse_schema(schema_data)
    kappa = Fraction(args.kappa)
    attainable = check_attainable(netlist, schema, kappa, _solver_config(args))
    emit(_report(args, inputs, {"kappa": _frac(kappa), "attainable": attainable}))
    log(f"attainable at kappa={kappa}: {attainable}")
    if attainable is None:
        return EXIT_UNKNOWN
    return EXIT_HOLDS if attainable else EXIT_COUNTEREXAMPLE


def cmd_encode(args) -> int:
    inputs, (net_data, schema_data) = _read_inputs(args, "netlist", "schema")
    netlist, schema = parse_netlist(net_data), parse_schema(schema_data)
    query = PropertyQuery(args.mode, args.eps, Fraction(args.kappa))
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
    emit(_report(args, inputs, result))
    log(f"encode: wrote {formula.num_vars} vars / {len(formula.clauses)} clauses")
    return EXIT_HOLDS


def cmd_gen_random(args) -> int:
    layer_sizes = [int(s) for s in args.layers.split(",") if s.strip()]
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
    emit(_report(args, {}, result))
    log(f"gen-random: wrote {args.output} ({netlist.num_gates} gates)")
    return EXIT_HOLDS


def cmd_eval(args) -> int:
    inputs, (net_data, schema_data) = _read_inputs(args, "netlist", "schema")
    netlist, schema = parse_netlist(net_data), parse_schema(schema_data)
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
    emit(_report(args, inputs, result))
    log(f"eval: class={cls} confidence={conf}")
    return EXIT_HOLDS


def cmd_accuracy(args) -> int:
    inputs, (net_data, schema_data, csv_data) = _read_inputs(
        args, "netlist", "schema", "csv"
    )
    netlist, schema = parse_netlist(net_data), parse_schema(schema_data)
    dataset = load_csv(schema, csv_data.decode("utf-8-sig"), label_col=args.label_col)
    acc = accuracy(netlist, dataset)
    result = {"rows": len(dataset.rows), "accuracy": _frac(acc)}
    emit(_report(args, inputs, result))
    log(f"accuracy: {float(acc):.4f} over {len(dataset.rows)} rows")
    return EXIT_HOLDS


# -- argument parsing ---------------------------------------------------------


def _add_solver_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--solver", default=None, help="SAT solver executable")
    p.add_argument(
        "--timeout", type=float, default=SolverConfig.timeout, help="solver timeout (s)"
    )


def _add_query_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--schema", "-s", required=True, help="feature schema file")
    p.add_argument("--mode", choices=["fair", "robust"], required=True)
    p.add_argument("--eps", type=int, default=0, help="numeric tolerance (bit flips)")


@functools.cache  # the parser depends on no input, so build it once
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lgnsat",
        description="SAT-based global robustness/fairness verification of "
        "logic gate networks",
    )
    parser.add_argument("--version", action="version", version=f"lgnsat {__version__}")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("validate", help="check netlist (and schema) invariants")
    p.add_argument("netlist")
    p.add_argument("--schema", "-s", default=None)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("verify", help="decide one fixed-threshold query")
    p.add_argument("netlist")
    _add_query_args(p)
    p.add_argument("--kappa", required=True, help="threshold, e.g. 1/2 or 0.99")
    _add_solver_args(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("search-kappa", help="search the minimal safe threshold")
    p.add_argument("netlist")
    _add_query_args(p)
    p.add_argument("--tol", default=DEFAULT_TOLERANCE, help="bracket width (0 = exact)")
    _add_solver_args(p)
    p.set_defaults(func=cmd_search_kappa)

    p = sub.add_parser("sweep", help="verify across a list of thresholds")
    p.add_argument("netlist")
    _add_query_args(p)
    p.add_argument("--kappas", required=True, help="comma list, e.g. 0.5,0.75,0.99")
    _add_solver_args(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("attainable", help="does any input exceed the threshold?")
    p.add_argument("netlist")
    p.add_argument("--schema", "-s", required=True)
    p.add_argument("--kappa", required=True)
    _add_solver_args(p)
    p.set_defaults(func=cmd_attainable)

    p = sub.add_parser("encode", help="emit the DIMACS CNF for a query")
    p.add_argument("netlist")
    _add_query_args(p)
    p.add_argument("--kappa", required=True)
    p.add_argument("--output", "-o", required=True, help="DIMACS output path")
    p.add_argument("--varmap", default=None, help="variable-map sidecar path")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("gen-random", help="generate a random netlist")
    p.add_argument("--input-width", "-d", type=int, required=True)
    p.add_argument("--layers", required=True, help="comma list of layer sizes")
    p.add_argument("--classes", "-C", type=int, required=True)
    p.add_argument("--block-size", "-L", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--output", "-o", required=True)
    p.set_defaults(func=cmd_gen_random)

    p = sub.add_parser("eval", help="predict one row")
    p.add_argument("netlist")
    p.add_argument("--schema", "-s", required=True)
    p.add_argument("--row", default=None, help="comma list of raw feature values")
    p.add_argument("--bits", default=None, help="explicit 0/1 input bit string")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("accuracy", help="dataset accuracy of a netlist")
    p.add_argument("netlist")
    p.add_argument("--schema", "-s", required=True)
    p.add_argument("--csv", required=True)
    p.add_argument("--label-col", default="label")
    p.set_defaults(func=cmd_accuracy)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    args.argv = argv
    try:
        return args.func(args)
    except _INVALID_INPUT_ERRORS as exc:
        emit(
            {
                "tool": {"name": "lgnsat", "version": __version__},
                "command": argv,
                "error": {"type": type(exc).__name__, "message": str(exc)},
            }
        )
        log(f"error: {exc}")
        return EXIT_INVALID_INPUT
    except _USAGE_ERRORS as exc:
        log(f"error: {exc}")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
