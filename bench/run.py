"""Benchmark of the lgnsat paths that run without a SAT solver.

    python3 bench/run.py --workload adult-fair-encode --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; it builds nothing and imports lgnsat from
``src``. It generates the workload's inputs from the seed, times the
``encode`` and ``accuracy`` commands in a closed loop, checks every output
against an independent reference and prints one line per metric. The last
line of standard output is one JSON object: with ``--trace 0`` it holds the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a traced run.
Scratch files go to ``bench/.work``. See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
from pathlib import Path
from statistics import fmean, median

import harness
import machine
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
WORK = BENCH / ".work"

# Set-ups before the timed loop, and as many again after it, so that
# setup_s samples the machine at both ends of the run.
SETUPS = 3


def _print_metrics(metrics: dict, notes: dict) -> None:
    for name, entry in metrics.items():
        note = notes.get(name, "")
        print(f"  {name:28s} {entry['value']:>14.6g} {entry['unit']:8s} {note}")


def end_to_end(w, setup_times, calls, checked, rss_mb) -> tuple[dict, dict]:
    queries = f"mean of {len(checked.query_clauses)} queries"
    plain = [c for c in calls if not c.traced]
    encode = [c.scaled_seconds for c in plain if c.command == "encode"]
    rates = [w.rows / c.scaled_seconds for c in plain if c.command == "accuracy"]
    raw = median([c.seconds for c in plain if c.command == "encode"])
    speed = median([machine.REFERENCE_S / c.calibration for c in plain])
    tail, pct = harness.tail(encode)
    values = {
        "setup_s": (median(setup_times), "s", f"median of {len(setup_times)} set-ups"),
        "encode_p50_s": (median(encode), "s",
                         f"{len(encode)} samples; unscaled {raw:.4f} s at speed {speed:.3f}"),
        "encode_tail_s": (tail, "s", f"p{pct:.0f} of {len(encode)} samples, "
                                      f"{harness.TAIL_BEYOND} beyond it"),
        "query_clauses": (fmean(checked.query_clauses), "count", f"{queries}, DIMACS header"),
        "query_vars": (fmean(checked.query_vars), "count", f"{queries}, DIMACS header"),
        "dimacs_mb": (fmean(checked.dimacs_bytes) / 1e6, "MB", f"{queries}, file size"),
        "accuracy_rows_per_s": (median(rates), "1/s",
                                f"median of {len(rates)} calls of {w.rows} rows"),
        "peak_rss_mb": (rss_mb, "MB", "whole process"),
        "ops_ok_ratio": (1 - checked.failed / checked.attempted, "ratio",
                         f"ops_failed_ratio {checked.failed / checked.attempted:g} "
                         f"({checked.failed} of {checked.attempted})"),
    }
    metrics = {k: {"value": v, "unit": u} for k, (v, u, _) in values.items()}
    return metrics, {k: n for k, (_, _, n) in values.items()}


def per_layer(tracer, calls) -> tuple[dict, dict]:
    values = tracing.layer_metrics(tracer)
    values["trace.overhead_ratio"] = harness.overhead_ratio(calls)

    def unit(name):
        if name.endswith("_us"):
            return "us"
        if name.endswith("_s") or name.endswith(".s"):
            return "s"
        return "ratio" if name.endswith("_ratio") else "count"

    metrics = {k: {"value": v, "unit": unit(k)} for k, v in values.items()}
    notes = {"trace.missing_spans": ", ".join(tracer.missing)}
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "lgnsat" / "__init__.py").is_file():
        print(f"error: no lgnsat sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload]
    directory = WORK / w.name
    shutil.rmtree(directory, ignore_errors=True)

    instances, setup_times = workloads.set_up(w, args.seed, directory, SETUPS)
    lgnsat = sys.modules["lgnsat"]
    if not Path(lgnsat.__file__).resolve().is_relative_to(SRC):
        print(f"error: lgnsat imported from {lgnsat.__file__}, not {SRC}", file=sys.stderr)
        return 2

    tracer = tracing.Tracer(w.block_size, w.num_classes) if args.trace else None
    calls = harness.measure(instances, args.seconds, tracer)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup_times += workloads.set_up(w, args.seed, directory / "again", SETUPS)[1]
    checked = harness.check(instances, calls)

    if tracer is None:
        metrics, notes = end_to_end(w, setup_times, calls, checked, rss_mb)
    else:
        tracer.write(directory / "spans.jsonl")
        metrics, notes = per_layer(tracer, calls)

    counts = {c: sum(x.command == c for x in calls) for c in ("encode", "accuracy")}
    kappas = ", ".join(str(k) for k in checked.check_kappas)
    print(f"{w.name} seed {args.seed} trace {args.trace}: {len(instances)} instances, "
          f"{counts['encode']} encode calls, {counts['accuracy']} accuracy calls; checked "
          f"{checked.pairs} input pairs at kappa {w.kappa} and at {kappas}")
    for problem in checked.problems:
        print(f"  FAILED {problem}")
    _print_metrics(metrics, notes)
    print(json.dumps({
        "correct": checked.failed == 0,
        "attempted": checked.attempted,
        "failed": checked.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
