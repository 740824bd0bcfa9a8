"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/collect.py --seeds 1-10 [--traced-seeds 1] [--workloads a,b] [--out FILE]

Each run is a separate ``bench/run.py`` process, one after another, with the
run length from BENCHMARK.json: untraced runs for ``--seeds``, then traced
runs for ``--traced-seeds``. For every workload and metric it prints the
median, the quartiles and the spread: the distance between the quartiles
as a share of the median, next to the metric's bound. With ``--out`` it
writes every run and the summary to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarise(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / q2 if q2 else None,
        "values": values,
    }


def _run(spec, workload: str, seed: int, trace: int) -> dict:
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    if result is None or not result["correct"]:
        print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}",
              file=sys.stderr)
    else:
        print(f"{workload} seed {seed} trace {trace}: {wall:.1f}s wall, "
              f"{result['attempted']} ops, {result['failed']} failed", flush=True)
    return {"workload": workload, "seed": seed, "trace": trace,
            "exit": proc.returncode, "wall_s": wall, "result": result}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--traced-seeds", default="1")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    runs = []
    summary = {}
    for workload in args.workloads.split(","):
        summary[workload] = {}
        for trace, seeds in ((0, args.seeds), (1, args.traced_seeds)):
            mine = [_run(spec, workload, seed, trace) for seed in _seeds(seeds)]
            runs += mine
            per_metric: dict[str, list[float]] = {}
            for run in mine:
                if run["result"] and run["result"]["correct"]:
                    for name, entry in run["result"]["metrics"].items():
                        per_metric.setdefault(name, []).append(entry["value"])
            key = "per_layer" if trace else "end_to_end"
            summary[workload][key] = {name: summarise(v) for name, v in per_metric.items()}
            for name, s in summary[workload][key].items():
                bound = bounds.get(name) if not trace else None
                spread = "-" if s["spread"] is None else f"{s['spread']:.4f}"
                limit = "" if bound is None else f" bound {bound} (third {bound / 3:.4f})"
                print(f"  {name:28s} median {s['median']:<14.6g} q1 {s['q1']:<12.6g} "
                      f"q3 {s['q3']:<12.6g} spread {spread}{limit}")

    if args.out:
        document = {
            "benchmark": spec,
            "machine": {
                "platform": platform.platform(),
                "python": platform.python_version(),
                "cpus": os.cpu_count(),
            },
            "seeds": _seeds(args.seeds),
            "traced_seeds": _seeds(args.traced_seeds),
            "summary": summary,
            "runs": runs,
        }
        Path(args.out).write_text(json.dumps(document, indent=1) + "\n")
    return 0 if all(r["result"] and r["result"]["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
