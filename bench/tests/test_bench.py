"""Tests of the benchmark itself.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import harness  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def small(name: str) -> workloads.Workload:
    """A test-scale copy of a workload: same mode, fewer gates and rows."""
    w = WORKLOADS[name]
    features = (
        reference.Feature("num0", "num", 4),
        reference.Feature("num1", "num", 3),
        reference.Feature("cat0", "cat", 3),
    )
    if w.mode == "fair":
        features += (reference.Feature("sex", "cat", 2, sensitive=True),)
    num_classes = min(w.num_classes, 4)
    return dataclasses.replace(
        w, features=features, layers=(60, num_classes * 10), num_classes=num_classes,
        block_size=10, rows=60,
    )


def header(path: Path) -> tuple[int, int]:
    fields = path.read_bytes().split(b"\n", 1)[0].split()
    return int(fields[2]), int(fields[3])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_deterministic(tmp_path, name):
    w = WORKLOADS[name]
    a = workloads.generate(w, 3, tmp_path / "a")
    b = workloads.generate(w, 3, tmp_path / "b")
    c = workloads.generate(w, 4, tmp_path / "c")
    files = ("netlist", "schema", "csv")
    for x, y in zip(a, b):
        assert [getattr(x, f).read_bytes() for f in files] == [getattr(y, f).read_bytes() for f in files]
        assert x.expected_accuracy == y.expected_accuracy < 1
    nets = {i.netlist.read_bytes() for i in a + c}
    assert len(nets) == 2 * workloads.INSTANCES


@pytest.mark.parametrize("name", ["adult-fair-encode", "multiclass-robust-encode"])
def test_family_clauses_sum_to_query_size(tmp_path, name):
    w = WORKLOADS[name]
    inst = workloads.generate(w, 1, tmp_path)[0]
    tracer = tracing.Tracer(w.block_size, w.num_classes)
    main = sys.modules["lgnsat.cli"].main
    call = harness.one_call(main, "encode", inst, 0, True, tracer)
    assert call.code == 0
    layers = tracing.layer_metrics(tracer)
    assert tracer.missing == []
    num_vars, num_clauses = header(inst.netlist.parent / "query.cnf")
    families = tracing.FAMILIES + ("other",)
    assert sum(layers[f"encoder.{f}.clauses"] for f in families) == num_clauses
    assert sum(layers[f"encoder.{f}.vars"] for f in families) == num_vars
    assert all(layers[f"encoder.{f}.clauses"] > 0 for f in tracing.FAMILIES)


@pytest.mark.parametrize("name", ["adult-fair-encode", "multiclass-robust-encode"])
def test_check_passes_on_small_workload(tmp_path, name):
    instances, _ = workloads.set_up(small(name), 5, tmp_path, 1)
    calls = harness.measure(instances, 0.0)
    checked = harness.check(instances, calls)
    assert checked.problems == []
    assert checked.failed == 0 and checked.attempted == len(calls) + len(instances)
    assert {c.instance for c in calls} == set(range(len(instances)))
    assert sum(c.command == "encode" for c in calls) >= harness.MIN_CALLS["encode"]


def test_missing_callable_is_reported_not_fatal(tmp_path, monkeypatch):
    w = small("adult-fair-encode")
    inst = workloads.generate(w, 1, tmp_path)[0]
    gone = ("lgnsat.encoder", "emit_renamed_family", "encoder.similarity")
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (gone,))
    tracer = tracing.Tracer(w.block_size, w.num_classes)
    main = sys.modules["lgnsat.cli"].main
    calls = [harness.one_call(main, "encode", inst, 0, True, tracer) for _ in range(2)]
    assert [c.code for c in calls] == [0, 0]
    assert tracer.missing == ["lgnsat.encoder.emit_renamed_family"]
    assert tracing.layer_metrics(tracer)["trace.missing_spans"] == 1


def _negate_network_literal(to_dimacs, x_bits):
    """to_dimacs on a formula with one network-definition clause broken.

    The builder numbers the first copy's inputs 2, 3, ... Find a gate whose
    two-literal definition clauses (g, a) and (g, b) both have their input
    literal false under ``x_bits``, so both force g; negating g in the first
    makes the pair with those inputs propagate to a conflict.
    """
    def false_input(lit):
        index = abs(lit) - 2
        return 0 <= index < len(x_bits) and x_bits[index] == (lit < 0)

    def corrupted(formula):
        clauses = list(formula.clauses)
        forced_by = {}
        for k, clause in enumerate(clauses):
            if len(clause) != 2:
                continue
            g, a = sorted(clause, key=false_input)
            if false_input(a) and not false_input(g) and abs(g) - 2 >= len(x_bits):
                if g in forced_by:
                    first, other = forced_by[g]
                    clauses[first] = (-g, other)
                    return to_dimacs(dataclasses.replace(formula, clauses=tuple(clauses)))
                forced_by[g] = (k, a)
        raise AssertionError("no gate with two false input literals")

    return corrupted


@pytest.mark.parametrize("name", ["adult-fair-encode", "multiclass-robust-encode"])
def test_check_catches_corrupted_query(tmp_path, monkeypatch, name):
    w = small(name)
    instances, _ = workloads.set_up(w, 5, tmp_path, 1)
    inst = instances[0]
    net = reference.read_netlist(inst.netlist.read_text())
    kappa, pairs = reference.choose_pairs(net, w.features, w.eps, w.mode, inst.seed)
    x = next(p.x for p in pairs if p.counterexample(kappa))
    cli = sys.modules["lgnsat.cli"]
    monkeypatch.setattr(
        cli, "to_dimacs", _negate_network_literal(cli.to_dimacs, reference.input_bits(w.features, x))
    )
    checked = harness.check(instances[:1], harness.measure(instances[:1], 0.0))
    assert checked.failed / checked.attempted > 0
    assert any("check query" in p for p in checked.problems)


def test_run_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "adult-accuracy", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
    assert not (tmp_path / "bench" / ".work").exists()


def test_benchmark_json_matches_workloads():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in WORKLOADS.values()]
