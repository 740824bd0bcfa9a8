"""The benchmark's workloads and the seeded generator of their inputs.

A workload fixes the shape of its instances (a random netlist, its schema,
a CSV of rows and a query) and the command a user runs most on them. Every
run times both commands, because every end-to-end metric must exist on
every workload; the workload's own command gets two calls in three.
"""

from __future__ import annotations

import csv
import importlib
import io
import random
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import reference
from machine import calibrate, scaled

ENCODE = "encode"
ACCURACY = "accuracy"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    features: tuple[reference.Feature, ...]
    layers: tuple[int, ...]
    num_classes: int
    block_size: int
    mode: str
    eps: int
    kappa: Fraction
    rows: int
    primary: str

    @property
    def width(self) -> int:
        return sum(f.size for f in self.features)


def _numeric(count: int, bits: int) -> tuple[reference.Feature, ...]:
    return tuple(reference.Feature(f"num{i}", "num", bits) for i in range(count))


def _categorical(count: int, arity: int) -> tuple[reference.Feature, ...]:
    return tuple(reference.Feature(f"cat{i}", "cat", arity) for i in range(count))


# Adult scale: 100 input bits, 3x2000 + 1000 gates, C=2, L=500.
_ADULT_FEATURES = (
    _numeric(6, 10)
    + _categorical(4, 8)
    + (
        reference.Feature("sex", "cat", 2, sensitive=True),
        reference.Feature("race", "cat", 6, sensitive=True),
    )
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="adult-fair-encode",
            why="Adult-scale fair query through lgnsat encode: the per-probe cost up to the "
            "solver, where the sorting networks make about 90% of the clauses.",
            features=_ADULT_FEATURES,
            layers=(2000, 2000, 2000, 1000),
            num_classes=2,
            block_size=500,
            mode="fair",
            eps=1,
            kappa=Fraction(3, 4),
            rows=250,
            primary=ENCODE,
        ),
        Workload(
            name="multiclass-robust-encode",
            why="Ten-class robust query: winner flags grow with C^2*L and the block sorts are "
            "short, so sort changes tuned for C=2 show their cost here.",
            features=_numeric(5, 8) + _categorical(4, 5),
            layers=(1000, 1000, 1000),
            num_classes=10,
            block_size=100,
            mode="robust",
            eps=1,
            kappa=Fraction(1, 2),
            rows=250,
            primary=ENCODE,
        ),
        Workload(
            name="adult-accuracy",
            why="lgnsat accuracy over seeded CSV rows on the Adult netlist: the evaluator and "
            "CSV ingest do the work and the encoder none.",
            features=_ADULT_FEATURES,
            layers=(2000, 2000, 2000, 1000),
            num_classes=2,
            block_size=500,
            mode="fair",
            eps=1,
            kappa=Fraction(3, 4),
            rows=250,
            primary=ACCURACY,
        ),
    )
}


# Instances per run, each from its own netlist seed. The size of a random
# netlist's query varies with the seed (by 9% between quartiles at C=10);
# a run's numbers cover several instances, so one seed's luck weighs less.
INSTANCES = 3


@dataclass(frozen=True)
class Instance:
    """The files of one instance, and what the reference expects of them."""

    workload: Workload
    seed: int
    netlist: Path
    schema: Path
    csv: Path
    expected_accuracy: Fraction


def import_lgnsat():
    """Import lgnsat and its CLI afresh (every lgnsat module is loaded
    again), so that each set-up pays the first import; returns the package."""
    for name in [m for m in sys.modules if m == "lgnsat" or m.startswith("lgnsat.")]:
        del sys.modules[name]
    importlib.import_module("lgnsat.cli")
    return sys.modules["lgnsat"]


def _schema(lgnsat, w: Workload):
    features = []
    for f in w.features:
        if f.kind == "num":
            # Cuts fall on the integers 1..bits, so bucket v holds (v, v+1).
            features.append(lgnsat.NumericFeature(f.name, f.size, 0.0, float(f.size + 1)))
        else:
            features.append(lgnsat.CategoricalFeature(f.name, f.size, f.sensitive))
    return lgnsat.FeatureSchema(tuple(features))


def _csv_text(w: Workload, seed: int, net_text: str) -> tuple[str, Fraction]:
    """Seeded rows labelled with the reference's class, a seeded share of
    them flipped to another class; returns the text and the exact accuracy
    the labels give."""
    rng = random.Random(f"rows-{seed}")
    values = [tuple(rng.randrange(f.domain()) for f in w.features) for _ in range(w.rows)]
    decided = reference.classify(reference.read_netlist(net_text), w.features, values)
    flipped = set(rng.sample(range(w.rows), rng.randint(w.rows // 10, w.rows // 5)))
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow([f.name for f in w.features] + ["label"])
    for r, (row, (cls, _)) in enumerate(zip(values, decided)):
        if r in flipped:
            cls = (cls + rng.randrange(1, w.num_classes)) % w.num_classes
        cells = [
            f"{v + rng.randrange(1, 1000) / 1000:.3f}" if f.kind == "num" else str(v)
            for f, v in zip(w.features, row)
        ]
        writer.writerow(cells + [cls])
    return out.getvalue(), Fraction(w.rows - len(flipped), w.rows)


def _generate_one(lgnsat, w: Workload, seed: int, directory: Path) -> Instance:
    directory.mkdir(parents=True, exist_ok=True)
    net = lgnsat.random_netlist(w.width, list(w.layers), w.num_classes, w.block_size, seed)
    net_bytes = lgnsat.serialize_netlist(net)
    net_path, schema_path, csv_path = (
        directory / "net.lgn", directory / "schema.fs", directory / "rows.csv"
    )
    net_path.write_bytes(net_bytes)
    schema_path.write_bytes(lgnsat.serialize_schema(_schema(lgnsat, w)))
    text, expected = _csv_text(w, seed, net_bytes.decode("ascii"))
    csv_path.write_text(text)
    return Instance(w, seed, net_path, schema_path, csv_path, expected)


def generate(w: Workload, seed: int, directory: Path) -> list[Instance]:
    """Import lgnsat afresh and write the netlist, schema and CSV of each of
    the run's instances; instance k of seed s uses netlist seed s*INSTANCES+k."""
    lgnsat = import_lgnsat()
    return [
        _generate_one(lgnsat, w, seed * INSTANCES + k, directory / f"i{k}")
        for k in range(INSTANCES)
    ]


def set_up(w: Workload, seed: int, directory: Path, repeats: int) -> tuple[list[Instance], list[float]]:
    """Generate the instances ``repeats`` times; returns them and each
    set-up's wall time (import, generation and file writes), scaled to the
    machine's reference speed."""
    times = []
    for _ in range(repeats):
        calibration = calibrate()
        start = time.perf_counter()
        instances = generate(w, seed, directory)
        times.append(scaled(time.perf_counter() - start, calibration))
    return instances, times
