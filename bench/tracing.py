"""Spans around the calls into each layer of lgnsat, taken from outside.

While installed, the tracer replaces the public callables listed in
``TARGETS`` with timing wrappers, in every lgnsat module that holds them,
and puts the originals back on ``uninstall``. A span records its name,
start, end, parent span and the CLI call it belongs to. Encoder family spans
also record the clauses and variables the builder gained during the call.
Spans stay in memory until ``write``.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

FAMILIES = (
    "well_formed", "network", "block_sort", "total_sort", "winners", "confidence", "similarity",
)

# (module, attribute, span name). An "encoder.<family>" span counts builder
# growth; "encoder.sort" splits into block_sort and total_sort by length.
TARGETS = (
    ("lgnsat.netlist", "parse_netlist", "netlist.parse"),
    ("lgnsat.schema", "parse_schema", "schema.parse"),
    ("lgnsat.encoder", "build_query", "encoder.build"),
    ("lgnsat.cnf", "to_dimacs", "cnf.dimacs"),
    ("lgnsat.ingest", "load_csv", "ingest.load_csv"),
    ("lgnsat.ingest", "encode_row", "ingest.encode_row"),
    ("lgnsat.evaluator", "predict", "evaluator.predict"),
    ("lgnsat.encoder", "emit_well_formed", "encoder.well_formed"),
    ("lgnsat.cnf", "CnfBuilder.encode_network", "encoder.network"),
    ("lgnsat.cnf", "CnfBuilder.sort_block", "encoder.sort"),
    ("lgnsat.encoder", "emit_winning", "encoder.winners"),
    ("lgnsat.encoder", "emit_diff_class", "encoder.winners"),
    ("lgnsat.encoder", "emit_confidence_gt", "encoder.confidence"),
    ("lgnsat.encoder", "emit_prox", "encoder.similarity"),
    ("lgnsat.encoder", "emit_same_cat", "encoder.similarity"),
    ("lgnsat.encoder", "emit_diff_cat", "encoder.similarity"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    call: int | None = None
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _builder_size(builder):
    clauses = getattr(builder, "clauses", None)
    num_vars = getattr(builder, "num_vars", None)
    if clauses is None or num_vars is None:
        return None
    return len(clauses), num_vars


class Tracer:
    def __init__(self, block_size: int, num_classes: int):
        self.block_size = block_size
        self.total_size = block_size * num_classes
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._call: int | None = None
        self._patched: list[tuple[object, str, object]] = []

    # -- installing wrappers ------------------------------------------------

    def install(self) -> None:
        self.missing = []
        for module_name, attr, span_name in TARGETS:
            owner = sys.modules.get(module_name)
            *path, name = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, name, None) if owner is not None else None
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapper = self._wrap(original, span_name)
            if path:
                self._patch(owner, name, wrapper)
                continue
            for mod_name, module in list(sys.modules.items()):
                if mod_name == "lgnsat" or mod_name.startswith("lgnsat."):
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    def _patch(self, owner, key: str, wrapper) -> None:
        self._patched.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def _wrap(self, fn, span_name: str):
        tracer = self

        def traced(*args, **kwargs):
            index = tracer._open(span_name, args)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(index, args, None)
                raise
            tracer._close(index, args, result)
            return result

        return traced

    # -- spans --------------------------------------------------------------

    @contextmanager
    def cli_call(self, command: str, instance: int):
        """One span per CLI call; the spans inside it share its id."""
        self._call = len(self.spans)
        index = self._open(f"cli.{command}", ())
        self.spans[index].counts["instance"] = instance
        try:
            yield
        finally:
            self._close(index, (), None)
            self._call = None

    def _open(self, name: str, args) -> int:
        if name == "encoder.sort":
            n = len(args[1]) if len(args) > 1 else -1
            name = {self.block_size: "encoder.block_sort", self.total_size: "encoder.total_sort"}.get(
                n, "encoder.sort_other"
            )
        span = Span(name, 0.0, parent=self._stack[-1] if self._stack else None, call=self._call)
        if name.startswith("encoder.") and name != "encoder.build" and args:
            size = _builder_size(args[0])
            if size is not None:
                span.counts["before"] = size
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        span.start = time.perf_counter()
        return len(self.spans) - 1

    def _close(self, index: int, args, result) -> None:
        end = time.perf_counter()
        span = self.spans[index]
        span.end = end
        self._stack.pop()
        before = span.counts.pop("before", None)
        after = _builder_size(args[0]) if before is not None else None
        if after is not None:
            span.counts["clauses"] = after[0] - before[0]
            span.counts["vars"] = after[1] - before[1]
        if span.name == "netlist.parse" and result is not None:
            span.counts["gates"] = getattr(result, "num_gates", None)
        if span.name == "encoder.build" and isinstance(result, tuple) and result:
            formula = result[0]
            clauses = getattr(formula, "clauses", None)
            if clauses is not None:
                span.counts["clauses"] = len(clauses)
                span.counts["vars"] = getattr(formula, "num_vars", None)

    def write(self, path) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span)) + "\n")


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer numbers from the traced CLI calls.

    Times are per CLI call, as the median over the calls of the command that
    runs the layer. Clause and variable counts are per query, as the mean
    over the instances; a family span nested in another counts toward the
    outer one, and ``encoder.other`` is what the query holds outside every
    family span.
    """
    spans = tracer.spans
    calls = {i: s for i, s in enumerate(spans) if s.name.startswith("cli.")}
    per_call = {i: [] for i in calls}
    children = {i: [] for i in range(len(spans))}
    for i, s in enumerate(spans):
        if s.call is not None and i != s.call:
            per_call[s.call].append(s)
        if s.parent is not None:
            children[s.parent].append(s)
    encode_calls = [i for i, s in calls.items() if s.name == "cli.encode"]
    accuracy_calls = [i for i, s in calls.items() if s.name == "cli.accuracy"]

    def total(call, name):
        return sum(s.seconds for s in per_call[call] if s.name == name)

    def mean_us(call, name):
        times = [s.seconds for s in per_call[call] if s.name == name]
        return 1e6 * sum(times) / len(times) if times else 0.0

    def self_time(call):
        return calls[call].seconds - sum(s.seconds for s in children[call])

    def in_family(s):
        while s.parent is not None:
            s = spans[s.parent]
            if s.name.startswith("encoder.") and s.name != "encoder.build":
                return True
        return False

    def family_counts(call):
        counts = {f: [0, 0] for f in FAMILIES}
        build = [s for s in per_call[call] if s.name == "encoder.build"]
        other = [build[0].counts.get("clauses", 0), build[0].counts.get("vars", 0)] if build else [0, 0]
        for s in per_call[call]:
            if "clauses" not in s.counts or s.name == "encoder.build" or in_family(s):
                continue
            family = s.name.split(".", 1)[1]
            if family in counts:
                counts[family][0] += s.counts["clauses"]
                counts[family][1] += s.counts["vars"]
                other[0] -= s.counts["clauses"]
                other[1] -= s.counts["vars"]
        counts["other"] = other
        return counts

    m = {
        "netlist.parse_s": _median(total(c, "netlist.parse") for c in calls),
        "netlist.gates": _median(
            s.counts.get("gates") or 0 for c in calls for s in per_call[c] if s.name == "netlist.parse"
        ),
        "schema.parse_s": _median(total(c, "schema.parse") for c in calls),
        "encoder.build_s": _median(total(c, "encoder.build") for c in encode_calls),
    }
    first_per_instance = {calls[c].counts["instance"]: c for c in reversed(encode_calls)}
    counts = [family_counts(c) for c in first_per_instance.values()]
    for family in FAMILIES:
        m[f"encoder.{family}.s"] = _median(total(c, f"encoder.{family}") for c in encode_calls)
    for family in FAMILIES + ("other",):
        m[f"encoder.{family}.clauses"] = _mean(k[family][0] for k in counts)
        m[f"encoder.{family}.vars"] = _mean(k[family][1] for k in counts)
    m["cnf.dimacs_s"] = _median(total(c, "cnf.dimacs") for c in encode_calls)
    m["cli.encode_self_s"] = _median(self_time(c) for c in encode_calls)
    m["cli.accuracy_self_s"] = _median(self_time(c) for c in accuracy_calls)
    m["ingest.load_csv_s"] = _median(total(c, "ingest.load_csv") for c in accuracy_calls)
    m["ingest.encode_row_us"] = _median(mean_us(c, "ingest.encode_row") for c in accuracy_calls)
    m["ingest.rows_per_call"] = _median(
        sum(s.name == "evaluator.predict" for s in per_call[c]) for c in accuracy_calls
    )
    m["evaluator.predict_us"] = _median(mean_us(c, "evaluator.predict") for c in accuracy_calls)
    m["trace.missing_spans"] = len(tracer.missing)
    return m
