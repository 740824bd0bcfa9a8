"""CSV ingestion, feature binarization, and dataset-level accuracy.

Rows are binarized with the same thermometer/one-hot conventions the
property encoder constrains, so every encoded row satisfies the
well-formedness predicate by construction. Missing values are rejected.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import DataError
from .evaluator import predict_batch
from .netlist import Netlist
from .schema import CategoricalFeature, FeatureSchema, NumericFeature


@dataclass(frozen=True)
class Dataset:
    """Parsed rows: per-row raw feature values plus a class label in
    0..C-1 (labels are 0-based, like every other index in this toolkit),
    and each row's input bits, encoded once here.

    Encoding errors carry the row's number as a line of a CSV file with a
    header line, the first row being row 2, as ``load_csv``'s errors do.
    """

    schema: FeatureSchema
    rows: tuple[tuple[tuple, int], ...]
    bits: tuple[tuple[int, ...], ...] = field(init=False)

    def __post_init__(self):
        bits = []
        for lineno, (values, _) in enumerate(self.rows, start=2):
            try:
                bits.append(encode_row(self.schema, values))
            except DataError as exc:
                raise DataError(f"row {lineno}: {exc}")
        object.__setattr__(self, "bits", tuple(bits))


def encode_row(schema: FeatureSchema, raw_values) -> tuple[int, ...]:
    """Raw feature values -> input bits.

    Numeric values are bucketed via the feature's thresholds and emitted as
    thermometer bits; categorical values must be integer category indices
    and become one-hot bits. Out-of-range values and unknown categories are
    errors.
    """
    if len(raw_values) != len(schema.features):
        raise DataError(
            f"expected {len(schema.features)} values, got {len(raw_values)}"
        )
    buckets = []
    for f, raw in zip(schema.features, raw_values):
        if isinstance(f, NumericFeature):
            try:
                value = float(raw)
            except (TypeError, ValueError):
                raise DataError(f"feature {f.name!r}: non-numeric value {raw!r}")
            buckets.append(f.bucket_of(value))
        else:
            try:
                cat = int(raw)
            except (TypeError, ValueError):
                raise DataError(f"feature {f.name!r}: unknown category {raw!r}")
            if not 0 <= cat < f.arity:
                raise DataError(f"feature {f.name!r}: unknown category {cat}")
            buckets.append(cat)
    return schema.encode_values(buckets)


def load_csv(schema: FeatureSchema, text: str, label_col: str = "label") -> Dataset:
    """Parse CSV text with a header row whose columns include every schema
    feature name plus the label column. Callers read the file themselves,
    so the bytes they hash are the bytes parsed."""
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames is None:
        raise DataError("CSV has no header row")
    missing = [
        f.name for f in schema.features if f.name not in reader.fieldnames
    ]
    if missing:
        raise DataError(f"CSV is missing feature columns: {missing}")
    if label_col not in reader.fieldnames:
        raise DataError(f"CSV is missing label column {label_col!r}")
    rows = []
    for lineno, record in enumerate(reader, start=2):
        values = []
        for f in schema.features:
            cell = record[f.name]
            if cell is None or cell.strip() == "":
                raise DataError(f"row {lineno}: missing value for {f.name!r}")
            values.append(cell.strip())
        try:
            label = int(record[label_col])
        except (TypeError, ValueError):
            raise DataError(f"row {lineno}: non-integer label {record[label_col]!r}")
        rows.append((tuple(values), label))
    return Dataset(schema, tuple(rows))


def accuracy(netlist: Netlist, dataset: Dataset) -> Fraction:
    """Fraction of rows whose predicted class equals the label; all rows
    are evaluated in one bit-sliced batch."""
    if dataset.schema.width != netlist.input_width:
        raise DataError(
            f"schema width {dataset.schema.width} != netlist input_width "
            f"{netlist.input_width}"
        )
    if not dataset.rows:
        raise DataError("dataset has no rows")
    for _, label in dataset.rows:
        if not 0 <= label < netlist.num_classes:
            raise DataError(
                f"label {label} outside 0..{netlist.num_classes - 1}"
            )
    predictions = predict_batch(netlist, dataset.bits)
    hits = sum(
        cls == label for (cls, _, _), (_, label) in zip(predictions, dataset.rows)
    )
    return Fraction(hits, len(dataset.rows))
