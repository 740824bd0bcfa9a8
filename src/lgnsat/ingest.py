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
from .evaluator import class_scores, winner_of
from .netlist import Netlist, read_float, read_int, read_text
from .schema import FeatureSchema, NumericFeature


@dataclass(frozen=True)
class Dataset:
    """Parsed rows: per-row raw feature values plus a class label in
    0..C-1 (labels are 0-based, like every other index in this toolkit),
    the file line each row starts on, by default 2, 3, ..., and each row's
    input bits, encoded once here. Row errors name the row by that line.
    """

    schema: FeatureSchema
    rows: tuple[tuple[tuple, int], ...]
    lines: tuple[int, ...] = ()
    bits: tuple[tuple[int, ...], ...] = field(init=False)

    def __post_init__(self):
        if not self.lines:
            object.__setattr__(self, "lines", tuple(range(2, len(self.rows) + 2)))
        bits = []
        for lineno, (values, _) in zip(self.lines, self.rows, strict=True):
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
            try:  # a Python number is the value itself; text takes no "_"
                value = read_float(raw) if type(raw) is str else float(raw)
            except (TypeError, ValueError):
                raise DataError(f"feature {f.name!r}: non-numeric value {raw!r}")
            buckets.append(f.bucket_of(value))
        else:
            try:  # a Python int is the category itself; text must be digits
                cat = raw if type(raw) is int else read_int(raw)
            except (TypeError, ValueError):
                raise DataError(f"feature {f.name!r}: unknown category {raw!r}")
            buckets.append(cat)
    return schema.encode_values(buckets)


def _records(reader):
    """(line, record) per CSV record, by the line it starts on; a record the
    reader rejects, such as an oversized cell, is a DataError on that row."""
    line = 1
    try:
        for record in reader:
            yield line, record
            line = reader.line_num + 1
    except csv.Error as exc:
        raise DataError(f"row {line}: {exc}") from None


def load_csv(schema: FeatureSchema, data: bytes | str, label_col: str = "label") -> Dataset:
    """Parse a CSV file with a header row whose columns include every schema
    feature name plus the label column; callers read the file, so the bytes
    they hash are the bytes parsed. Header names and cells are stripped,
    blank lines skipped, cells past the header ignored, and a repeated
    header name reads its last column. Rows are numbered by their first line."""
    records = _records(csv.reader(io.StringIO(read_text(data, DataError))))
    _, header = next(records, (None, None))
    if header is None:
        raise DataError("CSV has no header row")
    column = {name.strip(): i for i, name in enumerate(header)}
    missing = [f.name for f in schema.features if f.name not in column]
    if missing:
        raise DataError(f"CSV is missing feature columns: {missing}")
    if label_col not in column:
        raise DataError(f"CSV is missing label column {label_col!r}")
    cells = [(f.name, column[f.name]) for f in schema.features]
    label_at = column[label_col]
    rows, lines = [], []
    for lineno, record in records:
        if not record:  # a blank line
            continue
        values = []
        for name, i in cells:
            cell = record[i].strip() if i < len(record) else ""
            if not cell:
                raise DataError(f"row {lineno}: missing value for {name!r}")
            values.append(cell)
        label = record[label_at] if label_at < len(record) else None
        try:
            label = read_int(label)
        except (TypeError, ValueError):
            raise DataError(f"row {lineno}: non-integer label {label!r}")
        rows.append((tuple(values), label))
        lines.append(lineno)
    return Dataset(schema, tuple(rows), tuple(lines))


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
    for lineno, (_, label) in zip(dataset.lines, dataset.rows):
        if not 0 <= label < netlist.num_classes:
            raise DataError(
                f"row {lineno}: label {label} outside 0..{netlist.num_classes - 1}"
            )
    hits = sum(
        winner_of(s) == label
        for s, (_, label) in zip(class_scores(netlist, dataset.bits), dataset.rows)
    )
    return Fraction(hits, len(dataset.rows))
