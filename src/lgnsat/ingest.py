"""CSV ingestion, feature binarization, and dataset-level accuracy.

Rows are binarized with the same thermometer/one-hot conventions the
property encoder constrains, so every encoded row satisfies the
well-formedness predicate by construction. Missing values are rejected.

Binarization yields the input words (bit r of word i is bit i of row r)
a feature column at a time: cells are checked and converted in bulk, and
each value's rows become a mask. Thermometer bit k ORs the masks of the
buckets above k; a one-hot bit is one category's mask.
"""

from __future__ import annotations

import csv
import io
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from itertools import accumulate
from operator import itemgetter, or_

from .errors import DataError
from .evaluator import class_scores, winner_of
from .netlist import Netlist, read_float, read_int, read_text
from .schema import FeatureSchema, NumericFeature


@dataclass(frozen=True)
class Dataset:
    """Parsed rows: per-row raw feature values plus a class label in
    0..C-1 (labels are 0-based, like every other index in this toolkit),
    the file line each row starts on, by default 2, 3, ..., and the input
    words of all rows, built once here. Row errors name the row by that line.
    """

    schema: FeatureSchema
    rows: tuple[tuple[tuple, int], ...]
    lines: tuple[int, ...] = ()
    words: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        if not self.lines:
            object.__setattr__(self, "lines", tuple(range(2, len(self.rows) + 2)))
        values = [v for _, (v, _) in zip(self.lines, self.rows, strict=True)]
        object.__setattr__(self, "words", input_words(self.schema, values, self.lines))


def _read_all(cells, read, convert, reject: str) -> list:
    """``read`` of each cell, up to the first it rejects (TypeError or ValueError);
    ``convert`` is ``read`` on text free of ``reject``, mapped in bulk."""
    try:
        text = "".join(cells)
        if not any(c in text for c in reject):
            return list(map(convert, cells))
    except (TypeError, ValueError):
        pass
    values = []
    for cell in cells:
        try:
            values.append(read(cell))
        except (TypeError, ValueError):
            break
    return values


# A Python number is a numeric value itself, and text takes no "_"; a Python
# int is a category itself, and text must be digits.
_NUMBER = (lambda raw: read_float(raw) if type(raw) is str else float(raw), float, "_")
_CATEGORY = (lambda raw: raw if type(raw) is int else read_int(raw), int, "_+")


def _value_masks(values: list[int], size: int) -> list[int]:
    """Per value v in 0..size-1, the mask of the rows holding v, read from one
    byte per row; past 255, the AND of the masks of the low byte and the rest."""
    if size > 256:
        low = _value_masks([v & 255 for v in values], 256)
        high = _value_masks([v >> 8 for v in values], (size + 255) >> 8)
        return [high[v >> 8] & low[v & 255] for v in range(size)]
    column = bytes(values[::-1])  # the last row is the high digit
    return [int(column.translate(b"0" * v + b"1" + b"0" * (255 - v)), 2) for v in range(size)]


def input_words(schema: FeatureSchema, rows, lines=None) -> tuple[int, ...]:
    """Rows of raw feature values -> input words. The first bad row is reported:
    a wrong value count, else its first value that does not convert or lies out
    of range, else its first unknown category, named by ``lines`` if given."""
    count, good = len(schema.features), len(rows)
    if not set(map(len, rows)) <= {count}:
        good = next(r for r, values in enumerate(rows) if len(values) != count)
    bad = [(good, 0, f"expected {count} values, got {len(rows[good])}")] if good < len(rows) else []
    words = []
    for f, cells in zip(schema.features, zip(*rows[:good])):
        num = isinstance(f, NumericFeature)
        values = _read_all(cells, *(_NUMBER if num else _CATEGORY))
        lo, hi = (f.lo, f.hi) if num else (0, f.arity - 1)
        # NaN fails every comparison and makes the sum NaN.
        if values and not (lo <= min(values) and max(values) <= hi and (s := sum(values)) == s):
            r = next(r for r, v in enumerate(values) if not lo <= v <= hi)
            error = (f"value {values[r]!r} outside [{lo}, {hi}]" if num
                     else f"unknown category {values[r]!r}")
            bad.append((r, 1 - num, f"feature {f.name!r}: {error}"))
        elif len(values) < good:
            error = "non-numeric value" if num else "unknown category"
            bad.append((len(values), 0, f"feature {f.name!r}: {error} {cells[len(values)]!r}"))
        elif num and not bad:
            masks = _value_masks(list(map(partial(bisect_right, f.cut_points), values)), f.bits + 1)
            words += list(accumulate(masks[:0:-1], or_))[::-1]
        elif not bad:
            words += _value_masks(values, f.arity)
    if bad:
        r, _, message = min(bad, key=itemgetter(0, 1))
        raise DataError(message if lines is None else f"row {lines[r]}: {message}")
    return tuple(words) if rows else (0,) * schema.width


def encode_row(schema: FeatureSchema, raw_values) -> tuple[int, ...]:
    """Raw feature values -> input bits, as the one-row case of ``input_words``:
    numbers are bucketed by the feature's thresholds into thermometer bits,
    integer category indices become one-hot bits."""
    return input_words(schema, [raw_values])


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


def _cells(records, i: int, default) -> list:
    """Cell ``i`` of each record, ``default`` where a record is shorter."""
    try:
        return list(map(itemgetter(i), records))
    except IndexError:
        return [r[i] if i < len(r) else default for r in records]


def load_csv(schema: FeatureSchema, data: bytes | str, label_col: str = "label") -> Dataset:
    """Parse a CSV file with a header row whose columns include every schema
    feature name plus the label column; callers read the file, so the bytes
    they hash are the bytes parsed. Header names and cells are stripped,
    blank lines skipped, cells past the header ignored, and a repeated
    header name reads its last column. Rows are numbered by their first line.
    Every row's cells and label are checked before any value is converted."""
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
    lines, rows = [], []
    for lineno, record in records:
        if record:  # not a blank line
            lines.append(lineno)
            rows.append(record)
    cells = [list(map(str.strip, _cells(rows, column[f.name], ""))) for f in schema.features]
    raw_labels = _cells(rows, column[label_col], None)
    labels = _read_all(raw_labels, read_int, int, "_+")
    r, j = min(((c.index(""), j) for j, c in enumerate(cells) if "" in c), default=(len(rows), 0))
    if r <= len(labels) and r < len(rows):
        raise DataError(f"row {lines[r]}: missing value for {schema.features[j].name!r}")
    if len(labels) < len(rows):
        raise DataError(f"row {lines[len(labels)]}: non-integer label {raw_labels[len(labels)]!r}")
    return Dataset(schema, tuple(zip(zip(*cells), labels)), tuple(lines))


def accuracy(netlist: Netlist, dataset: Dataset) -> Fraction:
    """Fraction of rows whose predicted class equals the label; all rows
    are evaluated in one bit-sliced batch."""
    if not dataset.rows:
        raise DataError("dataset has no rows")
    for lineno, (_, label) in zip(dataset.lines, dataset.rows):
        if not 0 <= label < netlist.num_classes:
            raise DataError(
                f"row {lineno}: label {label} outside 0..{netlist.num_classes - 1}"
            )
    scores = class_scores(netlist, dataset.words, len(dataset.rows))
    hits = sum(winner_of(s) == label for s, (_, label) in zip(scores, dataset.rows))
    return Fraction(hits, len(dataset.rows))
