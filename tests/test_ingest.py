import itertools
import random
import re
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest

from helpers import (
    encode_values,
    input_ref,
    reference_bucket,
    reference_dataset_bits,
    reference_encode_row,
    reference_load_csv,
    row_words,
    small_schema,
)

from lgnsat.errors import DataError
from lgnsat.evaluator import predict
from lgnsat.ingest import Dataset, accuracy, encode_row, load_csv
from lgnsat.netlist import Netlist
from lgnsat.schema import CategoricalFeature, FeatureSchema, NumericFeature


def adult_like_schema():
    """Same shape as the Adult task: 7 features, 4 categorical / 3 numeric."""
    return FeatureSchema(
        (
            NumericFeature("age", 19, 17.0, 90.0),
            CategoricalFeature("workclass", 7),
            NumericFeature("education_num", 15, 1.0, 16.0),
            CategoricalFeature("marital", 7),
            CategoricalFeature("race", 5),
            CategoricalFeature("sex", 2, sensitive=True),
            NumericFeature("hours", 20, 1.0, 99.0),
        )
    )


class TestEncodeRow:
    def test_integer_range_collapse(self):
        # 5 representable values over 4 bits: 0 -> 0000, 4 -> 1111
        schema = FeatureSchema((NumericFeature("f", 4, 0.0, 4.0),))
        assert encode_row(schema, ["0"]) == (0, 0, 0, 0)
        assert encode_row(schema, ["2"]) == (1, 1, 0, 0)
        assert encode_row(schema, ["4"]) == (1, 1, 1, 1)

    def test_adult_shape(self):
        schema = adult_like_schema()
        assert len(schema.features) == 7
        assert sum(1 for f in schema.features if isinstance(f, NumericFeature)) == 3
        assert sum(1 for f in schema.features if isinstance(f, CategoricalFeature)) == 4

    def test_out_of_range_rejected(self):
        schema = FeatureSchema((NumericFeature("f", 4, 0.0, 4.0),))
        with pytest.raises(DataError, match="outside"):
            encode_row(schema, ["5"])
        with pytest.raises(DataError, match="outside"):
            encode_row(schema, ["-0.5"])

    def test_bucket_boundaries(self):
        # Equal-width cuts of [0, 4] over 3 bits fall on 1, 2 and 3; a value
        # on a cut goes to the bucket above it.
        def buckets(f, values):
            schema = FeatureSchema((f,))
            return [schema.decode_bits(encode_row(schema, [v]))[0] for v in values]

        f = NumericFeature("v", 3, 0.0, 4.0)
        assert f.cut_points == (1.0, 2.0, 3.0)
        values = (0.0, 0.999, 1.0, 1.5, 2.0, 2.999, 3.0, 4.0)
        assert buckets(f, values) == [0, 0, 1, 1, 2, 2, 3, 3]
        g = NumericFeature("h", 3, 0.0, 80.0, thresholds=(10.0, 25.0, 40.0))
        values = (0.0, 9.99, 10.0, 24.9, 25.0, 40.0, 80.0)
        assert buckets(g, values) == [0, 0, 1, 1, 2, 3, 3]
        for outside in (-0.001, 4.001):
            with pytest.raises(DataError, match="outside"):
                buckets(f, [outside])

    def test_thresholds_must_ascend(self):
        f = NumericFeature("h", 3, 0.0, 80.0, thresholds=(25.0, 10.0, 40.0))
        violations = FeatureSchema((f,)).located_violations()
        assert any("not ascending" in message for _, message in violations)

    def test_unknown_category_rejected(self):
        schema = FeatureSchema((CategoricalFeature("c", 3),))
        with pytest.raises(DataError, match="unknown category"):
            encode_row(schema, ["3"])
        with pytest.raises(DataError, match="unknown category"):
            encode_row(schema, ["blue"])

    @pytest.mark.parametrize("raw", ["1_0", "+1", True, 2.0])
    def test_category_reads_only_digits(self, raw):
        schema = FeatureSchema((CategoricalFeature("c", 12),))
        with pytest.raises(DataError, match=rf"^feature 'c': unknown category {re.escape(repr(raw))}$"):
            encode_row(schema, [raw])

    def test_python_values(self):
        schema = FeatureSchema((NumericFeature("a", 2, 0.0, 3.0), CategoricalFeature("c", 3)))
        assert encode_row(schema, [1.5, 2]) == encode_row(schema, ["1.5", "2"]) == (1, 0, 0, 0, 1)
        assert Dataset(schema, (((1.5, 2), 0),)).words == (1, 0, 0, 0, 1)
        with pytest.raises(DataError, match="^feature 'c': unknown category 3$"):
            encode_row(schema, [1.5, 3])

    def test_round_trip_random_rows(self):
        schema = adult_like_schema()
        rng = random.Random(42)
        for _ in range(1000):
            raw, expected = [], []
            for f in schema.features:
                if isinstance(f, NumericFeature):
                    value = rng.uniform(f.lo, f.hi)
                    raw.append(str(value))
                    expected.append(reference_bucket(f, value))
                else:
                    cat = rng.randrange(f.arity)
                    raw.append(str(cat))
                    expected.append(cat)
            bits = encode_row(schema, raw)
            assert schema.decode_bits(bits) == tuple(expected)

    def test_encoded_rows_always_well_formed(self):
        schema = adult_like_schema()
        rng = random.Random(7)
        for _ in range(200):
            raw = []
            for f in schema.features:
                if isinstance(f, NumericFeature):
                    raw.append(str(rng.uniform(f.lo, f.hi)))
                else:
                    raw.append(str(rng.randrange(f.arity)))
            schema.decode_bits(encode_row(schema, raw))  # DataError if ill-formed


class TestDecodeBits:
    def test_thermometer(self):
        schema = FeatureSchema((NumericFeature("f", 3, 0.0, 3.0),))
        assert schema.decode_bits((1, 1, 0)) == (2,)

    def test_non_monotone_rejected(self):
        schema = FeatureSchema((NumericFeature("f", 3, 0.0, 3.0),))
        with pytest.raises(DataError, match="thermometer"):
            schema.decode_bits((0, 1, 0))

    def test_one_hot(self):
        schema = FeatureSchema((CategoricalFeature("c", 4),))
        assert schema.decode_bits((0, 1, 0, 0)) == (1,)
        with pytest.raises(DataError, match="one-hot"):
            schema.decode_bits((0, 1, 1, 0))

    def test_re_encode_is_identity(self):
        schema = adult_like_schema()
        rng = random.Random(3)
        for _ in range(200):
            values = tuple(
                rng.randrange(f.bits + 1)
                if isinstance(f, NumericFeature)
                else rng.randrange(f.arity)
                for f in schema.features
            )
            bits = encode_values(schema, values)
            assert encode_values(schema, schema.decode_bits(bits)) == bits

    @pytest.mark.parametrize("width", range(1, 9))
    def test_every_block_of_each_width(self, width):
        # A thermometer block is valid iff its bits never rise, and a one-hot
        # block iff exactly one bit is set: k + 1 and k valid blocks of width k.
        thermometer = FeatureSchema((NumericFeature("f", width, 0.0, 1.0),))
        one_hot = FeatureSchema((CategoricalFeature("f", width),))
        accepted = Counter()
        for block in itertools.product((0, 1), repeat=width):
            text = "".join(map(str, block))
            for schema, valid, value, kind in (
                (thermometer, list(block) == sorted(block, reverse=True), sum(block),
                 "a thermometer pattern"),
                (one_hot, sum(block) == 1, block.index(1) if 1 in block else None, "one-hot"),
            ):
                if valid:
                    assert schema.decode_bits(block) == (value,)
                    accepted[kind] += 1
                else:
                    with pytest.raises(DataError, match=f"^feature 'f': bits {text} are not {kind}$"):
                        schema.decode_bits(block)
        assert accepted == {"a thermometer pattern": width + 1, "one-hot": width}

    def test_wide_blocks_decode_in_little_memory(self):
        # Each block is checked against its rule; no table of every valid
        # pattern (width^2 bits per feature) is built.
        schema = FeatureSchema((CategoricalFeature("c", 2000), NumericFeature("f", 2000, 0.0, 1.0)))
        bits = encode_values(schema, (1234, 777))
        tracemalloc.start()
        try:
            assert schema.decode_bits(bits) == (1234, 777)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


CSV_TEXT = """v,s,label
0,0,0
1,0,0
2,1,0
0,1,1
1,1,1
"""


@pytest.mark.parametrize("convert, message", [
    (lambda schema: schema.decode_bits((1, 0, 1)), "expected 4 bits, got 3"),
    (lambda schema: encode_values(schema, (1,)), "expected 2 values, got 1"),
    (lambda schema: encode_row(schema, ["1"]), "expected 2 values, got 1"),
], ids=["decode_bits", "encode_values", "encode_row"])
def test_wrong_length_rejected(convert, message):
    schema = FeatureSchema((NumericFeature("f", 2, 0.0, 2.0), CategoricalFeature("c", 2)))
    with pytest.raises(DataError, match=re.escape(message)):
        convert(schema)


class TestLoadCsv:
    def test_basic_load(self):
        data = load_csv(small_schema(), CSV_TEXT)
        assert len(data.rows) == 5
        assert data.rows[0] == (("0", "0"), 0)

    def test_missing_value_rejected(self):
        text = "v,s,label\n0,,0\n"
        with pytest.raises(DataError, match="missing value"):
            load_csv(small_schema(), text)

    def test_missing_column_rejected(self):
        with pytest.raises(DataError, match="missing feature columns"):
            load_csv(small_schema(), "v,label\n0,0\n")

    def test_missing_label_column(self):
        with pytest.raises(DataError, match="label column"):
            load_csv(small_schema(), "v,s\n0,0\n")

    def test_out_of_range_value_carries_row(self):
        text = "v,s,label\n0,0,0\n9,0,1\n"
        with pytest.raises(DataError, match="row 3"):
            load_csv(small_schema(), text)

    def test_cell_past_the_field_size_limit_carries_row(self):
        text = "v,s,label\n0,0,0\n0,1," + "1" * 200_000 + "\n"
        with pytest.raises(DataError, match=r"^row 3: field larger than field limit"):
            load_csv(small_schema(), text)

    def test_dataset_built_directly_carries_row(self):
        rows = ((("0", "0"), 0), (("9", "0"), 1))
        with pytest.raises(DataError, match="row 3: .*outside"):
            Dataset(small_schema(), rows)
        with pytest.raises(DataError, match="row 9: .*outside"):
            Dataset(small_schema(), rows, (5, 9))
        with pytest.raises(ValueError):
            Dataset(small_schema(), rows, (5,))


class TestLoadCsvLayout:
    """How ``load_csv`` reads the CSV layout, row by row: these pin the
    behaviour ``csv.DictReader`` gave, so the reader can change under them."""

    def test_header_names_stripped_like_cells(self):
        data = load_csv(small_schema(), "v , s,\tlabel\n 0 , 1 , 1\n")
        assert data.rows == ((("0", "1"), 1),)

    def test_duplicated_header_column_last_wins(self):
        data = load_csv(small_schema(), "v,s,v,label\n0,0,1,0\n")
        assert data.rows == ((("1", "0"), 0),)

    def test_short_row_reports_the_missing_feature(self):
        with pytest.raises(DataError, match=r"^row 2: missing value for 's'$"):
            load_csv(small_schema(), "v,s,label\n0\n")

    def test_short_row_without_label(self):
        with pytest.raises(DataError, match=r"^row 2: non-integer label None$"):
            load_csv(small_schema(), "v,s,label\n0,1\n")

    def test_extra_trailing_cells_ignored(self):
        data = load_csv(small_schema(), "v,s,label\n0,1,0,9,x\n")
        assert data.rows == ((("0", "1"), 0),)

    def test_blank_line_skipped(self):
        # Rows are numbered by file line, so a skipped blank line keeps its number.
        data = load_csv(small_schema(), "v,s,label\n0,0,0\n\n1,1,1\n")
        assert data.rows == ((("0", "0"), 0), (("1", "1"), 1))
        assert data.lines == (2, 4)
        with pytest.raises(DataError, match=r"^row 4: "):
            load_csv(small_schema(), "v,s,label\n0,0,0\n\n9,0,1\n")

    def test_quoted_cell_spanning_lines(self):
        # A row is numbered by the line its record starts on.
        text = 'v,note,s,label\n0,"a\nb",1,1\n0,x,0,0\n'
        assert load_csv(small_schema(), text).lines == (2, 4)
        with pytest.raises(DataError, match=r"^row 4: feature 'v'"):
            load_csv(small_schema(), 'v,note,s,label\n0,"a\nb",1,1\n9,x,0,0\n')
        with pytest.raises(DataError, match=r"^row 3: feature 'v'"):
            load_csv(small_schema(), 'v,note,s,label\n0,x,0,0\n9,"a\n\nb",1,1\n')
        with pytest.raises(DataError, match=r"^row 4: non-integer label 'x'$"):
            load_csv(small_schema(), 'v,note,s,label\n0,"a\nb",1,1\n0,y,0,x\n')

    def test_line_of_spaces_is_a_row_of_missing_values(self):
        with pytest.raises(DataError, match=r"^row 3: missing value for 'v'$"):
            load_csv(small_schema(), "v,s,label\n0,0,0\n   \n")

    def test_quoted_cell_with_comma(self):
        data = load_csv(small_schema(), 'v,note,s,label\n0,"a, b",1,1\n')
        assert data.rows == ((("0", "1"), 1),)
        with pytest.raises(DataError, match=r"^row 2: feature 'v': non-numeric value '1,5'$"):
            load_csv(small_schema(), 'v,s,label\n"1,5",0,0\n')

    @pytest.mark.parametrize("label", ["0_1", "+1", " 1_0 "])
    def test_label_reads_only_digits(self, label):
        with pytest.raises(DataError, match=rf"^row 2: non-integer label '{re.escape(label)}'$"):
            load_csv(small_schema(), f"v,s,label\n0,0,{label}\n")

    def test_numeric_cell_takes_no_digit_separator(self):
        with pytest.raises(DataError, match=r"^row 2: feature 'v': non-numeric value '1_0'$"):
            load_csv(small_schema(), "v,s,label\n1_0,0,0\n")

    def test_empty_label(self):
        with pytest.raises(DataError, match=r"^row 2: non-integer label ''$"):
            load_csv(small_schema(), "v,s,label\n0,0,\n")

    def test_empty_text_has_no_header(self):
        with pytest.raises(DataError, match="no header row"):
            load_csv(small_schema(), "")


class TestAccuracy:
    def constant_class0_net(self, width):
        return Netlist(
            width,
            (((15, input_ref(0), input_ref(0)),
              (0, input_ref(0), input_ref(0))),),
            2,
            1,
        )

    def test_constant_net_matches_label_share(self):
        schema = small_schema()
        net = self.constant_class0_net(schema.width)
        rows = [(("0", "0"), 0)] * 6 + [(("1", "1"), 1)] * 4
        data = Dataset(schema, tuple(rows))
        assert accuracy(net, data) == Fraction(6, 10)

    def test_empty_dataset_rejected(self):
        schema = small_schema()
        with pytest.raises(DataError, match="no rows"):
            accuracy(self.constant_class0_net(schema.width), Dataset(schema, ()))

    def test_width_mismatch_rejected(self):
        data = load_csv(small_schema(), CSV_TEXT)
        with pytest.raises(DataError, match="width"):
            accuracy(self.constant_class0_net(3), data)

    def test_label_range_checked(self):
        schema = small_schema()
        data = Dataset(schema, ((("0", "0"), 2),))
        with pytest.raises(DataError, match=r"^row 2: label 2 outside 0\.\.1$"):
            accuracy(self.constant_class0_net(schema.width), data)

    def test_label_error_names_the_file_line(self):
        schema = small_schema()
        data = load_csv(schema, "v,s,label\n0,0,0\n\n0,0,1\n\n1,1,5\n")
        with pytest.raises(DataError, match=r"^row 6: label 5 outside 0\.\.1$"):
            accuracy(self.constant_class0_net(schema.width), data)

    @pytest.mark.parametrize("seed", range(3))
    def test_counts_rows_where_predict_matches_label(self, seed):
        from lgnsat.netlist import random_netlist

        schema = small_schema()
        rng = random.Random(seed)
        rows = tuple(
            ((str(rng.randrange(3)), str(rng.randrange(2))), rng.randrange(3))
            for _ in range(130)
        )
        net = random_netlist(schema.width, [9, 6], 3, 2, seed=seed)
        hits = sum(
            predict(net, encode_row(schema, values))[0] == label
            for values, label in rows
        )
        assert accuracy(net, Dataset(schema, rows)) == Fraction(hits, len(rows))

    @pytest.mark.parametrize("num_classes", [2, 3])
    def test_ties_and_all_zero_outputs_agree_with_predict(self, num_classes):
        from lgnsat.netlist import random_netlist

        schema = small_schema()
        rng = random.Random(num_classes)
        rows = tuple(
            ((str(rng.randrange(3)), str(rng.randrange(2))), rng.randrange(num_classes))
            for _ in range(80)
        )
        zero = Netlist(
            schema.width, (((0, input_ref(0), input_ref(1)),) * (2 * num_classes),),
            num_classes, 2,
        )
        nets = [zero] + [
            random_netlist(schema.width, [6, 2 * num_classes], num_classes, 2, seed=s)
            for s in range(8)
        ]
        tie_winners = Counter()  # nonzero top scores held by two or more classes
        for net in nets:
            predictions = [predict(net, encode_row(schema, v)) for v, _ in rows]
            hits = sum(p[0] == label for p, (_, label) in zip(predictions, rows))
            assert accuracy(net, Dataset(schema, rows)) == Fraction(hits, len(rows))
            for cls, scores, _ in predictions:
                top = max(scores)
                tie_winners[cls] += top > 0 and scores.count(top) > 1
        zero_hits = sum(label == 0 for _, label in rows)
        assert accuracy(zero, Dataset(schema, rows)) == Fraction(zero_hits, len(rows))
        assert tie_winners[0] > 0 and (num_classes == 2 or tie_winners[1] > 0)

    def test_uses_the_bits_load_csv_encoded(self, monkeypatch):
        import lgnsat.ingest as ingest
        from lgnsat.netlist import random_netlist

        schema = small_schema()
        data = load_csv(schema, CSV_TEXT)
        assert data.words == tuple(row_words([encode_row(schema, v) for v, _ in data.rows]))
        net = random_netlist(schema.width, [9, 6], 2, 3, seed=5)
        expected = accuracy(net, Dataset(schema, data.rows))

        def no_encode(*args):
            raise AssertionError("accuracy encoded a row again")

        monkeypatch.setattr(ingest, "encode_row", no_encode)
        assert accuracy(net, data) == expected

    def test_random_net_near_chance_on_balanced_data(self):
        from lgnsat.netlist import random_netlist

        schema = small_schema()
        rng = random.Random(11)
        rows = []
        for _ in range(400):
            values = (str(rng.randrange(3)), str(rng.randrange(2)))
            rows.append((values, rng.randrange(2)))
        data = Dataset(schema, tuple(rows))
        accs = [
            float(accuracy(random_netlist(4, [6, 2], 2, 1, seed=s), data))
            for s in range(10)
        ]
        # labels are independent of inputs: mean accuracy hovers near 1/C
        assert 0.3 < sum(accs) / len(accs) < 0.7


def outcome(call):
    """``call()``, or the type and text of the DataError it raises."""
    try:
        return call()
    except DataError as exc:
        return type(exc), str(exc)


def four_feature_schema():
    """Default and explicit cuts, a sensitive and a non-sensitive category."""
    return FeatureSchema(
        (
            NumericFeature("a", 4, 0.0, 5.0),
            CategoricalFeature("c", 3),
            NumericFeature("h", 3, 0.0, 80.0, thresholds=(10.0, 25.0, 40.0)),
            CategoricalFeature("s", 2, sensitive=True),
        )
    )


def random_cells(schema, rng):
    return [
        f"{rng.uniform(f.lo, f.hi):.3f}" if isinstance(f, NumericFeature)
        else str(rng.randrange(f.arity))
        for f in schema.features
    ]


# Damage to one cell: (applies to numeric cells, to categorical ones, to labels).
DAMAGE = {
    "missing": ("", "", None),
    "spaces": ("  ", " ", None),
    "underscore": ("1_0", "1_0", "1_0"),
    "plus": (None, "+1", "+1"),
    "nan": ("nan", "nan", "nan"),
    "inf": ("inf", "inf", "-inf"),
    "out-of-range": ("-0.5", "3", None),
    "too-large": ("99", "-1", None),
    "unknown": ("x", "blue", "x"),
    "label": (None, None, ""),
}


class TestColumnsMatchRowPath:
    """``load_csv`` and ``Dataset`` build words a column at a time; the
    row-by-row path of ``reference_load_csv`` must give the same rows, lines
    and words, or the same DataError."""

    def check_csv(self, schema, text):
        def new():
            data = load_csv(schema, text)
            return data.rows, data.lines, data.words

        def old():
            rows, lines, bits = reference_load_csv(schema, text)
            return rows, lines, tuple(row_words(bits)) if bits else (0,) * schema.width

        got = outcome(new)
        assert got == outcome(old)
        return got

    @pytest.mark.parametrize("seed", range(12))
    def test_damaged_csv(self, seed):
        schema = four_feature_schema()
        rng = random.Random(seed)
        errors = set()
        for _ in range(40):
            records = [random_cells(schema, rng) + [str(rng.randrange(2))]
                       for _ in range(rng.randint(1, 12))]
            for _ in range(rng.randint(0, 3)):
                damage = DAMAGE[rng.choice(sorted(DAMAGE))]
                r, j = rng.randrange(len(records)), rng.randrange(len(schema.features) + 1)
                kind = 2 if j == len(schema.features) else (
                    isinstance(schema.features[j], CategoricalFeature))
                if damage[kind] is not None:
                    records[r][j] = damage[kind]
            if rng.random() < 0.3:  # a short record
                cells = rng.choice(records)
                del cells[rng.randrange(len(cells)):]
            lines = ["a,c,h,s,label"] + [",".join(cells) for cells in records]
            for _ in range(rng.randint(0, 2)):  # blank lines
                lines.insert(rng.randint(1, len(lines)), "")
            got = self.check_csv(schema, "\n".join(lines) + "\n")
            if got[0] is DataError:
                errors.add(re.sub(r"^row \d+: (feature '.': )?", "", got[1]).split(" ")[0])
        assert len(errors) >= 3, errors

    def test_error_order_within_and_across_rows(self):
        schema = four_feature_schema()
        header = "a,c,h,s,label\n"
        for body in [
            "1,1,1,1,0\n1,9,x,1,0\n",    # a conversion before an earlier unknown category
            "1,9,1,1,0\n1,x,1,1,0\n",    # an earlier row's unknown category first
            "1,9,1,x,0\n",               # both kinds in one row: the conversion
            "9,1,1,1,0\n1,1,1,1,x\n",    # a later bad label before any conversion
            "1,1,1,1,x\n1,,1,1,0\n",     # a missing cell before a bad label in its row only
            "1,1,1,1,0\n1,1,1,,x\n",     # missing, then the label, in one row
            "1,1,nan,1,0\n1,1,inf,1,0\n",
        ]:
            assert self.check_csv(schema, header + body)[0] is DataError

    def test_python_rows(self):
        schema = four_feature_schema()
        rng = random.Random(5)
        bad = [None, "1_0", "+1", float("nan"), float("inf"), -1, 2.0, True, "x", 3, 99]

        def value(f):
            if rng.random() < 0.03:
                return rng.choice(bad)
            if isinstance(f, NumericFeature):
                return rng.choice([f.lo, f.hi, (f.lo + f.hi) / 2, int(f.hi), True, " 3 ", "2.5"])
            return rng.choice([rng.randrange(f.arity), str(rng.randrange(f.arity)), " 1 "])

        kinds = set()
        for _ in range(400):
            rows = []
            for _ in range(rng.randint(1, 6)):
                values = [value(f) for f in schema.features]
                if rng.random() < 0.03:
                    values = values[:rng.randrange(4)] + [1] * rng.randrange(2)
                rows.append((tuple(values), 0))
            lines = tuple(rng.sample(range(2, 50), len(rows))) if rng.random() < 0.5 else ()
            got = outcome(lambda: Dataset(schema, tuple(rows), lines).words)
            want = outcome(lambda: tuple(row_words(reference_dataset_bits(schema, rows, lines))))
            assert got == want
            kinds.add(got[0] is DataError)
        assert kinds == {True, False}

    def test_encode_row_is_the_row_path(self):
        schema = four_feature_schema()
        for values in (["1", "2", "30", "1"], [0.0, 0, 80.0, 1], ["5", "0", "x", "2"],
                       ["1", "3", "1", "1"], ["1"], [1, 1, 1, 1, 1]):
            assert outcome(lambda: encode_row(schema, values)) == outcome(
                lambda: reference_encode_row(schema, values))


class TestShapes:
    @pytest.mark.parametrize("num_rows", [1, 7, 8, 9, 64, 65])
    def test_row_counts(self, num_rows):
        from lgnsat.netlist import random_netlist

        schema = four_feature_schema()
        rng = random.Random(num_rows)
        records = [random_cells(schema, rng) + [str(rng.randrange(3))] for _ in range(num_rows)]
        text = "a,c,h,s,label\n" + "".join(",".join(cells) + "\n" for cells in records)
        data = load_csv(schema, text)
        rows, lines, bits = reference_load_csv(schema, text)
        assert (data.rows, data.lines, data.words) == (rows, lines, tuple(row_words(bits)))
        net = random_netlist(schema.width, [12, 6], 3, 2, seed=num_rows)
        hits = sum(predict(net, b)[0] == label for b, (_, label) in zip(bits, rows))
        assert accuracy(net, data) == Fraction(hits, num_rows)

    def test_no_rows(self):
        from lgnsat.netlist import random_netlist

        schema = four_feature_schema()
        net = random_netlist(schema.width, [6, 4], 2, 2, seed=0)
        for data in (Dataset(schema, ()), load_csv(schema, "a,c,h,s,label\n\n")):
            assert data.words == (0,) * schema.width
            with pytest.raises(DataError, match="^dataset has no rows$"):
                accuracy(net, data)

    def test_wide_features(self):
        # Values of 256 and more do not fit a byte; each must keep its own bit.
        schema = FeatureSchema((CategoricalFeature("c", 300), NumericFeature("n", 300, 0.0, 301.0)))
        values = [(0, 0), (255, 255), (256, 256), (299, 300), (257, 299), (1, 3)]
        text = "c,n,label\n" + "".join(f"{c},{n + 0.5},0\n" for c, n in values)
        data = load_csv(schema, text)
        rows, _, bits = reference_load_csv(schema, text)
        assert data.words == tuple(row_words(bits))
        for r, expected in enumerate(values):
            row = tuple(w >> r & 1 for w in data.words)
            assert schema.decode_bits(row) == expected
