import random
from fractions import Fraction

import pytest

from helpers import input_ref

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
        f = NumericFeature("v", 3, 0.0, 4.0)
        assert f.cut_points == (1.0, 2.0, 3.0)
        values = (0.0, 0.999, 1.0, 1.5, 2.0, 2.999, 3.0, 4.0)
        assert [f.bucket_of(v) for v in values] == [0, 0, 1, 1, 2, 2, 3, 3]
        g = NumericFeature("h", 3, 0.0, 80.0, thresholds=(10.0, 25.0, 40.0))
        values = (0.0, 9.99, 10.0, 24.9, 25.0, 40.0, 80.0)
        assert [g.bucket_of(v) for v in values] == [0, 0, 1, 1, 2, 3, 3]
        for outside in (-0.001, 4.001):
            with pytest.raises(DataError, match="outside"):
                f.bucket_of(outside)

    def test_thresholds_must_ascend(self):
        f = NumericFeature("h", 3, 0.0, 80.0, thresholds=(25.0, 10.0, 40.0))
        violations = FeatureSchema((f,)).invariant_violations()
        assert any("not ascending" in v for v in violations)

    def test_unknown_category_rejected(self):
        schema = FeatureSchema((CategoricalFeature("c", 3),))
        with pytest.raises(DataError, match="unknown category"):
            encode_row(schema, ["3"])
        with pytest.raises(DataError, match="unknown category"):
            encode_row(schema, ["blue"])

    def test_round_trip_random_rows(self):
        schema = adult_like_schema()
        rng = random.Random(42)
        for _ in range(1000):
            raw, expected = [], []
            for f in schema.features:
                if isinstance(f, NumericFeature):
                    value = rng.uniform(f.lo, f.hi)
                    raw.append(str(value))
                    expected.append(f.bucket_of(value))
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
            bits = schema.encode_values(values)
            assert schema.encode_values(schema.decode_bits(bits)) == bits


CSV_TEXT = """v,s,label
0,0,0
1,0,0
2,1,0
0,1,1
1,1,1
"""


def small_schema():
    return FeatureSchema(
        (
            NumericFeature("v", 2, 0.0, 2.0),
            CategoricalFeature("s", 2, sensitive=True),
        )
    )


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

    def test_dataset_built_directly_carries_row(self):
        rows = ((("0", "0"), 0), (("9", "0"), 1))
        with pytest.raises(DataError, match="row 3: .*outside"):
            Dataset(small_schema(), rows)


class TestLoadCsvLayout:
    """How ``load_csv`` reads the CSV layout, row by row: these pin the
    behaviour ``csv.DictReader`` gave, so the reader can change under them."""

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
        # Rows are numbered by record, so a skipped blank line takes no number.
        data = load_csv(small_schema(), "v,s,label\n0,0,0\n\n1,1,1\n")
        assert data.rows == ((("0", "0"), 0), (("1", "1"), 1))
        with pytest.raises(DataError, match=r"^row 3: "):
            load_csv(small_schema(), "v,s,label\n0,0,0\n\n9,0,1\n")

    def test_line_of_spaces_is_a_row_of_missing_values(self):
        with pytest.raises(DataError, match=r"^row 3: missing value for 'v'$"):
            load_csv(small_schema(), "v,s,label\n0,0,0\n   \n")

    def test_quoted_cell_with_comma(self):
        data = load_csv(small_schema(), 'v,note,s,label\n0,"a, b",1,1\n')
        assert data.rows == ((("0", "1"), 1),)
        with pytest.raises(DataError, match=r"^row 2: feature 'v': non-numeric value '1,5'$"):
            load_csv(small_schema(), 'v,s,label\n"1,5",0,0\n')

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
        with pytest.raises(DataError, match="label"):
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

    def test_uses_the_bits_load_csv_encoded(self, monkeypatch):
        import lgnsat.ingest as ingest
        from lgnsat.netlist import random_netlist

        schema = small_schema()
        data = load_csv(schema, CSV_TEXT)
        assert data.bits == tuple(encode_row(schema, v) for v, _ in data.rows)
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
