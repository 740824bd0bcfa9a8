import codecs
import gc
import hashlib
import itertools
import random
import re

import pytest

from helpers import NAMED_OPS, findall_parse_layer_line, gate_ref, gate_truth, input_ref

from lgnsat.cnf import CnfBuilder
from lgnsat.errors import InvalidNetlistError, NetlistFormatError, SchemaFormatError
from lgnsat.evaluator import forward, predict
from lgnsat.netlist import (
    Netlist,
    parse_netlist,
    random_netlist,
    schema_violations,
    serialize_netlist,
    validate,
)
from lgnsat.netlist import _parse_layer_line
from lgnsat.schema import (
    CategoricalFeature,
    FeatureSchema,
    NumericFeature,
    parse_schema,
    serialize_schema,
)


def minimal_net() -> Netlist:
    return Netlist(
        2,
        (((8, input_ref(0), input_ref(1)),
          (14, input_ref(0), input_ref(1))),),
        2,
        1,
    )


class TestGateTruth:
    def test_named_table_exhaustive(self):
        # 16 ops x 4 assignments against an independently written table
        for op in range(16):
            for a in (0, 1):
                for b in (0, 1):
                    assert gate_truth(op, a, b) == NAMED_OPS[op](a, b), (op, a, b)

    def test_spot_values(self):
        assert gate_truth(8, 1, 1) == 1
        assert gate_truth(8, 1, 0) == 0
        assert gate_truth(6, 1, 0) == 1
        assert gate_truth(6, 1, 1) == 0
        assert all(gate_truth(0, a, b) == 0 for a in (0, 1) for b in (0, 1))


class TestValidate:
    def test_minimal_ok(self):
        assert validate(minimal_net()) == ()

    def test_output_count_mismatch(self):
        net = Netlist(
            2,
            (tuple((8, input_ref(0), input_ref(1)) for _ in range(5)),),
            2,
            3,
        )
        violations = validate(net)
        assert violations
        assert any("output count != C*L" in v for v in violations)

    def test_same_layer_reference(self):
        net = Netlist(
            1,
            (((8, input_ref(0), gate_ref(0)),),),
            2,
            1,
        )
        assert any("forward/self reference" in v for v in validate(net))

    def test_input_bit_range_edges(self):
        net = Netlist(
            2,
            (((8, input_ref(1), input_ref(2)), (14, input_ref(0), input_ref(1))),),
            2,
            1,
        )
        assert validate(net) == (
            "layer 0 gate 0 input b: input bit 2 outside 0..1",
        )

    def test_cross_layer_reference_allowed(self):
        # the format permits skipping layers even though the generator never
        # produces it
        net = Netlist(
            1,
            (
                ((12, input_ref(0), input_ref(0)),),
                ((12, input_ref(0), input_ref(0)),),
                ((8, gate_ref(0), input_ref(0)),
                 (8, gate_ref(0), gate_ref(1))),
            ),
            2,
            1,
        )
        assert validate(net) == ()

    def test_schema_width_mismatch(self):
        schema = FeatureSchema((NumericFeature("x", 4, 0.0, 4.0),))
        assert any("schema width" in v for v in schema_violations(minimal_net(), schema))

    def test_dimension_bounds(self):
        net = Netlist(0, (), 1, 0)
        assert len(validate(net)) >= 4


class TestInvalidNetlistRaises:
    """Every consumer of the compiled program rejects an invalid netlist,
    also one built directly rather than parsed."""

    @pytest.mark.parametrize(
        "bad_ref", [gate_ref(0), input_ref(5)], ids=["bad_ref0", "bad_ref1"]
    )
    def test_predict_forward_and_encoder(self, bad_ref):
        net = Netlist(
            2,
            (((8, bad_ref, input_ref(1)), (14, input_ref(0), input_ref(1))),),
            2,
            1,
        )
        with pytest.raises(InvalidNetlistError):
            predict(net, (0, 1))
        with pytest.raises(InvalidNetlistError):
            forward(net, (0, 1))
        b = CnfBuilder()
        with pytest.raises(InvalidNetlistError):
            b.encode_network(net, b.new_vars(2))


class TestFileFormat:
    def test_round_trip_identity(self):
        net = minimal_net()
        data = serialize_netlist(net)
        assert parse_netlist(data) == net
        assert serialize_netlist(parse_netlist(data)) == data

    def test_random_round_trips(self):
        for seed in range(20):
            net = random_netlist(5, [4, 3, 4], 2, 2, seed=seed)
            assert parse_netlist(serialize_netlist(net)) == net

    def test_truncated_file(self):
        data = serialize_netlist(minimal_net())
        with pytest.raises(NetlistFormatError) as exc:
            parse_netlist(data.decode().splitlines()[0])
        assert exc.value.line is not None

    def test_missing_layers(self):
        text = "lgn 1\ninput_width 2\nnum_classes 2\nblock_size 1\n"
        with pytest.raises(NetlistFormatError, match="no layer"):
            parse_netlist(text)

    def test_op_code_out_of_range(self):
        text = serialize_netlist(minimal_net()).decode().replace("(8,", "(16,")
        with pytest.raises(NetlistFormatError, match="op code 16"):
            parse_netlist(text)

    def test_bad_magic(self):
        with pytest.raises(NetlistFormatError, match="magic"):
            parse_netlist("nope\n")

    @pytest.mark.parametrize("value", ["1_0", "+2"])
    def test_header_value_reads_only_digits(self, value):
        text = f"lgn 1\ninput_width {value}\nnum_classes 2\nblock_size 1\n"
        with pytest.raises(NetlistFormatError, match="non-integer value for input_width") as exc:
            parse_netlist(text + "layer (8, i0, i1) (14, i0, i1)\n")
        assert exc.value.line == 2

    def test_malformed_gate_has_position(self):
        text = "lgn 1\ninput_width 2\nnum_classes 2\nblock_size 1\nlayer (8, i0 i1)\n"
        with pytest.raises(NetlistFormatError) as exc:
            parse_netlist(text)
        assert exc.value.line == 5

    def test_byte_order_mark_accepted(self):
        data = serialize_netlist(minimal_net())
        assert parse_netlist(codecs.BOM_UTF8 + data) == minimal_net()

    def test_comments_and_blanks_ignored(self):
        # Lines end at "\n" only: a U+2028 inside a comment does not start a
        # layer line, and a CRLF file reads as its LF form.
        data = serialize_netlist(minimal_net()).decode()
        for noisy in (
            "# header comment\n\n" + data.replace("layer", "# gates below\nlayer", 1),
            data + "# was:\u2028layer (6, g0, g1) (9, g0, g1)\n",
            data.replace("\n", "\r\n"),
        ):
            assert parse_netlist(noisy.encode()) == minimal_net()


HEADER = "lgn 1\ninput_width 2\nnum_classes 2\nblock_size 1\n"


class TestFormatErrorPosition:
    """``col`` is the 1-based column of the offending token in the raw file
    line, leading indentation included."""

    @pytest.mark.parametrize("indent", ["", "    ", "\t  "], ids=["flush", "spaces", "tab"])
    @pytest.mark.parametrize(
        "line, token",
        [
            ("layer (8, i0, i1) (14, i0, i1) junk", "junk"),
            ("layer (8, i0, i1) (8, i0 i1) (14, i0, i1)", "(8, i0 i1)"),
            ("layer (8, i0, i1) (16, i0, i1)", "16, i0"),
            ("layer (8, i0, i1)(14, i0, i1)x", "x"),
            ("layers (8, i0, i1)", "s (8"),
        ],
        ids=["junk", "bad-middle-gate", "op-16", "glued-junk", "layers"],
    )
    def test_col_points_at_token(self, indent, line, token):
        line_text = indent + line
        with pytest.raises(NetlistFormatError) as exc:
            parse_netlist(HEADER + line_text + "\n")
        assert exc.value.line == 5
        assert line_text[exc.value.col - 1:].startswith(token)

    @pytest.mark.parametrize(
        "line",
        [
            "layer (8, i0, i1) (14, i0, i1) junk",
            "layer (8, i0, i1) (14, i0, i1) (8,",
            "layer (8, i0, i1) , (14, i0, i1)",
            "layer (8, i0, i1) (14, i0, i1) # comment",
            "layer junk",
        ],
        ids=["junk", "open-gate", "comma", "comment", "no-gate"],
    )
    def test_text_between_or_after_gates_raises(self, line):
        with pytest.raises(NetlistFormatError, match="malformed gate"):
            parse_netlist(HEADER + line + "\n")

    def test_first_error_in_the_line_wins(self):
        with pytest.raises(NetlistFormatError, match="op code 16"):
            parse_netlist(HEADER + "layer (16, i0, i1) junk\n")
        with pytest.raises(NetlistFormatError, match="malformed gate"):
            parse_netlist(HEADER + "layer junk (16, i0, i1)\n")


def _drop(rng, line):
    i = rng.randrange(len(line))
    return line[:i] + line[i + 1:]


def _duplicate(rng, line):
    i = rng.randrange(len(line))
    return line[:i] + line[i] + line[i:]


def _swap(rng, line):
    i = rng.randrange(len(line) - 1)
    return line[:i] + line[i + 1] + line[i] + line[i + 2:]


def _big_op(rng, line):
    ops = list(re.finditer(r"\((\s*)\d+", line))
    if not ops:
        return line
    m = rng.choice(ops)
    return line[:m.start()] + f"({m[1]}{rng.randrange(16, 300)}" + line[m.end():]


def _swap_kind(rng, line):
    refs = [i for i, c in enumerate(line) if c in "ig"]
    if not refs:
        return line
    i = rng.choice(refs)
    return line[:i] + ("g" if line[i] == "i" else "i") + line[i + 1:]


def _whitespace(rng, line):
    i = rng.randrange(len(line) + 1)
    return line[:i] + rng.choice(["\t", "  ", " \t ", "\u00a0"]) + line[i:]


def _wide_digit(rng, line):
    digits = [i for i, c in enumerate(line) if c.isascii() and c.isdigit()]
    if not digits:
        return line
    i = rng.choice(digits)
    return line[:i] + chr(0x0660 + int(line[i])) + line[i + 1:]  # Arabic-Indic


_DAMAGES = (_drop, _duplicate, _swap, _big_op, _swap_kind, _whitespace, _wide_digit)


def _outcome(parse, line):
    try:
        return parse(5, line)
    except NetlistFormatError as exc:
        return type(exc), str(exc), exc.line, exc.col


class TestLayerParserParity:
    """The tokenizing layer parser against the findall parser it replaced,
    on seeded damaged layer lines: the same gates, or the same error type,
    message, line and column."""

    def test_damaged_lines_match_the_findall_parser(self):
        base = [
            line
            for seed in range(8)
            for line in serialize_netlist(
                random_netlist(12, [6, 5, 4], 2, 2, seed=seed)
            ).decode().splitlines()
            if line.startswith("layer")
        ]
        rng = random.Random(2505)
        parsed = 0
        for _ in range(3000):
            line = rng.choice(base)
            if rng.random() < 0.2:
                line = rng.choice([" ", "\t", "  \t"]) + line
            for _ in range(rng.randint(1, 3)):
                line = rng.choice(_DAMAGES)(rng, line)
            expected = _outcome(findall_parse_layer_line, line)
            assert _outcome(_parse_layer_line, line) == expected, line
            parsed += isinstance(expected[0], tuple)
        assert 300 < parsed < 2700  # both the gate and the error paths ran

    @pytest.mark.parametrize("line, gates", [
        ("layer (08, i01, g002)", ((8, ~1, 2),)),  # leading zeros
        ("layer (\u0663, i\u0664\u0661, g5) (1, g0, i2)",  # Arabic-Indic digits
         ((3, ~41, 5), (1, 0, ~2))),
        ("layer (3,\u00a0i4, g5)\u2003(1, g0, i2)\u00a0",  # non-ASCII whitespace
         ((3, ~4, 5), (1, 0, ~2))),
        ("layer (1, g0, i2) (1\u0666, i4, g5)", None),  # op 16 in two scripts
    ])
    def test_numbers_json_does_not_read(self, line, gates):
        outcome = _outcome(_parse_layer_line, line)
        assert outcome == _outcome(findall_parse_layer_line, line)
        if gates is None:
            assert outcome[1:] == ("line 5, col 20: op code 16 outside 0..15", 5, 20)
        else:
            assert outcome == gates


class TestGatesUntracked:
    """Gates are exact int tuples, which the cyclic collector untracks; a
    tuple subclass or dataclass gate would make every full collection walk
    each gate of every netlist alive."""

    def test_collector_untracks_gates_and_program(self):
        net = random_netlist(12, [40, 30, 20], 2, 10, seed=7)
        parsed = parse_netlist(serialize_netlist(net))
        parsed.program  # the collector untracks tuples it finds at its next pass
        gc.collect()
        for n in (net, parsed):
            assert not any(gc.is_tracked(g) for layer in n.layers for g in layer)
        assert not any(gc.is_tracked(entry) for entry in parsed.program)


class TestPinnedBytes:
    """Serialized bytes and compiled programs of two seeded nets, pinned so
    that neither the generator, the file format nor the compile can drift."""

    @pytest.mark.parametrize(
        "args, net_sha, program_sha",
        [
            (
                (12, [40, 30, 20], 2, 10, 7),
                "b5dce9fd3264e76a2b9e4b5c63191506acd45d9513c006e550a5411b0048ec95",
                "242e3a7965e65cbb3785e9f05bb3b5ece0df3d4e59436c15e8c9e016578bebf6",
            ),
            (
                (100, [2000, 2000, 2000, 1000], 2, 500, 3),
                "c57446897d3dd869c74b1b1aac1ec0f39fc6655e5cdf2040ee50ea3c89cb3518",
                "a0171ff17d0d0cb0e5fac01b2987b3b157414c5c84ba8a2d0466884a833af3a7",
            ),
        ],
    )
    def test_serialized_net_and_program(self, args, net_sha, program_sha):
        *shape, seed = args
        net = random_netlist(*shape, seed=seed)
        data = serialize_netlist(net)
        assert hashlib.sha256(data).hexdigest() == net_sha
        parsed = parse_netlist(data)
        assert parsed == net
        assert parsed.program == net.program
        assert hashlib.sha256(repr(parsed.program).encode()).hexdigest() == program_sha


class TestRandomNetlist:
    def test_deterministic(self):
        a = random_netlist(6, [5, 4], 2, 2, seed=123)
        b = random_netlist(6, [5, 4], 2, 2, seed=123)
        assert a == b

    def test_seeds_mostly_distinct(self):
        nets = {random_netlist(4, [4, 2], 2, 1, seed=s) for s in range(100)}
        assert len(nets) >= 99

    def test_generated_nets_validate(self):
        for seed in range(25):
            assert validate(random_netlist(4, [4, 6], 2, 3, seed=seed)) == ()
            assert validate(random_netlist(4, [5, 3, 6], 3, 2, seed=seed)) == ()

    def test_wiring_is_adjacent_layer_only(self):
        net = random_netlist(4, [3, 2, 2], 2, 1, seed=5)
        starts = [0, *itertools.accumulate(len(layer) for layer in net.layers)]
        for li, layer in enumerate(net.layers):
            for _, a, b in layer:
                for ref in (a, b):
                    if li == 0:
                        assert -4 <= ref < 0
                    else:
                        assert starts[li - 1] <= ref < starts[li]

    def test_bad_dimensions_rejected(self):
        with pytest.raises(ValueError):
            random_netlist(4, [3, 5], 2, 3, seed=0)
        with pytest.raises(ValueError):
            random_netlist(0, [2], 2, 1, seed=0)
        with pytest.raises(ValueError):
            random_netlist(4, [2], 1, 2, seed=0)


class TestNetlistErrors:
    """Rejections that the other netlist tests do not reach: the error
    type and its message."""

    @pytest.mark.parametrize("make, error, message", [
        (lambda: parse_netlist("lgn 1\ninput_width 2\nnum_classes 2\nblock_size 1\nlayer\n"),
         NetlistFormatError, "line 5: layer line with no gates"),
        (lambda: parse_netlist("# nothing but a comment\n\n"), NetlistFormatError,
         "line 1: empty netlist file"),
        (lambda: parse_netlist("lgn 1\ninput_width\n"), NetlistFormatError,
         "line 2: expected 'input_width <int>', got 'input_width'"),
        (lambda: parse_netlist(b"lgn 1\ninput_width 2\x0c\nnum_classes 2\nblock_size 1\n"
                               b"layer (8, i0 i1)\n"),
         NetlistFormatError, "line 5, col 7: malformed gate"),
        (lambda: parse_netlist(serialize_netlist(minimal_net()).replace(b"\n", b"\r")),
         NetlistFormatError, "line 1: bad magic line"),
        (lambda: Netlist(2, ((), minimal_net().layers[0]), 2, 1).program,
         InvalidNetlistError, "layer 0: empty layer"),
        (lambda: Netlist(2, (((16, input_ref(0), input_ref(1)),
                              (14, input_ref(0), input_ref(1))),), 2, 1).program,
         InvalidNetlistError, "layer 0 gate 0: op code 16 outside 0..15"),
        (lambda: random_netlist(4, [3, 0, 2], 2, 1, seed=0), ValueError,
         "layer sizes must be positive, got [3, 0, 2]"),
    ], ids=["bare-layer", "empty-file", "header-without-value", "form-feed", "bare-cr",
            "empty-layer", "op-16", "layer-size-0"])
    def test_rejected(self, make, error, message):
        with pytest.raises(error, match=re.escape(message)):
            make()


class TestSchemaRoundTrip:
    def test_schema_file_round_trip(self):
        schema = FeatureSchema(
            (
                NumericFeature("age", 4, 18.0, 90.0),
                NumericFeature("hours", 3, 0.0, 80.0, thresholds=(10.0, 25.0, 40.0)),
                CategoricalFeature("group", 3, sensitive=True),
                CategoricalFeature("job", 2),
            )
        )
        data = serialize_schema(schema)
        assert parse_schema(data) == schema
        assert serialize_schema(parse_schema(data)) == data
        # Lines end at "\n" only: control characters that str.splitlines
        # breaks at stay inside their comment, and CRLF reads as LF.
        for noisy in (data.replace(b"\n", b"\r\n"), b"# a\x1cb\n" + data):
            assert parse_schema(noisy) == schema
        was = "# was:\x85num x bits=2 lo=0 hi=3\ncat g arity=2\n".encode()
        assert parse_schema(was).features == (CategoricalFeature("g", 2),)

    def test_random_bounds_round_trip_exactly(self):
        # Random doubles need up to 17 significant digits; ``:g`` kept six,
        # so 1234567.0 came back as 1234570.0.
        rng = random.Random(11)
        for _ in range(300):
            bits = rng.randint(1, 4)
            scale = 10.0 ** rng.randint(-8, 12)
            lo, hi = sorted(rng.uniform(-scale, scale) for _ in range(2))
            cuts = sorted(rng.uniform(lo, hi) for _ in range(bits))
            schema = FeatureSchema((
                NumericFeature("a", bits, lo, hi),
                NumericFeature("b", bits, lo, hi, thresholds=tuple(cuts)),
                CategoricalFeature("g", 2),
            ))
            assert parse_schema(serialize_schema(schema)) == schema
        for value in (1234567.0, 20.0000001):
            schema = FeatureSchema((NumericFeature("a", 1, 0.0, 2e7, thresholds=(value,)),))
            assert parse_schema(serialize_schema(schema)) == schema

    def test_six_digit_bounds_keep_their_text(self):
        schema = FeatureSchema((
            NumericFeature("a", 2, -0.5, 1e16, thresholds=(1e-05, 123456.0)),
        ))
        assert serialize_schema(schema) == b"num a bits=2 lo=-0.5 hi=1e+16 thresholds=1e-05,123456\n"

    def test_byte_order_mark_accepted(self):
        schema = FeatureSchema((NumericFeature("age", 4, 18.0, 90.0), CategoricalFeature("g", 2)))
        assert parse_schema(codecs.BOM_UTF8 + serialize_schema(schema)) == schema


class TestSchemaErrors:
    """Each way a schema file can be rejected: the error type, and the line
    of the bad record or of the feature that violates an invariant (for a
    duplicate name, its second occurrence)."""

    @pytest.mark.parametrize("text, line, message", [
        ("num a bits=2 lo=0", 1, "bad feature record: 'hi'"),
        ("cat g arity=2\nnum a bits=2 bits=3 lo=0 hi=1", 2, "duplicate key 'bits'"),
        ("cat g arity=2\n\nint a bits=2", 3, "expected 'num <name> ...'"),
        ("cat g arity=2\nnum a bits=1_0 lo=0 hi=1", 2, "bad feature record"),
        ("cat g arity=+2", 1, "bad feature record"),
        ("cat g arity=2\nnum a bits=2 lo=0 hi=3_0", 2, "bad feature record: invalid number '3_0'"),
        ("num a bits=2 lo=0 hi=3 thresholds=1,2_0", 1, "invalid number '2_0'"),
        ("num a bits=2 lo=0 hi=3 thresholds=2,1", 1, "'a': thresholds are not ascending"),
        ("cat g arity=1", 1, "'g': arity must be >= 2"),
        ("num a bits=2 lo=0 hi=inf", 1, "'a': lo and hi must be finite with lo < hi"),
        ("num a bits=2 lo=nan hi=1", 1, "'a': lo and hi must be finite with lo < hi"),
        ("num a bits=2 lo=10 hi=0", 1, "'a': lo and hi must be finite with lo < hi"),
        ("num a bits=2 lo=0 hi=3 thresholds=1,inf", 1, "'a': thresholds must be finite"),
        ("num a bits=2 lo=0 hi=3 thresholds=5,6", 1, "'a': thresholds must be finite and in [lo, hi]"),
        ("cat g arity=2\n# note\nnum a bits=2 lo=0 hi=3 thresholds=-1,2", 3,
         "'a': thresholds must be finite and in [lo, hi]"),
        ("cat g arity=2\nnum a bits=2 lo=0 hi=1\n\ncat g arity=3\ncat h arity=1", 4,
         "feature 2: duplicate name 'g'"),
        ("# nothing but a comment\n", None, "schema has no features"),
        ("num a bits=0 lo=0 hi=1", 1, "'a': bits must be >= 1"),
        ("num a bits=2 lo=0 hi=3 thresholds=1", 1, "'a': 1 thresholds for 2 bits"),
        ("cat g arity=2\nnum a bits lo=0 hi=1", 2, "expected key=value, got 'bits'"),
        ("cat sex arity=2 sensitive=true", 1,
         "bad feature record: sensitive must be 0 or 1, got 'true'"),
        ("cat g arity=2\nnum a bits=2 lo=0 hi=3 threshold=1,2", 2, "unknown num key 'threshold'"),
        ("num a bits=2 lo=0 hi=3 sensitive=1", 1, "unknown num key 'sensitive'"),
    ], ids=["missing-key", "duplicate-key", "unknown-kind", "bits-1_0", "arity-+2",
            "hi-3_0", "threshold-2_0",
            "unsorted-thresholds", "arity-1", "hi-inf", "lo-nan", "lo-above-hi",
            "threshold-inf", "thresholds-above-hi", "threshold-below-lo", "duplicate-name",
            "no-features", "bits-0", "too-few-thresholds", "key-without-value",
            "sensitive-true", "misspelled-key", "sensitive-num"])
    def test_rejected(self, text, line, message):
        with pytest.raises(SchemaFormatError, match=re.escape(message)) as exc:
            parse_schema(text)
        assert exc.value.line == line
