"""Feature schemas: how raw features map onto Boolean input bits.

Numerical features use thermometer encoding: bucket value v over B bits sets
bits 0..v-1. Categorical features use one-hot over their arity. This module
owns the single definition of bit-pattern validity, which ``decode_bits``
checks, block by block, on every input read back from bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf

from .errors import DataError, SchemaFormatError
from .netlist import read_float, read_int, read_lines


@dataclass(frozen=True)
class NumericFeature:
    """Bucketed numeric feature, thermometer-encoded over ``bits`` bits.

    Bucket thresholds default to equal-width cuts of [lo, hi]; explicit
    thresholds (ascending, one per bit) override that, so alternative
    bucketings are data rather than code.
    """

    name: str
    bits: int
    lo: float
    hi: float
    thresholds: tuple[float, ...] | None = None

    @property
    def width(self) -> int:
        return self.bits

    @property
    def sensitive(self) -> bool:
        return False

    @property
    def cut_points(self) -> tuple[float, ...]:
        """Ascending bucket boundaries, one per bit."""
        if self.thresholds is not None:
            return self.thresholds
        step = (self.hi - self.lo) / (self.bits + 1)
        return tuple(self.lo + step * k for k in range(1, self.bits + 1))

    def bucket_interval(self, bucket: int) -> tuple[float, float]:
        """Value interval [lo, hi) covered by a bucket index."""
        cuts = (self.lo,) + self.cut_points + (self.hi,)
        return cuts[bucket], cuts[bucket + 1]


@dataclass(frozen=True)
class CategoricalFeature:
    """One-hot categorical feature; categories are integers 0..arity-1."""

    name: str
    arity: int
    sensitive: bool = False

    @property
    def width(self) -> int:
        return self.arity


Feature = NumericFeature | CategoricalFeature


@dataclass(frozen=True)
class FeatureSchema:
    """Ordered feature list; concatenated bit ranges cover the input width."""

    features: tuple[Feature, ...]

    @property
    def width(self) -> int:
        return sum(f.width for f in self.features)

    def bit_ranges(self) -> list[tuple[int, int]]:
        """Half-open [start, end) bit range per feature, in order."""
        ranges, pos = [], 0
        for f in self.features:
            ranges.append((pos, pos + f.width))
            pos += f.width
        return ranges

    def located_violations(self) -> list[tuple[int | None, str]]:
        """Each violated invariant with the index of the feature that breaks
        it (for a duplicate name, its second occurrence), or None for one of
        the schema as a whole."""
        v = []
        seen = set()
        for i, f in enumerate(self.features):
            if f.name in seen:
                v.append((i, f"feature {i}: duplicate name {f.name!r}"))
            seen.add(f.name)
            problems = []
            if isinstance(f, NumericFeature):
                if f.bits < 1:
                    problems.append("bits must be >= 1")
                if not -inf < f.lo < f.hi < inf:  # NaN fails this too
                    problems.append("lo and hi must be finite with lo < hi")
                elif f.thresholds is None and f.hi - f.lo == inf:
                    problems.append("hi - lo overflows; give explicit thresholds")
                if f.thresholds is not None:
                    if not all(f.lo <= t <= f.hi for t in f.thresholds):
                        problems.append("thresholds must be finite and in [lo, hi]")
                    if len(f.thresholds) != f.bits:
                        problems.append(f"{len(f.thresholds)} thresholds for {f.bits} bits")
                    if list(f.thresholds) != sorted(f.thresholds):
                        problems.append("thresholds are not ascending")
            elif f.arity < 2:
                problems.append("arity must be >= 2")
            v += [(i, f"feature {f.name!r}: {problem}") for problem in problems]
        if not self.features:
            v.append((None, "schema has no features"))
        return v

    def decode_bits(self, bits) -> tuple[int, ...]:
        """Bit vector -> per-feature values (bucket index / category index).

        A thermometer block of value v is v ones then zeros, and a one-hot
        block of value v has its single one at v. Raises DataError on width
        mismatch or on any other block.
        """
        if len(bits) != self.width:
            raise DataError(f"expected {self.width} bits, got {len(bits)}")
        values = []
        for f, (start, end) in zip(self.features, self.bit_ranges()):
            block = list(map(int, bits[start:end]))
            if isinstance(f, NumericFeature):
                v, kind = block.count(1), "a thermometer pattern"
                valid = block == [1] * v + [0] * (f.bits - v)
            else:
                v, kind = block.index(1) if 1 in block else 0, "one-hot"
                valid = block == [0] * v + [1] + [0] * (f.arity - 1 - v)
            if not valid:
                raise DataError(
                    f"feature {f.name!r}: bits {''.join(map(str, block))} are not {kind}"
                )
            values.append(v)
        return tuple(values)


# ---------------------------------------------------------------------------
# File format: one feature per line, in order. Lines end at '\n' only, and
# blank lines and '#' comment lines are skipped.
#
#   num age bits=4 lo=18 hi=90
#   num hours bits=3 lo=0 hi=80 thresholds=10,25,40
#   cat gender arity=2 sensitive=1
# ---------------------------------------------------------------------------


_KEYS = {"num": ("bits", "lo", "hi", "thresholds"), "cat": ("arity", "sensitive")}


def _parse_kv(parts: list[str], lineno: int, kind: str) -> dict[str, str]:
    kv = {}
    for part in parts:
        if "=" not in part:
            raise SchemaFormatError(f"expected key=value, got {part!r}", line=lineno)
        key, _, val = part.partition("=")
        if key not in _KEYS[kind]:
            raise SchemaFormatError(f"unknown {kind} key {key!r}", line=lineno)
        if key in kv:
            raise SchemaFormatError(f"duplicate key {key!r}", line=lineno)
        kv[key] = val
    return kv


def parse_schema(data: bytes | str) -> FeatureSchema:
    features: list[Feature] = []
    linenos: list[int] = []
    for lineno, raw in read_lines(data, SchemaFormatError):
        line = raw.strip()
        parts = line.split()
        kind, name = parts[0], parts[1] if len(parts) > 1 else None
        if kind not in ("num", "cat") or name is None:
            raise SchemaFormatError(
                f"expected 'num <name> ...' or 'cat <name> ...', got {line!r}",
                line=lineno,
            )
        kv = _parse_kv(parts[2:], lineno, kind)
        try:
            if kind == "num":
                thresholds = None
                if "thresholds" in kv:
                    thresholds = tuple(map(read_float, kv["thresholds"].split(",")))
                features.append(
                    NumericFeature(
                        name,
                        bits=read_int(kv["bits"]),
                        lo=read_float(kv["lo"]),
                        hi=read_float(kv["hi"]),
                        thresholds=thresholds,
                    )
                )
            else:
                sensitive = kv.get("sensitive", "0")
                if sensitive not in ("0", "1"):
                    raise ValueError(f"sensitive must be 0 or 1, got {sensitive!r}")
                features.append(
                    CategoricalFeature(
                        name,
                        arity=read_int(kv["arity"]),
                        sensitive=sensitive == "1",
                    )
                )
        except (KeyError, ValueError) as exc:
            raise SchemaFormatError(f"bad feature record: {exc}", line=lineno)
        linenos.append(lineno)
    schema = FeatureSchema(tuple(features))
    violations = schema.located_violations()
    if violations:
        # The first offending feature, as a bad record would be reported.
        first = violations[0][0]
        raise SchemaFormatError(
            "; ".join(message for i, message in violations if i == first),
            line=None if first is None else linenos[first],
        )
    return schema


def _number(x: float) -> str:
    """The shortest ``%g`` text that reads back as ``x``: ``:g``'s six
    digits whenever they suffice, and never more than the 17 any double
    needs."""
    return next(t for t in (f"{x:.{p}g}" for p in range(6, 18)) if float(t) == x)


def serialize_schema(schema: FeatureSchema) -> bytes:
    lines = []
    for f in schema.features:
        if isinstance(f, NumericFeature):
            line = f"num {f.name} bits={f.bits} lo={_number(f.lo)} hi={_number(f.hi)}"
            if f.thresholds is not None:
                line += " thresholds=" + ",".join(map(_number, f.thresholds))
        else:
            line = f"cat {f.name} arity={f.arity} sensitive={1 if f.sensitive else 0}"
        lines.append(line)
    return ("\n".join(lines) + "\n").encode("ascii")
