"""Feature schemas: how raw features map onto Boolean input bits.

Numerical features use thermometer encoding: bucket value v over B bits sets
bits 0..v-1. Categorical features use one-hot over their arity. This module
owns the single definition of bit-pattern validity that both the CNF
encoder and the data ingest rely on.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property

from .errors import DataError, SchemaFormatError


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

    @cached_property
    def cut_points(self) -> tuple[float, ...]:
        """Ascending bucket boundaries, one per bit, computed once."""
        if self.thresholds is not None:
            return self.thresholds
        step = (self.hi - self.lo) / (self.bits + 1)
        return tuple(self.lo + step * k for k in range(1, self.bits + 1))

    def bucket_of(self, value: float) -> int:
        """Number of cut points at or below ``value``: a value exactly on a
        cut belongs to the bucket above it."""
        if not self.lo <= value <= self.hi:
            raise DataError(
                f"feature {self.name!r}: value {value!r} outside [{self.lo}, {self.hi}]"
            )
        return bisect_right(self.cut_points, value)

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

    def sensitive_features(self) -> list[CategoricalFeature]:
        return [f for f in self.features if f.sensitive]

    def invariant_violations(self) -> list[str]:
        v = []
        seen = set()
        for i, f in enumerate(self.features):
            if f.name in seen:
                v.append(f"feature {i}: duplicate name {f.name!r}")
            seen.add(f.name)
            if isinstance(f, NumericFeature):
                if f.bits < 1:
                    v.append(f"feature {f.name!r}: bits must be >= 1")
                if f.thresholds is not None and len(f.thresholds) != f.bits:
                    v.append(
                        f"feature {f.name!r}: {len(f.thresholds)} thresholds "
                        f"for {f.bits} bits"
                    )
                if f.thresholds is not None and list(f.thresholds) != sorted(f.thresholds):
                    v.append(f"feature {f.name!r}: thresholds are not ascending")
            else:
                if f.arity < 2:
                    v.append(f"feature {f.name!r}: arity must be >= 2")
        if not self.features:
            v.append("schema has no features")
        return v

    # -- bit-pattern validity (shared by encoder and ingest) ---------------

    def decode_bits(self, bits) -> tuple[int, ...]:
        """Bit vector -> per-feature values (bucket index / category index).

        Raises DataError on width mismatch, non-monotone thermometer bits, or
        one-hot blocks without exactly one bit set.
        """
        if len(bits) != self.width:
            raise DataError(f"expected {self.width} bits, got {len(bits)}")
        values = []
        for f, (start, end) in zip(self.features, self.bit_ranges()):
            block = [int(b) for b in bits[start:end]]
            if isinstance(f, NumericFeature):
                v = sum(block)
                if block != [1] * v + [0] * (f.bits - v):
                    raise DataError(
                        f"feature {f.name!r}: bits {''.join(map(str, block))} "
                        "are not a thermometer pattern"
                    )
                values.append(v)
            else:
                if sum(block) != 1:
                    raise DataError(
                        f"feature {f.name!r}: bits {''.join(map(str, block))} "
                        "are not one-hot"
                    )
                values.append(block.index(1))
        return tuple(values)

    @cached_property
    def _bit_patterns(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """Per feature, the bit pattern of each of its values, indexed by the
        value: thermometer patterns for buckets 0..bits, one-hot patterns for
        categories 0..arity-1. Built once per schema."""
        return tuple(
            tuple((1,) * v + (0,) * (f.bits - v) for v in range(f.bits + 1))
            if isinstance(f, NumericFeature)
            else tuple((0,) * v + (1,) + (0,) * (f.arity - 1 - v) for v in range(f.arity))
            for f in self.features
        )

    def encode_values(self, values) -> tuple[int, ...]:
        """Per-feature values (bucket/category indices) -> bit vector."""
        if len(values) != len(self.features):
            raise DataError(
                f"expected {len(self.features)} values, got {len(values)}"
            )
        bits: list[int] = []
        for f, patterns, v in zip(self.features, self._bit_patterns, values):
            if not 0 <= v < len(patterns):
                raise DataError(
                    f"feature {f.name!r}: bucket {v} outside 0..{f.bits}"
                    if isinstance(f, NumericFeature)
                    else f"feature {f.name!r}: unknown category {v!r}"
                )
            bits += patterns[v]
        return tuple(bits)


# ---------------------------------------------------------------------------
# File format: one feature per line, in order.
#
#   num age bits=4 lo=18 hi=90
#   num hours bits=3 lo=0 hi=80 thresholds=10,25,40
#   cat gender arity=2 sensitive=1
# ---------------------------------------------------------------------------


def _parse_kv(parts: list[str], lineno: int) -> dict[str, str]:
    kv = {}
    for part in parts:
        if "=" not in part:
            raise SchemaFormatError(f"expected key=value, got {part!r}", line=lineno)
        key, _, val = part.partition("=")
        if key in kv:
            raise SchemaFormatError(f"duplicate key {key!r}", line=lineno)
        kv[key] = val
    return kv


def parse_schema(data: bytes | str) -> FeatureSchema:
    text = data.decode("utf-8-sig") if isinstance(data, bytes) else data
    features: list[Feature] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        kind, name = parts[0], parts[1] if len(parts) > 1 else None
        if kind not in ("num", "cat") or name is None:
            raise SchemaFormatError(
                f"expected 'num <name> ...' or 'cat <name> ...', got {line!r}",
                line=lineno,
            )
        kv = _parse_kv(parts[2:], lineno)
        try:
            if kind == "num":
                thresholds = None
                if "thresholds" in kv:
                    thresholds = tuple(float(t) for t in kv["thresholds"].split(","))
                features.append(
                    NumericFeature(
                        name,
                        bits=int(kv["bits"]),
                        lo=float(kv["lo"]),
                        hi=float(kv["hi"]),
                        thresholds=thresholds,
                    )
                )
            else:
                features.append(
                    CategoricalFeature(
                        name,
                        arity=int(kv["arity"]),
                        sensitive=kv.get("sensitive", "0") == "1",
                    )
                )
        except (KeyError, ValueError) as exc:
            raise SchemaFormatError(f"bad feature record: {exc}", line=lineno)
    schema = FeatureSchema(tuple(features))
    violations = schema.invariant_violations()
    if violations:
        raise SchemaFormatError("; ".join(violations))
    return schema


def serialize_schema(schema: FeatureSchema) -> bytes:
    lines = []
    for f in schema.features:
        if isinstance(f, NumericFeature):
            line = f"num {f.name} bits={f.bits} lo={f.lo:g} hi={f.hi:g}"
            if f.thresholds is not None:
                line += " thresholds=" + ",".join(f"{t:g}" for t in f.thresholds)
        else:
            line = f"cat {f.name} arity={f.arity} sensitive={1 if f.sensitive else 0}"
        lines.append(line)
    return ("\n".join(lines) + "\n").encode("ascii")
