"""Verification workflows: fixed-threshold queries, binary search over the
confidence threshold, attainability checks, and threshold sweeps.

Each probe is a fresh solver invocation (no incremental reuse) and is
logged individually so cumulative solve time can be reported.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import solver as sat
from .encoder import ATTAINABLE, PropertyQuery, build_query
from .errors import EncodingConsistencyError
from .evaluator import (
    COUNTEREXAMPLE,
    HOLDS,
    UNKNOWN,
    Verdict,
    VerdictStats,
    predict,
)
from .netlist import Netlist
from .schema import FeatureSchema
from .solver import SolverConfig, decode_counterexample


@dataclass(frozen=True)
class QueryRecord:
    kappa: Fraction
    status: str
    wall_time: float
    num_vars: int
    num_clauses: int


@dataclass
class KappaSearchResult:
    """Outcome of the binary search for the minimal safe threshold.

    ``attainable`` stays None until an attainability check fills it in (the
    CLI does this); ``note`` flags degenerate outcomes such as a property
    that is safe across the whole bracket.
    """

    kappa_star: Fraction
    converged: bool
    queries: list[QueryRecord] = field(default_factory=list)
    attainable: bool | None = None
    note: str = ""

    @property
    def total_time(self) -> float:
        return sum(q.wall_time for q in self.queries)


def verify_at(
    netlist: Netlist,
    schema: FeatureSchema,
    mode: str,
    eps: int,
    kappa: Fraction,
    config: SolverConfig | None = None,
) -> Verdict:
    """One fixed-threshold query: Holds on UNSAT, Counterexample (with the
    decoded, rechecked pair) on SAT, Unknown on timeout."""
    query = PropertyQuery(mode, eps, Fraction(kappa))
    formula, varmap = build_query(netlist, schema, query)
    outcome = sat.solve(formula, config)
    stats = VerdictStats(
        wall_time=outcome.wall_time,
        num_clauses=len(formula.clauses),
        num_vars=formula.num_vars,
    )
    if outcome.status == sat.SAT:
        witness = decode_counterexample(outcome.model, varmap, schema, netlist)
        return Verdict(COUNTEREXAMPLE, witness, stats)
    return Verdict(HOLDS if outcome.status == sat.UNSAT else UNKNOWN, stats=stats)


def search_min_kappa(
    netlist: Netlist,
    schema: FeatureSchema,
    mode: str,
    eps: int,
    tolerance: Fraction = Fraction(1, 20),
    config: SolverConfig | None = None,
) -> KappaSearchResult:
    """Binary search over [1/C, 1] for the smallest known-safe threshold.

    Probes below 1/C would be vacuous (any firing output wins with at least
    1/C confidence), so the bracket starts there. The result is the smallest
    probed Holds threshold, conservative to within the tolerance. An Unknown
    probe aborts with the partial log.
    """
    if tolerance <= 0:
        raise ValueError(f"tolerance must be > 0, got {tolerance}")
    lo = Fraction(1, netlist.num_classes)
    hi = Fraction(1)
    queries: list[QueryRecord] = []

    def probe(kappa: Fraction) -> str:
        verdict = verify_at(netlist, schema, mode, eps, kappa, config)
        queries.append(
            QueryRecord(
                kappa,
                verdict.status,
                verdict.stats.wall_time,
                verdict.stats.num_vars,
                verdict.stats.num_clauses,
            )
        )
        return verdict.status

    status = probe(hi)
    if status == UNKNOWN:
        return KappaSearchResult(hi, False, queries, note="aborted: solver unknown")
    if status == COUNTEREXAMPLE:
        return KappaSearchResult(
            Fraction(1), True, queries, note="unsafe at any threshold"
        )
    status = probe(lo)
    if status == UNKNOWN:
        return KappaSearchResult(hi, False, queries, note="aborted: solver unknown")
    if status == HOLDS:
        return KappaSearchResult(lo, True, queries, note="safe across whole bracket")
    while hi - lo > tolerance:
        mid = (lo + hi) / 2
        status = probe(mid)
        if status == UNKNOWN:
            return KappaSearchResult(
                hi, False, queries, note="aborted: solver unknown"
            )
        if status == HOLDS:
            hi = mid
        else:
            lo = mid
    return KappaSearchResult(hi, True, queries)


def check_attainable(
    netlist: Netlist,
    schema: FeatureSchema,
    kappa: Fraction,
    config: SolverConfig | None = None,
) -> bool:
    """Does some well-formed input exceed the threshold with a non-vacuous
    (not all-zero) output? Guards reported thresholds against being trivially
    satisfied."""
    query = PropertyQuery(ATTAINABLE, 0, Fraction(kappa))
    formula, varmap = build_query(netlist, schema, query)
    outcome = sat.solve(formula, config)
    if outcome.status != sat.SAT:
        return False
    bits = sat.read_bits(outcome.model, varmap.copies[0].inputs)
    if not schema.well_formed(bits):
        raise EncodingConsistencyError("attainability witness bits ill-formed")
    _, scores, conf = predict(netlist, bits)
    if scores.total == 0 or not conf > Fraction(kappa):
        raise EncodingConsistencyError(
            f"attainability witness recheck failed: total={scores.total}, conf={conf}"
        )
    return True


@dataclass(frozen=True)
class SweepRow:
    kappa: Fraction
    status: str
    wall_time: float


def sweep(
    netlist: Netlist,
    schema: FeatureSchema,
    mode: str,
    eps: int,
    kappas,
    config: SolverConfig | None = None,
) -> list[SweepRow]:
    """verify_at across a threshold list; rows come back in ascending kappa
    order and are checked for verdict monotonicity."""
    kappas = sorted(Fraction(k) for k in kappas)
    if not kappas:
        raise ValueError("kappa list must be nonempty")
    rows = []
    for kappa in kappas:
        verdict = verify_at(netlist, schema, mode, eps, kappa, config)
        rows.append(SweepRow(kappa, verdict.status, verdict.stats.wall_time))
    seen_holds_at = None
    for row in rows:
        if row.status == HOLDS and seen_holds_at is None:
            seen_holds_at = row.kappa
        if row.status == COUNTEREXAMPLE and seen_holds_at is not None:
            raise EncodingConsistencyError(
                f"verdicts not monotone: Holds at {seen_holds_at}, "
                f"Counterexample at {row.kappa}"
            )
    return rows
