"""Verification workflows: fixed-threshold queries, binary search over the
confidence threshold, attainability checks, and threshold sweeps.

Every solver-backed call goes through ``_solve``: it builds the query,
hands it to the solver, and reads a SAT model back as one concrete input
per network copy, rechecked on the network. Each probe is a fresh solver
invocation (no incremental reuse), and searches and sweeps keep each
probe's ``Verdict`` so cumulative solve time can be reported.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import solver as sat
from .encoder import ATTAINABLE, PropertyQuery, build_query
from .errors import DataError, EncodingConsistencyError
from .evaluator import (
    COUNTEREXAMPLE,
    HOLDS,
    UNKNOWN,
    InputRecord,
    Verdict,
    VerdictStats,
    Witness,
    check_phi,
    forward,
    predict,
)
from .netlist import Netlist
from .schema import FeatureSchema
from .solver import SolverConfig


@dataclass
class KappaSearchResult:
    """Outcome of the binary search for the minimal safe threshold.

    ``attainable`` stays None until an attainability check fills it in (the
    CLI does this); ``note`` flags degenerate outcomes such as a property
    that is safe across the whole bracket.
    """

    kappa_star: Fraction
    converged: bool
    queries: list[Verdict] = field(default_factory=list)
    attainable: bool | None = None
    note: str = ""

    @property
    def total_time(self) -> float:
        return sum(q.stats.wall_time for q in self.queries)


def _solve(
    netlist: Netlist,
    schema: FeatureSchema,
    query: PropertyQuery,
    config: SolverConfig | None,
) -> tuple[str, tuple[InputRecord, ...] | None, VerdictStats]:
    """Build and solve one query. Returns the solver's status, the query's
    size and solve time, and on SAT one InputRecord per network copy.

    Each copy's bits must decode under the schema, and the first copy's
    confidence on the concrete network must strictly clear the threshold.
    A failed recheck means the encoding and the evaluator disagree, which
    is an internal bug, never something to report as a finding.
    """
    formula, varmap = build_query(netlist, schema, query)
    outcome = sat.solve(formula, config)
    stats = VerdictStats(outcome.wall_time, len(formula.clauses), formula.num_vars)
    if outcome.status != sat.SAT:
        return outcome.status, None, stats
    records = []
    for copy in varmap.copies:
        bits = tuple(int(outcome.model[abs(l)] == (l > 0)) for l in copy.inputs)
        try:
            values = schema.decode_bits(bits)
        except DataError as exc:
            raise EncodingConsistencyError(f"model bits are not well-formed: {exc}")
        cls, _, conf = predict(netlist, bits)
        records.append(InputRecord(values, bits, cls, conf))
    if not records[0].conf > query.kappa:
        raise EncodingConsistencyError(
            f"decoded confidence {records[0].conf} does not exceed kappa {query.kappa}"
        )
    return outcome.status, tuple(records), stats


def verify_at(
    netlist: Netlist,
    schema: FeatureSchema,
    mode: str,
    eps: int,
    kappa: Fraction,
    config: SolverConfig | None = None,
) -> Verdict:
    """One fixed-threshold query: Holds on UNSAT, Counterexample (with the
    decoded pair, rechecked: the classes differ and the similarity
    predicate holds) on SAT, Unknown on timeout."""
    query = PropertyQuery(mode, eps, Fraction(kappa))
    status, records, stats = _solve(netlist, schema, query, config)
    if records is None:
        status = HOLDS if status == sat.UNSAT else UNKNOWN
        return Verdict(status, query.kappa, stats=stats)
    x, xp = records
    if x.cls == xp.cls:
        raise EncodingConsistencyError(f"decoded pair predicts the same class {x.cls}")
    if not check_phi(x.bits, xp.bits, schema, eps, mode):
        raise EncodingConsistencyError("decoded pair violates the similarity predicate")
    return Verdict(COUNTEREXAMPLE, query.kappa, Witness(x, xp), stats)


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
    queries: list[Verdict] = []

    def probe(kappa: Fraction) -> str:
        verdict = verify_at(netlist, schema, mode, eps, kappa, config)
        queries.append(verdict)
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
) -> bool | None:
    """Does some well-formed input exceed the threshold with a non-vacuous
    (not all-zero) output? Guards reported thresholds against being trivially
    satisfied. The witness input is rechecked, output bits included. None
    when the solver gives no answer (a timeout or an unexpected exit)."""
    query = PropertyQuery(ATTAINABLE, 0, Fraction(kappa))
    status, records, _ = _solve(netlist, schema, query, config)
    if records is None:
        return False if status == sat.UNSAT else None
    if not any(forward(netlist, records[0].bits)):
        raise EncodingConsistencyError("attainability witness recheck failed: total=0")
    return True


def sweep(
    netlist: Netlist,
    schema: FeatureSchema,
    mode: str,
    eps: int,
    kappas,
    config: SolverConfig | None = None,
) -> list[Verdict]:
    """verify_at across a threshold list; verdicts come back in ascending
    kappa order and are checked for monotonicity."""
    kappas = sorted(Fraction(k) for k in kappas)
    if not kappas:
        raise ValueError("kappa list must be nonempty")
    rows = [verify_at(netlist, schema, mode, eps, kappa, config) for kappa in kappas]
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
