"""Verification workflows: fixed-threshold queries, search for the minimal
safe threshold, attainability checks, and threshold sweeps.

Every solver-backed call goes through ``_solve``: it builds the query,
hands it to the solver, and reads a SAT model back as one concrete input
per network copy, rechecked on the network. Each probe is a fresh solver
invocation, save that a search does not solve again a formula it found
UNSAT, and a sweep does not solve a row that a lower one settles; searches
and sweeps keep each row's ``Verdict``, for its solve time.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction

from . import solver as sat
from .cnf import to_dimacs
from .encoder import ATTAINABLE, PropertyQuery, build_query
from .errors import DataError, EncodingConsistencyError, QueryBuildError
from .evaluator import (
    COUNTEREXAMPLE,
    FAIR,
    HOLDS,
    ROBUST,
    UNKNOWN,
    InputRecord,
    Verdict,
    VerdictStats,
    Witness,
    forward,
    phi_on_values,
    predict,
)
from .netlist import Netlist
from .schema import FeatureSchema
from .solver import SolverConfig

DEFAULT_TOLERANCE = Fraction(1, 20)


@dataclass(frozen=True)
class KappaSearchResult:
    """A search for kappa*: each probe's verdict in order, and a bracket
    ``[kappa_lower, kappa_star]`` of network confidences that holds kappa*,
    with ``kappa_star`` safe. It converged unless its last probe was Unknown."""

    kappa_star: Fraction
    kappa_lower: Fraction
    queries: tuple[Verdict, ...]

    @property
    def converged(self) -> bool:
        return self.queries[-1].status != UNKNOWN

    @property
    def total_time(self) -> float:
        return sum(q.stats.wall_time for q in self.queries)


def _solve(
    netlist: Netlist,
    schema: FeatureSchema,
    query: PropertyQuery,
    config: SolverConfig | None,
    unsat: set[bytes] | None = None,
) -> tuple[str, tuple[InputRecord, ...] | None, VerdictStats]:
    """Build and solve one query. Returns the solver's status, the query's
    size and solve time, and on SAT one InputRecord per network copy.

    A formula whose DIMACS sha256 is in ``unsat`` (when given) is UNSAT
    without a solve, and each one solved UNSAT joins it. SAT is never reused.

    Each copy's bits must decode under the schema, and the first copy's
    confidence on the concrete network must strictly clear the threshold.
    A failed recheck means the encoding and the evaluator disagree, which
    is an internal bug, never something to report as a finding.
    """
    formula, varmap = build_query(netlist, schema, query)
    digest = None if unsat is None else hashlib.sha256(to_dimacs(formula)).digest()
    if digest is not None and digest in unsat:
        return sat.UNSAT, None, VerdictStats(0.0, len(formula.clauses), formula.num_vars)
    outcome = sat.solve(formula, config)
    stats = VerdictStats(outcome.wall_time, len(formula.clauses), formula.num_vars)
    if digest is not None and outcome.status == sat.UNSAT:
        unsat.add(digest)
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
    predicate holds) on SAT, Unknown on timeout. ``mode`` is fair or
    robust; anything else is a QueryBuildError before any solve."""
    return _verify(netlist, schema, mode, eps, kappa, config, None)


def _verify(netlist, schema, mode, eps, kappa, config, unsat) -> Verdict:
    """``verify_at`` with ``_solve``'s ``unsat`` digests."""
    if mode not in (FAIR, ROBUST):
        raise QueryBuildError(f"verify_at needs mode {FAIR!r} or {ROBUST!r}, got {mode!r}")
    query = PropertyQuery(mode, eps, Fraction(kappa))
    status, records, stats = _solve(netlist, schema, query, config, unsat)
    if records is None:
        return Verdict(HOLDS if status == sat.UNSAT else UNKNOWN, query.kappa, stats=stats)
    x, xp = records
    if x.cls == xp.cls:
        raise EncodingConsistencyError(f"decoded pair predicts the same class {x.cls}")
    if not phi_on_values(x.values, xp.values, schema, eps, mode):
        raise EncodingConsistencyError("decoded pair violates the similarity predicate")
    return Verdict(COUNTEREXAMPLE, query.kappa, Witness(x, xp), stats)


def search_min_kappa(
    netlist: Netlist,
    schema: FeatureSchema,
    mode: str,
    eps: int,
    tolerance: Fraction = DEFAULT_TOLERANCE,
    config: SolverConfig | None = None,
) -> KappaSearchResult:
    """Shrink a bracket ``[lo, hi]`` around kappa*: the largest first-copy
    confidence of a similar pair that changes class, or 1/C if there is
    none. Confidences are a/t with t <= N = C*L, so kappa* and both ends of
    the bracket lie in the Farey set F_N of such fractions.

    The bracket starts as ``[1/C, 1]`` and the first probe is at 1/C; each
    later one is the largest fraction of F_N at or below the midpoint, and
    never below ``lo``. Holds at kappa sets ``hi`` to kappa and covers the
    F_N gap above it, as the query reads kappa only through floor(i*kappa)
    for i <= N. A counterexample sets ``lo`` to its witness's confidence,
    which is above kappa. The search stops after an Unknown probe, or once
    ``hi - lo <= tolerance`` (0: exact, kappa* is ``hi``).
    A probe whose formula is byte for byte one already UNSAT is Holds at its
    own kappa, with the formula's sizes and no solve.
    """
    if tolerance < 0:
        raise ValueError(f"tolerance must be >= 0, got {tolerance}")
    n = netlist.num_classes * netlist.block_size
    lo = kappa = Fraction(1, netlist.num_classes)
    hi, queries, unsat = Fraction(1), [], set()
    while True:
        verdict = _verify(netlist, schema, mode, eps, kappa, config, unsat)
        queries.append(verdict)
        if verdict.status == HOLDS:
            hi = kappa
        elif verdict.status == COUNTEREXAMPLE:
            lo = verdict.witness.x.conf
        if verdict.status == UNKNOWN or hi - lo <= tolerance:
            break
        m = (lo + hi) / 2
        kappa = max(lo, *(Fraction(m.numerator * t // m.denominator, t) for t in range(1, n + 1)))
    if lo > hi:
        raise EncodingConsistencyError(
            f"verdicts not monotone: Holds at {hi}, but a counterexample has confidence {lo}"
        )
    return KappaSearchResult(hi, lo, tuple(queries))


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
    """verify_at across a threshold list, in ascending kappa order, with
    every row's query built before any solve. A row at or above a Holds, or
    below the last witness's confidence, takes that verdict with its own
    formula's sizes, wall time 0 and no solve."""
    queries = [PropertyQuery(mode, eps, k) for k in sorted(map(Fraction, kappas))]
    if not queries:
        raise ValueError("kappa list must be nonempty")
    rows = []
    for query in queries:
        last = rows[-1] if rows else None
        if last and (last.status == HOLDS or last.witness and last.witness.x.conf > query.kappa):
            formula, _ = build_query(netlist, schema, query)
            stats = VerdictStats(0.0, len(formula.clauses), formula.num_vars)
            rows.append(Verdict(last.status, query.kappa, last.witness, stats))
        else:
            rows.append(_verify(netlist, schema, mode, eps, query.kappa, config, None))
    return rows
