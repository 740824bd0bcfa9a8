"""Verification workflows: fixed-threshold queries, search for the minimal
safe threshold, attainability checks, and threshold sweeps.

Every solver-backed call goes through ``_solve``: it builds the query,
hands it to the solver, and reads a SAT model back as one concrete input
per network copy, rechecked on the network. Each probe is a fresh solver
invocation (no incremental reuse), and searches and sweeps keep each
probe's ``Verdict`` so cumulative solve time can be reported. Both pass
their verdicts through one consistency rule, ``_check_consistent``.
"""

from __future__ import annotations

from dataclasses import dataclass
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

DEFAULT_TOLERANCE = Fraction(1, 20)


@dataclass(frozen=True)
class KappaSearchResult:
    """Outcome of the search for the minimal safe threshold kappa*: the
    bracket ``[kappa_lower, kappa_star]`` holds it, and ``kappa_star`` is a
    safe threshold. The two are equal when the search pinned kappa* exactly.
    ``converged`` is False when an Unknown probe cut the search short."""

    kappa_star: Fraction
    kappa_lower: Fraction
    converged: bool
    queries: tuple[Verdict, ...]

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
    tolerance: Fraction = DEFAULT_TOLERANCE,
    config: SolverConfig | None = None,
) -> KappaSearchResult:
    """Shrink a bracket ``[lo, hi]`` around kappa*: the largest first-copy
    confidence of a similar pair that changes class, or 1/C if there is
    none. It starts as ``[1/C, 1]`` without a probe, as no confidence
    exceeds 1.

    Probes go to ``lo``, then to midpoints. Holds at kappa sets ``hi`` to
    kappa; a counterexample sets ``lo`` to its witness's confidence, which
    is above kappa. Unknown stops with ``converged`` False. The search ends
    when the bracket is at most ``tolerance`` wide (0: exact), or narrower
    than 1/N^2 with N = C*L: distinct confidences a/t with t <= N differ by
    more than that, so kappa* is then exactly ``lo``.
    """
    if tolerance < 0:
        raise ValueError(f"tolerance must be >= 0, got {tolerance}")
    exact = Fraction(1, (netlist.num_classes * netlist.block_size) ** 2)
    lo = kappa = Fraction(1, netlist.num_classes)
    hi = Fraction(1)
    queries: list[Verdict] = []
    converged = True
    while hi - lo > tolerance and hi - lo >= exact:
        verdict = verify_at(netlist, schema, mode, eps, kappa, config)
        queries.append(verdict)
        if verdict.status == UNKNOWN:
            converged = False
            break
        if verdict.status == HOLDS:
            hi = kappa
        else:
            lo = verdict.witness.x.conf
        kappa = (lo + hi) / 2
    _check_consistent(queries)
    star = lo if hi - lo < exact else hi
    return KappaSearchResult(star, lo, converged, tuple(queries))


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


def _check_consistent(verdicts) -> None:
    """A Holds at kappa says no similar pair changes class from a confidence
    above kappa, so a rechecked witness more confident than that is an
    EncodingConsistencyError."""
    holds = [v.kappa for v in verdicts if v.status == HOLDS]
    confs = [v.witness.x.conf for v in verdicts if v.status == COUNTEREXAMPLE]
    if holds and confs and max(confs) > min(holds):
        raise EncodingConsistencyError(
            f"verdicts not monotone: Holds at {min(holds)}, "
            f"but a counterexample has confidence {max(confs)}"
        )


def sweep(
    netlist: Netlist,
    schema: FeatureSchema,
    mode: str,
    eps: int,
    kappas,
    config: SolverConfig | None = None,
) -> list[Verdict]:
    """verify_at across a threshold list; verdicts come back in ascending
    kappa order and must pass the consistency rule."""
    kappas = sorted(Fraction(k) for k in kappas)
    if not kappas:
        raise ValueError("kappa list must be nonempty")
    rows = [verify_at(netlist, schema, mode, eps, kappa, config) for kappa in kappas]
    _check_consistent(rows)
    return rows
