"""SAT-based global robustness and fairness verification for logic gate
networks: netlist model, CNF lowering, external-solver protocol, binary
search over the safe confidence threshold."""

__version__ = "0.1.0"

from .cnf import CnfBuilder, CnfFormula, to_dimacs
from .driver import (
    KappaSearchResult,
    check_attainable,
    search_min_kappa,
    sweep,
    verify_at,
)
from .encoder import PropertyQuery, VarMap, build_query
from .errors import LgnsatError
from .evaluator import (
    COUNTEREXAMPLE,
    FAIR,
    HOLDS,
    ROBUST,
    UNKNOWN,
    Verdict,
    Witness,
    check_phi,
    forward,
    predict,
)
from .ingest import Dataset, accuracy, encode_row, load_csv
from .netlist import (
    Gate,
    Netlist,
    parse_netlist,
    random_netlist,
    serialize_netlist,
    validate,
)
from .schema import (
    CategoricalFeature,
    FeatureSchema,
    NumericFeature,
    parse_schema,
    serialize_schema,
)
from .solver import SolverConfig, SolveOutcome, find_solver, solve

__all__ = [
    "COUNTEREXAMPLE",
    "FAIR",
    "HOLDS",
    "ROBUST",
    "UNKNOWN",
    "CategoricalFeature",
    "CnfBuilder",
    "CnfFormula",
    "Dataset",
    "FeatureSchema",
    "Gate",
    "KappaSearchResult",
    "LgnsatError",
    "Netlist",
    "NumericFeature",
    "PropertyQuery",
    "SolveOutcome",
    "SolverConfig",
    "VarMap",
    "Verdict",
    "Witness",
    "accuracy",
    "build_query",
    "check_attainable",
    "check_phi",
    "encode_row",
    "find_solver",
    "forward",
    "load_csv",
    "parse_netlist",
    "parse_schema",
    "predict",
    "random_netlist",
    "search_min_kappa",
    "serialize_netlist",
    "serialize_schema",
    "solve",
    "sweep",
    "to_dimacs",
    "validate",
    "verify_at",
]
