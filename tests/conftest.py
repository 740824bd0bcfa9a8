import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from helpers import OP_FALSE, OP_PASS_A, OP_TRUE, input_ref

from lgnsat.netlist import Netlist
from lgnsat.schema import CategoricalFeature, FeatureSchema, NumericFeature
from lgnsat.solver import SolverConfig


@pytest.fixture(scope="session")
def solver_config() -> SolverConfig:
    return SolverConfig(timeout=60.0)


@pytest.fixture
def flip_net() -> Netlist:
    """Class follows the one-hot sensitive bit; confidence is always 1."""
    return Netlist(
        2,
        (((OP_PASS_A, input_ref(0), input_ref(0)),
          (OP_PASS_A, input_ref(1), input_ref(1))),),
        2,
        1,
    )


@pytest.fixture
def flip_schema() -> FeatureSchema:
    return FeatureSchema((CategoricalFeature("group", 2, sensitive=True),))


@pytest.fixture
def const_net() -> Netlist:
    """Both outputs constant true: scores (1, 1) on every input."""
    return Netlist(
        2,
        (((OP_TRUE, input_ref(0), input_ref(0)),
          (OP_TRUE, input_ref(0), input_ref(0))),),
        2,
        1,
    )


@pytest.fixture
def const_sure_net() -> Netlist:
    """Class-0 block constant true, class-1 block constant false: conf 1."""
    return Netlist(
        2,
        (((OP_TRUE, input_ref(0), input_ref(0)),
          (OP_FALSE, input_ref(0), input_ref(0))),),
        2,
        1,
    )


@pytest.fixture
def mixed_schema() -> FeatureSchema:
    """One thermometer feature and one sensitive binary feature (width 5)."""
    return FeatureSchema(
        (
            NumericFeature("x", 3, 0.0, 3.0),
            CategoricalFeature("group", 2, sensitive=True),
        )
    )
