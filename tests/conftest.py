import pytest

from elliptau.checks import CheckContext
from elliptau.curve import BranchConfig
from elliptau.scenario import GOLDEN


@pytest.fixture(scope="session")
def golden_ctx():
    """Shared lazily-built artifacts for the reference scenario."""
    return CheckContext(GOLDEN)


@pytest.fixture(scope="session")
def golden_branch():
    return BranchConfig(1.0, 0.0, -1.0)


@pytest.fixture(scope="session")
def golden_lattice(golden_branch):
    return golden_branch.lattice
