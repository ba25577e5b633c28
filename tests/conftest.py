"""Session fixtures shared across test modules."""

import pytest

from tests.tree_checks import REPO, parse


@pytest.fixture(scope="session")
def tree():
    """``src/`` and ``benchmarks/``, each file parsed once per session."""
    return parse(REPO)
