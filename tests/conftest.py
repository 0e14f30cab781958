import pytest

from endlab.theorem_lab import default_catalog

from helpers import catalog_document


@pytest.fixture(scope="session")
def catalog():
    """Default catalog entries by name; backends are cached per entry."""
    return {e.name: e for e in default_catalog()}


@pytest.fixture(scope="session")
def catalog_doc():
    """The packaged catalog document; a test that edits an entry edits a deep copy."""
    return catalog_document()
