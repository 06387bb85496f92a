import pytest

from monocat import terms


@pytest.fixture
def fresh_memo(monkeypatch):
    """Canonicalise and match from an empty memo, as a new process does;
    the table of shared canonical terms starts empty too."""
    monkeypatch.setattr(terms, "_memo", {})
