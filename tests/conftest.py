import pytest

from monocat import terms


@pytest.fixture
def fresh_memo(monkeypatch):
    """Canonicalise from an empty memo, as a new process does."""
    monkeypatch.setattr(terms, "_memo", ({}, {}))
    terms._canonical_key.cache_clear()
