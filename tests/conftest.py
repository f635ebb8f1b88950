"""Fixtures shared by the test modules."""

from functools import cache

import pytest

from lie_ncg import enumeration, iso, liealg
from lie_ncg.linalg import VectorSpace


@pytest.fixture
def fresh_memos(monkeypatch):
    """Give the test empty process-wide memos: vector spaces of its own for
    ``liealg``, so their rank and linear-map memos and the graph cores kept
    on them start empty, an empty certificate cache and an empty orbit
    index.  The fixture's value empties them again when called."""

    def fresh():
        monkeypatch.setattr(liealg, "vector_space", cache(VectorSpace))
        monkeypatch.setattr(iso, "_CERT_CACHE", {})
        monkeypatch.setattr(enumeration, "_orbit_index",
                            cache(enumeration._orbit_index.__wrapped__))

    fresh()
    return fresh
