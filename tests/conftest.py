"""Shared fixtures."""

import pytest

import sepekr.core


@pytest.fixture
def enumerations(monkeypatch):
    """Record every call of sepekr.core.enumerate_separated, from an empty universe cache."""
    calls = []
    real = sepekr.core.enumerate_separated

    def counted(*args):
        calls.append(args)
        return real(*args)

    sepekr.core._universe.cache_clear()
    monkeypatch.setattr("sepekr.core.enumerate_separated", counted)
    return calls
