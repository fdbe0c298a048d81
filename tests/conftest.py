"""Shared fixtures."""

import pytest

import sepekr.core


@pytest.fixture
def enumerations(monkeypatch):
    """Record every call of the mask enumerator sepekr.core.separated_masks, from an empty universe cache."""
    calls = []
    real = sepekr.core.separated_masks

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    sepekr.core._universe.cache_clear()
    monkeypatch.setattr("sepekr.core.separated_masks", counted)
    return calls
