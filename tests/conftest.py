"""Shared fixtures."""

import pytest


@pytest.fixture
def spoil_call(monkeypatch):
    """``spoil_call(owner, name, nth, spoil)`` wraps ``owner.name`` so that
    its ``nth`` call (counted from 1) returns ``spoil`` of its result: a
    NaN planted where a reduction could pass over it."""
    def plant(owner, name, nth, spoil):
        original, calls = getattr(owner, name), []

        def wrapped(*args, **kwargs):
            out = original(*args, **kwargs)
            calls.append(name)
            return spoil(out) if len(calls) == nth else out

        monkeypatch.setattr(owner, name, wrapped)

    return plant
