"""Fixtures shared by the test modules."""

import dataclasses

import pytest

from studentpar import servesim as sim


@pytest.fixture
def touched_elements(monkeypatch):
    """Make every buffer element built from here on add its id to the returned set whenever
    one of its fields is read or written, so that a test counts the elements a buffer
    operation touches from outside the buffer: clear the set, run the operation, read its size."""
    touched = set()
    fields = frozenset(f.name for f in dataclasses.fields(sim.BufferElement))

    class CountingElement(sim.BufferElement):
        __slots__ = ()

        def __getattribute__(self, name):
            if name in fields:
                touched.add(id(self))
            return object.__getattribute__(self, name)

        def __setattr__(self, name, value):
            touched.add(id(self))
            object.__setattr__(self, name, value)

    monkeypatch.setattr(sim, "BufferElement", CountingElement)
    return touched
