import tracemalloc

import pytest

import dmaplab.spectral as sp


@pytest.fixture
def force_iterative(monkeypatch):
    """Route every eigensolve_smallest call through the Lanczos branch."""
    monkeypatch.setattr(sp, "_DENSE_LIMIT", 10)


@pytest.fixture
def peak_bytes():
    """peak_bytes(fn): the tracemalloc peak, in bytes, of one call fn()."""
    def measure(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return measure
