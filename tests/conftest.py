import pytest

import dmaplab.spectral as sp


@pytest.fixture
def force_iterative(monkeypatch):
    """Route every eigensolve_smallest call through the Lanczos branch."""
    monkeypatch.setattr(sp, "_DENSE_LIMIT", 10)
