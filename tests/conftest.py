import hashlib
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

import dmaplab.graph as gr
import dmaplab.spectral as sp

# every property test repeats the same examples on every run
settings.register_profile("dmaplab", derandomize=True, deadline=None)
settings.load_profile("dmaplab")


@pytest.fixture
def force_iterative(monkeypatch):
    """Route every eigensolve_smallest call through the Lanczos branch."""
    monkeypatch.setattr(sp, "_DENSE_LIMIT", 10)


@pytest.fixture
def force_dense(monkeypatch):
    """Route every eigensolve_smallest call through the dense eigh branch."""
    monkeypatch.setattr(sp, "_DENSE_LIMIT", 10 ** 6)


@pytest.fixture
def one_worker(monkeypatch):
    """Run every _spread call as one share on the calling thread, which
    starts no thread: the graph layer's passes and the tangent engine's
    stacks alike; ball_counts queries on one thread."""
    monkeypatch.setattr(gr, "_cpus", lambda: 1)


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


@pytest.fixture
def fits_digest():
    """fits_digest(batch): sha256 hex digest over every fit's basis,
    tensors (by degree) and iteration count, in base-index order."""
    def digest(batch):
        h = hashlib.sha256()
        for i in sorted(batch.fits):
            fit = batch.fits[i]
            h.update(fit.basis.tobytes())
            for l in sorted(fit.tensors):
                h.update(fit.tensors[l].tobytes())
            h.update(np.int64(fit.iterations).tobytes())
        return h.hexdigest()
    return digest


@pytest.fixture
def src_env():
    """The environment for a child Python process, with this checkout's
    src first on PYTHONPATH, so the child imports the dmaplab under test
    whether or not a copy is installed."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}
