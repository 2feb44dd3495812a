"""Fixtures every test in this directory runs under."""

import threading

import pytest

from specnet3d import parallel


@pytest.fixture(autouse=True)
def blas_thread_count_restored():
    """OpenBLAS's thread count is process-wide, so a test must leave it as
    it found it, or every later test runs under another count.  A fan-out
    joins its helper threads before it returns, so none may outlive the
    test that started it either.  Every pin must be released as well: the
    count check alone cannot see a leaked pin when the count is already 1."""
    before = parallel.blas_threads()
    yield
    assert parallel.blas_threads() == before, "OpenBLAS thread count changed"
    assert parallel._pins == 0, f"{parallel._pins} OpenBLAS pin(s) still held"
    helpers = [t for t in threading.enumerate() if t.name == "specnet3d-shard"]
    assert not helpers, f"{len(helpers)} specnet3d-shard thread(s) still running"
