"""Fixtures every test in this directory runs under."""

import threading

import pytest

from specnet3d.parallel import blas_threads


@pytest.fixture(autouse=True)
def blas_thread_count_restored():
    """OpenBLAS's thread count is process-wide, so a test must leave it as
    it found it, or every later test runs under another count.  A fan-out
    joins its helper threads before it returns, so none may outlive the
    test that started it either."""
    before = blas_threads()
    yield
    assert blas_threads() == before, "OpenBLAS thread count changed"
    helpers = [t for t in threading.enumerate() if t.name == "specnet3d-shard"]
    assert not helpers, f"{len(helpers)} specnet3d-shard thread(s) still running"
