"""Fixtures every test in this directory runs under."""

import pytest

from specnet3d.parallel import blas_threads


@pytest.fixture(autouse=True)
def blas_thread_count_restored():
    """OpenBLAS's thread count is process-wide, so a test must leave it as
    it found it, or every later test runs under another count."""
    before = blas_threads()
    yield
    assert blas_threads() == before, "OpenBLAS thread count changed"
