"""Independent jobs run on the calling thread and helper threads: the
shards of one batch, the strips of an inference pass, or a cube-sized
I/O pass's share of row blocks.

OpenBLAS's thread count is process-wide.  It is read and set through the
library's own entry points, found with ctypes in the numpy.libs directory
numpy's wheel ships its OpenBLAS in.  While shards run the count is held
at one, so each thread's GEMMs run on that thread and the threads share
out the cores instead of BLAS splitting small GEMMs between them.

fan_out(count, fn) is a plain call that returns [fn(0), ..., fn(count - 1)]
with the pin held inside it.  Each job writes its own output, or its own
rows of a shared one, so no caller work has to sit inside the pin.
"""

import contextlib
import contextvars
import ctypes
import functools
import glob
import os
import threading

import numpy as np

# (getter, setter) pairs: the scipy-openblas wheels' prefixed 64-bit
# symbols first, then plain OpenBLAS builds
_ENTRY_POINTS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@functools.cache
def _openblas():
    """(get, set) thread-count functions of numpy's OpenBLAS, or None."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for get_name, set_name in _ENTRY_POINTS:
            get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and set_ is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                set_.restype, set_.argtypes = None, [ctypes.c_int]
                return get, set_
    return None


def blas_threads():
    """OpenBLAS's current thread count, or None where it cannot be read."""
    blas = _openblas()
    return None if blas is None else blas[0]()


# How many blocks hold OpenBLAS at one thread, and the count to restore
# when the last of them ends; guarded by _pin_lock.
_pin_lock = threading.Lock()
_pins = 0
_unpinned = None


@contextlib.contextmanager
def one_blas_thread():
    """Hold OpenBLAS at one thread for the with block, where its count can
    be set, and give the count back on the way out, even when the block
    raises.  Blocks may nest or overlap; the last one out restores."""
    global _pins, _unpinned
    blas = _openblas()
    if blas is None:
        yield
        return
    get, set_ = blas
    with _pin_lock:
        if _pins == 0:
            _unpinned = get()
            set_(1)
        _pins += 1
    try:
        yield
    finally:
        with _pin_lock:
            _pins -= 1
            if _pins == 0:
                set_(_unpinned)


def workers():
    """Threads a fan-out may use, the caller's included: the CPUs this
    process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def fan_out(count, fn):
    """[fn(0), ..., fn(count - 1)], the jobs (shards) fanned out over
    threads: a batch's shards, an inference pass's strips, or the row
    blocks of a cube-sized pass (data._row_blocks).

    The caller runs shard 0 and at most workers() - 1 helper threads take
    the rest, then the caller too, one shard at a time.  Each helper runs
    in a copy of the caller's context, which carries numpy's error state.
    When shards raise, fan_out raises the lowest shard's exception once
    every shard has stopped, and no shard starts after one has raised.
    With one shard, one worker, or no way to set OpenBLAS's thread count,
    the caller runs every shard in turn.

    OpenBLAS stays at one thread while the shards run, helpers or not
    (one_blas_thread).  So every GEMM a shard makes runs on one thread,
    whatever OPENBLAS_NUM_THREADS says: how many threads split a GEMM can
    change its bits.  It also keeps OpenBLAS's own threads, which spin for
    a while after a split GEMM waiting for more work, off the cores the
    helpers need.
    """
    helpers = min(count, workers()) - 1 if _openblas() is not None else 0
    with one_blas_thread():
        return _run_threaded(count, helpers, fn)


def _run_threaded(count, helpers, run):
    results = [None] * count
    errors = {}
    claim = threading.Lock()
    unclaimed = iter(range(count))
    first = next(unclaimed, None)  # the caller's, before any helper starts

    def work(shard=None):
        while True:
            if shard is None:
                with claim:
                    shard = next(unclaimed, None) if not errors else None
                if shard is None:
                    return
            try:
                results[shard] = run(shard)
            except BaseException as exc:  # raised on the caller below
                with claim:
                    errors[shard] = exc
            shard = None

    threads = []
    try:
        for _ in range(helpers):
            thread = threading.Thread(target=contextvars.copy_context().run,
                                      args=(work,), name="specnet3d-shard")
            thread.start()
            threads.append(thread)
        work(first)
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[min(errors)]
    return results
