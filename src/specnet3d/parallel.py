"""Independent jobs run on the calling thread and helper threads: the
shards of one batch, the strips of an inference pass, or the row blocks
of a cube-sized I/O pass, dealt round-robin over the workers.

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
    """[fn(0), ..., fn(count - 1)], the jobs fanned out over threads: a
    batch's shards, an inference pass's strips, or the row blocks of a
    cube-sized pass (data._row_blocks).

    Worker w of W = min(count, workers()) runs jobs w, w + W, ... in turn:
    the caller is worker 0, and W - 1 helper threads, each in a copy of the
    caller's context (which carries numpy's error state), are the others.
    With no way to set OpenBLAS's thread count the caller runs every job.
    When jobs raise, the lowest job's exception is raised once every worker
    has stopped; before each job but job 0, a worker stops if any has raised.

    OpenBLAS stays at one thread while the jobs run (one_blas_thread), so
    every GEMM runs on its job's thread whatever OPENBLAS_NUM_THREADS says
    (how many threads split a GEMM can change its bits), and OpenBLAS's own
    threads, which spin for a while after a split GEMM, keep off the cores
    the helpers need.
    """
    width = max(1, min(count, workers())) if _openblas() is not None else 1
    results, errors = [None] * count, {}

    def work(worker):
        for job in range(worker, count, width):
            if job and errors:
                return
            try:
                results[job] = fn(job)
            except BaseException as exc:  # raised on the caller below
                errors[job] = exc

    with one_blas_thread():
        threads = []
        try:
            for worker in range(1, width):
                thread = threading.Thread(target=contextvars.copy_context().run,
                                          args=(work, worker), name="specnet3d-shard")
                thread.start()
                threads.append(thread)
            work(0)
        finally:
            for thread in threads:
                thread.join()
    if errors:
        raise errors[min(errors)]
    return results
