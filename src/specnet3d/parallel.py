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

Two more process and thread settings go through ctypes, on glibc only,
for the network's jobs (see network): steady_heap keeps freed heap pages
in the process, and flush_subnormals runs a job with x86-64's FTZ and DAZ
set.  Elsewhere both do nothing.
"""

import contextlib
import contextvars
import ctypes
import functools
import glob
import os
import platform
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


def _glibc(name):
    """ctypes handle of glibc's shared library name, or None off glibc."""
    return ctypes.CDLL(name) if platform.libc_ver()[0] == "glibc" else None


# mallopt's parameters, and the values steady_heap sets: glibc's ceiling
# for the mmap threshold, so cube-sized arrays still map and unmap, and a
# trim threshold above a train step's heap working set
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD = 32 << 20
_TRIM_THRESHOLD = 1 << 30


@functools.cache
def steady_heap():
    """Keep freed heap pages in the process, once per process; True when
    glibc's mallopt took both settings, None off glibc.

    By default glibc gives the top of a freed heap back to the kernel and
    maps every array over a threshold on its own, so each train step
    faults its whole working set in again.  Setting the trim threshold
    alone would pin the mmap threshold at its 128 KiB default, so both
    are set."""
    libc = _glibc("libc.so.6")
    if libc is None:
        return None
    libc.mallopt.restype, libc.mallopt.argtypes = ctypes.c_int, [ctypes.c_int, ctypes.c_int]
    return (libc.mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD) == 1
            and libc.mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD) == 1)


# MXCSR's flush-to-zero and denormals-are-zero bits
_FTZ_DAZ = 0x8000 | 0x40


@functools.cache
def _fenv():
    """(fegetenv, fesetenv) of glibc's libm on x86-64, or None.  There a
    fenv_t is 28 bytes of x87 state and then the 32-bit MXCSR."""
    if platform.machine().lower() not in ("x86_64", "amd64"):
        return None
    libm = _glibc("libm.so.6")
    if libm is None:
        return None
    for fn in (libm.fegetenv, libm.fesetenv):
        fn.restype, fn.argtypes = ctypes.c_int, [ctypes.POINTER(ctypes.c_uint32 * 8)]
    return libm.fegetenv, libm.fesetenv


@contextlib.contextmanager
def flush_subnormals():
    """Run the with block with FTZ and DAZ set on the calling thread, so a
    float32 subnormal result is 0 and a subnormal operand reads as 0, and
    give the thread its floating-point environment back on the way out,
    even when the block raises.  A no-op where _fenv is None."""
    fenv = _fenv()
    if fenv is None:
        yield
        return
    get, set_ = fenv
    saved = (ctypes.c_uint32 * 8)()
    get(saved)
    flushed = type(saved).from_buffer_copy(saved)
    flushed[7] |= _FTZ_DAZ  # the MXCSR, after 28 bytes of x87 state
    set_(flushed)
    try:
        yield
    finally:
        set_(saved)


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
