"""The environment every result is recorded with."""

import ctypes
import glob
import hashlib
import os
import platform
import subprocess

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

_THREAD_QUERIES = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads")


def blas_info():
    """(name, version, thread count or None) of the BLAS numpy links."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name, version = blas.get("name", "unknown"), blas.get("version", "unknown")
    except (TypeError, KeyError):
        name, version = "unknown", "unknown"
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for query in _THREAD_QUERIES:
            fn = getattr(lib, query, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return name, version, int(fn())
    return name, version, None


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_revision():
    try:
        # the ceiling stops git from reporting an enclosing repository
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10, check=False,
                              env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)})
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return proc.stdout.strip() if proc.returncode == 0 else "unavailable"


def source_sha256():
    """Digest of the package sources, which identifies the code measured
    where the checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "specnet3d", "*.py"))):
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def environment(seed):
    name, version, threads = blas_info()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": name,
        "blas_version": version,
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "git_revision": git_revision(),
        "source_sha256": source_sha256(),
        "seed": seed,
    }


def thread_problems(env):
    """The benchmark keeps BLAS at its default thread count; that count
    must not exceed the CPUs this process may run on."""
    threads = env["blas_threads"]
    if threads is not None and threads > env["nproc"]:
        return [f"BLAS runs {threads} threads on {env['nproc']} CPUs"]
    return []
