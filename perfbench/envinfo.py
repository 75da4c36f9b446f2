"""Environment record written next to every result: cores, BLAS and its
thread settings, Python/numpy/scipy versions and the src/cvqec line
count (information only, not a gate)."""

from __future__ import annotations

import ctypes
import os
import platform

# OpenBLAS builds export the thread query under a build-specific prefix.
_THREAD_QUERIES = ("openblas_get_num_threads", "openblas_get_num_threads64_",
                   "scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _blas_libraries() -> list[str]:
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return []
    return sorted(p for p in paths if p.startswith("/"))


def _runtime_threads() -> dict[str, int]:
    """Threads each loaded OpenBLAS reports, keyed by library file name."""
    out = {}
    for path in _blas_libraries():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _THREAD_QUERIES:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                out[os.path.basename(path)] = fn()
                break
    return out


def _blas_config(module) -> dict:
    try:
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        return {}
    return {"name": blas.get("name"), "version": blas.get("version")}


def record(src) -> dict:
    import numpy
    import scipy

    lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                for p in sorted((src / "cvqec").glob("*.py")))
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas_config(numpy),
        "scipy_blas": _blas_config(scipy),
        "blas_threads_set": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads_runtime": _runtime_threads(),
        "CVQEC_THREADS": os.environ.get("CVQEC_THREADS"),
        "src_cvqec_lines": lines,
    }
