"""Fixed reference kernel that tracks the speed of a shared machine.

On a shared host the speed of one core drifts by 20-40% in phases of
seconds to minutes, which no statistic over a 30-second run averages out.
The worker therefore runs this kernel before and after every timed
command and scales the command's wall time by ``NOMINAL_S`` over the
mean of the two kernel times.  The kernel does not touch cvqec, so a
change to the program moves the scaled time exactly as much as the raw
one; only the machine's speed drops out.  Its mix follows the workloads:
a pure-Python loop, small real matrix products, complex matrix-vector
products with elementwise exponentials, dense complex products of the
size of a data-mode Fock space, and products of the size of the
nine-qubit carrier (512), whose working set sits in the shared cache
that neighbours on the host contend for.
"""

from __future__ import annotations

import time

import numpy as np

# Median kernel time on the machine the bounds were tuned on (2 vCPU,
# Intel Xeon, BLAS at one thread).  Scaled times are in seconds at that
# machine's typical speed.
NOMINAL_S = 0.065

_RNG = np.random.default_rng(0)
_REAL = _RNG.standard_normal((16, 16))
_CPLX = (_RNG.standard_normal((96, 96)) + 1j * _RNG.standard_normal((96, 96))) / 10
_VEC = _RNG.standard_normal(96) + 0j
_BIG = (_RNG.standard_normal((512, 512)) + 1j * _RNG.standard_normal((512, 512))) / 30
_BIG_VEC = _RNG.standard_normal(512) + 0j


def kernel() -> None:
    s = 0
    for i in range(60_000):
        s += i * i
    a = _REAL.copy()
    for _ in range(1500):
        a = a @ a
        a /= np.abs(a).max()
    v = _VEC.copy()
    for _ in range(1000):
        v = _CPLX @ v
        v /= np.sqrt(np.vdot(v, v).real)
        v = np.exp(1j * v.real) * v
    m = _CPLX
    for _ in range(20):
        m = m @ _CPLX
        m /= np.abs(m).max()
    w = _BIG_VEC.copy()
    for _ in range(100):
        w = _BIG @ w
        w /= np.linalg.norm(w)
    _BIG @ _BIG


def seconds() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0
