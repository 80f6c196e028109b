"""A fixed reference computation that measures how fast the host runs right now.

The benchmark's machine is a few vCPUs of a shared host, and the speed of
one Python thread there changes by up to a factor of two within seconds while
the program stays the same.  A unit does a fixed amount of work shaped like
mfsim's hot paths and uses no mfsim code, so a change to the program cannot
change its cost; the time it takes says how fast the host is at that moment.
The benchmark runs units between trajectories and reports times scaled to the
speed at which a unit takes ``NOMINAL_S`` (see README.md, "Host speed").
"""

from __future__ import annotations

import functools
import gc
import time

import numpy as np

# Two kinds of unit, because the host's spells do not slow all code alike:
# "interpreter" is many small numpy calls and Python bookkeeping, like a
# feedback round on a few qubits; "dense" is one LAPACK eigendecomposition on a
# matrix too large for the core's own cache, like the oracle of a 10-qubit
# chain.  NOMINAL_S is the time of one unit of each kind on a 2-vCPU x86-64 VM
# in a fast spell; every scaled time refers to it.  They are fixed constants:
# changing one rescales every time reported with that kind.
NOMINAL_S = {"interpreter": 0.008, "dense": 0.400}

_N_QUBITS = 6
_SMALL_MATRIX = 96
_LARGE = 640


def _gates() -> list:
    rng = np.random.default_rng(12345)
    out = []
    for _ in range(8):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        q, _ = np.linalg.qr(a)
        out.append(q)
    return out


_GATES = _gates()
_EYE2 = np.eye(2)
_h = np.random.default_rng(54321).normal(size=(_SMALL_MATRIX, _SMALL_MATRIX))
_SMALL_HERMITIAN = (_h + _h.T) / 2.0
del _h


@functools.cache
def _large_hermitian() -> np.ndarray:
    """Built on first use, so a process that needs only small units stays small."""
    a = np.random.default_rng(777).normal(size=(_LARGE, _LARGE, 2)).view(complex)[..., 0]
    return (a + a.conj().T) / 2.0


def _small_ops(amps: np.ndarray) -> tuple[np.ndarray, float]:
    """Gate sweeps over a 6-qubit state with unitarity checks and a measurement."""
    n = _N_QUBITS
    acc = 0.0
    record = {}
    for sweep in range(6):
        for qubit in range(n):
            u = _GATES[(sweep + qubit) % len(_GATES)]
            if not np.allclose(u.conj().T @ u, _EYE2, atol=1e-10):
                raise AssertionError("reference gate is not unitary")
            t = amps.reshape([2] * n)
            ax = n - 1 - qubit
            t = np.moveaxis(np.tensordot(u, t, axes=([1], [ax])), 0, ax)
            amps = t.reshape(-1)
            p1 = float(np.vdot(t[(slice(None),) * ax + (1,)], t[(slice(None),) * ax + (1,)]).real)
            record[(sweep, qubit)] = round(p1, 6)
            acc += p1
    amps = amps / np.sqrt(np.vdot(amps, amps).real)
    return amps, acc + len(record)


def _small_exponential() -> float:
    """A small Hermitian eigendecomposition and the matrix exponential from it."""
    w, v = np.linalg.eigh(_SMALL_HERMITIAN)
    u = (v * np.exp(0.5j * w)) @ v.conj().T
    return float(abs(np.trace(u)))


def _interpreter_unit() -> float:
    amps = np.zeros(1 << _N_QUBITS, dtype=complex)
    amps[0] = 1.0
    total = 0.0
    for _ in range(3):
        amps, acc = _small_ops(amps)
        total += acc
    return total + _small_exponential()


def _dense_unit() -> float:
    w, _ = np.linalg.eigh(_large_hermitian())
    return float(w[0])


UNITS = {"interpreter": _interpreter_unit, "dense": _dense_unit}


def measure(kind: str, units: int = 1) -> float:
    """Seconds per unit over ``units`` back-to-back units of ``kind``, with the collector paused."""
    work = UNITS[kind]
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(units):
            work()
        return (time.perf_counter() - start) / units
    finally:
        if enabled:
            gc.enable()
