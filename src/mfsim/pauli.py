"""Exact Pauli-string algebra with i-power phase tracking.

A :class:`PauliString` is a tensor product of single-qubit Pauli operators
together with a global factor ``i**phase_power``.  The same type doubles as
the byproduct-operator frame (:class:`ErrorFrame`) that records the known
Pauli flips accumulated by the measurement protocol; frames ignore the
global phase by convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Mapping

import numpy as np

from .errors import UsageError


class PauliAxis(Enum):
    I = "I"
    X = "X"
    Y = "Y"
    Z = "Z"

    def matrix(self) -> np.ndarray:
        return _AXIS_MATRICES[self]


_AXIS_MATRICES = {
    PauliAxis.I: np.eye(2, dtype=complex),
    PauliAxis.X: np.array([[0, 1], [1, 0]], dtype=complex),
    PauliAxis.Y: np.array([[0, -1j], [1j, 0]], dtype=complex),
    PauliAxis.Z: np.array([[1, 0], [0, -1]], dtype=complex),
}

# Single-qubit products: (a, b) -> (c, p) with  sigma_a . sigma_b = i**p . sigma_c.
_SINGLE_PRODUCT: dict[tuple[PauliAxis, PauliAxis], tuple[PauliAxis, int]] = {}
for _a in PauliAxis:
    _SINGLE_PRODUCT[(PauliAxis.I, _a)] = (_a, 0)
    _SINGLE_PRODUCT[(_a, PauliAxis.I)] = (_a, 0)
    _SINGLE_PRODUCT[(_a, _a)] = (PauliAxis.I, 0)
# X.Y = iZ, Y.Z = iX, Z.X = iY and the reversed orders pick up i**3.
for _a, _b, _c in (
    (PauliAxis.X, PauliAxis.Y, PauliAxis.Z),
    (PauliAxis.Y, PauliAxis.Z, PauliAxis.X),
    (PauliAxis.Z, PauliAxis.X, PauliAxis.Y),
):
    _SINGLE_PRODUCT[(_a, _b)] = (_c, 1)
    _SINGLE_PRODUCT[(_b, _a)] = (_c, 3)


@dataclass(frozen=True)
class PauliString:
    """Phased tensor product of Pauli axes over a fixed-size register."""

    axes: tuple[PauliAxis, ...]
    phase_power: int = 0

    def __post_init__(self):
        object.__setattr__(self, "axes", tuple(self.axes))
        object.__setattr__(self, "phase_power", self.phase_power % 4)

    @classmethod
    def identity(cls, n: int) -> "PauliString":
        return cls((PauliAxis.I,) * n)

    @classmethod
    def from_str(cls, text: str, phase_power: int = 0) -> "PauliString":
        try:
            axes = tuple(PauliAxis(c) for c in text)
        except ValueError as exc:
            raise UsageError(f"invalid Pauli string {text!r}") from exc
        return cls(axes, phase_power)

    @classmethod
    def embed(cls, n: int, sites: Mapping[int, PauliAxis]) -> "PauliString":
        """All-identity string of length ``n`` with the given axes placed at ``sites``."""
        axes = [PauliAxis.I] * n
        for q, a in sites.items():
            if not 0 <= q < n:
                raise UsageError(f"site {q} outside register of size {n}")
            axes[q] = a
        return cls(tuple(axes))

    def __len__(self) -> int:
        return len(self.axes)

    def __str__(self) -> str:
        return "".join(a.value for a in self.axes)

    @property
    def is_identity(self) -> bool:
        return all(a is PauliAxis.I for a in self.axes)

    def matrix(self) -> np.ndarray:
        """Dense matrix in little-endian qubit order (qubit 0 = low index bit)."""
        m = np.array([[1]], dtype=complex)
        for a in self.axes:
            m = np.kron(a.matrix(), m)
        return (1j ** self.phase_power) * m


def multiply(p: PauliString, q: PauliString) -> PauliString:
    """Exact product p.q with the correct i-power phase."""
    if len(p) != len(q):
        raise UsageError(f"length mismatch: {len(p)} vs {len(q)}")
    axes = []
    phase = p.phase_power + q.phase_power
    for a, b in zip(p.axes, q.axes):
        c, dp = _SINGLE_PRODUCT[(a, b)]
        axes.append(c)
        phase += dp
    return PauliString(tuple(axes), phase)


def commutes(p: PauliString, q: PauliString) -> bool:
    """True iff the number of sites where both are non-I and different is even."""
    if len(p) != len(q):
        raise UsageError(f"length mismatch: {len(p)} vs {len(q)}")
    n_anti = sum(
        1
        for a, b in zip(p.axes, q.axes)
        if a is not PauliAxis.I and b is not PauliAxis.I and a is not b
    )
    return n_anti % 2 == 0


def conjugation_unitary(k: PauliAxis) -> np.ndarray:
    """A single-qubit unitary u with u . sigma_X . u^dag = sigma_k.

    Concrete branch-free choices: identity for X, the phase gate diag(1, i)
    for Y, the Hadamard for Z.
    """
    if k is PauliAxis.X:
        return np.eye(2, dtype=complex)
    if k is PauliAxis.Y:
        return np.diag([1.0, 1.0j])
    if k is PauliAxis.Z:
        return np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    raise UsageError("conjugation unitary undefined for the identity axis")


@dataclass(frozen=True)
class ErrorFrame:
    """Byproduct-operator frame; global phase is ignored (phase_power held at 0)."""

    byproduct: PauliString

    @classmethod
    def identity(cls, n: int) -> "ErrorFrame":
        return cls(PauliString.identity(n))

    def updated(self, correction: PauliString) -> "ErrorFrame":
        """Frame after the physical state picked up ``correction`` (left-multiplied)."""
        prod = multiply(correction, self.byproduct)
        return ErrorFrame(PauliString(prod.axes, 0))

    def __str__(self) -> str:
        return str(self.byproduct)


def frame_conjugate_direction(frame: ErrorFrame, target: PauliString) -> int:
    """+1 if the frame commutes with ``target``, -1 if it anticommutes.

    -1 tells the feedback controller to swap the roles of the two
    Bell-type measurement outcomes (the time direction is inverted).
    """
    return 1 if commutes(frame.byproduct, target) else -1
