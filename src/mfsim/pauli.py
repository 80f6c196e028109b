"""Pauli strings up to global phase, as symplectic bit masks.

A :class:`PauliString` is a tensor product of single-qubit Pauli operators,
up to a global phase.  It is stored in the symplectic form of Aaronson &
Gottesman (PRA 70, 052328 (2004)): bit q of the integer masks ``x`` and
``z`` says whether qubit q carries an X and a Z factor, with X = (1, 0),
Z = (0, 1) and Y = (1, 1), so products (up to phase) are XORs and
commutation is a popcount parity.  The same type doubles as the
byproduct-operator frame: an :class:`ErrorFrame` is the Pauli string of the
known flips accumulated by the measurement protocol, with its integer key.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping

import numpy as np

from .errors import UsageError


class PauliAxis(Enum):
    I = "I"
    X = "X"
    Y = "Y"
    Z = "Z"

    __hash__ = object.__hash__  # identity, as equality is; the axes key the pair-record cache

    def __init__(self, value: str):
        # symplectic bits of the axis
        self.x_bit = int(value in "XY")
        self.z_bit = int(value in "YZ")

    def matrix(self) -> np.ndarray:
        return _AXIS_MATRICES[self.value]


_AXIS_MATRICES = {  # by letter, so a string's text picks its site gates
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

@functools.lru_cache(maxsize=4096)
def mask_text(n: int, x: int, z: int) -> str:
    """The n-letter text of the Pauli string with masks (x, z), qubit 0 first (letter x + 2z)."""
    return "".join("IXZY"[(x >> q & 1) | (z >> q & 1) << 1] for q in range(n))


@dataclass(frozen=True)
class PauliString:
    """Tensor product of Pauli axes over a fixed-size register, held as x/z masks, up to phase."""

    n: int
    x: int
    z: int

    def __init__(self, axes: Iterable[PauliAxis]):
        axes = tuple(axes)
        self.__dict__.update(n=len(axes), x=sum(a.x_bit << q for q, a in enumerate(axes)),
                             z=sum(a.z_bit << q for q, a in enumerate(axes)))

    @classmethod
    def from_masks(cls, n: int, x: int, z: int) -> "PauliString":
        """The string on ``n`` qubits with symplectic masks ``x`` and ``z``."""
        p = object.__new__(cls)
        p.__dict__.update(n=n, x=x, z=z)
        return p

    @classmethod
    def identity(cls, n: int) -> "PauliString":
        return cls.from_masks(n, 0, 0)

    @classmethod
    def from_str(cls, text: str) -> "PauliString":
        try:
            axes = tuple(PauliAxis(c) for c in text)
        except ValueError as exc:
            raise UsageError(f"invalid Pauli string {text!r}") from exc
        return cls(axes)

    @classmethod
    def embed(cls, n: int, sites: Mapping[int, PauliAxis]) -> "PauliString":
        """All-identity string of length ``n`` with the given axes placed at ``sites``."""
        x = z = 0
        for q, a in sites.items():
            if not 0 <= q < n:
                raise UsageError(f"site {q} outside register of size {n}")
            x |= a.x_bit << q
            z |= a.z_bit << q
        return cls.from_masks(n, x, z)

    @property
    def axes(self) -> tuple[PauliAxis, ...]:
        return tuple(self)

    def __iter__(self):
        """The axes, qubit 0 first: ``PauliString(p)`` and ``ErrorFrame(p)`` read p's."""
        return map(PauliAxis, str(self))

    def __len__(self) -> int:
        return self.n

    def __str__(self) -> str:
        return mask_text(self.n, self.x, self.z)

    def matrix(self) -> np.ndarray:
        """Dense matrix in little-endian qubit order (qubit 0 = low index bit)."""
        m = np.array([[1]], dtype=complex)
        for a in self.axes:
            m = np.kron(a.matrix(), m)
        return m


def commutes(p: PauliString, q: PauliString) -> bool:
    """True iff the number of sites where both are non-I and different is even."""
    if len(p) != len(q):
        raise UsageError(f"length mismatch: {len(p)} vs {len(q)}")
    return not ((p.x & q.z) ^ (p.z & q.x)).bit_count() & 1


class ErrorFrame(PauliString):
    """Byproduct-operator frame: the known Pauli flips, a Pauli string up to global phase.

    ``key`` is the frame's integer key 1 << 2n | z << n | x, computed at most
    once per frame; its leading bit tells registers of different sizes apart.
    """

    key = functools.cached_property(lambda self: 1 << 2 * self.n | self.z << self.n | self.x)
    byproduct = property(lambda self: self)  # the string to apply: the frame itself

    @classmethod
    def from_masks(cls, n: int, x: int, z: int) -> "ErrorFrame":
        """The frame with masks (x, z) from the frame table, so one serves every caller."""
        if (x | z) >> n:  # such masks would make another register's key
            raise UsageError(f"masks ({x}, {z}) outside register of size {n}")
        return frame_of_key(1 << 2 * n | z << n | x)

    def updated(self, correction: PauliString) -> "ErrorFrame":
        """Frame after the physical state picked up ``correction``: the product, up to phase."""
        if len(correction) != self.n:
            raise UsageError(f"length mismatch: {len(correction)} vs {self.n}")
        return ErrorFrame.from_masks(self.n, correction.x ^ self.x, correction.z ^ self.z)


@functools.lru_cache(maxsize=4096)
def frame_of_key(key: int) -> ErrorFrame:
    """The frame table: the one frame whose ``key`` is ``key``; frames are immutable."""
    n = (key.bit_length() - 1) >> 1
    mask = ~(-1 << n)
    frame = object.__new__(ErrorFrame)
    frame.__dict__.update(n=n, x=key & mask, z=key >> n & mask, key=key)
    return frame


def frame_conjugate_direction(frame: ErrorFrame, target: PauliString) -> int:
    """+1 if the frame commutes with ``target``, -1 if it anticommutes.

    -1 tells the feedback controller to swap the roles of the two
    Bell-type measurement outcomes (the time direction is inverted).
    """
    return 1 if commutes(frame, target) else -1
