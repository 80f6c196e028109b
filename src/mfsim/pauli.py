"""Pauli strings up to global phase, as symplectic bit masks, one object per key.

A :class:`PauliString` is a tensor product of single-qubit Pauli operators,
up to a global phase.  It is stored in the symplectic form of Aaronson &
Gottesman (PRA 70, 052328 (2004)): bit q of the integer masks ``x`` and
``z`` says whether qubit q carries an X and a Z factor, with X = (1, 0),
Z = (0, 1) and Y = (1, 1), so products (up to phase) are XORs and
commutation is a popcount parity.  A string's ``key`` is 1 << 2n | z << n | x,
whose leading bit tells registers of different sizes apart; ``frame_of_key``,
the string table, serves the one string per key to ``from_masks``, and a
string renders its ``text`` at most once.  Only this module knows that
layout: ``xor_mask`` multiplies a key by the string, and a key's parity on
``anticommutation_mask`` is the symplectic product.  The byproduct-operator
frame of the measurement protocol is the Pauli string of its known flips, so
``ErrorFrame`` is a second name for the class.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping

import numpy as np

from .errors import FrozenValue, UsageError


class PauliAxis(Enum):
    I = "I"
    X = "X"
    Y = "Y"
    Z = "Z"

    __hash__ = object.__hash__  # identity, as equality is; the axes key a program's entries

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


@dataclass(init=False, repr=False, eq=False)
class PauliString(FrozenValue):
    """Tensor product of Pauli axes over a fixed-size register, held as x/z masks, up to phase.

    ``key`` and ``text`` (qubit 0 first, letter x + 2z of "IXZY") are each
    computed at most once per string.
    """

    n: int
    x: int
    z: int
    key = functools.cached_property(lambda self: 1 << 2 * self.n | self.z << self.n | self.x)
    text = functools.cached_property(lambda self: "".join(
        "IXZY"[(self.x >> q & 1) | (self.z >> q & 1) << 1] for q in range(self.n)))
    byproduct = property(lambda self: self)  # the string a frame applies: the frame itself
    xor_mask = property(lambda self: self.z << self.n | self.x)  # key ^ xor_mask: the product
    # the parity of (key & anticommutation_mask) is popcount((x1 & z2) ^ (z1 & x2)) mod 2
    anticommutation_mask = property(lambda self: self.x << self.n | self.z)

    def __init__(self, axes: Iterable[PauliAxis]):
        axes = tuple(axes)
        self.__dict__.update(n=len(axes), x=sum(a.x_bit << q for q, a in enumerate(axes)),
                             z=sum(a.z_bit << q for q, a in enumerate(axes)))

    @classmethod
    def from_masks(cls, n: int, x: int, z: int) -> "PauliString":
        """The string on ``n`` qubits with masks (x, z), from the string table: one per masks."""
        if (x | z) >> n:  # such masks would make another register's key
            raise UsageError(f"masks ({x}, {z}) outside register of size {n}")
        return frame_of_key(1 << 2 * n | z << n | x)

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
        return map(PauliAxis, self.text)

    def __len__(self) -> int:
        return self.n

    def __str__(self) -> str:
        return self.text

    def matrix(self) -> np.ndarray:
        """Dense matrix in little-endian qubit order (qubit 0 = low index bit)."""
        m = np.array([[1]], dtype=complex)
        for a in self.axes:
            m = np.kron(a.matrix(), m)
        return m

    def updated(self, correction: PauliString) -> PauliString:
        """Frame after the physical state picked up ``correction``: the product, up to phase."""
        if correction.n != self.n:
            raise UsageError(f"length mismatch: {correction.n} vs {self.n}")
        return frame_of_key(self.key ^ correction.xor_mask)


ErrorFrame = PauliString  # the byproduct-operator frame: the Pauli string of the known flips


@functools.lru_cache(maxsize=4096)
def frame_of_key(key: int) -> PauliString:
    """The string table: the one string whose ``key`` is ``key``; strings are immutable."""
    n = (key.bit_length() - 1) >> 1
    mask = ~(-1 << n)
    p = object.__new__(PauliString)
    p.__dict__.update(n=n, x=key & mask, z=key >> n & mask, key=key)
    return p


def commutes(p: PauliString, q: PauliString) -> bool:
    """True iff the number of sites where both are non-I and different is even."""
    if len(p) != len(q):
        raise UsageError(f"length mismatch: {len(p)} vs {len(q)}")
    return not (p.key & q.anticommutation_mask).bit_count() & 1


def frame_conjugate_direction(frame: PauliString, target: PauliString) -> int:
    """+1 if the frame commutes with ``target``, -1 if it anticommutes.

    -1 tells the feedback controller to swap the roles of the two
    Bell-type measurement outcomes (the time direction is inverted).
    """
    return 1 if commutes(frame, target) else -1
