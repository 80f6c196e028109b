from enum import Enum

import numpy as np
import pytest

from mfsim.harness import haar_random_amplitudes
from mfsim.statevec import (
    RegisterLayout,
    StateVector,
    apply_pauli_string,
    apply_two_qubit,
)

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
AXIS_MATS = {"I": I2, "X": X, "Y": Y, "Z": Z}


def kron_le(*ops):
    """Kronecker product in little-endian qubit order (first op = qubit 0)."""
    m = np.array([[1]], dtype=complex)
    for op in ops:
        m = np.kron(op, m)
    return m


def conjugation_unitary(k):
    """A one-qubit u with u X u^dag = s_k: the identity for X, diag(1, i) for Y, H for Z.

    KeyError for the identity axis, which no unitary conjugates X to.
    """
    return {"X": I2, "Y": np.diag([1.0, 1.0j]), "Z": H}[k.value]


def fidelity(a, b):
    """|<a|b>|^2 of two states, invariant under the global phase of either."""
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)


def sign_projectors(axes):
    """The stack (1 +- s_k)/2 (x) (1 +- s_l)/2 for ``axes`` = (k, l), first atom low bit.

    P_j has sign bit j & 1 on the first atom and j >> 1 on the second.
    """
    k, l = ([(np.eye(2) + s * a.matrix()) / 2 for s in (1, -1)] for a in axes)
    return np.array([np.kron(pl, pk) for pl in l for pk in k])


def rot_xx(t):
    xx = kron_le(X, X)
    return np.cos(t) * np.eye(4) + 1j * np.sin(t) * xx


def embedded_state(data_amp, layout):
    """Full-register state with the data amplitudes on the low bits, rest |0>."""
    full = np.zeros(1 << layout.n_qubits, dtype=complex)
    full[: data_amp.size] = data_amp
    return StateVector(full, layout)


def random_two_atom_state(rng, with_backup=False):
    layout = RegisterLayout.build(2, with_backup=with_backup)
    return layout, embedded_state(haar_random_amplitudes(2, rng), layout)


class RoundEffect(Enum):
    PLUS_ROTATION = "plus_rotation"
    MINUS_ROTATION = "minus_rotation"
    KNOWN_PAULI = "known_pauli"
    UNRESOLVED = "unresolved"


def classify_round_effect(
    state_before: StateVector,
    state_after: StateVector,
    pair: tuple[int, int],
    t_round: float,
    frame_delta,
) -> RoundEffect:
    """Identify what operation a round actually applied, by oracle comparison.

    ``frame_delta`` is the Pauli string the round's bookkeeping claims was
    picked up.  UNRESOLVED signals a bug in the round implementation.
    """
    threshold = 1.0 - 1e-9
    xx = np.kron(X, X)
    for effect, t in (
        (RoundEffect.PLUS_ROTATION, t_round),
        (RoundEffect.MINUS_ROTATION, -t_round),
    ):
        rot = np.cos(t) * np.eye(4) + 1j * np.sin(t) * xx
        cand = apply_two_qubit(state_before, pair, rot)
        if fidelity(cand, state_after) >= threshold:
            return effect
    cand = apply_pauli_string(state_before, frame_delta)
    if fidelity(cand, state_after) >= threshold:
        return RoundEffect.KNOWN_PAULI
    return RoundEffect.UNRESOLVED


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
