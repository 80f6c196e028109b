import bisect
from enum import Enum

import numpy as np
import pytest

from mfsim.feedback import _level, _pair_record
from mfsim.harness import haar_random_amplitudes
from mfsim.loss import _PAULI_EIGENVALUES, LossConfig
from mfsim.statevec import (
    RegisterLayout,
    StateVector,
    _apply_pauli_sum,
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


def reference_rotation(state, pair, k, l, t, policy, frame, rng, loss=None):
    """A rotation as a running product of eigenvalue phases, one multiply per rotating round.

    Walks the cached levels of ``t`` through their round tables, not their
    rows: a Pauli branch (``pauli_powers``) adds its power of i and XORs its
    flip code, any other multiplies its four phases into d_j, and the power and
    code are folded in once at the end.  Returns (state, frame key, outcomes,
    closed), with the frame key 1 << 2n | z << n | x as ``realize_v_kl`` keeps it.
    """
    n, (a, b) = state.n_qubits, pair
    keys, swap, stack = _pair_record(n, a, b, k, l)
    key = 1 << 2 * n | frame.byproduct.z << n | frame.byproduct.x
    sign = -1 if (key & swap).bit_count() & 1 else 1
    loss = loss or LossConfig()
    level = _level(t, policy.mode, loss.key)
    d = [0.25 + 0j] * 4
    power = pauli = 0
    outcomes = []
    for _ in range(policy.max_rounds):
        if level is None:
            break
        table = level.table
        i = bisect.bisect_right(table.cumulative, rng.random())
        branch, g = table.branches[i], table.pauli_powers[i]
        code = branch.flips[0] + 2 * branch.flips[1]
        if g is None:
            d = [x * p for x, p in zip(d, table.phases[i].tolist())]
        else:
            power, pauli = power + g, pauli ^ code
        key ^= keys[code] if code else 0
        outcomes.append(branch.label)
        if branch.direction is not None:
            closes = sign * branch.direction == (1 if level.residual > 0 else -1)
            level = None if closes else _level(level.residual + level.residual, policy.mode,
                                               loss.key)
    if power & 3 or pauli:
        d = [x * f for x, f in zip(d, _PAULI_EIGENVALUES[pauli, power & 3].tolist())]
    d0, d1, d2, d3 = d
    state = _apply_pauli_sum(state, stack, (d0 + d1 + d2 + d3, d0 - d1 + d2 - d3,
                                            d0 + d1 - d2 - d3, d0 - d1 - d2 + d3))
    return state, key, outcomes, level is None


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
