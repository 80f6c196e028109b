"""Dense complex state-vector engine for small registers.

Qubit ordering is little-endian everywhere: qubit 0 is the least significant
bit of the amplitude index.  For a two-qubit operator acting on qubits
``(a, b)`` the 4x4 matrix is indexed by ``bit_a + 2 * bit_b``, i.e. the first
listed qubit is the low bit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import ResourceError, UsageError
from .pauli import PauliString

DEFAULT_QUBIT_CAP = 12

_UNITARY_ATOL = 1e-12
_PROJECTOR_ATOL = 1e-10


class QubitRole(Enum):
    DATA_A = "data_a"
    BACKUP_B = "backup_b"
    PHOTON_MODE = "photon_mode"


@dataclass(frozen=True)
class RegisterLayout:
    """Role assignment for every qubit plus the data<->backup pairing.

    Photon-mode qubits live in the single-excitation subspace with
    |0> = V (vacuum or V polarization) and |1> = H.
    """

    roles: tuple[QubitRole, ...]
    backup_of: dict[int, int] = field(default_factory=dict)  # data qubit -> backup qubit

    def __post_init__(self):
        object.__setattr__(self, "roles", tuple(self.roles))
        for a, b in self.backup_of.items():
            if self.roles[a] is not QubitRole.DATA_A:
                raise UsageError(f"qubit {a} paired as data but has role {self.roles[a]}")
            if self.roles[b] is not QubitRole.BACKUP_B:
                raise UsageError(f"qubit {b} paired as backup but has role {self.roles[b]}")

    @property
    def n_qubits(self) -> int:
        return len(self.roles)

    @property
    def photon_qubits(self) -> list[int]:
        return [i for i, r in enumerate(self.roles) if r is QubitRole.PHOTON_MODE]

    @classmethod
    def build(cls, n_data: int, with_backup: bool = False, n_photons: int = 2) -> "RegisterLayout":
        """Standard layout: data qubits first, then backups, then photon modes."""
        roles = [QubitRole.DATA_A] * n_data
        backup_of = {}
        if with_backup:
            for i in range(n_data):
                backup_of[i] = n_data + i
            roles += [QubitRole.BACKUP_B] * n_data
        roles += [QubitRole.PHOTON_MODE] * n_photons
        return cls(tuple(roles), backup_of)


@dataclass
class StateVector:
    """Normalized amplitudes over the register described by ``layout``."""

    amplitudes: np.ndarray
    layout: RegisterLayout

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        dim = 1 << self.layout.n_qubits
        if self.amplitudes.shape != (dim,):
            raise UsageError(
                f"amplitude vector has shape {self.amplitudes.shape}, expected ({dim},)"
            )

    @property
    def n_qubits(self) -> int:
        return self.layout.n_qubits

    def norm_squared(self) -> float:
        return float(np.vdot(self.amplitudes, self.amplitudes).real)

    @classmethod
    def computational_basis(cls, layout: RegisterLayout, index: int = 0) -> "StateVector":
        dim = 1 << layout.n_qubits
        amp = np.zeros(dim, dtype=complex)
        amp[index] = 1.0
        return cls(amp, layout)

    def prob_qubit_one(self, qubit: int) -> float:
        """Probability of finding ``qubit`` in |1>."""
        t = self.amplitudes.reshape([2] * self.n_qubits)
        ax = self.n_qubits - 1 - qubit
        sl = [slice(None)] * self.n_qubits
        sl[ax] = 1
        branch = t[tuple(sl)]
        return float(np.vdot(branch, branch).real)

    def dump(self, threshold: float = 1e-14) -> list[list]:
        """Debug dump: list of [basis_index, re, im] triples above ``threshold``."""
        out = []
        for i, a in enumerate(self.amplitudes):
            if abs(a) > threshold:
                out.append([i, float(a.real), float(a.imag)])
        return out

    def dump_json(self, threshold: float = 1e-14) -> str:
        return json.dumps(self.dump(threshold))


def _check_unitary(u: np.ndarray, dim: int) -> np.ndarray:
    u = np.asarray(u, dtype=complex)
    if u.shape != (dim, dim):
        raise UsageError(f"operator has shape {u.shape}, expected ({dim}, {dim})")
    if not np.allclose(u.conj().T @ u, np.eye(dim), atol=_UNITARY_ATOL * dim * 10):
        raise UsageError("operator is not unitary")
    return u


def _apply_stack(amplitudes: np.ndarray, qubits: Sequence[int], ops: np.ndarray) -> np.ndarray:
    """Apply each operator of a (B, 2^k, 2^k) stack on ``qubits``; returns (B, 2^n) amplitudes.

    First listed qubit is the low bit of the operator index.
    """
    n = amplitudes.size.bit_length() - 1
    k = len(qubits)
    if len(set(qubits)) != k or not all(0 <= q < n for q in qubits):
        raise UsageError(f"qubits {tuple(qubits)} are not distinct qubits of a {n}-qubit register")
    mk = ops.reshape([len(ops)] + [2] * (2 * k))
    t = amplitudes.reshape([2] * n)
    # Axis for matrix bit j (significance j) is position k-1-j of the reshaped block.
    in_axes = [n - 1 - q for q in reversed(qubits)]
    t = np.tensordot(mk, t, axes=(list(range(k + 1, 2 * k + 1)), in_axes))
    t = np.moveaxis(t, list(range(1, k + 1)), [ax + 1 for ax in in_axes])
    return t.reshape(len(ops), -1)


def apply_local(state: StateVector, qubit: int, u: np.ndarray) -> StateVector:
    """Apply a 2x2 unitary to one qubit."""
    u = _check_unitary(u, 2)
    return StateVector(_apply_stack(state.amplitudes, (qubit,), u[None])[0], state.layout)


def apply_two_qubit(state: StateVector, qubits: tuple[int, int], u: np.ndarray) -> StateVector:
    """Apply a 4x4 unitary on two qubits (first listed qubit is the low bit)."""
    u = _check_unitary(u, 4)
    return StateVector(_apply_stack(state.amplitudes, qubits, u[None])[0], state.layout)


def draw_branch(
    state: StateVector,
    qubits: Sequence[int],
    operators: Sequence[np.ndarray],
    rng: np.random.Generator,
) -> tuple[int, StateVector, np.ndarray]:
    """Apply each operator on ``qubits`` and keep one branch, drawn by its squared norm.

    The operators are 2^k x 2^k matrices, first listed qubit the low bit.  One
    uniform number is compared with the running sum of the branch weights
    ||K_i psi||^2 in operator order.  Returns (branch index, renormalized
    branch, weights of all branches).
    """
    branches = _apply_stack(state.amplitudes, qubits, np.asarray(operators, dtype=complex))
    probs = np.einsum("ij,ij->i", branches.conj(), branches).real

    r = rng.random() * probs.sum()
    index = min(int(np.searchsorted(np.cumsum(probs), r, side="right")), len(probs) - 1)
    collapsed = branches[index] / np.sqrt(probs[index])
    return index, StateVector(collapsed, state.layout), probs


def measure(
    state: StateVector,
    qubits: Sequence[int],
    projectors: Sequence[np.ndarray],
    rng: np.random.Generator,
) -> tuple[int, StateVector, float]:
    """Projective measurement over a complete orthogonal projector set on ``qubits``.

    Returns (outcome index, renormalized collapsed state, outcome probability).
    """
    k = len(qubits)
    dim = 1 << k
    mats = [np.asarray(p, dtype=complex) for p in projectors]
    total = sum(mats)
    if not np.allclose(total, np.eye(dim), atol=_PROJECTOR_ATOL):
        raise UsageError("projectors do not sum to the identity on the measured subset")
    for i, p in enumerate(mats):
        if not np.allclose(p @ p, p, atol=_PROJECTOR_ATOL):
            raise UsageError(f"projector {i} is not idempotent")

    outcome, collapsed, probs = draw_branch(state, qubits, mats, rng)
    if abs(probs.sum() - state.norm_squared()) > _PROJECTOR_ATOL:
        raise UsageError("projector probabilities do not sum to the state norm")
    return outcome, collapsed, float(probs[outcome])


def measure_and_reset(
    state: StateVector,
    qubits: Sequence[int],
    basis: Sequence[np.ndarray],
    rng: np.random.Generator,
) -> tuple[int, StateVector, float]:
    """Measure ``qubits`` in an orthonormal basis (one vector per row), then reset them to |0...0>.

    The measurement runs through ``measure`` on the projectors |v_i><v_i|, so
    its checks validate the basis.  The reset is the unitary whose rows are
    the conjugated basis vectors with the observed one first; it maps v_i to
    |0...0>.  Returns (outcome index, reset state, outcome probability).
    """
    basis = np.asarray(basis, dtype=complex)
    index, collapsed, prob = measure(state, qubits, [np.outer(v, v.conj()) for v in basis], rng)
    reset = np.roll(basis, -index, axis=0).conj()
    emptied = _apply_stack(collapsed.amplitudes, qubits, reset[None])[0]
    return index, StateVector(emptied, state.layout), prob


def expm_i_hermitian(h: np.ndarray, t: float) -> np.ndarray:
    """exp(i t H) for Hermitian H via eigendecomposition."""
    h = np.asarray(h, dtype=complex)
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * t * w)) @ v.conj().T


def exact_evolution(h, t: float, qubit_cap: int = DEFAULT_QUBIT_CAP) -> np.ndarray:
    """Exact unitary exp(i t H) for a Hamiltonian given as weighted Pauli terms.

    ``h`` is a HamiltonianSpec (anything with ``n_qubits`` and ``to_matrix()``).
    """
    if h.n_qubits > qubit_cap:
        raise ResourceError(
            f"register of {h.n_qubits} qubits exceeds the dense cap of {qubit_cap}"
        )
    return expm_i_hermitian(h.to_matrix(), t)


def fidelity(a: StateVector, b: StateVector) -> float:
    """|<a|b>|^2, invariant under global phase of either argument."""
    if a.layout != b.layout:
        raise UsageError("fidelity requires matching register layouts")
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)


def apply_pauli_string(state: StateVector, p: PauliString) -> StateVector:
    """Apply a Pauli string as local gates (its global phase is applied too)."""
    if len(p) != state.n_qubits:
        raise UsageError("Pauli string length does not match register")
    out = state
    from .pauli import PauliAxis  # local import to avoid cycle at module load

    for q, axis in enumerate(p.axes):
        if axis is not PauliAxis.I:
            out = apply_local(out, q, axis.matrix())
    if p.phase_power:
        out = StateVector(out.amplitudes * (1j ** p.phase_power), out.layout)
    return out
