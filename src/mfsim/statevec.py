"""Dense complex state-vector engine for small registers.

Qubit ordering is little-endian everywhere: qubit 0 is the least significant
bit of the amplitude index.  For a two-qubit operator acting on qubits
``(a, b)`` the 4x4 matrix is indexed by ``bit_a + 2 * bit_b``, i.e. the first
listed qubit is the low bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import FrozenValue, ResourceError, UsageError, Value
from .pauli import _AXIS_MATRICES, PauliString

DEFAULT_QUBIT_CAP = 12

_UNITARY_ATOL = 1e-12
_BASIS_ATOL = 1e-10


@dataclass(init=False, repr=False, eq=False)
class RegisterLayout(FrozenValue):
    """A register's size, counted as data qubits, then one backup per data qubit, then photon modes.

    Photon-mode qubits live in the single-excitation subspace with
    |0> = V (vacuum or V polarization) and |1> = H.
    """

    n_qubits: int

    def __init__(self, n_qubits: int):
        self.__dict__["n_qubits"] = n_qubits

    @classmethod
    def build(cls, n_data: int, with_backup: bool = False, n_photons: int = 2) -> "RegisterLayout":
        """Standard layout: data qubits first, then backups, then photon modes."""
        return cls(n_data * (2 if with_backup else 1) + n_photons)


@dataclass(init=False, repr=False, eq=False, slots=True)
class StateVector(Value):
    """Normalized amplitudes over ``n_qubits`` qubits, read from their length 2^n_qubits."""

    amplitudes: np.ndarray
    n_qubits: int = field(init=False)

    def __init__(self, amplitudes: np.ndarray):
        self.amplitudes = amplitudes = np.asarray(amplitudes, dtype=complex)
        shape = amplitudes.shape
        dim = shape[0] if len(shape) == 1 else 0
        if dim < 2 or dim & (dim - 1):
            raise UsageError(f"amplitude vector has shape {shape}, expected (2^n,) with n >= 1")
        self.n_qubits = dim.bit_length() - 1

    def __eq__(self, other):
        """Equal sizes and equal amplitudes, entry for entry; a state stays unhashable."""
        if not isinstance(other, StateVector):
            return NotImplemented
        return (self.n_qubits == other.n_qubits
                and np.array_equal(self.amplitudes, other.amplitudes))

    @classmethod
    def _wrap(cls, amplitudes: np.ndarray, n_qubits: int) -> "StateVector":
        """A state around a complex array this module built: no copy and no shape check."""
        state = object.__new__(cls)
        state.amplitudes, state.n_qubits = amplitudes, n_qubits
        return state

    def norm_squared(self) -> float:
        return float(np.vdot(self.amplitudes, self.amplitudes).real)

    def prob_qubit_one(self, qubit: int) -> float:
        """Probability of finding ``qubit`` in |1>."""
        branch = self.amplitudes[_subset_index(self.n_qubits, (qubit,))[1]]
        return float(np.vdot(branch, branch).real)


def _check_unitary(u: np.ndarray, dim: int, name: str = "operator") -> np.ndarray:
    u = np.asarray(u, dtype=complex)
    if u.shape != (dim, dim):
        raise UsageError(f"{name} has shape {u.shape}, expected ({dim}, {dim})")
    # np.allclose's entrywise test |U^dag U - 1| <= atol + 1e-5 |1|, without its overhead;
    # a NaN entry compares false, so it fails as there.  U^dag U in einsum's own loops, as
    # ``_apply``'s products are
    eye = np.eye(dim)
    if not (abs(np.einsum("ki,kj->ij", u.conj(), u) - eye)
            <= _UNITARY_ATOL * dim * 10 + 1e-5 * eye).all():
        raise UsageError(f"{name} is not unitary")
    return u


@functools.lru_cache(maxsize=256)
def _subset_index(n: int, qubits: tuple[int, ...]) -> np.ndarray:
    """Read-only (2^k, 2^(n-k)) amplitude indices; row j lists those where ``qubits`` read j.

    The first listed qubit is the low bit of j; columns run over the other
    qubits.  An invalid qubit list raises before it is cached, so on every call.
    """
    k = len(qubits)
    if len(set(qubits)) != k or not all(0 <= q < n for q in qubits):
        raise UsageError(f"qubits {qubits} are not distinct qubits of a {n}-qubit register")
    order = list(qubits) + [q for q in range(n) if q not in qubits]
    local = np.arange(1 << n).reshape(-1, 1 << k).T  # local index j + 2^k * column
    idx = sum(((local >> b) & 1) << q for b, q in enumerate(order))
    idx.flags.writeable = False
    return idx


def _apply(state: StateVector, qubits: tuple[int, ...], u: np.ndarray) -> StateVector:
    """``u`` on ``qubits``, unchecked: for the gates this package builds itself.

    The product is ``np.einsum``'s, without ``optimize``, not ``@``: these 2x2 to 4x4
    products would be the only level-3 BLAS calls of a ``simulate`` run (``@`` on a
    matrix is OpenBLAS's ``zgemm``), and loading that kernel raised the run's peak RSS
    by 0.2-0.35 MB (2-CPU Intel Xeon VM).  numpy's own loops sum in a fixed order, so no
    BLAS library or thread count moves a bit of the photon model's round tables.
    """
    idx = _subset_index(state.n_qubits, qubits)
    out = np.empty_like(state.amplitudes)
    out[idx] = np.einsum("ij,jm->im", u, state.amplitudes[idx])
    return StateVector._wrap(out, state.n_qubits)


def _pauli_stack(n: int, masks: tuple[tuple[int, int], ...]) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (m, 2^n) gather indices and phases of the Pauli strings with ``masks``.

    Row r is P_r = sigma(x_r, z_r) = i^|x_r z_r| X^x_r Z^z_r for masks[r] =
    (x_r, z_r), the form of ``pauli.PauliString``:
    (P_r psi)[i] = phase[r, i] psi[index[r, i]] with index = i ^ x_r and
    phase = i^|x_r z_r| (-1)^|index & z_r| (|.| a popcount).  A row takes
    24 * 2^n bytes, 96 KB at the 12-qubit cap.
    """
    x, z = (np.array(m).reshape(-1, 1) for m in zip(*masks))
    index = np.arange(1 << n) ^ x
    parity = index & z
    for shift in (32, 16, 8, 4, 2, 1):  # fold the popcount's parity into bit 0
        parity ^= parity >> shift
    phase = (1 - 2 * (parity & 1)) * np.array(
        [[(1, 1j, -1, -1j)[(xr & zr).bit_count() % 4]] for xr, zr in masks], dtype=complex)
    for a in (index, phase):
        a.flags.writeable = False
    return index, phase


# A register of at most this many qubits applies a pair's Pauli sum as one dense
# 2^n x 2^n matrix-vector product; a larger one gathers the sum's two strings.
# Per application (best of 60 timeit runs on a 2-vCPU Intel Xeon VM), the
# product took 0.9-1.2 us against 1.5-1.8 us for the gather at 2-5 qubits,
# and lost at 6 (3.2 against 1.9 us) and 7 (5.4 against 2.7 us).
# The cap is 4, not 5, so that a cached matrix takes at most 4 KB.
DENSE_PAIR_QUBITS = 4


def _pauli_pairs(n: int, masks: tuple[tuple[int, int], ...]) -> tuple:
    """The strings I, A, B, AB of ``masks`` (in that order) as the row pairs (I, AB) and (A, B).

    Up to ``DENSE_PAIR_QUBITS`` qubits a pair is the read-only (2, 2^n, 2^n)
    stack of its dense matrices (64 * 4^n bytes for both pairs, 16 KB at 4
    qubits); past it, a pair is its two rows of ``_pauli_stack``'s read-only
    indices and phases (96 * 2^n bytes for both, 384 KB at the 12-qubit cap).
    """
    index, phase = _pauli_stack(n, tuple(masks[r] for r in (0, 3, 1, 2)))
    if n > DENSE_PAIR_QUBITS:
        return (index[:2], phase[:2]), (index[2:], phase[2:])
    dense = np.zeros((4, 1 << n, 1 << n), dtype=complex)
    dense[np.arange(4).reshape(-1, 1), np.arange(1 << n), index] = phase
    dense.flags.writeable = False
    return dense[:2], dense[2:]


def _pair_operator(pairs: tuple, flips: int, c: complex, s: complex):
    """The callable that maps a register's amplitudes to c P_flips psi + s P_(flips ^ 3) psi.

    ``pairs`` is ``_pauli_pairs(n, masks)``.  P_f is string f of I, A, B, AB;
    P_f and P_(f ^ 3) form pair (f ^ f >> 1) & 1, P_f first when f < 2.  A
    dense pair gives the bound ``dot`` of the read-only matrix, its two scaled
    matrices added in one ``ndarray.dot``; a gathered pair gives
    ``_gather_pair`` bound to the read-only coefficients and the pair's
    indices and phases.  The caller wraps the new amplitudes in its state.
    """
    coeffs = np.array((c, s) if flips < 2 else (s, c))
    coeffs.flags.writeable = False
    pair = pairs[(flips ^ flips >> 1) & 1]
    if isinstance(pair, tuple):
        return functools.partial(_gather_pair, coeffs, *pair)
    op = coeffs.dot(pair.reshape(2, -1)).reshape(pair.shape[1:])
    op.flags.writeable = False
    return op.dot


def _gather_pair(coeffs: np.ndarray, index: np.ndarray, phase: np.ndarray,
                 amplitudes: np.ndarray) -> np.ndarray:
    """The new amplitudes: two strings' gathered rows times their phases, summed with ``coeffs``."""
    terms = amplitudes[index]
    terms *= phase
    return coeffs.dot(terms)


def apply_local(state: StateVector, qubit: int, u: np.ndarray) -> StateVector:
    """Apply a 2x2 unitary to one qubit."""
    return _apply(state, (qubit,), _check_unitary(u, 2))


def apply_two_qubit(state: StateVector, qubits: tuple[int, int], u: np.ndarray) -> StateVector:
    """Apply a 4x4 unitary on two qubits (first listed qubit is the low bit)."""
    return _apply(state, tuple(qubits), _check_unitary(u, 4))


def measure(
    state: StateVector,
    qubits: Sequence[int],
    operators: Sequence[np.ndarray],
    rng: np.random.Generator,
) -> tuple[int, StateVector, float]:
    """Measure ``qubits`` with a complete set of Kraus operators: keep one branch.

    ``operators`` is a (B, 2^k, 2^k) stack with sum_i K_i^dag K_i = 1 (first
    listed qubit the low bit), e.g. orthogonal projectors.  One uniform number
    is compared with the running sum of the weights ||K_i psi||^2 in operator
    order.  Returns (outcome index, renormalized post-measurement state,
    outcome probability).
    """
    kraus = np.asarray(operators, dtype=complex)
    dim = 1 << len(qubits)
    complete = kraus.shape[1:] == (dim, dim) and np.allclose(
        np.einsum("bki,bkj->ij", kraus.conj(), kraus), np.eye(dim), atol=_BASIS_ATOL)
    if not complete:
        raise UsageError(f"operators of shape {kraus.shape} are not a complete set on {qubits}")
    idx = _subset_index(state.n_qubits, tuple(qubits))
    branches = kraus @ state.amplitudes[idx]
    probs = np.einsum("bij,bij->b", branches.conj(), branches).real
    if abs(probs.sum() - state.norm_squared()) > _BASIS_ATOL:
        raise UsageError("branch weights do not sum to the state norm")
    r = rng.random() * probs.sum()
    index = min(int(np.searchsorted(np.cumsum(probs), r, side="right")), len(probs) - 1)
    out = np.empty_like(state.amplitudes)
    out[idx] = branches[index] / np.sqrt(probs[index])
    return index, StateVector._wrap(out, state.n_qubits), float(probs[index])


def measure_and_reset(
    state: StateVector,
    qubits: Sequence[int],
    basis: Sequence[np.ndarray],
    rng: np.random.Generator,
) -> tuple[int, StateVector, float]:
    """Measure ``qubits`` in an orthonormal basis (one vector per row), then reset them to |0...0>.

    One ``measure`` over the Kraus operators |0...0><v_i|, which are complete
    exactly when the square basis is orthonormal: outcome i has probability
    ||<v_i|psi>||^2 and leaves the measured qubits in |0...0> and the rest in
    the normalized <v_i|psi>.  Returns (outcome index, reset state, outcome
    probability).
    """
    basis = np.asarray(basis, dtype=complex)
    if basis.shape != (1 << len(qubits),) * 2:
        raise UsageError(f"basis of shape {basis.shape} is not square on {len(qubits)} qubits")
    kraus = np.zeros((len(basis),) * 3, dtype=complex)
    kraus[:, 0, :] = basis.conj()
    return measure(state, qubits, kraus, rng)


def expm_i_hermitian(h: np.ndarray, t: float) -> np.ndarray:
    """exp(i t H) for Hermitian H via eigendecomposition."""
    h = np.asarray(h, dtype=complex)
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * t * w)) @ v.conj().T


def exact_evolution(h, t: float) -> np.ndarray:
    """Exact unitary exp(i t H) for a Hamiltonian given as weighted Pauli terms.

    ``h`` is a HamiltonianSpec (anything with ``n_qubits`` and ``to_matrix()``).
    """
    _check_cap(h.n_qubits)
    return expm_i_hermitian(h.to_matrix(), t)


def _check_cap(n: int) -> int:
    """``n``, or ResourceError past the dense cap of DEFAULT_QUBIT_CAP qubits."""
    if n > DEFAULT_QUBIT_CAP:
        raise ResourceError(f"register of {n} qubits exceeds the dense cap of {DEFAULT_QUBIT_CAP}")
    return n


# Taylor terms per step of ``apply_evolution``: a step of norm at most 1 leaves
# a remainder of at most sum_(k > 20) 1/k! < 1/20! / 20, about 2e-20.
_TAYLOR_TERMS = 20


def _vector_first(gathers: float, rows: int, n: int, dense_products: float) -> bool:
    """Whether ``gathers`` gathers of ``rows`` strings cost less than ``dense_products`` dense ones.

    Costs count amplitude reads, about 4 ns each: a gather reads rows * 2^n, plus 2^9 for its
    numpy calls, and a product or eigendecomposition of 2^n x 2^n matrices 8^n / 16 (best of
    timeit runs on a 2-vCPU Intel Xeon VM).  Under 2^22 reads, about 16 ms, the gathers run
    anyway: they keep LAPACK, whose first ``eigh`` maps about 1.1 MB, out of the process.
    """
    return gathers * ((rows << n) + 512) <= max(dense_products * 8.0**n / 16, 2**22)


def apply_evolution(h, t: float, amplitudes: np.ndarray) -> np.ndarray:
    """New amplitudes exp(i t H) psi for ``h`` as ``exact_evolution`` takes it; psi is not changed.

    H is the sum of ``h.terms``, those on equal strings merged, as one ``_pauli_stack`` gather.
    The truncated Taylor series (Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488 (2011)) takes
    s = ceil(|t| sum |c|) steps of norm at most 1, each summing _TAYLOR_TERMS terms.  Where its
    gathers cost more than the eigendecomposition (``_vector_first``), this is
    ``exact_evolution(h, t) @ psi``.  ResourceError past the register cap, before any allocation.
    """
    n = _check_cap(h.n_qubits)
    merged = {}
    for term in h.terms:
        p = PauliString.embed(n, dict(zip(term.sites, term.axes)))
        merged[p.x, p.z] = merged.get((p.x, p.z), 0.0) + term.coeff
    merged = {masks: c for masks, c in merged.items() if c}
    steps = abs(t) * sum(map(abs, merged.values()))
    if not _vector_first(steps * _TAYLOR_TERMS, len(merged), n, 1):
        return exact_evolution(h, t) @ amplitudes
    out = np.array(amplitudes, dtype=complex)
    if not steps:  # t = 0, or no term left
        return out
    steps = math.ceil(steps)
    index, phase = _pauli_stack(n, tuple(merged))
    phase = phase * (1j * t / steps * np.array(list(merged.values()))).reshape(-1, 1)
    for _ in range(steps):
        term = out
        for k in range(1, _TAYLOR_TERMS + 1):
            term = (term[index] * phase).sum(axis=0)  # numpy's own sum: no BLAS thread splits it
            term /= k
            out += term
    return out


def apply_pauli_string(state: StateVector, p: PauliString) -> StateVector:
    """Apply a Pauli string as local gates, one per non-identity letter."""
    if len(p) != state.n_qubits:
        raise UsageError("Pauli string length does not match register")
    out = state
    for q, letter in enumerate(p.text):  # the string's cached text, not PauliAxis members
        if letter != "I":
            out = apply_local(out, q, _AXIS_MATRICES[letter])
    return out
