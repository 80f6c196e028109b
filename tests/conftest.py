import bisect
import functools
from enum import Enum

import numpy as np
import pytest

import mfsim.harness
import mfsim.loss
import mfsim.pauli
import mfsim.statevec
from mfsim.compiler import HamiltonianSpec, PairTerm
from mfsim.feedback import reduce_angle
from mfsim.harness import haar_random_amplitudes
from mfsim.loss import LossConfig, round_branches
from mfsim.pauli import PauliAxis, PauliString, frame_conjugate_direction
from mfsim.statevec import (
    RegisterLayout,
    StateVector,
    _pauli_stack,
    apply_pauli_string,
    apply_two_qubit,
)

# The module-level caches, by (module, name): physics and pure functions that
# every config shares.  What a config compiles lives in its ``Program`` and goes
# with it.  A test that scans the package fails when a cache is missing here.
MODULE_CACHES = (
    (mfsim.pauli, "frame_of_key"),
    (mfsim.harness, "_draw_block"),
    (mfsim.harness, "_seed_block"),
    (mfsim.harness, "_seed_words"),
    (mfsim.loss, "_outcome_stack"),
    (mfsim.statevec, "_subset_index"),
)


def clear_module_caches():
    """Empty every cache in ``MODULE_CACHES``, so the next trajectory builds them again.

    A config's compiled rotations, levels, tables and rows are not here: they
    live in its ``Program``, and a fresh ``ProtocolConfig`` or ``Program``
    starts cold.
    """
    for module, name in MODULE_CACHES:
        getattr(module, name).cache_clear()


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


def assert_equal_up_to_power_of_i(got, want, atol):
    """Assert that ``got`` is ``want`` times exactly one of 1, i, -1, -i, entrywise within ``atol``.

    ``realize_v_kl`` keeps a state up to the power of i that its branch forms
    drop; any other phase, or any other change, fails.
    """
    errors = [np.abs(got.amplitudes - phase * want.amplitudes).max() for phase in (1, 1j, -1, -1j)]
    assert sum(e <= atol for e in errors) == 1, errors


def sign_projectors(axes):
    """The stack (1 +- s_k)/2 (x) (1 +- s_l)/2 for ``axes`` = (k, l), first atom low bit.

    P_j has sign bit j & 1 on the first atom and j >> 1 on the second.
    """
    k, l = ([(np.eye(2) + s * a.matrix()) / 2 for s in (1, -1)] for a in axes)
    return np.array([np.kron(pl, pk) for pl in l for pk in k])


def form_phases(forms):
    """The (B, 4) eigenvalues of i^g X^f e^{i theta XX} on ``sign_projectors``' P_j per form.

    X^f1 (x) X^f2 has sign (-1)^|f & j| on P_j, and XX the sign of f = 3.
    """
    signs = np.array([[(-1) ** (f & j).bit_count() for j in range(4)] for f in range(4)])
    return np.array([1j ** g * signs[f] * np.exp(1j * theta * signs[3])
                     for theta, g, f in forms]).reshape(-1, 4)


# I, X (x) 1, 1 (x) X and XX: string c is X^(c & 1) (x) X^(c >> 1), as a flip code reads
XX_STRINGS = [kron_le(X if c & 1 else I2, X if c & 2 else I2) for c in range(4)]


def rot_xx(t):
    xx = kron_le(X, X)
    return np.cos(t) * np.eye(4) + 1j * np.sin(t) * xx


def embedded_state(data_amp, layout):
    """Full-register state with the data amplitudes on the low bits, rest |0>."""
    full = np.zeros(1 << layout.n_qubits, dtype=complex)
    full[: data_amp.size] = data_amp
    return StateVector(full)


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


def pair_strings(a, b, k, l, n=None):
    """I, s_k, s_l and s_k s_l with s_k on site a and s_l on site b, read from their text.

    They act on ``n`` qubits, by default the fewest that hold both sites.
    """
    def text(sites):
        return "".join(sites.get(q, PauliAxis.I).value for q in range(n or max(a, b) + 1))

    return [PauliString.from_str(text(s)) for s in ({}, {a: k}, {b: l}, {a: k, b: l})]


def pair_masks(a, b, k, l):
    """The (x, z) masks of I, s_k, s_l and s_k s_l with s_k on site a and s_l on site b."""
    return tuple((p.x, p.z) for p in pair_strings(a, b, k, l))


def applier_arrays(apply):
    """The arrays a kept rotation operator reads: a dense matrix, or coefficients, rows, phases.

    A kept operator is the bound ``dot`` of its matrix or ``statevec._gather_pair``
    bound to its coefficients and its pair's gather rows.
    """
    return (apply.__self__,) if hasattr(apply, "__self__") else apply.args


def four_string_sum(state, masks, coeffs):
    """sum_r coeffs[r] P_r psi over the four strings of ``masks``: a gather of every row."""
    index, phase = _pauli_stack(state.n_qubits, masks)
    terms = state.amplitudes[index]
    terms *= phase
    return StateVector(np.asarray(coeffs).dot(terms))


@functools.cache
def _table(eps, loss):
    return round_branches(eps, loss)


def reference_rotation(state, pair, k, l, t, policy, frame, rng, loss=None):
    """A rotation as a running product of the drawn branches' dense unitaries K / sqrt(w).

    Walks the residual's doubling chain with its own tables, reads each
    branch's operator from ``kraus`` (never from its form) and multiplies the
    4x4 unitaries in the XX picture; their coefficients on I, X (x) 1, 1 (x) X
    and XX are those of I, s_k, s_l and s_k s_l, applied as ``four_string_sum``
    over ``pair_masks``.  Each branch multiplies the frame by its byproduct
    string (``PauliString.updated``), and the frame's commutation with s_k s_l
    picks the sign.  Returns (state, frame, outcomes, closed).
    """
    strings = pair_strings(*pair, k, l, state.n_qubits)
    masks = [(p.x, p.z) for p in strings]
    sign = frame_conjugate_direction(frame, strings[3])
    loss = loss or LossConfig()
    # reduce_angle's None, a multiple of pi, reads as a closed residual 0.0
    residual, product, outcomes = reduce_angle(t) or 0.0, np.eye(4, dtype=complex), []
    for _ in range(policy.max_rounds):
        if abs(residual) <= 1e-12:
            break
        table = _table(policy.eps_for(abs(residual)), loss)
        i = bisect.bisect_right(table.cumulative, rng.random())
        branch, kraus = table.branches[i], table.kraus[i]
        weight = np.trace(kraus.conj().T @ kraus).real / 4
        product = kraus / np.sqrt(weight) @ product
        frame = frame.updated(strings[branch.flips[0] + 2 * branch.flips[1]])
        outcomes.append(branch.label)
        if branch.direction is not None:
            closes = sign * branch.direction == (1 if residual > 0 else -1)
            residual = 0.0 if closes else reduce_angle(residual + residual) or 0.0
    coeffs = [np.trace(s @ product) / 4 for s in XX_STRINGS]
    state = four_string_sum(state, masks, coeffs)
    return state, frame, outcomes, abs(residual) <= 1e-12


def random_hamiltonian(rng, n: int, max_terms: int = 5) -> HamiltonianSpec:
    """1 to ``max_terms`` terms on n qubits, each on two random sites with one of the nine axis pairs."""
    terms = []
    for _ in range(rng.integers(1, max_terms + 1)):
        a, b = rng.choice(n, size=2, replace=False)
        axes = tuple(PauliAxis("XYZ"[i]) for i in rng.integers(0, 3, size=2))
        terms.append(PairTerm((int(a), int(b)), axes, float(rng.uniform(-1.5, 1.5))))
    return HamiltonianSpec(n, terms)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
