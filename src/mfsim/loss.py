"""Photon-loss channel, the backup-qubit protocol, and each round compiled to Kraus operators.

A lost photon is modeled as an environment measurement of its mode in the
computational {V, H} basis whose outcome is sampled but hidden from the
protocol; the mode is then emptied.  This keeps every trajectory a pure
state while reproducing the dephasing the loss induces on the protocol's
branch structure.

``round_branches`` compiles one round of this photon-level model into 4x4
Kraus operators on the atom pair, each a weighted unitary, so trajectories
evolve data qubits only and draw each round from the weights alone.  The
model runs once per loss config, at three eps, and checks itself at a fourth.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import astuple, dataclass
from typing import Optional

import numpy as np

from .emission import (
    BELL_STATES,
    PhotonEncoding,
    beamsplitter_measure,
    BeamSplitterOutcome,
    joint_emission,
    _require_vacuum,
)
from .errors import ProtocolError, UsageError
from .pauli import PauliAxis
from .statevec import RegisterLayout, StateVector, _apply, measure_and_reset

# Measurement bases, one vector per row: computational (one qubit, a mode pair)
# and sign {|+>, |->}.  The sampled model and the round tables both read them.
_E2, _E4 = np.eye(2), np.eye(4)
_SIGNS = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2)

# CNOT with the first listed qubit as control: the backup atom in ``photon_copy``.
CNOT_MATRIX = np.array(
    [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex
)


@dataclass(frozen=True)
class LossConfig:
    p_loss: float = 0.0
    encoding: PhotonEncoding = PhotonEncoding.POLARIZATION
    backup_enabled: bool = False
    key = functools.cached_property(astuple)  # the fields; a tuple hashes in C

    def __post_init__(self):
        if not 0.0 <= self.p_loss <= 1.0:
            raise UsageError(f"loss.p_loss must lie in [0, 1], got {self.p_loss}")
        if self.backup_enabled and self.encoding is not PhotonEncoding.POLARIZATION:
            raise UsageError("loss.backup_enabled requires loss.encoding 'polarization'")


def photon_copy(state: StateVector, atom_b: int, photon: int) -> StateVector:
    """Copy the backup atom's computational value onto the vacuum photon mode.

    |0>_B -> |0>_B |V>,  |1>_B -> |1>_B |H>; the backup keeps its state.
    """
    _require_vacuum(state, photon)
    return _apply(state, (atom_b, photon), CNOT_MATRIX)


def loss_channel(
    state: StateVector,
    photons: tuple[int, int],
    cfg: LossConfig,
    rng: np.random.Generator,
) -> tuple[StateVector, tuple[bool, bool]]:
    """Independently lose each photon with probability ``p_loss``.

    Returns the state and which of the two photons were lost; a lost mode is
    read by the environment in the {V, H} basis and emptied.
    """
    lost = []
    for q in photons:
        is_lost = bool(rng.random() < cfg.p_loss)
        lost.append(is_lost)
        if is_lost:
            _, state, _ = measure_and_reset(state, [q], _E2, rng)
    return state, (lost[0], lost[1])


@dataclass(frozen=True)
class RoundBranch:
    """What the controller records for one way a round can act on the atom pair.

    ``backup_round`` returns the record of the branch it drew, the row that
    ``round_branches`` stores for it.  ``label`` is the Bell outcome's value,
    or "loss" when the round lost a photon.  Branches that differ only in a
    hidden environment bit share their record.
    """

    label: str
    direction: Optional[int]  # +-1 for e^{+-i t s_k x s_l}, None for no rotation
    flips: tuple[bool, bool]  # s_k on the first atom, s_l on the second
    b_bits: Optional[tuple[int, int]] = None  # backup-atom readings
    lost: Optional[tuple[bool, bool]] = None  # photons lost, where loss is modeled


# Direct-round effect of each beam-splitter outcome: (rotation direction, X flips on the pair).
_OUTCOME_EFFECT = {
    BeamSplitterOutcome.MINUS: (-1, (False, False)),
    BeamSplitterOutcome.PLUS: (1, (False, False)),
    BeamSplitterOutcome.HH: (None, (True, False)),
    BeamSplitterOutcome.VV: (None, (False, True)),
}


def _backup_effect(outcome: Optional[BeamSplitterOutcome], bits: tuple[int, int]):
    """(rotation direction, X flips) of a backup round.

    With both photons detected, ``bits`` are the backups' sign bits and their
    product fixes the time direction.  After a loss (``outcome`` None) they
    are the backups' computational values, which name the Pauli branch.
    """
    if outcome is None:
        return None, (bits[0] == 1, bits[1] == 0)
    direction, flips = _OUTCOME_EFFECT[outcome]
    if direction is not None and (bits[0] + bits[1]) % 2:
        direction = -direction
    return direction, flips


def _backup_stage(
    state: StateVector,
    pair_a: tuple[int, int],
    pair_b: tuple[int, int],
    photons: tuple[int, int],
    eps: float,
) -> StateVector:
    """Unitary part of a backup round: joint emission into the backup atoms, two photon copies.

    A copy is diagonal on its control, so the i phase on backup 1 acts as on photon 1.
    """
    state = joint_emission(state, pair_a, pair_b, eps)
    state = photon_copy(state, pair_b[0], photons[0])
    return photon_copy(state, pair_b[1], photons[1])


def backup_round(
    state: StateVector,
    pair_a: tuple[int, int],
    pair_b: tuple[int, int],
    photons: tuple[int, int],
    eps: float,
    cfg: LossConfig,
    rng: np.random.Generator,
) -> tuple[StateVector, RoundBranch]:
    """One loss-tolerant round: backup entangling, photon copy, loss, measurements.

    If both photons arrive the photons get the incomplete Bell measurement and
    the backup atoms are measured in the sign basis; the product of the sign
    bits fixes the rotation's time direction.  If any photon is lost the
    backup atoms are measured in the computational basis instead, which
    collapses the register onto a known Pauli branch (no rotation, retry).
    Returns the state and the drawn branch's record, the one
    ``round_branches(eps, cfg)`` stores for it.
    """
    state = _backup_stage(state, pair_a, pair_b, photons, eps)
    state, lost = loss_channel(state, photons, cfg, rng)
    if any(lost):
        # A photon is missing: clear any surviving mode, then read the backups in
        # the computational basis to collapse onto a known Pauli branch.
        outcome, basis = None, _E2
        for q, was_lost in zip(photons, lost):
            if not was_lost:
                _, state, _ = measure_and_reset(state, [q], _E2, rng)
    else:
        outcome, state, _ = beamsplitter_measure(state, photons, rng)
        basis = _SIGNS
    b1, state, _ = measure_and_reset(state, [pair_b[0]], basis, rng)
    b2, state, _ = measure_and_reset(state, [pair_b[1]], basis, rng)
    label = "loss" if outcome is None else outcome.value
    return state, RoundBranch(label, *_backup_effect(outcome, (b1, b2)), (b1, b2), lost)


@dataclass(frozen=True)
class RoundTable:
    """Every branch of one round: ``kraus[i]`` is the operator of ``branches[i]``.

    ``kraus`` is a read-only (B, 4, 4) stack of operators on the (first, second) atom,
    first the low bit, in the XX picture.  Each is a weighted unitary sqrt(w_i) U_i, and
    ``cumulative`` holds the running sums of the w_i, the last exactly 1.0.  Every U_i
    is diagonal in the joint eigenbasis of X (x) 1 and 1 (x) X: the read-only (B, 4)
    ``phases`` hold its unit-modulus eigenvalues on the projectors ``_SIGN_PROJECTORS``,
    so U_i = sum_j phases[i, j] P_j.  ``pauli_powers`` marks the Pauli branches: g where
    U_i = i^g X^f1 (x) X^f2 for the branch's flips (f1, f2), None for the others.
    """

    kraus: np.ndarray
    branches: tuple[RoundBranch, ...]
    cumulative: tuple[float, ...]
    phases: np.ndarray
    pauli_powers: tuple[Optional[int], ...]


_LOSS_PATTERNS = ((True, False), (False, True), (True, True))
_PAIR_BITS = ((0, 0), (1, 0), (0, 1), (1, 1))  # (first, second): index first + 2*second
_ZERO_BRANCH = 1e-24  # weight w (K^dag K = w 1) under which a branch counts as zero

# The read-only stack (1 +- X)/2 (x) (1 +- X)/2, first atom low bit: P_j with
# j = (first sign bit) + 2 (second sign bit).  Emission flips an atom exactly
# when it fills that atom's mode, so every branch is a sum of II, XI, IX and XX,
# diagonal in these rank-one projectors.  Their entries are 0 and +-1/2, exact
# in floating point, so they sum to 1 exactly.
_X_SIGNS = [(np.eye(2) + s * PauliAxis.X.matrix()) / 2 for s in (1, -1)]
_SIGN_PROJECTORS = np.array([np.kron(second, first) for second in _X_SIGNS for first in _X_SIGNS])
_SIGN_PROJECTORS.flags.writeable = False
# _PAULI_EIGENVALUES[f, g, j] = i^g (-1)^|f & j|, the eigenvalue on P_j of the Pauli
# string i^g X^f1 (x) X^f2 with flip code f = f1 + 2 f2.
_PAULI_EIGENVALUES = np.array([[[ig * (-1) ** (f & j).bit_count() for j in range(4)]
                                for ig in (1, 1j, -1, -1j)] for f in range(4)])
_PAULI_ATOL = 1e-14  # Pauli phases are off by an ulp or two, rotating ones by about eps > 1e-12


def _round_outcomes(loss: LossConfig):
    """(mode state, record) for every outcome of a round, the state weighted by its loss amplitude.

    Mode states run over the photon pair, index p1 + 2*p2; in the backup
    round the backup pair adds two low bits.
    """
    p, backup = loss.p_loss, loss.backup_enabled
    lost = (False, False) if p > 0.0 or backup else None
    for o, v in BELL_STATES.items():
        if not backup:
            yield (1.0 - p) * v, (o.value, *_OUTCOME_EFFECT[o], None, lost)
        for bits in _PAIR_BITS if backup else ():  # backups read in the sign basis
            modes = np.outer(v, np.outer(_SIGNS[bits[1]], _SIGNS[bits[0]])).ravel()
            yield (1.0 - p) * modes, (o.value, *_backup_effect(o, bits), bits, lost)
    for lost in _LOSS_PATTERNS if p > 0.0 else ():
        w = math.sqrt(p ** sum(lost) * (1.0 - p) ** (2 - sum(lost)))
        if backup:  # the environment reads both photons, then the backups are read
            for h, (i, bits) in itertools.product(_E4, enumerate(_PAIR_BITS)):
                modes = np.outer(h, _E4[i]).ravel()
                yield w * modes, ("loss", *_backup_effect(None, bits), bits, lost)
        elif loss.encoding is PhotonEncoding.POLARIZATION:
            # heralded: the round is discarded, the environment reads both photons
            for h in _E4:
                yield w * h, ("loss", None, (False, False), None, lost)
        else:  # silent: a lost photon is read (bit h) and emptied before the Bell measurement
            for bits in itertools.product(*((0, 1) if l else (None,) for l in lost)):
                first, second = (_E2 if h is None else np.outer(_E2[0], _E2[h]) for h in bits)
                emptied = np.kron(second, first)
                for o, v in BELL_STATES.items():
                    yield w * emptied.T @ v, (o.value, *_OUTCOME_EFFECT[o], None, lost)


@functools.lru_cache(maxsize=64)
def _outcome_stack(loss: LossConfig) -> tuple[np.ndarray, tuple[RoundBranch, ...]]:
    """Every branch's Kraus operator at every eps, as a read-only (3, B, 4) stack; the records.

    With emissions at eps and 1 - eps and a loss free of eps, branch b's operator is exactly
    (1 - eps) K_0b + eps K_1b + sqrt(eps (1 - eps)) K_2b: K_0 = K(0), K_1 = K(1) and K_2 =
    2 K(1/2) - K_0 - K_1 from the model, stacked as eigenvalues on ``_SIGN_PROJECTORS``.
    ProtocolError unless each K_mb is diagonal on them, the terms give the model at eps 0.3,
    and K_b^dag K_b = w_b 1 with sum_b w_b = 1 at every eps (the outcome law).  |K_b's
    eigenvalue on P_j|^2 is ((1-eps)^2, eps^2, s^2, 2s (1-eps), 2s eps) . forms[:, b, j], with
    s^2 = eps (1 - eps): five independent functions of eps, so the law holds exactly when each
    form agrees over j and the forms' branch sums are (1, 1, 2, 0, 0), as in ((1-eps) + eps)^2.
    """
    if loss.backup_enabled:
        stage = functools.partial(_backup_stage, pair_a=(0, 1), pair_b=(2, 3), photons=(4, 5))
    else:
        stage = functools.partial(joint_emission, pair=(0, 1), photons=(2, 3))
    # One run on the pair maximally entangled with two reference qubits, counted as two more
    # modes above the photon modes, covers all four input basis states: the references label them.
    layout = RegisterLayout.build(2, with_backup=loss.backup_enabled, n_photons=2 + 2)
    choi = np.zeros(1 << layout.n_qubits, dtype=complex)
    choi[[j + (j << layout.n_qubits - 2) for j in range(4)]] = 1.0
    runs = [stage(StateVector(choi, layout), eps=eps).amplitudes.reshape(4, -1, 4)
            for eps in (0.0, 1.0, 0.5, 0.3)]  # (atom in, modes, atom out)
    modes, records = zip(*_round_outcomes(loss))
    k0, k1, half, probe = np.tensordot(np.conj(modes), runs, ([1], [2])).transpose(1, 0, 3, 2)
    terms = np.array([k0, k1, 2.0 * half - k0 - k1])
    eigen = np.einsum("jik,mbki->mbj", _SIGN_PROJECTORS, terms)  # tr(P_j K_mb)
    if (np.abs(np.einsum("mbj,jik->mbik", eigen, _SIGN_PROJECTORS) - terms).max() > 1e-10
            or np.abs(np.tensordot([0.7, 0.3, math.sqrt(0.21)], terms, 1) - probe).max() > 1e-12):
        raise ProtocolError(f"round branches of {loss} are not three terms diagonal in one basis")
    g = (eigen[:, None] * eigen.conj()).real  # g[m, n, b, j] = Re e_mbj conj(e_nbj)
    forms = np.array([g[0, 0], g[1, 1], g[2, 2] + 2.0 * g[0, 1], g[0, 2], g[1, 2]])
    if np.ptp(forms, 2).max() > 1e-10 or abs(forms.mean(2).sum(1) - [1, 1, 2, 0, 0]).max() > 1e-10:
        raise ProtocolError(f"round branches of {loss} are not weighted unitaries at every eps")
    eigen.flags.writeable = False
    return eigen, tuple(RoundBranch(*r) for r in records)


def round_branches(eps: float, loss: LossConfig) -> RoundTable:
    """Every branch of one feedback round at strength ``eps``, as Kraus operators on the pair.

    The round kind follows from ``loss``: the backup round when
    ``backup_enabled``, else the direct round, lossless at p_loss 0, with
    heralded loss under polarization encoding and silent loss under
    occupation encoding.  The table contracts the stack that ``_outcome_stack``
    compiles once per loss config from the photon-level model: hidden
    environment bits give separate branches, and zero branches are dropped.
    The table is in the XX picture, the one the model acts in.  The feedback
    controller reads it for every axis pair (k, l): u e^{it XX} u^dag =
    e^{it s_k x s_l} and u X u^dag = s_k for u = u_k (x) u_l, so the
    weights, records and eigenphases hold on the projectors of s_k and s_l.
    Lossless rounds list (minus, plus, hh, vv) in that order.  Each call builds
    a table; a feedback level builds its own once and keeps it.
    Raises UsageError for eps outside [0, 1] or NaN.  A loss model whose draw would depend
    on the state fails earlier, once per config: ``_outcome_stack`` raises ProtocolError.
    """
    if not 0.0 <= eps <= 1.0:
        raise UsageError(f"eps={eps} outside [0, 1]")
    eigen, records = _outcome_stack(loss)
    coeffs = [1.0 - eps, eps, math.sqrt(eps * (1.0 - eps))]
    eigenvalues = np.dot(coeffs, eigen.reshape(3, -1)).reshape(-1, 4)  # K_b's on P_j
    weights = (np.abs(eigenvalues) ** 2).sum(axis=1) / 4  # K^dag K = w 1, checked per config
    keep = weights > _ZERO_BRANCH
    eigenvalues, weights = eigenvalues[keep], weights[keep]
    phases = eigenvalues / np.abs(eigenvalues)  # unit modulus, so a long product does not drift
    kraus = np.dot(eigenvalues, _SIGN_PROJECTORS.reshape(4, 16)).reshape(-1, 4, 4)
    cumulative = (*(np.cumsum(weights[:-1]) / weights.sum()).tolist(), 1.0)
    branches = tuple(r for r, k in zip(records, keep) if k)
    # (B, 4 g): a Pauli branch's phases are those of i^g times the string of its flips
    strings = _PAULI_EIGENVALUES[[b.flips[0] + 2 * b.flips[1] for b in branches]]
    pauli = (np.abs(phases[:, None, :] - strings) <= _PAULI_ATOL).all(axis=2)
    pauli_powers = tuple(row.index(True) if True in row else None for row in pauli.tolist())
    kraus.flags.writeable = phases.flags.writeable = False
    return RoundTable(kraus, branches, cumulative, phases, pauli_powers)
