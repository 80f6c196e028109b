"""Photon loss, the backup-qubit protocol, and each round compiled to Kraus operators.

A round is written once.  ``_stage`` emits into its mode register (the backup
atoms, if any, as the two low qubits, then the photons), each photon is lost
with probability p_loss, and ``_reads`` lists the reads that follow, each of
which measures some modes in an orthonormal basis and empties them.  A lost
photon is read by the environment in the {V, H} basis, its outcome hidden from
the protocol, so every trajectory stays a pure state.  ``_record`` holds the
paper's record rules.  ``photon_round`` samples one outcome; ``round_branches``
enumerates them all into 4x4 Kraus operators on the atom pair, each a weighted
unitary i^g X^f e^{i theta XX} in the XX picture, so trajectories evolve data
qubits only and draw each round from the weights alone.  The model runs once
per loss config, at three eps, and checks itself at a fourth.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .emission import (
    BELL_STATES,
    PhotonEncoding,
    joint_emission,
    _require_vacuum,
)
from .errors import FrozenValue, ProtocolError, UsageError, config_float
from .pauli import PauliAxis
from .statevec import StateVector, _apply, measure_and_reset

# Measurement bases, one vector per row: computational (one qubit, a mode pair)
# and sign {|+>, |->}.  The sampled model and the round tables both read them.
_E2, _E4 = np.eye(2), np.eye(4)
_SIGNS = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2)

# CNOT with the first listed qubit as control: the backup atom in ``photon_copy``.
CNOT_MATRIX = np.array(
    [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex
)


@dataclass(init=False, repr=False, eq=False)
class LossConfig(FrozenValue):
    """The loss model of every round; UsageError names the first bad ``loss`` key."""

    p_loss: float = 0.0
    encoding: PhotonEncoding = PhotonEncoding.POLARIZATION
    backup_enabled: bool = False

    def __init__(self, p_loss: float = 0.0, encoding: PhotonEncoding = PhotonEncoding.POLARIZATION,
                 backup_enabled: bool = False):
        p_loss = config_float(p_loss, "loss.p_loss")
        if not 0.0 <= p_loss <= 1.0:
            raise UsageError(f"loss.p_loss must lie in [0, 1], got {p_loss}")
        if not isinstance(encoding, PhotonEncoding):
            raise UsageError(f"loss.encoding must be a PhotonEncoding member, got {encoding!r}")
        if not isinstance(backup_enabled, bool):
            raise UsageError(f"loss.backup_enabled must be true or false, got {backup_enabled!r}")
        if backup_enabled and encoding is not PhotonEncoding.POLARIZATION:
            raise UsageError("loss.backup_enabled requires loss.encoding 'polarization'")
        self.__dict__.update(p_loss=p_loss, encoding=encoding, backup_enabled=backup_enabled)


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
    read by the environment in the {V, H} basis and emptied.  No round calls
    it: ``photon_round`` draws its loss and reads the lost modes itself.
    """
    lost = []
    for q in photons:
        is_lost = bool(rng.random() < cfg.p_loss)
        lost.append(is_lost)
        if is_lost:
            _, state, _ = measure_and_reset(state, [q], _E2, rng)
    return state, (lost[0], lost[1])


@dataclass(init=False, repr=False, eq=False)
class RoundBranch(FrozenValue):
    """What the controller records for one way a round can act on the atom pair.

    ``photon_round`` returns the record of the branch it drew, the row that
    ``round_branches`` stores for it.  ``label`` is the Bell outcome's value,
    or "loss" when the round lost a photon.  Branches that differ only in a
    hidden environment bit share their record.
    """

    label: str
    direction: Optional[int]  # +-1 for e^{+-i t s_k x s_l}, None for no rotation
    flips: tuple[bool, bool]  # s_k on the first atom, s_l on the second
    b_bits: Optional[tuple[int, int]] = None  # backup-atom readings
    lost: Optional[tuple[bool, bool]] = None  # photons lost, where loss is modeled

    def __init__(self, label: str, direction: Optional[int], flips: tuple[bool, bool],
                 b_bits: Optional[tuple[int, int]] = None,
                 lost: Optional[tuple[bool, bool]] = None):
        self.__dict__.update(label=label, direction=direction, flips=flips, b_bits=b_bits,
                             lost=lost)


def _stage(state: StateVector, pair: tuple[int, int], modes: tuple[int, ...], eps: float,
           loss: LossConfig) -> StateVector:
    """Unitary part of a round: joint emission into the photons, or into the backups and two copies.

    A copy is diagonal on its control, so the i phase on backup 1 acts as on photon 1.
    """
    if not loss.backup_enabled:
        return joint_emission(state, pair, modes, eps)
    state = joint_emission(state, pair, modes[:2], eps)
    state = photon_copy(state, modes[0], modes[2])
    return photon_copy(state, modes[1], modes[3])


_BELL = np.array(list(BELL_STATES.values()))  # outcome o: minus, plus, hh, vv
_BELL_LABELS = tuple(o.value for o in BELL_STATES)
# Row b1 + 2 b2 reads sign bit b1 on the first backup, the low qubit, and b2 on the second.
_SIGN_PAIRS = np.kron(_SIGNS, _SIGNS)


def _reads(loss: LossConfig, lost: tuple[bool, bool]) -> list[tuple[tuple[int, ...], np.ndarray]]:
    """The reads after the loss draw ``lost``, in order: (modes, basis) on the mode register.

    Each read's modes ascend; its basis holds one vector per row, the first mode the low bit.
    """
    photons = (2, 3) if loss.backup_enabled else (0, 1)
    if loss.backup_enabled and any(lost):
        # the environment reads both photons; the backups' values name the Pauli branch
        return [(photons, _E4), ((0, 1), _E4)]
    if loss.backup_enabled:
        return [(photons, _BELL), ((0, 1), _SIGN_PAIRS)]
    if any(lost) and loss.encoding is PhotonEncoding.POLARIZATION:
        return [(photons, _E4)]  # heralded: the round is discarded, the environment reads both
    # silent: each lost photon is read by the environment and emptied before the Bell measurement
    return [((q,), _E2) for q, gone in zip(photons, lost) if gone] + [(photons, _BELL)]


def _record(loss: LossConfig, lost: tuple[bool, bool], outcomes: Sequence[int]) -> tuple:
    """The ``RoundBranch`` fields of a round that drew ``lost`` and read ``outcomes``.

    ``outcomes[i]`` indexes the basis rows of ``_reads(loss, lost)[i]``.  The paper's rules:
    Bell outcome minus rotates by e^{-i theta XX}, plus by e^{+i theta XX}, hh flips the
    first atom and vv the second.  In the backup round an odd sum of the backups' sign bits
    reverses the rotation, and after a loss their computational bits (b1, b2) flip the first
    atom if b1 = 1 and the second if b2 = 0.  A heralded loss is a discarded round.
    """
    backup = loss.backup_enabled
    bits = (outcomes[-1] & 1, outcomes[-1] >> 1) if backup else None
    if backup and any(lost):
        return "loss", None, (bits[0] == 1, bits[1] == 0), bits, lost
    if any(lost) and loss.encoding is PhotonEncoding.POLARIZATION:
        return "loss", None, (False, False), None, lost
    o = outcomes[0] if backup else outcomes[-1]  # the Bell outcome
    direction = (-1, 1, None, None)[o]
    if direction is not None and backup and sum(bits) % 2:
        direction = -direction
    seen = lost if backup or loss.p_loss > 0.0 else None
    return _BELL_LABELS[o], direction, (o == 2, o == 3), bits, seen


def photon_round(state: StateVector, pair: tuple[int, int], modes: tuple[int, ...], eps: float,
                 loss: LossConfig, rng: np.random.Generator) -> tuple[StateVector, RoundBranch]:
    """One round of the photon-level model on ``state``, sampled: stage, loss draw, reads.

    ``modes`` is the round's mode register, in |0>: the two backup atoms under
    ``loss.backup_enabled``, then the two photons.  Each read measures and
    resets its modes, so every mode ends the round emptied.  Returns the state
    and the drawn branch's record, the one ``round_branches(eps, loss)`` stores.
    """
    state = _stage(state, pair, modes, eps, loss)
    lost = (bool(rng.random() < loss.p_loss), bool(rng.random() < loss.p_loss))
    outcomes = []
    for read, basis in _reads(loss, lost):
        outcome, state, _ = measure_and_reset(state, [modes[m] for m in read], basis, rng)
        outcomes.append(outcome)
    return state, RoundBranch(*_record(loss, lost, outcomes))


def backup_round(state: StateVector, pair_a: tuple[int, int], pair_b: tuple[int, int],
                 photons: tuple[int, int], eps: float, cfg: LossConfig,
                 rng: np.random.Generator) -> tuple[StateVector, RoundBranch]:
    """``photon_round`` on the mode register of backups ``pair_b`` and ``photons``."""
    return photon_round(state, pair_a, (*pair_b, *photons), eps, cfg, rng)


@dataclass(init=False, repr=False, eq=False)
class RoundTable(FrozenValue):
    """Every branch of one round: ``kraus[i]`` is the operator of ``branches[i]``.

    A table compares and hashes by identity, as its Kraus stack is an array.

    ``kraus`` is a read-only (B, 4, 4) stack of operators on the (first, second) atom,
    first the low bit, in the XX picture.  Each is a weighted unitary sqrt(w_i) U_i, and
    ``cumulative`` holds the running sums of the w_i, the last exactly 1.0.  ``forms[i]``
    is (theta, g, f) with U_i = i^g X^f e^{i theta XX} and |theta| <= pi/4, where X^f is
    X^f1 (x) X^f2 for the flip code f = f1 + 2 f2: a Pauli branch has theta exactly 0.0.
    """

    kraus: np.ndarray
    branches: tuple[RoundBranch, ...]
    cumulative: tuple[float, ...]
    forms: tuple[tuple[float, int, int], ...]
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, kraus: np.ndarray, branches: tuple[RoundBranch, ...],
                 cumulative: tuple[float, ...], forms: tuple[tuple[float, int, int], ...]):
        self.__dict__.update(kraus=kraus, branches=branches, cumulative=cumulative, forms=forms)


_LOSS_PATTERNS = ((True, False), (False, True), (True, True))
_ZERO_BRANCH = 1e-24  # weight w (K^dag K = w 1) under which a branch counts as zero

# The read-only stack (1 +- X)/2 (x) (1 +- X)/2, first atom low bit: P_j with
# j = (first sign bit) + 2 (second sign bit).  Emission flips an atom exactly
# when it fills that atom's mode, so every branch is a sum of II, XI, IX and XX,
# diagonal in these rank-one projectors.  Their entries are 0 and +-1/2, exact
# in floating point, so they sum to 1 exactly.
_X_SIGNS = [(np.eye(2) + s * PauliAxis.X.matrix()) / 2 for s in (1, -1)]
_SIGN_PROJECTORS = np.array([np.kron(second, first) for second in _X_SIGNS for first in _X_SIGNS])
_SIGN_PROJECTORS.flags.writeable = False
# _STRING_SIGNS[f, j] = (-1)^|f & j|, the eigenvalue on P_j of X^f1 (x) X^f2 for the flip
# code f = f1 + 2 f2; XX is f = 3.
_STRING_SIGNS = np.array([[(-1) ** (f & j).bit_count() for j in range(4)] for f in range(4)])
_FORM_ATOL = 1e-12  # a branch's phases lie within about 1e-16 of its form, or O(1) off


def _round_outcomes(loss: LossConfig):
    """(mode state, record) for every outcome of a round, the state weighted by its loss amplitude.

    Outcomes run over the loss draws, no loss first, and within a draw over the
    product of its ``_reads``, the first read's outcome slowest.  Reading v_i
    resets its modes, K_i = |0><v_i|, so the mode state is K_1^dag ... K_n^dag |0>:
    built from the last read back, one broadcast a read over all of the draw's
    outcomes.  It runs over the mode register, index b1 + 2 b2 + 4 p1 + 8 p2 with
    backups and p1 + 2 p2 without.
    """
    p, n = loss.p_loss, 4 if loss.backup_enabled else 2
    for lost in ((False, False), *(_LOSS_PATTERNS if p > 0.0 else ())):
        w = math.sqrt(p ** sum(lost) * (1.0 - p) ** (2 - sum(lost))) if any(lost) else 1.0 - p
        reads = _reads(loss, lost)
        modes = np.eye(1, 1 << n, dtype=complex).reshape((1,) + (2,) * n)  # |0>; qubit n-1 first
        for qubits, basis in reversed(reads):
            read = [q in qubits for q in reversed(range(n))]
            zero = tuple(slice(0, 1) if r else slice(None) for r in read)
            v = basis.reshape((len(basis), 1, *(2 if r else 1 for r in read)))
            modes = (v * modes[(slice(None), *zero)]).reshape((-1,) + (2,) * n)
        outcomes = itertools.product(*(range(len(basis)) for _, basis in reads))
        for m, o in zip(w * modes.reshape(-1, 1 << n), outcomes):
            yield m, _record(loss, lost, o)


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
    # One run on the pair maximally entangled with two reference qubits above the mode
    # register covers all four input basis states: the references label them.
    modes = (2, 3, 4, 5) if loss.backup_enabled else (2, 3)
    n = len(modes) + 4
    choi = np.zeros(1 << n, dtype=complex)
    choi[[j + (j << n - 2) for j in range(4)]] = 1.0
    runs = [_stage(StateVector(choi), (0, 1), modes, eps, loss).amplitudes.reshape(4, -1, 4)
            for eps in (0.0, 1.0, 0.5, 0.3)]  # (atom in, modes, atom out)
    modes, records = zip(*_round_outcomes(loss))
    k0, k1, half, probe = np.einsum("bm,eimo->eboi", np.conj(modes), np.array(runs))
    terms = np.array([k0, k1, 2.0 * half - k0 - k1])
    eigen = np.einsum("jik,mbki->mbj", _SIGN_PROJECTORS, terms)  # tr(P_j K_mb)
    at_probe = np.einsum("m,mboi->boi", [0.7, 0.3, math.sqrt(0.21)], terms)
    if (np.abs(np.einsum("mbj,jik->mbik", eigen, _SIGN_PROJECTORS) - terms).max() > 1e-10
            or np.abs(at_probe - probe).max() > 1e-12):
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
    weights, records and forms hold with s_k and s_l in place of X.
    Lossless rounds list (minus, plus, hh, vv) in that order.  This is the
    one-eps case of ``round_tables``, the one implementation; a feedback
    level keeps all of a table but the Kraus stack, and builds the tables
    of its chain's next levels with its own in one ``round_tables`` call.
    Raises UsageError for eps outside [0, 1] or NaN, and ProtocolError, naming ``loss``
    and eps, for a branch off its form by more than _FORM_ATOL.  A loss model whose draw
    would depend on the state fails earlier, once per config: ``_outcome_stack`` raises
    ProtocolError.
    """
    return round_tables((eps,), loss)[0]


def round_tables(eps_values: Sequence[float], loss: LossConfig) -> tuple[RoundTable, ...]:
    """``round_branches(eps, loss)`` for each of ``eps_values``, built in one pass over them all.

    Every step is elementwise per branch, or a reduction over one table's own
    branches: the running sums of its weights (sequential, as ``np.cumsum``)
    and their total (numpy's pairwise sum over that table alone, the 1-D sum
    a single table takes).  So each table is bit for bit the one its eps
    gives alone, whatever the other eps are.  The two contractions, over the
    three terms and over the four sign projectors, run in ``np.einsum``'s own
    loops, without ``optimize``, and not through ``np.dot``: a BLAS ``zgemm``
    would load OpenBLAS's level-3 kernels into a ``simulate`` run for these
    small products alone, and would sum in an order its library and build
    choose, so the tables, and every round record, would depend on them.
    The first eps outside [0, 1] raises UsageError before any table is built,
    and the first whose branches are off their form raises ProtocolError
    naming it.
    """
    eps_values = tuple(eps_values)
    for eps in eps_values:
        if not 0.0 <= eps <= 1.0:
            raise UsageError(f"eps={eps} outside [0, 1]")
    eigen, records = _outcome_stack(loss)
    eps = np.array(eps_values, dtype=float).reshape(-1, 1)
    coeffs = np.hstack([1.0 - eps, eps, np.sqrt(eps * (1.0 - eps))])
    eigenvalues = np.einsum("em,mbj->ebj", coeffs, eigen)  # K's on P_j
    weights = (np.abs(eigenvalues) ** 2).sum(axis=2) / 4  # K^dag K = w 1, checked per config
    keep = weights > _ZERO_BRANCH
    # The kept branches of every table in turn, (K, 4) and (K,): table e's are rows
    # stops[e] - counts[e] to stops[e].  A zero branch adds 0.0 to the running sums.
    eigenvalues, kept = eigenvalues[keep], weights[keep]
    counts = keep.sum(axis=1).tolist()
    stops = list(itertools.accumulate(counts))
    totals = [kept[stop - count:stop].sum() for count, stop in zip(counts, stops)]
    running = np.cumsum(np.where(keep, weights, 0.0), axis=1) / np.reshape(totals, (-1, 1))
    phases = eigenvalues / np.abs(eigenvalues)
    kraus = np.einsum("kj,jab->kab", eigenvalues, _SIGN_PROJECTORS)
    # i^g X^f e^{i theta XX} has phase i^g e^{i theta} on P_0, and e^{-2i theta} times the
    # signs of X^f relative to it on P_1 and P_2: the signs with real part >= 0 keep
    # |theta| <= pi/4, and for a Pauli branch the ratio is real, so theta is 0.0 exactly.
    # Angles are log(z).imag: np.angle's arctan2 maps about 0.2 MB more into the process.
    turns = phases[:, 1:3] * phases[:, :1].conj()
    signs = np.where(turns.real < 0.0, -1.0, 1.0)
    theta = np.log(signs[:, 0] * turns[:, 0]).imag / -2 + 0.0  # + 0.0: never -0.0
    strings = (signs[:, 0] < 0.0) + 2 * (signs[:, 1] < 0.0)
    turn = np.log(phases[:, 0] * np.exp(-1j * theta)).imag
    powers = np.rint(turn * (2 / np.pi)).astype(int) & 3
    form = (np.array([1, 1j, -1, -1j])[powers, None] * _STRING_SIGNS[strings]
            * np.exp(1j * np.outer(theta, _STRING_SIGNS[3])))
    off = np.abs(form - phases).max(axis=1) > _FORM_ATOL
    if off.any():
        eps = eps_values[keep.nonzero()[0][off.argmax()]]
        raise ProtocolError(f"round branches of {loss} at eps={eps} are not i^g X^f e^(i theta XX)")
    kraus.flags.writeable = False
    forms = tuple(zip(theta.tolist(), powers.tolist(), strings.tolist()))
    ratios, tables = running[keep].tolist(), []
    for row, count, stop in zip(keep.tolist(), counts, stops):
        start = stop - count
        tables.append(RoundTable(kraus[start:stop], tuple(itertools.compress(records, row)),
                                 (*ratios[start:stop - 1], 1.0), forms[start:stop]))
    return tuple(tables)
