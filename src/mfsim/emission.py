"""Photon emission map, joint two-atom emission, and the beam-splitter measurement.

The emission map entangles an atom with a photon mode,

    |a>|V>  ->  sqrt(1-eps)|a>|V> + sqrt(eps)|a xor 1>|H>,

so the atomic qubit flips with probability ``eps`` and the flip is heralded
by the photon.  Two such emissions plus an extra ``i`` phase on the first
photon's H component produce the four-branch joint state whose photons are
then measured in the incomplete Bell basis
{(|HV> - |VH>)/sqrt2, (|HV> + |VH>)/sqrt2, |HH>, |VV>}.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .errors import ProtocolError, UsageError
from .statevec import StateVector, _apply, measure_and_reset

_VACUUM_ATOL = 1e-10


class PhotonEncoding(Enum):
    """How the photon qubit is physically carried.

    OCCUPATION: |V> is the vacuum, so a lost photon is indistinguishable
    from a legitimate no-photon outcome (losses are silent).
    POLARIZATION: both |V> and |H> are real photons, so a missing detection
    is always heralded.
    """

    OCCUPATION = "occupation"
    POLARIZATION = "polarization"

    __hash__ = object.__hash__  # identity, as equality is; the loss config keys round caches


class BeamSplitterOutcome(Enum):
    MINUS = "minus"  # (|HV> - |VH>)/sqrt2
    PLUS = "plus"    # (|HV> + |VH>)/sqrt2
    HH = "hh"
    VV = "vv"


def emission_unitary(eps: float) -> np.ndarray:
    """4x4 unitary on (atom, photon) extending the emission map off the vacuum sector.

    Completion |a>|H> -> -sqrt(eps)|a xor 1>|V> + sqrt(1-eps)|a>|H> keeps the
    matrix real; it is unobservable because callers enforce vacuum input.
    Index convention: atom is the low bit (column = atom + 2*photon).
    """
    if not 0.0 <= eps <= 1.0:
        raise UsageError(f"eps={eps} outside [0, 1]")
    c = np.sqrt(1.0 - eps)
    s = np.sqrt(eps)
    u = np.zeros((4, 4))
    for a in (0, 1):
        # |a, V=0> -> c|a, 0> + s|a^1, 1>
        u[a, a] = c
        u[(a ^ 1) + 2, a] = s
        # |a, H=1> -> -s|a^1, 0> + c|a, 1>
        u[a ^ 1, a + 2] = -s
        u[a + 2, a + 2] = c
    return u


def _require_vacuum(state: StateVector, mode: int) -> None:
    """Raise ProtocolError unless ``mode`` (a photon mode or a backup atom) is in |0>."""
    if state.prob_qubit_one(mode) > _VACUUM_ATOL:
        raise ProtocolError(f"mode {mode} is not in |0> (|V> for a photon) before use")


def u_eps(state: StateVector, atom: int, photon: int, eps: float) -> StateVector:
    """Emit: entangle ``atom`` with the vacuum photon mode at strength ``eps``.

    The backup protocol applies the same unitary with a reset backup atom in
    the photon role: |a>_A |0>_B -> sqrt(1-eps)|a>|0> + sqrt(eps)|a xor 1>|1>.
    """
    _require_vacuum(state, photon)
    return _apply(state, (atom, photon), emission_unitary(eps))


_X_GATE = np.array([[0.0, 1.0], [1.0, 0.0]])
_PHASE_I_ON_H = np.diag([1.0, 1.0j])


def joint_emission(
    state: StateVector,
    pair: tuple[int, int],
    photons: tuple[int, int],
    eps: float,
) -> StateVector:
    """Emit from both atoms so the register carries the four-branch joint state.

    Applies the eps-map to atom 1, the (1-eps)-map followed by a flip to
    atom 2, then the extra i phase on photon 1's H component.  On input
    |psi>|VV> the result is

        (1-eps) |psi>|VH> + i eps (XX)|psi>|HV>
        + sqrt(eps(1-eps)) (IX)|psi>|VV> + i sqrt(eps(1-eps)) (XI)|psi>|HH>.
    """
    atom_a, atom_b = pair
    p1, p2 = photons
    out = u_eps(state, atom_a, p1, eps)
    out = u_eps(out, atom_b, p2, 1.0 - eps)
    out = _apply(out, (atom_b,), _X_GATE)
    return _apply(out, (p1,), _PHASE_I_ON_H)


# Photon-pair state behind each outcome.  Basis index p1 + 2*p2 with |1> = H,
# so |HV> is index 1 and |VH> index 2.
_E4 = np.eye(4, dtype=complex)
BELL_STATES = {
    BeamSplitterOutcome.MINUS: (_E4[1] - _E4[2]) / np.sqrt(2),
    BeamSplitterOutcome.PLUS: (_E4[1] + _E4[2]) / np.sqrt(2),
    BeamSplitterOutcome.HH: _E4[3],
    BeamSplitterOutcome.VV: _E4[0],
}


def beamsplitter_measure(
    state: StateVector,
    photons: tuple[int, int],
    rng: np.random.Generator,
) -> tuple[BeamSplitterOutcome, StateVector, float]:
    """Incomplete Bell measurement of the two photon modes, emptied after; no round calls it."""
    idx, emptied, prob = measure_and_reset(state, photons, list(BELL_STATES.values()), rng)
    return tuple(BELL_STATES)[idx], emptied, prob


def outcome_probabilities(eps: float) -> dict[BeamSplitterOutcome, float]:
    """Analytic outcome law for the joint-emission state at strength ``eps``."""
    q = 0.5 * ((1.0 - eps) ** 2 + eps**2)
    r = eps * (1.0 - eps)
    return {
        BeamSplitterOutcome.MINUS: q,
        BeamSplitterOutcome.PLUS: q,
        BeamSplitterOutcome.HH: r,
        BeamSplitterOutcome.VV: r,
    }
