"""Repeat-until-success controller realizing V(t) = e^{it XX} and V^{kl}(t).

Each round aims an angle, emits, measures, and updates a running residual:
a Plus outcome subtracts the aimed angle, a Minus outcome adds it (so the
next round aims double, reproducing the eps-doubling policy), and HH/VV
outcomes only multiply the Pauli error frame.  A rotation e^{it s_k x s_l}
draws from the round table for the axis pair (k, l), whose byproducts are
s_k / s_l at the pair sites.  If the incoming frame anticommutes with the
rotation axis the roles of Plus and Minus are swapped (the time direction is
inverted).
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .errors import IncompleteRotationError, UsageError
from .loss import LossConfig, round_branches
from .pauli import ErrorFrame, PauliAxis, PauliString, frame_conjugate_direction
from .statevec import StateVector, _apply, apply_local  # noqa: F401 (perfbench traces it)

_ANGLE_TOL = 1e-12
_PAIR_IDENTITY = np.eye(4)


class PolicyMode(Enum):
    RESIDUAL_EXACT = "residual_exact"
    PAPER_DOUBLING = "paper_doubling"


@dataclass(frozen=True)
class EpsilonPolicy:
    """How each round picks its emission strength.

    RESIDUAL_EXACT inverts the exact outcome law, eps = tan(a)/(1 + tan(a))
    for aimed angle a, so a Plus outcome closes the residual exactly.
    PAPER_DOUBLING uses the small-angle rule eps = sin(a) literally; its
    aimed-angle sequence t, 2t, 4t, ... matches RESIDUAL_EXACT whenever no
    HH/VV outcome intervenes, but the realized rotation is only approximate.
    """

    mode: PolicyMode = PolicyMode.RESIDUAL_EXACT
    max_rounds: int = 64

    def eps_for(self, aimed: float) -> float:
        if self.mode is PolicyMode.RESIDUAL_EXACT:
            s, c = math.sin(aimed), math.cos(aimed)
            return s / (s + c)
        return min(1.0, max(0.0, math.sin(aimed)))


def reduce_angle(t: float) -> float:
    """Reduce modulo pi into (-pi/2, pi/2]; e^{i pi XX} is a global phase."""
    r = math.remainder(t, math.pi)
    if r <= -math.pi / 2 + _ANGLE_TOL:
        r += math.pi
    return r


@dataclass
class RoundRecord:
    """Audit entry for one feedback round."""

    outcome: str
    eps_used: float
    aimed_angle: float
    frame_after: str
    b_measurements: Optional[tuple[int, int]] = None
    lost: Optional[tuple[bool, bool]] = None

    def to_dict(self) -> dict:
        d = {
            "outcome": self.outcome,
            "eps_used": self.eps_used,
            "aimed_angle": self.aimed_angle,
            "frame_after": self.frame_after,
        }
        if self.b_measurements is not None:
            d["b_measurements"] = list(self.b_measurements)
        if self.lost is not None:
            d["lost"] = list(self.lost)
        return d


def realize_v_kl(
    state: StateVector,
    pair: tuple[int, int],
    k: PauliAxis,
    l: PauliAxis,
    t_target: float,
    policy: EpsilonPolicy,
    frame: ErrorFrame,
    rng: np.random.Generator,
    loss: Optional[LossConfig] = None,
) -> tuple[StateVector, ErrorFrame, list[RoundRecord]]:
    """Realize e^{i t s_k x s_l} on ``pair`` modulo the tracked error frame.

    Each round draws a branch of ``round_branches(eps, loss, (k, l))`` (lossless
    when ``loss`` is None) from its state-independent weights; the drawn
    unitaries act on the pair once, when the rotation ends.  On success the
    frame-corrected output equals the exact rotation applied to the
    frame-corrected input, up to global phase.  Raises IncompleteRotationError
    (with state, frame, and residual attached) if max_rounds is exhausted.
    """
    if k is PauliAxis.I or l is PauliAxis.I:
        raise UsageError("rotation axes must be X, Y, or Z")
    if pair[0] == pair[1]:
        raise UsageError("rotation needs two distinct qubits")
    n = state.n_qubits
    target = PauliString.embed(n, {pair[0]: k, pair[1]: l})

    residual = reduce_angle(t_target)
    records: list[RoundRecord] = []
    if abs(residual) <= _ANGLE_TOL:
        return state, frame, records

    loss = loss or LossConfig()
    # A round's byproducts s_k (x) 1 and 1 (x) s_l both commute with the target
    # s_k (x) s_l, so the frame's commutation with it, and this sign, hold for
    # the whole rotation.
    sign_swap = frame_conjugate_direction(frame, target)
    pair_op = _PAIR_IDENTITY
    for _ in range(policy.max_rounds):
        aimed = abs(residual)
        eps = policy.eps_for(aimed)
        table = round_branches(eps, loss, (k, l))
        index = bisect.bisect_right(table.cumulative, rng.random())
        pair_op = table.unitaries[index] @ pair_op
        out = table.branches[index]

        flipped = {s: a for s, a, f in zip(pair, (k, l), out.flips) if f}
        if flipped:
            frame = frame.updated(PauliString.embed(n, flipped))
        if out.direction is not None:
            residual = reduce_angle(residual - sign_swap * out.direction * aimed)

        records.append(RoundRecord(out.label, eps, aimed, str(frame), out.b_bits, out.lost))
        if abs(residual) <= _ANGLE_TOL:
            return _apply(state, pair, pair_op), frame, records

    err = IncompleteRotationError(residual, records)
    err.state = _apply(state, pair, pair_op)  # resumable: caller may retry with t = residual
    err.frame = frame
    raise err


def realize_v(
    state: StateVector,
    pair: tuple[int, int],
    t_target: float,
    policy: EpsilonPolicy,
    frame: ErrorFrame,
    rng: np.random.Generator,
    loss: Optional[LossConfig] = None,
) -> tuple[StateVector, ErrorFrame, list[RoundRecord]]:
    """Realize e^{it XX} on ``pair`` modulo the tracked error frame."""
    return realize_v_kl(
        state, pair, PauliAxis.X, PauliAxis.X, t_target, policy, frame, rng, loss
    )
