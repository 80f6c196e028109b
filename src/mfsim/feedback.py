"""Repeat-until-success controller realizing V(t) = e^{it XX} and V^{kl}(t).

Each round aims an angle, emits, measures, and updates a running residual:
a Plus outcome subtracts the aimed angle, a Minus outcome adds it (so the
next round aims double, reproducing the eps-doubling policy), and HH/VV
outcomes only multiply the Pauli error frame.  If the incoming frame
anticommutes with the rotation axis the roles of Plus and Minus are swapped
(the time direction is inverted).

A rotation therefore walks the doubling chain t, 2t, 4t, ... (mod pi).
Conjugating by u_k (x) u_l maps e^{it XX} to e^{it s_k x s_l} and leaves a
round's weights, records and eigenphases unchanged, so each level of the
chain, with its XX round table, is built once per (angle, policy, loss) and
shared by every axis pair and frame sign.  A round is one bisection into the
level's weights, four complex multiplications, when the branch flips a qubit
(s_k / s_l at the pair sites) an XOR of the frame's x/z masks, and a lookup
of the level's one record for that branch and frame text.  The
drawn unitaries are diagonal in the eigenbasis of s_k (x) 1 and 1 (x) s_l,
so their product is the running product of their eigenvalue phases, a sum of
the Pauli strings I, s_k, s_l and s_k s_l on the pair that updates the state
once per rotation as one index gather.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import astuple, dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .errors import IncompleteRotationError, UsageError
from .loss import LossConfig, round_branches
from .pauli import ErrorFrame, PauliAxis, mask_text
from .statevec import StateVector, apply_local  # noqa: F401 (perfbench traces it)
from .statevec import _apply_pauli_sum as _apply, _pauli_stack

_ANGLE_TOL = 1e-12
_LOSSLESS = LossConfig()


class PolicyMode(Enum):
    RESIDUAL_EXACT = "residual_exact"
    PAPER_DOUBLING = "paper_doubling"

    __hash__ = object.__hash__  # identity, as equality is; the policy keys the level cache


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
    key = functools.cached_property(astuple)  # the fields; a tuple hashes in C

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


@dataclass(frozen=True)
class RoundRecord:
    """Audit entry for one feedback round; one instance serves every round with its values."""

    outcome: str
    eps_used: float
    aimed_angle: float
    frame_after: str
    b_measurements: Optional[tuple[int, int]] = None
    lost: Optional[tuple[bool, bool]] = None

    def to_dict(self) -> dict:
        """The fields by name, tuples as lists; the optional ones only when set."""
        return {k: list(v) if isinstance(v, tuple) else v
                for k, v in vars(self).items() if v is not None}


class _Level:
    """One level of a residual's doubling chain: the residual it aims at and its round table.

    ``phases[i]`` are the eigenvalues of branch i's unitary on the XX table's
    eigenprojectors, the same for every axis pair.  ``next[s < 0][i]`` is
    the level after branch i under frame sign s: this level when the branch
    does not rotate, None when s times its direction is the residual's sign
    (the branch closes it), else the level at the doubled residual, built,
    with its table, on the first round drawn here.  ``records[i]`` maps a
    frame's text to the one record of branch i drawn here with that frame.
    ``rows[s < 0][i]`` is what a round reads: (*phases[i], flips[i],
    records[i], next[s < 0][i]).
    """

    def __init__(self, residual: float, policy: EpsilonPolicy, loss: LossConfig):
        self.residual, self.policy, self.loss = residual, policy, loss
        self.aimed = abs(residual)
        self.eps = policy.eps_for(self.aimed)
        table = round_branches(self.eps, loss)
        self.cumulative, self.branches = table.cumulative, table.branches
        self.phases = tuple(tuple(p) for p in table.phases.tolist())
        # the pair atoms a branch flips: bit 0 the first, bit 1 the second
        self.flips = tuple(b.flips[0] + 2 * b.flips[1] for b in self.branches)
        self.records: tuple[dict[str, RoundRecord], ...] = tuple({} for _ in self.branches)

    @functools.cached_property
    def next(self) -> tuple[tuple[Optional["_Level"], ...], ...]:
        r, sign = self.residual, 1 if self.residual > 0 else -1
        rotates = any(b.direction for b in self.branches)
        doubled = _level(reduce_angle(r + r), self.policy, self.loss) if rotates else None
        return tuple(tuple(self if b.direction is None else None if s * b.direction == sign
                           else doubled for b in self.branches) for s in (1, -1))

    @functools.cached_property
    def rows(self) -> tuple[tuple[tuple, ...], ...]:
        return tuple(tuple((*p, f, r, s) for p, f, r, s in
                           zip(self.phases, self.flips, self.records, successors))
                     for successors in self.next)


def _level(residual: float, policy: EpsilonPolicy, loss: LossConfig) -> Optional[_Level]:
    return _Level(residual, policy, loss) if abs(residual) > _ANGLE_TOL else None


@functools.cache
def _first_level(t_target, policy_key, loss_key) -> Optional[_Level]:
    """The level a rotation starts at, kept per (t, policy.key, loss.key); None for t = 0 mod pi."""
    if not math.isfinite(t_target):
        raise UsageError(f"rotation angle must be finite, got {t_target}")
    return _level(reduce_angle(t_target), EpsilonPolicy(*policy_key), LossConfig(*loss_key))


@functools.lru_cache(maxsize=256, typed=True)
def _pair_record(n: int, a: int, b: int, k: PauliAxis, l: PauliAxis):
    """The checked masks of a rotation on sites (a, b) of n qubits, and its Pauli-sum stack.

    ``flips[c]`` are the masks of I, s_k, s_l and s_k s_l on the pair: a
    branch with flip code c XORs them into the frame, and all four are the
    Pauli sum's terms, whose ``_pauli_stack`` arrays this cache holds: at
    the 12-qubit cap an entry takes 384 KB and a full cache 96 MB.
    Bad input raises on every call, since an exception is not cached, and
    the key is typed, so a float site never reads an integer site's entry.
    """
    if k is PauliAxis.I or l is PauliAxis.I:
        raise UsageError("rotation axes must be X, Y, or Z")
    if a == b:
        raise UsageError("rotation needs two distinct qubits")
    for site in (a, b):
        if not 0 <= site < n:
            raise UsageError(f"site {site} outside register of size {n}")
    ka, lb = (k.x_bit << a, k.z_bit << a), (l.x_bit << b, l.z_bit << b)
    flips = ((0, 0), ka, lb, (ka[0] | lb[0], ka[1] | lb[1]))
    return flips, _pauli_stack(n, flips)


def realize_v_kl(
    state: StateVector,
    pair: tuple[int, int],
    k: PauliAxis,
    l: PauliAxis,
    t_target: float,
    policy: EpsilonPolicy,
    frame: ErrorFrame,
    rng,
    loss: Optional[LossConfig] = None,
) -> tuple[StateVector, ErrorFrame, list[RoundRecord]]:
    """Realize e^{i t s_k x s_l} on ``pair`` modulo the tracked error frame.

    Each round draws a branch of the XX table ``round_branches(eps, loss)``
    (lossless when ``loss`` is None; conjugation by u_k (x) u_l carries it to
    (k, l) with the same weights, records and eigenphases) from the angle's
    cached doubling levels with one ``rng.random()`` (a numpy Generator or
    any object whose ``random()`` returns a uniform in [0, 1)) and multiplies
    its eigenvalues on P_j = (1 +- s_k)/2 (x) (1 +- s_l)/2 into four running
    phases d_j.  Then sum_j d_j P_j, a sum of the Pauli strings I, s_k, s_l
    and s_k s_l on the pair, is applied once, when the rotation ends or runs
    out of rounds.  On success the frame-corrected output equals the exact
    rotation applied to the frame-corrected input, up to global phase.
    Raises IncompleteRotationError (with state, frame, and residual attached)
    if max_rounds is exhausted.
    """
    n = state.n_qubits
    a, b = pair
    flips, stack = _pair_record(n, a, b, k, l)
    byproduct = frame.byproduct
    if byproduct.n != n:
        raise UsageError(f"length mismatch: {byproduct.n} vs {n}")
    tx, tz = flips[3]
    x, z = byproduct.x, byproduct.z
    # A round's byproducts s_k (x) 1 and 1 (x) s_l both commute with the target
    # s_k (x) s_l, so the frame's commutation with it, and this sign, hold for
    # the whole rotation: it picks the level's successors.
    swapped = ((x & tz) ^ (z & tx)).bit_count() & 1
    level = _first_level(t_target, policy.key, (loss or _LOSSLESS).key)
    records: list[RoundRecord] = []
    if level is None:
        return state, frame, records

    text = mask_text(n, x, z)
    flipped = False
    d0 = d1 = d2 = d3 = 1.0 + 0j  # eigenvalues of the product of the drawn unitaries
    draw, bisect_right, append = rng.random, bisect.bisect_right, records.append
    current = None
    for _ in range(policy.max_rounds):
        if level is not current:  # rows build the successors, so read them on arrival only
            current, cumulative, rows = level, level.cumulative, level.rows[swapped]
        i = bisect_right(cumulative, draw())
        p0, p1, p2, p3, code, by_text, level = rows[i]
        d0, d1, d2, d3 = d0 * p0, d1 * p1, d2 * p2, d3 * p3
        if code:
            dx, dz = flips[code]
            x, z = x ^ dx, z ^ dz
            text = mask_text(n, x, z)
            flipped = True
        rec = by_text.get(text)
        if rec is None:
            out = current.branches[i]
            rec = by_text[text] = RoundRecord(
                out.label, current.eps, current.aimed, text, out.b_bits, out.lost)
        append(rec)
        if level is None:
            break

    if records:  # sum_j d_j P_j, with P_j's sign bits j = (s_k bit) + 2 (s_l bit)
        state = _apply(state, stack, ((d0 + d1 + d2 + d3) / 4, (d0 - d1 + d2 - d3) / 4,
                                      (d0 + d1 - d2 - d3) / 4, (d0 - d1 - d2 + d3) / 4))
    if flipped:
        frame = ErrorFrame.from_masks(n, x, z)
    if level is None:
        return state, frame, records
    err = IncompleteRotationError(level.residual, records)
    err.state, err.frame = state, frame  # resumable: caller may retry with t = residual
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
