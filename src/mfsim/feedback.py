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
shared by every axis pair and frame sign.  The frame is one integer key,
1 << 2n | z << n | x over its x/z masks.  A round is one bisection into the
level's weights, an XOR of the key when the branch flips a qubit (s_k / s_l
at the pair sites), and a lookup of the level's one record for that branch
and key.  A rotating round also multiplies four complex eigenvalue phases; a
Pauli round, whose unitary is i^g times the Pauli string of its flips (on a
backup table every loss retry and HH/VV outcome), touches only the frame
integers: a power of i and the pair's flip code.  The drawn unitaries are diagonal in the
eigenbasis of s_k (x) 1 and 1 (x) s_l, so their product is the running
product of their eigenvalue phases, with the Pauli rounds' i^g and signs
folded in once, a sum of the Pauli strings I, s_k, s_l and s_k s_l on the
pair that updates the state once per rotation as one index gather.
"""

from __future__ import annotations

import bisect
import functools
import json
import math
from dataclasses import astuple, dataclass, fields
from enum import Enum
from typing import Optional

import numpy as np

from .errors import IncompleteRotationError, UsageError
from .loss import _PAULI_EIGENVALUES, LossConfig, round_branches
from .pauli import ErrorFrame, PauliAxis, mask_text
from .statevec import StateVector, apply_local  # noqa: F401 (perfbench traces it)
from .statevec import _apply_pauli_sum as _apply, _pauli_stack

_ANGLE_TOL = 1e-12
_LOSSLESS = LossConfig()
_PAULI_FOLD = _PAULI_EIGENVALUES.tolist()  # [f][g][j], as Python complex numbers


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
    """One round's audit entry, shared by every round with its values; ``text`` is its JSON."""

    outcome: str
    eps_used: float
    aimed_angle: float
    frame_after: str
    b_measurements: Optional[tuple[int, int]] = None
    lost: Optional[tuple[bool, bool]] = None
    text = functools.cached_property(lambda self: json.dumps(self.to_dict(), sort_keys=True))

    def to_dict(self) -> dict:
        """The fields by name, tuples as lists; the optional ones only when set (not ``text``)."""
        values = ((f.name, getattr(self, f.name)) for f in fields(self))
        return {k: list(v) if isinstance(v, tuple) else v for k, v in values if v is not None}


class _Level:
    """One level of a residual's doubling chain: the residual it aims at and its round table.

    ``phases[i]`` are the eigenvalues of branch i's unitary on the XX table's
    eigenprojectors, the same for every axis pair, and ``powers[i]`` is the
    table's power g of a Pauli branch, None for any other.
    ``next[s < 0][i]`` is the level after branch i under frame sign s: this
    level when the branch does not rotate, None when s times its direction
    is the residual's sign (the branch closes it), else the level at the
    doubled residual, built, with its table, on the first round drawn here.
    ``records[i]`` maps a frame's key to the one record of branch i drawn
    here with that frame.  ``rows[s < 0][i]`` is what a round reads:
    (powers[i], *phases[i], flips[i], records[i], next[s < 0][i]).
    """

    def __init__(self, residual: float, policy: EpsilonPolicy, loss: LossConfig):
        self.residual, self.policy, self.loss = residual, policy, loss
        self.aimed = abs(residual)
        self.eps = policy.eps_for(self.aimed)
        table = round_branches(self.eps, loss)
        self.cumulative, self.branches = table.cumulative, table.branches
        self.phases = tuple(tuple(p) for p in table.phases.tolist())
        self.powers = table.pauli_powers
        # the pair atoms a branch flips: bit 0 the first, bit 1 the second
        self.flips = tuple(b.flips[0] + 2 * b.flips[1] for b in self.branches)
        self.records: tuple[dict[int, RoundRecord], ...] = tuple({} for _ in self.branches)

    @functools.cached_property
    def next(self) -> tuple[tuple[Optional["_Level"], ...], ...]:
        r, sign = self.residual, 1 if self.residual > 0 else -1
        rotates = any(b.direction for b in self.branches)
        doubled = _level(reduce_angle(r + r), self.policy, self.loss) if rotates else None
        return tuple(tuple(self if b.direction is None else None if s * b.direction == sign
                           else doubled for b in self.branches) for s in (1, -1))

    @functools.cached_property
    def rows(self) -> tuple[tuple[tuple, ...], ...]:
        return tuple(tuple((g, *p, f, r, s) for g, p, f, r, s in
                           zip(self.powers, self.phases, self.flips, self.records, successors))
                     for successors in self.next)


def _level(residual: float, policy: EpsilonPolicy, loss: LossConfig) -> Optional[_Level]:
    return _Level(residual, policy, loss) if abs(residual) > _ANGLE_TOL else None


@functools.cache
def _first_level(t_target, policy_key, loss_key) -> Optional[_Level]:
    """The level a rotation starts at, kept per (t, policy.key, loss.key); None for t = 0 mod pi."""
    if not math.isfinite(t_target):
        raise UsageError(f"rotation angle must be finite, got {t_target}")
    return _level(reduce_angle(t_target), EpsilonPolicy(*policy_key), LossConfig(*loss_key))


@functools.lru_cache(maxsize=None, typed=True)
def _pair_record(n: int, a: int, b: int, k: PauliAxis, l: PauliAxis):
    """The checked frame-key masks of a rotation on sites (a, b) of n qubits; its Pauli-sum stack.

    ``keys[c]`` is z << n | x for the masks of I, s_k, s_l and s_k s_l on the
    pair: a branch with flip code c XORs it into the frame key.  ``swap`` is
    the target s_k s_l's key with x and z exchanged, so a frame key's parity
    on it is the frame's anticommutation with the target.  The four strings
    are the Pauli sum's terms, whose ``_pauli_stack`` arrays take 96 * 2^n bytes
    (384 KB at the 12-qubit cap).  Every key is kept, as ``_first_level`` keeps every angle.
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
    tx, tz = flips[3]
    return tuple(z << n | x for x, z in flips), tx << n | tz, _pauli_stack(n, flips)


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
    any object whose ``random()`` returns a uniform in [0, 1)).  A rotating
    branch multiplies its eigenvalues on P_j = (1 +- s_k)/2 (x) (1 +- s_l)/2
    into four running phases d_j; a Pauli branch, i^g times the string of its
    flip code, only adds g to a power of i and XORs the code.  Then, with
    that power and string folded into the d_j, sum_j d_j P_j, a sum of the
    Pauli strings I, s_k, s_l and s_k s_l on the pair, is applied once, when
    the rotation ends or runs out of rounds.  On success the frame-corrected
    output equals the exact rotation applied to the frame-corrected input,
    up to global phase.
    Raises IncompleteRotationError (with state, frame, and residual attached)
    if max_rounds is exhausted.
    """
    n = state.n_qubits
    a, b = pair
    keys, swap, stack = _pair_record(n, a, b, k, l)
    byproduct = frame.byproduct
    if byproduct.n != n:
        raise UsageError(f"length mismatch: {byproduct.n} vs {n}")
    # The leading bit keeps the keys of registers of different sizes apart in
    # the records of the levels they share.
    key = start = 1 << 2 * n | byproduct.z << n | byproduct.x
    # A round's byproducts s_k (x) 1 and 1 (x) s_l both commute with the target
    # s_k (x) s_l, so the frame's commutation with it, and this sign, hold for
    # the whole rotation: it picks the level's successors.
    swapped = (key & swap).bit_count() & 1
    level = _first_level(t_target, policy.key, (loss or _LOSSLESS).key)
    records: list[RoundRecord] = []
    if level is None:
        return state, frame, records

    # A quarter of the eigenvalues of the product of the rotating rounds, so the
    # sums below are the Pauli-sum coefficients: scaling by 1/4 is exact.
    d0 = d1 = d2 = d3 = 0.25 + 0j
    power = pauli = 0  # the Pauli rounds' product, i^power times the flip code pauli's string
    draw, bisect_right, append = rng.random, bisect.bisect_right, records.append
    current = None
    for _ in range(policy.max_rounds):
        if level is not current:  # rows build the successors, so read them on arrival only
            current, cumulative, rows = level, level.cumulative, level.rows[swapped]
        i = bisect_right(cumulative, draw())
        g, p0, p1, p2, p3, code, by_key, level = rows[i]
        if g is None:
            d0, d1, d2, d3 = d0 * p0, d1 * p1, d2 * p2, d3 * p3
        else:
            power += g
            pauli ^= code
        if code:
            key ^= keys[code]
        rec = by_key.get(key)
        if rec is None:
            out, mask = current.branches[i], ~(-1 << n)
            rec = by_key[key] = RoundRecord(out.label, current.eps, current.aimed,
                                            mask_text(n, key & mask, key >> n & mask),
                                            out.b_bits, out.lost)
        append(rec)
        if level is None:
            break

    # sum_j d_j P_j, P_j's sign bits j = (s_k bit) + 2 (s_l bit); exactly I after no round
    if power & 3 or pauli:
        f0, f1, f2, f3 = _PAULI_FOLD[pauli][power & 3]
        d0, d1, d2, d3 = d0 * f0, d1 * f1, d2 * f2, d3 * f3
    state = _apply(state, stack, (d0 + d1 + d2 + d3, d0 - d1 + d2 - d3,
                                  d0 + d1 - d2 - d3, d0 - d1 - d2 + d3))
    if key != start:
        mask = ~(-1 << n)
        frame = ErrorFrame.from_masks(n, key & mask, key >> n & mask)
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
