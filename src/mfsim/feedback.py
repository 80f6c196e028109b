"""Repeat-until-success controller realizing V(t) = e^{it XX} and V^{kl}(t).

Each round aims an angle, emits, measures, and updates a running residual:
a Plus outcome subtracts the aimed angle, a Minus outcome adds it (so the
next round aims double, reproducing the eps-doubling policy), and HH/VV
outcomes only multiply the Pauli error frame.  If the incoming frame
anticommutes with the rotation axis the roles of Plus and Minus are swapped
(the time direction is inverted).

A rotation therefore walks the doubling chain t, 2t, 4t, ... (mod pi).
Conjugating by u_k (x) u_l maps e^{it XX} to e^{it s_k x s_l} and X (x) 1,
1 (x) X to s_k, s_l, and leaves a round's weights, records and forms
unchanged, so one cache keeps every level of the chain, with its XX round's
weights, records and forms, per angle and the policy and loss objects that a
rotation's entry builds once, shared by every axis pair and frame sign.  A
level whose table was not built ahead builds its chain's next ``_BLOCK``
tables in one ``round_tables`` pass.
The frame is one integer, its Pauli string's ``key`` (``pauli`` alone knows
its layout).  A round is one bisection into the level's weights, an XOR of
the key when the branch flips a qubit (s_k / s_l at the pair sites), and one
integer appended, the round's code: the frame key after it above the id of
the (level, branch) row it read; ``Rounds`` decodes codes only when read.
Every branch's unitary is i^g X^f e^{i theta XX} for its form (theta, g, f),
and all of them commute.
The state is kept up to global phase, as the frame is, so a round adds theta
to an angle and XORs f into a flip code.  The product, up to a power of i, is
X^F e^{i Theta XX} = cos(Theta) X^F + i sin(Theta) X^(F ^ 3): on the pair,
two of the strings I, s_k, s_l and s_k s_l, applied once per rotation.  A
rotation makes one cache lookup, ``_rotation``, whose entry per (register
size, sites, axes, angle, eps rule, loss) holds the pair's masks and strings,
the first level and the rotation's operators by (Theta, F), each kept as the
callable that applies it to the amplitudes, emptied with the cache when all
entries keep 4096; a changed frame comes from ``pauli.frame_of_key``, the
string table keyed by the frame key.
"""

from __future__ import annotations

import bisect
import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass, fields
from enum import Enum
from operator import index
from typing import Optional

import numpy as np

from .errors import IncompleteRotationError, UsageError, config_int
from .loss import LossConfig, round_tables
from .pauli import PauliAxis, PauliString, frame_of_key
from .statevec import StateVector, apply_local  # noqa: F401 (perfbench traces it)
from .statevec import _pair_operator, _pauli_pairs

_ANGLE_TOL = 1e-12
_LOSSLESS = LossConfig()


class PolicyMode(Enum):
    RESIDUAL_EXACT = "residual_exact"
    PAPER_DOUBLING = "paper_doubling"

    __hash__ = object.__hash__  # identity, as equality is; the mode keys the rotation cache


@dataclass(frozen=True)
class EpsilonPolicy:
    """How each round picks its emission strength.

    RESIDUAL_EXACT inverts the exact outcome law, eps = tan(a)/(1 + tan(a))
    for aimed angle a, so a Plus outcome closes the residual exactly.
    PAPER_DOUBLING uses the small-angle rule eps = sin(a) literally; its
    aimed-angle sequence t, 2t, 4t, ... matches RESIDUAL_EXACT whenever no
    HH/VV outcome intervenes, but the realized rotation is only approximate.
    UsageError names ``policy.mode`` unless it is a member, ``policy.max_rounds``
    unless it is an integer of at least 1.
    """

    mode: PolicyMode = PolicyMode.RESIDUAL_EXACT
    max_rounds: int = 64

    def __post_init__(self):
        if not isinstance(self.mode, PolicyMode):
            raise UsageError(f"policy.mode must be a PolicyMode member, got {self.mode!r}")
        object.__setattr__(self, "max_rounds", config_int(self.max_rounds, "policy.max_rounds", 1))

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
    """One round's audit entry, read from the round's code by ``Rounds``."""

    outcome: str
    eps_used: float
    aimed_angle: float
    frame_after: str
    b_measurements: Optional[tuple[int, int]] = None
    lost: Optional[tuple[bool, bool]] = None

    def to_dict(self) -> dict:
        """The fields by name, tuples as lists; the optional ones only when set."""
        values = ((f.name, getattr(self, f.name)) for f in fields(self))
        return {k: list(v) if isinstance(v, tuple) else v for k, v in values if v is not None}


# A round's code is the frame key after it shifted up by _ROW_BITS, OR the id of
# the (level, branch) row it read: ``_rows[code & _ROW_MASK]`` is (outcome, eps,
# aimed angle, backup readings, lost photons).  Levels append rows and none is
# dropped, so a code reads the same all process long; mutated, never rebound.
_ROW_BITS, _ROW_MASK = 32, (1 << 32) - 1
_rows: list[tuple] = []


def round_record(code: int) -> RoundRecord:
    """The record of the round whose code is ``code``."""
    outcome, eps, aimed, b_bits, lost = _rows[code & _ROW_MASK]
    return RoundRecord(outcome, eps, aimed, frame_of_key(code >> _ROW_BITS).text, b_bits, lost)


@dataclass(eq=False, slots=True)
class Rounds(Sequence):
    """Rounds held as their ``codes``, read as ``RoundRecord``s; equal to a list of equal ones."""

    codes: list[int]

    def __len__(self):
        return len(self.codes)

    def __getitem__(self, i):
        codes = self.codes[i]
        return list(map(round_record, codes)) if isinstance(i, slice) else round_record(codes)

    def __eq__(self, other):  # also leaves Rounds unhashable, as a list is
        return isinstance(other, (list, Rounds)) and list(self) == list(other)


# The levels one ``round_tables`` pass builds tables for, fewer where the chain
# closes: the seed-0 benchmark ensembles walk chains 11 to 13 levels deep.
_BLOCK = 16
# Tables built ahead, (cumulative, branches, forms) by (eps, loss), until a
# level takes its own.  It is mutated, never rebound: a trajectory rebinds no global.
_waiting: dict[tuple, tuple] = {}
# The most tables ``_waiting`` holds: it is emptied before a block would pass it,
# and a level whose table went builds its block again, bit for bit.  A table
# measured 0.8 KB lossless and 4 KB with backup atoms (28 branches), so 1024
# tables keep at most about 4 MB.
_WAITING_BOUND = 1024


def _tables_ahead(residual: float, policy: EpsilonPolicy, loss: LossConfig) -> tuple:
    """The table of ``residual``'s level; its chain's next levels' tables are left waiting."""
    eps = []
    while len(eps) < _BLOCK and abs(residual) > _ANGLE_TOL:  # as ``_level`` doubles and closes
        eps.append(policy.eps_for(abs(residual)))
        residual = reduce_angle(residual + residual)
    tables = [(t.cumulative, t.branches, t.forms) for t in round_tables(eps, loss)]
    if len(_waiting) + len(tables) > _WAITING_BOUND:
        _waiting.clear()
    _waiting.update(zip([(e, loss) for e in eps[1:]], tables[1:]))
    return tables[0]


class _Level:
    """One level of a residual's doubling chain: the residual it aims at and its round's branches.

    It takes its table from ``_waiting`` or builds it with its successors'
    (``_tables_ahead``), keeps its weights, branches and forms, and passes its
    policy and loss on.  ``rows[s < 0][i]`` is what a round reads under frame
    sign s: (theta, f, flips, row, successor), with the branch's form less its
    power of i, the pair atoms it flips (bit 0 the first, bit 1 the second),
    its row id in ``_rows`` under either sign, and the level after it: this
    level when the branch does not rotate, None when s times its direction is
    the residual's sign (the branch closes it), else the level at the doubled
    residual, built with the rows, on the first round drawn here.
    """

    def __init__(self, residual: float, policy: EpsilonPolicy, loss: LossConfig):
        self.residual, self.policy, self.loss = residual, policy, loss
        self.aimed = abs(residual)
        self.eps = policy.eps_for(self.aimed)
        table = _waiting.pop((self.eps, loss), None) or _tables_ahead(residual, policy, loss)
        self.cumulative, self.branches, self.forms = table

    @functools.cached_property
    def rows(self) -> tuple[tuple[tuple, ...], ...]:
        r, sign = self.residual, 1 if self.residual > 0 else -1
        rotates = any(b.direction for b in self.branches)
        doubled = _level(r + r, self.policy, self.loss) if rotates else None
        first = len(_rows)
        _rows.extend((b.label, self.eps, self.aimed, b.b_bits, b.lost) for b in self.branches)
        return tuple(tuple(
            (theta, f, b.flips[0] + 2 * b.flips[1], row,
             self if b.direction is None else None if s * b.direction == sign else doubled)
            for row, ((theta, _, f), b) in enumerate(zip(self.forms, self.branches), first))
            for s in (1, -1))


@functools.cache
def _level(angle: float, policy: EpsilonPolicy, loss: LossConfig) -> Optional[_Level]:
    """The level at ``angle`` mod pi, first or doubled, per (angle, eps rule, loss); None at 0."""
    if not math.isfinite(angle):
        raise UsageError(f"rotation angle must be finite, got {angle}")
    residual = reduce_angle(angle)
    return _Level(residual, policy, loss) if abs(residual) > _ANGLE_TOL else None


@functools.cache
def _pair_record(n: int, a: int, b: int, k: PauliAxis, l: PauliAxis) -> tuple:
    """The checked frame-key masks of a rotation on sites (a, b) of n qubits; its Pauli strings.

    The strings I, s_k, s_l and s_k s_l on the pair come from
    ``PauliString.embed``, which checks the sites.  ``keys[c]`` is string c's
    ``xor_mask``: a branch with flip code c XORs it into the frame key.
    ``swap`` is the target s_k s_l's ``anticommutation_mask``, so a frame
    key's parity on it is the frame's anticommutation with the target.  The
    four strings are the Pauli sum's terms, kept as ``statevec._pauli_pairs``:
    dense up to 4 qubits (16 KB at 4), else gather rows (96 * 2^n bytes,
    384 KB at the 12-qubit cap).  Every key is kept, as ``_level`` keeps every
    angle.
    Bad input raises on every call, since an exception is not cached.
    """
    if k is PauliAxis.I or l is PauliAxis.I:
        raise UsageError("rotation axes must be X, Y, or Z")
    if a == b:
        raise UsageError("rotation needs two distinct qubits")
    strings = [PauliString.embed(n, sites) for sites in ({}, {a: k}, {b: l}, {a: k, b: l})]
    return (tuple(p.xor_mask for p in strings), strings[3].anticommutation_mask,
            _pauli_pairs(n, [(p.x, p.z) for p in strings]))


@functools.cache
def _rotation(n: int, a: int, b: int, k: PauliAxis, l: PauliAxis, angle: float,
              mode: PolicyMode, loss_key: tuple) -> tuple:
    """One rotation's entry: (keys, swap, pairs) of its pair record, its first level, operators.

    The keys are shifted up by ``_ROW_BITS``, as a round's code holds the frame
    key.  The level is ``_level``'s for the policy and loss built here, None at
    0 mod pi.  The last item, empty at first, maps (Theta, F) to the operator
    ``_keep_operator`` built for it.  Sites are ints (``realize_v_kl`` passes
    them through ``operator.index``), so the key need not be typed.  Bad input
    raises on every call, since an exception is not cached.
    """
    keys, swap, pairs = _pair_record(n, a, b, k, l)
    return (tuple(key << _ROW_BITS for key in keys), swap, pairs,
            _level(angle, EpsilonPolicy(mode), LossConfig(*loss_key)), {})


# The most operators all ``_rotation`` entries keep together, and (in a list, so
# the module's bindings never change) how many they keep: 4096 four-qubit
# matrices measured 18.5 MB with their keys, 4096 twelve-qubit gathers 1.5 MB.
_OPERATOR_BOUND = 4096
_operators_kept = [0]


def _keep_operator(operators: dict, pairs: tuple, product: tuple):
    """Build and keep the operator for ``product`` = (Theta, F): X^F e^{i Theta XX} on the axes.

    X^F e^{i Theta XX} = cos(Theta) X^F + i sin(Theta) X^(F ^ 3), two of the
    pair's four strings, kept as the callable that applies it to amplitudes:
    the bound ``dot`` of a read-only dense matrix up to 4 qubits (4 KB at 4),
    else a gather over two read-only coefficients and the pair's read-only rows.
    When all entries keep ``_OPERATOR_BOUND`` operators, ``_rotation`` is
    emptied and the count starts again.
    """
    angle, flips = product
    op = operators[product] = _pair_operator(pairs, flips, math.cos(angle), 1j * math.sin(angle))
    _operators_kept[0] += 1
    if _operators_kept[0] >= _OPERATOR_BOUND:
        _rotation.cache_clear()
        _operators_kept[0] = 0
    return op


def realize_v_kl(
    state: StateVector,
    pair: tuple[int, int],
    k: PauliAxis,
    l: PauliAxis,
    t_target: float,
    policy: EpsilonPolicy,
    frame: PauliString,
    rng,
    loss: Optional[LossConfig] = None,
) -> tuple[StateVector, PauliString, Rounds]:
    """Realize e^{i t s_k x s_l} on ``pair`` modulo the tracked error frame.

    Each round draws a branch of the XX table ``round_branches(eps, loss)``
    (lossless when ``loss`` is None; conjugation by u_k (x) u_l carries it to
    (k, l) with the same weights, records and forms) from the angle's
    cached doubling levels with one ``rng.random()`` (a numpy Generator or
    any object whose ``random()`` returns a uniform in [0, 1)).  When the
    rotation ends or runs out of rounds, the product of the drawn unitaries
    up to a power of i, X^F e^{i Theta XX} carried to (k, l), a sum of two of
    the Pauli strings I, s_k, s_l and s_k s_l on the pair, is applied once,
    its operator kept in the rotation's entry by (Theta, F) as the callable
    that maps the input amplitudes to the output's, wrapped once.  The output
    equals the exact product of the drawn unitaries applied to the input up
    to a power of i; on success the frame-corrected output equals the exact
    rotation applied to the frame-corrected input, up to global phase.
    The rounds come as ``Rounds``.  Sites are integers: a float site raises TypeError.
    Raises IncompleteRotationError (with state, frame, and residual attached)
    if max_rounds is exhausted.
    """
    n = state.n_qubits
    a, b = pair
    keys, swap, pairs, level, operators = _rotation(
        n, index(a), index(b), k, l, t_target, policy.mode, (loss or _LOSSLESS).key)
    if frame.n != n:
        raise UsageError(f"length mismatch: {frame.n} vs {n}")
    # A round's byproducts s_k (x) 1 and 1 (x) s_l both commute with the target
    # s_k (x) s_l, so the frame's commutation with it, and this sign, hold for
    # the whole rotation: it picks the level's successors.
    swapped = (frame.key & swap).bit_count() & 1
    codes: list[int] = []
    if level is None:
        return state, frame, Rounds(codes)

    # The sum of the rounds' angles and XOR of their Pauli flip codes: the
    # product of their commuting unitaries, up to a power of i.
    angle, pauli = 0.0, 0
    # The frame key, shifted as in a code; its leading bit tells the register size.
    key = start = frame.key << _ROW_BITS
    draw, bisect_right, append = rng.random, bisect.bisect_right, codes.append
    current = None
    for _ in range(policy.max_rounds):
        if level is not current:  # rows build the successors, so read them on arrival only
            current, cumulative, rows = level, level.cumulative, level.rows[swapped]
        theta, f, code, row, level = rows[bisect_right(cumulative, draw())]
        angle += theta
        pauli ^= f
        if code:
            key ^= keys[code]
        append(key | row)
        if level is None:
            break

    product = angle, pauli
    apply = operators.get(product) or _keep_operator(operators, pairs, product)
    out = object.__new__(StateVector)  # the output's slots filled here, as StateVector._wrap does
    out.amplitudes, out.n_qubits = apply(state.amplitudes), n
    state = out
    if key != start:
        frame = frame_of_key(key >> _ROW_BITS)
    if level is None:
        return state, frame, Rounds(codes)
    err = IncompleteRotationError(level.residual, Rounds(codes))
    err.state, err.frame = state, frame  # resumable: caller may retry with t = residual
    raise err


def realize_v(
    state: StateVector,
    pair: tuple[int, int],
    t_target: float,
    policy: EpsilonPolicy,
    frame: PauliString,
    rng: np.random.Generator,
    loss: Optional[LossConfig] = None,
) -> tuple[StateVector, PauliString, Rounds]:
    """Realize e^{it XX} on ``pair`` modulo the tracked error frame."""
    return realize_v_kl(
        state, pair, PauliAxis.X, PauliAxis.X, t_target, policy, frame, rng, loss
    )
