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
unchanged, so one level of the chain, with its XX round's weights, records
and forms, serves every axis pair and frame sign at its angle.  What a config
compiles for its rotations lives in one ``Program`` (``ProtocolConfig.program``),
built as the rotations first run and freed with the config: pair records,
rotation entries and their operators, levels by angle, tables built ahead by
eps, and the rows that round codes index.  A level whose table was not built
ahead builds its chain's next ``_BLOCK`` tables in one ``round_tables`` pass.
The frame is one integer, its Pauli string's ``key`` (``pauli`` alone knows
its layout).  A round is one bisection into the level's weights, an XOR of
the key when the branch flips a qubit (s_k / s_l at the pair sites), and one
integer appended, the round's code: the frame key after it above the id of
the (level, branch) row it read in its program's ``rows``.  Only this module
reads that layout: ``Rounds`` decodes codes through those rows only when read,
as records or as ``Rounds.outcomes``, and ``round_texts`` gives each distinct
code's audit JSON.
Every branch's unitary is i^g X^f e^{i theta XX} for its form (theta, g, f),
and all of them commute.
The state is kept up to global phase, as the frame is, so a round adds theta
to an angle and XORs f into a flip code.  The product, up to a power of i, is
X^F e^{i Theta XX} = cos(Theta) X^F + i sin(Theta) X^(F ^ 3): on the pair,
two of the strings I, s_k, s_l and s_k s_l, applied once per rotation.  A
rotation makes one lookup in its program's entries, per (sites, axes, angle),
whose entry holds the pair's masks and strings, the first level and the
rotation's operators by (Theta, F), each kept as the callable that applies it
to the amplitudes; a changed frame comes from ``pauli.frame_of_key``, the
string table keyed by the frame key.
"""

from __future__ import annotations

import bisect
import functools
import json
import math
from collections.abc import Sequence
from dataclasses import dataclass, fields
from enum import Enum
from operator import index
from typing import Optional

import numpy as np

from .errors import FrozenValue, IncompleteRotationError, UsageError, Value, config_float
from .errors import config_int
from .loss import LossConfig, round_tables
from .pauli import PauliAxis, PauliString, _check_pair, frame_of_key
from .statevec import StateVector, apply_local  # noqa: F401 (perfbench traces it)
from .statevec import _pair_operator, _pauli_pairs

_ANGLE_TOL = 1e-12
_LOSSLESS = LossConfig()


class PolicyMode(Enum):
    RESIDUAL_EXACT = "residual_exact"
    PAPER_DOUBLING = "paper_doubling"


@dataclass(init=False, repr=False, eq=False)
class EpsilonPolicy(FrozenValue):
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

    def __init__(self, mode: PolicyMode = PolicyMode.RESIDUAL_EXACT, max_rounds: int = 64):
        if not isinstance(mode, PolicyMode):
            raise UsageError(f"policy.mode must be a PolicyMode member, got {mode!r}")
        self.__dict__.update(mode=mode, max_rounds=config_int(max_rounds, "policy.max_rounds", 1))

    def eps_for(self, aimed: float) -> float:
        if self.mode is PolicyMode.RESIDUAL_EXACT:
            s, c = math.sin(aimed), math.cos(aimed)
            return s / (s + c)
        return min(1.0, max(0.0, math.sin(aimed)))


def reduce_angle(t: float) -> Optional[float]:
    """The residual a rotation by ``t`` aims at, ``t`` mod pi in (-pi/2, pi/2]: ``math.remainder``'s
    [-pi/2, pi/2] with its tie -pi/2 moved up to pi/2.  None within _ANGLE_TOL of a multiple of
    pi, where e^{it XX} is a global phase and no round is drawn."""
    r = math.remainder(t, math.pi)
    if abs(r) <= _ANGLE_TOL:
        return None
    return math.pi / 2 if r == -math.pi / 2 else r


@dataclass(init=False, repr=False, eq=False)
class RoundRecord(FrozenValue):
    """One round's audit entry, read from the round's code by ``Rounds``."""

    outcome: str
    eps_used: float
    aimed_angle: float
    frame_after: str
    b_measurements: Optional[tuple[int, int]] = None
    lost: Optional[tuple[bool, bool]] = None

    def __init__(self, outcome: str, eps_used: float, aimed_angle: float, frame_after: str,
                 b_measurements: Optional[tuple[int, int]] = None,
                 lost: Optional[tuple[bool, bool]] = None):
        self.__dict__.update(outcome=outcome, eps_used=eps_used, aimed_angle=aimed_angle,
                             frame_after=frame_after, b_measurements=b_measurements, lost=lost)

    def to_dict(self) -> dict:
        """The fields by name, tuples as lists; the optional ones only when set."""
        values = ((f.name, getattr(self, f.name)) for f in fields(self))
        return {k: list(v) if isinstance(v, tuple) else v for k, v in values if v is not None}


# A round's code is the frame key after it shifted up by _ROW_BITS, OR the id of
# the (level, branch) row it read: ``rows[code & _ROW_MASK]`` of its program is
# (outcome, eps, aimed angle, backup readings, lost photons).
_ROW_BITS, _ROW_MASK = 32, (1 << 32) - 1


def round_record(code: int, rows: Sequence[tuple]) -> RoundRecord:
    """The record of the round whose code is ``code``, its row one of ``rows``."""
    outcome, eps, aimed, b_bits, lost = rows[code & _ROW_MASK]
    return RoundRecord(outcome, eps, aimed, frame_of_key(code >> _ROW_BITS).text, b_bits, lost)


@dataclass(init=False, repr=False, eq=False, slots=True)
class Rounds(Value, Sequence):
    """Rounds held as their ``codes`` into their program's ``rows``, read as ``RoundRecord``s;
    equal to a list of equal ones."""

    codes: list[int]
    rows: Sequence[tuple] = ()

    def __init__(self, codes: list[int], rows: Sequence[tuple] = ()):
        self.codes = codes
        self.rows = rows

    def __len__(self):
        return len(self.codes)

    def __getitem__(self, i):
        codes, rows = self.codes[i], self.rows
        if isinstance(i, slice):
            return [round_record(code, rows) for code in codes]
        return round_record(codes, rows)

    def __eq__(self, other):  # also leaves Rounds unhashable, as a list is
        return isinstance(other, (list, Rounds)) and list(self) == list(other)

    @property
    def outcomes(self) -> list[str]:
        """Each round's outcome label, read through its row."""
        rows = self.rows
        return [rows[code & _ROW_MASK][0] for code in self.codes]


def round_texts(codes, rows: Sequence[tuple]) -> dict[int, str]:
    """Each distinct one of ``codes`` (into ``rows``) to its record's JSON, with sorted keys.

    A row's JSON is encoded once, with the frame at ``"frame_after": 0``, whose
    bare quotes no JSON string can contain, and split there around each of its
    codes' frame text.
    """
    codes = set(codes)
    split = {r: json.dumps(RoundRecord(*rows[r][:3], 0, *rows[r][3:]).to_dict(),  # 0: frame
                           sort_keys=True).split('"frame_after": 0')
             for r in {code & _ROW_MASK for code in codes}}
    return {code: '{0}"frame_after": "{2}"{1}'.format(
        *split[code & _ROW_MASK], frame_of_key(code >> _ROW_BITS).text) for code in codes}


# The levels one ``round_tables`` pass builds tables for, fewer where the chain
# closes: the seed-0 benchmark ensembles walk chains 11 to 13 levels deep.
_BLOCK = 16


class Program:
    """What one config compiles for its rotations, built as they first run and freed with it.

    It serves one register size, ``policy`` and ``loss`` (lossless when None),
    so no key holds them.  ``entries[a, b, k, l, angle]`` is a rotation's pair
    record ``pairs[a, b, k, l]``, its angle's first level (None at 0 mod pi)
    and the operators it has applied, by (Theta, F); ``levels[angle]`` is a
    level, first or doubled, ``waiting[eps]`` a table built ahead until a level
    takes it, and ``rows`` every (level, branch) row in the order the levels
    built them.  Nothing is kept for bad input, so it raises on every call:
    ``entry`` checks the angle, axes and sites before it builds anything.
    """

    def __init__(self, n_qubits: int, policy: EpsilonPolicy, loss: Optional[LossConfig] = None):
        self.n_qubits, self.policy, self.loss = n_qubits, policy, loss or _LOSSLESS
        self.entries, self.pairs, self.levels, self.waiting = {}, {}, {}, {}
        self.rows: list[tuple] = []

    def entry(self, a: int, b: int, k: PauliAxis, l: PauliAxis, angle: float) -> tuple:
        """Build and keep the entry of e^{i angle s_k x s_l} on sites (a, b); the angle is
        checked first, as a ``Rotation``'s (``errors.config_float``), then the pair record's."""
        config_float(angle, "angle")
        pair = self.pairs.get((a, b, k, l)) or self.pair_record(a, b, k, l)
        entry = self.entries[a, b, k, l, angle] = (*pair, self.level(angle), {})
        return entry

    def pair_record(self, a: int, b: int, k: PauliAxis, l: PauliAxis) -> tuple:
        """Build and keep (keys, swap, pairs), the checked record of sites (a, b) and axes (k, l).

        ``pauli._check_pair`` checks them as a ``Rotation``'s (two distinct sites >= 0, two axes
        of X, Y, Z), then ``PauliString.embed`` the sites against the register.  ``keys[c]``,
        shifted up by ``_ROW_BITS`` as in a code, is the ``xor_mask`` of string c of I, s_k, s_l
        and s_k s_l: a branch with flip code c XORs it into the frame key.  ``swap`` is the
        target's ``anticommutation_mask``.  ``pairs`` are the strings as ``statevec._pauli_pairs``:
        dense up to 4 qubits (16 KB at 4), else gather rows (384 KB at the 12-qubit cap).
        """
        _check_pair((a, b), (k, l), 0)
        n = self.n_qubits
        strings = [PauliString.embed(n, sites) for sites in ({}, {a: k}, {b: l}, {a: k, b: l})]
        pair = self.pairs[a, b, k, l] = (
            tuple(p.xor_mask << _ROW_BITS for p in strings), strings[3].anticommutation_mask,
            _pauli_pairs(n, [(p.x, p.z) for p in strings]))
        return pair

    def level(self, angle: float) -> Optional[_Level]:
        """The level at ``angle`` mod pi, first or doubled, built once; None at 0."""
        if angle not in self.levels:
            config_float(angle, "angle")
            residual = reduce_angle(angle)
            self.levels[angle] = None if residual is None else _Level(residual, self)
        return self.levels[angle]

    def tables_ahead(self, residual: float) -> tuple:
        """The table of ``residual``'s level; its chain's next levels' tables are left waiting."""
        eps = []
        while len(eps) < _BLOCK and residual is not None:  # as ``level`` doubles and closes
            eps.append(self.policy.eps_for(abs(residual)))
            residual = reduce_angle(residual + residual)
        tables = [(t.cumulative, t.branches, t.forms) for t in round_tables(eps, self.loss)]
        self.waiting.update(zip(eps[1:], tables[1:]))
        return tables[0]


class _Level:
    """One level of a residual's doubling chain: the residual it aims at and its round's branches.

    It takes its table from its program's ``waiting`` or builds it with its
    successors' (``Program.tables_ahead``), and keeps its weights, branches
    and forms.  ``rows[s < 0][i]`` is what a round reads under frame sign s:
    (theta, f, flips, row, successor), with the branch's form less its power
    of i, the pair atoms it flips (bit 0 the first, bit 1 the second), its
    row id in the program's ``rows`` under either sign, and the level after
    it: this level when the branch does not rotate, None when s times its
    direction is the residual's sign (the branch closes it), else the level at
    the doubled residual, built with the rows, on the first round drawn here.
    """

    def __init__(self, residual: float, program: Program):
        self.residual, self.program = residual, program
        self.aimed = abs(residual)
        self.eps = program.policy.eps_for(self.aimed)
        table = program.waiting.pop(self.eps, None) or program.tables_ahead(residual)
        self.cumulative, self.branches, self.forms = table

    @functools.cached_property
    def rows(self) -> tuple[tuple[tuple, ...], ...]:
        r, sign, program = self.residual, 1 if self.residual > 0 else -1, self.program
        rotates = any(b.direction for b in self.branches)
        doubled = program.level(r + r) if rotates else None
        first = len(program.rows)
        program.rows.extend((b.label, self.eps, self.aimed, b.b_bits, b.lost)
                            for b in self.branches)
        return tuple(tuple(
            (theta, f, b.flips[0] + 2 * b.flips[1], row,
             self if b.direction is None else None if s * b.direction == sign else doubled)
            for row, ((theta, _, f), b) in enumerate(zip(self.forms, self.branches), first))
            for s in (1, -1))


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
    program: Optional[Program] = None,
) -> tuple[StateVector, PauliString, Rounds]:
    """Realize e^{i t s_k x s_l} on ``pair`` modulo the tracked error frame.

    Each round draws a branch of the XX table ``round_branches(eps, loss)``
    (lossless when ``loss`` is None; conjugation by u_k (x) u_l carries it to
    (k, l) with the same weights, records and forms) from the angle's
    doubling levels with one ``rng.random()`` (a numpy Generator or any
    object whose ``random()`` returns a uniform in [0, 1)).  The levels and
    the rotation's entry come from ``program``, compiled for the state's
    register size, ``policy`` and ``loss`` (checked by identity first, then
    by value; UsageError for another), or, when None, from a program compiled
    for this call.  When the rotation ends or runs out of rounds, the product
    of the drawn unitaries up to a power of i, X^F e^{i Theta XX} carried to
    (k, l), a sum of two of the Pauli strings I, s_k, s_l and s_k s_l on the
    pair, is applied once, its operator kept in the rotation's entry by
    (Theta, F) as the callable that maps the input amplitudes to the output's,
    wrapped once.  The output equals the exact product of the drawn unitaries
    applied to the input up to a power of i; on success the frame-corrected
    output equals the exact rotation applied to the frame-corrected input, up to global phase.
    The rounds come as ``Rounds``.  Sites are integers: a float site raises TypeError.
    A frame of another size, or a site outside the register, raises UsageError; so does any
    pair, axis or angle that ``Rotation`` rejects, with ``Rotation``'s text (``_check_pair``,
    ``errors.config_float``), checked when the rotation's entry is built.  ``program`` keeps
    nothing of a call that raises.
    Raises IncompleteRotationError (with state, frame, and residual attached)
    if max_rounds is exhausted.
    """
    n = state.n_qubits
    if program is None:
        program = Program(n, policy, loss)
    elif (program.policy is not policy or program.loss is not loss or program.n_qubits != n) and (
            (program.n_qubits, program.policy, program.loss) != (n, policy, loss or _LOSSLESS)):
        raise UsageError("the program was compiled for another register size, policy or loss")
    if frame.n != n:
        raise UsageError(f"length mismatch: {frame.n} vs {n}")
    try:
        a, b = pair
    except (TypeError, ValueError):
        _check_pair(pair, (k, l), 0)  # raises: not two sites
        raise
    rot = index(a), index(b), k, l, t_target
    keys, swap, pairs, level, operators = program.entries.get(rot) or program.entry(*rot)
    # A round's byproducts s_k (x) 1 and 1 (x) s_l both commute with the target
    # s_k (x) s_l, so the frame's commutation with it, and this sign, hold for
    # the whole rotation: it picks the level's successors.
    swapped = (frame.key & swap).bit_count() & 1
    codes: list[int] = []
    if level is None:
        return state, frame, Rounds(codes, program.rows)

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
    apply = operators.get(product)
    if apply is None:  # X^F e^{i Theta XX} = cos(Theta) X^F + i sin(Theta) X^(F ^ 3)
        apply = operators[product] = _pair_operator(pairs, pauli, math.cos(angle),
                                                    1j * math.sin(angle))
    out = object.__new__(StateVector)  # the output's slots filled here, as StateVector._wrap does
    out.amplitudes, out.n_qubits = apply(state.amplitudes), n
    state = out
    if key != start:
        frame = frame_of_key(key >> _ROW_BITS)
    if level is None:
        return state, frame, Rounds(codes, program.rows)
    err = IncompleteRotationError(level.residual, Rounds(codes, program.rows))
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
    program: Optional[Program] = None,
) -> tuple[StateVector, PauliString, Rounds]:
    """Realize e^{it XX} on ``pair`` modulo the tracked error frame."""
    return realize_v_kl(
        state, pair, PauliAxis.X, PauliAxis.X, t_target, policy, frame, rng, loss, program
    )
