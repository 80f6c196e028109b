"""Trajectory execution, ensemble statistics, oracle comparison, and reporting.

Every trajectory derives its random generator purely from
(master_seed, trajectory index), so reruns of the same configuration are
bit-identical regardless of execution order.
"""

from __future__ import annotations

import collections
import functools
import itertools
import json
import math
import operator
import types
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .compiler import HamiltonianSpec, LocalGate, Rotation, TrotterPlan, apply_plan, compile_plan
from .emission import BeamSplitterOutcome, PhotonEncoding, outcome_probabilities
from .errors import ConfigError, FrozenValue, IncompleteRotationError, ResourceError, UsageError
from .errors import Value, config_choice, config_errors, config_float, config_int, config_object
from .feedback import EpsilonPolicy, PolicyMode, Program, Rounds, realize_v_kl, round_texts
from .loss import CNOT_MATRIX, LossConfig, round_branches
from .pauli import _AXIS_MATRICES, PauliAxis, PauliString
from .statevec import StateVector, _apply, _check_cap, apply_evolution, apply_pauli_string

_H_GATE = np.array([[1, 1], [1, -1]], dtype=float) / np.sqrt(2)
_FRAMED_ORACLE_CAP = 256  # framed oracles a config keeps: 16 MB at the 12-qubit cap
# Rounds a config may ask for at worst, trajectories x n_steps x rotations per
# step x policy.max_rounds: at about 2 us a round, 2^40 of them take weeks.
WORK_BUDGET = 2**40


def _unique_keys(pairs: list) -> dict:
    """A JSON object as a dict; ConfigError names a key it repeats (json.load keeps the last)."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise ConfigError(f"repeated key {key!r}")
        out[key] = value
    return out


_DEFAULT_POLICY, _DEFAULT_LOSS = EpsilonPolicy(), LossConfig()


@dataclass(init=False, repr=False, eq=False)
class ProtocolConfig(FrozenValue):
    """One run: the Hamiltonian, evolution time, Trotter steps, feedback policy, loss model,
    initial state, trajectory count and master seed, each checked when built."""

    hamiltonian: HamiltonianSpec
    t: float
    n_steps: int
    policy: EpsilonPolicy = _DEFAULT_POLICY
    loss: LossConfig = _DEFAULT_LOSS
    initial_state: object = "all_zeros"  # preset name, {"random_seed": k} or {"amplitudes": ...}
    trajectories: int = 1
    master_seed: int = 0

    def __init__(self, hamiltonian: HamiltonianSpec, t: float, n_steps: int,
                 policy: EpsilonPolicy = _DEFAULT_POLICY, loss: LossConfig = _DEFAULT_LOSS,
                 initial_state: object = "all_zeros", trajectories: int = 1, master_seed: int = 0):
        """Check every value: UsageError names the key, ResourceError past WORK_BUDGET rounds."""
        self.__dict__.update(hamiltonian=hamiltonian, t=config_float(t, "t"), n_steps=n_steps,
                             policy=policy, loss=loss, initial_state=initial_state,
                             trajectories=trajectories, master_seed=master_seed)
        self.__dict__.update(n_steps=self.plan.n_steps,  # compile_plan checks every rotation angle
                             trajectories=config_int(trajectories, "trajectories", 0),
                             master_seed=config_int(master_seed, "master_seed", 0))
        self.__dict__["_build_amplitudes"] = _initial_state(initial_state, hamiltonian.n_qubits)
        work = self.trajectories * self.plan.total_rotations * self.policy.max_rounds
        if work > WORK_BUDGET:
            from decimal import Decimal  # formats an int of any size, where float overflows

            raise ResourceError(f"trajectories x n_steps x rotations per step x policy.max_rounds "
                                f"is {Decimal(work):.3e}, past the work budget of 2^40 rounds")

    def __hash__(self):
        """Equal configs hash equal; ``initial_state`` may be an unhashable dict, so it is left out."""
        return hash((self.hamiltonian, self.t, self.n_steps, self.policy, self.loss,
                     self.trajectories, self.master_seed))

    @classmethod
    def from_dict(cls, d: dict) -> "ProtocolConfig":
        """Parse a configuration object; ConfigError names the first bad, unknown or missing key.

        ResourceError when the config asks for more than WORK_BUDGET rounds at worst.
        """
        with config_errors():
            config_object(d, "", ("policy", "loss", "initial_state", "trajectories", "master_seed"),
                          ("hamiltonian", "t", "n_steps"))
            pol = config_object(d.get("policy", {}), "policy", {"mode", "max_rounds"})
            lo = config_object(d.get("loss", {}), "loss", {"p_loss", "encoding", "backup_enabled"})
            # the keys present, enum names mapped to members; the dataclasses hold the defaults
            chosen = lambda o, key, enum, path: {  # noqa: E731
                k: config_choice(enum, v, f"{path}.{k}") if k == key else v for k, v in o.items()}
            return cls(
                HamiltonianSpec.from_dict(d["hamiltonian"]), d["t"], d["n_steps"],
                EpsilonPolicy(**chosen(pol, "mode", PolicyMode, "policy")),
                LossConfig(**chosen(lo, "encoding", PhotonEncoding, "loss")),
                **{k: d[k] for k in ("initial_state", "trajectories", "master_seed") if k in d})

    @functools.cached_property
    def plan(self) -> TrotterPlan:
        """The compiled Trotter plan, computed once per config."""
        return compile_plan(self.hamiltonian, self.t, self.n_steps)

    @functools.cached_property
    def initial_amplitudes(self) -> np.ndarray:
        """Normalized initial data amplitudes, computed once per config (read-only)."""
        amp = self._build_amplitudes()  # checked when the config was built
        amp.flags.writeable = False
        return amp

    @functools.cached_property
    def oracle_state(self) -> np.ndarray:
        """Exact final data amplitudes e^{itH}|psi_0>, computed once per config (read-only)."""
        oracle = apply_evolution(self.hamiltonian, self.t, self.initial_amplitudes)
        oracle.flags.writeable = False
        return oracle

    @functools.cached_property
    def program(self) -> Program:
        """The feedback program of the config's rotations, built once per config, freed with it."""
        return Program(self.hamiltonian.n_qubits, self.policy, self.loss)

    @functools.cached_property
    def framed_oracles(self) -> dict:
        """P|oracle> per final frame's key, read-only; _FRAMED_ORACLE_CAP at most."""
        return {}

    @classmethod
    def from_json_file(cls, path) -> "ProtocolConfig":
        """Parse a JSON config file; ConfigError for an unreadable file, bad JSON or repeated key."""
        try:
            with open(path) as f:
                data = json.load(f, object_pairs_hook=_unique_keys)
        except (OSError, ValueError) as exc:  # ValueError: bad JSON, UTF-8 or integer literal
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        return cls.from_dict(data)

    def to_dict(self) -> dict:
        return {
            "hamiltonian": self.hamiltonian.to_dict(),
            "t": self.t,
            "n_steps": self.n_steps,
            "policy": {"mode": self.policy.mode.value, "max_rounds": self.policy.max_rounds},
            "loss": {
                "p_loss": self.loss.p_loss,
                "encoding": self.loss.encoding.value,
                "backup_enabled": self.loss.backup_enabled,
            },
            "initial_state": self.initial_state,
            "trajectories": self.trajectories,
            "master_seed": self.master_seed,
        }


def trajectory_rng(master_seed: int, index: int) -> np.random.Generator:
    """Deterministic per-trajectory generator, a pure function of (seed, index).

    Bit for bit ``Generator(PCG64(SeedSequence([master_seed, index])))``, seeded with words
    from the index's ``_seed_block``.  Every stream starts here: ``_draw_block`` fills its rows
    from it, ``run_trajectory`` reads them first, and ``cnot_demo`` reads it directly.
    """
    if master_seed < 0 or index < 0:
        raise ValueError("expected non-negative integer")  # SeedSequence's error
    block, row = divmod(index, _SEED_BLOCK)
    words = _seed_block(master_seed, block)[row]
    return np.random.Generator(np.random.PCG64(_seed_words()(words)))


_SEED_BLOCK = 256
_DRAW_BLOCK, _DRAWS = 32, 256  # trajectories a draw block holds, and the draws of each


def _words(n: int) -> list[int]:
    """SeedSequence's 32-bit entropy words of a non-negative int, low word first."""
    n = operator.index(n)
    return [n >> shift & 0xFFFFFFFF for shift in range(0, max(n.bit_length(), 1), 32)]


def _hasher(const: int, mult: int):
    """SeedSequence's hash on uint32 arrays: xor a running constant, advance it, multiply, shift."""
    def hash_(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & 0xFFFFFFFF
        value *= np.uint32(const)
        return value ^ (value >> np.uint32(16))
    return hash_


@functools.lru_cache(maxsize=16)
def _seed_block(master_seed: int, block: int) -> np.ndarray:
    """``SeedSequence([master_seed, i]).generate_state(4, np.uint64)`` for the 256 i of ``block``.

    SeedSequence's four-word pool on uint32 arrays, one column per index; read-only, (256, 4).
    As 256 divides 2^32, a block's indices have as many entropy words and differ in the low one.
    """
    seed = _words(master_seed)
    words = seed + _words(block * _SEED_BLOCK)
    words += [0] * (4 - len(words))  # zero words pad short entropy to the pool
    entropy = np.tile(np.array(words, dtype=np.uint32)[:, None], _SEED_BLOCK)
    entropy[len(seed)] += np.arange(_SEED_BLOCK, dtype=np.uint32)  # each index's low word
    hashmix = _hasher(0x43B0D7E5, 0x931E8875)  # INIT_A, MULT_A
    mixer = [hashmix(e) for e in entropy[:4]] + list(entropy[4:])  # the pool, further entropy
    # mix: each pool word into the other three, then each further entropy word into all four
    for src, dst in itertools.chain(itertools.permutations(range(4), 2),
                                    itertools.product(range(4, len(mixer)), range(4))):
        value = np.uint32(0xCA01F9DD) * mixer[dst] - np.uint32(0x4973F715) * hashmix(mixer[src])
        mixer[dst] = value ^ (value >> np.uint32(16))
    finish = _hasher(0x8B51F9DD, 0x58F38DED)  # INIT_B, MULT_B
    state = np.stack([finish(mixer[i % 4]) for i in range(8)], axis=1)
    block_words = state.astype("<u4", copy=False).view("<u8").astype(np.uint64)
    block_words.flags.writeable = False
    return block_words


@functools.cache
def _seed_words():
    """The ISeedSequence that hands PCG64 ready words, defined on first use.

    numpy 2 loads ``numpy.random`` lazily, and parsing a config does not load it.
    """
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        __slots__ = ("words",)

        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if (n_words, dtype) != (4, np.uint64):  # the one request PCG64 makes
                raise ValueError("SeedWords holds the four uint64 words of a PCG64 seed")
            return self.words

    return SeedWords


@functools.lru_cache(maxsize=1)
def _draw_block(master_seed: int, block: int) -> np.ndarray:
    """The first 256 ``random()`` draws of trajectories 32 block .. 32 block + 31, one row each.

    Read-only, (32, 256) float64, 64 KB; row r is ``trajectory_rng``'s, of index 32 block + r.
    """
    draws = np.empty((_DRAW_BLOCK, _DRAWS))
    for index, row in enumerate(draws, block * _DRAW_BLOCK):
        trajectory_rng(master_seed, index).random(out=row)
    draws.flags.writeable = False
    return draws


def _uniform_lists(master_seed: int, index: int):
    """The draws of the index's generator in lists of 64: its ``_draw_block`` row, then its own."""
    block, row = divmod(index, _DRAW_BLOCK)
    draws = _draw_block(master_seed, block)
    for start in range(0, _DRAWS, 64):
        yield draws[row, start:start + 64].tolist()
    rng = trajectory_rng(master_seed, index)
    rng.bit_generator.advance(_DRAWS)  # PCG64's exact jump-ahead, past the row's draws
    yield from iter(lambda: rng.random(64).tolist(), None)


def _trajectory_uniforms(master_seed: int, index: int):
    """An object whose ``random()`` yields the draws of ``trajectory_rng(master_seed, index)``.

    Each draw is a C-level ``next`` over ``_uniform_lists``; a negative seed or index raises
    numpy's ValueError here, before any cache is read.
    """
    if master_seed < 0 or index < 0:
        raise ValueError("expected non-negative integer")  # SeedSequence's error
    uniforms = itertools.chain.from_iterable(_uniform_lists(master_seed, index))
    return types.SimpleNamespace(random=functools.partial(next, uniforms))


def haar_random_amplitudes(n_qubits: int, rng: np.random.Generator) -> np.ndarray:
    dim = 1 << n_qubits
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


_PRESETS = {
    "all_zeros": lambda dim: np.eye(1, dim, dtype=complex)[0],
    "all_plus": lambda dim: np.full(dim, 1.0 / math.sqrt(dim), dtype=complex),
}


def _initial_state(init, n: int):
    """Check ``initial_state`` for n qubits; return a function building its normalized amplitudes.

    Presets and the Haar draw wait for that call, so a register past the dense cap still parses.
    UsageError names the bad key.
    """
    if isinstance(init, str):
        if init not in _PRESETS:
            presets = ", ".join(map(repr, _PRESETS))
            raise UsageError(f"initial_state names an unknown initial-state preset {init!r}, "
                             f"expected one of {presets} or an object")
        return lambda: _PRESETS[init](1 << n)
    if len(config_object(init, "initial_state", {"random_seed", "amplitudes"})) != 1:
        raise UsageError("initial_state needs exactly one of random_seed, amplitudes")
    try:
        if "random_seed" in init:
            seed = config_int(init["random_seed"], "initial_state.random_seed")
            if seed < 0:  # numpy's text; parsing does not import numpy.random
                raise ValueError("expected non-negative integer")
            return lambda: haar_random_amplitudes(n, np.random.default_rng(seed))
        key = "initial_state.amplitudes"
        amp = np.array([complex(config_float(re, key), config_float(im, key))
                        for re, im in init["amplitudes"]])
    except (TypeError, ValueError) as exc:
        raise UsageError(f"cannot interpret initial state {init!r}: {exc}") from exc
    dim = 1 << n if n < 63 else f"2**{n}"  # no JSON list holds 2^63 entries
    if amp.shape != (dim,):
        raise UsageError(f"initial state has {amp.shape[0]} amplitudes, expected {dim}")
    # Squares overflow past 1e154, so take the norm of amp / 2^e, e the exponent of its
    # largest part: the scaling is exact, and so are the normalized amplitudes.
    e = max(0, math.frexp(np.abs(amp.view(float)).max())[1])
    unit = amp * math.ldexp(1.0, -e)
    scaled = np.linalg.norm(unit)
    with np.errstate(over="ignore"):  # a norm past the largest float reads inf
        nrm = float(np.ldexp(scaled, e))
    if not 1e-12 <= nrm < math.inf:
        raise UsageError(f"initial state has norm {nrm}")
    return lambda: unit / scaled


def build_register(cfg: ProtocolConfig) -> StateVector:
    """The data register in its initial state; photons and backups live in the round tables.

    ResourceError past the register cap, checked before the amplitudes are built.
    """
    n = _check_cap(cfg.hamiltonian.n_qubits)
    return StateVector._wrap(cfg.initial_amplitudes, n)


@dataclass(init=False, repr=False, eq=False)
class TrajectoryStats(Value):
    """One trajectory; ``records`` reads its rounds' ``codes`` through its program's ``rows``, and
    ``tallies`` (outcome histogram, photon retry counts) counts their outcomes once, when first read.
    """

    index: int
    rounds_per_rotation: list[int]
    final_frame: str
    fidelity_vs_oracle: float
    failure_reason: Optional[str]
    codes: list[int] = field(default_factory=list)
    rows: Sequence[tuple] = field(default=(), repr=False)

    def __init__(self, index: int, rounds_per_rotation: list[int], final_frame: str,
                 fidelity_vs_oracle: float, failure_reason: Optional[str],
                 codes: Optional[list[int]] = None, rows: Sequence[tuple] = ()):
        self.index = index
        self.rounds_per_rotation = rounds_per_rotation
        self.final_frame = final_frame
        self.fidelity_vs_oracle = fidelity_vs_oracle
        self.failure_reason = failure_reason
        self.codes = [] if codes is None else codes
        self.rows = rows

    records = property(lambda self: Rounds(self.codes, self.rows))
    rounds_total = property(lambda self: len(self.codes))
    outcome_histogram = property(lambda self: self.tallies[0])
    photon_retry_counts = property(lambda self: self.tallies[1])
    loss_events = property(lambda self: self.outcome_histogram.get("loss", 0))
    failed = property(lambda self: self.failure_reason is not None)

    @functools.cached_property
    def tallies(self) -> tuple[dict, list[int]]:
        """The outcome histogram, keys sorted, and each kept (not lost) round's retry count.

        A retry count is the distance from a kept round to the kept round before it, or to the
        trajectory's start less one: 1 for every kept round when none was lost.
        """
        outcomes = self.records.outcomes
        kept = [i for i, outcome in enumerate(outcomes) if outcome != "loss"]
        histogram = dict(sorted(collections.Counter(outcomes).items()))
        return histogram, [i - before for before, i in zip([-1, *kept], kept)]

    def to_dict(self) -> dict:
        """The audit entry; ``emit_report`` writes ``json.dumps(to_dict(), sort_keys=True)``."""
        return {**self.summary(), "rounds": [r.to_dict() for r in self.records]}

    def summary(self) -> dict:
        """The audit entry without its rounds."""
        return {
            "trajectory": self.index,
            "rounds_total": self.rounds_total,
            "rounds_per_rotation": self.rounds_per_rotation,
            "outcome_histogram": dict(self.outcome_histogram),  # a copy of the cached, sorted one
            "loss_events": self.loss_events,
            "photon_retry_counts": self.photon_retry_counts,
            "final_frame": self.final_frame,
            "fidelity_vs_oracle": self.fidelity_vs_oracle,
            "failed": self.failed,
            "failure_reason": self.failure_reason,
        }


def _run_operations(operations, state: StateVector, rng, program: Program):
    """Run ``operations`` on ``state`` from the identity frame; ``program`` draws from ``rng``.

    Returns (state, frame, rounds, rounds per rotation, stop), ``rounds`` a ``Rounds``, ``stop``
    the IncompleteRotationError that ended the run, with its rotation as ``stop.rotation``, or None.
    """
    frame, codes, rounds_per_rotation = PauliString.identity(state.n_qubits), [], []
    try:
        for op in operations:
            if type(op) is LocalGate:  # the frame's Pauli at its site, then its checked gate
                site, n = op.site, frame.n
                if site >= n:
                    raise UsageError(f"site {site} is past the {n}-qubit register")
                if frame.text[site] != "I":
                    state = _apply(state, (site,), _AXIS_MATRICES[frame.text[site]])
                state = _apply(state, (site,), op.gate)
                frame = PauliString.from_masks(n, frame.x & ~(1 << site), frame.z & ~(1 << site))
                continue
            k, l = op.axes
            state, frame, rounds = realize_v_kl(
                state, op.sites, k, l, op.angle, program.policy, frame, rng, program.loss, program)
            codes += rounds.codes
            rounds_per_rotation.append(len(rounds.codes))
    except IncompleteRotationError as stop:
        stop.rotation = op
        codes += stop.records.codes
        rounds_per_rotation.append(len(stop.records.codes))
        return stop.state, stop.frame, Rounds(codes, program.rows), rounds_per_rotation, stop
    return state, frame, Rounds(codes, program.rows), rounds_per_rotation, None


def run_trajectory(cfg: ProtocolConfig, index: int) -> TrajectoryStats:
    """Execute the compiled plan once, then compare against the exact oracle."""
    rng = _trajectory_uniforms(cfg.master_seed, index)
    state, frame, rounds, rounds_per_rotation, stop = _run_operations(
        cfg.plan.operations(), build_register(cfg), rng, cfg.program)
    failure_reason = None if stop is None else (
        f"rotation on {stop.rotation.sites} incomplete, residual {stop.residual:.3e}")

    # |<P oracle|psi>|^2 = |<oracle|P psi>|^2 for the frame's string P
    oracle = cfg.framed_oracles.get(frame.key)
    if oracle is None:  # a new frame; past the cap, framed again by every trajectory
        oracle = apply_pauli_string(StateVector(cfg.oracle_state), frame).amplitudes
        oracle.flags.writeable = False
        if len(cfg.framed_oracles) < _FRAMED_ORACLE_CAP:
            cfg.framed_oracles[frame.key] = oracle
    fid = float(abs(np.vdot(oracle, state.amplitudes)) ** 2)
    return TrajectoryStats(index, rounds_per_rotation, frame.text, fid, failure_reason,
                           rounds.codes, rounds.rows)


def run_ensemble(cfg: ProtocolConfig) -> tuple[dict, list[TrajectoryStats]]:
    """Run all trajectories and aggregate; failed trajectories are kept, not resampled."""
    build_register(cfg)  # the register cap and the initial state hold even for no trajectory
    stats = [run_trajectory(cfg, i) for i in range(cfg.trajectories)]
    return aggregate_report(cfg, stats), stats


def aggregate_report(cfg: ProtocolConfig, stats: list[TrajectoryStats]) -> dict:
    """The ensemble's report, from each trajectory's own tallies."""
    fids = [s.fidelity_vs_oracle for s in stats]
    rounds, counts = sum(s.rounds_total for s in stats), [s.rounds_per_rotation for s in stats]
    retries = [r for s in stats for r in s.photon_retry_counts]
    histogram, sums, sizes = collections.Counter(), collections.Counter(), collections.Counter()
    for s in stats:
        histogram.update(s.outcome_histogram)
    # an operation's counts are a column of the lists; a failed trajectory's list ends early
    for rot, column in zip(cfg.plan.operations(), itertools.zip_longest(*counts)):
        sums[rot.label] += sum(filter(None, column))
        sizes[rot.label] += len(column) - column.count(None)
    mean = lambda total, n: total / n if n else None  # noqa: E731; of int totals, np.mean's float
    return {
        "config": cfg.to_dict(),
        "n_trajectories": len(stats),
        "n_failed": sum(s.failed for s in stats),
        "fidelity": {k: float(f(fids)) if fids else None
                     for k, f in (("mean", np.mean), ("variance", np.var), ("min", min))},
        "rounds": {"total": rounds, "mean_per_trajectory": mean(rounds, len(stats)),
                   "mean_per_rotation": mean(sum(sums.values()), sum(sizes.values()))},
        "outcome_frequencies": {k: v / histogram.total() for k, v in sorted(histogram.items())},
        "outcome_counts": dict(sorted(histogram.items())),
        "loss": {"events": histogram["loss"], "retry_mean": mean(sum(retries), len(retries)),
                 "retry_count": len(retries)},
        "rounds_per_rotation_site": {k: sums[k] / sizes[k] for k in sorted(sizes)},
    }


def probe_rounds(eps: float, samples: int, rng: np.random.Generator) -> dict:
    """Sample the four-outcome law at fixed eps.

    The outcome distribution of a lossless round is independent of the atomic
    state, so the Born probabilities are read once from the round's Kraus
    table (on the pair state |00>) and the outcomes drawn as one multinomial.
    UsageError for ``samples`` below 1.
    """
    samples = config_int(samples, "samples", 1)
    table = round_branches(eps, LossConfig())
    on_00 = (abs(table.kraus[:, :, 0]) ** 2).sum(axis=1)  # ||K|00>||^2 per branch
    weights = {br.label: w for br, w in zip(table.branches, on_00)}
    labels = [o.value for o in BeamSplitterOutcome]
    probs = np.array([weights.get(lab, 0.0) for lab in labels])
    counts = rng.multinomial(samples, probs / probs.sum())
    analytic = outcome_probabilities(eps)
    return {
        "eps": eps,
        "samples": samples,
        "counts": {lab: int(c) for lab, c in zip(labels, counts)},
        "frequencies": {lab: float(c / samples) for lab, c in zip(labels, counts)},
        "analytic": {k.value: v for k, v in analytic.items()},
    }


# The two-qubit program turning e^{i pi/4 XX} into CNOT (control = first qubit),
# verified against the dense oracle in the test suite:
#   (A1 (x) A2) . e^{i pi/4 XX} . (B1 (x) B2) = CNOT up to global phase.
def cnot_program() -> tuple:
    """[B1 on 0, B2 on 1, V(pi/4) = e^{i pi/4 XX} on (0, 1), A1 on 0, A2 on 1]."""
    rz = np.diag([np.exp(-1j * np.pi / 4), np.exp(1j * np.pi / 4)])  # e^{-i pi/4 Z}
    rx = np.cos(np.pi / 4) * np.eye(2) - 1j * np.sin(np.pi / 4) * np.array([[0, 1], [1, 0]])
    return (LocalGate(0, _H_GATE), LocalGate(1, np.eye(2)),
            Rotation((0, 1), (PauliAxis.X, PauliAxis.X), math.pi / 4),
            LocalGate(0, rz @ _H_GATE), LocalGate(1, rx))


def _cnot_demo_inputs() -> list[np.ndarray]:
    basis = [np.eye(4, dtype=complex)[i] for i in range(4)]
    plus_plus = np.full(4, 0.5, dtype=complex)
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / math.sqrt(2)
    return basis + [plus_plus, bell]


def cnot_demo(
    policy: EpsilonPolicy,
    master_seed: int = 0,
    p_loss: float = 0.0,
    backup: bool = False,
) -> dict:
    """Run ``cnot_program`` on six inputs, input i as trajectory i of the seed; compare to CNOT.

    Process fidelity is the mean state fidelity over the four computational
    basis inputs plus two superposition inputs.  IncompleteRotationError when
    V(pi/4) runs out of rounds.
    """
    operations = cnot_program()
    program = Program(2, policy, LossConfig(p_loss=p_loss, backup_enabled=backup))

    fidelities = []
    total_rounds = 0
    for i, data_amp in enumerate(_cnot_demo_inputs()):
        state, _, rounds, _, stop = _run_operations(
            operations, StateVector(data_amp), trajectory_rng(master_seed, i), program)
        if stop is not None:
            raise stop
        total_rounds += len(rounds)
        fidelities.append(float(abs(np.vdot(CNOT_MATRIX @ data_amp, state.amplitudes)) ** 2))

    return {
        "t": math.pi / 4,
        "p_loss": p_loss,
        "backup": backup,
        "input_fidelities": fidelities,
        "process_fidelity": float(np.mean(fidelities)),
        "total_rounds": total_rounds,
    }


def noiseless_plan_fidelity(cfg: ProtocolConfig) -> float:
    """Fidelity of the noiseless plan execution (``apply_plan``) against the exact oracle."""
    oracle = cfg.oracle_state  # checks the dense cap before the plan runs
    return float(abs(np.vdot(oracle, apply_plan(cfg.plan, cfg.initial_amplitudes))) ** 2)


def _audit_lines(stats: list[TrajectoryStats]):
    """Each trajectory's ``json.dumps(s.to_dict(), sort_keys=True)`` line, from its rounds' codes.

    A round's text comes from ``round_texts``, once per distinct code of a
    program's rows; the rounds go at ``"rounds": 0``, whose bare quotes no JSON
    string can contain.
    """
    codes = {}  # by the id of a program's rows: the rows and the codes into them
    for s in stats:
        codes.setdefault(id(s.rows), (s.rows, set()))[1].update(s.codes)
    texts = {key: round_texts(used, rows) for key, (rows, used) in codes.items()}
    for s in stats:
        line = json.dumps({**s.summary(), "rounds": 0}, sort_keys=True)
        head, _, tail = line.partition('"rounds": 0')
        yield f'{head}"rounds": [{", ".join(map(texts[id(s.rows)].__getitem__, s.codes))}]{tail}\n'


def emit_report(
    report: dict,
    stats: list[TrajectoryStats],
    out_dir,
    fmt: str = "json",
) -> list[Path]:
    """Write the aggregate report plus the per-trajectory JSON-lines audit log.

    Wall-clock timings are deliberately excluded so identical configurations
    produce byte-identical files.  UsageError, before any file is written, unless
    ``fmt`` is "json" or "csv".
    """
    if fmt not in ("json", "csv"):
        raise UsageError(f"fmt must be 'json' or 'csv', got {fmt!r}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    report_path = out / "report.json"
    report_path.write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
    written.append(report_path)

    audit_path = out / "audit.jsonl"
    with open(audit_path, "w") as f:
        f.writelines(_audit_lines(stats))
    written.append(audit_path)

    if fmt == "csv":
        import csv  # here alone, so a run that writes no CSV does not load the module

        csv_path = out / "rounds_per_rotation.csv"
        with open(csv_path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["rotation_site", "mean_rounds"])
            for key, val in report.get("rounds_per_rotation_site", {}).items():
                w.writerow([key, val])
        written.append(csv_path)
    return written
