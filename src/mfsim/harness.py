"""Trajectory execution, ensemble statistics, oracle comparison, and reporting.

Every trajectory derives its random generator purely from
(master_seed, trajectory index), so reruns of the same configuration are
bit-identical regardless of execution order.
"""

from __future__ import annotations

import csv
import functools
import itertools
import json
import math
import operator
import sys
import types
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .compiler import (
    HamiltonianSpec,
    TrotterPlan,
    compile_plan,
    config_bool,
    config_choice,
    config_float,
    config_int,
    config_object,
)
from .emission import BeamSplitterOutcome, PhotonEncoding, outcome_probabilities
from .errors import ConfigError, IncompleteRotationError, ResourceError
from .feedback import EpsilonPolicy, PolicyMode, RoundRecord, realize_v, realize_v_kl
from .loss import CNOT_MATRIX, LossConfig, round_branches
from .pauli import ErrorFrame
from .statevec import (
    DEFAULT_QUBIT_CAP,
    RegisterLayout,
    StateVector,
    _apply,
    apply_pauli_string,
    exact_evolution,
)

_H_GATE = np.array([[1, 1], [1, -1]], dtype=float) / np.sqrt(2)
_FRAMED_ORACLE_CAP = 256  # framed oracles a config keeps: 16 MB at the 12-qubit cap


@dataclass(frozen=True)
class ProtocolConfig:
    hamiltonian: HamiltonianSpec
    t: float
    n_steps: int
    policy: EpsilonPolicy = EpsilonPolicy()
    loss: LossConfig = LossConfig()
    initial_state: object = "all_zeros"  # preset name, {"random_seed": k} or {"amplitudes": ...}
    trajectories: int = 1
    master_seed: int = 0

    @classmethod
    def from_dict(cls, d: dict) -> "ProtocolConfig":
        """Parse a configuration object; ConfigError names the first bad, unknown or missing key."""
        try:
            config_object(d, "", ("policy", "loss", "initial_state", "trajectories", "master_seed"),
                          ("hamiltonian", "t", "n_steps"))
            h = HamiltonianSpec.from_dict(d["hamiltonian"])
            t = config_float(d["t"], "t")
            n_steps = config_int(d["n_steps"], "n_steps")
            pol = config_object(d.get("policy", {}), "policy", {"mode", "max_rounds"})
            policy = EpsilonPolicy(
                mode=config_choice(PolicyMode, pol.get("mode", "residual_exact"), "policy.mode"),
                max_rounds=config_int(pol.get("max_rounds", 64), "policy.max_rounds"),
            )
            lo = config_object(d.get("loss", {}), "loss", {"p_loss", "encoding", "backup_enabled"})
            loss = LossConfig(
                p_loss=config_float(lo.get("p_loss", 0.0), "loss.p_loss"),
                encoding=config_choice(
                    PhotonEncoding, lo.get("encoding", "polarization"), "loss.encoding"),
                backup_enabled=config_bool(lo.get("backup_enabled", False), "loss.backup_enabled"),
            )
            initial = d.get("initial_state", "all_zeros")
            if not isinstance(initial, str):
                if len(config_object(initial, "initial_state", {"random_seed", "amplitudes"})) != 1:
                    raise ConfigError("initial_state needs exactly one of random_seed, amplitudes")
            trajectories = config_int(d.get("trajectories", 1), "trajectories")
            master_seed = config_int(d.get("master_seed", 0), "master_seed")
        except ConfigError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad configuration: {exc}") from exc
        if n_steps < 1:
            raise ConfigError("n_steps must be at least 1")
        if policy.max_rounds < 1:
            raise ConfigError("policy.max_rounds must be at least 1")
        if trajectories < 0:
            raise ConfigError("trajectories must be non-negative")
        if master_seed < 0:
            raise ConfigError("master_seed must be non-negative")
        if n_steps > sys.float_info.max:
            raise ConfigError("n_steps exceeds the largest float, so no rotation angle is defined")
        cfg = cls(h, t, n_steps, policy, loss, initial, trajectories, master_seed)
        # compile_plan makes one rotation per term, in term order
        for i, (*_, angle) in enumerate(cfg.sweep):
            if not math.isfinite(angle):
                raise ConfigError(f"rotation angle t * hamiltonian.terms[{i}].coeff / n_steps "
                                  f"is {angle}, not finite")
        _initial_state(initial, h.n_qubits)
        return cfg

    @functools.cached_property
    def plan(self) -> TrotterPlan:
        """The compiled Trotter plan, computed once per config."""
        return compile_plan(self.hamiltonian, self.t, self.n_steps)

    @functools.cached_property
    def sweep(self) -> list[tuple]:
        """One Trotter step's rotations as (sites, k, l, angle) rows, computed once per config."""
        return [(rot.sites, *rot.axes, rot.angle) for rot in self.plan.sweep_rotations()]

    @functools.cached_property
    def layout(self) -> RegisterLayout:
        """The data register's layout, computed once per config; ResourceError past the cap."""
        n = self.hamiltonian.n_qubits
        if n > DEFAULT_QUBIT_CAP:
            raise ResourceError(f"register of {n} qubits exceeds the cap of {DEFAULT_QUBIT_CAP}")
        return RegisterLayout.build(n, n_photons=0)

    @functools.cached_property
    def initial_amplitudes(self) -> np.ndarray:
        """Normalized initial data amplitudes, computed once per config (read-only)."""
        amp = _initial_state(self.initial_state, self.hamiltonian.n_qubits)()
        amp.flags.writeable = False
        return amp

    @functools.cached_property
    def oracle_state(self) -> np.ndarray:
        """Exact final data amplitudes e^{itH}|psi_0>, computed once per config (read-only)."""
        oracle = exact_evolution(self.hamiltonian, self.t) @ self.initial_amplitudes
        oracle.flags.writeable = False
        return oracle

    @functools.cached_property
    def framed_oracles(self) -> dict:
        """P|oracle> per final frame's masks (x, z), read-only; _FRAMED_ORACLE_CAP at most."""
        return {}

    @classmethod
    def from_json_file(cls, path) -> "ProtocolConfig":
        try:
            with open(path) as f:
                data = json.load(f)
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

    Bit for bit ``Generator(PCG64(SeedSequence([master_seed, index])))``, with
    that sequence's PCG64 seed words read from the index's ``_seed_block``.
    """
    if master_seed < 0 or index < 0:
        raise ValueError("expected non-negative integer")  # SeedSequence's error
    block, row = divmod(index, _SEED_BLOCK)
    words = _seed_block(master_seed, block)[row]
    return np.random.Generator(np.random.PCG64(_seed_words()(words)))


_SEED_BLOCK = 256


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


_UNIFORM_BLOCK = 64


def _block_uniforms(rng: np.random.Generator):
    """An object whose ``random()`` yields the draws of ``rng.random()``, taken a block at a time.

    ``rng.random(k)`` returns exactly the next k scalar draws in order, so the
    stream equals one ``rng.random()`` per call while each call is a C-level
    ``next``; the generator must feed nothing else, since it runs ahead of the
    stream by up to a block.
    """
    blocks = iter(lambda: rng.random(_UNIFORM_BLOCK).tolist(), None)
    uniforms = itertools.chain.from_iterable(blocks)
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
    """
    if isinstance(init, str):
        if init not in _PRESETS:
            presets = ", ".join(map(repr, _PRESETS))
            raise ConfigError(f"initial_state names an unknown initial-state preset {init!r}, "
                              f"expected one of {presets} or an object")
        return lambda: _PRESETS[init](1 << n)
    try:
        if "random_seed" in init:
            seed = config_int(init["random_seed"], "initial_state.random_seed")
            if seed < 0:  # numpy's text; parsing does not import numpy.random
                raise ValueError("expected non-negative integer")
            return lambda: haar_random_amplitudes(n, np.random.default_rng(seed))
        key = "initial_state.amplitudes"
        amp = np.array([complex(config_float(re, key), config_float(im, key))
                        for re, im in init["amplitudes"]])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"cannot interpret initial state {init!r}: {exc}") from exc
    dim = 1 << n if n < 63 else f"2**{n}"  # no JSON list holds 2^63 entries
    if amp.shape != (dim,):
        raise ConfigError(f"initial state has {amp.shape[0]} amplitudes, expected {dim}")
    # Squares overflow past 1e154, so take the norm of amp / 2^e, e the exponent of its
    # largest part: the scaling is exact, and so are the normalized amplitudes.
    e = max(0, math.frexp(np.abs(amp.view(float)).max())[1])
    unit = amp * math.ldexp(1.0, -e)
    scaled = np.linalg.norm(unit)
    with np.errstate(over="ignore"):  # a norm past the largest float reads inf
        nrm = float(np.ldexp(scaled, e))
    if not 1e-12 <= nrm < math.inf:
        raise ConfigError(f"initial state has norm {nrm}")
    return lambda: unit / scaled


def build_register(cfg: ProtocolConfig) -> StateVector:
    """The data register in its initial state; photons and backups live in the round tables."""
    layout = cfg.layout  # checks the cap before the amplitudes are built
    return StateVector._wrap(cfg.initial_amplitudes, layout)


@dataclass
class TrajectoryStats:
    index: int
    rounds_per_rotation: list[int]
    outcome_histogram: dict[str, int]
    photon_retry_counts: list[int]
    final_frame: str
    fidelity_vs_oracle: float
    failure_reason: Optional[str]
    records: list[RoundRecord] = field(default_factory=list)

    rounds_total = property(lambda self: len(self.records))
    loss_events = property(lambda self: self.outcome_histogram.get("loss", 0))
    failed = property(lambda self: self.failure_reason is not None)

    def to_dict(self) -> dict:
        """The audit entry; ``emit_report`` writes ``json.dumps(to_dict(), sort_keys=True)``."""
        return {**self.summary(), "rounds": [r.to_dict() for r in self.records]}

    def summary(self) -> dict:
        """The audit entry without its rounds."""
        return {
            "trajectory": self.index,
            "rounds_total": self.rounds_total,
            "rounds_per_rotation": self.rounds_per_rotation,
            "outcome_histogram": dict(sorted(self.outcome_histogram.items())),
            "loss_events": self.loss_events,
            "photon_retry_counts": self.photon_retry_counts,
            "final_frame": self.final_frame,
            "fidelity_vs_oracle": self.fidelity_vs_oracle,
            "failed": self.failed,
            "failure_reason": self.failure_reason,
        }


def run_trajectory(cfg: ProtocolConfig, index: int) -> TrajectoryStats:
    """Execute the compiled plan once, then compare against the exact oracle."""
    rng = _block_uniforms(trajectory_rng(cfg.master_seed, index))
    state = build_register(cfg)
    frame = ErrorFrame.identity(state.n_qubits)
    all_records: list[RoundRecord] = []
    rounds_per_rotation: list[int] = []
    failure_reason = None

    policy, loss, sweep = cfg.policy, cfg.loss, cfg.sweep
    try:
        for _ in range(cfg.plan.n_steps if sweep else 0):  # an empty sweep takes no steps
            for sites, k, l, angle in sweep:
                state, frame, recs = realize_v_kl(
                    state, sites, k, l, angle, policy, frame, rng, loss)
                all_records.extend(recs)
                rounds_per_rotation.append(len(recs))
    except IncompleteRotationError as exc:
        state, frame = exc.state, exc.frame
        all_records.extend(exc.records)
        rounds_per_rotation.append(len(exc.records))
        failure_reason = f"rotation on {sites} incomplete, residual {exc.residual:.3e}"

    p = frame.byproduct  # |<P oracle|psi>|^2 = |<oracle|P psi>|^2 for the frame string P
    oracle = cfg.framed_oracles.get((p.x, p.z))
    if oracle is None:  # a new frame; past the cap, framed again by every trajectory
        oracle = apply_pauli_string(StateVector(cfg.oracle_state, cfg.layout), p).amplitudes
        oracle.flags.writeable = False
        if len(cfg.framed_oracles) < _FRAMED_ORACLE_CAP:
            cfg.framed_oracles[p.x, p.z] = oracle
    fid = float(abs(np.vdot(oracle, state.amplitudes)) ** 2)

    histogram: dict[str, int] = {}
    retry_counts: list[int] = []
    pending_losses = 0
    for rec in all_records:
        histogram[rec.outcome] = histogram.get(rec.outcome, 0) + 1
        if rec.outcome == "loss":
            pending_losses += 1
        else:
            retry_counts.append(pending_losses + 1)
            pending_losses = 0

    return TrajectoryStats(
        index=index,
        rounds_per_rotation=rounds_per_rotation,
        outcome_histogram=histogram,
        photon_retry_counts=retry_counts,
        final_frame=str(frame),
        fidelity_vs_oracle=fid,
        failure_reason=failure_reason,
        records=all_records,
    )


def run_ensemble(cfg: ProtocolConfig) -> tuple[dict, list[TrajectoryStats]]:
    """Run all trajectories and aggregate; failed trajectories are kept, not resampled."""
    build_register(cfg)  # the register cap and the initial state hold even for no trajectory
    stats = [run_trajectory(cfg, i) for i in range(cfg.trajectories)]
    return aggregate_report(cfg, stats), stats


def aggregate_report(cfg: ProtocolConfig, stats: list[TrajectoryStats]) -> dict:
    fids = [s.fidelity_vs_oracle for s in stats]
    rounds = [s.rounds_total for s in stats]
    retries = [r for s in stats for r in s.photon_retry_counts]
    histogram: dict[str, int] = {}
    for s in stats:
        for k, v in s.outcome_histogram.items():
            histogram[k] = histogram.get(k, 0) + v
    per_rotation: dict[str, list[int]] = {}
    keys = [f"{a}-{b}:{k.value}{l.value}" for (a, b), k, l, _ in cfg.sweep]
    for s in stats:
        for key, count in zip(itertools.cycle(keys), s.rounds_per_rotation):
            per_rotation.setdefault(key, []).append(count)

    n_out = sum(histogram.values())
    report = {
        "config": cfg.to_dict(),
        "n_trajectories": len(stats),
        "n_failed": sum(1 for s in stats if s.failed),
        "fidelity": {
            "mean": float(np.mean(fids)) if fids else None,
            "variance": float(np.var(fids)) if fids else None,
            "min": float(min(fids)) if fids else None,
        },
        "rounds": {
            "total": int(sum(rounds)),
            "mean_per_trajectory": float(np.mean(rounds)) if rounds else None,
            "mean_per_rotation": (
                float(np.mean([c for s in stats for c in s.rounds_per_rotation]))
                if any(s.rounds_per_rotation for s in stats)
                else None
            ),
        },
        "outcome_frequencies": {k: v / n_out for k, v in sorted(histogram.items())},
        "outcome_counts": dict(sorted(histogram.items())),
        "loss": {
            "events": int(sum(s.loss_events for s in stats)),
            "retry_mean": float(np.mean(retries)) if retries else None,
            "retry_count": len(retries),
        },
        "rounds_per_rotation_site": {
            k: float(np.mean(v)) for k, v in sorted(per_rotation.items())
        },
    }
    return report


def probe_rounds(eps: float, samples: int, rng: np.random.Generator) -> dict:
    """Sample the four-outcome law at fixed eps.

    The outcome distribution of a lossless round is independent of the atomic
    state, so the Born probabilities are read once from the round's Kraus
    table (on the pair state |00>) and the outcomes drawn as one multinomial.
    """
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


# Local dressing turning e^{i pi/4 XX} into CNOT (control = first qubit),
# verified against the dense oracle in the test suite:
#   (A1 (x) A2) . e^{i pi/4 XX} . (B1 (x) B2) = CNOT up to global phase.
def cnot_dressing() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    rz = np.diag([np.exp(-1j * np.pi / 4), np.exp(1j * np.pi / 4)])  # e^{-i pi/4 Z}
    rx = np.cos(np.pi / 4) * np.eye(2) - 1j * np.sin(np.pi / 4) * np.array([[0, 1], [1, 0]])
    a1 = rz @ _H_GATE
    a2 = rx
    b1 = _H_GATE.astype(complex)
    b2 = np.eye(2, dtype=complex)
    return a1, a2, b1, b2


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
    """Realize V(pi/4) by feedback, dress it with local gates, compare to CNOT.

    Process fidelity is the mean state fidelity over the four computational
    basis inputs plus two superposition inputs.
    """
    a1, a2, b1, b2 = cnot_dressing()
    loss = LossConfig(p_loss=p_loss, backup_enabled=backup)
    layout = RegisterLayout.build(2, n_photons=0)

    fidelities = []
    total_rounds = 0
    for i, data_amp in enumerate(_cnot_demo_inputs()):
        rng = trajectory_rng(master_seed, i)
        state = _apply(_apply(StateVector(data_amp, layout), (0,), b1), (1,), b2)
        frame = ErrorFrame.identity(2)
        state, frame, recs = realize_v(state, (0, 1), math.pi / 4, policy, frame, rng, loss)
        total_rounds += len(recs)
        state = apply_pauli_string(state, frame.byproduct)
        state = _apply(_apply(state, (0,), a1), (1,), a2)
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
    """Fidelity of the dense noiseless plan execution against the exact oracle."""
    oracle = cfg.oracle_state  # checks the dense cap before the plan's matrix is built
    from .compiler import plan_unitary

    return float(abs(np.vdot(oracle, plan_unitary(cfg.plan) @ cfg.initial_amplitudes)) ** 2)


def _audit_lines(stats: list[TrajectoryStats]):
    """Each trajectory's ``json.dumps(s.to_dict(), sort_keys=True)`` line, from its records' text.

    Each record keeps its own ``text``, so a record is encoded once; the rounds
    go at ``"rounds": 0``, whose bare quotes no JSON string can contain.
    """
    for s in stats:
        line = json.dumps({**s.summary(), "rounds": 0}, sort_keys=True)
        head, _, tail = line.partition('"rounds": 0')
        yield f'{head}"rounds": [{", ".join([r.text for r in s.records])}]{tail}\n'


def emit_report(
    report: dict,
    stats: list[TrajectoryStats],
    out_dir,
    fmt: str = "json",
) -> list[Path]:
    """Write the aggregate report plus the per-trajectory JSON-lines audit log.

    Wall-clock timings are deliberately excluded so identical configurations
    produce byte-identical files.
    """
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
        csv_path = out / "rounds_per_rotation.csv"
        with open(csv_path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["rotation_site", "mean_rounds"])
            for key, val in report.get("rounds_per_rotation_site", {}).items():
                w.writerow([key, val])
        written.append(csv_path)
    return written
