"""First-order Trotter compilation of two-qubit Pauli Hamiltonians.

A Hamiltonian H = sum lambda_i s_k (x) s_l is compiled into a sweep of
elementary rotations with angle t * lambda / n, repeated n times.  Sweeps can
be regrouped into parallel layers of site-disjoint rotations by greedy edge
coloring; for a 1D open chain this yields exactly the odd/even two-layer
schedule.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .emission import BeamSplitterOutcome, outcome_probabilities
from .errors import ConfigError, UsageError
from .feedback import _ANGLE_TOL, EpsilonPolicy
from .pauli import PauliAxis, PauliString


def config_int(value, key: str) -> int:
    """A config integer: an int or an integral float such as 16.0, never a bool."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return int(value)


def config_float(value, key: str) -> float:
    """A config real: a finite JSON number (integer or fraction), never a bool or a string."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            value = float(value)
        except OverflowError:  # an integer literal past the largest float
            value = math.inf
    if not isinstance(value, float) or not math.isfinite(value):
        raise ConfigError(f"{key} must be finite and a JSON number, got {value!r}")
    return value


def config_bool(value, key: str) -> bool:
    """A config flag: JSON true or false only."""
    if not isinstance(value, bool):
        raise ConfigError(f"{key} must be true or false, got {value!r}")
    return value


def config_choice(enum, value, key: str):
    """A config choice: the member of ``enum`` whose value is ``value``."""
    try:
        return enum(value)
    except ValueError:
        values = ", ".join(repr(m.value) for m in enum)
        raise ConfigError(f"{key} must be one of {values}, got {value!r}") from None


def config_object(d, path: str, optional=(), required=()) -> dict:
    """``d``, once checked to be an object with the keys ``required`` and ``optional`` ones only."""
    if not isinstance(d, dict):
        raise ConfigError(f"{path or 'configuration'} must be an object")
    prefix = f"{path}." if path else ""
    unknown = sorted(set(d) - set(optional) - set(required))
    if unknown:
        raise ConfigError("unknown key " + ", ".join(prefix + str(k) for k in unknown))
    missing = [k for k in required if k not in d]
    if missing:
        raise ConfigError("missing key " + ", ".join(prefix + k for k in missing))
    return d


@dataclass(frozen=True)
class PairTerm:
    sites: tuple[int, int]
    axes: tuple[PauliAxis, PauliAxis]
    coeff: float

    def __post_init__(self):
        if self.sites[0] == self.sites[1]:
            raise UsageError("term sites must be distinct")
        if PauliAxis.I in self.axes:
            raise UsageError("term axes must be X, Y, or Z")
        if not math.isfinite(self.coeff):
            raise UsageError("term coefficient must be finite")

    def to_dict(self) -> dict:
        return {
            "sites": list(self.sites),
            "axes": self.axes[0].value + self.axes[1].value,
            "coeff": self.coeff,
        }

    @classmethod
    def from_dict(cls, d: dict, key: str, n_qubits: int) -> "PairTerm":
        """The term at config key ``key`` on ``n_qubits`` qubits; ConfigError names a bad field."""
        config_object(d, key, required=("sites", "axes", "coeff"))
        sites, axes = d["sites"], d["axes"]
        if not isinstance(sites, (list, tuple)) or len(sites) != 2:
            raise ConfigError(f"{key}.sites must be a list of two sites, got {sites!r}")
        sites = tuple(config_int(s, f"{key}.sites") for s in sites)
        if sites[0] == sites[1] or not all(0 <= s < n_qubits for s in sites):
            raise ConfigError(f"{key}.sites must be two distinct sites in [0, {n_qubits}), "
                              f"got {list(sites)}")
        if not (isinstance(axes, str) and len(axes) == 2 and set(axes) <= set("XYZ")):
            raise ConfigError(f"{key}.axes must be two letters of X, Y, Z, got {axes!r}")
        return cls(sites, (PauliAxis(axes[0]), PauliAxis(axes[1])),
                   config_float(d["coeff"], f"{key}.coeff"))


@dataclass(frozen=True)
class HamiltonianSpec:
    n_qubits: int
    terms: tuple[PairTerm, ...]

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        if self.n_qubits < 1:
            raise UsageError(f"a Hamiltonian needs at least one qubit, got {self.n_qubits}")
        for term in self.terms:
            for s in term.sites:
                if not 0 <= s < self.n_qubits:
                    raise UsageError(f"term site {s} outside register of {self.n_qubits}")

    def to_matrix(self) -> np.ndarray:
        dim = 1 << self.n_qubits
        h = np.zeros((dim, dim), dtype=complex)
        for term in self.terms:
            p = PauliString.embed(
                self.n_qubits, {term.sites[0]: term.axes[0], term.sites[1]: term.axes[1]}
            )
            h += term.coeff * p.matrix()
        return h

    def to_dict(self) -> dict:
        return {"n_qubits": self.n_qubits, "terms": [t.to_dict() for t in self.terms]}

    @classmethod
    def from_dict(cls, d: dict) -> "HamiltonianSpec":
        """The config object ``hamiltonian``; ConfigError names the first bad or missing key."""
        config_object(d, "hamiltonian", required=("n_qubits", "terms"))
        n, terms = config_int(d["n_qubits"], "hamiltonian.n_qubits"), d["terms"]
        if n < 1:
            raise ConfigError(f"hamiltonian.n_qubits must give at least one qubit, got {n}")
        if not isinstance(terms, (list, tuple)):
            raise ConfigError(f"hamiltonian.terms must be a list, got {terms!r}")
        return cls(n, tuple(PairTerm.from_dict(t, f"hamiltonian.terms[{i}]", n)
                            for i, t in enumerate(terms)))

    @classmethod
    def chain_1d(cls, n_qubits: int, axes: str = "XX", coeff: float = 1.0) -> "HamiltonianSpec":
        """Open 1D chain with the same two-site term on every bond."""
        ax = (PauliAxis(axes[0]), PauliAxis(axes[1]))
        terms = tuple(PairTerm((x, x + 1), ax, coeff) for x in range(n_qubits - 1))
        return cls(n_qubits, terms)


@dataclass(frozen=True)
class Rotation:
    sites: tuple[int, int]
    axes: tuple[PauliAxis, PauliAxis]
    angle: float

    def to_dict(self) -> dict:
        return {
            "sites": list(self.sites),
            "axes": self.axes[0].value + self.axes[1].value,
            "angle": self.angle,
        }


@dataclass(frozen=True)
class TrotterPlan:
    """One Trotter sweep as ordered layers of rotations, repeated ``n_steps`` times."""

    n_qubits: int
    n_steps: int
    layers: tuple[tuple[Rotation, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(tuple(l) for l in self.layers))
        for layer in self.layers:
            seen = set()
            for rot in layer:
                for s in rot.sites:
                    if s in seen:
                        raise UsageError(f"qubit {s} appears twice in one layer")
                    seen.add(s)

    @property
    def total_rotations(self) -> int:
        return self.n_steps * sum(len(l) for l in self.layers)

    def sweep_rotations(self):
        for layer in self.layers:
            yield from layer

    def to_dict(self) -> dict:
        return {
            "n_qubits": self.n_qubits,
            "n_steps": self.n_steps,
            "sweeps": [[r.to_dict() for r in layer] for layer in self.layers],
        }


def compile_plan(h: HamiltonianSpec, t: float, n: int) -> TrotterPlan:
    """First-order product formula: every term once per sweep, angle t*lambda/n."""
    if n < 1:
        raise UsageError("step count must be at least 1")
    layers = tuple(
        (Rotation(term.sites, term.axes, t * term.coeff / n),) for term in h.terms
    )
    return TrotterPlan(h.n_qubits, n, layers)


def schedule_parallel(plan: TrotterPlan) -> TrotterPlan:
    """Greedy first-fit edge coloring into layers of site-disjoint rotations."""
    layers: list[list[Rotation]] = []
    used: list[set[int]] = []
    for rot in plan.sweep_rotations():
        for layer, sites in zip(layers, used):
            if rot.sites[0] not in sites and rot.sites[1] not in sites:
                layer.append(rot)
                sites.update(rot.sites)
                break
        else:
            layers.append([rot])
            used.append(set(rot.sites))
    return TrotterPlan(plan.n_qubits, plan.n_steps, tuple(tuple(l) for l in layers))


def plan_unitary(plan: TrotterPlan) -> np.ndarray:
    """Dense unitary of the noiseless plan execution (for oracle comparisons)."""
    dim = 1 << plan.n_qubits
    sweep = np.eye(dim, dtype=complex)
    ident = np.eye(dim, dtype=complex)
    for rot in plan.sweep_rotations():
        p = PauliString.embed(
            plan.n_qubits, {rot.sites[0]: rot.axes[0], rot.sites[1]: rot.axes[1]}
        ).matrix()
        u = math.cos(rot.angle) * ident + 1j * math.sin(rot.angle) * p
        sweep = u @ sweep
    return np.linalg.matrix_power(sweep, plan.n_steps)


def _round_success_probability(angle: float) -> Optional[float]:
    """Plus probability ((1-eps)^2 + eps^2)/2 of the first round at ``angle``; None if no round."""
    a = abs(math.remainder(angle, math.pi))
    if a <= _ANGLE_TOL:
        return None
    return outcome_probabilities(EpsilonPolicy().eps_for(a))[BeamSplitterOutcome.PLUS]


def round_budget(plan: TrotterPlan, confidence: float = 0.99) -> dict:
    """First-level estimate of a plan's feedback-round costs.

    Each rotation counts 1/q rounds, q the Plus probability of its first
    round under the default policy with no loss; later doubling levels, the
    plan's policy and loss are left out, so the counts run low.  As in the
    feedback loop, a rotation within _ANGLE_TOL of a multiple of pi is the
    identity up to phase and draws none.
    serial_rounds: the sum of 1/q over all rotations.  parallel_depth: per
    layer, the smallest round allowance r with (1 - (1-q_min)^r)^g >=
    confidence for the g rotations in the layer that draw rounds, summed
    over layers and sweeps.
    """
    serial_per_sweep = 0.0
    depth_per_sweep = 0
    for layer in plan.layers:
        probs = [q for q in (_round_success_probability(r.angle) for r in layer) if q is not None]
        serial_per_sweep += sum(1.0 / q for q in probs)
        if probs:
            # per-gate miss 1 - confidence^(1/g); expm1 keeps it above 0 as confidence nears 1
            miss = -math.expm1(math.log(confidence) / len(probs))
            allowance = math.ceil(math.log(miss) / math.log(1.0 - min(probs)))
            depth_per_sweep += max(1, allowance)
    serial = plan.n_steps * serial_per_sweep
    return {
        "serial_rounds": serial,
        "parallel_depth": plan.n_steps * depth_per_sweep,
        "mean_rounds_per_rotation": serial / max(1, plan.total_rotations),
        "layers_per_sweep": len(plan.layers),
        "confidence": confidence,
    }


def binomial_tail_at_least(n_trials: int, n_successes: int, p: float) -> float:
    """P[Binomial(n_trials, p) >= n_successes], computed in log space."""
    if n_successes <= 0:
        return 1.0
    if n_successes > n_trials:
        return 0.0
    lp, lq = math.log(p), math.log1p(-p)
    total = 0.0
    for k in range(n_successes, n_trials + 1):
        lg = (
            math.lgamma(n_trials + 1)
            - math.lgamma(k + 1)
            - math.lgamma(n_trials - k + 1)
        )
        total += math.exp(lg + k * lp + (n_trials - k) * lq)
    return min(1.0, total)


def serial_success_probability(m: int, const: float = 3.0) -> float:
    """Exact probability of >= m^2 successes in 2m^2 + const*m/2 feedback rounds at p = 1/2.

    Exposes the computation behind the claimed near-certain bulk success so
    its actual value can be inspected rather than assumed.
    """
    trials = int(2 * m * m + const * m / 2)
    return binomial_tail_at_least(trials, m * m, 0.5)
