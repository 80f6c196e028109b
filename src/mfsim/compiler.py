"""First-order Trotter compilation of two-qubit Pauli Hamiltonians.

A Hamiltonian H = sum lambda_i s_k (x) s_l is compiled into a sweep of
elementary rotations with angle t * lambda / n, repeated n times; the plan
runs as one ordered list of operations, the sweep n times over.  Sweeps can
be regrouped into parallel layers of site-disjoint rotations by greedy edge
coloring that moves a rotation only ahead of rotations it commutes with, so
the layers give the same product; for a 1D open chain of commuting terms,
such as XX on every bond, this yields exactly the odd/even two-layer schedule.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .emission import BeamSplitterOutcome, outcome_probabilities
from .errors import FrozenValue, UsageError, config_errors, config_float, config_int, config_object
from .feedback import EpsilonPolicy, reduce_angle
from .pauli import PauliAxis, PauliString, commutes
from .statevec import _check_unitary, _pauli_stack, _vector_first


def _check_pair(sites, axes, least=None) -> tuple:
    """The checked ``sites``, two distinct integers (at least ``least`` if given), and ``axes``,
    two of X, Y, Z as members or letters ("XY"), as tuples; UsageError names the field."""
    if not isinstance(sites, (list, tuple)) or len(sites) != 2:
        raise UsageError(f"sites must be a list of two sites, got {sites!r}")
    checked = tuple(config_int(s, "sites", least) for s in sites)
    if checked[0] == checked[1]:
        raise UsageError(f"sites must be two distinct sites, got {sites!r}")
    members = axes
    if isinstance(members, str):  # the config's letters
        members = [PauliAxis.__members__.get(a) for a in members]
    if not (isinstance(members, (list, tuple)) and len(members) == 2
            and all(a in (PauliAxis.X, PauliAxis.Y, PauliAxis.Z) for a in members)):
        raise UsageError(f"axes must be two letters of X, Y, Z, got {axes!r}")
    return checked, tuple(members)


@dataclass(init=False, repr=False, eq=False)
class PairTerm(FrozenValue):
    """coeff * s_k (x) s_l, ``axes`` as members or letters ("XY"); UsageError names the field."""

    sites: tuple[int, int]
    axes: tuple[PauliAxis, PauliAxis]
    coeff: float

    def __init__(self, sites: tuple[int, int], axes: tuple[PauliAxis, PauliAxis], coeff: float):
        sites, axes = _check_pair(sites, axes)
        self.__dict__.update(sites=sites, axes=axes, coeff=config_float(coeff, "coeff"))

    def to_dict(self) -> dict:
        return {
            "sites": list(self.sites),
            "axes": self.axes[0].value + self.axes[1].value,
            "coeff": self.coeff,
        }

    @classmethod
    def from_dict(cls, d: dict, key: str) -> "PairTerm":
        """The term at config key ``key``; ConfigError names a bad, unknown or missing field."""
        with config_errors():
            config_object(d, key, required=("sites", "axes", "coeff"))
        with config_errors(f"{key}."):
            return cls(d["sites"], d["axes"], d["coeff"])


@dataclass(init=False, repr=False, eq=False)
class HamiltonianSpec(FrozenValue):
    """H = sum of ``terms`` on ``n_qubits`` qubits; UsageError names the bad ``hamiltonian`` key."""

    n_qubits: int
    terms: tuple[PairTerm, ...]

    def __init__(self, n_qubits: int, terms: tuple[PairTerm, ...]):
        n = config_int(n_qubits, "hamiltonian.n_qubits")
        if n < 1:
            raise UsageError(f"hamiltonian.n_qubits must give at least one qubit, got {n}")
        terms = tuple(terms)
        for i, term in enumerate(terms):
            if not all(0 <= s < n for s in term.sites):
                raise UsageError(f"hamiltonian.terms[{i}].sites must be two distinct sites "
                                 f"in [0, {n}), got {list(term.sites)}")
        self.__dict__.update(n_qubits=n, terms=terms)

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
        with config_errors():
            config_object(d, "hamiltonian", required=("n_qubits", "terms"))
            if not isinstance(d["terms"], (list, tuple)):
                raise UsageError(f"hamiltonian.terms must be a list, got {d['terms']!r}")
            return cls(d["n_qubits"], [PairTerm.from_dict(t, f"hamiltonian.terms[{i}]")
                                       for i, t in enumerate(d["terms"])])

    @classmethod
    def chain_1d(cls, n_qubits: int, axes: str = "XX", coeff: float = 1.0) -> "HamiltonianSpec":
        """Open 1D chain with the same two-site term on every bond."""
        return cls(n_qubits, tuple(PairTerm((x, x + 1), axes, coeff) for x in range(n_qubits - 1)))


@dataclass(init=False, repr=False, eq=False)
class Rotation(FrozenValue):
    """e^{i angle s_k x s_l}: ``sites`` >= 0 and ``axes`` checked as a term's, ``angle`` finite."""

    sites: tuple[int, int]
    axes: tuple[PauliAxis, PauliAxis]
    angle: float
    label = functools.cached_property(  # the report's key for its rounds, "a-b:kl"
        lambda self: "{}-{}:{}{}".format(*self.sites, *(a.value for a in self.axes)))

    def __init__(self, sites: tuple[int, int], axes: tuple[PauliAxis, PauliAxis], angle: float):
        sites, axes = _check_pair(sites, axes, 0)
        self.__dict__.update(sites=sites, axes=axes, angle=config_float(angle, "angle"))

    def to_dict(self) -> dict:
        return {
            "sites": list(self.sites),
            "axes": self.axes[0].value + self.axes[1].value,
            "angle": self.angle,
        }


@dataclass(init=False, repr=False, eq=False)
class LocalGate(FrozenValue):
    """A free 2x2 unitary ``gate``, kept read-only, on the atom at ``site`` (an integer >= 0).

    It runs after the frame's Pauli at ``site``, which it clears; UsageError names a bad field.
    """

    site: int
    gate: np.ndarray
    __eq__, __hash__ = object.__eq__, object.__hash__  # identity, as the gate is an array

    def __init__(self, site: int, gate: np.ndarray):
        site = config_int(site, "site", 0)
        gate = _check_unitary(gate, 2, "gate").copy()
        gate.flags.writeable = False
        self.__dict__.update(site=site, gate=gate)


@dataclass(init=False, repr=False, eq=False)
class TrotterPlan(FrozenValue):
    """One Trotter sweep as layers of site-disjoint rotations, repeated ``n_steps`` times."""

    n_qubits: int
    n_steps: int
    layers: tuple[tuple[Rotation, ...], ...]

    def __init__(self, n_qubits: int, n_steps: int, layers: tuple[tuple[Rotation, ...], ...]):
        n_steps = _n_steps(n_steps)
        layers = tuple(tuple(l) for l in layers)
        for layer in layers:
            sites = [s for rot in layer for s in rot.sites]
            if not all(0 <= s < n_qubits for s in sites):
                raise UsageError(f"rotation sites must lie in [0, {n_qubits}), got {sites}")
            if len(set(sites)) < len(sites):
                raise UsageError(f"a qubit appears twice in one layer, sites {sites}")
        self.__dict__.update(n_qubits=n_qubits, n_steps=n_steps, layers=layers)

    @property
    def total_rotations(self) -> int:
        return self.n_steps * sum(len(l) for l in self.layers)

    def sweep_rotations(self):
        for layer in self.layers:
            yield from layer

    def operations(self):
        """An iterator over the operations in the order they run: the sweep, n_steps times."""
        sweep = tuple(self.sweep_rotations())
        return itertools.chain.from_iterable(itertools.repeat(sweep, self.n_steps if sweep else 0))

    def to_dict(self) -> dict:
        return {
            "n_qubits": self.n_qubits,
            "n_steps": self.n_steps,
            "sweeps": [[r.to_dict() for r in layer] for layer in self.layers],
        }


def _n_steps(n) -> int:
    """``n_steps`` once checked: an integer >= 1 that a float holds, so t / n_steps is defined."""
    n = config_int(n, "n_steps", 1)
    if n > sys.float_info.max:
        raise UsageError("n_steps exceeds the largest float, so no rotation angle is defined")
    return n


def compile_plan(h: HamiltonianSpec, t: float, n: int) -> TrotterPlan:
    """First-order product formula: every term once per sweep, angle t*lambda/n (n = n_steps)."""
    n = _n_steps(n)  # the angles divide by it before the plan exists
    layers = []
    for i, term in enumerate(h.terms):
        if not math.isfinite(angle := t * term.coeff / n):  # UsageError names the term
            raise UsageError(f"rotation angle t * hamiltonian.terms[{i}].coeff / n_steps "
                             f"is {angle}, not finite")
        layers.append((Rotation(term.sites, term.axes, angle),))
    return TrotterPlan(h.n_qubits, n, layers)


def schedule_parallel(plan: TrotterPlan) -> TrotterPlan:
    """Greedy first-fit edge coloring into layers of site-disjoint rotations, the same product.

    A rotation moves ahead only of rotations it commutes with: it goes in the
    first layer free at its sites after the last layer that holds an earlier
    rotation anticommuting with it (one that shares a site with it).
    """
    layers: list[list[Rotation]] = []
    used: list[dict[int, PauliString]] = []  # per layer, the string of the rotation at each site
    for rot in plan.sweep_rotations():
        p = PauliString.embed(plan.n_qubits, dict(zip(rot.sites, rot.axes)))
        first = len(layers)  # back past every layer whose rotations at rot's sites commute with it
        while first and all(commutes(p, used[first - 1].get(s, p)) for s in rot.sites):
            first -= 1
        for layer, at in zip(layers[first:], used[first:]):
            if at.keys().isdisjoint(rot.sites):
                layer.append(rot)
                at.update(dict.fromkeys(rot.sites, p))
                break
        else:
            layers.append([rot])
            used.append(dict.fromkeys(rot.sites, p))
    return TrotterPlan(plan.n_qubits, plan.n_steps, layers)


def plan_unitary(plan: TrotterPlan) -> np.ndarray:
    """Dense unitary of the noiseless plan execution (for oracle comparisons).

    A sweep of commuting strings to the power n_steps is each rotation at n_steps times its
    angle, exact at any step count.  Any other sweep's ``matrix_power`` drifts off the unitaries
    by repeated squaring (1e-8 at 10^15 steps), so its nearest unitary is taken: the polar
    factor W V^dag of its SVD W S V^dag.
    """
    n, sweep = plan.n_qubits, list(plan.sweep_rotations())
    strings = [PauliString.embed(n, dict(zip(rot.sites, rot.axes))) for rot in sweep]
    commuting = all(itertools.starmap(commutes, itertools.combinations(strings, 2)))
    power, u = plan.n_steps if commuting else 1, np.eye(1 << n, dtype=complex)
    for rot, p in zip(sweep, strings):
        angle, ident = power * rot.angle, np.eye(1 << n, dtype=complex)
        u = (math.cos(angle) * ident + 1j * math.sin(angle) * p.matrix()) @ u
    if power == plan.n_steps:
        return u
    w, _, vh = np.linalg.svd(np.linalg.matrix_power(u, plan.n_steps))
    return w @ vh


def apply_plan(plan: TrotterPlan, amplitudes: np.ndarray) -> np.ndarray:
    """New amplitudes U psi for ``plan_unitary(plan)`` U; psi is not changed.

    Each rotation is cos(angle) psi + i sin(angle) P psi, one ``_pauli_stack`` gather, the sweep
    ``n_steps`` times over.  Where those gathers cost more than ``plan_unitary``'s products
    (``statevec._vector_first``), this is ``plan_unitary(plan) @ psi``.
    """
    sweep = tuple(plan.sweep_rotations())
    products = len(sweep) + plan.n_steps.bit_length()  # the sweep's, then matrix_power's
    if not _vector_first(plan.n_steps * len(sweep), 1, plan.n_qubits, products):
        return plan_unitary(plan) @ amplitudes
    out = np.array(amplitudes, dtype=complex)
    if sweep:
        strings = [PauliString.embed(plan.n_qubits, dict(zip(r.sites, r.axes))) for r in sweep]
        index, phase = _pauli_stack(plan.n_qubits, tuple((p.x, p.z) for p in strings))
        rotations = [(math.cos(r.angle), idx, ph * 1j * math.sin(r.angle))
                     for r, idx, ph in zip(sweep, index, phase)]
        for _ in range(plan.n_steps):
            for cos, idx, sin in rotations:
                out = cos * out + out[idx] * sin
    return out


def _round_success_probability(angle: float) -> Optional[float]:
    """Plus probability ((1-eps)^2 + eps^2)/2 of the first round at ``angle``; None if no round."""
    residual = reduce_angle(angle)
    if residual is None:
        return None
    return outcome_probabilities(EpsilonPolicy().eps_for(abs(residual)))[BeamSplitterOutcome.PLUS]


def round_budget(plan: TrotterPlan, confidence: float = 0.99) -> dict:
    """First-level estimate of a plan's feedback-round costs.

    Each rotation counts 1/q rounds, q the Plus probability of its first
    round under the default policy with no loss; later doubling levels, the
    plan's policy and loss are left out, so the counts run low.  A rotation's
    first residual is the feedback loop's, ``feedback.reduce_angle``, so one
    at a multiple of pi, the identity up to phase, draws none.
    serial_rounds: the sum of 1/q over all rotations.  parallel_depth: per
    layer, the smallest round allowance r with (1 - (1-q_min)^r)^g >=
    confidence for the g rotations in the layer that draw rounds, summed
    over layers and sweeps.  ``confidence`` must lie in (0, 1).
    """
    if not 0.0 < confidence < 1.0:
        raise UsageError(f"confidence must lie in (0, 1), got {confidence}")
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
    """P[Binomial(n_trials, p) >= n_successes], computed in log space.

    Past the mode every term is smaller than the one before, so the sum stops
    at the first term that leaves it unchanged: no later term could change it.
    """
    if n_successes <= 0:
        return 1.0
    if n_successes > n_trials:
        return 0.0
    if p <= 0.0 or p >= 1.0:  # every trial fails, or every one succeeds; log(p) is undefined
        return float(p >= 1.0)
    lp, lq = math.log(p), math.log1p(-p)
    mode = math.floor((n_trials + 1) * p)
    total = 0.0
    for k in range(n_successes, n_trials + 1):
        lg = (
            math.lgamma(n_trials + 1)
            - math.lgamma(k + 1)
            - math.lgamma(n_trials - k + 1)
        )
        term = math.exp(lg + k * lp + (n_trials - k) * lq)
        if k > mode and total + term == total:
            break
        total += term
    return min(1.0, total)


def serial_success_probability(m: int, const: float = 3.0) -> float:
    """Exact probability of >= m^2 successes in 2m^2 + const*m/2 feedback rounds at p = 1/2.

    Exposes the computation behind the claimed near-certain bulk success so
    its actual value can be inspected rather than assumed.
    """
    trials = int(2 * m * m + const * m / 2)
    return binomial_tail_at_least(trials, m * m, 0.5)
