"""The vector oracles against the dense references they replaced.

``statevec.apply_evolution`` applies e^{itH} to a vector by a truncated
Taylor series, and ``compiler.apply_plan`` applies the noiseless plan
rotation by rotation; ``exact_evolution`` and ``plan_unitary`` stay as the
references.  Where the vector path would cost more, each calls its dense
reference instead.
"""

import itertools
import sys
from pathlib import Path

import numpy as np
import pytest

import mfsim.compiler
import mfsim.statevec
from mfsim.compiler import HamiltonianSpec, PairTerm, apply_plan, compile_plan, plan_unitary
from mfsim.errors import ResourceError
from mfsim.harness import ProtocolConfig, haar_random_amplitudes, noiseless_plan_fidelity
from mfsim.harness import run_ensemble
from mfsim.statevec import apply_evolution, exact_evolution

from byte_identity_configs import CONFIGS as BYTE_IDENTITY_CONFIGS

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import make_config  # noqa: E402

XX_PAIR = {"n_qubits": 2, "terms": [{"sites": [0, 1], "axes": "XX", "coeff": 1.0}]}


def forbid(monkeypatch, owner, name):
    def forbidden(*args, **kwargs):
        raise AssertionError(f"{name} called")

    monkeypatch.setattr(owner, name, forbidden)


def dense_fidelity(cfg):
    """|<e^{itH} psi|U_plan psi>|^2 from the dense references."""
    psi = cfg.initial_amplitudes
    return float(abs(np.vdot(exact_evolution(cfg.hamiltonian, cfg.t) @ psi,
                             plan_unitary(cfg.plan) @ psi)) ** 2)


def nine_axis_pairs(n, rng):
    """One term per axis pair on random sites, a repeated string (once with its sites swapped)
    and a zero coefficient; no term on one qubit."""
    if n < 2:
        return HamiltonianSpec(n, [])
    terms = []
    for k, l in itertools.product("XYZ", repeat=2):
        a, b = (int(s) for s in rng.choice(n, size=2, replace=False))
        terms.append(PairTerm((a, b), k + l, float(rng.uniform(-1.5, 1.5))))
    first = terms[1]
    terms += [PairTerm(first.sites, first.axes, 0.4),
              PairTerm(first.sites[::-1], first.axes[::-1], -0.3),
              PairTerm(terms[5].sites, terms[5].axes, 0.0)]
    return HamiltonianSpec(n, terms)


@pytest.mark.parametrize("t", [-0.7, 0.0, 4.0])
@pytest.mark.parametrize("n", range(1, 11))
def test_series_matches_exact_evolution(n, t, monkeypatch):
    rng = np.random.default_rng(100 * n + int(10 * t))
    h = nine_axis_pairs(n, rng)
    psi = haar_random_amplitudes(n, rng)
    psi.flags.writeable = False
    want = exact_evolution(h, t) @ psi
    forbid(monkeypatch, np.linalg, "eigh")  # the series ran, not the fallback
    got = apply_evolution(h, t, psi)
    assert np.abs(got - want).max() <= 1e-13


@pytest.mark.parametrize("t", [0.0, 0.8])
def test_no_term_returns_a_writable_copy(t):
    psi = haar_random_amplitudes(3, np.random.default_rng(1))
    psi.flags.writeable = False
    for h in (HamiltonianSpec(3, []), HamiltonianSpec(3, [PairTerm((0, 2), "XY", 0.0)])):
        got = apply_evolution(h, t, psi)
        assert got is not psi and got.flags.writeable and np.array_equal(got, psi)


def test_a_huge_time_takes_the_dense_path(monkeypatch):
    h = HamiltonianSpec.from_dict(XX_PAIR)
    psi = haar_random_amplitudes(2, np.random.default_rng(2))
    want = exact_evolution(h, 1e300) @ psi
    forbid(monkeypatch, mfsim.statevec, "_pauli_stack")
    assert np.array_equal(apply_evolution(h, 1e300, psi), want)


def test_the_register_cap_comes_before_any_allocation(monkeypatch):
    forbid(monkeypatch, mfsim.statevec, "_pauli_stack")
    forbid(monkeypatch, HamiltonianSpec, "to_matrix")
    with pytest.raises(ResourceError, match="13 qubits"):
        apply_evolution(HamiltonianSpec.chain_1d(13), 0.1, np.zeros(1 << 13, complex))


@pytest.mark.parametrize("seed", range(4))
def test_apply_plan_matches_plan_unitary(seed, monkeypatch):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    plan = compile_plan(nine_axis_pairs(n, rng), float(rng.uniform(-4, 4)), int(rng.integers(1, 6)))
    psi = haar_random_amplitudes(n, rng)
    want = plan_unitary(plan) @ psi
    forbid(monkeypatch, mfsim.compiler, "plan_unitary")
    assert np.abs(apply_plan(plan, psi) - want).max() <= 1e-13


def test_a_huge_step_count_takes_the_dense_plan(monkeypatch):
    plan = compile_plan(HamiltonianSpec.from_dict(XX_PAIR), 0.3, 10**15)
    psi = haar_random_amplitudes(2, np.random.default_rng(3))
    want = plan_unitary(plan) @ psi
    forbid(monkeypatch, mfsim.compiler, "_pauli_stack")
    assert np.array_equal(apply_plan(plan, psi), want)


@pytest.mark.parametrize("name", BYTE_IDENTITY_CONFIGS)
def test_noiseless_plan_fidelity_matches_the_dense_formula(name):
    cfg = ProtocolConfig.from_dict(BYTE_IDENTITY_CONFIGS[name])
    assert abs(noiseless_plan_fidelity(cfg) - dense_fidelity(cfg)) <= 1e-13


@pytest.mark.parametrize("workload", ["trotter3", "backup2-loss60"])
def test_benchmark_ensembles_run_no_eigendecomposition(workload, monkeypatch):
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda *a, **k: calls.append(a) or eigh(*a, **k))
    cfg = ProtocolConfig.from_dict(make_config(workload, 0, 20))
    _, stats = run_ensemble(cfg)
    assert len(stats) == 20 and noiseless_plan_fidelity(cfg) <= 1 + 1e-12
    assert calls == []
