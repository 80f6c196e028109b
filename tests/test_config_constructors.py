"""The config types check their own values, and the JSON reader checks them no second time.

``ProtocolConfig.from_dict`` reads key sets, JSON types and enum names; the
constructors check every value.  So a value put at one field of a valid config
builds equal configs through ``from_dict`` and through the constructors, or
fails both ways: ``from_dict`` raises ConfigError with the text of the
constructors' UsageError (a term names its own fields, and the reader puts
the term's key in front), and past the work budget both raise the same
ResourceError.
"""

import copy
import math

import pytest
from hypothesis import given, settings, strategies as st

from mfsim.compiler import HamiltonianSpec, PairTerm, compile_plan
from mfsim.emission import PhotonEncoding
from mfsim.errors import ConfigError, ResourceError, UsageError
from mfsim.feedback import EpsilonPolicy, PolicyMode
from mfsim.harness import ProtocolConfig
from mfsim.loss import LossConfig
from mfsim.pauli import PauliAxis

BASE = {
    "hamiltonian": {"n_qubits": 3, "terms": [{"sites": [0, 1], "axes": "XY", "coeff": 0.7},
                                             {"sites": [1, 2], "axes": "ZZ", "coeff": -1}]},
    "t": 0.5,
    "n_steps": 2,
    "policy": {"mode": "paper_doubling", "max_rounds": 8},
    "loss": {"p_loss": 0.3, "encoding": "polarization", "backup_enabled": True},
    "initial_state": {"random_seed": 3},
    "trajectories": 2,
    "master_seed": 1,
}

# Every field whose JSON value is also its Python value; a mode or an encoding
# is an enum name in JSON and a member in Python, so the reader maps it.
FIELDS = [("t",), ("n_steps",), ("trajectories",), ("master_seed",), ("initial_state",),
          ("initial_state", "random_seed"), ("policy", "max_rounds"), ("loss", "p_loss"),
          ("loss", "backup_enabled"), ("hamiltonian", "n_qubits"),
          ("hamiltonian", "terms", 0, "sites"), ("hamiltonian", "terms", 1, "sites", 0),
          ("hamiltonian", "terms", 1, "axes"), ("hamiltonian", "terms", 0, "coeff")]

VALUES = (st.none() | st.booleans() | st.integers() | st.floats() | st.text("IXYZ", max_size=3)
          | st.sampled_from([0, 1, 2, 3, -1, 2.5, 16.0, 1.5, 10**12, 2**41, 10**400, 1e308,
                             "0.3", "5", "all_plus", "bogus", [0, 1], [1, 0], [0, 0], [0, 5],
                             [0.0, 2.0], [0, 1.5], [0, 1, 2], [], {}, {"random_seed": -1},
                             {"random_seed": 2, "amplitudes": []}, {"seed": 1},
                             {"amplitudes": [[1, 0]] * 8}, {"amplitudes": [[1, 0]] * 3}]))


def constructed(d: dict) -> ProtocolConfig:
    """The config of ``d`` built with the constructors, each given its JSON value as it is."""
    h, pol, lo = d["hamiltonian"], d["policy"], d["loss"]
    terms = []
    for i, t in enumerate(h["terms"]):
        try:
            terms.append(PairTerm(t["sites"], t["axes"], t["coeff"]))
        except UsageError as exc:
            raise UsageError(f"hamiltonian.terms[{i}].{exc}") from None
    return ProtocolConfig(
        HamiltonianSpec(h["n_qubits"], terms), d["t"], d["n_steps"],
        EpsilonPolicy(PolicyMode(pol["mode"]), pol["max_rounds"]),
        LossConfig(lo["p_loss"], PhotonEncoding(lo["encoding"]), lo["backup_enabled"]),
        d["initial_state"], d["trajectories"], d["master_seed"])


def outcome(build, d):
    try:
        return build(d)
    except (ValueError, ResourceError) as exc:
        return type(exc), str(exc)


def replaced(path, value) -> dict:
    d = copy.deepcopy(BASE)
    parent = d
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return d


def test_the_base_builds_the_same_config_both_ways():
    assert ProtocolConfig.from_dict(BASE) == constructed(BASE)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.sampled_from(FIELDS), VALUES)
def test_reader_and_constructors_accept_and_reject_the_same_values(path, value):
    d = replaced(path, value)
    read, built = outcome(ProtocolConfig.from_dict, d), outcome(constructed, d)
    if isinstance(built, ProtocolConfig):
        assert read == built and read.to_dict() == built.to_dict()
    elif built[0] is ResourceError:
        assert read == built
    else:
        assert built[0] is UsageError and read == (ConfigError, built[1])


BASE_H = HamiltonianSpec(2, (PairTerm((0, 1), "XX", 1.0),))


@pytest.mark.parametrize("build,error,text", [
    (lambda: EpsilonPolicy(max_rounds=0), UsageError, "policy.max_rounds must be at least 1"),
    (lambda: EpsilonPolicy(max_rounds=-3), UsageError, "policy.max_rounds must be at least 1"),
    (lambda: EpsilonPolicy(max_rounds=2.5), UsageError,
     "policy.max_rounds must be an integer, got 2.5"),
    (lambda: EpsilonPolicy(max_rounds=True), UsageError,
     "policy.max_rounds must be an integer, got True"),
    (lambda: EpsilonPolicy(max_rounds="5"), UsageError,
     "policy.max_rounds must be an integer, got '5'"),
    (lambda: ProtocolConfig(BASE_H, 0.3, 2, trajectories=-2), UsageError,
     "trajectories must be non-negative"),
    (lambda: ProtocolConfig(BASE_H, 0.3, 2, trajectories=10**12), ResourceError,
     "trajectories x n_steps x rotations per step x policy.max_rounds is 1.280e+14, "
     "past the work budget of 2^40 rounds"),
    (lambda: HamiltonianSpec(2.5, ()), UsageError,
     "hamiltonian.n_qubits must be an integer, got 2.5"),
    (lambda: PairTerm((0, 1.5), "XX", 1.0), UsageError, "sites must be an integer, got 1.5"),
    (lambda: compile_plan(BASE_H, 0.3, 2.5), UsageError, "n_steps must be an integer, got 2.5"),
    (lambda: LossConfig(p_loss="0.3"), UsageError,
     "loss.p_loss must be finite and a JSON number, got '0.3'"),
    (lambda: PairTerm((0, 1), "XX", coeff="1.0"), UsageError,
     "coeff must be finite and a JSON number, got '1.0'"),
    (lambda: ProtocolConfig(BASE_H, 0.3, n_steps=2.5), UsageError,
     "n_steps must be an integer, got 2.5"),
    (lambda: ProtocolConfig(BASE_H, 0.3, 2, initial_state={"random_seed": 1, "amplitudes": []}),
     UsageError, "initial_state needs exactly one of random_seed, amplitudes"),
    (lambda: PairTerm((0, 1), "XI", 1.0), UsageError,
     "axes must be two letters of X, Y, Z, got 'XI'"),
])
def test_a_bad_value_raises_at_construction_naming_its_key(build, error, text):
    with pytest.raises(error) as exc:
        build()
    assert str(exc.value) == text


def test_constructors_read_integral_floats_as_integers_and_integers_as_floats():
    term = PairTerm([0.0, 1], "XY", 2)
    assert term == PairTerm((0, 1), (PauliAxis.X, PauliAxis.Y), 2.0)
    assert (term.sites, term.axes, type(term.coeff)) == ((0, 1), (PauliAxis.X, PauliAxis.Y), float)
    cfg = ProtocolConfig(HamiltonianSpec(2.0, [term]), 1, 16.0, EpsilonPolicy(max_rounds=64.0),
                         LossConfig(p_loss=0), trajectories=3.0, master_seed=7.0)
    assert cfg.to_dict() == ProtocolConfig.from_dict(cfg.to_dict()).to_dict()
    assert [type(v) for v in (cfg.t, cfg.n_steps, cfg.policy.max_rounds, cfg.loss.p_loss,
                              cfg.trajectories, cfg.master_seed, cfg.hamiltonian.n_qubits)] == [
        float, int, int, float, int, int, int]
    assert math.isclose(next(cfg.plan.operations()).angle, 2.0 / 16)


@pytest.mark.parametrize("init, same", [
    ("all_plus", "all_plus"),
    ({"random_seed": 4}, {"random_seed": 4.0}),
    ({"amplitudes": [[1, 0]] + [[0, 0]] * 7}, {"amplitudes": [[1.0, 0.0]] + [[0.0, -0.0]] * 7}),
])
def test_equal_configs_hash_equal_whatever_their_initial_state(init, same):
    a = ProtocolConfig.from_dict({**BASE, "initial_state": init})
    b = ProtocolConfig.from_dict({**BASE, "initial_state": same})
    assert a == b and hash(a) == hash(b) and len({a, b, a}) == 1
    assert a.to_dict()["initial_state"] is init
    other = ProtocolConfig.from_dict({**BASE, "initial_state": init, "master_seed": 99})
    assert other != a and len({a, other}) == 2
