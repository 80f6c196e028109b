"""The package's sixteen value types: their methods come from source, and their behaviour is pinned.

Each type is a dataclass for ``fields``, ``replace``, ``astuple`` and
``is_dataclass``, but its ``__init__`` is written out and its ``repr``,
``==``, ``hash`` and immutability come from ``errors.Value`` and
``errors.FrozenValue``, so importing the package generates no method.  An
AST scan of ``src/mfsim`` checks each decorator's flags, whatever a Python
version does inside ``dataclass``; the pins check each type's ``repr`` text,
``==`` and ``hash`` against an equal and an unequal instance, its field
names, its constructor's parameters and, for the frozen types, the
``FrozenInstanceError`` text.
"""

import ast
import dataclasses
import inspect
from pathlib import Path

import numpy as np
import pytest

from mfsim.compiler import HamiltonianSpec, LocalGate, PairTerm, Rotation, TrotterPlan
from mfsim.emission import PhotonEncoding
from mfsim.feedback import EpsilonPolicy, PolicyMode, RoundRecord, Rounds
from mfsim.harness import ProtocolConfig, TrajectoryStats
from mfsim.loss import LossConfig, RoundBranch, RoundTable, round_branches
from mfsim.pauli import PauliString
from mfsim.statevec import RegisterLayout, StateVector

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mfsim"
REQUIRED = {"init": False, "repr": False, "eq": False}
FORBIDDEN = {"frozen", "order", "unsafe_hash"}


def decorator_faults(source):
    """(line, fault) for each ``dataclass`` decorator that would have methods generated."""
    faults = []
    for node in ast.walk(ast.parse(source)):
        for dec in getattr(node, "decorator_list", ()):
            call = dec if isinstance(dec, ast.Call) else None
            target = call.func if call else dec
            name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
            if name != "dataclass":
                continue
            flags = {k.arg: k.value for k in call.keywords} if call else {}
            for key, want in REQUIRED.items():
                if not (isinstance(flags.get(key), ast.Constant) and flags[key].value is want):
                    faults.append((dec.lineno, f"{key} is not {want}"))
            faults += [(dec.lineno, f"passes {key}") for key in sorted(FORBIDDEN & set(flags))]
    return faults


def test_no_dataclass_decorator_generates_a_method():
    faults = {p.name: decorator_faults(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    assert {name: f for name, f in faults.items() if f} == {}


def test_the_scan_sees_every_generating_form():
    source = ("import dataclasses\nfrom dataclasses import dataclass\n"
              "@dataclass\nclass A: pass\n"
              "@dataclass(init=False, repr=False, eq=False, frozen=True)\nclass B: pass\n"
              "@dataclasses.dataclass(init=False, repr=False)\nclass C: pass\n"
              "@dataclass(init=False, repr=False, eq=False, slots=True)\nclass D: pass\n"
              "@dataclass(init=False, repr=False, eq=0, order=True)\nclass E: pass\n")
    assert decorator_faults(source) == [
        (3, "init is not False"), (3, "repr is not False"), (3, "eq is not False"),
        (5, "passes frozen"), (7, "eq is not False"), (11, "eq is not False"),
        (11, "passes order")]


def method_files(cls):
    """Where each of ``cls``'s dataclass-generable methods is defined: a file, or ``<string>``."""
    names = ("__init__", "__repr__", "__eq__", "__hash__", "__setattr__", "__delattr__")
    methods = {name: getattr(cls, name) for name in names}
    return {name: Path(m.__code__.co_filename).name for name, m in methods.items()
            if hasattr(m, "__code__")}  # object's own methods and None have no code


TERM = PairTerm((0, 1), "XY", 0.5)
ROTATION = Rotation((0, 1), "XX", 0.1)
HADAMARD = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
ROWS = (("+", 0.5, 0.25, None, None),)
CODE = 0b100 << 32  # the one-qubit identity frame's key, above row 0


def table():
    return round_branches(0.2, LossConfig())


def config(**changes):
    return ProtocolConfig(**{"hamiltonian": HamiltonianSpec.chain_1d(2), "t": 0.5,
                             "n_steps": 4, **changes})


def stats(**changes):
    return TrajectoryStats(**{"index": 0, "rounds_per_rotation": [1, 2], "final_frame": "II",
                              "fidelity_vs_oracle": 0.99, "failure_reason": None,
                              "codes": [CODE], "rows": ROWS, **changes})


# type: (instance, equal instance, unequal instance, repr, fields)
PINS = {
    PauliString: (
        lambda: PauliString.from_str("XY"), lambda: PauliString.from_masks(2, 3, 2),
        lambda: PauliString.from_str("XZ"), "PauliString(n=2, x=3, z=2)", ("n", "x", "z")),
    RegisterLayout: (
        lambda: RegisterLayout(5), lambda: RegisterLayout.build(3), lambda: RegisterLayout(4),
        "RegisterLayout(n_qubits=5)", ("n_qubits",)),
    StateVector: (
        lambda: StateVector([1, 0]), lambda: StateVector(np.array([1.0, 0.0])),
        lambda: StateVector([0, 1]),
        "StateVector(amplitudes=array([1.+0.j, 0.+0.j]), n_qubits=1)",
        ("amplitudes", "n_qubits")),
    LossConfig: (
        lambda: LossConfig(0.3, PhotonEncoding.OCCUPATION),
        lambda: LossConfig(p_loss=3 / 10, encoding=PhotonEncoding.OCCUPATION),
        lambda: LossConfig(0.3),
        "LossConfig(p_loss=0.3, encoding=<PhotonEncoding.OCCUPATION: 'occupation'>, "
        "backup_enabled=False)", ("p_loss", "encoding", "backup_enabled")),
    RoundBranch: (
        lambda: RoundBranch("loss", None, (True, False), (0, 1), (True, False)),
        lambda: RoundBranch("loss", None, (True, False), b_bits=(0, 1), lost=(True, False)),
        lambda: RoundBranch("loss", None, (True, False), (0, 1)),
        "RoundBranch(label='loss', direction=None, flips=(True, False), b_bits=(0, 1), "
        "lost=(True, False))", ("label", "direction", "flips", "b_bits", "lost")),
    EpsilonPolicy: (
        lambda: EpsilonPolicy(PolicyMode.PAPER_DOUBLING, 8),
        lambda: EpsilonPolicy(mode=PolicyMode.PAPER_DOUBLING, max_rounds=8.0),
        lambda: EpsilonPolicy(max_rounds=8),
        "EpsilonPolicy(mode=<PolicyMode.PAPER_DOUBLING: 'paper_doubling'>, max_rounds=8)",
        ("mode", "max_rounds")),
    RoundRecord: (
        lambda: RoundRecord("+", 0.25, 0.3, "XI"), lambda: RoundRecord("+", 0.25, 0.3, "XI", None),
        lambda: RoundRecord("+", 0.25, 0.3, "XI", (0, 1)),
        "RoundRecord(outcome='+', eps_used=0.25, aimed_angle=0.3, frame_after='XI', "
        "b_measurements=None, lost=None)",
        ("outcome", "eps_used", "aimed_angle", "frame_after", "b_measurements", "lost")),
    Rounds: (
        lambda: Rounds([CODE], ROWS), lambda: Rounds([CODE], list(ROWS)),
        lambda: Rounds([CODE, CODE], ROWS),
        "Rounds(codes=[17179869184], rows=(('+', 0.5, 0.25, None, None),))", ("codes", "rows")),
    PairTerm: (
        lambda: TERM, lambda: PairTerm([0, 1.0], "XY", 1 / 2), lambda: PairTerm((0, 1), "XY", 0.6),
        "PairTerm(sites=(0, 1), axes=(<PauliAxis.X: 'X'>, <PauliAxis.Y: 'Y'>), coeff=0.5)",
        ("sites", "axes", "coeff")),
    HamiltonianSpec: (
        lambda: HamiltonianSpec(2, [TERM]), lambda: HamiltonianSpec(2.0, (TERM,)),
        lambda: HamiltonianSpec(3, [TERM]),
        "HamiltonianSpec(n_qubits=2, terms=(PairTerm(sites=(0, 1), axes=(<PauliAxis.X: 'X'>, "
        "<PauliAxis.Y: 'Y'>), coeff=0.5),))", ("n_qubits", "terms")),
    Rotation: (
        lambda: ROTATION, lambda: Rotation([0, 1], "XX", 0.1), lambda: Rotation((1, 0), "XX", 0.1),
        "Rotation(sites=(0, 1), axes=(<PauliAxis.X: 'X'>, <PauliAxis.X: 'X'>), angle=0.1)",
        ("sites", "axes", "angle")),
    TrotterPlan: (
        lambda: TrotterPlan(2, 3, [[ROTATION]]), lambda: TrotterPlan(2, 3.0, ((ROTATION,),)),
        lambda: TrotterPlan(2, 4, [[ROTATION]]),
        "TrotterPlan(n_qubits=2, n_steps=3, layers=((Rotation(sites=(0, 1), "
        "axes=(<PauliAxis.X: 'X'>, <PauliAxis.X: 'X'>), angle=0.1),),))",
        ("n_qubits", "n_steps", "layers")),
    ProtocolConfig: (
        config, lambda: config(t=1 / 2, n_steps=4.0), lambda: config(master_seed=1),
        "ProtocolConfig(hamiltonian=HamiltonianSpec(n_qubits=2, terms=(PairTerm(sites=(0, 1), "
        "axes=(<PauliAxis.X: 'X'>, <PauliAxis.X: 'X'>), coeff=1.0),)), t=0.5, n_steps=4, "
        "policy=EpsilonPolicy(mode=<PolicyMode.RESIDUAL_EXACT: 'residual_exact'>, "
        "max_rounds=64), loss=LossConfig(p_loss=0.0, encoding=<PhotonEncoding.POLARIZATION: "
        "'polarization'>, backup_enabled=False), initial_state='all_zeros', trajectories=1, "
        "master_seed=0)",
        ("hamiltonian", "t", "n_steps", "policy", "loss", "initial_state", "trajectories",
         "master_seed")),
    TrajectoryStats: (
        stats, lambda: stats(fidelity_vs_oracle=99 / 100), lambda: stats(rows=()),
        "TrajectoryStats(index=0, rounds_per_rotation=[1, 2], final_frame='II', "
        "fidelity_vs_oracle=0.99, failure_reason=None, codes=[17179869184])",
        ("index", "rounds_per_rotation", "final_frame", "fidelity_vs_oracle", "failure_reason",
         "codes", "rows")),
}
FROZEN = {PauliString, RegisterLayout, LossConfig, RoundBranch, RoundTable, EpsilonPolicy,
          RoundRecord, PairTerm, HamiltonianSpec, Rotation, LocalGate, TrotterPlan,
          ProtocolConfig}
UNHASHABLE = {StateVector, Rounds, TrajectoryStats}
BY_IDENTITY = {RoundTable, LocalGate}
TYPES = [*PINS, *BY_IDENTITY]


def instance(cls):
    if cls is RoundTable:
        return table()
    if cls is LocalGate:
        return LocalGate(1, HADAMARD)
    return PINS[cls][0]()


def test_sixteen_types():
    assert len(TYPES) == len(set(TYPES)) == 16 and FROZEN | UNHASHABLE == set(TYPES)


@pytest.mark.parametrize("cls", list(PINS), ids=lambda c: c.__name__)
def test_repr_equality_hash_and_fields(cls):
    make, make_equal, make_other, text, names = PINS[cls]
    value, equal, other = make(), make_equal(), make_other()
    assert repr(value) == text
    assert value == equal and equal == value and not value != equal
    assert value != other and other != value and not value == other
    assert value != object() and (value == object()) is False
    assert tuple(f.name for f in dataclasses.fields(cls)) == names
    assert dataclasses.is_dataclass(value) and dataclasses.is_dataclass(cls)
    if cls in UNHASHABLE:
        with pytest.raises(TypeError, match="unhashable type"):
            hash(value)
    else:
        assert hash(value) == hash(equal)
        assert hash(value) != hash(other)
        if cls is not ProtocolConfig:  # its hash leaves initial_state out
            assert hash(value) == hash(tuple(getattr(value, n) for n in names))


@pytest.mark.parametrize("cls", TYPES, ids=lambda c: c.__name__)
def test_every_method_comes_from_the_package_source(cls):
    files = method_files(cls)
    assert "__init__" in files and "__repr__" in files
    assert set(files.values()) <= {p.name for p in PACKAGE.glob("*.py")}, files


@pytest.mark.parametrize("cls", sorted(BY_IDENTITY, key=lambda c: c.__name__),
                         ids=lambda c: c.__name__)
def test_tables_and_gates_compare_and_hash_by_identity(cls):
    value = instance(cls)
    copy = cls(*(getattr(value, f.name) for f in dataclasses.fields(cls)))
    assert value == value and value != copy and not value == copy
    assert hash(value) == object.__hash__(value) and hash(copy) != hash(value)
    names = [f.name for f in dataclasses.fields(cls)]
    assert names == (["kraus", "branches", "cumulative", "forms"] if cls is RoundTable
                     else ["site", "gate"])
    assert repr(value) == f"{cls.__name__}(" + ", ".join(
        f"{n}={getattr(value, n)!r}" for n in names) + ")"
    if cls is LocalGate:
        assert repr(value).startswith("LocalGate(site=1, gate=array([[ 0.70710678+0.j,")


@pytest.mark.parametrize("cls", sorted(FROZEN, key=lambda c: c.__name__),
                         ids=lambda c: c.__name__)
def test_frozen_types_refuse_assignment_and_deletion(cls):
    value = instance(cls)
    name = dataclasses.fields(cls)[0].name
    before = getattr(value, name)
    for target in (name, "other"):
        with pytest.raises(dataclasses.FrozenInstanceError,
                           match=f"^cannot assign to field '{target}'$"):
            setattr(value, target, 1)
        with pytest.raises(dataclasses.FrozenInstanceError,
                           match=f"^cannot delete field '{target}'$"):
            delattr(value, target)
    assert getattr(value, name) is before and not hasattr(value, "other")


@pytest.mark.parametrize("cls", sorted(UNHASHABLE, key=lambda c: c.__name__),
                         ids=lambda c: c.__name__)
def test_unhashable_types_take_assignment(cls):
    value, new = instance(cls), object()
    name = dataclasses.fields(cls)[0].name
    setattr(value, name, new)
    assert getattr(value, name) is new


def test_slots_stay_where_declared():
    for cls in TYPES:
        has_slots = "__slots__" in vars(cls)
        assert has_slots == (cls in (StateVector, Rounds)), cls
        assert hasattr(instance(cls), "__dict__") != has_slots, cls
    assert StateVector.__slots__ == ("amplitudes", "n_qubits")
    assert Rounds.__slots__ == ("codes", "rows")


# the parameters of each constructor: (name, default), inspect.Parameter.empty for none
EMPTY = inspect.Parameter.empty


def test_constructor_signatures_and_defaults():
    got = {cls.__name__: [(p.name, p.default) for p in inspect.signature(cls).parameters.values()]
           for cls in TYPES}
    factory = got["TrajectoryStats"].pop(5)  # codes: a fresh list per trajectory
    assert factory[0] == "codes"
    assert stats().codes == [CODE] and TrajectoryStats(0, [], "I", 1.0, None).codes == []
    assert TrajectoryStats(0, [], "I", 1.0, None).codes is not TrajectoryStats(
        0, [], "I", 1.0, None).codes
    assert got == {
        "PauliString": [("axes", EMPTY)],
        "RegisterLayout": [("n_qubits", EMPTY)],
        "StateVector": [("amplitudes", EMPTY)],
        "LossConfig": [("p_loss", 0.0), ("encoding", PhotonEncoding.POLARIZATION),
                       ("backup_enabled", False)],
        "RoundBranch": [("label", EMPTY), ("direction", EMPTY), ("flips", EMPTY),
                        ("b_bits", None), ("lost", None)],
        "RoundTable": [("kraus", EMPTY), ("branches", EMPTY), ("cumulative", EMPTY),
                       ("forms", EMPTY)],
        "EpsilonPolicy": [("mode", PolicyMode.RESIDUAL_EXACT), ("max_rounds", 64)],
        "RoundRecord": [("outcome", EMPTY), ("eps_used", EMPTY), ("aimed_angle", EMPTY),
                        ("frame_after", EMPTY), ("b_measurements", None), ("lost", None)],
        "Rounds": [("codes", EMPTY), ("rows", ())],
        "PairTerm": [("sites", EMPTY), ("axes", EMPTY), ("coeff", EMPTY)],
        "HamiltonianSpec": [("n_qubits", EMPTY), ("terms", EMPTY)],
        "Rotation": [("sites", EMPTY), ("axes", EMPTY), ("angle", EMPTY)],
        "LocalGate": [("site", EMPTY), ("gate", EMPTY)],
        "TrotterPlan": [("n_qubits", EMPTY), ("n_steps", EMPTY), ("layers", EMPTY)],
        "ProtocolConfig": [("hamiltonian", EMPTY), ("t", EMPTY), ("n_steps", EMPTY),
                           ("policy", EpsilonPolicy()), ("loss", LossConfig()),
                           ("initial_state", "all_zeros"), ("trajectories", 1),
                           ("master_seed", 0)],
        "TrajectoryStats": [("index", EMPTY), ("rounds_per_rotation", EMPTY),
                            ("final_frame", EMPTY), ("fidelity_vs_oracle", EMPTY),
                            ("failure_reason", EMPTY), ("rows", ())],
    }


@pytest.mark.parametrize("cls", [c for c in TYPES if c is not PauliString],
                         ids=lambda c: c.__name__)
def test_replace_and_astuple_read_the_fields(cls):
    value = instance(cls)
    copy = dataclasses.replace(value)
    assert type(copy) is cls and (copy != value if cls in BY_IDENTITY else copy == value)
    if cls not in BY_IDENTITY | {StateVector}:  # astuple holds arrays for these
        assert dataclasses.astuple(copy) == dataclasses.astuple(value)
