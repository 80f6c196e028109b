"""The compiled plan as one ordered list of operations, and the CNOT demo as a program of them.

A plan's operations are its sweep's rotations, ``n_steps`` times over.  The
CNOT demo runs the program [B gates, V(pi/4), A gates] on the same
per-trajectory path as a Trotter plan, and its output is pinned byte for
byte: each digest is the sha256 of ``json.dumps(cnot_demo(...),
sort_keys=True)``.  To re-pin after a deliberate change of the draws, run
``PYTHONPATH=src python tests/test_operations.py`` and say why in the change
log.
"""

import hashlib
import itertools
import json
import math

import numpy as np
import pytest

from mfsim.compiler import HamiltonianSpec, LocalGate, PairTerm, Rotation, compile_plan, plan_unitary
from mfsim.feedback import EpsilonPolicy, Program
from mfsim.errors import UsageError
from mfsim.harness import (
    _draw_block,
    _run_operations,
    _trajectory_uniforms,
    cnot_demo,
    cnot_program,
    haar_random_amplitudes,
)
from mfsim.loss import LossConfig
from mfsim.pauli import PauliAxis, PauliString
from mfsim.statevec import StateVector

from conftest import I2, kron_le, random_hamiltonian

# (policy.max_rounds, master_seed, p_loss, backup atoms): the cnot-demo commands of the CI
# and of test_cli (4096 is the command's default round limit), then C7's two runs
CNOT_DEMOS = {
    "ci-seed3": (4096, 3, 0.0, False),
    "ci-seed3-loss50": (4096, 3, 0.5, True),
    "cli-seed2": (4096, 2, 0.0, False),
    "cli-seed2-loss30": (4096, 2, 0.3, True),
    "c7-noiseless": (256, 707, 0.0, False),
    "c7-loss50": (8192, 708, 0.5, True),
}

GOLDEN = {
    "ci-seed3": "97b5222cc46f9aa9d63b46f17747cf8e271cae80b6dfae0523c34ec01fef00ac",
    "ci-seed3-loss50": "c399aea8d238c8d629c9b7f97451e2b1f05f98e1e19d4ea098532d230f2c31a1",
    "cli-seed2": "22f46bd0737e6293ed7240649bef334245238b3dd56f99ed0461b1bd50764d35",
    "cli-seed2-loss30": "0b84356f35e6508d0bf982a6f5ac8cdc2e2c65e80fadacc38e251477fc6d04b3",
    "c7-noiseless": "d5d9461111cb09774e239b4466225a137868fc95f42017d07c7351e7fe939e5a",
    "c7-loss50": "d4f54b45ca763c15700fc0770b4905d0569f2e20b52674a79e41e3981ba4ef89",
}


def demo_digest(name: str) -> str:
    max_rounds, seed, p_loss, backup = CNOT_DEMOS[name]
    out = cnot_demo(EpsilonPolicy(max_rounds=max_rounds), master_seed=seed, p_loss=p_loss,
                    backup=backup)
    return hashlib.sha256(json.dumps(out, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("name", CNOT_DEMOS)
def test_cnot_demo_output_matches_golden_digest(name):
    assert demo_digest(name) == GOLDEN[name]


def test_cnot_demo_leaves_the_draw_block_cache():
    # each input draws from its own generator, so a demo neither builds nor evicts a block
    _trajectory_uniforms(5, 40).random()  # an ensemble's block
    before = _draw_block.cache_info()
    demo_digest("ci-seed3-loss50")
    assert _draw_block.cache_info() == before


def operations_unitary(operations, n: int) -> np.ndarray:
    """The dense product of ``operations`` on n qubits, the first applied first."""
    u = np.eye(1 << n, dtype=complex)
    for op in operations:
        if isinstance(op, LocalGate):
            m = kron_le(*(op.gate if q == op.site else I2 for q in range(n)))
        else:
            p = PauliString.embed(n, dict(zip(op.sites, op.axes))).matrix()
            m = math.cos(op.angle) * np.eye(1 << n) + 1j * math.sin(op.angle) * p
        u = m @ u
    return u


@pytest.mark.parametrize("seed", range(20))
def test_plan_operations_multiply_to_the_plan_unitary(seed):
    rng = np.random.default_rng(seed)
    plan = compile_plan(random_hamiltonian(rng, int(rng.integers(2, 5))),
                        float(rng.uniform(-2, 2)), int(rng.integers(1, 5)))
    ops = list(plan.operations())
    assert len(ops) == plan.total_rotations and all(type(op) is Rotation for op in ops)
    got = operations_unitary(ops, plan.n_qubits)
    assert np.abs(got - plan_unitary(plan)).max() <= 1e-12


def test_operations_hold_one_sweep_whatever_the_step_count():
    pair = HamiltonianSpec(3, [PairTerm((0, 1), "XX", 1.0), PairTerm((1, 2), "ZY", 0.5)])
    plan = compile_plan(pair, 0.3, 10**15)
    sweep = list(plan.sweep_rotations())
    assert list(itertools.islice(plan.operations(), 5)) == sweep * 2 + sweep[:1]
    assert list(compile_plan(HamiltonianSpec(2, []), 0.3, 10**15).operations()) == []


def haar_gate(rng) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    return q * (np.diag(r) / abs(np.diag(r)))


@pytest.mark.parametrize("loss", [LossConfig(), LossConfig(p_loss=0.4, backup_enabled=True)],
                         ids=["lossless", "backup-loss40"])
def test_local_gates_clear_their_sites_so_the_program_runs_exactly(loss):
    """Each local gate undoes its site's frame first, so the last ones leave no frame at all."""
    rng = np.random.default_rng(11)
    program = [Rotation((0, 1), (PauliAxis.X, PauliAxis.Y), 0.37),
               Rotation((1, 2), (PauliAxis.Z, PauliAxis.Z), -0.8),
               LocalGate(1, haar_gate(rng)),
               Rotation((2, 0), (PauliAxis.Y, PauliAxis.X), 1.1),
               LocalGate(0, haar_gate(rng)),
               LocalGate(2, haar_gate(rng))]
    exact = operations_unitary(program, 3)
    framed = 0
    for i in range(12):
        psi = haar_random_amplitudes(3, rng)
        state, frame, records, rounds, stop = _run_operations(
            program, StateVector(psi), _trajectory_uniforms(9, i),
            Program(3, EpsilonPolicy(max_rounds=4096), loss))
        assert stop is None and frame.text == "III"
        assert len(rounds) == 3 and sum(rounds) == len(records)
        framed += any(r.frame_after != "III" for r in records)
        assert abs(np.vdot(exact @ psi, state.amplitudes)) ** 2 == pytest.approx(1.0, abs=1e-12)
    assert framed > 0  # some corrections had something to undo


def test_a_rotation_out_of_rounds_stops_the_program():
    program = [Rotation((0, 1), (PauliAxis.X, PauliAxis.X), 0.3),
               Rotation((0, 1), (PauliAxis.Z, PauliAxis.Z), math.pi / 4),
               LocalGate(0, I2)]
    stops = []
    for i in range(20):
        *_, records, rounds, stop = _run_operations(
            program, StateVector(np.eye(4)[0]), _trajectory_uniforms(4, i),
            Program(2, EpsilonPolicy(max_rounds=1), LossConfig(p_loss=0.5, backup_enabled=True)))
        assert sum(rounds) == len(records) and len(rounds) <= 2
        if stop is not None:
            assert stop.rotation is program[len(rounds) - 1] and stop.records == records[-1:]
            stops.append(stop)
    assert stops


@pytest.mark.parametrize("site, message", [
    (0.5, "site must be an integer, got 0.5"), (-1, "site must be non-negative"),
    ("0", "site must be an integer"), (True, "site must be an integer")])
def test_local_gate_site_must_be_a_non_negative_integer(site, message):
    with pytest.raises(UsageError, match=f"^{message}"):
        LocalGate(site, I2)
    assert type(LocalGate(0.0, I2).site) is int


@pytest.mark.parametrize("gate, message", [
    (np.zeros((2, 2)), "gate is not unitary"), (np.eye(3), r"gate has shape \(3, 3\)"),
    (np.eye(4), r"gate has shape \(4, 4\)"), (np.diag([1, np.nan]), "gate is not unitary")])
def test_local_gate_must_be_a_2x2_unitary(gate, message):
    with pytest.raises(UsageError, match=f"^{message}"):
        LocalGate(0, gate)


def test_local_gate_keeps_a_read_only_copy():
    gate = np.array([[0, 1], [1, 0]])
    op = LocalGate(1, gate)
    assert gate.flags.writeable and op.gate is not gate and not op.gate.flags.writeable
    assert op.gate.dtype == complex and np.array_equal(op.gate, gate)
    assert all(not op.gate.flags.writeable for op in cnot_program() if type(op) is LocalGate)


def test_local_gate_past_the_register_raises():
    program = [Rotation((0, 1), (PauliAxis.X, PauliAxis.X), 0.3), LocalGate(2, I2)]
    with pytest.raises(UsageError, match="^site 2 is past the 2-qubit register"):
        _run_operations(program, StateVector(np.eye(4)[0]), _trajectory_uniforms(0, 0),
                        Program(2, EpsilonPolicy()))


if __name__ == "__main__":
    for name in CNOT_DEMOS:
        print(f'    "{name}": "{demo_digest(name)}",')
