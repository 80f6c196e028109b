"""The angle rule: ``feedback.reduce_angle`` reduces a rotation angle mod pi into (-pi/2, pi/2].

It returns the residual a rotation's first round aims at, or None within the
angle tolerance of a multiple of pi.  The levels, their doubling walk and
``compiler.round_budget`` all read it.  The doubling chains of k pi/128
(k = 1 .. 127) reach residuals within the tolerance above -pi/2 for 48 of the
angles; the rule keeps them there, since past pi/2 ``residual_exact`` would
ask for eps > 1.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mfsim.cli import EXIT_OK, main
from mfsim.compiler import HamiltonianSpec, compile_plan, round_budget
from mfsim.emission import BeamSplitterOutcome, outcome_probabilities
from mfsim.feedback import EpsilonPolicy, PolicyMode, Program, realize_v_kl, reduce_angle
from mfsim.loss import LossConfig
from mfsim.pauli import PauliAxis, PauliString
from mfsim.statevec import StateVector, apply_pauli_string

from conftest import rot_xx

EXACT = [k * math.pi / 128 for k in range(1, 128)]
# each exact angle and its neighbours one ulp below and above
ANGLES = [a for t in EXACT for a in (math.nextafter(t, -math.inf), t, math.nextafter(t, math.inf))]
LOSSES = {"lossless": None, "backup-loss30": LossConfig(p_loss=0.3, backup_enabled=True)}
X = PauliAxis.X
XX_CONFIG = {"hamiltonian": {"n_qubits": 2, "terms": [{"sites": [0, 1], "axes": "XX",
                                                       "coeff": 1.0}]},
             "n_steps": 1, "trajectories": 3}


def in_old_window(t):
    """Whether the doubling chain of ``t`` mod pi reaches a residual in (-pi/2, -pi/2 + 1e-12]."""
    residual = math.remainder(t, math.pi)
    for _ in range(64):
        if abs(residual) <= 1e-12:
            return False
        if -math.pi / 2 < residual <= -math.pi / 2 + 1e-12:
            return True
        residual = math.remainder(residual + residual, math.pi)
    raise AssertionError(f"the chain of {t!r} runs past 64 levels")


def near_half_pi_multiples():
    """k pi/2 for |k| up to 2^20, moved by up to 4 ulps either way."""
    def moved(k, steps):
        t = k * math.pi / 2
        for _ in range(abs(steps)):
            t = math.nextafter(t, math.copysign(math.inf, steps))
        return t
    return st.builds(moved, st.integers(-2**20, 2**20), st.integers(-4, 4))


@settings(derandomize=True, max_examples=500, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False) | near_half_pi_multiples())
def test_reduce_angle_stays_in_the_half_open_range(t):
    residual = reduce_angle(t)
    if residual is None:
        assert abs(math.remainder(t, math.pi)) <= 1e-12
    else:
        assert -math.pi / 2 < residual <= math.pi / 2 and abs(residual) > 1e-12


def test_only_the_tie_moves_up():
    below = math.nextafter(-math.pi / 2, 0.0)
    assert reduce_angle(-math.pi / 2) == math.pi / 2
    assert reduce_angle(below) == below
    assert reduce_angle(math.pi / 2 + 5e-13) == math.pi / 2 + 5e-13 - math.pi
    assert reduce_angle(1e-12) is None and reduce_angle(math.pi + 2e-12) is not None


def test_the_sweep_enters_the_window_a_wider_move_spoiled():
    assert sum(map(in_old_window, EXACT)) == 48
    assert sum(map(in_old_window, ANGLES)) == 175
    assert in_old_window(13 * math.pi / 128) and in_old_window(math.pi / 2 + 5e-13)


@pytest.mark.parametrize("mode", list(PolicyMode))
@pytest.mark.parametrize("loss", LOSSES.values(), ids=LOSSES)
def test_every_angle_of_the_sweep_completes(mode, loss):
    """Under ``residual_exact`` the frame-corrected output is e^{itXX} psi."""
    policy = EpsilonPolicy(mode, max_rounds=10_000)
    program, rng = Program(2, policy, loss), np.random.default_rng(48)
    psi = np.array([0.6, 0.48j, -0.64, 0.0], dtype=complex)
    for t in ANGLES:
        out, frame, _ = realize_v_kl(StateVector(psi), (0, 1), X, X, t, policy,
                                     PauliString.identity(2), rng, loss, program)
        if mode is PolicyMode.RESIDUAL_EXACT:
            got = apply_pauli_string(out, frame).amplitudes
            assert abs(np.vdot(rot_xx(t) @ psi, got)) ** 2 >= 1 - 1e-12, t


def test_round_budget_reads_the_levels_rule():
    xx = HamiltonianSpec.from_dict(XX_CONFIG["hamiltonian"])
    program = Program(2, EpsilonPolicy())
    for t in (*ANGLES[36:42], math.pi / 2, -math.pi / 2, math.pi / 2 + 5e-13, 1e-12, math.pi):
        level, serial = program.level(t), round_budget(compile_plan(xx, t, 1))["serial_rounds"]
        if level is None:
            assert serial == 0
        else:
            assert serial == 1 / outcome_probabilities(level.eps)[BeamSplitterOutcome.PLUS]


@pytest.mark.parametrize("t", [13 * math.pi / 128, math.pi / 2 + 5e-13], ids=["13pi/128", "pi/2"])
def test_simulate_runs_a_rotation_whose_chain_enters_the_window(t, tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**XX_CONFIG, "t": t}))
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "run")]) == EXIT_OK
    report = json.loads((tmp_path / "run" / "report.json").read_text())
    assert report["n_failed"] == 0
