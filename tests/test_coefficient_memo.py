"""A rotation's operator looked up by its pair and the sum of its branch forms.

``realize_v_kl``'s round loop adds each drawn branch's angle and XORs its
flip code; the operator of the product, up to a power of i, is kept in the
rotation's entry of its ``Program`` (``Program.entries``) by those two values.  The amplitudes must
agree within 1e-13, up to exactly one power of i, with those of
``conftest.reference_rotation``, which multiplies the drawn branches' dense
unitaries K / sqrt(w), on a register that applies the operator as a dense
matrix and on one that gathers it.
"""

import itertools

import numpy as np
import pytest

from mfsim.emission import PhotonEncoding
from mfsim.errors import IncompleteRotationError
from mfsim.feedback import EpsilonPolicy, PolicyMode, Program, realize_v_kl
from mfsim.harness import haar_random_amplitudes
from mfsim.loss import LossConfig
from mfsim.pauli import ErrorFrame, PauliAxis, PauliString, frame_conjugate_direction
from mfsim.statevec import StateVector

from conftest import assert_equal_up_to_power_of_i, reference_rotation

AXES = (PauliAxis.X, PauliAxis.Y, PauliAxis.Z)
PAIR = (2, 0)
LOSSES = {
    "lossless": LossConfig(),
    "heralded": LossConfig(p_loss=0.3),
    "silent": LossConfig(p_loss=0.3, encoding=PhotonEncoding.OCCUPATION),
    "backup": LossConfig(p_loss=0.6, backup_enabled=True),
}


def frame_with_sign(n, axes, sign):
    """An n-qubit frame that commutes (sign 1) or anticommutes (sign -1) with the rotation."""
    sites = {1: PauliAxis.Y}
    if sign < 0:
        sites[PAIR[0]] = next(a for a in AXES if a is not axes[0])
    frame = ErrorFrame.identity(n).updated(PauliString.embed(n, sites))
    assert frame_conjugate_direction(frame, PauliString.embed(n, dict(zip(PAIR, axes)))) == sign
    return frame


def compare(state, axes, t, policy, frame, seed, loss, program=None):
    """Run one rotation both ways on the same uniforms; return whether it closed."""
    want, want_frame, outcomes, closed = reference_rotation(
        state, PAIR, *axes, t, policy, frame, np.random.default_rng(seed), loss)
    try:
        got, got_frame, records = realize_v_kl(state, PAIR, *axes, t, policy, frame,
                                               np.random.default_rng(seed), loss, program)
        assert closed
    except IncompleteRotationError as err:
        assert not closed
        got, got_frame, records = err.state, err.frame, err.records
    assert_equal_up_to_power_of_i(got, want, 1e-13)
    assert got_frame == want_frame
    assert [r.outcome for r in records] == outcomes
    return closed


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("mode", list(PolicyMode))
@pytest.mark.parametrize("name", LOSSES)
@pytest.mark.parametrize("n", [3, 6])  # a dense operator, then a gathered one
def test_amplitudes_equal_the_running_product(n, name, mode, sign):
    loss, rng = LOSSES[name], np.random.default_rng(17)
    state = StateVector(haar_random_amplitudes(n, rng))
    programs = {m: Program(n, EpsilonPolicy(mode, m), loss) for m in (2, 10_000)}
    closed = []
    for axes, t, max_rounds in itertools.product(itertools.product(AXES, repeat=2),
                                                 (0.7, -2.9, 1e-3), (2, 10_000)):
        policy, frame = EpsilonPolicy(mode, max_rounds), frame_with_sign(n, axes, sign)
        program = programs[max_rounds]
        for seed in range(6):  # each seed twice: the second rotation reads what the first built
            closed.append(compare(state, axes, t, policy, frame, seed, loss, program))
            assert (*PAIR, *axes, t) in program.entries
            built = compiled(program)
            closed.append(compare(state, axes, t, policy, frame, seed, loss, program))
            assert compiled(program) == built
    assert True in closed and False in closed  # some rotations ran out of rounds


def compiled(program):
    """How many levels, pair records, entries, operators and rows ``program`` has built."""
    return (len(program.levels), len(program.pairs), len(program.entries),
            sum(len(entry[-1]) for entry in program.entries.values()), len(program.rows))


def test_the_power_of_i_check_fails_any_other_phase_or_change():
    state = StateVector(haar_random_amplitudes(3, np.random.default_rng(5)))
    for phase in (1, 1j, -1, -1j):
        assert_equal_up_to_power_of_i(StateVector(phase * state.amplitudes),
                                      state, 1e-13)
    changed = 1j * state.amplitudes
    changed[5] += 1e-11
    for other in (np.exp(0.1j) * state.amplitudes, changed):
        with pytest.raises(AssertionError):
            assert_equal_up_to_power_of_i(StateVector(other), state, 1e-13)
