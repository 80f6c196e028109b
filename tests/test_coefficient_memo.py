"""Pauli-sum coefficients looked up by the sum of a rotation's branch forms.

``realize_v_kl``'s round loop adds each drawn branch's angle and power of i
and XORs its flip code; the coefficients of the product are cached by those
three values.  The amplitudes must agree within 1e-13, global phase included,
with those of ``conftest.reference_rotation``, which multiplies the drawn
branches' dense unitaries K / sqrt(w).
"""

import itertools

import numpy as np
import pytest

from mfsim.emission import PhotonEncoding
from mfsim.errors import IncompleteRotationError
from mfsim.feedback import EpsilonPolicy, PolicyMode, _pauli_sum, realize_v_kl
from mfsim.harness import haar_random_amplitudes
from mfsim.loss import LossConfig
from mfsim.pauli import ErrorFrame, PauliAxis, PauliString, frame_conjugate_direction
from mfsim.statevec import RegisterLayout, StateVector

from conftest import reference_rotation

AXES = (PauliAxis.X, PauliAxis.Y, PauliAxis.Z)
PAIR = (2, 0)
LOSSES = {
    "lossless": LossConfig(),
    "heralded": LossConfig(p_loss=0.3),
    "silent": LossConfig(p_loss=0.3, encoding=PhotonEncoding.OCCUPATION),
    "backup": LossConfig(p_loss=0.6, backup_enabled=True),
}


def frame_with_sign(axes, sign):
    """A 3-qubit frame that commutes (sign 1) or anticommutes (sign -1) with the rotation."""
    sites = {1: PauliAxis.Y}
    if sign < 0:
        sites[PAIR[0]] = next(a for a in AXES if a is not axes[0])
    frame = ErrorFrame.identity(3).updated(PauliString.embed(3, sites))
    assert frame_conjugate_direction(frame, PauliString.embed(3, dict(zip(PAIR, axes)))) == sign
    return frame


def key_of(frame):
    return 1 << 6 | frame.byproduct.z << 3 | frame.byproduct.x


def compare(state, axes, t, policy, frame, seed, loss):
    """Run one rotation both ways on the same uniforms; return whether it closed."""
    want, want_key, outcomes, closed = reference_rotation(
        state, PAIR, *axes, t, policy, frame, np.random.default_rng(seed), loss)
    try:
        got, got_frame, records = realize_v_kl(state, PAIR, *axes, t, policy, frame,
                                               np.random.default_rng(seed), loss)
        assert closed
    except IncompleteRotationError as err:
        assert not closed
        got, got_frame, records = err.state, err.frame, err.records
    assert np.abs(got.amplitudes - want.amplitudes).max() <= 1e-13
    assert key_of(got_frame) == want_key
    assert [r.outcome for r in records] == outcomes
    return closed


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("mode", list(PolicyMode))
@pytest.mark.parametrize("name", LOSSES)
def test_amplitudes_equal_the_running_product(name, mode, sign):
    loss, rng = LOSSES[name], np.random.default_rng(17)
    state = StateVector(haar_random_amplitudes(3, rng), RegisterLayout.build(3, n_photons=0))
    closed = []
    for axes, t, max_rounds in itertools.product(itertools.product(AXES, repeat=2),
                                                 (0.7, -2.9, 1e-3), (2, 10_000)):
        policy, frame = EpsilonPolicy(mode, max_rounds), frame_with_sign(axes, sign)
        for seed in range(6):  # each seed twice: the second rotation reads the cache
            closed += [compare(state, axes, t, policy, frame, seed, loss) for _ in range(2)]
    assert True in closed and False in closed  # some rotations ran out of rounds


def test_cached_coefficients_are_read_only_and_shared():
    state = StateVector(haar_random_amplitudes(3, np.random.default_rng(2)),
                        RegisterLayout.build(3, n_photons=0))
    _pauli_sum.cache_clear()
    for seed in range(20):
        realize_v_kl(state, PAIR, PauliAxis.X, PauliAxis.Z, 0.4, EpsilonPolicy(),
                     ErrorFrame.identity(3), np.random.default_rng(seed))
    info = _pauli_sum.cache_info()
    assert info.hits and 0 < info.currsize < 20  # twenty rotations, fewer products
    for angle, power, flips in [(0.4, 0, 0), (0.0, 3, 2), (-0.7, 1, 3)]:
        coeffs = _pauli_sum(angle, power, flips)
        assert coeffs is _pauli_sum(angle, power, flips)
        assert coeffs.shape == (4,) and coeffs.dtype == complex and not coeffs.flags.writeable
