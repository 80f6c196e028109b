"""A rotation's operator looked up by its pair and the sum of its branch forms.

``realize_v_kl``'s round loop adds each drawn branch's angle and power of i
and XORs its flip code; the operator of the product is cached by the pair
record and those three values.  The amplitudes must agree within 1e-13,
global phase included, with those of ``conftest.reference_rotation``, which
multiplies the drawn branches' dense unitaries K / sqrt(w), on a register
that applies the operator as a dense matrix and on one that gathers it.
"""

import functools
import itertools
import sys
from pathlib import Path

import numpy as np
import pytest

import mfsim.feedback
from mfsim.emission import PhotonEncoding
from mfsim.errors import IncompleteRotationError
from mfsim.feedback import EpsilonPolicy, PolicyMode, _operator, _pair_record, realize_v_kl
from mfsim.harness import ProtocolConfig, emit_report, haar_random_amplitudes, run_ensemble
from mfsim.loss import LossConfig
from mfsim.pauli import ErrorFrame, PauliAxis, PauliString, frame_conjugate_direction
from mfsim.statevec import DENSE_PAIR_QUBITS, RegisterLayout, StateVector

from conftest import reference_rotation

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import make_config  # noqa: E402

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


def key_of(frame):
    n = frame.byproduct.n
    return 1 << 2 * n | frame.byproduct.z << n | frame.byproduct.x


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
@pytest.mark.parametrize("n", [3, 6])  # a dense operator, then a gathered one
def test_amplitudes_equal_the_running_product(n, name, mode, sign):
    loss, rng = LOSSES[name], np.random.default_rng(17)
    state = StateVector(haar_random_amplitudes(n, rng), RegisterLayout.build(n, n_photons=0))
    closed = []
    for axes, t, max_rounds in itertools.product(itertools.product(AXES, repeat=2),
                                                 (0.7, -2.9, 1e-3), (2, 10_000)):
        policy, frame = EpsilonPolicy(mode, max_rounds), frame_with_sign(n, axes, sign)
        for seed in range(6):  # each seed twice: the second rotation reads the cache
            closed += [compare(state, axes, t, policy, frame, seed, loss) for _ in range(2)]
    assert True in closed and False in closed  # some rotations ran out of rounds


@pytest.mark.parametrize("n", [3, 6])
def test_cached_operators_are_read_only_and_shared(n):
    state = StateVector(haar_random_amplitudes(n, np.random.default_rng(2)),
                        RegisterLayout.build(n, n_photons=0))
    _operator.cache_clear()
    for seed in range(20):
        realize_v_kl(state, PAIR, PauliAxis.X, PauliAxis.Z, 0.4, EpsilonPolicy(),
                     ErrorFrame.identity(n), np.random.default_rng(seed))
    info = _operator.cache_info()
    assert info.hits and 0 < info.currsize < 20  # twenty rotations, fewer products
    record = _pair_record(n, *PAIR, PauliAxis.X, PauliAxis.Z)
    for angle, power, flips in [(0.4, 0, 0), (0.0, 3, 2), (-0.7, 1, 3)]:
        op = _operator(record, angle, power, flips)
        assert op is _operator(record, angle, power, flips)
        if n <= DENSE_PAIR_QUBITS:
            assert op.shape == (1 << n, 1 << n) and op.dtype == complex and not op.flags.writeable
        else:
            coeffs, index, phase = op
            assert coeffs.shape == (2,) and index.shape == phase.shape == (2, 1 << n)
            assert not any(a.flags.writeable for a in op)


def reports(name, tmp_path):
    """The seed-0 benchmark ensemble's report.json and audit.jsonl bytes."""
    trajectories = {"trotter3": 300, "backup2-loss60": 150}[name]
    cfg = ProtocolConfig.from_dict(make_config(name, 0, trajectories))
    report, stats = run_ensemble(cfg)
    emit_report(report, stats, tmp_path)
    return [(tmp_path / f).read_bytes() for f in ("report.json", "audit.jsonl")]


@pytest.mark.parametrize("name", ["trotter3", "backup2-loss60"])
def test_a_two_entry_operator_cache_changes_no_byte(name, tmp_path, monkeypatch):
    want = reports(name, tmp_path / "default")
    small = functools.lru_cache(maxsize=2)(_operator.__wrapped__)
    monkeypatch.setattr(mfsim.feedback, "_operator", small)
    assert reports(name, tmp_path / "two") == want
    info = small.cache_info()
    assert info.currsize == 2 and info.misses > 2  # entries were evicted and rebuilt
