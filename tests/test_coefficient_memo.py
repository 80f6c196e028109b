"""Pauli-sum coefficients looked up by a rotation's branch path.

``realize_v_kl``'s round loop adds integers only: powers of i, flip codes and
the path of class symbols.  The coefficients come from a memo on the
rotation's first level, replayed through the class tables on a miss.  Moving
a power of i out of a product only permutes and negates components, so the
amplitudes must equal, with ``==``, those of ``conftest.reference_rotation``,
which multiplies the phases of every rotating round as it is drawn.
"""

import itertools

import numpy as np
import pytest

import mfsim.feedback
from mfsim.emission import PhotonEncoding
from mfsim.errors import IncompleteRotationError
from mfsim.feedback import EpsilonPolicy, PolicyMode, _level, realize_v_kl
from mfsim.harness import ProtocolConfig, haar_random_amplitudes, run_ensemble
from mfsim.loss import LossConfig
from mfsim.pauli import ErrorFrame, PauliAxis, PauliString, frame_conjugate_direction
from mfsim.statevec import RegisterLayout, StateVector

from byte_identity_configs import CONFIGS
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
    assert (got.amplitudes == want.amplitudes).all()
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
        for seed in range(6):  # each seed twice: the second rotation reads the memo
            closed += [compare(state, axes, t, policy, frame, seed, loss) for _ in range(2)]
    assert True in closed and False in closed  # some rotations ran out of rounds


def memo_sizes(levels):
    return [len(level.memo) for level in levels]


@pytest.fixture
def built_levels(monkeypatch):
    """Every ``_Level`` built while the test runs, from a cleared level cache."""
    levels = []
    init = mfsim.feedback._Level.__init__

    def spy(self, *args):
        init(self, *args)
        levels.append(self)

    monkeypatch.setattr(mfsim.feedback._Level, "__init__", spy)
    _level.cache_clear()
    yield levels
    _level.cache_clear()


@pytest.mark.parametrize("name", ["silent-loss", "heralded-loss", "backup-paper-doubling"])
def test_a_memo_past_its_cap_changes_no_report(name, built_levels, monkeypatch):
    cfg = ProtocolConfig.from_dict({**CONFIGS[name], "trajectories": 40})
    report, stats = run_ensemble(cfg)
    assert max(memo_sizes(built_levels)) > 2
    _level.cache_clear()
    del built_levels[:]
    monkeypatch.setattr(mfsim.feedback, "_MEMO_CAP", 2)
    capped, capped_stats = run_ensemble(cfg)
    assert capped == report
    assert [s.to_dict() for s in capped_stats] == [s.to_dict() for s in stats]
    assert max(memo_sizes(built_levels)) == 2


def test_memo_entries_are_read_only_and_shared():
    state = StateVector(haar_random_amplitudes(3, np.random.default_rng(2)),
                        RegisterLayout.build(3, n_photons=0))
    axes, policy = (PauliAxis.X, PauliAxis.Z), EpsilonPolicy()
    for seed in range(20):
        realize_v_kl(state, PAIR, *axes, 0.4, policy, ErrorFrame.identity(3),
                     np.random.default_rng(seed))
    memo = _level(0.4, policy.mode, LossConfig().key).memo
    assert 0 < len(memo) < 20  # twenty rotations, fewer paths
    for coeffs in memo.values():
        assert coeffs.shape == (4,) and coeffs.dtype == complex and not coeffs.flags.writeable
