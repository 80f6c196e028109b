"""The doubling chain of a rotation angle, shared by every axis pair and frame sign.

A rotation at angle t walks the levels t, 2t, 4t, ... (mod pi).  Conjugating
a round by u_k (x) u_l leaves its weights, records and eigenphases unchanged,
so one cache keeps every level, first or doubled, per (angle, eps rule,
loss); each level reads the XX table and holds one row tuple per frame sign.
"""

import itertools
import types

import numpy as np
import pytest

import mfsim.feedback
from mfsim.emission import PhotonEncoding
from mfsim.errors import IncompleteRotationError
from mfsim.feedback import EpsilonPolicy, PolicyMode, _level, realize_v_kl, reduce_angle
from mfsim.harness import ProtocolConfig, haar_random_amplitudes, run_trajectory
from mfsim.loss import LossConfig, round_branches
from mfsim.pauli import ErrorFrame, PauliAxis, PauliString, frame_conjugate_direction
from mfsim.statevec import RegisterLayout, StateVector

AXES = (PauliAxis.X, PauliAxis.Y, PauliAxis.Z)
AXIS_PAIRS = list(itertools.product(AXES, repeat=2))
PAIR = (2, 0)
LOSSES = [LossConfig(), LossConfig(p_loss=0.3),
          LossConfig(p_loss=0.6, backup_enabled=True)]


def heisenberg(n_qubits, **extra):
    """An XX+YY+ZZ chain with one coefficient, so every bond rotates by the same angle."""
    terms = [{"sites": [i, i + 1], "axes": axes, "coeff": 1.0}
             for i in range(n_qubits - 1) for axes in ("XX", "YY", "ZZ")]
    return ProtocolConfig.from_dict({
        "hamiltonian": {"n_qubits": n_qubits, "terms": terms}, "t": 0.9, "n_steps": 4,
        "initial_state": {"random_seed": 2}, **extra})


def frame_with_sign(axes, sign):
    """A 3-qubit frame that commutes (sign 1) or anticommutes (sign -1) with the rotation."""
    sites = {1: PauliAxis.Y}  # off the pair: no effect on the sign
    if sign < 0:
        sites[PAIR[0]] = next(a for a in AXES if a is not axes[0])
    frame = ErrorFrame.identity(3).updated(PauliString.embed(3, sites))
    assert frame_conjugate_direction(frame, PauliString.embed(3, dict(zip(PAIR, axes)))) == sign
    return frame


def rotation_records(t, max_rounds, loss, draws):
    """The records of a rotation at ``t`` on XX under frame I that draws ``draws`` in turn."""
    state = StateVector(haar_random_amplitudes(3, np.random.default_rng(3)),
                        RegisterLayout.build(3, n_photons=0))
    rng = types.SimpleNamespace(random=iter(draws).__next__)
    policy = EpsilonPolicy(max_rounds=max_rounds)
    return realize_v_kl(state, PAIR, PauliAxis.X, PauliAxis.X, t, policy,
                        ErrorFrame.identity(3), rng, loss)[2]


def draw_of(t, loss, direction):
    """A draw that picks the first branch of the table at ``t`` rotating in ``direction``."""
    table = round_branches(EpsilonPolicy().eps_for(abs(t)), loss)
    i = next(i for i, b in enumerate(table.branches) if b.direction == direction)
    return table.cumulative[i - 1] if i else 0.0


@pytest.fixture
def cold_caches():
    _level.cache_clear()
    yield
    _level.cache_clear()


@pytest.fixture
def built_levels(monkeypatch):
    """Every ``_Level`` built while the test runs, in build order."""
    levels = []
    init = mfsim.feedback._Level.__init__

    def spy(self, *args):
        init(self, *args)
        levels.append(self)

    monkeypatch.setattr(mfsim.feedback._Level, "__init__", spy)
    return levels


@pytest.mark.parametrize("loss", LOSSES, ids=["lossless", "heralded", "backup-loss60"])
def test_one_angle_keys_one_first_level(loss, cold_caches, built_levels):
    rng = np.random.default_rng(5)
    state = StateVector(haar_random_amplitudes(3, rng), RegisterLayout.build(3, n_photons=0))
    policy = EpsilonPolicy(max_rounds=10_000)
    for axes, sign in itertools.product(AXIS_PAIRS, (1, -1)):
        realize_v_kl(state, PAIR, *axes, 0.7, policy, frame_with_sign(axes, sign), rng, loss)
    assert [level.residual == 0.7 for level in built_levels].count(True) == 1
    info = _level.cache_info()
    assert info.misses == info.currsize == len(built_levels)


@pytest.mark.parametrize("mode", list(PolicyMode))
@pytest.mark.parametrize("loss", LOSSES, ids=["lossless", "heralded", "backup-loss60"])
def test_successors_stay_close_or_double(mode, loss, cold_caches, built_levels):
    policy = EpsilonPolicy(mode, max_rounds=10_000)
    rng = np.random.default_rng(7)
    state = StateVector(haar_random_amplitudes(3, rng), RegisterLayout.build(3, n_photons=0))
    for axes, sign, t in itertools.product(AXIS_PAIRS, (1, -1), (0.7, -2.9)):
        realize_v_kl(state, PAIR, *axes, t, policy, frame_with_sign(axes, sign), rng, loss)
    stepped = [level for level in built_levels if "rows" in vars(level)]
    assert stepped and len(built_levels) > 2
    for level in stepped:
        assert (level.mode, level.loss) == (mode, loss)
        doubled = {row[-1] for row in itertools.chain(*level.rows)} - {level, None}
        assert len(doubled) <= 1  # both frame signs share the doubled level
        for s in doubled:
            assert s is _level(level.residual + level.residual, mode, loss.key)
            assert s.residual == reduce_angle(level.residual + level.residual)
            assert (s.mode, s.loss) == (mode, loss)
        for sign, rows in zip((1, -1), level.rows):
            for branch, succ in zip(level.branches, (row[-1] for row in rows)):
                if branch.direction is None:
                    assert succ is level
                elif sign * branch.direction * level.residual > 0:
                    assert succ is None  # the branch closes the residual
                else:
                    assert succ is not None and succ in doubled


def test_controller_reads_only_the_xx_table(monkeypatch, cold_caches):
    cfg = heisenberg(3, master_seed=4, loss={"p_loss": 0.6, "backup_enabled": True})
    calls = []

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return round_branches(*args, **kwargs)

    monkeypatch.setattr(mfsim.feedback, "round_branches", spy)
    run_trajectory(cfg, 0)
    assert calls and all(len(args) == 2 and not kwargs for args, kwargs in calls)


@pytest.mark.parametrize("extra", [{}, {"loss": {"p_loss": 0.6, "backup_enabled": True}},
                                   {"policy": {"mode": "paper_doubling", "max_rounds": 8}}],
                         ids=["lossless", "backup-loss60", "paper-doubling"])
def test_heisenberg_warm_run_reproduces_cold_run(extra, cold_caches, built_levels):
    cfg = heisenberg(3, master_seed=21, **extra)
    cold = [run_trajectory(cfg, i).to_dict() for i in range(4)]
    n_built = len(built_levels)
    warm = [run_trajectory(cfg, i).to_dict() for i in range(4)]
    assert warm == cold
    assert len(built_levels) == n_built  # the warm run walked the cold run's levels
    # XX, YY and ZZ on two bonds: one angle, so one chain, each level the last one doubled
    for level, doubled in zip(built_levels, built_levels[1:]):
        assert doubled.residual == reduce_angle(level.residual + level.residual)
    assert _level.cache_info().currsize == n_built


@pytest.mark.parametrize("loss", [LossConfig(), LossConfig(p_loss=0.6, backup_enabled=True),
                                  LossConfig(p_loss=0.3, encoding=PhotonEncoding.OCCUPATION)],
                         ids=["lossless", "backup-loss60", "silent"])
def test_level_rows_are_phases_flips_records_and_successors(loss, cold_caches, built_levels):
    rng = np.random.default_rng(11)
    state = StateVector(haar_random_amplitudes(3, rng), RegisterLayout.build(3, n_photons=0))
    policy = EpsilonPolicy(max_rounds=10_000)
    for axes, sign, t in itertools.product(AXIS_PAIRS, (1, -1), (0.7, -2.9)):
        realize_v_kl(state, PAIR, *axes, t, policy, frame_with_sign(axes, sign), rng, loss)
    assert any(len(records) for level in built_levels for records in level.records)
    for level in list(built_levels):  # reading rows may build successors
        table = round_branches(level.eps, loss)
        for rows in level.rows:
            assert len(rows) == len(level.branches) == len(table.branches)
            for i, (row, branch) in enumerate(zip(rows, table.branches)):
                flips = branch.flips[0] + 2 * branch.flips[1]
                assert row[:6] == (table.pauli_powers[i], *table.phases[i].tolist(), flips)
                assert row[6] is level.records[i]


@pytest.mark.parametrize("loss", LOSSES, ids=["lossless", "heralded", "backup-loss60"])
def test_last_round_into_a_new_level_builds_no_successor(loss, cold_caches, built_levels):
    # One round on a branch that doubles the residual: the first level and the
    # doubled one are built, and nothing past it, since no round is drawn there.
    draw = draw_of(0.7, loss, -1)
    state = StateVector(haar_random_amplitudes(3, np.random.default_rng(3)),
                        RegisterLayout.build(3, n_photons=0))
    with pytest.raises(IncompleteRotationError) as exc:
        realize_v_kl(state, PAIR, PauliAxis.X, PauliAxis.Z, 0.7, EpsilonPolicy(max_rounds=1),
                     ErrorFrame.identity(3), types.SimpleNamespace(random=lambda: draw), loss)
    first, doubled = built_levels
    assert exc.value.residual == doubled.residual == reduce_angle(1.4)
    assert first.residual == 0.7
    assert "rows" not in vars(doubled)


@pytest.mark.parametrize("loss", LOSSES, ids=["lossless", "heralded", "backup-loss60"])
def test_policies_that_differ_only_in_max_rounds_share_the_first_level(
        loss, cold_caches, built_levels):
    close = draw_of(0.7, loss, 1)
    short = rotation_records(0.7, 1, loss, [close])
    long = rotation_records(0.7, 10_000, loss, [close])
    assert short[0] is long[0]  # one level, so one record for the branch and frame
    assert [level.residual == 0.7 for level in built_levels].count(True) == 1


@pytest.mark.parametrize("loss", LOSSES, ids=["lossless", "heralded", "backup-loss60"])
def test_rotation_starts_at_the_level_a_half_angle_doubles_into(loss, cold_caches, built_levels):
    double, close = draw_of(0.3, loss, -1), draw_of(0.6, loss, 1)
    halved = rotation_records(0.3, 10_000, loss, [double, close])
    assert [r.aimed_angle for r in halved] == [0.3, 0.6]
    whole = rotation_records(0.6, 10_000, loss, [close])
    assert whole[0] is halved[1]
    assert [level.residual for level in built_levels[:3]] == [0.3, 0.6, reduce_angle(1.2)]
    assert len(built_levels) == 3  # the rotation at 0.6 built no level of its own
