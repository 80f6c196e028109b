"""The doubling chain of a rotation angle, shared by every axis pair and frame sign.

A rotation at angle t walks the levels t, 2t, 4t, ... (mod pi).  Conjugating
a round by u_k (x) u_l leaves its weights, records and eigenphases unchanged,
so a program keeps every level, first or doubled, per angle; each level
keeps the XX table's weights, records and forms, not its Kraus stack, and
holds one row tuple per frame sign.  A program serves only the register
size, policy and loss it was compiled for.
"""

import dataclasses
import itertools
import types

import numpy as np
import pytest

import mfsim.feedback
from mfsim.emission import PhotonEncoding
from mfsim.errors import IncompleteRotationError, UsageError
from mfsim.feedback import EpsilonPolicy, PolicyMode, Program, realize_v_kl, reduce_angle
from mfsim.harness import ProtocolConfig, haar_random_amplitudes, run_trajectory
from mfsim.loss import LossConfig, RoundTable, round_branches, round_tables
from mfsim.pauli import ErrorFrame, PauliAxis, PauliString, frame_conjugate_direction
from mfsim.statevec import StateVector

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


def rotation_records(t, max_rounds, loss, draws, program=None):
    """The records of a rotation at ``t`` on XX under frame I that draws ``draws`` in turn."""
    state = StateVector(haar_random_amplitudes(3, np.random.default_rng(3)))
    rng = types.SimpleNamespace(random=iter(draws).__next__)
    policy = EpsilonPolicy(max_rounds=max_rounds)
    return realize_v_kl(state, PAIR, PauliAxis.X, PauliAxis.X, t, policy,
                        ErrorFrame.identity(3), rng, loss, program)[2]


def draw_of(t, loss, direction):
    """A draw that picks the first branch of the table at ``t`` rotating in ``direction``."""
    table = round_branches(EpsilonPolicy().eps_for(abs(t)), loss)
    i = next(i for i, b in enumerate(table.branches) if b.direction == direction)
    return table.cumulative[i - 1] if i else 0.0


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
def test_one_angle_keys_one_first_level(loss, built_levels):
    rng = np.random.default_rng(5)
    state = StateVector(haar_random_amplitudes(3, rng))
    policy = EpsilonPolicy(max_rounds=10_000)
    program = Program(3, policy, loss)
    for axes, sign in itertools.product(AXIS_PAIRS, (1, -1)):
        realize_v_kl(state, PAIR, *axes, 0.7, policy, frame_with_sign(axes, sign), rng, loss,
                     program)
    assert [level.residual == 0.7 for level in built_levels].count(True) == 1
    assert [level for level in program.levels.values() if level] == built_levels


@pytest.mark.parametrize("mode", list(PolicyMode))
@pytest.mark.parametrize("loss", LOSSES, ids=["lossless", "heralded", "backup-loss60"])
def test_successors_stay_close_or_double(mode, loss, built_levels):
    policy = EpsilonPolicy(mode, max_rounds=10_000)
    program = Program(3, policy, loss)
    rng = np.random.default_rng(7)
    state = StateVector(haar_random_amplitudes(3, rng))
    for axes, sign, t in itertools.product(AXIS_PAIRS, (1, -1), (0.7, -2.9)):
        realize_v_kl(state, PAIR, *axes, t, policy, frame_with_sign(axes, sign), rng, loss,
                     program)
    stepped = [level for level in built_levels if "rows" in vars(level)]
    assert stepped and len(built_levels) > 2
    for level in stepped:
        assert level.program is program
        doubled = {row[-1] for row in itertools.chain(*level.rows)} - {level, None}
        assert len(doubled) <= 1  # both frame signs share the doubled level
        for s in doubled:
            assert s is program.level(level.residual + level.residual)
            assert s.residual == reduce_angle(level.residual + level.residual)
            assert s.program is program
        for sign, rows in zip((1, -1), level.rows):
            for branch, succ in zip(level.branches, (row[-1] for row in rows)):
                if branch.direction is None:
                    assert succ is level
                elif sign * branch.direction * level.residual > 0:
                    assert succ is None  # the branch closes the residual
                else:
                    assert succ is not None and succ in doubled


def test_controller_reads_only_the_xx_table(monkeypatch):
    cfg = heisenberg(3, master_seed=4, loss={"p_loss": 0.6, "backup_enabled": True})
    calls = []

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return round_tables(*args, **kwargs)

    monkeypatch.setattr(mfsim.feedback, "round_tables", spy)
    run_trajectory(cfg, 0)
    assert calls and all(len(args) == 2 and not kwargs for args, kwargs in calls)


@pytest.mark.parametrize("extra", [{}, {"loss": {"p_loss": 0.6, "backup_enabled": True}},
                                   {"policy": {"mode": "paper_doubling", "max_rounds": 8}}],
                         ids=["lossless", "backup-loss60", "paper-doubling"])
def test_heisenberg_warm_run_reproduces_cold_run(extra, built_levels):
    cfg = heisenberg(3, master_seed=21, **extra)
    cold = [run_trajectory(cfg, i).to_dict() for i in range(4)]
    n_built = len(built_levels)
    warm = [run_trajectory(cfg, i).to_dict() for i in range(4)]
    assert warm == cold
    assert len(built_levels) == n_built  # the warm run walked the cold run's levels
    # XX, YY and ZZ on two bonds: one angle, so one chain, each level the last one doubled
    for level, doubled in zip(built_levels, built_levels[1:]):
        assert doubled.residual == reduce_angle(level.residual + level.residual)
    assert [level for level in cfg.program.levels.values() if level] == built_levels


@pytest.mark.parametrize("loss", [LossConfig(), LossConfig(p_loss=0.3),
                                  LossConfig(p_loss=0.6, backup_enabled=True),
                                  LossConfig(p_loss=0.3, encoding=PhotonEncoding.OCCUPATION)],
                         ids=["lossless", "heralded", "backup-loss60", "silent"])
def test_level_rows_are_forms_flips_records_and_successors(loss, built_levels):
    rng = np.random.default_rng(11)
    state = StateVector(haar_random_amplitudes(3, rng))
    policy = EpsilonPolicy(max_rounds=10_000)
    program = Program(3, policy, loss)
    for axes, sign, t in itertools.product(AXIS_PAIRS, (1, -1), (0.7, -2.9)):
        realize_v_kl(state, PAIR, *axes, t, policy, frame_with_sign(axes, sign), rng, loss,
                     program)
    assert any("rows" in vars(level) for level in built_levels)
    row_ids = []
    for level in list(built_levels):  # reading rows may build successors
        table = round_branches(level.eps, loss)
        for rows in level.rows:
            assert len(rows) == len(level.branches) == len(table.branches)
            for i, (row, branch, form) in enumerate(zip(rows, table.branches, table.forms)):
                theta, f, flips, row_id, succ = row
                assert (theta, f) == form[::2]  # the power of i goes with the global phase
                assert flips == branch.flips[0] + 2 * branch.flips[1]
                assert row_id == level.rows[0][i][3]  # both frame signs read one row
                assert program.rows[row_id] == (
                    branch.label, level.eps, level.aimed, branch.b_bits, branch.lost)
                assert (succ is level) == (branch.direction is None)
        row_ids += [row[3] for row in level.rows[0]]
    assert sorted(row_ids) == list(range(len(program.rows)))  # a row id per level and branch


@pytest.mark.parametrize("loss", LOSSES, ids=["lossless", "heralded", "backup-loss60"])
def test_a_level_keeps_no_round_table_or_array(loss, built_levels):
    rng = np.random.default_rng(13)
    state = StateVector(haar_random_amplitudes(3, rng))
    policy = EpsilonPolicy(max_rounds=10_000)
    program = Program(3, policy, loss)
    for axes, sign in itertools.product(AXIS_PAIRS, (1, -1)):
        realize_v_kl(state, PAIR, *axes, 0.7, policy, frame_with_sign(axes, sign), rng, loss,
                     program)
    assert len(built_levels) > 1
    for level in built_levels:
        for name, value in vars(level).items():
            assert not isinstance(value, (RoundTable, np.ndarray)), name


@pytest.mark.parametrize("loss", LOSSES, ids=["lossless", "heralded", "backup-loss60"])
def test_last_round_into_a_new_level_builds_no_successor(loss, built_levels):
    # One round on a branch that doubles the residual: the first level and the
    # doubled one are built, and nothing past it, since no round is drawn there.
    draw = draw_of(0.7, loss, -1)
    state = StateVector(haar_random_amplitudes(3, np.random.default_rng(3)))
    with pytest.raises(IncompleteRotationError) as exc:
        realize_v_kl(state, PAIR, PauliAxis.X, PauliAxis.Z, 0.7, EpsilonPolicy(max_rounds=1),
                     ErrorFrame.identity(3), types.SimpleNamespace(random=lambda: draw), loss)
    first, doubled = built_levels
    assert exc.value.residual == doubled.residual == reduce_angle(1.4)
    assert first.residual == 0.7
    assert "rows" not in vars(doubled)


@pytest.mark.parametrize("loss", LOSSES, ids=["lossless", "heralded", "backup-loss60"])
def test_a_program_serves_only_its_own_register_policy_and_loss(loss, built_levels):
    close = draw_of(0.7, loss, 1)
    program = Program(3, EpsilonPolicy(max_rounds=1), loss)
    short = rotation_records(0.7, 1, loss, [close], program)
    others = [(4, EpsilonPolicy(max_rounds=1), loss), (3, EpsilonPolicy(max_rounds=10_000), loss),
              (3, EpsilonPolicy(PolicyMode.PAPER_DOUBLING, 1), loss),
              (3, EpsilonPolicy(max_rounds=1), LossConfig(p_loss=0.45)),
              (4, program.policy, program.loss)]  # the program's own policy and loss
    for n, policy, other_loss in others:
        state = StateVector(haar_random_amplitudes(n, np.random.default_rng(3)))
        with pytest.raises(UsageError, match="another register size, policy or loss"):
            realize_v_kl(state, PAIR, PauliAxis.X, PauliAxis.X, 0.7, policy, ErrorFrame.identity(n),
                         types.SimpleNamespace(random=lambda: close), other_loss, program)
    assert program.entries.keys() == {(*PAIR, PauliAxis.X, PauliAxis.X, 0.7)}
    long = rotation_records(0.7, 10_000, loss, [close])  # a program of its own, built alike
    assert short.codes == long.codes and list(short) == list(long)
    assert [level.residual == 0.7 for level in built_levels].count(True) == 2


@pytest.mark.parametrize("loss", LOSSES, ids=["lossless", "heralded", "backup-loss60"])
def test_rotation_starts_at_the_level_a_half_angle_doubles_into(loss, built_levels):
    double, close = draw_of(0.3, loss, -1), draw_of(0.6, loss, 1)
    program = Program(3, EpsilonPolicy(max_rounds=10_000), loss)
    halved = rotation_records(0.3, 10_000, loss, [double, close], program)
    assert [r.aimed_angle for r in halved] == [0.3, 0.6]
    whole = rotation_records(0.6, 10_000, loss, [close], program)
    assert whole.codes[0] == halved.codes[1]
    assert [level.residual for level in built_levels[:3]] == [0.3, 0.6, reduce_angle(1.2)]
    assert len(built_levels) == 3  # the rotation at 0.6 built no level of its own


@pytest.mark.parametrize("depth", [12, 40])
@pytest.mark.parametrize("mode", list(PolicyMode))
@pytest.mark.parametrize("loss", LOSSES, ids=["lossless", "heralded", "backup-loss60"])
def test_a_rotation_entry_builds_one_policy_and_loss_for_its_whole_chain(
        loss, mode, depth, built_levels, monkeypatch):
    # The program holds one EpsilonPolicy and LossConfig; every level of the
    # chain, past the first block of tables too, reads those and builds none.
    program, built = Program(3, EpsilonPolicy(mode), loss), []

    def spy(owner, name, label):
        original = getattr(owner, name)

        def counted(*args):
            built.append(label)
            return original(*args)

        monkeypatch.setattr(owner, name, counted)

    for cls in (EpsilonPolicy, LossConfig):
        spy(cls, "__init__", cls.__name__)
    spy(dataclasses, "astuple", "astuple")
    level = program.entry(*PAIR, PauliAxis.X, PauliAxis.Y, 0.7)[3]
    for _ in range(depth):
        level = next(row[-1] for row in level.rows[0] if row[-1] not in (level, None))
    assert len(built_levels) == depth + 1 and level.residual == built_levels[-1].residual
    assert built == []
    assert all(lv.program is program for lv in built_levels)
