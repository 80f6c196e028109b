"""Rounds as integer codes, and the audit writer and tallies that read them.

A round is fixed by (doubling level, drawn branch, frame after it), so its
code is the frame key above the id of the level's row for the branch in its
program's rows, and every round of the program that repeats them appends the
same integer.  Records are decoded
only when read; ``emit_report``'s files must equal the reference form,
``json.dumps(s.to_dict(), sort_keys=True)`` per trajectory, and the ensemble
and each trajectory's own tallies a recount of its records.
"""

import dataclasses
import itertools
import json

import numpy as np
import pytest

import mfsim.feedback
from mfsim.feedback import (
    EpsilonPolicy, Program, Rounds, realize_v, realize_v_kl, reduce_angle, round_record)
from mfsim.harness import ProtocolConfig, aggregate_report, emit_report, run_ensemble, run_trajectory
from mfsim.loss import LossConfig
from mfsim.pauli import ErrorFrame, PauliAxis, frame_of_key
from mfsim.statevec import StateVector

from test_harness import recount

_PAIR = {"n_qubits": 2, "terms": [{"sites": [0, 1], "axes": "XX", "coeff": 1.0}]}
_TRIPLE = {"n_qubits": 3, "terms": [{"sites": [0, 1], "axes": "XX", "coeff": 1.0},
                                    {"sites": [1, 2], "axes": "ZY", "coeff": 0.7}]}

CONFIGS = {
    "lossless": {"hamiltonian": _TRIPLE, "t": 0.9, "n_steps": 4, "trajectories": 6},
    "heralded": {"hamiltonian": _TRIPLE, "t": 0.8, "n_steps": 3, "trajectories": 6,
                 "loss": {"p_loss": 0.3}},
    "silent-occupation": {"hamiltonian": _TRIPLE, "t": 0.8, "n_steps": 3, "trajectories": 6,
                          "loss": {"p_loss": 0.3, "encoding": "occupation"}},
    "backup-loss60": {"hamiltonian": _PAIR, "t": 0.8, "n_steps": 5, "trajectories": 6,
                      "policy": {"max_rounds": 40000},
                      "loss": {"p_loss": 0.6, "backup_enabled": True}},
    # 8 rounds per rotation: some trajectories run out and stop early, some finish
    "paper-doubling-failing": {"hamiltonian": _TRIPLE, "t": 0.9, "n_steps": 3,
                               "trajectories": 8, "master_seed": 3,
                               "policy": {"mode": "paper_doubling", "max_rounds": 8}},
    # 60 rounds per rotation at p_loss 0.9: some rotations run out during a run of losses
    "backup-loss90-failing": {"hamiltonian": _PAIR, "t": 0.8, "n_steps": 3, "trajectories": 12,
                              "policy": {"max_rounds": 60},
                              "loss": {"p_loss": 0.9, "backup_enabled": True}},
    "no-trajectories": {"hamiltonian": _PAIR, "t": 0.8, "n_steps": 3, "trajectories": 0},
}


@pytest.mark.parametrize("name", CONFIGS)
def test_files_equal_the_reference_form(name, tmp_path):
    cfg = ProtocolConfig.from_dict({"master_seed": 5, **CONFIGS[name]})
    report, stats = run_ensemble(cfg)
    if name == "paper-doubling-failing":
        assert 0 < report["n_failed"] < len(stats)
    emit_report(report, stats, tmp_path)
    assert (tmp_path / "report.json").read_text() == json.dumps(
        report, sort_keys=True, indent=2) + "\n"
    assert (tmp_path / "audit.jsonl").read_text() == "".join(
        json.dumps(s.to_dict(), sort_keys=True) + "\n" for s in stats)


@pytest.mark.parametrize("name", CONFIGS)
def test_ensemble_tallies_equal_a_recount_of_each_trajectorys_records(name):
    cfg = ProtocolConfig.from_dict({"master_seed": 7, **CONFIGS[name]})
    _, stats = run_ensemble(cfg)  # aggregate_report tallies each trajectory
    assert all("tallies" in vars(s) for s in stats)
    if name == "backup-loss90-failing":  # trailing losses add loss events but no retry count
        assert any(s.failed and s.records[-1].outcome == "loss" for s in stats)
    for s in stats:
        histogram, losses, retries = recount(s.records)
        assert (s.outcome_histogram, s.loss_events, s.photon_retry_counts) == (
            histogram, losses, retries)
    again = [dataclasses.replace(s) for s in stats]  # untallied copies
    assert [s.summary() for s in again] == [s.summary() for s in stats]
    assert aggregate_report(cfg, again) == aggregate_report(cfg, stats)


def test_rounds_at_one_level_branch_and_frame_share_a_code():
    state = StateVector(np.full(4, 0.5, dtype=complex))
    firsts, program = {}, Program(2, EpsilonPolicy())
    for seed in range(12):
        _, _, recs = realize_v(state, (0, 1), 0.7, EpsilonPolicy(), ErrorFrame.identity(2),
                               np.random.default_rng(seed), program=program)
        # every rotation's first round is drawn at its first level under frame II
        firsts.setdefault(recs[0], set()).add(recs.codes[0])
    assert len(firsts) > 1
    assert all(len(codes) == 1 for codes in firsts.values())
    assert len({code for codes in firsts.values() for code in codes}) == len(firsts)


def test_a_code_holds_the_frame_after_the_round_above_its_levels_row():
    cfg = ProtocolConfig.from_dict(CONFIGS["backup-loss60"])
    codes = [c for i in range(16) for c in run_trajectory(cfg, i).codes]
    levels, todo = {}, [cfg.program.level(rot.angle) for rot in cfg.plan.sweep_rotations()]
    while todo:  # every level a round was drawn at; only those hold successors
        level = todo.pop()
        if level is not None and id(level) not in levels:
            levels[id(level)] = level
            todo.extend(row[-1] for rows in vars(level).get("rows", ()) for row in rows)
    rows = {row[3]: (level, i) for level in levels.values()
            for i, row in enumerate(vars(level).get("rows", ((),))[0])}
    for code in set(codes):
        level, i = rows[code & mfsim.feedback._ROW_MASK]
        branch, frame = level.branches[i], frame_of_key(code >> mfsim.feedback._ROW_BITS)
        assert round_record(code, cfg.program.rows) == mfsim.feedback.RoundRecord(
            branch.label, level.eps, level.aimed, frame.text, branch.b_bits, branch.lost)
    assert len(set(codes)) < len(codes) / 3


def test_a_warm_trajectory_constructs_no_round_record(monkeypatch):
    cfg = ProtocolConfig.from_dict({"master_seed": 9, **CONFIGS["paper-doubling-failing"]})
    first = [run_trajectory(cfg, i) for i in range(cfg.trajectories)]
    assert any(s.failed for s in first)  # the stop path runs too
    built = []
    init = mfsim.feedback.RoundRecord.__init__

    def spy(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(mfsim.feedback.RoundRecord, "__init__", spy)
    again = [run_trajectory(cfg, i) for i in range(cfg.trajectories)]
    assert built == [] and again == first
    records = [r for s in again for r in s.records]  # decoded on reading
    assert len(built) == len(records) == sum(s.rounds_total for s in again) > 0


def test_record_fields_cannot_be_assigned():
    rec = mfsim.feedback.RoundRecord("plus", 0.5, 0.7, "II")
    with pytest.raises(dataclasses.FrozenInstanceError):
        rec.frame_after = "XI"
    with pytest.raises(dataclasses.FrozenInstanceError):
        rec.outcome = "minus"
    assert rec.to_dict() == {"outcome": "plus", "eps_used": 0.5, "aimed_angle": 0.7,
                             "frame_after": "II"}


@pytest.mark.parametrize("rec", [
    mfsim.feedback.RoundRecord("plus", 0.5, 0.7, "II"),
    mfsim.feedback.RoundRecord("hh", 0.25, 0.5, 'X"Y', (1, 0), (False, True)),
])
def test_record_dict_holds_the_set_fields_only(rec):
    want = {f.name: getattr(rec, f.name) for f in dataclasses.fields(rec)}
    want = {k: list(v) if isinstance(v, tuple) else v for k, v in want.items() if v is not None}
    assert rec.to_dict() == want
    assert rec == dataclasses.replace(rec) and hash(rec) == hash(dataclasses.replace(rec))


def test_rounds_read_as_their_records():
    state = StateVector(np.full(4, 0.5, dtype=complex))
    _, _, rounds = realize_v(state, (0, 1), 0.3, EpsilonPolicy(), ErrorFrame.identity(2),
                             np.random.default_rng(4), LossConfig(p_loss=0.5))
    records = [round_record(code, rounds.rows) for code in rounds.codes]
    assert len(rounds) == len(records) > 1
    assert list(rounds) == records and rounds == records
    assert rounds == Rounds(list(rounds.codes), rounds.rows)
    assert rounds[-1] == records[-1] and rounds[1:] == records[1:]
    assert rounds != records[1:] and rounds != tuple(records)


def test_first_levels_are_kept_for_more_angles_than_a_bounded_cache(monkeypatch):
    # 100 distinct coefficients, so 100 distinct rotation angles
    terms = [{"sites": [0, 1], "axes": "XX", "coeff": 1 + i / 100} for i in range(100)]
    cfg = ProtocolConfig.from_dict({"hamiltonian": {"n_qubits": 2, "terms": terms},
                                    "t": 0.5, "n_steps": 2})
    built = []
    init = mfsim.feedback._Level.__init__

    def spy(self, *args):
        init(self, *args)
        built.append(self)

    monkeypatch.setattr(mfsim.feedback._Level, "__init__", spy)
    cold = [run_trajectory(cfg, index).records for index in range(3)]
    n_built = len(built)
    # the same draws walk the same levels, which the program all still keeps
    assert [run_trajectory(cfg, index).records for index in range(3)] == cold
    assert len(built) == n_built
    firsts = {reduce_angle(rot.angle) for rot in cfg.plan.sweep_rotations()}
    assert len(firsts) == 100 and firsts <= {level.residual for level in built}
    # first and doubled levels alike, each built once
    assert [level for level in cfg.program.levels.values() if level] == built


def test_pair_records_are_kept_for_more_keys_than_a_bounded_cache(monkeypatch):
    # all 30 ordered pairs of 6 qubits on all nine axis pairs: 270 (pair, axes) keys
    n, axes = 6, (PauliAxis.X, PauliAxis.Y, PauliAxis.Z)
    keys = list(itertools.product(itertools.permutations(range(n), 2), axes, axes))
    assert len(keys) == 270
    state = StateVector(np.full(1 << n, 2 ** (-n / 2), dtype=complex))
    rng, program = np.random.default_rng(8), Program(n, EpsilonPolicy())
    built, pair_record = [], Program.pair_record
    monkeypatch.setattr(Program, "pair_record",
                        lambda self, *key: built.append(key) or pair_record(self, *key))
    misses = []
    for _ in range(2):
        before = len(built)
        for pair, k, l in keys:
            realize_v_kl(state, pair, k, l, 0.3, EpsilonPolicy(), ErrorFrame.identity(n), rng,
                         program=program)
        misses.append(len(built) - before)
    assert misses == [len(keys), 0] and len(program.pairs) == len(keys)
