"""Interned round records and the audit writer that encodes each record once.

A round record is fixed by (doubling level, drawn branch, frame text), so each
level keeps one record per branch and frame, and every round that repeats them
appends that same frozen object.  ``emit_report`` encodes each distinct record
once; its files must equal the reference form, ``json.dumps(s.to_dict(),
sort_keys=True)`` per trajectory.
"""

import dataclasses
import itertools
import json

import numpy as np
import pytest

import mfsim.feedback
from mfsim.feedback import EpsilonPolicy, _level, _pair_record, realize_v, realize_v_kl, reduce_angle
from mfsim.harness import ProtocolConfig, emit_report, run_ensemble, run_trajectory
from mfsim.pauli import ErrorFrame, PauliAxis
from mfsim.statevec import RegisterLayout, StateVector

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


def test_writer_encodes_records_it_did_not_intern(tmp_path):
    # records built outside the round loop, one shared and one equal but distinct
    cfg = ProtocolConfig.from_dict({"hamiltonian": _PAIR, "t": 0.8, "n_steps": 2,
                                    "trajectories": 2})
    report, stats = run_ensemble(cfg)
    shared = mfsim.feedback.RoundRecord("hh", 0.25, 0.5, 'X"Y', (1, 0), (False, True))
    stats[0].records = [shared, dataclasses.replace(shared), shared]
    stats[1].records = [shared]
    emit_report(report, stats, tmp_path)
    assert (tmp_path / "audit.jsonl").read_text() == "".join(
        json.dumps(s.to_dict(), sort_keys=True) + "\n" for s in stats)


def test_rounds_at_one_level_branch_and_frame_share_a_record():
    state = StateVector(np.full(4, 0.5, dtype=complex), RegisterLayout.build(2, n_photons=0))
    firsts = {}
    for seed in range(12):
        _, _, recs = realize_v(state, (0, 1), 0.7, EpsilonPolicy(), ErrorFrame.identity(2),
                               np.random.default_rng(seed))
        # every rotation's first round is drawn at its first level under frame II
        firsts.setdefault(recs[0].outcome, []).append(recs[0])
    assert len(firsts) > 1
    for same in firsts.values():
        assert all(r is same[0] for r in same)


def test_trajectories_append_the_levels_records():
    cfg = ProtocolConfig.from_dict(CONFIGS["backup-loss60"])
    records = [r for i in range(16) for r in run_trajectory(cfg, i).records]
    interned, todo = {}, []
    for rot in cfg.plan.sweep_rotations():
        todo.append(_level(rot.angle, cfg.policy.mode, cfg.loss.key))
    while todo:  # every level a round was drawn at; only those hold successors
        level = todo.pop()
        if level is not None and id(level) not in interned:
            interned[id(level)] = level
            todo.extend(row[-1] for rows in vars(level).get("rows", ()) for row in rows)
    stored = {id(r) for level in interned.values() for d in level.records for r in d.values()}
    assert {id(r) for r in records} <= stored
    assert len({id(r) for r in records}) < len(records) / 3


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
def test_record_text_is_its_json_and_not_a_field(rec):
    before, twin = rec.to_dict(), dataclasses.replace(rec)
    assert rec.text == json.dumps(before, sort_keys=True)
    assert "text" in vars(rec)  # kept by the record
    assert rec.to_dict() == before
    assert rec == twin and hash(rec) == hash(twin)
    copy = dataclasses.replace(rec)
    assert copy == rec and "text" not in vars(copy) and copy.text == rec.text


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
    _level.cache_clear()
    try:
        cold = [run_trajectory(cfg, index).records for index in range(3)]
        n_built = len(built)
        # the same draws walk the same levels, which are all still cached
        assert [run_trajectory(cfg, index).records for index in range(3)] == cold
        assert len(built) == n_built
        firsts = {reduce_angle(rot.angle) for rot in cfg.plan.sweep_rotations()}
        assert len(firsts) == 100 and firsts <= {level.residual for level in built}
        info = _level.cache_info()
        assert info.misses == info.currsize == n_built  # first and doubled levels alike
    finally:
        _level.cache_clear()


def test_pair_records_are_kept_for_more_keys_than_a_bounded_cache():
    # all 30 ordered pairs of 6 qubits on all nine axis pairs: 270 (pair, axes) keys
    n, axes = 6, (PauliAxis.X, PauliAxis.Y, PauliAxis.Z)
    keys = list(itertools.product(itertools.permutations(range(n), 2), axes, axes))
    assert len(keys) == 270
    state = StateVector(np.full(1 << n, 2 ** (-n / 2), dtype=complex),
                        RegisterLayout.build(n, n_photons=0))
    rng = np.random.default_rng(8)
    misses = []
    for _ in range(2):
        before = _pair_record.cache_info().misses
        for pair, k, l in keys:
            realize_v_kl(state, pair, k, l, 0.3, EpsilonPolicy(), ErrorFrame.identity(n), rng)
        misses.append(_pair_record.cache_info().misses - before)
    assert misses[0] <= len(keys) and misses[1] == 0
