"""A trajectory's fidelity read from the oracle carried to its final frame.

|<P oracle|psi>|^2 = |<oracle|P psi>|^2 for the frame string P, so
``run_trajectory`` applies no correction to the state: it reads one framed
oracle per final frame, kept per config up to a cap.  The reference is the
correction applied to the final state, then the overlap with the oracle.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

import mfsim.harness
from mfsim.errors import IncompleteRotationError
from mfsim.harness import ProtocolConfig, run_ensemble, run_trajectory
from mfsim.pauli import PauliString
from mfsim.statevec import apply_pauli_string

from byte_identity_configs import CONFIGS as BYTE_IDENTITY_CONFIGS

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import make_config  # noqa: E402

CONFIGS = {
    **BYTE_IDENTITY_CONFIGS,
    # the benchmark's ensembles at seed 0
    "trotter3": make_config("trotter3", 0, 300),
    "backup2-loss60": make_config("backup2-loss60", 0, 150),
}


def run_with_final_states(cfg, monkeypatch):
    """Every trajectory's stats with its final data state and frame, read off ``realize_v_kl``."""
    last = []
    realize = mfsim.harness.realize_v_kl

    def spy(*args):
        try:
            state, frame, records = realize(*args)
        except IncompleteRotationError as exc:
            last.append((exc.state, exc.frame))
            raise
        last.append((state, frame))
        return state, frame, records

    monkeypatch.setattr(mfsim.harness, "realize_v_kl", spy)
    runs = [(run_trajectory(cfg, i), *last[-1]) for i in range(cfg.trajectories)]
    monkeypatch.undo()
    return runs


@pytest.mark.parametrize("name", CONFIGS)
def test_fidelity_equals_the_corrected_state_overlap(name, monkeypatch):
    cfg = ProtocolConfig.from_dict(CONFIGS[name])
    runs = run_with_final_states(cfg, monkeypatch)
    if name == "paper-doubling-failing":
        assert any(stats.failed for stats, *_ in runs) and not all(s.failed for s, *_ in runs)
    for stats, state, frame in runs:
        assert str(frame) == stats.final_frame
        corrected = apply_pauli_string(state, frame.byproduct)
        reference = float(abs(np.vdot(cfg.oracle_state, corrected.amplitudes)) ** 2)
        assert abs(stats.fidelity_vs_oracle - reference) <= 1e-14, stats.index


@pytest.mark.parametrize("name", ["trotter3", "backup2-loss60", "paper-doubling-failing"])
def test_one_framed_oracle_per_distinct_final_frame(name):
    cfg = ProtocolConfig.from_dict(CONFIGS[name])
    _, stats = run_ensemble(cfg)
    frames = {s.final_frame for s in stats}
    assert len(cfg.framed_oracles) == len(frames) > 1
    n = cfg.hamiltonian.n_qubits
    assert set(cfg.framed_oracles) == {p.key for p in map(PauliString.from_str, frames)}
    for framed in cfg.framed_oracles.values():
        assert not framed.flags.writeable and framed.shape == (1 << n,)
        assert np.linalg.norm(framed) == pytest.approx(1.0, abs=1e-12)


def test_frames_past_the_cap_are_framed_per_call(monkeypatch):
    name = "trotter3"
    _, uncapped = run_ensemble(ProtocolConfig.from_dict(CONFIGS[name]))
    assert len({s.final_frame for s in uncapped}) > 2
    monkeypatch.setattr(mfsim.harness, "_FRAMED_ORACLE_CAP", 2)
    cfg = ProtocolConfig.from_dict(CONFIGS[name])
    _, capped = run_ensemble(cfg)
    assert len(cfg.framed_oracles) == 2
    assert [s.to_dict() for s in capped] == [s.to_dict() for s in uncapped]
