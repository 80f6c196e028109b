"""Golden round records: fixed-seed runs must draw exactly the same rounds.

Each digest is the sha256 of the round records (outcome, eps_used,
aimed_angle, frame_after, b_measurements, lost) and the final frame of every
trajectory, without fidelities.  A refactor of the round loop, the round
tables or the Pauli frame that changes any draw, angle or frame changes the
digest.  To re-pin a digest after a deliberate change of the draws, run
``PYTHONPATH=src python tests/test_golden.py`` and say why in the change log.
"""

import hashlib
import json

import pytest

from mfsim.harness import ProtocolConfig, noiseless_plan_fidelity, run_trajectory

_TROTTER = {
    "n_qubits": 3,
    "terms": [
        {"sites": [0, 1], "axes": "XX", "coeff": 1.0},
        {"sites": [1, 2], "axes": "ZZ", "coeff": 0.7},
    ],
}

CONFIGS = {
    "lossless": {
        "hamiltonian": _TROTTER, "t": 0.5, "n_steps": 8, "trajectories": 12, "master_seed": 31,
    },
    "backup-loss60": {
        "hamiltonian": {"n_qubits": 2, "terms": [{"sites": [0, 1], "axes": "XX", "coeff": 1.0}]},
        "t": 0.8, "n_steps": 5, "trajectories": 8, "master_seed": 32,
        "policy": {"max_rounds": 40000},
        "loss": {"p_loss": 0.6, "backup_enabled": True},
    },
    "silent-occupation": {
        "hamiltonian": {
            "n_qubits": 3,
            "terms": [
                {"sites": [0, 1], "axes": "XX", "coeff": 1.0},
                {"sites": [1, 2], "axes": "YZ", "coeff": 0.6},
            ],
        },
        "t": 0.8, "n_steps": 3, "trajectories": 12, "master_seed": 33,
        "loss": {"p_loss": 0.3, "encoding": "occupation"},
    },
    "paper-doubling": {
        "hamiltonian": _TROTTER, "t": 0.9, "n_steps": 6, "trajectories": 12, "master_seed": 34,
        "policy": {"mode": "paper_doubling"},
    },
    # index 256 opens the second block of trajectory seeds, and the master seed has two words;
    # 3 trajectories (up to 361 rounds) take more than 256 draws, past the fourth of their
    # generator's 64-draw lists
    "block-edge": {
        "hamiltonian": {"n_qubits": 2, "terms": [{"sites": [0, 1], "axes": "XX", "coeff": 1.0}]},
        "t": 0.8, "n_steps": 5, "trajectories": 260, "master_seed": 2**40 + 5,
        "policy": {"max_rounds": 40000},
        "loss": {"p_loss": 0.6, "backup_enabled": True},
    },
}

GOLDEN = {
    "lossless": "b7c7b97a10fcee5157906e3a22af06ae981581944af716126f0d0f9068a80013",
    "backup-loss60": "b88529840edfbb59148a116240a482b6e0e1a29a00cbf613246cdff91e084976",
    "silent-occupation": "70e09a71d237bb59a0b4b0cbbde2bf6dc6f0d15cca0e76637d83af4b2a31e0d3",
    "paper-doubling": "436790154b80f92b886bb75908f9543628f2e3bd69ecb1f7acce213cbd895afe",
    "block-edge": "4f3a0a4652536dc52e206de1529bcf6d8112da2b1864792da851692fd3bc9d40",
}


def records_digest(config: dict) -> str:
    cfg = ProtocolConfig.from_dict(config)
    runs = []
    for i in range(cfg.trajectories):
        stats = run_trajectory(cfg, i)
        runs.append({"rounds": [r.to_dict() for r in stats.records], "final_frame": stats.final_frame})
    return hashlib.sha256(json.dumps(runs, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("name", CONFIGS)
def test_round_records_match_golden_digest(name):
    assert records_digest(CONFIGS[name]) == GOLDEN[name]


def test_backup_loss_fidelities_sit_on_the_noiseless_envelope():
    """Long loss runs fold many Pauli rounds into each rotation; none may move the fidelity."""
    cfg = ProtocolConfig.from_dict(CONFIGS["backup-loss60"])
    envelope = noiseless_plan_fidelity(cfg)
    stats = [run_trajectory(cfg, i) for i in range(cfg.trajectories)]
    assert not any(s.failed for s in stats)
    for s in stats:
        assert abs(s.fidelity_vs_oracle - envelope) <= 1e-12, s.index


if __name__ == "__main__":
    for name, config in CONFIGS.items():
        print(f'    "{name}": "{records_digest(config)}",')
