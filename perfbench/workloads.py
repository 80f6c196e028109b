"""The benchmark's workloads: one mfsim configuration each, made from a seed.

The seed only chooses ``master_seed`` and the Haar-random initial state; the
Hamiltonian, step count, loss model and round limit are fixed per workload.
"""

from __future__ import annotations

import math
import random

_C4_HAMILTONIAN = {
    "n_qubits": 3,
    "terms": [
        {"sites": [0, 1], "axes": "XX", "coeff": 1.0},
        {"sites": [1, 2], "axes": "ZZ", "coeff": 0.7},
    ],
}

_C6_HAMILTONIAN = {
    "n_qubits": 2,
    "terms": [{"sites": [0, 1], "axes": "XX", "coeff": 1.0}],
}

_CHAIN10_HAMILTONIAN = {
    "n_qubits": 10,
    "terms": [{"sites": [i, i + 1], "axes": "XX", "coeff": 1.0} for i in range(9)],
}

# The measured ensemble has ceil(seconds * rate) trajectories, so a run lasts
# about --seconds on a 2-CPU x86-64 VM while the work stays the same across
# commits (same trajectories, same percentile rule).  ``prefix`` is the size of
# the small ensemble that is run twice to compare report bytes, and of every
# traced pass.  ``reference`` is the kind of calib unit whose speed the
# workload's time follows when the host speeds up or slows down.
WORKLOADS = {
    "trotter3": {
        "why": "C4 config: 3 data qubits, XX+0.7ZZ, 16 Trotter steps; per-call "
               "overhead of statevec, emission and feedback dominates",
        "config": {
            "hamiltonian": _C4_HAMILTONIAN,
            "t": 0.5,
            "n_steps": 16,
            "policy": {"mode": "residual_exact", "max_rounds": 256},
            "loss": {"p_loss": 0.0, "encoding": "polarization", "backup_enabled": False},
        },
        "rate": 12.0,
        "prefix": 25,
        "reference": "interpreter",
    },
    "backup2-loss60": {
        "why": "C6 config at p_loss 0.6 with backup atoms; backup_round, measure and "
               "frame updates dominate and only 16% of attempts are useful",
        "config": {
            "hamiltonian": _C6_HAMILTONIAN,
            "t": 0.8,
            "n_steps": 5,
            "policy": {"mode": "residual_exact", "max_rounds": 40000},
            "loss": {"p_loss": 0.6, "encoding": "polarization", "backup_enabled": True},
        },
        "rate": 6.0,
        "prefix": 20,
        "reference": "interpreter",
    },
    "chain10": {
        "why": "lossless 10-site XX chain at the 12-qubit cap; arithmetic on 4096 "
               "amplitudes and the per-trajectory dense oracle dominate",
        "config": {
            "hamiltonian": _CHAIN10_HAMILTONIAN,
            "t": 0.5,
            "n_steps": 4,
            "policy": {"mode": "residual_exact", "max_rounds": 256},
            "loss": {"p_loss": 0.0, "encoding": "polarization", "backup_enabled": False},
        },
        "rate": 0.4,
        "prefix": 1,
        "reference": "dense",
    },
}


def ensemble_size(workload: str, seconds: float) -> int:
    spec = WORKLOADS[workload]
    return max(spec["prefix"], math.ceil(seconds * spec["rate"]))


def make_config(workload: str, seed: int, trajectories: int) -> dict:
    """The configuration the program receives for ``workload`` at ``seed``."""
    rnd = random.Random(f"{workload}/{seed}")
    cfg = dict(WORKLOADS[workload]["config"])
    cfg["master_seed"] = rnd.randrange(2**31)
    cfg["initial_state"] = {"random_seed": rnd.randrange(2**31)}
    cfg["trajectories"] = trajectories
    return cfg
