"""The configs whose reports must be byte-identical across processes.

CI runs ``simulate``, ``schedule`` and ``oracle`` on each config under two
string-hash seeds and compares the outputs; ``test_framed_oracle`` checks
every trajectory's fidelity on them, and ``test_harness`` runs some of them
in two execution orders.  Each config's comment says what it runs that the
others do not.

    python tests/byte_identity_configs.py DIR

writes each config to ``DIR/<name>.json``.
"""

import itertools
import json
import sys
from pathlib import Path

_PAIR = {"n_qubits": 2, "terms": [{"sites": [0, 1], "axes": "XX", "coeff": 1.0}]}
_CI = {"t": 0.8, "n_steps": 3, "trajectories": 6, "master_seed": 5}
_BACKUP_LOSS = {"p_loss": 0.6, "encoding": "polarization", "backup_enabled": True}


def _triple(second_axes):
    return {"n_qubits": 3, "terms": [{"sites": [0, 1], "axes": "XX", "coeff": 1.0},
                                     {"sites": [1, 2], "axes": second_axes, "coeff": 0.6}]}


def _chain(n, sites):
    return {"n_qubits": n, "terms": [{"sites": list(s), "axes": a, "coeff": 1.0}
                                     for s in sites for a in ("XX", "YY", "ZZ")]}


CONFIGS = {
    # a backup round with photon loss
    "backup-loss": {"hamiltonian": _PAIR, **_CI, "loss": _BACKUP_LOSS},
    # heralded photon loss without backup atoms: its discarded rounds run end to end nowhere else
    "heralded-loss": {"hamiltonian": _triple("ZY"), **_CI, "loss": {
        "p_loss": 0.3, "encoding": "polarization", "backup_enabled": False}},
    # silent occupation loss: its hidden environment branches run end to end nowhere else
    "silent-loss": {"hamiltonian": _triple("YZ"), **_CI, "loss": {
        "p_loss": 0.3, "encoding": "occupation", "backup_enabled": False}},
    # the paper_doubling policy, which keys the cached doubling levels as the default one does
    "paper-doubling": {"hamiltonian": {"n_qubits": 3, "terms": [
                           {"sites": [0, 2], "axes": "XZ", "coeff": 1.0},
                           {"sites": [1, 2], "axes": "YY", "coeff": -0.7}]},
                       **_CI, "t": 0.9, "n_steps": 4,
                       "policy": {"mode": "paper_doubling", "max_rounds": 256}},
    # a backup round with photon loss under paper_doubling, whose loss retries
    # fold into approximate rotations as Pauli powers
    "backup-paper-doubling": {"hamiltonian": _triple("ZY"), **_CI,
                              "policy": {"mode": "paper_doubling", "max_rounds": 4000},
                              "loss": _BACKUP_LOSS},
    # an XX+YY+ZZ chain with one coefficient, whose three axis pairs and both
    # frame signs walk one shared chain
    "heisenberg": {"hamiltonian": _chain(3, [(0, 1), (1, 2)]), **_CI, "t": 0.9, "n_steps": 4,
                   "initial_state": {"random_seed": 2}},
    # a 4-qubit XX+YY+ZZ chain with heralded loss under paper_doubling: 4 qubits
    # is the largest register whose rotations apply a cached dense matrix, which
    # no other config reaches (the others have 2, 3 or 6 qubits)
    "heisenberg4-loss": {"hamiltonian": _chain(4, [(0, 1), (1, 2), (2, 3)]), **_CI,
                         "policy": {"mode": "paper_doubling", "max_rounds": 4000},
                         "loss": {"p_loss": 0.3, "encoding": "polarization",
                                  "backup_enabled": False}},
    # 70 XX terms with distinct coefficients, 70 first levels of 70 doubling
    # chains in one program, whose repeated rounds share records
    "many-angles": {"hamiltonian": {"n_qubits": 2, "terms": [
                        {"sites": [0, 1], "axes": "XX", "coeff": round(1 + i / 100, 2)}
                        for i in range(70)]},
                    "t": 0.5, "n_steps": 2, "trajectories": 3, "master_seed": 5},
    # 80 XX terms with distinct coefficients, whose 80 first levels each build
    # a block of 16 tables, so its program keeps more tables waiting for their
    # levels (879 after the run) than any other config's
    "waiting-overflow": {"hamiltonian": {"n_qubits": 2, "terms": [
                             {"sites": [0, 1], "axes": "XX", "coeff": round(1 + i / 100, 2)}
                             for i in range(80)]},
                         "t": 0.5, "n_steps": 2, "trajectories": 3, "master_seed": 5},
    # 260 trajectories of a two-word master seed, whose index 256 opens the
    # second block of trajectory seeds, and every 32nd index a block of first
    # draws; trajectories 77, 115 and 187 take more than 256 draws (258, 361 and
    # 263 rounds), so they read past their draw block row into their generator,
    # moved on by advance(256)
    "block-edge": {"hamiltonian": _PAIR, "t": 0.8, "n_steps": 5, "trajectories": 260,
                   "master_seed": 1099511627781, "policy": {"max_rounds": 40000},
                   "loss": _BACKUP_LOSS},
    # 400 trajectories of a 6-qubit XX+YY+ZZ chain that end in 377 distinct
    # frames, more than the 256 framed oracles a config keeps, so the
    # fidelities past the cap are framed per trajectory
    "past-cap": {"hamiltonian": _chain(6, [(i, i + 1) for i in range(5)]), "t": 0.9,
                 "n_steps": 2, "trajectories": 400, "master_seed": 5,
                 "initial_state": {"random_seed": 2}},
    # every ordered pair of 6 qubits on all nine axis pairs, 270 (pair, axes)
    # keys, the most pair records any config's program keeps
    "many-keys": {"hamiltonian": {"n_qubits": 6, "terms": [
                      {"sites": [a, b], "axes": k + l, "coeff": 1.0}
                      for a, b in itertools.permutations(range(6), 2)
                      for k in "XYZ" for l in "XYZ"]},
                  "t": 0.3, "n_steps": 1, "trajectories": 2, "master_seed": 5},
    # 8 rounds per rotation under paper_doubling: the only config whose
    # trajectories run out of rounds, so some stop early and some finish; its
    # audit alone writes incomplete rotations, a failure_reason and the rounds
    # of IncompleteRotationError.records
    "paper-doubling-failing": {"hamiltonian": {"n_qubits": 3, "terms": [
                                   {"sites": [0, 1], "axes": "XX", "coeff": 1.0},
                                   {"sites": [1, 2], "axes": "ZY", "coeff": 0.7}]},
                               "t": 0.9, "n_steps": 3,
                               "trajectories": 8, "master_seed": 3,
                               "policy": {"mode": "paper_doubling", "max_rounds": 8}},
    # the benchmark's 10-qubit XX chain: the only register of 1024 amplitudes
    # (the others have at most 6 qubits), on which the vector oracle, the vector
    # noiseless plan and the rotations' two-row gathers past DENSE_PAIR_QUBITS run
    "chain10": {"hamiltonian": {"n_qubits": 10, "terms": [
                    {"sites": [i, i + 1], "axes": "XX", "coeff": 1.0} for i in range(9)]},
                "t": 0.5, "n_steps": 4, "trajectories": 3, "master_seed": 5,
                "initial_state": {"random_seed": 2}},
    # an XX term at t = pi beside a ZZ term at pi/4, whose XX rotation is a
    # no-op that neither the feedback loop nor schedule's round budget counts
    # a round for
    "no-op-rotation": {"hamiltonian": {"n_qubits": 2, "terms": [
                           {"sites": [0, 1], "axes": "XX", "coeff": 1.0},
                           {"sites": [0, 1], "axes": "ZZ", "coeff": 0.25}]},
                       "t": 3.141592653589793, "n_steps": 1, "trajectories": 4,
                       "master_seed": 5},
}


if __name__ == "__main__":
    out = Path(sys.argv[1])
    out.mkdir(parents=True, exist_ok=True)
    for name, config in CONFIGS.items():
        (out / f"{name}.json").write_text(json.dumps(config) + "\n")
