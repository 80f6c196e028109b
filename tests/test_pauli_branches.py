"""Pauli branches of the round tables, which the controller folds in as frame integers.

A branch whose unitary is i^g X^f1 (x) X^f2 for its own flips (f1, f2), in
the XX picture with the first atom the low bit, is marked with power g; the
feedback loop then only adds g to a power of i and XORs the flip code.
"""

import numpy as np
import pytest

from mfsim.emission import PhotonEncoding
from mfsim.feedback import PolicyMode, _Level
from mfsim.loss import _SIGN_PROJECTORS, LossConfig, round_branches

X = np.array([[0, 1], [1, 0]], dtype=complex)
I2 = np.eye(2, dtype=complex)

# (loss, Pauli branches of the full table, branches of the full table)
TABLES = {
    "lossless": (LossConfig(), 2, 4),
    "heralded": (LossConfig(p_loss=0.3), 5, 16),
    "silent": (LossConfig(p_loss=0.3, encoding=PhotonEncoding.OCCUPATION), 7, 20),
    "backup": (LossConfig(p_loss=0.6, backup_enabled=True), 20, 28),
}
# eps from about 1e-9, where a rotating branch comes closest to the identity, to 1 - 5e-9
RESIDUALS = (1e-9, 0.3, 0.7, -1.1, 1.5, 1.5707)


def dense_power(unitary, flips):
    """g with ``unitary`` = i^g X^f1 (x) X^f2 entrywise within 1e-12, or None."""
    string = np.kron(X if flips[1] else I2, X if flips[0] else I2)
    for g in range(4):
        if np.abs(unitary - 1j ** g * string).max() <= 1e-12:
            return g
    return None


@pytest.mark.parametrize("mode", list(PolicyMode))
@pytest.mark.parametrize("name", TABLES)
def test_pauli_powers_match_the_dense_unitaries(name, mode):
    loss, n_pauli, n_branches = TABLES[name]
    for residual in RESIDUALS:
        level = _Level(residual, mode, loss)
        table = round_branches(level.eps, loss)
        assert 0.0 < level.eps < 1.0 and len(table.branches) == n_branches, residual
        for i, branch in enumerate(table.branches):
            unitary = np.einsum("j,jik->ik", table.phases[i], _SIGN_PROJECTORS)
            want = dense_power(unitary, branch.flips)
            assert table.pauli_powers[i] == want, (residual, i, branch)
        assert tuple(row[0] for row in level.rows[0]) == table.pauli_powers
        pauli = [b for b, g in zip(table.branches, table.pauli_powers) if g is not None]
        assert len(pauli) == n_pauli, residual
        if name == "lossless":
            assert [b.label for b in pauli] == ["hh", "vv"]
        if name == "backup":  # every branch that rotates is general
            assert all(b.direction is None for b in pauli)
            assert sum(b.direction is not None for b in table.branches) == 8
        if name == "silent":  # an emptied photon leaves some minus/plus outcomes Pauli-valued
            assert {"minus", "plus"} <= {b.label for b in pauli}

