"""Every round branch in its form i^g X^f e^{i theta XX}, which the controller sums.

In the XX picture, with the first atom the low bit, each branch's unitary
K / sqrt(w) is i^g X^f1 (x) X^f2 e^{i theta XX} with |theta| <= pi/4, and a
Pauli branch has theta exactly 0.0: the feedback loop then adds theta to an
angle and XORs the flip code f = f1 + 2 f2, and drops g with the global phase.
"""

import itertools
import math

import numpy as np
import pytest

import mfsim.loss
from mfsim.emission import PhotonEncoding
from mfsim.errors import ProtocolError
from mfsim.feedback import EpsilonPolicy, PolicyMode, Program, _Level
from mfsim.loss import LossConfig, round_branches

from conftest import I2, X, kron_le, rot_xx

# (loss, Pauli branches of the full table, those whose string is the flips they record,
# branches of the full table): a heralded or silent loss leaves a Pauli the frame never sees
TABLES = {
    "lossless": (LossConfig(), 2, 2, 4),
    "heralded": (LossConfig(p_loss=0.3), 14, 5, 16),
    "silent": (LossConfig(p_loss=0.3, encoding=PhotonEncoding.OCCUPATION), 18, 7, 20),
    "backup": (LossConfig(p_loss=0.6, backup_enabled=True), 20, 20, 28),
}
# eps from about 1e-9, where a rotating branch comes closest to the identity, to 1 - 5e-9
RESIDUALS = (1e-9, 0.3, 0.7, -1.1, 1.5, 1.5707)
KINDS = {
    **{name: loss for name, (loss, *_) in TABLES.items()},
    "heralded-100": LossConfig(p_loss=1.0),
    "silent-100": LossConfig(p_loss=1.0, encoding=PhotonEncoding.OCCUPATION),
    "backup-0": LossConfig(backup_enabled=True),
    "backup-100": LossConfig(p_loss=1.0, backup_enabled=True),
}
EPS_GRID = [0.0, 1.0, 1e-9, 1.0 - 1e-9, 0.5, *np.linspace(0.02, 0.98, 25)]


def string(flips):
    """X^f1 (x) X^f2 for the flip code f = f1 + 2 f2, first atom the low bit."""
    return kron_le(X if flips & 1 else I2, X if flips & 2 else I2)


def form_unitary(theta, g, f):
    return 1j ** g * string(f) @ rot_xx(theta)


def pauli_unitary(unitary):
    """Whether ``unitary`` is i^g X^f1 (x) X^f2 entrywise within 1e-12 for some g and f."""
    return any(np.abs(unitary - 1j ** g * string(f)).max() <= 1e-12
               for g, f in itertools.product(range(4), range(4)))


@pytest.mark.parametrize("kind", KINDS)
def test_forms_are_the_dense_unitaries(kind):
    loss, paulis = KINDS[kind], 0
    for eps in EPS_GRID:
        table = round_branches(eps, loss)
        assert len(table.forms) == len(table.branches) == len(table.kraus), eps
        for kraus, (theta, g, f) in zip(table.kraus, table.forms):
            unitary = kraus / math.sqrt(np.trace(kraus.conj().T @ kraus).real / 4)
            assert np.abs(form_unitary(theta, g, f) - unitary).max() <= 1e-13, (eps, theta, g, f)
            assert abs(theta) <= math.pi / 4 and g in range(4) and f in range(4)
            assert type(theta) is float and type(g) is int and type(f) is int
            if pauli_unitary(unitary):
                assert theta == 0.0, (eps, theta)
                paulis += 1
    assert paulis  # every kind has Pauli branches somewhere on the grid


@pytest.mark.parametrize("mode", list(PolicyMode))
@pytest.mark.parametrize("name", TABLES)
def test_pauli_branches_have_angle_zero(name, mode):
    loss, n_pauli, n_flipped, n_branches = TABLES[name]
    for residual in RESIDUALS:
        level = _Level(residual, Program(2, EpsilonPolicy(mode), loss))
        table = round_branches(level.eps, loss)
        assert 0.0 < level.eps < 1.0 and len(table.branches) == n_branches, residual
        assert [row[:2] for row in level.rows[0]] == [form[::2] for form in table.forms]
        assert [theta for theta, *_ in table.forms].count(0.0) == n_pauli, residual
        pauli = [b for b, (theta, _, f) in zip(table.branches, table.forms)
                 if theta == 0.0 and f == b.flips[0] + 2 * b.flips[1]]
        assert len(pauli) == n_flipped, residual
        if name == "lossless":
            assert [b.label for b in pauli] == ["hh", "vv"]
        if name == "backup":  # every branch that rotates is general
            assert all(b.direction is None for b in pauli)
            assert sum(b.direction is not None for b in table.branches) == 8
        if name == "silent":  # an emptied photon leaves some minus/plus outcomes Pauli-valued
            assert {"minus", "plus"} <= {b.label for b in pauli}


def test_branch_outside_the_form_fails_the_table(monkeypatch):
    # A Z phase on one eigenvalue of the lossless plus branch: still a weighted
    # unitary diagonal in the sign basis, but not i^g X^f e^{i theta XX}.
    eigen, records = mfsim.loss._outcome_stack(LossConfig())
    bent = eigen.copy()
    bent[:, 1, 3] *= 1j
    monkeypatch.setattr(mfsim.loss, "_outcome_stack", lambda loss: (bent, records))
    with pytest.raises(ProtocolError, match=r"LossConfig\(p_loss=0\.0.* not i\^g X\^f"):
        round_branches(0.3, LossConfig())
    monkeypatch.undo()
    assert round_branches(0.3, LossConfig()).forms
