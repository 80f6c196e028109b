"""Round tables from the per-loss-config compile against the table built by the model at each eps.

``round_branches(eps, loss)`` contracts three eps-free terms that
``_outcome_stack(loss)`` compiles once from the photon-level model.  The
reference here is the direct build: the model's stage run at eps on the
pair's Choi state, contracted with every outcome's mode state, checked and
reduced to weights, unitaries and eigenphases.
"""

import warnings

import numpy as np
import pytest

import mfsim.loss
from mfsim.emission import PhotonEncoding, joint_emission
from mfsim.errors import ProtocolError, UsageError
from mfsim.loss import LossConfig, RoundBranch, round_branches
from mfsim.statevec import RegisterLayout, StateVector

from conftest import H, form_phases

LOSS_CONFIGS = {
    "lossless": LossConfig(),
    "heralded-30": LossConfig(p_loss=0.3),
    "silent-30": LossConfig(p_loss=0.3, encoding=PhotonEncoding.OCCUPATION),
    "silent-100": LossConfig(p_loss=1.0, encoding=PhotonEncoding.OCCUPATION),
    "backup-0": LossConfig(backup_enabled=True),
    "backup-60": LossConfig(p_loss=0.6, backup_enabled=True),
    "backup-95": LossConfig(p_loss=0.95, backup_enabled=True),
}
_EDGE = np.geomspace(1e-6, 0.5, 21)[:-1]  # 1e-6 ... 0.4, geometric
EPS_VALUES = [0.0, 0.5, 1.0, *_EDGE, *(1.0 - _EDGE), *np.linspace(0.02, 0.98, 25)]


def direct_table(eps, loss):
    """(kraus, records, cumulative, phases) with the model run at ``eps`` itself."""
    layout = RegisterLayout.build(2, with_backup=loss.backup_enabled, n_photons=2 + 2)
    n = layout.n_qubits - 2
    choi = np.zeros(1 << layout.n_qubits, dtype=complex)
    choi[[j + (j << n) for j in range(4)]] = 1.0
    modes = tuple(range(2, n))  # the backups, if any, then the photons
    out = mfsim.loss._stage(StateVector(choi), (0, 1), modes, eps, loss)
    tensor = out.amplitudes.reshape(4, -1, 4).transpose(1, 2, 0)  # (mode state, out, in)
    modes, records = zip(*mfsim.loss._round_outcomes(loss))
    kraus = np.tensordot(np.conj(modes), tensor, axes=1)
    gram = np.einsum("bki,bkj->bij", kraus.conj(), kraus)
    weights = np.einsum("bii->b", gram).real / 4
    assert np.allclose(gram, weights[:, None, None] * np.eye(4), atol=1e-10)
    assert abs(weights.sum() - 1.0) <= 1e-10
    keep = weights > 1e-24
    kraus, weights = kraus[keep], weights[keep]
    unitaries = kraus / np.sqrt(weights)[:, None, None]
    phases = np.einsum("jik,bki->bj", mfsim.loss._SIGN_PROJECTORS, unitaries)
    phases /= np.abs(phases)
    cumulative = (*(np.cumsum(weights[:-1]) / weights.sum()).tolist(), 1.0)
    kept = tuple(RoundBranch(*r) for r, k in zip(records, keep) if k)
    return kraus, kept, cumulative, phases


@pytest.fixture
def cold_compile():
    """Compile every loss config afresh, and drop what a patched test compiled."""
    mfsim.loss._outcome_stack.cache_clear()
    yield
    mfsim.loss._outcome_stack.cache_clear()


@pytest.mark.parametrize("name", LOSS_CONFIGS)
def test_tables_equal_the_direct_build(name):
    loss = LOSS_CONFIGS[name]
    assert len(EPS_VALUES) >= 53 and all(0.0 <= e <= 1.0 for e in EPS_VALUES)
    for eps in EPS_VALUES:
        kraus, kept, cumulative, phases = direct_table(eps, loss)
        table = round_branches(eps, loss)
        assert table.branches == kept, eps
        assert len(table.cumulative) == len(cumulative) == len(table.forms), eps
        assert max(abs(a - b) for a, b in zip(table.cumulative, cumulative)) <= 1e-15, eps
        assert table.cumulative[-1] == 1.0
        assert np.abs(form_phases(table.forms) - phases).max() <= 1e-14, eps
        assert np.abs(table.kraus - kraus).max() <= 1e-12, eps
        assert not table.kraus.flags.writeable


@pytest.mark.parametrize("name", LOSS_CONFIGS)
def test_compiled_stack_is_three_read_only_eigenvalue_rows(name):
    eigen, records = mfsim.loss._outcome_stack(LOSS_CONFIGS[name])
    assert eigen.shape == (3, len(records), 4)
    assert not eigen.flags.writeable


@pytest.mark.parametrize("eps", [-0.1, 1.1, float("nan")])
def test_eps_outside_the_unit_interval_raises_on_every_call(eps):
    for loss in LOSS_CONFIGS.values():
        for _ in range(2):
            with pytest.raises(UsageError):
                round_branches(eps, loss)


def test_stage_not_linear_in_the_three_terms_fails_the_compile(monkeypatch, cold_compile):
    # emission at eps^2: K(eps) is no longer (1 - eps) K_0 + eps K_1 + sqrt(eps (1 - eps)) K_2
    monkeypatch.setattr(mfsim.loss, "joint_emission",
                        lambda state, pair, photons, eps: joint_emission(state, pair, photons,
                                                                         eps ** 2))
    for loss in LOSS_CONFIGS.values():  # the backup stage emits through the same name
        with pytest.raises(ProtocolError):
            mfsim.loss._outcome_stack(loss)


def test_terms_outside_the_table_basis_fail_the_compile(monkeypatch, cold_compile):
    # the computational basis does not diagonalize the rotating branches
    monkeypatch.setattr(mfsim.loss, "_SIGN_PROJECTORS", np.array([np.diag(e) for e in np.eye(4)]))
    with pytest.raises(ProtocolError):
        mfsim.loss._outcome_stack(LossConfig())


def test_branches_that_are_not_weighted_unitaries_fail_the_compile(monkeypatch, cold_compile):
    # the environment reads lost photons in a Hadamard-rotated basis: the branches stay
    # complete and diagonal in the table basis, but the loss branches are not weighted unitaries
    monkeypatch.setattr(mfsim.loss, "_E4", np.kron(H, H))
    with pytest.raises(ProtocolError, match="not weighted unitaries"):
        mfsim.loss._outcome_stack(LossConfig(p_loss=0.3))


def test_unit_interval_ends_build_without_warnings(cold_compile):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for loss in LOSS_CONFIGS.values():
            for eps in (0.0, 1.0):
                table = round_branches(eps, loss)
                assert table.cumulative[-1] == 1.0
