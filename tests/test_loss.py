import dataclasses
import math

import numpy as np
import pytest

import mfsim.loss
from mfsim.emission import BeamSplitterOutcome, PhotonEncoding, outcome_probabilities, u_eps
from mfsim.errors import ProtocolError, UsageError
from mfsim.harness import haar_random_amplitudes
from mfsim.loss import (
    LossConfig,
    backup_round,
    loss_channel,
    photon_copy,
    round_branches,
)
from mfsim.pauli import PauliAxis, PauliString
from mfsim.statevec import RegisterLayout, StateVector

from conftest import RoundEffect, classify_round_effect, embedded_state, kron_le, rot_xx, X


# The two-atom backup register: data qubits 0 and 1, then their backups, then the photons.
BACKUPS, PHOTONS = (2, 3), (4, 5)


def backup_register(rng, n_data=2):
    layout = RegisterLayout.build(n_data, with_backup=True)
    psi = haar_random_amplitudes(n_data, rng)
    return psi, layout, embedded_state(psi, layout)


def fresh_round_state(psi, layout):
    return embedded_state(psi, layout)


class TestLossConfig:
    def test_p_loss_range(self):
        with pytest.raises(UsageError):
            LossConfig(p_loss=1.5)

    def test_backup_needs_polarization(self):
        with pytest.raises(UsageError):
            LossConfig(p_loss=0.1, encoding=PhotonEncoding.OCCUPATION, backup_enabled=True)

    @pytest.mark.parametrize("encoding", ["polarization", "occupation", "bogus", None, 1])
    def test_encoding_must_be_a_member(self, encoding):
        # a string would fail ``is PhotonEncoding.POLARIZATION`` and build the silent-loss table
        with pytest.raises(UsageError, match=f"loss.encoding must be a PhotonEncoding member, "
                                             f"got {encoding!r}"):
            LossConfig(p_loss=0.3, encoding=encoding)
        assert dataclasses.astuple(LossConfig(p_loss=0.3, encoding=PhotonEncoding.POLARIZATION)) == (
            0.3, PhotonEncoding.POLARIZATION, False)

    @pytest.mark.parametrize("flag", ["false", "true", 0, 1, None, np.bool_(True)])
    def test_backup_enabled_must_be_a_bool(self, flag):
        # "false" is truthy and would build the backup table
        with pytest.raises(UsageError,
                           match=f"loss.backup_enabled must be true or false, got {flag!r}"):
            LossConfig(p_loss=0.3, backup_enabled=flag)
        assert LossConfig(p_loss=0.3, backup_enabled=True).backup_enabled is True


class TestBackupEntangle:
    def test_amplitude_split(self, rng):
        # |0>_A |0>_B -> sqrt(1-e)|00> + sqrt(e)|11>
        amp = np.zeros(4, dtype=complex)
        amp[0] = 1.0
        st = u_eps(StateVector(amp), 0, 1, 0.36)
        assert st.amplitudes[0] == pytest.approx(0.8)
        assert st.amplitudes[3] == pytest.approx(0.6)


class TestPhotonCopy:
    def test_copies_each_branch(self):
        # (a|0> + b|1>)_B |V> -> a|0>|V> + b|1>|H>
        amp = np.zeros(8, dtype=complex)
        amp[0], amp[2] = 0.6, 0.8  # backup is qubit 1, photon qubit 2
        st = photon_copy(StateVector(amp), 1, 2)
        assert st.amplitudes[0] == pytest.approx(0.6)
        assert st.amplitudes[2 + 4] == pytest.approx(0.8)

    def test_rejects_occupied_photon(self):
        amp = np.zeros(8, dtype=complex)
        amp[4] = 1.0
        with pytest.raises(ProtocolError):
            photon_copy(StateVector(amp), 1, 2)


class TestLossChannel:
    def test_no_loss_at_zero(self, rng):
        psi, layout, st = backup_register(rng)
        cfg = LossConfig(p_loss=0.0)
        out, lost = loss_channel(st, PHOTONS, cfg, rng)
        assert lost == (False, False)
        assert np.allclose(out.amplitudes, st.amplitudes)

    def test_both_lost_at_one(self, rng):
        psi, layout, st = backup_register(rng)
        cfg = LossConfig(p_loss=1.0)
        _, lost = loss_channel(st, PHOTONS, cfg, rng)
        assert lost == (True, True)

    def test_survival_statistics(self, rng):
        # both photons survive with probability (1-p)^2
        p = 0.3
        cfg = LossConfig(p_loss=p)
        amp = np.zeros(8, dtype=complex)
        amp[0] = 1.0
        st = StateVector(amp)
        n = 3000
        survived = 0
        for _ in range(n):
            _, lost = loss_channel(st, (1, 2), cfg, rng)
            survived += not any(lost)
        want = (1 - p) ** 2
        se = math.sqrt(n * want * (1 - want))
        assert abs(survived - n * want) <= 3 * se

    def test_occupation_losses_are_silent(self, rng):
        cfg = LossConfig(p_loss=1.0, encoding=PhotonEncoding.OCCUPATION)
        amp = np.zeros(8, dtype=complex)
        amp[0] = 1.0
        _, lost = loss_channel(StateVector(amp), (1, 2), cfg, rng)
        assert lost == (True, True)

    def test_lost_mode_is_emptied(self, rng):
        psi, layout, st = backup_register(rng)
        # put photon 1 into a superposition first
        st = photon_copy(u_eps(st, 0, 2, 0.5), 2, PHOTONS[0])
        cfg = LossConfig(p_loss=1.0)
        out, _ = loss_channel(st, PHOTONS, cfg, rng)
        for q in PHOTONS:
            assert out.prob_qubit_one(q) <= 1e-12


class TestBackupRound:
    CFG0 = LossConfig(p_loss=0.0, backup_enabled=True)

    def pairs(self, layout):
        return (0, 1), BACKUPS, PHOTONS

    def test_lossless_outcome_distribution(self, rng):
        # with both photons arriving the beam-splitter law is the direct one
        eps = 0.3
        analytic = outcome_probabilities(eps)
        psi, layout, _ = backup_register(rng)
        pa, pb, ph = self.pairs(layout)
        counts = {o: 0 for o in BeamSplitterOutcome}
        n = 2000
        for _ in range(n):
            st = fresh_round_state(psi, layout)
            _, res = backup_round(st, pa, pb, ph, eps, self.CFG0, rng)
            counts[BeamSplitterOutcome(res.label)] += 1
        for o, p in analytic.items():
            se = math.sqrt(n * p * (1 - p))
            assert abs(counts[o] - n * p) <= 3.5 * se

    def test_lossless_rotation_matches_direct_law(self, rng):
        eps = 0.35
        t = math.atan2(eps, 1 - eps)
        psi, layout, _ = backup_register(rng)
        pa, pb, ph = self.pairs(layout)
        for _ in range(60):
            st = fresh_round_state(psi, layout)
            out, res = backup_round(st, pa, pb, ph, eps, self.CFG0, rng)
            got = out.amplitudes[:4]
            if res.direction is not None:
                want = rot_xx(res.direction * t) @ psi
            else:
                flip = kron_le(
                    X if res.flips[0] else np.eye(2), X if res.flips[1] else np.eye(2)
                )
                want = flip @ psi
            assert abs(np.vdot(want, got)) ** 2 >= 1 - 1e-9

    def test_ancillas_reset_after_round(self, rng):
        psi, layout, _ = backup_register(rng)
        pa, pb, ph = self.pairs(layout)
        for p_loss in (0.0, 0.7):
            cfg = LossConfig(p_loss=p_loss, backup_enabled=True)
            st = fresh_round_state(psi, layout)
            out, _ = backup_round(st, pa, pb, ph, 0.4, cfg, rng)
            for q in list(pb) + list(ph):
                assert out.prob_qubit_one(q) <= 1e-10

    def test_certain_loss_preserves_data_up_to_pauli(self, rng):
        # the whole point of the backups: a lost photon costs a retry, not the state
        cfg = LossConfig(p_loss=1.0, backup_enabled=True)
        psi, layout, _ = backup_register(rng)
        pa, pb, ph = self.pairs(layout)
        for _ in range(40):
            st = fresh_round_state(psi, layout)
            out, res = backup_round(st, pa, pb, ph, 0.45, cfg, rng)
            assert res.label == "loss" and res.direction is None
            flip = kron_le(
                X if res.flips[0] else np.eye(2), X if res.flips[1] else np.eye(2)
            )
            got = out.amplitudes[:4]
            assert abs(np.vdot(flip @ psi, got)) ** 2 >= 1 - 1e-9

    def test_partial_loss_also_recovered(self, rng):
        # force exactly one lost photon by alternating the p_loss draw
        psi, layout, _ = backup_register(rng)
        pa, pb, ph = self.pairs(layout)
        cfg = LossConfig(p_loss=0.5, backup_enabled=True)
        seen_partial = 0
        for _ in range(120):
            st = fresh_round_state(psi, layout)
            out, res = backup_round(st, pa, pb, ph, 0.45, cfg, rng)
            if res.label == "loss" and res.lost[0] != res.lost[1]:
                seen_partial += 1
                flip = kron_le(
                    X if res.flips[0] else np.eye(2), X if res.flips[1] else np.eye(2)
                )
                assert abs(np.vdot(flip @ psi, out.amplitudes[:4])) ** 2 >= 1 - 1e-9
        assert seen_partial > 10

    def test_retry_count_statistics(self, rng):
        # geometric retries: mean attempts per useful round is 1/(1-p)^2
        p = 0.4
        cfg = LossConfig(p_loss=p, backup_enabled=True)
        psi, layout, _ = backup_register(rng)
        pa, pb, ph = self.pairs(layout)
        attempts = 0
        useful = 0
        while useful < 300:
            st = fresh_round_state(psi, layout)
            _, res = backup_round(st, pa, pb, ph, 0.3, cfg, rng)
            attempts += 1
            useful += res.label != "loss"
        mean = attempts / useful
        want = 1.0 / (1 - p) ** 2
        assert mean == pytest.approx(want, rel=0.25)

    @pytest.mark.parametrize("p_loss", [0.0, 0.6, 0.9, 1.0])
    def test_round_record_is_a_row_of_its_table(self, p_loss, rng):
        # the sampled round returns the very record the compiled table stores
        cfg = LossConfig(p_loss=p_loss, backup_enabled=True)
        layout = RegisterLayout.build(2, with_backup=True)
        pa, pb, ph = self.pairs(layout)
        for eps in (0.05, 0.3, 0.5, 0.95):
            rows = round_branches(eps, cfg).branches
            for _ in range(30):
                st = embedded_state(haar_random_amplitudes(2, rng), layout)
                _, res = backup_round(st, pa, pb, ph, eps, cfg, rng)
                assert res in rows, (eps, res)


class TestClassifyRoundEffect:
    def test_identifies_plus_rotation(self, rng):
        from mfsim.statevec import apply_two_qubit

        psi, layout, st = backup_register(rng)
        t = 0.4
        after = apply_two_qubit(st, (0, 1), rot_xx(t))
        eff = classify_round_effect(st, after, (0, 1), t, PauliString.identity(layout.n_qubits))
        assert eff is RoundEffect.PLUS_ROTATION

    def test_identifies_pauli_branch(self, rng):
        from mfsim.statevec import apply_pauli_string

        psi, layout, st = backup_register(rng)
        delta = PauliString.embed(layout.n_qubits, {0: PauliAxis.X})
        after = apply_pauli_string(st, delta)
        eff = classify_round_effect(st, after, (0, 1), 0.4, delta)
        assert eff is RoundEffect.KNOWN_PAULI

    def test_flags_wrong_bookkeeping(self, rng):
        from mfsim.statevec import apply_pauli_string

        psi, layout, st = backup_register(rng)
        actual = PauliString.embed(layout.n_qubits, {0: PauliAxis.Z})
        claimed = PauliString.embed(layout.n_qubits, {0: PauliAxis.X})
        after = apply_pauli_string(st, actual)
        eff = classify_round_effect(st, after, (0, 1), 0.4, claimed)
        assert eff is RoundEffect.UNRESOLVED

    @pytest.mark.parametrize("p_loss", [0.0, 0.5, 1.0])
    def test_every_backup_round_is_resolved(self, p_loss, rng):
        # the invariant behind the whole accounting: no round ever applies
        # something the controller cannot name
        cfg = LossConfig(p_loss=p_loss, backup_enabled=True)
        eps = 0.3
        t = math.atan2(eps, 1 - eps)
        psi, layout, _ = backup_register(rng)
        pa = (0, 1)
        pb, ph = BACKUPS, PHOTONS
        n_rounds = 250
        for _ in range(n_rounds):
            st = fresh_round_state(psi, layout)
            out, res = backup_round(st, pa, pb, ph, eps, cfg, rng)
            delta = PauliString.embed(
                layout.n_qubits,
                {q: PauliAxis.X for q, f in zip(pa, res.flips) if f},
            )
            eff = classify_round_effect(st, out, pa, t, delta)
            assert eff is not RoundEffect.UNRESOLVED
            if res.direction == 1:
                assert eff is RoundEffect.PLUS_ROTATION
            elif res.direction == -1:
                assert eff is RoundEffect.MINUS_ROTATION
            else:
                assert eff is RoundEffect.KNOWN_PAULI

    def test_backups_read_in_the_sign_basis_after_a_loss_are_caught(self, rng, monkeypatch):
        # A mutation check of the one round model: the classifier reads states, not the
        # model, so a round whose reads no longer match its record rules is unresolved.
        reads = mfsim.loss._reads

        def sign_read_after_loss(loss, lost):
            steps = reads(loss, lost)
            return steps[:-1] + [(steps[-1][0], mfsim.loss._SIGN_PAIRS)] if any(lost) else steps

        monkeypatch.setattr(mfsim.loss, "_reads", sign_read_after_loss)
        cfg = LossConfig(p_loss=1.0, backup_enabled=True)
        eps = 0.3
        psi, layout, _ = backup_register(rng)
        effects = set()
        for _ in range(50):
            st = fresh_round_state(psi, layout)
            out, res = backup_round(st, (0, 1), BACKUPS, PHOTONS, eps, cfg, rng)
            flipped = {q: PauliAxis.X for q, f in enumerate(res.flips) if f}
            delta = PauliString.embed(layout.n_qubits, flipped)
            effects.add(classify_round_effect(st, out, (0, 1), math.atan2(eps, 1 - eps), delta))
        assert RoundEffect.UNRESOLVED in effects
