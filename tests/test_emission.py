import numpy as np
import pytest

from mfsim.emission import (
    BeamSplitterOutcome,
    beamsplitter_measure,
    emission_unitary,
    joint_emission,
    outcome_probabilities,
    u_eps,
)
from mfsim.errors import ProtocolError, UsageError
from mfsim.harness import haar_random_amplitudes
from mfsim.statevec import RegisterLayout, StateVector

from conftest import X, embedded_state, kron_le, rot_xx


def atom_photon_state(atom_amp=(1, 0)):
    amp = np.zeros(4, dtype=complex)
    amp[0], amp[1] = atom_amp  # photon (qubit 1) in |V>
    return StateVector(amp)


class TestUEps:
    def test_eps_zero_is_identity(self, rng):
        amp = np.zeros(4, dtype=complex)
        a = haar_random_amplitudes(1, rng)
        amp[0], amp[1] = a
        st = StateVector(amp)
        out = u_eps(st, 0, 1, 0.0)
        assert np.max(np.abs(out.amplitudes - st.amplitudes)) <= 1e-12

    def test_eps_one_flips_and_emits(self):
        out = u_eps(atom_photon_state((1, 0)), 0, 1, 1.0)
        # |0>|V> -> |1>|H>: atom bit 1, photon bit 1 -> index 3
        want = np.zeros(4)
        want[3] = 1.0
        assert np.allclose(out.amplitudes, want)

    def test_eps_036_amplitudes(self):
        # sqrt(1-0.36) = 0.8, sqrt(0.36) = 0.6
        out = u_eps(atom_photon_state((1, 0)), 0, 1, 0.36)
        assert out.amplitudes[0] == pytest.approx(0.8)
        assert out.amplitudes[3] == pytest.approx(0.6)

    def test_rejects_occupied_photon_mode(self):
        amp = np.zeros(4, dtype=complex)
        amp[2] = 1.0  # photon in |H>
        with pytest.raises(ProtocolError):
            u_eps(StateVector(amp), 0, 1, 0.3)

    def test_rejects_bad_eps(self):
        with pytest.raises(UsageError):
            u_eps(atom_photon_state(), 0, 1, 1.5)

    def test_unitary_completion(self):
        for eps in (0.0, 0.2, 0.5, 0.9, 1.0):
            u = emission_unitary(eps)
            assert np.allclose(u.T @ u, np.eye(4), atol=1e-12)


def joint_state(psi, eps):
    layout = RegisterLayout.build(2)
    st = embedded_state(psi, layout)
    return layout, joint_emission(st, (0, 1), (2, 3), eps)


class TestJointEmission:
    def test_eps_zero_single_branch(self, rng):
        psi = haar_random_amplitudes(2, rng)
        layout, out = joint_state(psi, 0.0)
        # |psi> (x) |VH>: photon 1 (qubit 2) = V, photon 2 (qubit 3) = H
        want = np.zeros(16, dtype=complex)
        want[8 : 8 + 4] = psi  # photon bits: q3=1 -> offset 8
        assert np.max(np.abs(out.amplitudes - want)) <= 1e-12

    def test_eps_one_flipped_branch(self, rng):
        psi = haar_random_amplitudes(2, rng)
        layout, out = joint_state(psi, 1.0)
        want = np.zeros(16, dtype=complex)
        want[4 : 4 + 4] = 1j * (kron_le(X, X) @ psi)  # |HV>: q2=1 -> offset 4
        assert np.max(np.abs(out.amplitudes - want)) <= 1e-12

    def test_branch_weights_eps_02(self, rng):
        # squared branch amplitudes: (1-e)^2=0.64, e^2=0.04, e(1-e)=0.16 each
        psi = haar_random_amplitudes(2, rng)
        layout, out = joint_state(psi, 0.2)
        t = out.amplitudes.reshape(2, 2, 4)  # (q3, q2, atoms)
        weights = {
            "VH": float(np.sum(np.abs(t[1, 0]) ** 2)),
            "HV": float(np.sum(np.abs(t[0, 1]) ** 2)),
            "VV": float(np.sum(np.abs(t[0, 0]) ** 2)),
            "HH": float(np.sum(np.abs(t[1, 1]) ** 2)),
        }
        assert weights["VH"] == pytest.approx(0.64, abs=1e-12)
        assert weights["HV"] == pytest.approx(0.04, abs=1e-12)
        assert weights["VV"] == pytest.approx(0.16, abs=1e-12)
        assert weights["HH"] == pytest.approx(0.16, abs=1e-12)


class TestBeamSplitterMeasure:
    def test_outcome_distribution_eps_02(self, rng):
        # plug eps=0.2 into the four-outcome law
        analytic = outcome_probabilities(0.2)
        assert analytic[BeamSplitterOutcome.PLUS] == pytest.approx(0.34)
        assert analytic[BeamSplitterOutcome.HH] == pytest.approx(0.16)
        psi = haar_random_amplitudes(2, rng)
        counts = {o: 0 for o in BeamSplitterOutcome}
        n = 4000
        for _ in range(n):
            _, st = joint_state(psi, 0.2)
            outcome, st, prob = beamsplitter_measure(st, (2, 3), rng)
            counts[outcome] += 1
            assert prob == pytest.approx(analytic[outcome], abs=1e-10)
        for o, p in analytic.items():
            se = np.sqrt(n * p * (1 - p))
            assert abs(counts[o] - n * p) <= 3.5 * se

    def test_probability_completeness_on_grid(self):
        for eps in np.linspace(0, 1, 11):
            assert sum(outcome_probabilities(eps).values()) == pytest.approx(1.0)

    def test_eps_zero_atoms_unchanged(self, rng):
        psi = haar_random_amplitudes(2, rng)
        for _ in range(10):
            layout, st = joint_state(psi, 0.0)
            outcome, st, prob = beamsplitter_measure(st, (2, 3), rng)
            assert outcome in (BeamSplitterOutcome.PLUS, BeamSplitterOutcome.MINUS)
            assert prob == pytest.approx(0.5)
            got = st.amplitudes[:4]
            assert abs(np.vdot(psi, got)) ** 2 == pytest.approx(1.0)

    def test_photons_emptied_after_measurement(self, rng):
        psi = haar_random_amplitudes(2, rng)
        layout, st = joint_state(psi, 0.37)
        _, st, _ = beamsplitter_measure(st, (2, 3), rng)
        assert st.prob_qubit_one(2) <= 1e-12
        assert st.prob_qubit_one(3) <= 1e-12

    @pytest.mark.parametrize("eps", [0.1, 0.3, 0.5, 0.8])
    def test_post_state_law(self, eps, rng):
        # Plus collapses the atoms to e^{+it XX}|psi> with t = arctan(eps/(1-eps))
        psi = haar_random_amplitudes(2, rng)
        t = np.arctan2(eps, 1.0 - eps)
        seen = set()
        for _ in range(40):
            layout, st = joint_state(psi, eps)
            outcome, st, _ = beamsplitter_measure(st, (2, 3), rng)
            got = st.amplitudes[:4]
            if outcome is BeamSplitterOutcome.PLUS:
                want = rot_xx(t) @ psi
            elif outcome is BeamSplitterOutcome.MINUS:
                want = rot_xx(-t) @ psi
            elif outcome is BeamSplitterOutcome.VV:
                want = kron_le(np.eye(2), X) @ psi
            else:
                want = kron_le(X, np.eye(2)) @ psi
            seen.add(outcome)
            assert abs(np.vdot(want, got)) ** 2 >= 1 - 1e-10

    def test_eps_half_plus_is_pi_quarter_rotation(self, rng):
        # tan t = 1 at eps = 0.5
        psi = haar_random_amplitudes(2, rng)
        while True:
            layout, st = joint_state(psi, 0.5)
            outcome, st, _ = beamsplitter_measure(st, (2, 3), rng)
            if outcome is BeamSplitterOutcome.PLUS:
                break
        want = rot_xx(np.pi / 4) @ psi
        assert abs(np.vdot(want, st.amplitudes[:4])) ** 2 >= 1 - 1e-10
