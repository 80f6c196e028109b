import itertools

import numpy as np
import pytest

import mfsim.statevec
from mfsim.compiler import HamiltonianSpec
from mfsim.errors import ResourceError, UsageError
from mfsim.harness import haar_random_amplitudes
from mfsim.pauli import PauliAxis, PauliString
from mfsim.statevec import (
    RegisterLayout,
    StateVector,
    _apply,
    apply_local,
    apply_pauli_string,
    apply_two_qubit,
    exact_evolution,
    measure,
    measure_and_reset,
)

from conftest import AXIS_MATS, H, I2, X, Z, embedded_state, fidelity, kron_le


def basis_state(n, index=0):
    return embedded_state(np.eye(1 << n)[index], RegisterLayout.build(n, n_photons=0))


SWAP = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)


class TestApplyLocal:
    def test_identity_leaves_state(self, rng):
        st = basis_state(3, 5)
        out = apply_local(st, 1, I2)
        assert np.allclose(out.amplitudes, st.amplitudes)

    def test_x_flips_zero(self):
        st = basis_state(1)
        out = apply_local(st, 0, X)
        assert np.allclose(out.amplitudes, [0, 1])

    def test_hadamard_twice(self, rng):
        layout = RegisterLayout.build(2, n_photons=0)
        st = embedded_state(haar_random_amplitudes(2, rng), layout)
        out = apply_local(apply_local(st, 1, H), 1, H)
        assert np.max(np.abs(out.amplitudes - st.amplitudes)) <= 1e-12

    def test_rejects_non_unitary(self):
        with pytest.raises(UsageError):
            apply_local(basis_state(1), 0, np.array([[1, 0], [0, 2]]))

    def test_rejects_wrong_shape(self):
        with pytest.raises(UsageError, match=r"operator has shape \(4, 4\), expected \(2, 2\)"):
            apply_local(basis_state(2), 0, np.eye(4))

    def test_little_endian_convention(self):
        # X on qubit 0 of |00> flips the least significant bit
        st = basis_state(2, 0)
        out = apply_local(st, 0, X)
        assert np.allclose(out.amplitudes, [0, 1, 0, 0])
        out = apply_local(st, 1, X)
        assert np.allclose(out.amplitudes, [0, 0, 1, 0])


class TestApplyTwoQubit:
    def test_identity(self):
        st = basis_state(2, 3)
        out = apply_two_qubit(st, (0, 1), np.eye(4))
        assert np.allclose(out.amplitudes, st.amplitudes)

    def test_swap(self):
        # |01> in (q0, q1) notation means q0=0, q1=1 -> index 2
        st = basis_state(2, 2)
        out = apply_two_qubit(st, (0, 1), SWAP)
        assert np.allclose(out.amplitudes, [0, 1, 0, 0])

    def test_involution(self, rng):
        layout = RegisterLayout.build(3, n_photons=0)
        st = embedded_state(haar_random_amplitudes(3, rng), layout)
        xx = kron_le(X, X)
        out = apply_two_qubit(apply_two_qubit(st, (0, 2), xx), (0, 2), xx)
        assert np.max(np.abs(out.amplitudes - st.amplitudes)) <= 1e-12

    def test_equal_indices_rejected(self):
        with pytest.raises(UsageError):
            apply_two_qubit(basis_state(2), (1, 1), np.eye(4))

    def test_product_operator_equals_two_locals(self, rng):
        layout = RegisterLayout.build(3, n_photons=0)
        st = embedded_state(haar_random_amplitudes(3, rng), layout)
        a, b = H, np.diag([1.0, 1.0j])
        joint = apply_two_qubit(st, (2, 0), kron_le(a, b))
        local = apply_local(apply_local(st, 2, a), 0, b)
        assert np.max(np.abs(joint.amplitudes - local.amplitudes)) <= 1e-12


def on_qubits(op, qubits, n):
    """Dense 2^n x 2^n matrix of ``op`` acting on ``qubits`` (first listed the low bit).

    Built from the Pauli expansion of ``op`` with kron_le, independently of
    the amplitude index map.
    """
    k = len(qubits)
    out = np.zeros((1 << n, 1 << n), dtype=complex)
    for paulis in itertools.product("IXYZ", repeat=k):
        mats = [AXIS_MATS[p] for p in paulis]
        c = np.trace(kron_le(*mats).conj().T @ op) / (1 << k)
        sites = [I2] * n
        for q, m in zip(qubits, mats):
            sites[q] = m
        out += c * kron_le(*sites)
    return out


def random_matrix(rng, dim):
    return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))


def random_unitary(rng, dim):
    q, r = np.linalg.qr(random_matrix(rng, dim))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_state(rng, n):
    return embedded_state(haar_random_amplitudes(n, rng), RegisterLayout.build(n, n_photons=0))


def ordered_pairs(n_max):
    return [(n, pair) for n in range(2, n_max + 1) for pair in itertools.permutations(range(n), 2)]


class TestSubsetIndex:
    """Every state update indexes through one cached map; check it against dense oracles."""

    @pytest.mark.parametrize("n,pair", ordered_pairs(5), ids=str)
    def test_apply_two_qubit_matches_dense(self, n, pair, rng):
        u, st = random_unitary(rng, 4), random_state(rng, n)
        want = on_qubits(u, pair, n) @ st.amplitudes
        assert np.max(np.abs(apply_two_qubit(st, pair, u).amplitudes - want)) <= 1e-12

    @pytest.mark.parametrize("n,pair", ordered_pairs(5), ids=str)
    def test_draw_branch_matches_dense(self, n, pair, rng):
        # measure's draw on a complete random Kraus set K_i S^(-1/2), S = sum_i K_i^dag K_i
        raw, st = np.array([random_matrix(rng, 4) for _ in range(3)]), random_state(rng, n)
        w, v = np.linalg.eigh(np.einsum("bki,bkj->ij", raw.conj(), raw))
        ops = raw @ (v / np.sqrt(w)) @ v.conj().T
        dense = [on_qubits(k, pair, n) @ st.amplitudes for k in ops]
        want = np.array([np.vdot(b, b).real for b in dense])
        assert want.sum() == pytest.approx(1.0, abs=1e-12)
        drawn = set()
        for seed in range(1000):  # until every branch has been drawn
            i, out, prob = measure(st, pair, ops, np.random.default_rng(seed))
            r = np.random.default_rng(seed).random() * want.sum()
            assert i == int(np.searchsorted(np.cumsum(want), r, side="right"))
            assert prob == pytest.approx(want[i], abs=1e-12)
            assert np.max(np.abs(out.amplitudes - dense[i] / np.sqrt(want[i]))) <= 1e-12
            drawn.add(i)
            if len(drawn) == len(ops):
                break
        assert drawn == set(range(len(ops)))

    @pytest.mark.parametrize("qubits", [(0, 1, 2), (2, 0, 1), (1, 2, 0)])
    def test_measurement_on_every_qubit(self, qubits, rng):
        basis = random_unitary(rng, 8)
        for _ in range(10):
            st = random_state(rng, 3)
            i, out, prob = measure_and_reset(st, qubits, basis, rng)
            # no qubit is left over: |0..0><v_i| leaves <v_i|psi> on |000>
            want = on_qubits(np.outer(np.eye(8)[0], basis[i].conj()), qubits, 3) @ st.amplitudes
            assert prob == pytest.approx(np.vdot(want, want).real, abs=1e-12)
            assert np.max(np.abs(out.amplitudes - want / np.sqrt(prob))) <= 1e-12
            assert abs(out.amplitudes[0]) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_prob_qubit_one_matches_dense_sum(self, n, rng):
        st = random_state(rng, n)
        for q in range(n):
            want = sum(abs(a) ** 2 for j, a in enumerate(st.amplitudes) if (j >> q) & 1)
            assert st.prob_qubit_one(q) == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("qubits", [(1, 1), (0, 3), (-1, 0), (2, 0, 2)])
    def test_invalid_qubits_raise_on_every_call(self, qubits, rng):
        st = random_state(rng, 3)
        ops = np.eye(1 << len(qubits))[None]  # complete, so only the qubits are at fault
        for _ in range(2):
            with pytest.raises(UsageError):
                measure(st, qubits, ops, rng)
            if len(qubits) == 2:
                with pytest.raises(UsageError):
                    apply_two_qubit(st, qubits, np.eye(4))
        for q in (3, -1):
            for _ in range(2):
                with pytest.raises(UsageError):
                    apply_local(st, q, X)


class TestMeasure:
    P0 = np.diag([1.0, 0.0]).astype(complex)
    P1 = np.diag([0.0, 1.0]).astype(complex)

    def test_deterministic_outcome(self, rng):
        st = basis_state(1, 0)
        outcome, collapsed, prob = measure(st, [0], [self.P0, self.P1], rng)
        assert outcome == 0 and prob == pytest.approx(1.0)
        assert np.allclose(collapsed.amplitudes, st.amplitudes)

    def test_plus_state_is_fifty_fifty(self, rng):
        st = apply_local(basis_state(1, 0), 0, H)
        counts = [0, 0]
        for _ in range(2000):
            outcome, _, prob = measure(st, [0], [self.P0, self.P1], rng)
            assert prob == pytest.approx(0.5)
            counts[outcome] += 1
        assert abs(counts[0] - 1000) < 3 * np.sqrt(2000 * 0.25)

    def test_incomplete_projectors_rejected(self, rng):
        with pytest.raises(UsageError):
            measure(basis_state(1), [0], [self.P0], rng)

    def test_norm_preserved_after_sequence(self, rng):
        layout = RegisterLayout.build(3, n_photons=0)
        st = embedded_state(haar_random_amplitudes(3, rng), layout)
        for q in range(3):
            st = apply_local(st, q, H)
            _, st, _ = measure(st, [q], [self.P0, self.P1], rng)
        assert abs(st.norm_squared() - 1.0) <= 1e-10

    def test_probabilities_sum_to_one(self, rng):
        layout = RegisterLayout.build(2, n_photons=0)
        st = embedded_state(haar_random_amplitudes(2, rng), layout)
        projs = [np.outer(e, e.conj()) for e in np.eye(4, dtype=complex)]
        seen = {}
        for _ in range(400):
            o, _, p = measure(st, [0, 1], projs, rng)
            seen[o] = p
            assert p == pytest.approx(abs(st.amplitudes[o]) ** 2, abs=1e-12)
        assert abs(sum(seen.values()) - 1.0) <= 1e-10

    def test_complete_kraus_set_matches_dense(self, rng):
        g = 0.3  # amplitude damping on qubit 1: complete, but its operators are not projectors
        kraus = np.array([[[1, 0], [0, np.sqrt(1 - g)]], [[0, np.sqrt(g)], [0, 0]]], dtype=complex)
        st = random_state(rng, 2)
        dense = [on_qubits(k, (1,), 2) @ st.amplitudes for k in kraus]
        want = np.array([np.vdot(b, b).real for b in dense])
        for seed in range(8):
            i, out, prob = measure(st, [1], kraus, np.random.default_rng(seed))
            r = np.random.default_rng(seed).random() * want.sum()
            assert i == int(np.searchsorted(np.cumsum(want), r, side="right"))
            assert prob == pytest.approx(want[i], abs=1e-12)
            assert np.max(np.abs(out.amplitudes - dense[i] / np.sqrt(prob))) <= 1e-12


SIGNS = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
_E4 = np.eye(4, dtype=complex)
BELL = np.array([(_E4[1] - _E4[2]) / np.sqrt(2), (_E4[1] + _E4[2]) / np.sqrt(2), _E4[3], _E4[0]])
# (basis, measured qubits of a 4-qubit register); the complex Y basis checks the conjugation
RESET_CASES = {
    "computational": (np.eye(2, dtype=complex), (1,)),
    "sign": (SIGNS, (2,)),
    "bell": (BELL, (3, 1)),
    "y": (np.array([[1, 1j], [1, -1j]]) / np.sqrt(2), (0,)),
}


def contract(amp, qubits, v):
    """<v|psi> on ``qubits`` (first listed the low bit of v), over the other qubits in order."""
    n = amp.size.bit_length() - 1
    rest = [q for q in range(n) if q not in qubits]
    out = np.zeros(1 << len(rest), dtype=complex)
    for j, a in enumerate(amp):
        m = sum(((j >> q) & 1) << t for t, q in enumerate(qubits))
        r = sum(((j >> q) & 1) << t for t, q in enumerate(rest))
        out[r] += np.conj(v[m]) * a
    return out


def projective_draw(state, qubits, projectors, rng):
    """A dense projective draw: one uniform against the running sum of ||P_i psi||^2."""
    branches = [on_qubits(p, qubits, state.n_qubits) @ state.amplitudes for p in projectors]
    probs = np.array([np.vdot(b, b).real for b in branches])
    r = rng.random() * probs.sum()
    i = min(int(np.searchsorted(np.cumsum(probs), r, side="right")), len(probs) - 1)
    return i, StateVector(branches[i] / np.sqrt(probs[i]), state.layout), float(probs[i])


def old_measure_and_reset(state, qubits, basis, rng):
    """The separate helpers measure_and_reset replaced, written out."""
    projs = [np.outer(v, v.conj()) for v in basis]
    outcome, st, prob = projective_draw(state, qubits, projs, rng)
    if len(qubits) == 2:  # Gram-Schmidt completion of the observed Bell state
        rows = [basis[outcome]]
        for e in _E4:
            w = e - sum(np.vdot(b, e) * b for b in rows)
            if np.linalg.norm(w) > 1e-9:
                rows.append(w / np.linalg.norm(w))
        return outcome, apply_two_qubit(st, qubits, np.array(rows).conj()), prob
    if basis is SIGNS:
        st = apply_local(st, qubits[0], H)
    if outcome == 1:
        st = apply_local(st, qubits[0], X)
    return outcome, st, prob


class TestMeasureAndReset:
    @pytest.mark.parametrize("case", sorted(RESET_CASES))
    def test_frequencies_follow_born_rule(self, case, rng):
        basis, qubits = RESET_CASES[case]
        st = embedded_state(haar_random_amplitudes(4, rng), RegisterLayout.build(4, n_photons=0))
        want = np.array([np.linalg.norm(contract(st.amplitudes, qubits, v)) ** 2 for v in basis])
        n = 2000
        counts = np.zeros(len(basis))
        for _ in range(n):
            counts[measure_and_reset(st, qubits, basis, rng)[0]] += 1
        assert np.all(np.abs(counts - n * want) <= 4 * np.sqrt(n * want * (1 - want)) + 1)

    @pytest.mark.parametrize("case", sorted(RESET_CASES))
    def test_measured_qubits_end_empty_and_rest_is_projection(self, case, rng):
        basis, qubits = RESET_CASES[case]
        layout = RegisterLayout.build(4, n_photons=0)
        for _ in range(20):
            st = embedded_state(haar_random_amplitudes(4, rng), layout)
            i, out, prob = measure_and_reset(st, qubits, basis, rng)
            rest = contract(st.amplitudes, qubits, basis[i])
            assert prob == pytest.approx(np.linalg.norm(rest) ** 2, abs=1e-12)
            # the measured qubits are |0...0>, so <0...0| on them keeps the whole state
            kept = contract(out.amplitudes, qubits, np.eye(1 << len(qubits))[0])
            assert np.linalg.norm(kept) == pytest.approx(1.0, abs=1e-12)
            assert np.max(np.abs(kept - rest / np.linalg.norm(rest))) <= 1e-12

    @pytest.mark.parametrize("case", ["bell", "computational", "sign"])
    def test_same_draws_as_separate_helpers(self, case):
        basis, qubits = RESET_CASES[case]
        layout = RegisterLayout.build(4, n_photons=0)
        for seed in range(40):
            st = embedded_state(haar_random_amplitudes(4, np.random.default_rng(seed)), layout)
            new = measure_and_reset(st, qubits, basis, np.random.default_rng([seed, 1]))
            old = old_measure_and_reset(st, qubits, basis, np.random.default_rng([seed, 1]))
            assert new[0] == old[0]
            assert new[2] == pytest.approx(old[2], abs=1e-12)
            assert np.max(np.abs(new[1].amplitudes - old[1].amplitudes)) <= 1e-12

    @pytest.mark.parametrize(
        "basis",
        [
            [[1, 0], [1, 1]],  # neither unit nor orthogonal
            [[1, 0], [np.sqrt(0.5), np.sqrt(0.5)]],  # unit but not orthogonal
            [[1, 0], [0, 2]],  # orthogonal but not unit
            [[1, 0]],  # incomplete
        ],
    )
    def test_non_orthonormal_basis_rejected(self, basis, rng):
        with pytest.raises(UsageError):
            measure_and_reset(basis_state(2, 1), (0,), np.array(basis, dtype=complex), rng)


class TestExactEvolution:
    def test_zero_time_is_identity(self):
        h = HamiltonianSpec.chain_1d(2, "XX", 1.0)
        assert np.allclose(exact_evolution(h, 0.0), np.eye(4))

    def test_xx_series_resummation(self):
        # (XX)^2 = 1, so e^{itXX} = cos(t) 1 + i sin(t) XX; check vs eigendecomposition
        h = HamiltonianSpec.chain_1d(2, "XX", 1.0)
        t = 0.73
        xx = kron_le(X, X)
        expected = np.cos(t) * np.eye(4) + 1j * np.sin(t) * xx
        assert np.allclose(exact_evolution(h, t), expected, atol=1e-12)

    def test_opposite_signs_are_inverse(self):
        h = HamiltonianSpec.chain_1d(3, "ZZ", 0.4)
        u, v = exact_evolution(h, 0.9), exact_evolution(h, -0.9)
        assert np.allclose(u @ v, np.eye(8), atol=1e-10)

    def test_group_property(self):
        h = HamiltonianSpec.chain_1d(3, "XX", 0.8)
        lhs = exact_evolution(h, 0.3) @ exact_evolution(h, 0.5)
        assert np.max(np.abs(lhs - exact_evolution(h, 0.8))) <= 1e-8

    def test_unitarity(self):
        h = HamiltonianSpec.from_dict(
            {"n_qubits": 2, "terms": [
                {"sites": [0, 1], "axes": "XY", "coeff": 0.7},
                {"sites": [0, 1], "axes": "ZZ", "coeff": -0.2},
            ]}
        )
        u = exact_evolution(h, 1.3)
        assert np.allclose(u.conj().T @ u, np.eye(4), atol=1e-10)

    def test_register_cap(self):
        h = HamiltonianSpec.chain_1d(13, "XX", 1.0)
        with pytest.raises(ResourceError):
            exact_evolution(h, 0.1)


class TestFidelity:
    """The conftest ``fidelity`` helper that other tests use as a reference."""

    def test_identical(self, rng):
        layout = RegisterLayout.build(2, n_photons=0)
        st = embedded_state(haar_random_amplitudes(2, rng), layout)
        assert fidelity(st, st) == pytest.approx(1.0)

    def test_orthogonal(self):
        a = basis_state(2, 0)
        b = basis_state(2, 3)
        assert fidelity(a, b) == pytest.approx(0.0)

    def test_global_phase_invariant(self, rng):
        layout = RegisterLayout.build(2, n_photons=0)
        st = embedded_state(haar_random_amplitudes(2, rng), layout)
        rotated = StateVector(1j * st.amplitudes, layout)
        assert fidelity(st, rotated) == pytest.approx(1.0)


class TestApplyPauliString:
    def test_matches_dense(self, rng):
        layout = RegisterLayout.build(3, n_photons=0)
        st = embedded_state(haar_random_amplitudes(3, rng), layout)
        p = PauliString.from_str("XYZ")
        out = apply_pauli_string(st, p)
        assert np.allclose(out.amplitudes, p.matrix() @ st.amplitudes, atol=1e-12)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_equals_its_site_gates_bit_for_bit(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(50):
            st = random_state(rng, n)
            axes = [PauliAxis(a) for a in rng.choice(list("IXYZ"), size=n)]
            by_site = st
            for q, a in enumerate(axes):
                if a is not PauliAxis.I:
                    by_site = _apply(by_site, (q,), a.matrix())
            out = apply_pauli_string(st, PauliString(axes))
            assert np.array_equal(out.amplitudes, by_site.amplitudes), axes

    def test_length_must_match(self):
        with pytest.raises(UsageError, match="length"):
            apply_pauli_string(basis_state(2), PauliString.from_str("XYZ"))


class TestConstructorChecks:
    def test_public_constructor_converts_and_checks_shape(self):
        layout = RegisterLayout.build(1, n_photons=0)
        st = StateVector([1, 0], layout)
        assert st.amplitudes.dtype == complex
        with pytest.raises(UsageError):
            StateVector(np.zeros(4), layout)

    def test_updates_build_states_without_the_checks(self, rng, monkeypatch):
        layout = RegisterLayout.build(3, n_photons=0)
        st = embedded_state(haar_random_amplitudes(3, rng), layout)

        def forbidden(self):
            raise AssertionError("an update re-ran the constructor checks")

        monkeypatch.setattr(StateVector, "__post_init__", forbidden)
        out = apply_two_qubit(apply_local(st, 1, H), (2, 0), kron_le(X, Z))
        out = apply_pauli_string(out, PauliString.from_str("XYZ"))
        _, out, _ = measure(out, [1], np.stack([np.diag([1, 0]), np.diag([0, 1])]), rng)
        assert out.amplitudes.dtype == complex and out.amplitudes.shape == (8,)


# Entry perturbations from zero through both sides of each check's tolerance,
# then values no tolerance admits.
PERTURBATIONS = [0.0, *(10.0 ** e for e in np.arange(-12.0, -2.5, 0.5)), np.nan, np.inf, -np.inf]


def perturbed(u, size):
    """``u`` with one entry moved by ``size`` along 1, i or -1, one matrix per direction."""
    for (i, j), unit in zip(((0, 0), (0, 1), (1, 1)), (1.0, 1j, -1.0)):
        v = u.copy()
        v[i, j] += size * unit
        yield v


def rejected(call, message):
    with np.errstate(invalid="ignore", over="ignore"):
        try:
            call()
        except UsageError as exc:
            assert message in str(exc)
            return True
    return False


class TestIdentityChecksMatchAllclose:
    """The unitarity and completeness checks give ``np.allclose``'s verdicts (rtol 1e-5)."""

    @pytest.mark.parametrize("size", PERTURBATIONS)
    def test_unitary_check(self, size, rng):
        state = random_state(rng, 2)
        for u in (AXIS_MATS["Y"], random_unitary(rng, 4)):
            dim = len(u)
            apply = (lambda v: apply_local(state, 0, v)) if dim == 2 else (
                lambda v: apply_two_qubit(state, (0, 1), v))
            for v in perturbed(u, size):
                with np.errstate(invalid="ignore", over="ignore"):
                    close = np.allclose(v.conj().T @ v, np.eye(dim), atol=1e-12 * dim * 10)
                assert rejected(lambda: apply(v), "not unitary") == (not close), (dim, size)

    @pytest.mark.parametrize("size", PERTURBATIONS)
    def test_completeness_check(self, size, rng):
        state = random_state(rng, 2)
        projectors = np.array([np.outer(w, w.conj()) for w in random_unitary(rng, 4).T])
        for k in perturbed(projectors[1], size):
            kraus = projectors.copy()
            kraus[1] = k
            with np.errstate(invalid="ignore", over="ignore"):
                gram = np.einsum("bki,bkj->ij", kraus.conj(), kraus)
                close = np.allclose(gram, np.eye(4), atol=1e-10)
            verdict = rejected(lambda: measure(state, [0, 1], kraus, rng), "not a complete set")
            assert verdict == (not close), size


@pytest.mark.parametrize("dim", [2, 4, 16])
def test_identity_check_keeps_allclose_verdict(dim):
    """``_check_unitary`` rejects exactly the operators whose Gram matrix fails ``np.allclose``."""
    rng = np.random.default_rng(dim)
    atol = 1e-12 * dim * 10
    verdicts = set()
    for scale in (0.0, 0.25 * atol, 0.5 * atol, atol, 1e-5, 2e-5, 1e-3):
        for _ in range(20):
            u = np.eye(dim) + scale * (rng.uniform(-1.2, 1.2, (dim, dim))
                                       + 1j * rng.uniform(-1.2, 1.2, (dim, dim)))
            want = np.allclose(u.conj().T @ u, np.eye(dim), atol=atol)
            assert rejected(lambda: mfsim.statevec._check_unitary(u, dim), "not unitary") is not want
            verdicts.add(want)
    for bad in (np.nan, np.inf, complex(0, np.nan)):
        u = np.eye(dim, dtype=complex)
        u[dim - 1, 0] = bad
        assert rejected(lambda: mfsim.statevec._check_unitary(u, dim), "not unitary")
    assert verdicts == {True, False}


@pytest.mark.parametrize("dim", [2, 4])
def test_unitary_check_boundary(dim):
    """The Gram matrix's tolerance: atol + 1e-5 on the diagonal, atol off it (atol = 1e-11 dim).

    ``u`` = diag(sqrt(1 + d), 1, ...) moves a diagonal Gram entry by d, and the
    identity plus e in one upper entry moves an off-diagonal one by e (and a
    diagonal one by e^2).  A NaN entry fails.
    """
    atol = 1e-12 * dim * 10
    for entry, bound in (("diagonal", atol + 1e-5), ("off-diagonal", atol)):
        for factor, passes in ((0.99, True), (1.01, False)):
            u = np.eye(dim, dtype=complex)
            if entry == "diagonal":
                u[0, 0] = np.sqrt(1.0 + factor * bound)
            else:
                u[0, dim - 1] = factor * bound
            verdict = rejected(lambda: mfsim.statevec._check_unitary(u, dim), "not unitary")
            assert verdict is not passes, (entry, factor)
    u = np.eye(dim, dtype=complex)
    u[1, 1] = np.nan
    assert rejected(lambda: mfsim.statevec._check_unitary(u, dim), "not unitary")
