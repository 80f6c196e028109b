import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mfsim.errors import UsageError
from mfsim.pauli import (
    ErrorFrame,
    PauliAxis,
    PauliString,
    commutes,
    frame_conjugate_direction,
    multiply,
)

from conftest import AXIS_MATS, X, Y, Z, conjugation_unitary

AXES = list(PauliAxis)
pauli_strings = lambda n: st.lists(st.sampled_from(AXES), min_size=n, max_size=n).map(
    lambda axes: PauliString(tuple(axes))
)


class TestMultiply:
    def test_identity_is_neutral(self):
        p = PauliString.from_str("XYZ", phase_power=2)
        assert multiply(PauliString.identity(3), p) == p
        assert multiply(p, PauliString.identity(3)) == p

    def test_xy_gives_i_z(self):
        # 2x2 matrix oracle: X @ Y == i Z
        assert np.allclose(X @ Y, 1j * Z)
        prod = multiply(PauliString.from_str("X"), PauliString.from_str("Y"))
        assert prod == PauliString.from_str("Z", phase_power=1)

    def test_xz_gives_minus_i_y(self):
        assert np.allclose(X @ Z, -1j * Y)
        prod = multiply(PauliString.from_str("X"), PauliString.from_str("Z"))
        assert prod == PauliString.from_str("Y", phase_power=3)

    def test_xx_squares_to_identity(self):
        p = PauliString.from_str("XX")
        assert multiply(p, p) == PauliString.identity(2)

    def test_length_mismatch(self):
        with pytest.raises(UsageError):
            multiply(PauliString.from_str("X"), PauliString.from_str("XX"))

    @given(pauli_strings(3), pauli_strings(3))
    def test_matches_dense_product(self, p, q):
        assert np.allclose(multiply(p, q).matrix(), p.matrix() @ q.matrix())

    @given(pauli_strings(2), pauli_strings(2), pauli_strings(2))
    def test_associative(self, p, q, r):
        assert multiply(multiply(p, q), r) == multiply(p, multiply(q, r))

    @given(pauli_strings(3))
    def test_square_is_identity_up_to_sign(self, p):
        sq = multiply(p, p)
        assert sq.x == sq.z == 0
        assert sq.phase_power in (0, 2)


class TestCommutes:
    def test_single_anticommuting_site(self):
        assert not commutes(PauliString.from_str("XI"), PauliString.from_str("ZI"))

    def test_two_anticommuting_sites(self):
        assert commutes(PauliString.from_str("XX"), PauliString.from_str("ZZ"))

    def test_identity_commutes_with_all(self):
        for text in ("XYZ", "IZY", "XXX"):
            assert commutes(PauliString.identity(3), PauliString.from_str(text))

    def test_exhaustive_against_dense_commutator(self):
        # all pairs on 2 qubits
        for axes_p in itertools.product(PauliAxis, repeat=2):
            for axes_q in itertools.product(PauliAxis, repeat=2):
                p = PauliString(axes_p)
                q = PauliString(axes_q)
                comm = p.matrix() @ q.matrix() - q.matrix() @ p.matrix()
                assert commutes(p, q) == np.allclose(comm, 0)

    @given(pauli_strings(3), pauli_strings(3))
    def test_agrees_with_dense_on_3_qubits(self, p, q):
        comm = p.matrix() @ q.matrix() - q.matrix() @ p.matrix()
        assert commutes(p, q) == bool(np.allclose(comm, 0))


class TestConjugationUnitary:
    def test_x_is_identity(self):
        assert np.allclose(conjugation_unitary(PauliAxis.X), np.eye(2))

    @pytest.mark.parametrize("axis", [PauliAxis.X, PauliAxis.Y, PauliAxis.Z])
    def test_conjugates_x_to_axis(self, axis):
        u = conjugation_unitary(axis)
        assert np.allclose(u @ u.conj().T, np.eye(2), atol=1e-12)
        got = u @ X @ u.conj().T
        assert np.max(np.abs(got - AXIS_MATS[axis.value])) <= 1e-12

    def test_identity_axis_rejected(self):
        with pytest.raises(KeyError):
            conjugation_unitary(PauliAxis.I)


class TestFrameDirection:
    def test_identity_frame(self):
        frame = ErrorFrame.identity(2)
        assert frame_conjugate_direction(frame, PauliString.from_str("ZZ")) == 1

    def test_anticommuting_frame(self):
        frame = ErrorFrame(PauliString.from_str("XI"))
        assert frame_conjugate_direction(frame, PauliString.from_str("ZZ")) == -1

    def test_self_commuting(self):
        frame = ErrorFrame(PauliString.from_str("XX"))
        assert frame_conjugate_direction(frame, PauliString.from_str("XX")) == 1

    @given(pauli_strings(2), st.floats(0.05, 1.5))
    def test_matches_dense_conjugation_sign(self, p, theta):
        # sign s in  P . e^{i theta T} = e^{i s theta T} . P  for T = XX
        target = PauliString.from_str("XX")
        s = frame_conjugate_direction(ErrorFrame(PauliString(p.axes, 0)), target)
        t_mat = target.matrix()
        rot = np.cos(theta) * np.eye(4) + 1j * np.sin(theta) * t_mat
        rot_s = np.cos(s * theta) * np.eye(4) + 1j * np.sin(s * theta) * t_mat
        pm = PauliString(p.axes, 0).matrix()
        assert np.allclose(pm @ rot, rot_s @ pm, atol=1e-12)


class TestTextFormat:
    def test_round_trip(self):
        assert str(PauliString.from_str("XIZ")) == "XIZ"

    def test_invalid_character(self):
        with pytest.raises(UsageError):
            PauliString.from_str("XQZ")


# Masks against dense matrices on up to 6 qubits: products, commutation and text.
sized_pairs = st.integers(1, 6).flatmap(
    lambda n: st.tuples(st.lists(st.sampled_from(AXES), min_size=n, max_size=n),
                        st.lists(st.sampled_from(AXES), min_size=n, max_size=n),
                        st.integers(0, 3), st.integers(0, 3)))


def dense(axes, phase_power):
    m = np.array([[1]], dtype=complex)
    for a in axes:
        m = np.kron(AXIS_MATS[a.value], m)
    return 1j ** phase_power * m


class TestMasksAgainstDense:
    @given(sized_pairs)
    def test_multiply(self, case):
        axes_p, axes_q, ph_p, ph_q = case
        prod = multiply(PauliString(axes_p, ph_p), PauliString(axes_q, ph_q))
        assert np.array_equal(prod.matrix(), dense(axes_p, ph_p) @ dense(axes_q, ph_q))

    @given(sized_pairs)
    def test_commutes(self, case):
        axes_p, axes_q, ph_p, ph_q = case
        p, q = dense(axes_p, ph_p), dense(axes_q, ph_q)
        assert commutes(PauliString(axes_p, ph_p), PauliString(axes_q, ph_q)) == bool(
            np.array_equal(p @ q, q @ p))

    @given(sized_pairs)
    def test_text_and_axes(self, case):
        axes_p, _, ph_p, _ = case
        p = PauliString(axes_p, ph_p)
        assert str(p) == "".join(a.value for a in axes_p)
        assert p.axes == tuple(axes_p) and len(p) == len(axes_p)
        assert np.array_equal(p.matrix(), dense(axes_p, ph_p))
        assert PauliString.from_masks(len(p), p.x, p.z, ph_p) == p

    @given(sized_pairs)
    def test_frame_update_drops_the_phase(self, case):
        axes_p, axes_q, ph_p, ph_q = case
        frame = ErrorFrame(PauliString(axes_q, ph_q)).updated(PauliString(axes_p, ph_p))
        prod = dense(axes_p, ph_p) @ dense(axes_q, ph_q)
        assert frame.byproduct.phase_power == 0
        # equal up to a global phase: |tr(F^dag P)| is the full dimension
        assert abs(np.vdot(frame.byproduct.matrix(), prod)) == pytest.approx(len(prod))


def test_frame_from_masks_is_one_shared_frame_per_masks():
    for n, x, z in [(1, 0, 0), (3, 0b101, 0b011), (12, 4095, 2048)]:
        frame = ErrorFrame.from_masks(n, x, z)
        assert frame == ErrorFrame(PauliString.from_masks(n, x, z))
        assert frame is ErrorFrame.from_masks(n, x, z)
        assert frame.byproduct.phase_power == 0
    assert ErrorFrame.identity(3) is ErrorFrame.from_masks(3, 0, 0)
    assert str(ErrorFrame.identity(2).updated(PauliString.from_str("YX"))) == "YX"
