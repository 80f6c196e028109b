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
    frame_of_key,
)

from conftest import AXIS_MATS, X, conjugation_unitary

AXES = list(PauliAxis)
pauli_strings = lambda n: st.lists(st.sampled_from(AXES), min_size=n, max_size=n).map(
    lambda axes: PauliString(tuple(axes))
)


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

    def test_length_mismatch(self):
        with pytest.raises(UsageError, match=r"length mismatch: 1 vs 2"):
            commutes(PauliString.from_str("X"), PauliString.from_str("XX"))


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
        s = frame_conjugate_direction(ErrorFrame(PauliString(p.axes)), target)
        t_mat = target.matrix()
        rot = np.cos(theta) * np.eye(4) + 1j * np.sin(theta) * t_mat
        rot_s = np.cos(s * theta) * np.eye(4) + 1j * np.sin(s * theta) * t_mat
        pm = PauliString(p.axes).matrix()
        assert np.allclose(pm @ rot, rot_s @ pm, atol=1e-12)


class TestTextFormat:
    def test_round_trip(self):
        assert str(PauliString.from_str("XIZ")) == "XIZ"

    def test_invalid_character(self):
        with pytest.raises(UsageError):
            PauliString.from_str("XQZ")

    @pytest.mark.parametrize("site", [-1, 2])
    def test_embed_site_outside_register(self, site):
        with pytest.raises(UsageError, match=f"site {site} outside register of size 2"):
            PauliString.embed(2, {0: PauliAxis.Z, site: PauliAxis.X})


# Masks against dense matrices on up to 6 qubits: commutation, text and frame updates.
sized_pairs = st.integers(1, 6).flatmap(
    lambda n: st.tuples(st.lists(st.sampled_from(AXES), min_size=n, max_size=n),
                        st.lists(st.sampled_from(AXES), min_size=n, max_size=n)))


def dense(axes):
    m = np.array([[1]], dtype=complex)
    for a in axes:
        m = np.kron(AXIS_MATS[a.value], m)
    return m


class TestMasksAgainstDense:
    @given(sized_pairs)
    def test_commutes(self, case):
        axes_p, axes_q = case
        p, q = dense(axes_p), dense(axes_q)
        assert commutes(PauliString(axes_p), PauliString(axes_q)) == bool(
            np.array_equal(p @ q, q @ p))

    @given(sized_pairs)
    def test_text_and_axes(self, case):
        axes_p, _ = case
        p = PauliString(axes_p)
        assert str(p) == "".join(a.value for a in axes_p)
        assert p.axes == tuple(axes_p) and len(p) == len(axes_p)
        assert np.array_equal(p.matrix(), dense(axes_p))
        assert PauliString.from_masks(len(p), p.x, p.z) == p

    @given(sized_pairs)
    def test_frame_update_drops_the_phase(self, case):
        axes_p, axes_q = case
        frame = ErrorFrame(PauliString(axes_q)).updated(PauliString(axes_p))
        prod = dense(axes_p) @ dense(axes_q)
        # equal up to a global phase: |tr(F^dag P)| is the full dimension
        assert abs(np.vdot(frame.byproduct.matrix(), prod)) == pytest.approx(len(prod))


def test_frame_from_masks_is_one_shared_frame_per_masks():
    for n, x, z in [(1, 0, 0), (3, 0b101, 0b011), (12, 4095, 2048)]:
        frame = ErrorFrame.from_masks(n, x, z)
        assert frame == ErrorFrame(PauliString.from_masks(n, x, z))
        assert frame is ErrorFrame.from_masks(n, x, z)
    assert ErrorFrame.identity(3) is ErrorFrame.from_masks(3, 0, 0)
    assert str(ErrorFrame.identity(2).updated(PauliString.from_str("YX"))) == "YX"


def test_a_frame_is_its_pauli_string_and_one_object_per_key():
    assert ErrorFrame is PauliString
    key = 1 << 6 | 0b011 << 3 | 0b101
    frame_of_key.cache_clear()  # a string another test rendered would hold its text
    frame = frame_of_key(key)
    assert isinstance(frame, PauliString) and frame.byproduct is frame
    assert vars(frame) == {"n": 3, "x": 0b101, "z": 0b011, "key": key}  # no text until read
    assert frame is frame_of_key(key) is PauliString.from_masks(3, 0b101, 0b011)
    built = ErrorFrame(PauliString.from_str("YZX"))
    assert str(frame) == "YZX" and built == frame and built.key == key
    assert vars(frame)["text"] == "YZX"  # rendered once, then kept by the string


def test_a_frame_and_the_string_of_the_same_masks_are_one_object():
    for n, x, z in [(1, 1, 0), (2, 0, 0), (4, 0b1010, 0b0110)]:
        string, frame = PauliString.from_masks(n, x, z), ErrorFrame.from_masks(n, x, z)
        assert frame is string and frame == string and hash(frame) == hash(string)
        built = PauliString.embed(n, {q: PauliAxis(c) for q, c in enumerate(str(string))})
        assert built is string
        assert PauliString.identity(n) is ErrorFrame.identity(n)
        assert frame.updated(string) is PauliString.identity(n)
    assert vars(PauliString)["from_masks"] is vars(ErrorFrame)["from_masks"]


def old_mask_text(n, x, z):
    """The text the module's former ``mask_text`` cache formatted from masks (x, z)."""
    return "".join("IXZY"[(x >> q & 1) | (z >> q & 1) << 1] for q in range(n))


def test_the_cached_text_is_the_former_mask_text_on_up_to_four_qubits():
    for n in range(1, 5):
        for x, z in itertools.product(range(1 << n), repeat=2):
            p = PauliString.from_masks(n, x, z)
            assert str(p) == p.text == old_mask_text(n, x, z)
            assert p.text is p.text  # computed once
            assert PauliString.from_str(p.text) == p


@pytest.mark.parametrize("x, z", [(4, 0), (0, 5), (-1, 0)])
def test_frame_from_masks_outside_the_register_raises(x, z):
    with pytest.raises(UsageError, match=f"masks \\({x}, {z}\\) outside register of size 2"):
        ErrorFrame.from_masks(2, x, z)


@pytest.mark.parametrize("x, z", [(4, 0), (0, 5), (-1, 0)])
def test_string_from_masks_outside_the_register_raises(x, z):
    # (4, 0) would otherwise read "II" on 2 qubits and not be the identity
    with pytest.raises(UsageError, match=f"masks \\({x}, {z}\\) outside register of size 2"):
        PauliString.from_masks(2, x, z)


def test_frame_update_length_mismatch():
    with pytest.raises(UsageError, match=r"length mismatch: 1 vs 2"):
        ErrorFrame.identity(2).updated(PauliString.from_str("X"))
