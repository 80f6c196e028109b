import itertools
import math
from decimal import Decimal

import numpy as np
import pytest

from mfsim.compiler import HamiltonianSpec, Rotation
from mfsim.errors import IncompleteRotationError, UsageError
from mfsim.feedback import (
    EpsilonPolicy,
    PolicyMode,
    Program,
    realize_v,
    realize_v_kl,
    reduce_angle,
)
from mfsim.harness import haar_random_amplitudes
from mfsim.pauli import ErrorFrame, PauliAxis, PauliString, frame_conjugate_direction
from mfsim.statevec import RegisterLayout, StateVector, apply_pauli_string, exact_evolution

from conftest import AXIS_MATS, embedded_state, kron_le, rot_xx

POLICY = EpsilonPolicy()
AXES = [PauliAxis.X, PauliAxis.Y, PauliAxis.Z]


def two_atom_state(rng):
    layout = RegisterLayout.build(2)
    psi = haar_random_amplitudes(2, rng)
    return psi, embedded_state(psi, layout)


def corrected_data(state, frame, n_data=2):
    out = apply_pauli_string(state, frame.byproduct)
    return out.amplitudes[: 1 << n_data]


class TestReduceAngle:
    def test_in_range_unchanged(self):
        assert reduce_angle(0.3) == pytest.approx(0.3)
        assert reduce_angle(-1.2) == pytest.approx(-1.2)

    def test_boundary_maps_to_plus_half_pi(self):
        assert reduce_angle(math.pi / 2) == pytest.approx(math.pi / 2)
        assert reduce_angle(-math.pi / 2) == pytest.approx(math.pi / 2)

    def test_wraps_modulo_pi(self):
        assert reduce_angle(math.pi + 0.2) == pytest.approx(0.2)
        assert reduce_angle(2.0) == pytest.approx(2.0 - math.pi)


class TestEpsilonPolicy:
    def test_residual_exact_inverts_outcome_law(self):
        # aiming pi/4 needs eps = 0.5
        assert POLICY.eps_for(math.pi / 4) == pytest.approx(0.5)

    def test_half_pi_degenerates_to_one(self):
        assert POLICY.eps_for(math.pi / 2) == pytest.approx(1.0)

    def test_paper_doubling_uses_sine(self):
        pol = EpsilonPolicy(PolicyMode.PAPER_DOUBLING)
        assert pol.eps_for(0.2) == pytest.approx(math.sin(0.2))

    @pytest.mark.parametrize("mode", ["residual_exact", "paper_doubling", None, 0])
    def test_mode_must_be_a_member(self, mode):
        # a string would fail ``is PolicyMode.RESIDUAL_EXACT`` and pick the paper's sine rule
        with pytest.raises(UsageError, match=f"policy.mode must be a PolicyMode member, "
                                             f"got {mode!r}"):
            EpsilonPolicy(mode=mode)
        s, c = math.sin(0.3), math.cos(0.3)
        assert EpsilonPolicy(PolicyMode.RESIDUAL_EXACT).eps_for(0.3) == s / (s + c)


class TestRealizeV:
    def test_zero_target_returns_immediately(self, rng):
        psi, st = two_atom_state(rng)
        frame = ErrorFrame.identity(4)
        out, frame2, recs = realize_v(st, (0, 1), 0.0, POLICY, frame, rng)
        assert recs == []
        assert np.allclose(out.amplitudes, st.amplitudes)

    def test_first_round_eps_for_quarter_pi(self, rng):
        psi, st = two_atom_state(rng)
        frame = ErrorFrame.identity(4)
        _, _, recs = realize_v(st, (0, 1), math.pi / 4, POLICY, frame, rng)
        assert recs[0].eps_used == pytest.approx(0.5)

    def test_minus_doubles_the_aim(self, rng):
        # residual arithmetic: after a Minus at aim t the next aim is 2t
        t = 0.2
        for seed in range(40):
            local = np.random.default_rng(seed)
            psi, st = two_atom_state(local)
            frame = ErrorFrame.identity(4)
            _, _, recs = realize_v(st, (0, 1), t, POLICY, frame, local)
            for prev, cur in zip(recs, recs[1:]):
                if prev.outcome == "minus" and 2 * prev.aimed_angle < math.pi / 2:
                    assert cur.aimed_angle == pytest.approx(2 * prev.aimed_angle)
                elif prev.outcome in ("hh", "vv"):
                    assert cur.aimed_angle == pytest.approx(prev.aimed_angle)

    @pytest.mark.parametrize("t", [0.1, -0.45, math.pi / 4, math.pi / 2, 1.4, -1.2])
    def test_frame_corrected_rotation_exact(self, t, rng):
        psi, st = two_atom_state(rng)
        frame = ErrorFrame.identity(4)
        out, frame2, recs = realize_v(st, (0, 1), t, POLICY, frame, rng)
        got = corrected_data(out, frame2)
        want = rot_xx(t) @ psi
        assert abs(np.vdot(want, got)) ** 2 >= 1 - 1e-9

    def test_frame_restricted_to_x_type(self, rng):
        allowed = {"IIII", "XIII", "IXII", "XXII"}
        for seed in range(30):
            local = np.random.default_rng(seed)
            psi, st = two_atom_state(local)
            frame = ErrorFrame.identity(4)
            _, frame2, _ = realize_v(st, (0, 1), 0.9, POLICY, frame, local)
            assert str(frame2) in allowed

    def test_mean_rounds_small_angles(self):
        totals = 0
        n = 300
        for seed in range(n):
            local = np.random.default_rng(seed)
            psi, st = two_atom_state(local)
            frame = ErrorFrame.identity(4)
            t = float(local.uniform(0, math.pi / 4))
            _, _, recs = realize_v(st, (0, 1), t, POLICY, frame, local)
            totals += len(recs)
        assert totals / n <= 4.0

    def test_max_rounds_exhaustion_is_resumable(self, rng):
        psi, st = two_atom_state(rng)
        frame = ErrorFrame.identity(4)
        policy = EpsilonPolicy(max_rounds=1)
        try:
            for _ in range(50):
                st, frame, _ = realize_v(st, (0, 1), 0.31, policy, frame, rng)
                break
        except IncompleteRotationError as exc:
            assert abs(exc.residual) > 0
            # resume with the carried state and residual
            out, frame2, _ = realize_v(
                exc.state, (0, 1), exc.residual, POLICY, exc.frame, rng
            )
            got = corrected_data(out, frame2)
            want = rot_xx(0.31) @ psi
            assert abs(np.vdot(want, got)) ** 2 >= 1 - 1e-9

    def test_embedded_in_larger_register(self, rng):
        # rotation acts on qubits (1, 3) of a 4-data-qubit register
        layout = RegisterLayout.build(4)
        psi = haar_random_amplitudes(4, rng)
        st = embedded_state(psi, layout)
        frame = ErrorFrame.identity(layout.n_qubits)
        t = 0.62
        out, frame2, _ = realize_v(st, (1, 3), t, POLICY, frame, rng)
        got = apply_pauli_string(out, frame2.byproduct).amplitudes[:16]
        h = HamiltonianSpec.from_dict(
            {"n_qubits": 4, "terms": [{"sites": [1, 3], "axes": "XX", "coeff": 1.0}]}
        )
        want = exact_evolution(h, t) @ psi
        assert abs(np.vdot(want, got)) ** 2 >= 1 - 1e-9


class TestPaperDoubling:
    def test_same_aim_sequence_as_residual_exact(self):
        # identical outcome draws -> identical aimed angles while no hh/vv occurs
        t = 0.15
        for seed in range(30):
            r1, r2 = np.random.default_rng(seed), np.random.default_rng(seed)
            psi1, st1 = two_atom_state(np.random.default_rng(99))
            psi2, st2 = two_atom_state(np.random.default_rng(99))
            f = ErrorFrame.identity(4)
            pol_d = EpsilonPolicy(PolicyMode.PAPER_DOUBLING, max_rounds=6)
            pol_e = EpsilonPolicy(PolicyMode.RESIDUAL_EXACT, max_rounds=6)
            try:
                _, _, recs_d = realize_v(st1, (0, 1), t, pol_d, f, r1)
            except IncompleteRotationError as exc:
                recs_d = exc.records
            try:
                _, _, recs_e = realize_v(st2, (0, 1), t, pol_e, f, r2)
            except IncompleteRotationError as exc:
                recs_e = exc.records
            aims_d = [r.aimed_angle for r in recs_d]
            doubling = [t * 2**k for k in range(len(aims_d))]
            # the pattern holds until the doubled aim would wrap past pi/2
            valid = 0
            while valid < len(doubling) and doubling[valid] < math.pi / 2:
                valid += 1
            if all(r.outcome in ("plus", "minus") for r in recs_d):
                assert aims_d[:valid] == pytest.approx(doubling[:valid])


class TestRealizeVkl:
    @pytest.mark.parametrize("max_rounds", [0, -3])
    def test_no_round_allowed_is_rejected_at_construction(self, max_rounds):
        # a policy of no round used to fail every rotation "after 0 rounds"
        with pytest.raises(UsageError, match="policy.max_rounds must be at least 1"):
            EpsilonPolicy(max_rounds=max_rounds)

    def test_xx_reduces_to_realize_v(self, rng):
        psi, st = two_atom_state(rng)
        frame = ErrorFrame.identity(4)
        out, frame2, _ = realize_v_kl(
            st, (0, 1), PauliAxis.X, PauliAxis.X, 0.4, POLICY, frame, rng
        )
        got = corrected_data(out, frame2)
        want = rot_xx(0.4) @ psi
        assert abs(np.vdot(want, got)) ** 2 >= 1 - 1e-9

    @pytest.mark.parametrize(
        "k,l", list(itertools.product([PauliAxis.X, PauliAxis.Y, PauliAxis.Z], repeat=2))
    )
    def test_all_axis_pairs_match_oracle(self, k, l, rng):
        psi, st = two_atom_state(rng)
        frame = ErrorFrame.identity(4)
        t = 0.3
        out, frame2, _ = realize_v_kl(st, (0, 1), k, l, t, POLICY, frame, rng)
        got = corrected_data(out, frame2)
        target = kron_le(AXIS_MATS[k.value], AXIS_MATS[l.value])
        want = (np.cos(t) * np.eye(4) + 1j * np.sin(t) * target) @ psi
        assert abs(np.vdot(want, got)) ** 2 >= 1 - 1e-9

    def test_byproducts_are_axis_aligned(self):
        # inside a ZZ rotation the recorded errors are Z (x) 1 or 1 (x) Z
        allowed = {"IIII", "ZIII", "IZII", "ZZII"}
        for seed in range(40):
            local = np.random.default_rng(seed)
            psi, st = two_atom_state(local)
            frame = ErrorFrame.identity(4)
            _, frame2, _ = realize_v_kl(
                st, (0, 1), PauliAxis.Z, PauliAxis.Z, 1.1, POLICY, frame, local
            )
            assert str(frame2) in allowed

    def test_anticommuting_frame_swaps_time_direction(self, rng):
        # physical register holds P|psi> with P = X(x)1, which anticommutes with ZZ
        psi, st = two_atom_state(rng)
        frame = ErrorFrame(PauliString.from_str("XIII"))
        st = apply_pauli_string(st, frame.byproduct)
        t = 0.3
        out, frame2, _ = realize_v_kl(
            st, (0, 1), PauliAxis.Z, PauliAxis.Z, t, POLICY, frame, rng
        )
        got = corrected_data(out, frame2)
        zz = kron_le(AXIS_MATS["Z"], AXIS_MATS["Z"])
        want = (np.cos(t) * np.eye(4) + 1j * np.sin(t) * zz) @ psi
        assert abs(np.vdot(want, got)) ** 2 >= 1 - 1e-9

    @pytest.mark.parametrize("k,l", list(itertools.product(AXES, repeat=2)))
    def test_round_byproducts_keep_the_frame_sign(self, k, l):
        # the sign is read once per rotation, so no byproduct may change it
        pair = (2, 0)
        target = PauliString.embed(3, {pair[0]: k, pair[1]: l})
        flips = (PauliString.embed(3, {pair[0]: k}), PauliString.embed(3, {pair[1]: l}))
        for axes in itertools.product(AXES + [PauliAxis.I], repeat=3):
            frame = ErrorFrame(PauliString(axes))
            sign = frame_conjugate_direction(frame, target)
            for flip in flips:
                assert frame_conjugate_direction(frame.updated(flip), target) == sign

X, Y, Z, I = PauliAxis.X, PauliAxis.Y, PauliAxis.Z, PauliAxis.I
AXES_TEXT = "axes must be two letters of X, Y, Z, got "
ANGLE_TEXT = "angle must be finite and a JSON number, got "

# id: (register qubits, pair, k, l, angle, frame qubits, error, its text); an id that ends
# in "realize_v" calls realize_v, whose axes are X, X
BAD_ROTATIONS = {
    "identity-axis": (4, (0, 1), I, X, 0.1, 4, UsageError, AXES_TEXT + repr((I, X))),
    "identity-axis-3q": (3, (0, 1), I, Z, 0.3, 3, UsageError, AXES_TEXT + repr((I, Z))),
    "str-axes": (2, (0, 1), "X", "X", 0.3, 2, UsageError, AXES_TEXT + "('X', 'X')"),
    "frame-size": (4, (0, 1), X, Z, 0.1, 5, UsageError, "length mismatch: 5 vs 4"),
    "frame-size-2q": (2, (0, 1), X, X, 0.3, 3, UsageError, "length mismatch: 3 vs 2"),
    "three-sites": (2, (0, 1, 1), X, X, 0.3, 2, UsageError,
                    "sites must be a list of two sites, got (0, 1, 1)"),
    "equal-sites": (3, (1, 1), X, Z, 0.3, 3, UsageError,
                    "sites must be two distinct sites, got (1, 1)"),
    "negative-site": (3, (-1, 2), X, Z, 0.3, 3, UsageError, "sites must be non-negative"),
    "site-past-register": (3, (0, 3), X, Z, 0.3, 3, UsageError,
                           "site 3 outside register of size 3"),
    "first-site-past-register": (3, (5, 1), X, Z, 0.3, 3, UsageError,
                                 "site 5 outside register of size 3"),
    "float-site": (2, (0, 1.0), X, X, 0.3, 2, TypeError,
                   "'float' object cannot be interpreted as an integer"),
    "nan-angle": (4, (0, 1), Z, Y, math.nan, 4, UsageError, ANGLE_TEXT + "nan"),
    "inf-angle": (4, (0, 1), Z, Y, math.inf, 4, UsageError, ANGLE_TEXT + "inf"),
    "-inf-angle": (4, (0, 1), Z, Y, -math.inf, 4, UsageError, ANGLE_TEXT + "-inf"),
    "nan-angle-2q": (2, (0, 1), X, X, math.nan, 2, UsageError, ANGLE_TEXT + "nan"),
    "nan-angle-realize_v": (4, (0, 1), X, X, math.nan, 4, UsageError, ANGLE_TEXT + "nan"),
    "inf-angle-realize_v": (4, (0, 1), X, X, math.inf, 4, UsageError, ANGLE_TEXT + "inf"),
    "-inf-angle-realize_v": (4, (0, 1), X, X, -math.inf, 4, UsageError, ANGLE_TEXT + "-inf"),
    "str-angle": (2, (0, 1), X, X, "0.3", 2, UsageError, ANGLE_TEXT + "'0.3'"),
    "bool-angle": (2, (0, 1), X, X, True, 2, UsageError, ANGLE_TEXT + "True"),
    "numpy-bool-angle": (2, (0, 1), X, X, np.True_, 2, UsageError, ANGLE_TEXT + repr(np.True_)),
    "decimal-angle": (2, (0, 1), X, X, Decimal("0.3"), 2, UsageError,
                      ANGLE_TEXT + "Decimal('0.3')"),
}


@pytest.mark.parametrize("case", BAD_ROTATIONS)
def test_bad_rotation_raises_on_every_call_and_leaves_the_program_empty(case):
    n, pair, k, l, t, frame_size, error, text = BAD_ROTATIONS[case]
    program, state = Program(n, POLICY), StateVector(np.eye(1 << n)[0])
    frame, raised = PauliString.identity(frame_size), []
    for _ in range(2):
        with pytest.raises(error) as exc:
            if case.endswith("realize_v"):
                realize_v(state, pair, t, POLICY, frame, np.random.default_rng(0), program=program)
            else:
                realize_v_kl(state, pair, k, l, t, POLICY, frame, np.random.default_rng(0),
                             program=program)
        raised.append((type(exc.value), str(exc.value)))
    assert raised == [(error, text)] * 2
    assert (program.entries, program.pairs, program.levels, program.waiting, program.rows) == (
        {}, {}, {}, {}, [])


@pytest.mark.parametrize("sites, axes, angle", [
    ((1, 1), (X, Z), 0.3), ((-1, 1), (X, Z), 0.3), ((0, 1), (I, Z), 0.3),
    ((0, 1), (X, "Z"), 0.3), ((0, 1, 2), (X, Z), 0.3), ((0, 1), (X, Z), math.nan),
    ((0, 1), (X, Z), math.inf), ((0, 1), (X, Z), True), ((0, 1), (X, Z), "0.3"),
    ((0, 1), (X, Z), Decimal("0.3")),
], ids=["equal-sites", "negative-site", "identity-axis", "letter-axis", "three-sites",
        "nan-angle", "inf-angle", "bool-angle", "str-angle", "decimal-angle"])
def test_a_bad_rotation_raises_the_text_rotation_raises(sites, axes, angle):
    """The library path and the config path share one rule, and so one text, per bad input."""
    with pytest.raises(UsageError) as want:
        Rotation(sites, axes, angle)
    with pytest.raises(UsageError) as got:
        realize_v_kl(StateVector(np.eye(8)[0]), sites, *axes, angle, POLICY,
                     PauliString.identity(3), np.random.default_rng(0))
    assert str(got.value) == str(want.value)
