import itertools
import math

import numpy as np
import pytest

from mfsim.compiler import HamiltonianSpec
from mfsim.errors import IncompleteRotationError, UsageError
from mfsim.feedback import (
    EpsilonPolicy,
    PolicyMode,
    _level,
    realize_v,
    realize_v_kl,
    reduce_angle,
)
from mfsim.harness import haar_random_amplitudes
from mfsim.pauli import ErrorFrame, PauliAxis, PauliString, frame_conjugate_direction
from mfsim.statevec import RegisterLayout, apply_pauli_string, exact_evolution

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
    def test_no_round_allowed_leaves_state_and_frame(self, rng):
        _, st = two_atom_state(rng)
        frame = ErrorFrame.identity(4)
        with pytest.raises(IncompleteRotationError) as info:
            realize_v_kl(st, (0, 1), PauliAxis.Y, PauliAxis.Z, 0.4,
                         EpsilonPolicy(max_rounds=0), frame, rng)
        assert info.value.records == [] and info.value.residual == 0.4
        assert np.array_equal(info.value.state.amplitudes, st.amplitudes)
        assert info.value.frame is frame

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

    def test_rejects_identity_axis(self, rng):
        psi, st = two_atom_state(rng)
        with pytest.raises(UsageError):
            realize_v_kl(
                st, (0, 1), PauliAxis.I, PauliAxis.X, 0.1, POLICY,
                ErrorFrame.identity(4), rng,
            )

    def test_rejects_frame_of_another_length(self, rng):
        _, st = two_atom_state(rng)
        n = st.n_qubits
        with pytest.raises(UsageError, match=f"length mismatch: {n + 1} vs {n}"):
            realize_v_kl(
                st, (0, 1), PauliAxis.X, PauliAxis.Z, 0.1, POLICY,
                ErrorFrame.identity(n + 1), rng,
            )


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("kl", [False, True], ids=["realize_v", "realize_v_kl"])
def test_non_finite_angle_raises_on_every_call_and_is_not_cached(t, kl):
    rng = np.random.default_rng(3)
    _, st = two_atom_state(rng)
    frame = ErrorFrame.identity(4)
    size = _level.cache_info().currsize
    for _ in range(2):
        with pytest.raises(UsageError, match=f"rotation angle must be finite, got {t}"):
            if kl:
                realize_v_kl(st, (0, 1), PauliAxis.Z, PauliAxis.Y, t, POLICY, frame, rng)
            else:
                realize_v(st, (0, 1), t, POLICY, frame, rng)
    assert _level.cache_info().currsize == size
