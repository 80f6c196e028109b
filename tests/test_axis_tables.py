"""Rotations on any axis pair against the dressing construction they replace.

A rotation e^{it s_k x s_l} can be built from the XX rotation: dress the pair
with u_k^dag (x) u_l^dag, run ``realize_v`` on the XX table, undress with
u_k (x) u_l.  ``realize_v_kl`` draws from the same XX table and applies its
eigenphases on the eigenprojectors of s_k and s_l, and its byproducts as s_k
and s_l, so with the same seed both give the same rounds, the same state and
the same frame once X is read as s_k and s_l.
"""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from mfsim.errors import IncompleteRotationError
from mfsim.feedback import EpsilonPolicy, realize_v, realize_v_kl
from mfsim.harness import haar_random_amplitudes
from mfsim.loss import LossConfig
from mfsim.pauli import ErrorFrame, PauliAxis, PauliString
from mfsim.statevec import StateVector, apply_local, apply_pauli_string

from conftest import AXIS_MATS, I2, conjugation_unitary, kron_le

AXES = (PauliAxis.X, PauliAxis.Y, PauliAxis.Z)
LOSSES = {"lossless": None, "backup-loss60": LossConfig(p_loss=0.6, backup_enabled=True)}
PAIR = (0, 2)
POLICY = EpsilonPolicy(max_rounds=4000)


def conjugated_axis(axis: str, u: np.ndarray) -> str:
    """The Pauli axis proportional to u s_axis u^dag (u is Clifford)."""
    m = u @ AXIS_MATS[axis] @ u.conj().T
    return next(a for a in "IXYZ" if abs(np.trace(AXIS_MATS[a].conj().T @ m)) > 1.5)


def map_frame(text: str, us) -> str:
    """Frame string with each pair site conjugated by its unitary."""
    chars = list(text)
    for q, u in zip(PAIR, us):
        chars[q] = conjugated_axis(chars[q], u)
    return "".join(chars)


def dressed_xx(state, k, l, t, frame, rng, loss):
    """The rotation on (k, l) built from ``realize_v`` in the XX picture."""
    us = (conjugation_unitary(k), conjugation_unitary(l))
    inward = [u.conj().T for u in us]
    for q, u in zip(PAIR, inward):
        state = apply_local(state, q, u)
    inner = ErrorFrame(PauliString.from_str(map_frame(str(frame), inward)))
    state, inner, recs = realize_v(state, PAIR, t, POLICY, inner, rng, loss)
    for q, u in zip(PAIR, us):
        state = apply_local(state, q, u)
    recs = [dataclasses.replace(r, frame_after=map_frame(r.frame_after, us)) for r in recs]
    return state, ErrorFrame(PauliString.from_str(map_frame(str(inner), us))), recs


def start(seed):
    rng = np.random.default_rng(seed)
    psi = haar_random_amplitudes(3, rng)
    return StateVector(psi)


@pytest.mark.parametrize("loss", LOSSES)
@pytest.mark.parametrize("k,l", list(itertools.product(AXES, repeat=2)), ids=lambda a: a.value)
def test_table_matches_dressed_xx(k, l, loss):
    # "ZXY" anticommutes with some of the nine targets, so the sign swap runs too.
    for seed, frame_text in ((1, "III"), (2, "ZXY")):
        st, frame = start(seed), ErrorFrame(PauliString.from_str(frame_text))
        new = realize_v_kl(st, PAIR, k, l, 1.1, POLICY, frame, np.random.default_rng(seed),
                           LOSSES[loss])
        old = dressed_xx(st, k, l, 1.1, frame, np.random.default_rng(seed), LOSSES[loss])
        assert [r.to_dict() for r in new[2]] == [r.to_dict() for r in old[2]]
        assert len(new[2]) > 0
        assert np.max(np.abs(new[0].amplitudes - old[0].amplitudes)) <= 1e-12
        assert str(new[1]) == str(old[1])


def test_exhausted_yz_rotation_resumes_to_the_exact_rotation():
    loss = LOSSES["backup-loss60"]
    st0 = start(5)
    rng = np.random.default_rng(5)
    policy = EpsilonPolicy(max_rounds=2)
    t0 = 0.7
    state, frame, t = st0, ErrorFrame.identity(3), t0
    exhausted = 0
    for _ in range(500):
        try:
            state, frame, _ = realize_v_kl(
                state, PAIR, PauliAxis.Y, PauliAxis.Z, t, policy, frame, rng, loss
            )
            break
        except IncompleteRotationError as exc:
            exhausted += 1
            state, frame, t = exc.state, exc.frame, exc.residual
    else:
        pytest.fail("rotation never completed")
    assert exhausted > 0
    yz = kron_le(AXIS_MATS["Y"], I2, AXIS_MATS["Z"])
    want = (math.cos(t0) * np.eye(8) + 1j * math.sin(t0) * yz) @ st0.amplitudes
    got = apply_pauli_string(state, frame.byproduct).amplitudes
    assert abs(np.vdot(want, got)) ** 2 >= 1 - 1e-12
