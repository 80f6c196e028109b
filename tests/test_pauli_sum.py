"""The once-per-rotation state update as a Pauli sum, and a trajectory's records from its stream.

A rotation's operator sum_j d_j P_j on the eigenprojectors of s_k (x) 1 and
1 (x) s_l is c0 + c1 s_k + c2 s_l + c3 s_k s_l.  ``conftest.four_string_sum``
gathers all four strings; these tests check it against dense Pauli matrices
and against the 4x4 pair operator, and check the rotation's operator, two of
the strings applied as a dense matrix on small registers and as a two-row
gather on large ones, against it.  They also check that ``run_trajectory``,
which reads its uniforms through ``_trajectory_uniforms``, gives the records
a bare generator gives; ``tests/test_seed_block.py`` checks that stream draw
for draw.
"""

import itertools
import math

import numpy as np
import pytest

import mfsim.statevec
from mfsim.errors import IncompleteRotationError, UsageError
from mfsim.feedback import EpsilonPolicy, Program, realize_v_kl
from mfsim.harness import (
    ProtocolConfig,
    haar_random_amplitudes,
    run_trajectory,
    trajectory_rng,
)
from mfsim.pauli import ErrorFrame, PauliAxis, PauliString
from mfsim.statevec import DENSE_PAIR_QUBITS, StateVector, _pair_operator, _pauli_stack

from conftest import XX_STRINGS, four_string_sum, pair_masks, rot_xx, sign_projectors

AXES = (PauliAxis.X, PauliAxis.Y, PauliAxis.Z)


@pytest.mark.parametrize("n", range(1, 6))
def test_pauli_stack_rows_equal_dense_pauli_matrices(n):
    rng = np.random.default_rng(40 + n)
    masks = tuple((int(rng.integers(1 << n)), int(rng.integers(1 << n))) for _ in range(12))
    index, phase = _pauli_stack(n, masks)
    assert index.shape == phase.shape == (len(masks), 1 << n)
    assert not index.flags.writeable and not phase.flags.writeable
    rows = np.arange(1 << n)
    for r, (x, z) in enumerate(masks):
        gathered = np.zeros((1 << n, 1 << n), dtype=complex)
        gathered[rows, index[r]] = phase[r]
        assert np.array_equal(gathered, PauliString.from_masks(n, x, z).matrix())


def pair_cases():
    for n in (2, 3, 4, 5, 10, 12):
        pairs = {(0, n - 1), (n - 1, 0)} | ({(0, 1), (1, 0)} if n < 6 else set())
        for a, b in sorted(pairs):
            for k, l in itertools.product(AXES, AXES):
                yield n, (a, b), k, l


@pytest.mark.parametrize("n, pair, k, l", list(pair_cases()))
def test_pauli_sum_equals_pair_operator_on_eigenprojectors(n, pair, k, l):
    rng = np.random.default_rng(n * 100 + pair[0] * 10 + pair[1])
    state = StateVector(haar_random_amplitudes(n, rng))
    d0, d1, d2, d3 = d = np.exp(2j * np.pi * rng.random(4))
    pair_operator = np.einsum("j,jik->ik", d, sign_projectors((k, l)))
    want = mfsim.statevec._apply(state, pair, pair_operator)
    got = four_string_sum(state, pair_masks(*pair, k, l),
                          ((d0 + d1 + d2 + d3) / 4, (d0 - d1 + d2 - d3) / 4,
                           (d0 + d1 - d2 - d3) / 4, (d0 - d1 - d2 + d3) / 4))
    assert np.max(np.abs(got.amplitudes - want.amplitudes)) <= 1e-13
    assert got.n_qubits == state.n_qubits


@pytest.mark.parametrize("k, l", list(itertools.product(AXES, AXES)))
@pytest.mark.parametrize("n", range(2, 8))  # dense up to DENSE_PAIR_QUBITS, gathered past it
def test_rotation_operator_equals_the_four_string_sum(n, k, l):
    """X^F e^{i Theta XX} on (k, l) against its Pauli coefficients in the XX picture."""
    state = StateVector(haar_random_amplitudes(n, np.random.default_rng(n)))
    for pair in ((0, n - 1), (n - 1, 0)):
        record = Program(n, EpsilonPolicy()).pair_record(*pair, k, l)
        assert isinstance(record[2][0], tuple) == (n > DENSE_PAIR_QUBITS)
        for flips, angle in itertools.product(range(4), (0.0, np.pi / 4, -np.pi / 4, 1e-3, 0.7)):
            product = XX_STRINGS[flips] @ rot_xx(angle)
            coeffs = [np.trace(s @ product) / 4 for s in XX_STRINGS]
            want = four_string_sum(state, pair_masks(*pair, k, l), coeffs)
            apply = _pair_operator(record[2], flips, math.cos(angle), 1j * math.sin(angle))
            got = apply(state.amplitudes)
            assert got.shape == state.amplitudes.shape
            assert np.abs(got - want.amplitudes).max() <= 1e-15


@pytest.mark.parametrize("pair, site", [((0, 3), 3), ((5, 1), 5), ((-1, 2), -1)])
def test_rotation_on_a_site_outside_the_register_raises(pair, site):
    state = StateVector(haar_random_amplitudes(3, np.random.default_rng(0)))
    with pytest.raises(UsageError, match=f"site {site} outside register of size 3"):
        realize_v_kl(state, pair, PauliAxis.X, PauliAxis.Z, 0.3, EpsilonPolicy(),
                     ErrorFrame.identity(3), np.random.default_rng(0))


@pytest.mark.parametrize("pair, k, message", [
    ((0, 3), PauliAxis.X, "site 3 outside register of size 3"),
    ((1, 1), PauliAxis.X, "rotation needs two distinct qubits"),
    ((0, 1), PauliAxis.I, "rotation axes must be X, Y, or Z"),
])
def test_bad_rotation_raises_on_every_call_and_is_not_cached(pair, k, message):
    state = StateVector(haar_random_amplitudes(3, np.random.default_rng(0)))
    program, raised = Program(3, EpsilonPolicy()), []
    for _ in range(2):
        with pytest.raises(UsageError) as exc:
            realize_v_kl(state, pair, k, PauliAxis.Z, 0.3, EpsilonPolicy(),
                         ErrorFrame.identity(3), np.random.default_rng(0), program=program)
        raised.append((type(exc.value), str(exc.value)))
    assert raised == [(UsageError, message)] * 2
    assert program.pairs == {} and program.entries == {}


def test_float_site_fails_after_its_integer_pair_is_cached():
    state = StateVector(haar_random_amplitudes(3, np.random.default_rng(0)))
    program = Program(3, EpsilonPolicy())

    def rotate(pair):
        return realize_v_kl(state, pair, PauliAxis.X, PauliAxis.Z, 0.3, EpsilonPolicy(),
                            ErrorFrame.identity(3), np.random.default_rng(0), program=program)

    rotate((0, 1))
    for _ in range(2):
        with pytest.raises(TypeError):
            rotate((0, 1.0))


def reference_trajectory(cfg, index):
    """``run_trajectory``'s rotation loop driven by the bare generator: (records, final frame)."""
    rng = trajectory_rng(cfg.master_seed, index)
    n = cfg.hamiltonian.n_qubits
    state = StateVector(cfg.initial_amplitudes)
    frame, records = ErrorFrame.identity(n), []
    for _ in range(cfg.plan.n_steps):
        for rot in cfg.plan.sweep_rotations():
            try:
                state, frame, recs = realize_v_kl(state, rot.sites, *rot.axes, rot.angle,
                                                  cfg.policy, frame, rng, cfg.loss)
            except IncompleteRotationError as exc:  # the trajectory stops here
                return records + list(exc.records), str(exc.frame)
            records.extend(recs)
    return records, str(frame)


CONFIGS = {
    "lossless": {
        "hamiltonian": {"n_qubits": 3, "terms": [{"sites": [0, 1], "axes": "XX", "coeff": 1.0},
                                                 {"sites": [2, 1], "axes": "ZY", "coeff": 0.7}]},
        "t": 0.5, "n_steps": 32, "master_seed": 11, "initial_state": {"random_seed": 4},
    },
    "backup": {
        "hamiltonian": {"n_qubits": 2, "terms": [{"sites": [0, 1], "axes": "XX", "coeff": 1.0}]},
        "t": 0.8, "n_steps": 6, "master_seed": 12,
        "loss": {"p_loss": 0.6, "backup_enabled": True}, "policy": {"max_rounds": 40000},
    },
}


@pytest.mark.parametrize("name", CONFIGS)
def test_trajectory_records_equal_a_bare_generator_loop(name):
    cfg = ProtocolConfig.from_dict(CONFIGS[name])
    for index in range(4):
        stats = run_trajectory(cfg, index)
        records, frame = reference_trajectory(cfg, index)
        assert stats.rounds_total > 64  # the stream crossed at least one block boundary
        assert (stats.records, stats.final_frame) == (records, frame)
