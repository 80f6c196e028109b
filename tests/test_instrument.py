"""Round tables against the photon-level model they are compiled from.

Every round kind is checked on an eps grid: the Kraus operators, carried
from the XX table to all nine rotation axis pairs, are complete, each is a
weighted unitary, each lossless and backup branch is the operation its
record names on those axes, and each post-state the photon-level model
produces is the renormalized K psi of a branch with the same visible
record.  A chi-square test compares the photon-level record frequencies
with ||K psi||^2, and the controller's classical draw is compared with a
draw on the state every round, up to the power of i the controller drops.
"""

import bisect
import functools
import itertools
import math
from collections import Counter, namedtuple

import numpy as np
import pytest

import mfsim.emission
import mfsim.feedback
import mfsim.harness
import mfsim.loss
import mfsim.pauli
import mfsim.statevec
from mfsim.emission import PhotonEncoding, joint_emission
from mfsim.errors import IncompleteRotationError, UsageError
from mfsim.feedback import EpsilonPolicy, PolicyMode, RoundRecord, realize_v_kl, reduce_angle
from mfsim.harness import ProtocolConfig, haar_random_amplitudes, run_trajectory
from mfsim.loss import LossConfig, photon_round, round_branches
from mfsim.pauli import ErrorFrame, PauliAxis, PauliString, frame_conjugate_direction
from mfsim.statevec import RegisterLayout, StateVector, measure

from conftest import (
    AXIS_MATS, H, I2, X, assert_equal_up_to_power_of_i, clear_module_caches, conjugation_unitary,
    embedded_state, form_phases, kron_le, sign_projectors)

KINDS = {
    "lossless": LossConfig(),
    "heralded": LossConfig(p_loss=0.3),
    "occupation": LossConfig(p_loss=0.3, encoding=PhotonEncoding.OCCUPATION),
    "backup": LossConfig(backup_enabled=True),
    "backup-loss60": LossConfig(p_loss=0.6, backup_enabled=True),
    "backup-loss90": LossConfig(p_loss=0.9, backup_enabled=True),
}
EPS_GRID = [round(0.05 * i, 2) for i in range(1, 20)]  # 0.05, 0.10, ..., 0.95
AXIS_PAIRS = list(itertools.product((PauliAxis.X, PauliAxis.Y, PauliAxis.Z), repeat=2))

# The paper's direct-round rule: (rotation direction, X flips on the pair).
DIRECT_EFFECT = {
    "minus": (-1, (False, False)),
    "plus": (1, (False, False)),
    "hh": (None, (True, False)),
    "vv": (None, (False, True)),
}


AxisTable = namedtuple("AxisTable", "kraus branches unitaries cumulative projectors phases")


@functools.cache  # the per-round reference loop looks a table up every round
def axis_table(eps, loss, axes):
    """The XX round table carried to the axis pair ``axes`` = (k, l) by u = u_k (x) u_l.

    u e^{it XX} u^dag = e^{it s_k x s_l} and u X u^dag = s_k, so the weights,
    records and eigenphases are the XX table's, and ``projectors`` are the
    eigenprojectors of s_k (x) 1 and 1 (x) s_l.  The eigenphases are those of
    each branch's form i^g X^f e^{i theta XX}.
    """
    table = round_branches(eps, loss)
    u = kron_le(*(conjugation_unitary(a) for a in axes))
    projectors = sign_projectors(axes)
    phases = form_phases(table.forms)
    unitaries = np.einsum("bj,jik->bik", phases, projectors)  # sum_j phases[i, j] P_j
    return AxisTable(u @ table.kraus @ u.conj().T, table.branches, unitaries, table.cumulative,
                     projectors, phases)


def record(branch):
    return (branch.label, branch.direction, branch.flips, branch.b_bits, branch.lost)


def check_record_rules(branch, loss):
    """The paper's record rules, written out here, not read from the round model."""
    if loss.backup_enabled and branch.label == "loss":
        # the backups' computational bits name the branch: X on the first atom
        # if b1 = 1, X on the second if b2 = 0
        b1, b2 = branch.b_bits
        assert (branch.direction, branch.flips) == (None, (b1 == 1, b2 == 0)), record(branch)
    elif branch.label == "loss":  # heralded: the round is discarded
        assert (branch.direction, branch.flips) == (None, (False, False)), record(branch)
    else:
        direction, flips = DIRECT_EFFECT[branch.label]
        if loss.backup_enabled and direction is not None and sum(branch.b_bits) % 2:
            direction = -direction  # an odd number of minus sign bits reverses the rotation
        assert (branch.direction, branch.flips) == (direction, flips), record(branch)


def photon_level_round(psi, eps, loss, rng):
    """``photon_round`` on the pair state ``psi``, its record checked against the paper's rules.

    Returns the record the controller sees and the pair's state afterwards;
    photon and backup modes end every round emptied.
    """
    layout = RegisterLayout.build(2, with_backup=loss.backup_enabled)
    modes = tuple(range(2, layout.n_qubits))  # the backups, if any, then the photons
    st, branch = photon_round(embedded_state(psi, layout), (0, 1), modes, eps, loss, rng)
    check_record_rules(branch, loss)
    return record(branch), st.amplitudes


def named_operation(branch, eps, axes):
    """e^{+-i theta s_k x s_l}, s_k (x) 1 or 1 (x) s_l, as ``branch`` names it on ``axes``."""
    sk, sl = (AXIS_MATS[a.value] for a in axes)
    if branch.direction is not None:
        theta = branch.direction * math.atan2(eps, 1.0 - eps)
        return math.cos(theta) * np.eye(4) + 1j * math.sin(theta) * kron_le(sk, sl)
    return kron_le(*(s if f else np.eye(2) for s, f in zip((sk, sl), branch.flips)))


def chi2_sf(x, dof):
    """Upper tail of the chi-square law (Wilson-Hilferty normal approximation)."""
    h = 2.0 / (9.0 * dof)
    z = ((x / dof) ** (1.0 / 3.0) - (1.0 - h)) / math.sqrt(h)
    return 0.5 * math.erfc(z / math.sqrt(2.0))


@pytest.mark.parametrize("kind", KINDS)
def test_branches_are_complete(kind):
    for eps, axes in itertools.product(EPS_GRID, AXIS_PAIRS):
        table = axis_table(eps, KINDS[kind], axes)
        assert table.kraus.shape == (len(table.branches), 4, 4)
        total = sum(k.conj().T @ k for k in table.kraus)
        assert np.max(np.abs(total - np.eye(4))) <= 1e-12, (eps, axes)


@pytest.mark.parametrize("kind", KINDS)
def test_every_branch_is_a_weighted_unitary(kind):
    rng = np.random.default_rng(5)
    for eps, axes in itertools.product([0.0, 1.0, *EPS_GRID], AXIS_PAIRS):
        table = axis_table(eps, KINDS[kind], axes)
        assert table.cumulative[-1] == 1.0
        weights = np.diff(table.cumulative, prepend=0.0)
        psi = haar_random_amplitudes(2, rng)
        for k, u, w in zip(table.kraus, table.unitaries, weights):
            assert np.max(np.abs(k.conj().T @ k - w * np.eye(4))) <= 1e-12, (eps, axes)
            assert np.linalg.norm(k @ psi) ** 2 == pytest.approx(w, abs=1e-12)
            assert np.max(np.abs(np.sqrt(w) * u - k)) <= 1e-12, (eps, axes)


@pytest.mark.parametrize("kind", KINDS)
def test_branch_unitaries_are_diagonal_in_the_table_basis(kind):
    # In the XX picture every branch lies in span{II, XI, IX, XX}, diagonal in
    # the sign basis; conjugation for the axis pair carries that basis along,
    # so the XX table's phases hold on the eigenprojectors of s_k and s_l.
    for eps, axes in itertools.product([0.0, 1.0, *EPS_GRID], AXIS_PAIRS):
        table = axis_table(eps, KINDS[kind], axes)
        w = kron_le(*(conjugation_unitary(a) for a in axes)) @ kron_le(H, H)
        assert np.max(np.abs(table.projectors - np.einsum("ij,kj->jik", w, w.conj()))) <= 1e-12
        assert np.array_equal(table.projectors.sum(axis=0), np.eye(4))
        diagonal = w.conj().T @ table.unitaries @ w
        assert np.max(np.abs(diagonal * (1 - np.eye(4)))) <= 1e-12, (eps, axes)
        assert table.phases.shape == (len(table.branches), 4)
        assert np.max(np.abs(np.abs(table.phases) - 1.0)) <= 1e-12, (eps, axes)
        rebuilt = (w * table.phases[:, None, :]) @ w.conj().T
        assert np.max(np.abs(rebuilt - table.unitaries)) <= 1e-12, (eps, axes)


@pytest.mark.parametrize("kind", ["lossless", "backup", "backup-loss60", "backup-loss90"])
def test_branches_are_their_named_operation(kind):
    for eps, axes in itertools.product(EPS_GRID, AXIS_PAIRS):
        table = axis_table(eps, KINDS[kind], axes)
        for k, b in zip(table.kraus, table.branches):
            u = named_operation(b, eps, axes)
            c = np.trace(u.conj().T @ k) / 4
            assert abs(c) > 0
            assert np.max(np.abs(k - c * u)) <= 1e-10, (eps, axes, record(b))


# Each kind's branches as (label, b_bits, lost), in table order: the no-loss branches first,
# then the loss draws (T,F), (F,T) and (T,T); Bell outcomes as minus, plus, hh, vv; backup
# bits, and photon readings after a loss, as b1 + 2 b2 and p1 + 2 p2.  Zero branches are gone:
# a silent loss keeps the Bell outcomes with vacuum in the lost mode, and after a backup
# round's loss the photons read what the backups read.  The order sets ``cumulative``, and
# so every draw.
_F, _T = False, True
_BELL, _BITS = ("minus", "plus", "hh", "vv"), ((0, 0), (1, 0), (0, 1), (1, 1))
_DRAWS = ((_T, _F), (_F, _T), (_T, _T))
BRANCH_ORDER = {
    "lossless": [(o, None, None) for o in _BELL],
    "heralded": [(o, None, (_F, _F)) for o in _BELL]
                + [("loss", None, lost) for lost in _DRAWS for _ in range(4)],
    "occupation": [(o, None, (_F, _F)) for o in _BELL]
                  + [(o, None, lost) for lost in _DRAWS[:2] for _ in range(2)
                     for o in ("minus", "plus", "vv")] + [("vv", None, (_T, _T))] * 4,
    "backup": [(o, bits, (_F, _F)) for o in _BELL for bits in _BITS],
    "backup-loss60": [(o, bits, (_F, _F)) for o in _BELL for bits in _BITS]
                     + [("loss", bits, lost) for lost in _DRAWS for bits in _BITS],
}


@pytest.mark.parametrize("kind", BRANCH_ORDER)
def test_tables_list_their_branches_in_order(kind):
    loss = KINDS[kind]
    for eps in EPS_GRID:
        table = round_branches(eps, loss)
        assert [(b.label, b.b_bits, b.lost) for b in table.branches] == BRANCH_ORDER[kind], eps
        if kind == "heralded":
            # the four photon readings of a loss draw weigh |VV>, |HV>, |VH>, |HH> of the
            # emitted pair, p1 + 2 p2: p1 read slower than p2 would swap the middle two
            p, s = loss.p_loss, eps * (1 - eps)
            weights = np.diff(table.cumulative, prepend=0.0)[4:]
            want = [p ** sum(lost) * (1 - p) ** (2 - sum(lost)) * w for lost in _DRAWS
                    for w in (s, eps ** 2, (1 - eps) ** 2, s)]
            assert np.abs(weights - want).max() <= 1e-12, eps


@pytest.mark.parametrize("kind", KINDS)
def test_photon_level_post_states_are_branches(kind):
    rng = np.random.default_rng(2024)
    loss = KINDS[kind]
    for eps in EPS_GRID:
        table = round_branches(eps, loss)
        for _ in range(12):
            psi = haar_random_amplitudes(2, rng)
            seen, after = photon_level_round(psi, eps, loss, rng)
            assert np.linalg.norm(after[4:]) <= 1e-10  # ancillas emptied
            best = 0.0
            for k, b in zip(table.kraus, table.branches):
                if record(b) == seen:
                    k_psi = k @ psi
                    overlap = np.vdot(k_psi, after[:4]) / np.linalg.norm(k_psi)
                    best = max(best, abs(overlap) ** 2)
            assert best >= 1 - 1e-10, (eps, seen)


@pytest.mark.parametrize("kind", KINDS)
def test_photon_level_frequencies_follow_branch_weights(kind):
    loss = KINDS[kind]
    eps, n = 0.3, 1200
    rng = np.random.default_rng(77)
    psi = haar_random_amplitudes(2, rng)
    expected = Counter()
    table = round_branches(eps, loss)
    for k, b in zip(table.kraus, table.branches):
        expected[record(b)] += n * float(np.linalg.norm(k @ psi) ** 2)
    observed = Counter(photon_level_round(psi, eps, loss, rng)[0] for _ in range(n))
    assert set(observed) <= set(expected)
    # records expected fewer than 5 times share one bin
    bins = [(observed[r], e) for r, e in expected.items() if e >= 5]
    rare = [r for r, e in expected.items() if e < 5]
    if rare:
        bins.append((sum(observed[r] for r in rare), sum(expected[r] for r in rare)))
    stat = sum((o - e) ** 2 / e for o, e in bins)
    assert chi2_sf(stat, len(bins) - 1) > 1e-3, (stat, len(bins))


CONFIGS = {
    "trotter": {
        "hamiltonian": {
            "n_qubits": 3,
            "terms": [
                {"sites": [0, 1], "axes": "XX", "coeff": 1.0},
                {"sites": [1, 2], "axes": "ZZ", "coeff": 0.7},
            ],
        },
        "t": 0.5,
        "n_steps": 4,
        "initial_state": {"random_seed": 3},
    },
    "backup-loss60": {
        "hamiltonian": {
            "n_qubits": 3,
            "terms": [{"sites": [0, 2], "axes": "YZ", "coeff": 1.0}],
        },
        "t": 0.8,
        "n_steps": 3,
        "policy": {"max_rounds": 4000},
        "loss": {"p_loss": 0.6, "backup_enabled": True},
        "initial_state": {"random_seed": 4},
    },
}


def test_warm_trajectory_evolves_data_qubits_only(monkeypatch):
    cfg = ProtocolConfig.from_dict({**CONFIGS["backup-loss60"], "master_seed": 12})
    first = run_trajectory(cfg, 0)  # builds every table this trajectory needs

    def forbidden(*args, **kwargs):
        raise AssertionError("the photon-level model ran inside a trajectory")

    for module in (mfsim.emission, mfsim.loss, mfsim.feedback, mfsim.harness):
        for name in ("joint_emission", "beamsplitter_measure", "loss_channel", "backup_round",
                     "photon_round"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    sizes = []

    def counted(apply):
        def update(amplitudes):
            sizes.append(amplitudes.size)
            return apply(amplitudes)
        return update

    # every kept operator, and every one built now, counts the states it updates
    for key, (*entry, operators) in cfg.program.entries.items():
        cfg.program.entries[key] = (*entry, {p: counted(a) for p, a in operators.items()})
    pair_operator = mfsim.feedback._pair_operator
    monkeypatch.setattr(mfsim.feedback, "_pair_operator", lambda *a: counted(pair_operator(*a)))
    again = run_trajectory(cfg, 0)
    assert set(sizes) == {2**3}
    # one state update per rotation that took at least one round
    assert len(sizes) == sum(1 for count in again.rounds_per_rotation if count > 0)
    assert again.to_dict() == first.to_dict()


def test_warm_trajectory_validates_only_its_final_frame_correction(monkeypatch):
    cfg = ProtocolConfig.from_dict({**CONFIGS["trotter"], "master_seed": 13})
    run_trajectory(cfg, 0)  # builds every table this trajectory needs
    calls = []
    check = mfsim.statevec._check_unitary

    def spy(u, dim):
        calls.append(dim)
        return check(u, dim)

    monkeypatch.setattr(mfsim.statevec, "_check_unitary", spy)
    again = run_trajectory(cfg, 0)
    # the final frame's correction is applied to the config's oracle, once per frame
    assert again.rounds_total > 0 and again.final_frame != "III"
    assert calls == []


def test_warm_trotter_trajectory_hashes_and_builds_no_config_or_frame(monkeypatch):
    cfg = ProtocolConfig.from_dict(
        {**CONFIGS["trotter"], "n_steps": 16, "policy": {"max_rounds": 256}, "master_seed": 13})
    run_trajectory(cfg, 0)  # builds every level, record and frame this trajectory needs
    calls = []

    def spy(cls, name):
        original = getattr(cls, name)

        def counted(*args, **kwargs):
            calls.append(f"{cls.__name__}.{name}")
            return original(*args, **kwargs)

        monkeypatch.setattr(cls, name, counted)

    for cls in (EpsilonPolicy, LossConfig):
        spy(cls, "__hash__")
    for cls in (EpsilonPolicy, LossConfig, PauliString, RoundRecord):
        spy(cls, "__init__")
    built = mfsim.pauli.frame_of_key.cache_info().misses
    again = run_trajectory(cfg, 0)
    assert again.rounds_total > 32 and again.final_frame != "III"
    assert calls == []
    # every frame, the identity it starts from included, is a string the table holds
    assert mfsim.pauli.frame_of_key.cache_info().misses == built


@pytest.fixture
def unitary_checks(monkeypatch):
    """The dimensions of every ``_check_unitary`` call made while the test runs."""
    calls = []
    check = mfsim.statevec._check_unitary

    def spy(u, dim):
        calls.append(dim)
        return check(u, dim)

    monkeypatch.setattr(mfsim.statevec, "_check_unitary", spy)
    return calls


@pytest.mark.parametrize("kind", KINDS)
def test_cold_table_build_checks_no_gate(kind, unitary_checks):
    for axes in AXIS_PAIRS:
        axis_table.__wrapped__(0.3, KINDS[kind], axes)
    assert unitary_checks == []


def test_stage_gates_check_no_gate(unitary_checks):
    layout = RegisterLayout.build(2, with_backup=True)
    state = embedded_state(np.ones(1), layout)
    state = mfsim.loss.photon_copy(joint_emission(state, (0, 1), (2, 3), 0.3), 2, 4)
    assert state.norm_squared() == pytest.approx(1.0)
    assert unitary_checks == []


def test_cnot_demo_checks_no_gate(unitary_checks):
    # Input i's frame after V(pi/4): a lossless round's branch law does not depend on the
    # state, so the same draws on any input give it.
    corrected = 0
    for i in range(6):
        _, frame, _ = realize_v_kl(StateVector(np.eye(4)[0]), (0, 1), PauliAxis.X, PauliAxis.X,
                                   math.pi / 4, EpsilonPolicy(), PauliString.identity(2),
                                   mfsim.harness._trajectory_uniforms(0, i))
        corrected += sum(a is not PauliAxis.I for a in frame.axes)
    assert unitary_checks == [] and corrected > 0
    assert mfsim.harness.cnot_demo(EpsilonPolicy())["process_fidelity"] == pytest.approx(1.0)
    # the four dressing gates and each A gate's frame correction go unchecked
    assert unitary_checks == []


def test_caller_gates_are_still_checked(unitary_checks):
    state = embedded_state(np.ones(1), RegisterLayout.build(2, n_photons=0))
    with pytest.raises(UsageError, match="not unitary"):
        mfsim.statevec.apply_local(state, 0, np.diag([1.0, 2.0]))
    with pytest.raises(UsageError, match="not unitary"):
        mfsim.statevec.apply_two_qubit(state, (0, 1), np.diag([1.0, 1.0, 1.0, 2.0]))
    assert unitary_checks == [2, 4]


def test_sign_projectors_are_one_exact_read_only_stack():
    projectors = mfsim.loss._SIGN_PROJECTORS
    assert not projectors.flags.writeable
    signs = np.array([[1, 1], [1, -1]])
    exact = np.array([np.outer(v, v) / 4 for v in (np.kron(b, a) for b in signs for a in signs)])
    assert np.array_equal(projectors, exact)
    # P_j holds sign bit j & 1 of X on the first atom and j >> 1 on the second
    for j, p in enumerate(projectors):
        assert np.array_equal(kron_le(X, I2) @ p, (1 - 2 * (j & 1)) * p)
        assert np.array_equal(kron_le(I2, X) @ p, (1 - 2 * (j >> 1)) * p)


def state_draw_rotation(state, pair, axes, t, policy, frame, rng, loss):
    """A rotation drawn on the state every round: ``measure`` with the round's Kraus table.

    Returns (state, frame, records, residual); a residual above the angle
    tolerance means max_rounds ran out.
    """
    n = state.n_qubits
    sign_swap = frame_conjugate_direction(frame, PauliString.embed(n, dict(zip(pair, axes))))
    residual, records = reduce_angle(t) or 0.0, []  # None, a multiple of pi, closed
    for _ in range(policy.max_rounds):
        if abs(residual) <= 1e-12:
            break
        aimed = abs(residual)
        eps = policy.eps_for(aimed)
        table = axis_table(eps, loss, axes)
        index, state, _ = measure(state, pair, table.kraus, rng)
        b = table.branches[index]
        flipped = {s: a for s, a, f in zip(pair, axes, b.flips) if f}
        if flipped:
            frame = frame.updated(PauliString.embed(n, flipped))
        if b.direction is not None:
            residual = reduce_angle(residual - sign_swap * b.direction * aimed) or 0.0
        records.append(RoundRecord(b.label, eps, aimed, str(frame), b.b_bits, b.lost))
    return state, frame, records, residual


def rotation_case(seed, axes, anticommuting):
    """A Haar 3-qubit state, an angle, and an incoming frame of the given sign on pair (2, 0)."""
    rng = np.random.default_rng(seed)
    state = StateVector(haar_random_amplitudes(3, rng))
    sites = {1: PauliAxis.Y}  # off the pair: commutes with the rotation either way
    if anticommuting:
        sites[2] = next(a for a in (PauliAxis.X, PauliAxis.Y, PauliAxis.Z) if a is not axes[0])
    frame = ErrorFrame.identity(3).updated(PauliString.embed(3, sites))
    sign = frame_conjugate_direction(frame, PauliString.embed(3, dict(zip((2, 0), axes))))
    assert sign == (-1 if anticommuting else 1)
    return state, float(rng.uniform(-1.5, 1.5)), frame


@pytest.mark.parametrize("kind", KINDS)
def test_classical_draw_equals_state_draw(kind):
    loss, policy, pair = KINDS[kind], EpsilonPolicy(max_rounds=100_000), (2, 0)
    cases = itertools.product(AXIS_PAIRS, (False, True))
    for seed, (axes, anticommuting) in enumerate(cases):
        state, t, frame = rotation_case(seed, axes, anticommuting)
        want, want_frame, want_records, residual = state_draw_rotation(
            state, pair, axes, t, policy, frame, np.random.default_rng(seed), loss)
        assert abs(residual) <= 1e-12
        got, got_frame, got_records = realize_v_kl(
            state, pair, *axes, t, policy, frame, np.random.default_rng(seed), loss)
        assert got_records == want_records and got_frame == want_frame, (axes, anticommuting)
        assert_equal_up_to_power_of_i(got, want, 1e-12)


def test_exhausted_rotation_state_equals_state_draw():
    loss, policy = KINDS["backup-loss90"], EpsilonPolicy(max_rounds=2)
    pair, axes = (2, 0), (PauliAxis.Y, PauliAxis.Z)
    state, t, frame = rotation_case(3, axes, True)
    want, want_frame, want_records, residual = state_draw_rotation(
        state, pair, axes, t, policy, frame, np.random.default_rng(3), loss)
    assert abs(residual) > 1e-12 and len(want_records) == 2
    with pytest.raises(IncompleteRotationError) as info:
        realize_v_kl(state, pair, *axes, t, policy, frame, np.random.default_rng(3), loss)
    exc = info.value
    assert (exc.records, exc.frame, exc.residual) == (want_records, want_frame, residual)
    assert_equal_up_to_power_of_i(exc.state, want, 1e-12)


@pytest.mark.parametrize("name, seed", [("trotter", 5), ("backup-loss60", 6)])
def test_trajectory_records_decoded_from_codes_equal_state_draw(name, seed):
    """A trajectory keeps its rounds as codes; read as records they are the per-round loop's."""
    cfg = ProtocolConfig.from_dict({**CONFIGS[name], "master_seed": seed, "policy": {
        "max_rounds": 4 if name == "trotter" else 4000}})
    stopped = 0
    for index in range(6):
        stats = run_trajectory(cfg, index)
        state = StateVector(cfg.initial_amplitudes)
        frame, want = ErrorFrame.identity(state.n_qubits), []
        rng = mfsim.harness._trajectory_uniforms(cfg.master_seed, index)
        for rot in cfg.plan.operations():
            state, frame, records, residual = state_draw_rotation(
                state, rot.sites, rot.axes, rot.angle, cfg.policy, frame, rng, cfg.loss)
            want += records
            if abs(residual) > 1e-12:  # out of rounds: the trajectory stops here
                stopped += 1
                break
        assert stats.records == want and stats.final_frame == str(frame)
        assert stats.to_dict()["rounds"] == [r.to_dict() for r in want]
    assert stopped and stopped < 6 if name == "trotter" else not stopped


# The controller walks a cached chain of doubling levels; the per-round loop
# above looks every round's table up afresh.  Both must draw the same rounds.
POLICY_MODES = list(PolicyMode)


@pytest.mark.parametrize("mode", POLICY_MODES)
@pytest.mark.parametrize("kind", KINDS)
def test_level_chain_equals_per_round_loop(kind, mode):
    loss, policy, pair = KINDS[kind], EpsilonPolicy(mode, max_rounds=100_000), (2, 0)
    # Both frame signs share a seed, so an angle, and walk one chain of levels.
    for seed, anticommuting in itertools.product(range(4), (False, True)):
        axes = AXIS_PAIRS[(3 * seed + len(kind)) % len(AXIS_PAIRS)]
        state, t, frame = rotation_case(100 + seed, axes, anticommuting)
        t *= 3.0  # also reduce angles beyond (-pi/2, pi/2]
        for draw in range(2):  # the second rotation reuses the first one's levels
            rng_seed = 1000 * seed + 10 * anticommuting + draw
            want, want_frame, want_records, residual = state_draw_rotation(
                state, pair, axes, t, policy, frame, np.random.default_rng(rng_seed), loss)
            assert abs(residual) <= 1e-12
            got, got_frame, got_records = realize_v_kl(
                state, pair, *axes, t, policy, frame, np.random.default_rng(rng_seed), loss)
            assert got_records == want_records, (axes, anticommuting, draw)
            assert got_frame == want_frame and str(got_frame) == want_records[-1].frame_after
            assert_equal_up_to_power_of_i(got, want, 1e-12)


@pytest.mark.parametrize("mode,seed", [(PolicyMode.RESIDUAL_EXACT, 384),
                                       (PolicyMode.PAPER_DOUBLING, 191)])
def test_exhausted_rotation_at_a_deep_level_equals_per_round_loop(mode, seed):
    policy, pair, axes = EpsilonPolicy(mode, max_rounds=12), (2, 0), (PauliAxis.X, PauliAxis.Y)
    state, t, frame = rotation_case(seed, axes, True)
    want, want_frame, want_records, residual = state_draw_rotation(
        state, pair, axes, t, policy, frame, np.random.default_rng(seed), LossConfig())
    assert abs(residual) > 1e-12 and len({r.aimed_angle for r in want_records}) >= 6
    with pytest.raises(IncompleteRotationError) as info:
        realize_v_kl(state, pair, *axes, t, policy, frame, np.random.default_rng(seed))
    exc = info.value
    assert (exc.records, exc.frame, exc.residual) == (want_records, want_frame, residual)
    assert_equal_up_to_power_of_i(exc.state, want, 1e-12)


LEVEL_CONFIGS = {
    **CONFIGS,
    "paper-doubling": {**CONFIGS["trotter"], "policy": {"mode": "paper_doubling"}},
}


@pytest.mark.parametrize("name", LEVEL_CONFIGS)
def test_cold_and_warm_level_cache_agree(name):
    config = {**LEVEL_CONFIGS[name], "master_seed": 14}
    clear_module_caches()
    cold = [run_trajectory(ProtocolConfig.from_dict(config), i).to_dict() for i in range(3)]
    clear_module_caches()
    cfg = ProtocolConfig.from_dict(config)  # levels rebuilt, each with its table
    rebuilt = [run_trajectory(cfg, i).to_dict() for i in range(3)]
    warm = [run_trajectory(cfg, i).to_dict() for i in range(3)]
    assert cold == rebuilt == warm


def test_warm_rotation_looks_up_no_table(monkeypatch):
    cfg = ProtocolConfig.from_dict({**CONFIGS["backup-loss60"], "master_seed": 15})
    first = run_trajectory(cfg, 0)  # builds every level this trajectory reaches

    def forbidden(*args, **kwargs):
        raise AssertionError("a warm rotation looked up a round table")

    monkeypatch.setattr(mfsim.feedback, "round_tables", forbidden)
    assert run_trajectory(cfg, 0).to_dict() == first.to_dict()


class Replay:
    """An rng stand-in that hands out a fixed list of uniforms, one per ``random()``."""

    def __init__(self, uniforms):
        self._uniforms = iter(uniforms)

    def random(self):
        return next(self._uniforms)


def unclosed_rotation(axes, t, policy, sign_swap, loss, rng):
    """Uniforms for ``policy.max_rounds`` rounds that never draw a branch closing the rotation.

    Returns them with the drawn unitaries multiplied in draw order, one 4x4
    matmul a round.  Minus-type branches still move the rotation to ever
    deeper doubling levels, so the product mixes rotations and byproducts.
    """
    residual, uniforms, product = reduce_angle(t) or 0.0, [], np.eye(4)
    while len(uniforms) < policy.max_rounds:
        aimed = abs(residual)
        table = axis_table(policy.eps_for(aimed), loss, axes)
        u = rng.random()
        i = bisect.bisect_right(table.cumulative, u)
        direction = table.branches[i].direction
        moved = residual if direction is None else reduce_angle(
            residual - sign_swap * direction * aimed)
        if moved is None:
            continue  # this branch would close the rotation: draw again
        uniforms.append(u)
        product = table.unitaries[i] @ product
        residual = moved
    return uniforms, product


LONG_KINDS = {
    "backup-loss90": KINDS["backup-loss90"],
    "heralded-50": LossConfig(p_loss=0.5),
    "occupation-50": LossConfig(p_loss=0.5, encoding=PhotonEncoding.OCCUPATION),
}


@pytest.mark.parametrize("anticommuting", [False, True])
@pytest.mark.parametrize("kind", LONG_KINDS)
def test_long_rotation_phase_product_equals_ordered_matmul(kind, anticommuting):
    loss, policy, pair = LONG_KINDS[kind], EpsilonPolicy(max_rounds=320), (2, 0)
    axes = (PauliAxis.Y, PauliAxis.X)
    state, t, frame = rotation_case(21, axes, anticommuting)
    sign = frame_conjugate_direction(frame, PauliString.embed(3, dict(zip(pair, axes))))
    uniforms, product = unclosed_rotation(
        axes, t, policy, sign, loss, np.random.default_rng(21 + anticommuting))
    want, want_frame, want_records, residual = state_draw_rotation(
        state, pair, axes, t, policy, frame, Replay(uniforms), loss)
    assert abs(residual) > 1e-12 and len(want_records) == policy.max_rounds
    with pytest.raises(IncompleteRotationError) as info:
        realize_v_kl(state, pair, *axes, t, policy, frame, Replay(uniforms), loss)
    exc = info.value
    assert (exc.records, exc.frame, exc.residual) == (want_records, want_frame, residual)
    matmul = mfsim.statevec._apply(state, pair, product)
    assert_equal_up_to_power_of_i(exc.state, matmul, 1e-12)
    assert_equal_up_to_power_of_i(exc.state, want, 1e-12)
