import json
import math
import re

import numpy as np
import pytest

import mfsim.feedback
import mfsim.harness
from mfsim.compiler import HamiltonianSpec, compile_plan
from mfsim.errors import ConfigError, IncompleteRotationError, ResourceError, UsageError
from mfsim.feedback import EpsilonPolicy, PolicyMode, Rounds
from mfsim.pauli import PauliAxis
from mfsim.harness import (
    CNOT_MATRIX,
    ProtocolConfig,
    build_register,
    cnot_demo,
    cnot_program,
    emit_report,
    haar_random_amplitudes,
    noiseless_plan_fidelity,
    probe_rounds,
    run_ensemble,
    run_trajectory,
    trajectory_rng,
)
from mfsim.statevec import apply_evolution

from byte_identity_configs import CONFIGS
from conftest import clear_module_caches, kron_le


def chain_config(**overrides) -> ProtocolConfig:
    base = {
        "hamiltonian": {
            "n_qubits": 3,
            "terms": [
                {"sites": [0, 1], "axes": "XX", "coeff": 1.0},
                {"sites": [1, 2], "axes": "ZZ", "coeff": 0.7},
            ],
        },
        "t": 0.3,
        "n_steps": 2,
        "trajectories": 3,
        "master_seed": 7,
        "initial_state": {"random_seed": 11},
    }
    base.update(overrides)
    return ProtocolConfig.from_dict(base)


class TestProtocolConfig:
    def test_round_trip(self):
        cfg = chain_config()
        again = ProtocolConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert again.to_dict() == cfg.to_dict()

    def test_defaults(self):
        cfg = ProtocolConfig.from_dict(
            {"hamiltonian": {"n_qubits": 2, "terms": []}, "t": 1.0, "n_steps": 1}
        )
        assert cfg.policy.mode is PolicyMode.RESIDUAL_EXACT
        assert cfg.loss.p_loss == 0.0
        assert cfg.trajectories == 1

    @pytest.mark.parametrize("left_out", [{}, {"policy": {}, "loss": {}}], ids=["keys", "objects"])
    def test_left_out_keys_read_as_the_constructor_defaults(self, left_out):
        pair = {"n_qubits": 2, "terms": [{"sites": [0, 1], "axes": "XX", "coeff": 1.0}]}
        cfg = ProtocolConfig.from_dict({"hamiltonian": pair, "t": 0.3, "n_steps": 2, **left_out})
        built = ProtocolConfig(HamiltonianSpec.from_dict(pair), 0.3, 2)
        assert cfg == built
        assert cfg.to_dict() == built.to_dict()

    def test_bad_steps(self):
        with pytest.raises(ConfigError):
            chain_config(n_steps=0)

    def test_integral_floats_read_as_integers(self):
        ints = chain_config(n_steps=16, policy={"max_rounds": 64})
        floats = chain_config(
            hamiltonian={"n_qubits": 3.0, "terms": [
                {"sites": [0.0, 1.0], "axes": "XX", "coeff": 1.0},
                {"sites": [1, 2.0], "axes": "ZZ", "coeff": 0.7}]},
            n_steps=16.0, trajectories=3.0, master_seed=7.0, policy={"max_rounds": 64.0},
            initial_state={"random_seed": 11.0},
        )
        assert json.dumps(floats.to_dict()) == json.dumps(ints.to_dict()).replace(
            '"random_seed": 11', '"random_seed": 11.0')
        assert np.array_equal(floats.initial_amplitudes, ints.initial_amplitudes)

    def test_bad_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            ProtocolConfig.from_json_file(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            ProtocolConfig.from_json_file(tmp_path / "nope.json")


class TestInitialStates:
    def test_amplitudes_are_parsed_once(self, monkeypatch):
        parse, keys = mfsim.harness.config_float, []

        def counted(value, key):
            keys.append(key)
            return parse(value, key)

        monkeypatch.setattr(mfsim.harness, "config_float", counted)
        amp = [[0.6, 0.0], [0.0, 0.8]] + [[0.0, 0.0]] * 6
        cfg = chain_config(initial_state={"amplitudes": amp})
        assert cfg.initial_amplitudes[1] == pytest.approx(0.8j)
        assert keys.count("initial_state.amplitudes") == 2 * len(amp)  # re and im, once each

    def test_all_zeros(self):
        cfg = chain_config(initial_state="all_zeros")
        st = build_register(cfg)
        assert st.amplitudes[0] == pytest.approx(1.0)

    def test_all_plus(self):
        cfg = chain_config(initial_state="all_plus")
        st = build_register(cfg)
        assert np.allclose(st.amplitudes[:8], np.full(8, 1 / math.sqrt(8)))

    def test_explicit_amplitudes_normalized(self):
        amp = [[2.0, 0.0]] + [[0.0, 0.0]] * 7
        cfg = chain_config(initial_state={"amplitudes": amp})
        st = build_register(cfg)
        assert st.amplitudes[0] == pytest.approx(1.0)

    @pytest.mark.parametrize("scale", [1e-11, 0.3, 1.0, 3.0, 1e150, 1e200, 1e307])
    def test_explicit_amplitudes_of_any_finite_norm(self, scale):
        # |1e200|^2 overflows: the norm is taken after an exact power-of-two scaling
        amp = [[scale, 0.0]] + [[0.0, 0.0]] * 7
        st = build_register(chain_config(initial_state={"amplitudes": amp}))
        assert np.allclose(st.amplitudes, np.eye(1, 8)[0], rtol=0, atol=1e-15)
        mixed = [[0.6 * scale, -0.48 * scale], [0.0, 0.64 * scale]] + [[0.0, 0.0]] * 6
        cfg = chain_config(initial_state={"amplitudes": mixed})
        if scale <= 1.0:  # squares in range: bit for bit the unscaled normalization
            want = np.array([complex(*a) for a in mixed])
            assert np.array_equal(cfg.initial_amplitudes, want / np.linalg.norm(want))
        assert np.allclose(cfg.initial_amplitudes[:2], [0.6 - 0.48j, 0.64j], rtol=0, atol=1e-15)

    def test_wrong_length_rejected(self):
        with pytest.raises(ConfigError):
            build_register(chain_config(initial_state={"amplitudes": [[1.0, 0.0], [0.0, 0.0]]}))

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            build_register(chain_config(initial_state="sideways"))

    def test_parsing_builds_no_amplitudes(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("amplitudes built")

        monkeypatch.setattr(mfsim.harness, "haar_random_amplitudes", forbidden)
        presets = dict.fromkeys(mfsim.harness._PRESETS, forbidden)
        monkeypatch.setattr(mfsim.harness, "_PRESETS", presets)
        big = {"hamiltonian": {"n_qubits": 40, "terms": []}, "t": 0.1, "n_steps": 1}
        for initial in ("all_zeros", "all_plus", {"random_seed": 3}):
            cfg = ProtocolConfig.from_dict({**big, "initial_state": initial})
            assert cfg.to_dict()["initial_state"] == initial

    def test_work_budget_counts_trajectories_steps_rotations_and_rounds(self):
        pair = {"n_qubits": 2, "terms": [{"sites": [0, 1], "axes": "XX", "coeff": 1.0},
                                         {"sites": [0, 1], "axes": "ZZ", "coeff": 0.5}]}
        base = {"hamiltonian": pair, "t": 0.3, "n_steps": 4}
        # 2 rotations per step of at most 64 rounds (the default max_rounds): exactly at
        # the budget, then one trajectory past it
        at = mfsim.harness.WORK_BUDGET // (8 * 64)
        assert ProtocolConfig.from_dict({**base, "trajectories": at}).trajectories == at
        with pytest.raises(ResourceError, match="work budget"):
            ProtocolConfig.from_dict({**base, "trajectories": at + 1})
        with pytest.raises(ResourceError, match="work budget"):
            ProtocolConfig.from_dict({**base, "n_steps": 10**15})
        # one trajectory of one rotation whose rounds alone are past the budget
        one = {**base, "hamiltonian": {**pair, "terms": pair["terms"][:1]}, "n_steps": 1}
        rounds = mfsim.harness.WORK_BUDGET
        assert ProtocolConfig.from_dict({**one, "policy": {"max_rounds": rounds}})
        with pytest.raises(ResourceError, match="work budget"):
            ProtocolConfig.from_dict({**one, "policy": {"max_rounds": rounds + 1}})

    @pytest.mark.parametrize("huge", [{"n_steps": 1e300}, {"trajectories": 10**1000},
                                      {"trajectories": 1e300, "n_steps": 1e300,
                                       "policy": {"max_rounds": 10**1000}}])
    def test_work_past_the_budget_is_named_compactly(self, huge):
        pair = {"n_qubits": 2, "terms": [{"sites": [0, 1], "axes": "XX", "coeff": 1.0}]}
        with pytest.raises(ResourceError) as exc:
            ProtocolConfig.from_dict({"hamiltonian": pair, "t": 0.3, "n_steps": 4, **huge})
        message = str(exc.value)
        assert "work budget" in message and "2^40" in message and len(message) < 120, message

    def test_empty_sweep_or_no_trajectory_is_within_the_budget(self):
        empty = {"hamiltonian": {"n_qubits": 2, "terms": []}, "t": 0.3}
        cfg = ProtocolConfig.from_dict({**empty, "n_steps": 1e15, "trajectories": 1e15})
        assert (cfg.n_steps, cfg.trajectories) == (10**15, 10**15)
        pair = {"n_qubits": 2, "terms": [{"sites": [0, 1], "axes": "XX", "coeff": 1.0}]}
        assert ProtocolConfig.from_dict({"hamiltonian": pair, "t": 0.3, "n_steps": 10**15,
                                         "trajectories": 0}).trajectories == 0

    def test_register_cap(self):
        cfg = ProtocolConfig.from_dict(
            {"hamiltonian": {"n_qubits": 13, "terms": []}, "t": 0.1, "n_steps": 1}
        )
        with pytest.raises(ResourceError):
            build_register(cfg)  # 13 data qubits > 12-qubit cap


class TestTrajectoryRng:
    def test_same_key_same_stream(self):
        a = trajectory_rng(42, 3).random(5)
        b = trajectory_rng(42, 3).random(5)
        assert np.array_equal(a, b)

    def test_index_changes_stream(self):
        a = trajectory_rng(42, 3).random(5)
        b = trajectory_rng(42, 4).random(5)
        assert not np.array_equal(a, b)

    def test_haar_amplitudes_normalized(self):
        v = haar_random_amplitudes(3, trajectory_rng(0, 0))
        assert np.linalg.norm(v) == pytest.approx(1.0)


class TestRunTrajectory:
    def test_single_term_matches_oracle(self):
        cfg = chain_config(
            hamiltonian={
                "n_qubits": 2,
                "terms": [{"sites": [0, 1], "axes": "XY", "coeff": 0.9}],
            },
            n_steps=1,
            t=0.5,
        )
        stats = run_trajectory(cfg, 0)
        # one term: the Trotter plan is exact, so only feedback could lose fidelity
        assert stats.fidelity_vs_oracle >= 1 - 1e-9
        assert not stats.failed

    def test_deterministic_replay(self):
        cfg = chain_config()
        a = run_trajectory(cfg, 1)
        b = run_trajectory(cfg, 1)
        assert a.to_dict() == b.to_dict()

    def test_trotter_fidelity_bounded_by_plan(self):
        # stochastic execution realizes exactly the plan unitary, so the
        # fidelity loss equals the deterministic Trotter error
        cfg = chain_config(n_steps=8, trajectories=1)
        want = noiseless_plan_fidelity(cfg)
        stats = run_trajectory(cfg, 0)
        assert stats.fidelity_vs_oracle == pytest.approx(want, abs=1e-9)

    def test_exhaustion_reported_not_raised(self):
        cfg = chain_config(policy={"max_rounds": 1}, trajectories=1)
        # with a single allowed round some rotation eventually stays incomplete
        failures = 0
        for i in range(10):
            stats = run_trajectory(cfg, i)
            failures += stats.failed
            if stats.failed:
                assert "incomplete" in stats.failure_reason
        assert failures > 0

    def test_stops_at_first_incomplete_rotation(self, monkeypatch):
        real, calls = mfsim.harness.realize_v_kl, []

        def fail_second(state, *args):
            calls.append(args)
            if len(calls) == 2:
                err = IncompleteRotationError(0.25, Rounds([]))
                err.state, err.frame = state, args[5]
                raise err
            return real(state, *args)

        monkeypatch.setattr(mfsim.harness, "realize_v_kl", fail_second)
        stats = run_trajectory(chain_config(n_steps=4), 0)
        assert len(calls) == 2 and stats.failed
        assert len(stats.rounds_per_rotation) == 2 and stats.rounds_per_rotation[1] == 0
        assert stats.failure_reason == "rotation on (1, 2) incomplete, residual 2.500e-01"


class TestEnsembleAndReport:
    def test_no_op_rotation_reports_no_outcome(self):
        cfg = chain_config(hamiltonian={"n_qubits": 2, "terms": [
            {"sites": [0, 1], "axes": "XX", "coeff": 1.0}]}, t=math.pi, n_steps=1)
        report, _ = run_ensemble(cfg)
        assert report["outcome_frequencies"] == {} and report["rounds"]["total"] == 0

    def test_oracle_evolved_once_per_config(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return apply_evolution(*args, **kwargs)

        monkeypatch.setattr(mfsim.harness, "apply_evolution", counting)
        cfg = chain_config(trajectories=5)
        _, stats = run_ensemble(cfg)
        assert len(stats) == 5 and len(calls) == 1
        assert noiseless_plan_fidelity(cfg) <= 1.0 and len(calls) == 1

    def test_plan_compiled_once_per_config(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return compile_plan(*args)

        monkeypatch.setattr(mfsim.harness, "compile_plan", counting)
        cfg = chain_config(trajectories=5)
        _, stats = run_ensemble(cfg)
        assert len(stats) == 5 and len(calls) == 1
        assert noiseless_plan_fidelity(cfg) <= 1.0 and len(calls) == 1
        assert not cfg.initial_amplitudes.flags.writeable

    def test_report_shape(self):
        cfg = chain_config()
        report, stats = run_ensemble(cfg)
        assert report["n_trajectories"] == 3
        assert set(report["outcome_frequencies"]) <= {"plus", "minus", "hh", "vv", "loss"}
        assert report["fidelity"]["mean"] is not None
        assert report["rounds"]["total"] == sum(s.rounds_total for s in stats)

    def test_outcome_frequencies_normalized(self):
        cfg = chain_config(trajectories=5)
        report, _ = run_ensemble(cfg)
        assert sum(report["outcome_frequencies"].values()) == pytest.approx(1.0)

    def test_rounds_per_rotation_keys(self):
        cfg = chain_config()
        report, _ = run_ensemble(cfg)
        assert set(report["rounds_per_rotation_site"]) == {"0-1:XX", "1-2:ZZ"}

    def test_emit_report_files(self, tmp_path):
        cfg = chain_config(trajectories=2)
        report, stats = run_ensemble(cfg)
        written = emit_report(report, stats, tmp_path, fmt="csv")
        names = {p.name for p in written}
        assert names == {"report.json", "audit.jsonl", "rounds_per_rotation.csv"}
        parsed = json.loads((tmp_path / "report.json").read_text())
        assert parsed == report
        lines = (tmp_path / "audit.jsonl").read_text().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["trajectory"] == 0

    def test_reports_are_byte_identical(self, tmp_path):
        cfg = chain_config(trajectories=2)
        for sub in ("a", "b"):
            report, stats = run_ensemble(cfg)
            emit_report(report, stats, tmp_path / sub)
        for name in ("report.json", "audit.jsonl"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_emit_report_raises_the_os_error_itself(self, tmp_path):
        (tmp_path / "file").write_text("")
        with pytest.raises(NotADirectoryError):
            emit_report({}, [], tmp_path / "file" / "run")

    @pytest.mark.parametrize("fmt", ["xml", "JSON", "", None])
    def test_emit_report_rejects_an_unknown_format_before_writing(self, tmp_path, fmt):
        report, stats = run_ensemble(chain_config(trajectories=1))
        with pytest.raises(UsageError, match="^fmt must be 'json' or 'csv', got "):
            emit_report(report, stats, tmp_path / "run", fmt=fmt)
        assert not (tmp_path / "run").exists()

    def test_no_wall_time_in_outputs(self, tmp_path):
        cfg = chain_config(trajectories=1)
        report, stats = run_ensemble(cfg)
        emit_report(report, stats, tmp_path)
        blob = (tmp_path / "report.json").read_text() + (tmp_path / "audit.jsonl").read_text()
        assert "wall_time" not in blob


class TestProbeRounds:
    def test_counts_sum_to_samples(self):
        out = probe_rounds(0.2, 5000, trajectory_rng(0, 0))
        assert sum(out["counts"].values()) == 5000

    def test_frequencies_near_analytic(self):
        n = 200_000
        out = probe_rounds(0.3, n, trajectory_rng(1, 0))
        for lab, p in out["analytic"].items():
            se = math.sqrt(p * (1 - p) / n)
            assert abs(out["frequencies"][lab] - p) <= 4 * se

    def test_analytic_matches_closed_form(self):
        out = probe_rounds(0.25, 10, trajectory_rng(0, 0))
        assert out["analytic"]["plus"] == pytest.approx(0.5 * (0.75**2 + 0.25**2))
        assert out["analytic"]["hh"] == pytest.approx(0.25 * 0.75)

    @pytest.mark.parametrize("samples", [0, -1, 2.5])
    def test_samples_below_one_or_fractional_are_rejected(self, samples, recwarn):
        # 0 used to give NaN frequencies and a RuntimeWarning, -1 numpy's "n < 0"
        with pytest.raises(UsageError, match="samples must be"):
            probe_rounds(0.2, samples, trajectory_rng(0, 0))
        assert len(recwarn) == 0


class TestCnotDemo:
    def test_dressing_identity(self):
        # dense check: (A1 x A2) e^{i pi/4 XX} (B1 x B2) = CNOT up to phase
        b1, b2, rot, a1, a2 = cnot_program()
        assert [g.site for g in (b1, b2, a1, a2)] == [0, 1, 0, 1]
        assert (rot.sites, rot.axes, rot.angle) == ((0, 1), (PauliAxis.X,) * 2, np.pi / 4)
        a1, a2, b1, b2 = a1.gate, a2.gate, b1.gate, b2.gate
        xx = kron_le(
            np.array([[0, 1], [1, 0]], dtype=complex),
            np.array([[0, 1], [1, 0]], dtype=complex),
        )
        v = np.cos(np.pi / 4) * np.eye(4) + 1j * np.sin(np.pi / 4) * xx
        u = kron_le(a1, a2) @ v @ kron_le(b1, b2)
        phase = u[0, 0] / abs(u[0, 0])
        assert np.allclose(u / phase, CNOT_MATRIX, atol=1e-12)

    def test_noiseless_process_fidelity(self):
        out = cnot_demo(EpsilonPolicy(max_rounds=256), master_seed=3)
        assert out["process_fidelity"] >= 1 - 1e-9

    def test_lossy_with_backup(self):
        out = cnot_demo(
            EpsilonPolicy(max_rounds=4096), master_seed=5, p_loss=0.4, backup=True
        )
        assert out["process_fidelity"] >= 1 - 1e-9
        assert out["total_rounds"] > 6  # retries actually happened


def recount(records):
    """(histogram, loss events, retry counts) read back from the outcome sequence as text.

    A kept round is ``k`` and a loss ``L``; each ``L*k`` is one retry count, the
    number of losses plus one, so trailing losses add loss events but no retry.
    """
    outcomes = [r.outcome for r in records]
    text = "".join("L" if o == "loss" else "k" for o in outcomes)
    histogram = {o: outcomes.count(o) for o in set(outcomes)}
    return histogram, text.count("L"), [len(run) for run in re.findall("L*k", text)]


@pytest.mark.parametrize("p_loss, max_rounds", [(0.6, 400), (0.9, 60)])
def test_trajectory_tallies_equal_a_recount_of_its_records(p_loss, max_rounds):
    cfg = ProtocolConfig.from_dict({
        "hamiltonian": {"n_qubits": 2, "terms": [{"sites": [0, 1], "axes": "XX", "coeff": 1.0}]},
        "t": 0.8, "n_steps": 3, "master_seed": 17, "policy": {"max_rounds": max_rounds},
        "loss": {"p_loss": p_loss, "backup_enabled": True}})
    stats = [run_trajectory(cfg, i) for i in range(12)]
    for s in stats:
        histogram, losses, retries = recount(s.records)
        assert s.outcome_histogram == histogram
        assert s.loss_events == losses
        assert s.photon_retry_counts == retries
    ran_out = [s for s in stats if s.failed and s.records[-1].outcome == "loss"]
    if p_loss == 0.9:  # a rotation ran out of rounds during a run of losses
        assert ran_out
    for s in ran_out:
        trailing = len(s.records) - 1 - max(
            (i for i, r in enumerate(s.records) if r.outcome != "loss"), default=-1)
        assert sum(s.photon_retry_counts) == len(s.records) - trailing


@pytest.mark.parametrize("name", ["past-cap", "backup-paper-doubling", "heralded-loss",
                                  "block-edge"])
def test_trajectories_do_not_depend_on_execution_order(name):
    # The second config's program builds its levels, their rows and the pair
    # records in another order, the seed and draw blocks are rebuilt last block first,
    # and another config's framed oracles are filled.
    def audit(cfg, indices):
        return {i: json.dumps(run_trajectory(cfg, i).to_dict(), sort_keys=True) for i in indices}

    forward_cfg = ProtocolConfig.from_dict(CONFIGS[name])
    forward = audit(forward_cfg, range(forward_cfg.trajectories))
    clear_module_caches()
    cfg = ProtocolConfig.from_dict(CONFIGS[name])
    assert audit(cfg, reversed(range(cfg.trajectories))) == forward
    if name == "past-cap":  # past the cap, each order keeps the first 256 frames it meets
        assert set(cfg.framed_oracles) != set(forward_cfg.framed_oracles)
