import itertools
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mfsim.compiler
import mfsim.harness
from mfsim.cli import EXIT_CONFIG, EXIT_INCOMPLETE, EXIT_OK, EXIT_PIPE, EXIT_RESOURCE, main
from mfsim.harness import ProtocolConfig
from mfsim.statevec import apply_evolution

SRC = Path(__file__).resolve().parents[1] / "src"
# the package from the source tree, and no bytecode written into it
CHILD_ENV = {"PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"}
XX_PAIR = {"n_qubits": 2, "terms": [{"sites": [0, 1], "axes": "XX", "coeff": 1.0}]}


@pytest.fixture
def config_file(tmp_path):
    cfg = {
        "hamiltonian": {
            "n_qubits": 3,
            "terms": [
                {"sites": [0, 1], "axes": "XX", "coeff": 1.0},
                {"sites": [1, 2], "axes": "XX", "coeff": 1.0},
            ],
        },
        "t": 0.3,
        "n_steps": 2,
        "trajectories": 2,
        "master_seed": 9,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


class TestSimulate:
    def test_writes_report_files(self, config_file, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["simulate", "--config", str(config_file), "--out", str(out)])
        assert code == EXIT_OK
        assert (out / "report.json").exists()
        assert (out / "audit.jsonl").exists()
        printed = capsys.readouterr().out
        assert "report.json" in printed

    def test_csv_format(self, config_file, tmp_path):
        out = tmp_path / "run"
        code = main([
            "simulate", "--config", str(config_file), "--out", str(out),
            "--format", "csv",
        ])
        assert code == EXIT_OK
        csv_text = (out / "rounds_per_rotation.csv").read_text()
        assert csv_text.startswith("rotation_site,mean_rounds")

    def test_reruns_byte_identical(self, config_file, tmp_path):
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            assert main(["simulate", "--config", str(config_file), "--out", str(out)]) == EXIT_OK
        for name in ("report.json", "audit.jsonl"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_env_var_overrides_out(self, config_file, tmp_path, monkeypatch):
        env_dir = tmp_path / "from-env"
        monkeypatch.setenv("MFSIM_OUT_DIR", str(env_dir))
        code = main(["simulate", "--config", str(config_file), "--out", str(tmp_path / "ignored")])
        assert code == EXIT_OK
        assert (env_dir / "report.json").exists()
        assert not (tmp_path / "ignored").exists()

    def test_empty_env_var_leaves_out(self, config_file, tmp_path, monkeypatch):
        # an empty MFSIM_OUT_DIR counts as unset, not as the current directory
        monkeypatch.setenv("MFSIM_OUT_DIR", "")
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(config_file), "--out", str(out)]) == EXIT_OK
        assert (out / "report.json").exists() and (out / "audit.jsonl").exists()
        assert list(cwd.iterdir()) == []

    @pytest.mark.parametrize("huge", [{"trajectories": 1e15}, {"n_steps": 10**15},
                                      {"trajectories": 1, "policy": {"max_rounds": 2**41}}])
    def test_work_past_the_budget_exits_3(self, huge, tmp_path, capsys):
        cfg = {"hamiltonian": XX_PAIR, "t": 0.3, "n_steps": 2, "trajectories": 2, **huge}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) \
            == EXIT_RESOURCE
        assert "work budget" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_bad_config_exit_code(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{")
        assert main(["simulate", "--config", str(path)]) == EXIT_CONFIG

    def test_missing_config_exit_code(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "none.json")]) == EXIT_CONFIG

    def test_register_cap_exit_code(self, tmp_path):
        cfg = {"hamiltonian": {"n_qubits": 13, "terms": []}, "t": 0.1, "n_steps": 1}
        path = tmp_path / "big.json"
        path.write_text(json.dumps(cfg))
        assert main(["simulate", "--config", str(path)]) == EXIT_RESOURCE

    def test_register_cap_line_is_the_oracles(self, tmp_path, capsys):
        term = {"sites": [0, 1], "axes": "XX", "coeff": 1.0}
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"hamiltonian": {"n_qubits": 13, "terms": [term]},
                                    "t": 0.1, "n_steps": 1}))
        errors = []
        for argv in (["simulate", "--out", str(tmp_path / "out")], ["oracle"]):
            assert main([*argv, "--config", str(path)]) == EXIT_RESOURCE
            errors.append(capsys.readouterr().err)
        assert errors == ["resource error: register of 13 qubits exceeds the dense cap of 12\n"] * 2

    def test_empty_sweep_takes_no_steps(self, tmp_path):
        # No term, no rotation: even 1e15 steps must finish at once without a round.
        cfg = {"hamiltonian": {"n_qubits": 2, "terms": []}, "t": 0.3, "n_steps": 1e15,
               "trajectories": 2}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        proc = subprocess.run(
            [sys.executable, "-m", "mfsim.cli", "simulate", "--config", str(path),
             "--out", str(tmp_path / "out")],
            capture_output=True, text=True, env=CHILD_ENV, timeout=60,
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        audit = (tmp_path / "out" / "audit.jsonl").read_text().splitlines()
        assert [json.loads(line)["rounds_per_rotation"] for line in audit] == [[], []]

    @pytest.mark.parametrize("bad,named", [
        ({"loss": {"p_los": 0.9, "backup_enabled": True}}, "loss.p_los"),
        ({"polcy": {}}, "polcy"),
        ({"policy": {"max_round": 8}}, "policy.max_round"),
        ({"hamiltonian": {**XX_PAIR, "n_qbits": 2}}, "hamiltonian.n_qbits"),
        ({"hamiltonian": {"n_qubits": 2, "terms": [{"sites": [0, 1], "axes": "XX", "coef": 1}]}},
         "hamiltonian.terms[0].coef"),
        ({"initial_state": {"random_seed": 1, "seed": 2}}, "initial_state.seed"),
        ({"t": "nan"}, "t must be finite"),
        ({"t": "inf"}, "t must be finite"),
        ({"policy": {"max_rounds": 0}}, "policy.max_rounds"),
        ({"initial_state": {"amplitudes": [[1]] * 4}}, "initial state"),
        ({"initial_state": {"amplitudes": [[1, "x"]] * 4}}, "initial state"),
        ({"initial_state": {"amplitudes": [[0, 0]] * 4}}, "initial state has norm"),
        ({"initial_state": {"random_seed": -2}}, "initial state"),
        ({"hamiltonian": {"n_qubits": -1, "terms": []}}, "at least one qubit"),
        ({"master_seed": -1}, "master_seed"),
        # JSON reads 1e400 as Infinity; an integer key takes only integral numbers
        ({"n_steps": math.inf}, "n_steps"),
        ({"trajectories": math.inf}, "trajectories"),
        ({"master_seed": -math.inf}, "master_seed"),
        ({"policy": {"max_rounds": math.inf}}, "policy.max_rounds"),
        ({"hamiltonian": {"n_qubits": math.inf, "terms": []}}, "hamiltonian.n_qubits"),
        ({"hamiltonian": {"n_qubits": 2, "terms": [{"sites": [0, math.inf], "axes": "XX",
                                                    "coeff": 1}]}}, "hamiltonian.terms[0].sites"),
        ({"initial_state": {"random_seed": math.inf}}, "initial_state.random_seed"),
        ({"n_steps": 2.7}, "n_steps"),
        ({"trajectories": True}, "trajectories"),
        ({"loss": {"backup_enabled": "false"}}, "loss.backup_enabled"),
        ({"initial_state": {"amplitudes": [[True, 0]] + [[0, 0]] * 3}}, "initial_state.amplitudes"),
        ({"initial_state": {"amplitudes": [["0.5", 0]] * 4}}, "initial_state.amplitudes"),
        ({"initial_state": {"amplitudes": [[1, "nan"]] * 4}}, "initial_state.amplitudes"),
        ({"policy": {"mode": "x"}}, "policy.mode"),
        ({"loss": {"encoding": "x"}}, "loss.encoding"),
        ({"hamiltonian": {"n_qubits": 2, "terms": 5}}, "hamiltonian.terms"),
        ({"hamiltonian": {"terms": XX_PAIR["terms"]}}, "hamiltonian.n_qubits"),
        ({"hamiltonian": {"n_qubits": 2, "terms": [{"sites": [0, 0], "axes": "XX", "coeff": 1}]}},
         "hamiltonian.terms[0].sites"),
        ({"hamiltonian": {"n_qubits": 2, "terms": [{"sites": [0, 1], "axes": "IX", "coeff": 1}]}},
         "hamiltonian.terms[0].axes"),
        ({"hamiltonian": {"n_qubits": 2, "terms": [{"sites": [0, 5], "axes": "XX", "coeff": 1}]}},
         "hamiltonian.terms[0].sites"),
        ({"loss": {"p_loss": 1.5}}, "loss.p_loss"),
        ({"loss": {"p_loss": -0.25, "backup_enabled": True}}, "loss.p_loss"),
        ({"loss": {"encoding": "occupation", "backup_enabled": True}},
         "loss.backup_enabled requires loss.encoding"),
        ({"initial_state": "foo"}, "initial_state names an unknown initial-state preset 'foo'"),
        # a config error raised while parsing reaches the user as it was raised
        ({"hamiltonian": {"n_qubits": 0, "terms": []}},
         "config error: hamiltonian.n_qubits must give at least one qubit"),
        ({"t": True}, "config error: t must be finite"),
        # every part is finite, the norm is not; the norm overflows no square on the way
        ({"initial_state": {"amplitudes": [[1e308, 1e308]] * 4}},
         "config error: initial state has norm inf"),
    ])
    def test_bad_config_exits_2_without_traceback(self, bad, named, tmp_path):
        cfg = {"hamiltonian": XX_PAIR, "t": 0.3, "n_steps": 1, **bad}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        proc = subprocess.run(
            [sys.executable, "-m", "mfsim.cli", "simulate", "--config", str(path),
             "--out", str(tmp_path / "out")],
            capture_output=True, text=True, env=CHILD_ENV,
        )
        assert proc.returncode == EXIT_CONFIG, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("config error:") and named in proc.stderr

    @pytest.mark.parametrize("command", ["simulate", "schedule"])
    @pytest.mark.parametrize("bad,named", [
        # an integer literal of 401 digits parses, but no float holds it
        ({"n_steps": 10**400}, "n_steps"),
        # finite t and coeff whose product overflows to an infinite angle
        ({"t": 1e308, "hamiltonian": {"n_qubits": 2, "terms": [
            {"sites": [0, 1], "axes": "XX", "coeff": 1e308}]}}, "hamiltonian.terms[0].coeff"),
    ])
    def test_unrepresentable_rotation_angle_exits_2(self, command, bad, named, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"hamiltonian": XX_PAIR, "t": 0.3, "n_steps": 1, **bad}))
        out = ["--out", str(tmp_path / "out")] if command == "simulate" else []
        proc = subprocess.run(
            [sys.executable, "-m", "mfsim.cli", command, "--config", str(path), *out],
            capture_output=True, text=True, env=CHILD_ENV,
        )
        assert proc.returncode == EXIT_CONFIG, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("config error:") and named in proc.stderr

    @pytest.mark.parametrize("text", [
        b'{"n_steps": 1' + b"0" * 5000 + b"}",  # past Python's 4300-digit integer limit
        b'{"t": "\xff"}',  # not UTF-8
    ])
    def test_unreadable_config_text_exits_2(self, text, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_bytes(text)
        proc = subprocess.run(
            [sys.executable, "-m", "mfsim.cli", "simulate", "--config", str(path),
             "--out", str(tmp_path / "out")],
            capture_output=True, text=True, env=CHILD_ENV,
        )
        assert proc.returncode == EXIT_CONFIG, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("config error: cannot read config")

    @pytest.mark.parametrize("command", ["simulate", "schedule", "oracle"])
    def test_over_deep_config_exits_2(self, command, tmp_path):
        # json.load raises RecursionError, not ValueError, on arrays nested this deep
        path = tmp_path / "deep.json"
        deep = "[" * 100_000 + "]" * 100_000
        path.write_text('{"hamiltonian": ' + deep + ', "t": 0.3, "n_steps": 1}')
        out = ["--out", str(tmp_path / "out")] if command == "simulate" else []
        proc = subprocess.run(
            [sys.executable, "-m", "mfsim.cli", command, "--config", str(path), *out],
            capture_output=True, text=True, env=CHILD_ENV,
        )
        assert proc.returncode == EXIT_CONFIG, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith(f"config error: cannot read config {path}:")
        assert not (tmp_path / "out").exists()


class TestProbeRound:
    def test_prints_distribution(self, capsys):
        code = main(["probe-round", "--eps", "0.2", "--samples", "1000", "--seed", "1"])
        assert code == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert sum(out["counts"].values()) == 1000
        assert out["analytic"]["plus"] == pytest.approx(0.34)

    def test_seed_reproducible(self, capsys):
        main(["probe-round", "--eps", "0.4", "--samples", "500", "--seed", "7"])
        first = capsys.readouterr().out
        main(["probe-round", "--eps", "0.4", "--samples", "500", "--seed", "7"])
        assert capsys.readouterr().out == first

    def test_bad_eps(self, capsys):
        assert main(["probe-round", "--eps", "1.7"]) == EXIT_CONFIG


class TestSchedule:
    def test_prints_plan_and_budget(self, config_file, capsys):
        code = main(["schedule", "--config", str(config_file)])
        assert code == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["budget"]["layers_per_sweep"] == 2
        assert out["budget"]["serial_rounds"] > 0
        assert 0 < out["paper_bulk_success_probability"] < 1

    def test_confidence_flag(self, config_file, capsys):
        main(["schedule", "--config", str(config_file), "--confidence", "0.5"])
        loose = json.loads(capsys.readouterr().out)["budget"]["parallel_depth"]
        main(["schedule", "--config", str(config_file), "--confidence", "0.999"])
        tight = json.loads(capsys.readouterr().out)["budget"]["parallel_depth"]
        assert tight > loose

    def test_confidence_next_to_1_on_a_layer_of_several_rotations(self, tmp_path, capsys):
        # three disjoint XX pairs: one layer of three rotations, where the
        # per-gate confidence 0.9999999999999999 ** (1/3) rounds to 1.0
        terms = [{"sites": [q, q + 1], "axes": "XX", "coeff": 1.0} for q in (0, 2, 4)]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"hamiltonian": {"n_qubits": 6, "terms": terms},
                                    "t": 0.3, "n_steps": 1}))
        depths = []
        for confidence in ("0.999", "0.9999999999999999"):
            assert main(["schedule", "--config", str(path), "--confidence", confidence]) == EXIT_OK
            budget = json.loads(capsys.readouterr().out)["budget"]
            assert budget["layers_per_sweep"] == 1
            depths.append(budget["parallel_depth"])
        assert depths[1] > depths[0]

    @pytest.mark.parametrize("command", ["schedule", "oracle", "simulate"])
    @pytest.mark.parametrize("initial,named", [
        ("bogus", "unknown initial-state preset 'bogus'"),
        ({"random_seed": -1}, "cannot interpret initial state"),
        ({"amplitudes": [[1, 0]] * 3}, "initial state has 3 amplitudes, expected 4"),
    ])
    def test_bad_initial_state_exits_2(self, command, initial, named, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(
            {"hamiltonian": XX_PAIR, "t": 0.3, "n_steps": 1, "initial_state": initial}))
        out = ["--out", str(tmp_path / "out")] if command == "simulate" else []
        assert main([command, "--config", str(path), *out]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and named in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("initial", ["all_plus", {"random_seed": 3}])
    def test_runs_past_the_register_cap(self, initial, tmp_path, capsys):
        terms = [{"sites": [q, q + 1], "axes": "XX", "coeff": 1.0} for q in range(39)]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"hamiltonian": {"n_qubits": 40, "terms": terms},
                                    "t": 0.3, "n_steps": 1, "initial_state": initial}))
        assert main(["schedule", "--config", str(path)]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["budget"]["layers_per_sweep"] == 2

    @pytest.mark.parametrize("unbuffered", [True, False])
    def test_closed_stdout_exits_141_without_traceback(self, unbuffered, tmp_path):
        # 1188 terms print about 160 KB, more than a pipe holds, so the reader
        # closes the pipe while the child is still writing
        terms = [{"sites": [a, b], "axes": k + l, "coeff": 1.0}
                 for a, b in itertools.permutations(range(12), 2) for k in "XYZ" for l in "XYZ"]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"hamiltonian": {"n_qubits": 12, "terms": terms},
                                    "t": 0.3, "n_steps": 1}))
        env = {**CHILD_ENV, "PYTHONUNBUFFERED": "1"} if unbuffered else CHILD_ENV
        proc = subprocess.Popen(
            [sys.executable, "-m", "mfsim.cli", "schedule", "--config", str(path)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        assert len(proc.stdout.read(10)) == 10
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == EXIT_PIPE and err == b""


class TestCnotDemoCommand:
    def test_noiseless(self, capsys):
        code = main(["cnot-demo", "--seed", "2"])
        assert code == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["process_fidelity"] >= 1 - 1e-9
        assert out["backup"] is False

    def test_lossy_enables_backup(self, capsys):
        code = main(["cnot-demo", "--p-loss", "0.3", "--seed", "2"])
        assert code == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["backup"] is True
        assert out["process_fidelity"] >= 1 - 1e-9


    def test_incomplete_rotation_exit_code(self, capsys):
        code = main(["cnot-demo", "--p-loss", "0.9", "--max-rounds", "2"])
        assert code == EXIT_INCOMPLETE
        err = capsys.readouterr().err
        assert "residual angle" in err
        assert "Traceback" not in err


class TestOracle:
    def test_reports_plan_fidelity(self, config_file, capsys):
        code = main(["oracle", "--config", str(config_file)])
        assert code == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        # commuting XX chain: plan is exact
        assert out["noiseless_plan_fidelity"] == pytest.approx(1.0)

    def test_register_cap_before_dense_plan(self, tmp_path, monkeypatch):
        def forbidden(plan):
            raise AssertionError(f"dense plan matrix built for {plan.n_qubits} qubits")

        monkeypatch.setattr(mfsim.compiler, "plan_unitary", forbidden)
        term = {"sites": [0, 1], "axes": "XX", "coeff": 1.0}
        cfg = {"hamiltonian": {"n_qubits": 13, "terms": [term]}, "t": 0.1, "n_steps": 1}
        path = tmp_path / "big.json"
        path.write_text(json.dumps(cfg))
        assert main(["oracle", "--config", str(path)]) == EXIT_RESOURCE

    @pytest.mark.parametrize("n_qubits", [13, 40])
    def test_past_cap_exits_3_before_building_amplitudes(self, n_qubits, tmp_path, monkeypatch,
                                                          capsys):
        def forbidden(*args):  # a preset built at 40 qubits would ask for 16 TiB
            raise AssertionError("amplitudes built")

        monkeypatch.setattr(mfsim.harness, "_PRESETS", dict.fromkeys(mfsim.harness._PRESETS,
                                                                     forbidden))
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"hamiltonian": {**XX_PAIR, "n_qubits": n_qubits},
                                    "t": 0.1, "n_steps": 1}))
        assert main(["oracle", "--config", str(path)]) == EXIT_RESOURCE
        assert capsys.readouterr().err == (f"resource error: register of {n_qubits} qubits "
                                           "exceeds the dense cap of 12\n")


    @pytest.mark.parametrize("config", [
        {"hamiltonian": XX_PAIR, "t": 1e300, "n_steps": 1},
        {"hamiltonian": XX_PAIR, "t": 0.3, "n_steps": 10**15, "trajectories": 0},
        {"hamiltonian": {"n_qubits": 2, "terms": []}, "t": 0.3, "n_steps": 10**15},
    ], ids=["huge-t", "huge-n_steps", "huge-n_steps-no-term"])
    def test_answers_at_once_where_the_vector_oracles_would_not(self, config, tmp_path):
        # the vector plan falls back to plan_unitary, and at a huge t the oracle to
        # exact_evolution (test_vector_oracle): the number printed is theirs
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        proc = subprocess.run([sys.executable, "-m", "mfsim.cli", "oracle", "--config", str(path)],
                              capture_output=True, text=True, env=CHILD_ENV, timeout=60)
        assert proc.returncode == EXIT_OK, proc.stderr
        cfg = ProtocolConfig.from_dict(config)
        psi = cfg.initial_amplitudes
        dense = abs(np.vdot(apply_evolution(cfg.hamiltonian, cfg.t, psi),
                            mfsim.compiler.plan_unitary(cfg.plan) @ psi)) ** 2
        assert json.loads(proc.stdout) == {"noiseless_plan_fidelity": float(dense)}


    @pytest.mark.parametrize("terms", [
        XX_PAIR["terms"],
        [*XX_PAIR["terms"], {"sites": [0, 1], "axes": "ZX", "coeff": 0.7}],
    ], ids=["commuting", "anticommuting"])
    def test_a_huge_step_count_plans_a_unitary(self, terms, tmp_path, capsys):
        # repeated squaring drifted off the unitaries: the fidelity once read 1.0000000019
        config = {"hamiltonian": {"n_qubits": 2, "terms": terms}, "t": 0.3, "n_steps": 10**15,
                  "trajectories": 0}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        assert main(["oracle", "--config", str(path)]) == EXIT_OK
        fidelity = json.loads(capsys.readouterr().out)["noiseless_plan_fidelity"]
        assert 1.0 - 1e-12 <= fidelity <= 1.0
        u = mfsim.compiler.plan_unitary(ProtocolConfig.from_dict(config).plan)
        assert np.abs(u.conj().T @ u - np.eye(4)).max() <= 1e-12


class TestNumericFlags:
    @pytest.mark.parametrize("args,flag", [
        (["probe-round", "--eps", "nan"], "--eps"),
        (["probe-round", "--eps", "0.3", "--samples", "-1"], "--samples"),
        (["probe-round", "--eps", "0.3", "--samples", "0"], "--samples"),
        (["probe-round", "--eps", "0.3", "--samples", str(2**63)], "--samples"),
        (["probe-round", "--eps", "0.3", "--seed", "-1"], "--seed"),
        (["cnot-demo", "--p-loss", "1.5"], "--p-loss"),
        (["cnot-demo", "--seed", "-1"], "--seed"),
        (["cnot-demo", "--max-rounds", "0"], "--max-rounds"),
        (["schedule", "--confidence", "1.0"], "--confidence"),
        (["schedule", "--confidence", "1.5"], "--confidence"),
        (["schedule", "--confidence", "0"], "--confidence"),
        (["schedule", "--confidence", "nan"], "--confidence"),
    ])
    def test_out_of_range_flag_exits_2(self, args, flag, config_file, capsys):
        if args[0] == "schedule":
            args = args + ["--config", str(config_file)]
        assert main(args) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage error:") and flag in captured.err
        assert "Traceback" not in captured.err
