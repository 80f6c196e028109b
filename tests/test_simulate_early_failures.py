"""``mfsim simulate`` fails before its first trajectory on what the run cannot get past."""

import json

import pytest

import mfsim.harness
from mfsim.cli import EXIT_CONFIG, EXIT_RESOURCE, main

XX_PAIR = {"n_qubits": 2, "terms": [{"sites": [0, 1], "axes": "XX", "coeff": 1.0}]}


def write_config(tmp_path, **extra):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"hamiltonian": XX_PAIR, "t": 0.3, "n_steps": 1, **extra}))
    return path


@pytest.fixture
def no_trajectory(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a trajectory ran")

    monkeypatch.setattr(mfsim.harness, "run_trajectory", forbidden)


def test_bad_initial_state_exits_2_with_no_trajectories(tmp_path, capsys):
    path = write_config(tmp_path, trajectories=0, initial_state="bogus")
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
    assert "unknown initial-state preset 'bogus'" in capsys.readouterr().err
    assert not out.exists()


def test_register_cap_exits_3_with_no_trajectories(tmp_path):
    path = write_config(tmp_path, trajectories=0,
                        hamiltonian={"n_qubits": 13, "terms": []})
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == EXIT_RESOURCE
    assert not out.exists()


@pytest.mark.parametrize("under", [("file",), ("file", "run"), ("file", "a", "b")])
def test_unwritable_out_fails_before_the_first_trajectory(under, tmp_path, capsys, no_trajectory):
    path = write_config(tmp_path, trajectories=3)
    (tmp_path / "file").write_text("")
    out = tmp_path.joinpath(*under)
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"output error: {out}") and "not a directory" in err
    assert (tmp_path / "file").read_text() == ""


def test_out_check_creates_nothing_when_the_run_fails(tmp_path):
    path = write_config(tmp_path, hamiltonian={"n_qubits": 13, "terms": []})
    out = tmp_path / "new" / "run"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == EXIT_RESOURCE
    assert not (tmp_path / "new").exists()

