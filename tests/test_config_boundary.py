"""Real-valued config keys take finite JSON numbers only; a repeated key or unwritable output exits 2."""

import json
import math

import pytest

from mfsim.cli import EXIT_CONFIG, EXIT_OK, main
from mfsim.errors import ConfigError, UsageError, config_float
from mfsim.harness import ProtocolConfig

BASE = {
    "hamiltonian": {"n_qubits": 2, "terms": [{"sites": [0, 1], "axes": "XX", "coeff": 1.0}]},
    "t": 0.3,
    "n_steps": 2,
    "trajectories": 2,
    "master_seed": 3,
}


def with_value(key: str, value) -> dict:
    cfg = json.loads(json.dumps(BASE))
    if key == "t":
        cfg["t"] = value
    elif key == "loss.p_loss":
        cfg["loss"] = {"p_loss": value}
    else:
        cfg["hamiltonian"]["terms"][0]["coeff"] = value
    return cfg


KEYS = ("t", "loss.p_loss", "hamiltonian.terms[0].coeff")


def simulate(cfg: dict, tmp_path) -> int:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")])


@pytest.mark.parametrize("bad", [True, False, "0.5", None, [0.5], {"value": 0.5}, math.nan,
                                 -math.inf])
@pytest.mark.parametrize("key", KEYS)
def test_real_key_that_is_not_a_finite_number_exits_2_naming_the_key(key, bad, tmp_path, capsys):
    assert simulate(with_value(key, bad), tmp_path) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert f"{key} must be finite and a JSON number, got {bad!r}" in err


@pytest.mark.parametrize("key", KEYS)
def test_real_key_past_the_largest_float_exits_2(key, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(with_value(key, 0.25)).replace("0.25", "1" + "0" * 400))
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert f"{key} must be finite and a JSON number, got inf" in capsys.readouterr().err


@pytest.mark.parametrize("key", KEYS)
def test_real_key_accepts_integers_and_fractions(key, tmp_path):
    for value in (0, 0.25):
        assert simulate(with_value(key, value), tmp_path) == EXIT_OK


def test_config_float_returns_a_float():
    assert config_float(2, "k") == 2.0 and type(config_float(2, "k")) is float
    with pytest.raises(UsageError, match="k must be finite and a JSON number, got True"):
        config_float(True, "k")


def test_unwritable_output_directory_exits_2(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(BASE))
    out = blocker / "run"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"output error: {out}")


REPEATED = {
    # json.load keeps the last of a repeated key: these ran 3 steps and a coeff of 2.0
    "n_steps": json.dumps(BASE).replace('"n_steps": 2', '"n_steps": 2, "n_steps": 3'),
    "coeff": json.dumps(BASE).replace('"coeff": 1.0', '"coeff": 1.0, "coeff": 2.0'),
}


@pytest.mark.parametrize("command", ["simulate", "schedule", "oracle"])
@pytest.mark.parametrize("key", REPEATED, ids=["top-level", "nested"])
def test_a_repeated_key_exits_2_naming_the_key(key, command, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(REPEATED[key])
    args = ["--out", str(tmp_path / "out")] if command == "simulate" else []
    assert main([command, "--config", str(path), *args]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and f"repeated key '{key}'" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_a_config_file_reads_as_its_dict_unless_a_key_repeats(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(BASE))
    assert ProtocolConfig.from_json_file(path) == ProtocolConfig.from_dict(BASE)
    path.write_text(json.dumps(BASE).replace('"sites"', '"sites": [0, 1], "sites"'))
    with pytest.raises(ConfigError, match="repeated key 'sites'"):
        ProtocolConfig.from_json_file(path)
