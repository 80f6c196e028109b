"""Golden round records: fixed-seed runs must draw exactly the same rounds.

Each digest is the sha256 of the round records (outcome, eps_used,
aimed_angle, frame_after, b_measurements, lost) and the final frame of every
trajectory, without fidelities.  A refactor of the round loop, the round
tables or the Pauli frame that changes any draw, angle or frame changes the
digest.

The byte pins go further: the sha256 of ``report.json``, ``audit.jsonl`` and
``rounds_per_rotation.csv`` that ``emit_report`` writes for each config of
``byte_identity_configs``, with every fidelity number replaced first, since
its last digits may differ across BLAS builds.  A change of the report or
audit writer that moves one byte moves these.

To re-pin the digests after a deliberate change, run
``PYTHONPATH=src python tests/test_golden.py`` and say why in the change log.
"""

import hashlib
import json
import re
import tempfile
from pathlib import Path

import pytest

from mfsim.harness import (
    ProtocolConfig, emit_report, noiseless_plan_fidelity, run_ensemble, run_trajectory)

from byte_identity_configs import CONFIGS as BYTE_IDENTITY_CONFIGS

_TROTTER = {
    "n_qubits": 3,
    "terms": [
        {"sites": [0, 1], "axes": "XX", "coeff": 1.0},
        {"sites": [1, 2], "axes": "ZZ", "coeff": 0.7},
    ],
}

CONFIGS = {
    "lossless": {
        "hamiltonian": _TROTTER, "t": 0.5, "n_steps": 8, "trajectories": 12, "master_seed": 31,
    },
    "backup-loss60": {
        "hamiltonian": {"n_qubits": 2, "terms": [{"sites": [0, 1], "axes": "XX", "coeff": 1.0}]},
        "t": 0.8, "n_steps": 5, "trajectories": 8, "master_seed": 32,
        "policy": {"max_rounds": 40000},
        "loss": {"p_loss": 0.6, "backup_enabled": True},
    },
    "silent-occupation": {
        "hamiltonian": {
            "n_qubits": 3,
            "terms": [
                {"sites": [0, 1], "axes": "XX", "coeff": 1.0},
                {"sites": [1, 2], "axes": "YZ", "coeff": 0.6},
            ],
        },
        "t": 0.8, "n_steps": 3, "trajectories": 12, "master_seed": 33,
        "loss": {"p_loss": 0.3, "encoding": "occupation"},
    },
    "paper-doubling": {
        "hamiltonian": _TROTTER, "t": 0.9, "n_steps": 6, "trajectories": 12, "master_seed": 34,
        "policy": {"mode": "paper_doubling"},
    },
    # index 256 opens the second block of trajectory seeds, and the master seed has two words;
    # 3 trajectories (up to 361 rounds) take more than 256 draws, past the fourth of their
    # generator's 64-draw lists
    "block-edge": {
        "hamiltonian": {"n_qubits": 2, "terms": [{"sites": [0, 1], "axes": "XX", "coeff": 1.0}]},
        "t": 0.8, "n_steps": 5, "trajectories": 260, "master_seed": 2**40 + 5,
        "policy": {"max_rounds": 40000},
        "loss": {"p_loss": 0.6, "backup_enabled": True},
    },
}

GOLDEN = {
    "lossless": "b7c7b97a10fcee5157906e3a22af06ae981581944af716126f0d0f9068a80013",
    "backup-loss60": "b88529840edfbb59148a116240a482b6e0e1a29a00cbf613246cdff91e084976",
    "silent-occupation": "70e09a71d237bb59a0b4b0cbbde2bf6dc6f0d15cca0e76637d83af4b2a31e0d3",
    "paper-doubling": "436790154b80f92b886bb75908f9543628f2e3bd69ecb1f7acce213cbd895afe",
    "block-edge": "4f3a0a4652536dc52e206de1529bcf6d8112da2b1864792da851692fd3bc9d40",
}

FILE_GOLDEN = {
    "backup-loss": (
        "b13b2c3955fb7f4ace6898b3c20d63f032f625c35473f4d46a3b726bb70ab145",
        "d5cadb700aa00e8738b812d3127c9662c014400dcaffe5519204d7949693345a",
        "c55bf6e1e0585347110d23d7d073a46b0962d4f33a49c90b40e3a35c6ec51bb9",
    ),
    "heralded-loss": (
        "e8e66b649b1c99fa308f8c89ec8618673d55394b39e0e5d913256d08002aeedc",
        "cac09ffd17a85ff9781fb1461f1f9941ae0a4a36287124f7c4012762770bdc65",
        "36c6787f0602789a70a2f19caeff1157540145088c4d52c50b1df3b4bef55fc4",
    ),
    "silent-loss": (
        "5f1430695ab4183b2cf6661025319deb22fe136de8239f90315ccd6171e5b9fe",
        "ab104a1d93eccfeef1ebc678396f951a8c91dd5a4a4a31dacd995f3a3f5ae3f7",
        "b7fa441cc7163af6afafd438d1fe448b565b0cdf19ecf3c4a0859d2cdaf2cae1",
    ),
    "paper-doubling": (
        "c11cef2609f492840806ae1d5a6c150cf8f017b2a3267df621eb023e755bc6ee",
        "962b707b8924deb6b4e81855de89e65446443ddb8a43cb24c467b8a2f422d9db",
        "1b2ab619721b29db2d9c77834e22071e342199583d90a7e12338c9298639731e",
    ),
    "backup-paper-doubling": (
        "9da75bf34cfbfbc9f22023f985e92b65ea670238dce39d04e483bb804f75a348",
        "406291cc56e5e188efe4c5a75bd81116302ab8623fa3faea3244bfc324262f42",
        "40d72f1462767c54ae0bb2895c08a2d2aef8fa6dfbde5c80ac4c37cd1250f9c5",
    ),
    "heisenberg": (
        "6084795cf4f205bf4ef8509d8691067551278bc00e2db8945ce596ef3377e75f",
        "0a31ba97f30695435f359d21adcdfe46d41a47670a9d2897e375e1a0bfc883f1",
        "20d4fe4026938cac6f0ea9230db77b6a9ae508a6f198d71ffda1c322db9872d9",
    ),
    "heisenberg4-loss": (
        "5dcffaa0ec82c27444966c4c78523dd99a5940c3bbae774bcdacdbb568089dd5",
        "1de3910049c31837c4e227baa72dcdea46ad50f578c45ad77bda171cc6efd159",
        "fab99a336e4e9ebbd138e32c6341217a8dfc37ec437845d6474d33a9c7aeb023",
    ),
    "many-angles": (
        "cb0f576a9164f37f5ad7847ba949da8e52fae36f40b32e1321d9a3e158ac27d4",
        "014a085b18aae61d03ac6bc52aded760bac3cc6c5b0e61268ddfc328ef5c2931",
        "b4ded18832966d39baccdb2844395cd248da93fd5d383c17a54861156f1ec8d2",
    ),
    "waiting-overflow": (
        "b5bb3d7b0d3e1998e12f39d5be9582319bcb066fc22726fbc673b4e8937dc77c",
        "b778e86674e9ded19a985f9b51ea86451894143e3feba9837729cbb5e007c9f4",
        "9754244e9ae6bd19a16b4edb3c5f0bacfae4f9d12ee85f3f56e75ebdf58ef6df",
    ),
    "block-edge": (
        "1ccbbd31ac4df4a3f908a268280c0829f0816f16f19a6b78a54e7ac5045c675a",
        "37b8b6ae1bb9308ef39477df30af3ce24697e752155d3da9be8534ed8c025758",
        "cf1513c07965f10a4227997af093e1a2ab51b9f944ca21c380f591b91814f4a6",
    ),
    "past-cap": (
        "3e90e362d2eef092967d6ca4da6563cd78c7fa675389a5315202e2bd5e799f65",
        "ff64b2ee2ac9f07b6e54f02b8d87a4057d8efc7b6e72d5f42c97d88efdad38d4",
        "09f82933863bb09e1e0b91d0d8f9a69cc153ae98ecb6d0f94c467b22f2158881",
    ),
    "many-keys": (
        "2cc6c43499175a0923b18ea9b4b4e028722e4189fe8446bb9e800d0271f6485e",
        "0b927447df2d1101d0d2a781ae0ab0db61a7508c12092f15faa940b952dae23d",
        "97d28033e1cbee0d90d4db29ab59aaac797cbd75fcaf813cf743e1158543b0de",
    ),
    "paper-doubling-failing": (
        "2f6a460d3e67bfe24125db5ec86ef26c7dd5a749ed970fcd7822b0c29a69e671",
        "059010a220cf9b1e1d1963c669a77c821a5b679389d3484a1325cbb08b7ae3b0",
        "ef3835e4c178743161cd43750f807af59c5c13ea6c32dee1856ac386404099af",
    ),
    "chain10": (
        "4cecfc6147594d167f0bf31b46147fca99c748344959a5da97879d1735090adb",
        "10b7beecacb91510856371a0993fc58f2f711d5b4f0f7c5420494de1b8f8d7f7",
        "d23bea3fbbdcf475ac5d6924c178e054efd8f44499ec3aaf93bda9cd39e3c761",
    ),
    "no-op-rotation": (
        "17807439662385c7695c2447b1584c0a7141459c96801f36518b4e39325bc206",
        "a387444eb692e4fd7b3c5c67540d9cc3960b15e289e17cfc3c56529d100b5249",
        "be0189aefb8af935f404cddf9479b5566b2489806a09dee3cb321909a6aa54f4",
    ),
}


def records_digest(config: dict) -> str:
    cfg = ProtocolConfig.from_dict(config)
    runs = []
    for i in range(cfg.trajectories):
        stats = run_trajectory(cfg, i)
        runs.append({"rounds": [r.to_dict() for r in stats.records], "final_frame": stats.final_frame})
    return hashlib.sha256(json.dumps(runs, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("name", CONFIGS)
def test_round_records_match_golden_digest(name):
    assert records_digest(CONFIGS[name]) == GOLDEN[name]


# report.json's fidelity block and each audit line's fidelity_vs_oracle
_FIDELITY = re.compile(r'("fidelity(?:_vs_oracle)?": )(?:\{[^}]*\}|[^,}\n]*)')
_FILES = ("report.json", "audit.jsonl", "rounds_per_rotation.csv")


def file_digests(config: dict, out_dir) -> tuple[str, ...]:
    """The sha256 of each of ``_FILES`` written for ``config``, its fidelity numbers read as 0."""
    report, stats = run_ensemble(ProtocolConfig.from_dict(config))
    emit_report(report, stats, out_dir, fmt="csv")
    texts = [_FIDELITY.sub(r"\g<1>0", (Path(out_dir) / name).read_text()) for name in _FILES]
    return tuple(hashlib.sha256(text.encode()).hexdigest() for text in texts)


@pytest.mark.parametrize("name", BYTE_IDENTITY_CONFIGS)
def test_report_audit_and_csv_bytes_match_golden_digests(name, tmp_path):
    assert file_digests(BYTE_IDENTITY_CONFIGS[name], tmp_path) == FILE_GOLDEN[name]


def test_fidelity_numbers_alone_are_replaced():
    line = ('{"failed": false, "fidelity_vs_oracle": 0.9999999999999996, "final_frame": "XI"}\n'
            '"fidelity": {\n    "mean": 1.0,\n    "min": 0.5\n  },\n  "loss": {}')
    assert _FIDELITY.sub(r"\g<1>0", line) == (
        '{"failed": false, "fidelity_vs_oracle": 0, "final_frame": "XI"}\n'
        '"fidelity": 0,\n  "loss": {}')


def test_backup_loss_fidelities_sit_on_the_noiseless_envelope():
    """Long loss runs fold many Pauli rounds into each rotation; none may move the fidelity."""
    cfg = ProtocolConfig.from_dict(CONFIGS["backup-loss60"])
    envelope = noiseless_plan_fidelity(cfg)
    stats = [run_trajectory(cfg, i) for i in range(cfg.trajectories)]
    assert not any(s.failed for s in stats)
    for s in stats:
        assert abs(s.fidelity_vs_oracle - envelope) <= 1e-12, s.index


if __name__ == "__main__":
    print("GOLDEN = {")
    for name, config in CONFIGS.items():
        print(f'    "{name}": "{records_digest(config)}",')
    print("}\n\nFILE_GOLDEN = {")
    with tempfile.TemporaryDirectory() as tmp:
        for name, config in BYTE_IDENTITY_CONFIGS.items():
            digests = "".join(f'\n        "{d}",' for d in file_digests(config, Path(tmp) / name))
            print(f'    "{name}": ({digests}\n    ),')
    print("}")
