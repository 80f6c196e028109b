"""Trajectory generators from seed blocks: the same streams as numpy's SeedSequence, built cheaply.

``trajectory_rng(s, i)`` seeds PCG64 with words that ``harness._seed_block``
derives for 256 indices at once, a port of SeedSequence's hashing on uint32
arrays.  Its streams must equal ``Generator(PCG64(SeedSequence([s, i])))``
bit for bit.  The module runs with warnings as errors: the port's uint32
products wrap, and numpy must not warn about that on any supported version.
"""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfsim import harness
from mfsim.harness import ProtocolConfig, run_trajectory, trajectory_rng
from mfsim.statevec import RegisterLayout

pytestmark = pytest.mark.filterwarnings("error")

SRC = Path(__file__).resolve().parents[1] / "src"
CHILD_ENV = {"PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"}

# one and two 32-bit words, and past 64 and 128 bits
SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**130 + 7]
# the edges of a 256-index block and of the index's first word
INDICES = [0, 255, 256, 511, 2**32 - 1, 2**32]

TROTTER3 = {  # the C4 configuration
    "hamiltonian": {"n_qubits": 3, "terms": [{"sites": [0, 1], "axes": "XX", "coeff": 1.0},
                                             {"sites": [1, 2], "axes": "ZZ", "coeff": 0.7}]},
    "t": 0.5, "n_steps": 16, "policy": {"max_rounds": 256},
    "initial_state": {"random_seed": 7}, "trajectories": 3, "master_seed": 123456789,
}


def reference_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, index])))


def assert_same_stream(seed: int, index: int):
    ours, ref = trajectory_rng(seed, index), reference_rng(seed, index)
    assert ours.bit_generator.state == ref.bit_generator.state
    for draw in (lambda g: g.random(7), lambda g: g.normal(size=7),
                 lambda g: g.integers(0, 2**63, size=7), lambda g: g.integers(-5, 5, size=7)):
        assert np.array_equal(draw(ours), draw(ref))


@pytest.mark.parametrize("index", INDICES)
@pytest.mark.parametrize("seed", SEEDS)
def test_stream_equals_seed_sequence_stream(seed, index):
    assert_same_stream(seed, index)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**130 + 7), index=st.integers(0, 2**32))
def test_stream_equals_seed_sequence_stream_everywhere(seed, index):
    assert_same_stream(seed, index)


def test_block_holds_seed_sequence_words_read_only():
    block = harness._seed_block(2**40 + 5, 1)
    assert block.shape == (256, 4) and block.dtype == np.uint64 and not block.flags.writeable
    for row in (0, 1, 128, 255):
        expected = np.random.SeedSequence([2**40 + 5, 256 + row]).generate_state(4, np.uint64)
        assert np.array_equal(block[row], expected)


def test_seed_words_serve_only_the_pcg64_request():
    seed = trajectory_rng(3, 4).bit_generator.seed_seq
    with pytest.raises(ValueError, match="four uint64 words"):
        seed.generate_state(8)


_NEGATIVE = """
import numpy as np
from mfsim.harness import _seed_block, trajectory_rng

trajectory_rng(9, 300)
for seed, index in [(-1, 0), (0, -1), (-2**40, 3), (5, -2**70), (-1, -1)]:
    try:
        np.random.SeedSequence([seed, index])
    except ValueError as exc:
        expected = str(exc)
    before = _seed_block.cache_info()
    for _ in range(2):
        try:
            trajectory_rng(seed, index)
        except ValueError as exc:
            assert str(exc) == expected, (seed, index, str(exc), expected)
        else:
            raise AssertionError(f"no error for {(seed, index)}")
    assert _seed_block.cache_info() == before, (seed, index)
print("raised")
"""


def test_negative_seed_or_index_raises_and_leaves_the_cache():
    """A negative int must raise numpy's ValueError at once, not loop on its words."""
    proc = subprocess.run([sys.executable, "-c", _NEGATIVE], capture_output=True, text=True,
                          env=CHILD_ENV, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "raised"


def test_warm_trajectory_builds_no_seed_sequence_or_layout(monkeypatch):
    cfg = ProtocolConfig.from_dict(TROTTER3)
    run_trajectory(cfg, 1)  # warm: the config's caches, this trajectory's round tables, its block
    built, seeds = [], []

    def spy(name, real):
        def build(*args, **kwargs):
            built.append(name)
            return real(*args, **kwargs)
        return build

    real_pcg64 = np.random.PCG64

    def pcg64(seed=None):
        seeds.append(seed)
        return real_pcg64(seed)

    monkeypatch.setattr(np.random, "SeedSequence", spy("SeedSequence", np.random.SeedSequence))
    monkeypatch.setattr(np.random, "PCG64", pcg64)
    monkeypatch.setattr(RegisterLayout, "__init__", spy("RegisterLayout", RegisterLayout.__init__))
    stats = run_trajectory(cfg, 1)
    trajectory_rng(cfg.master_seed, 1000)  # a cold block
    assert not stats.failed and stats.rounds_total > 0
    assert built == []
    # PCG64 got ready words, so it built no SeedSequence of its own
    from numpy.random.bit_generator import ISeedSequence, SeedSequence

    assert len(seeds) == 2
    assert all(isinstance(s, ISeedSequence) and not isinstance(s, SeedSequence) for s in seeds)


def _child_loads_numpy_random(code: str) -> bool:
    probe = f"{code}\nimport sys\nprint('numpy.random' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=CHILD_ENV, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip() == "True"


def test_parsing_a_config_leaves_numpy_random_unloaded():
    if _child_loads_numpy_random("import numpy"):
        pytest.skip("this numpy loads numpy.random when numpy is imported")
    parse = ("import mfsim\nfrom mfsim.harness import ProtocolConfig\n"
             f"ProtocolConfig.from_dict({TROTTER3!r})")
    assert not _child_loads_numpy_random(parse)
