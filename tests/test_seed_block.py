"""Trajectory generators from seed blocks: the same streams as numpy's SeedSequence, built cheaply.

``trajectory_rng(s, i)`` seeds PCG64 with words that ``harness._seed_block``
derives for 256 indices at once, a port of SeedSequence's hashing on uint32
arrays.  Its streams must equal ``Generator(PCG64(SeedSequence([s, i])))``
bit for bit, and so must ``run_trajectory``'s stream of uniforms, which reads
the first 256 draws from the trajectory's row of a ``harness._draw_block``
(32 trajectories' first draws as tuples of floats, built by the first
trajectory that reads it) and the rest from that one generator, moved past
them by ``advance(256)``, 64 draws at a time.  The module runs with warnings
as errors: the port's uint32 products wrap, and numpy must not warn about
that on any supported version.
"""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfsim import harness
from mfsim.harness import ProtocolConfig, emit_report, run_ensemble, run_trajectory, trajectory_rng
from mfsim.compiler import TrotterPlan
from mfsim.statevec import RegisterLayout, StateVector

from byte_identity_configs import CONFIGS

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


# indices within a seed block, besides the edges in INDICES
@pytest.mark.parametrize("index", sorted({*INDICES, 31, 32, 63, 64}))
@pytest.mark.parametrize("seed", SEEDS)
def test_uniform_stream_equals_generator_draws(seed, index):
    """Across nine lists of 64 draws and into the tenth."""
    stream, rng = harness._trajectory_uniforms(seed, index), trajectory_rng(seed, index)
    count = 2 * 256 + 64 + 7
    assert [stream.random() for _ in range(count)] == [rng.random() for _ in range(count)]


def test_draw_block_holds_each_rows_first_draws_read_only():
    block = harness._draw_block(2**40 + 5, 9)
    assert type(block) is tuple and len(block) == 32
    for row in (0, 1, 31):
        draws = block[row]
        assert type(draws) is tuple and all(type(d) is float for d in draws)
        expected = reference_rng(2**40 + 5, 288 + row).random(256)
        assert np.array_equal(np.array(draws).view(np.uint64), expected.view(np.uint64))
        with pytest.raises(TypeError):
            draws[0] = 0.5


def test_streams_and_codes_do_not_depend_on_what_the_draw_block_cache_holds():
    """Block 2 of block-edge, indices 64 to 95; index 77 reads 258 draws, past its row."""
    cfg = ProtocolConfig.from_dict(CONFIGS["block-edge"])
    other = ProtocolConfig.from_dict({**CONFIGS["block-edge"], "master_seed": 5})
    indices, count = (64, 77, 95), 300

    def run(index):
        stream = harness._trajectory_uniforms(cfg.master_seed, index)
        return [stream.random() for _ in range(count)], run_trajectory(cfg, index).codes

    expected = {}
    for index in indices:
        harness._draw_block.cache_clear()
        draws = trajectory_rng(cfg.master_seed, index).random(count).tolist()
        expected[index] = draws, run(index)[1]
    assert len(expected[77][1]) > 256 > max(len(expected[i][1]) for i in (64, 95))
    for index in indices:  # each index twice in a row
        assert run(index) == expected[index] and run(index) == expected[index], index
    for index in reversed(indices):  # within the block in reverse
        assert run(index) == expected[index], index
    for index in indices:  # after the other seed's trajectory has evicted the block
        run_trajectory(other, index)
        assert run(index) == expected[index], index


def test_run_trajectory_builds_the_draw_blocks_and_run_ensemble_does_not(monkeypatch):
    cfg = ProtocolConfig.from_dict({**TROTTER3, "trajectories": 40})
    run = harness.run_trajectory
    builds = []  # draw blocks built outside and inside each trajectory

    def misses():
        return harness._draw_block.cache_info().misses

    def trajectory(cfg, index):
        before = misses()
        stats = run(cfg, index)
        builds.append((before, misses() - before))
        return stats

    harness._draw_block.cache_clear()
    monkeypatch.setattr(harness, "run_trajectory", trajectory)
    run_ensemble(cfg)
    # blocks 0 and 1, by trajectories 0 and 32, and none between the trajectories
    assert [before for before, _ in builds] == [0] + [1] * 32 + [2] * 7
    assert [i for i, (_, built) in enumerate(builds) if built] == [0, 32] and misses() == 2


def test_seed_words_serve_only_the_pcg64_request():
    seed = trajectory_rng(3, 4).bit_generator.seed_seq
    with pytest.raises(ValueError, match="four uint64 words"):
        seed.generate_state(8)


_NEGATIVE = f"""
import dataclasses
import numpy as np
from mfsim.errors import UsageError
from mfsim.harness import ProtocolConfig, _draw_block, _seed_block, run_trajectory, trajectory_rng

cfg = ProtocolConfig.from_dict({TROTTER3!r})
run_trajectory(cfg, 300)
for seed, index in [(-1, 0), (0, -1), (-2**40, 3), (5, -2**70), (-1, -1)]:
    try:
        np.random.SeedSequence([seed, index])
    except ValueError as exc:
        expected = str(exc)
    before = _seed_block.cache_info(), _draw_block.cache_info()
    builds = [trajectory_rng]
    try:  # no config holds a negative seed
        seeded = dataclasses.replace(cfg, master_seed=seed)
    except UsageError as exc:
        assert seed < 0 and str(exc) == "master_seed must be non-negative", (seed, str(exc))
    else:
        builds.append(lambda s, i: run_trajectory(seeded, i))
    for build in builds * 2:
        try:
            build(seed, index)
        except ValueError as exc:
            assert str(exc) == expected, (seed, index, str(exc), expected)
        else:
            raise AssertionError(f"no error for {{(seed, index)}}")
    assert (_seed_block.cache_info(), _draw_block.cache_info()) == before, (seed, index)
print("raised")
"""


def test_negative_seed_or_index_raises_and_leaves_the_cache():
    """A negative int must raise numpy's ValueError at once, not loop on its words.

    ``trajectory_rng`` and ``run_trajectory`` raise it on each call and build no seed or draw
    block; a config with a negative ``master_seed`` is not built.
    """
    proc = subprocess.run([sys.executable, "-c", _NEGATIVE], capture_output=True, text=True,
                          env=CHILD_ENV, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "raised"


def test_warm_trajectory_builds_no_seed_sequence_or_layout(monkeypatch):
    """Nor a register or a sweep tuple: the config and its plan keep them."""
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
    wrap = spy("register", StateVector._wrap.__func__)
    monkeypatch.setattr(StateVector, "_wrap", classmethod(wrap))
    monkeypatch.setattr(TrotterPlan, "sweep_rotations", spy("sweep", TrotterPlan.sweep_rotations))
    stats = run_trajectory(cfg, 1)
    trajectory_rng(cfg.master_seed, 1000)  # a cold block
    assert not stats.failed and stats.rounds_total > 0
    assert built == []
    # PCG64 got ready words, so it built no SeedSequence of its own
    from numpy.random.bit_generator import ISeedSequence, SeedSequence

    assert len(seeds) == 1  # the cold trajectory_rng; the warm trajectory reads its draw block
    assert all(isinstance(s, ISeedSequence) and not isinstance(s, SeedSequence) for s in seeds)


def test_audit_lines_do_not_depend_on_the_ensemble_size(tmp_path):
    # one trajectory, 33, and 257, which cross a 256-index seed block
    def audit_lines(trajectories):
        out = tmp_path / str(trajectories)
        cfg = ProtocolConfig.from_dict({**TROTTER3, "trajectories": trajectories})
        emit_report(*run_ensemble(cfg), out)
        return (out / "audit.jsonl").read_text().splitlines(keepends=True)

    every = audit_lines(300)
    assert len(every) == 300
    for k in (1, 33, 257):
        assert audit_lines(k) == every[:k], k


def test_configs_run_in_turn_give_their_own_audit_entries():
    # each trajectory of one config evicts the other's draw block
    configs = [ProtocolConfig.from_dict({**TROTTER3, "trajectories": 40, "master_seed": seed})
               for seed in (123456789, 2**64 + 3)]
    alone = [[run_trajectory(cfg, i).to_dict() for i in range(cfg.trajectories)]
             for cfg in configs]
    in_turn = [[], []]
    for i in range(40):
        for entries, cfg in zip(in_turn, configs):
            entries.append(run_trajectory(cfg, i).to_dict())
    assert in_turn == alone and alone[0] != alone[1]


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
