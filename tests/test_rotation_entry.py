"""One program entry per rotation: its masks, first level, operators; one frame table.

``realize_v_kl`` makes one lookup in its program's ``entries`` per call.  The
entry holds the pair record's frame-key masks and Pauli strings, the first
level of the angle's doubling chain and the operators the rotation has
applied, keyed by (Theta, F).  Every operator built is kept for the
program's life.  A changed frame comes from ``pauli.frame_of_key``.  The
only module caches are the ones every config shares.
"""

import functools
import importlib
import inspect
import pkgutil
import sys
from pathlib import Path

import numpy as np
import pytest

import mfsim
import mfsim.feedback
import mfsim.pauli
from mfsim.feedback import EpsilonPolicy, Program, realize_v_kl
from mfsim.harness import ProtocolConfig, haar_random_amplitudes, run_ensemble, run_trajectory
from mfsim.loss import LossConfig
from mfsim.pauli import ErrorFrame, PauliAxis, PauliString
from mfsim.statevec import DENSE_PAIR_QUBITS, StateVector

from byte_identity_configs import CONFIGS as BYTE_IDENTITY_CONFIGS
from conftest import MODULE_CACHES, applier_arrays

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import make_config  # noqa: E402

PAIR = (2, 0)


def package_modules():
    return [importlib.import_module(f"mfsim.{info.name}")
            for info in pkgutil.iter_modules(mfsim.__path__)]


def package_caches():
    """Every callable with ``cache_clear`` defined in an ``mfsim`` module, or in one of its classes."""
    found = {}
    for module in package_modules():
        for name, value in vars(module).items():
            owners = [(name, value)]
            if inspect.isclass(value) and value.__module__ == module.__name__:
                owners += [(f"{name}.{attr}", getattr(member, "__func__", member))
                           for attr, member in vars(value).items()]
            for qualname, obj in owners:
                if callable(obj) and hasattr(obj, "cache_clear"):
                    found.setdefault(id(obj), f"{module.__name__}.{qualname}")
    return found


def test_the_package_caches_are_the_shared_ones():
    assert package_caches().keys() == {id(getattr(module, name)) for module, name in MODULE_CACHES}
    assert sorted(f"{module.__name__}.{name}" for module, name in MODULE_CACHES) == [
        "mfsim.harness._draw_block", "mfsim.harness._seed_block", "mfsim.harness._seed_words",
        "mfsim.loss._outcome_stack", "mfsim.pauli.frame_of_key", "mfsim.statevec._subset_index"]


def test_no_module_dict_or_list_grows_and_no_feedback_global_is_rebound_while_a_config_runs():
    def sizes():
        return {(module.__name__, name): len(value) for module in package_modules()
                for name, value in vars(module).items() if isinstance(value, (dict, list))}

    before, feedback = sizes(), dict(vars(mfsim.feedback))
    report, stats = run_ensemble(ProtocolConfig.from_dict(BYTE_IDENTITY_CONFIGS["many-angles"]))
    assert stats and sum(s.rounds_total for s in stats) > 0
    assert sizes() == before
    assert vars(mfsim.feedback).keys() == feedback.keys()
    assert all(vars(mfsim.feedback)[k] is v for k, v in feedback.items())


def test_the_scan_sees_a_cache_in_a_class(monkeypatch):
    probe = functools.cache(lambda cls: None)
    monkeypatch.setattr(mfsim.pauli.PauliString, "probe", classmethod(probe), raising=False)
    assert package_caches()[id(probe)] == "mfsim.pauli.PauliString.probe"


class Lookups(dict):
    """A program's entries that record the key of every ``get``."""

    def __init__(self, entries):
        super().__init__(entries)
        self.read = []

    def get(self, key, default=None):
        self.read.append(key)
        return super().get(key, default)


def forbid(monkeypatch, owner, name):
    def forbidden(*args, **kwargs):
        raise AssertionError(f"a warm trajectory called {name}")

    monkeypatch.setattr(owner, name, forbidden)


def test_warm_trotter3_trajectory_makes_one_lookup_per_rotation_and_builds_nothing(monkeypatch):
    cfg = ProtocolConfig.from_dict(make_config("trotter3", 0, 1))
    first = run_trajectory(cfg, 0)
    program = cfg.program
    kept = {key: dict(entry[-1]) for key, entry in program.entries.items()}
    frames = mfsim.pauli.frame_of_key.cache_info()
    program.entries = Lookups(program.entries)
    for name in ("entry", "pair_record", "level", "tables_ahead"):
        forbid(monkeypatch, Program, name)
    forbid(monkeypatch, mfsim.feedback, "_pair_operator")
    forbid(monkeypatch, mfsim.pauli, "PauliString")
    again = run_trajectory(cfg, 0)
    assert again.to_dict() == first.to_dict() and not again.failed
    sweep = list(cfg.plan.sweep_rotations())
    read = program.entries.read
    assert len(read) == len(again.rounds_per_rotation) == cfg.plan.n_steps * len(sweep)
    assert len(set(read)) == len(program.entries) == len(sweep)  # one entry per rotation of a step
    assert {key: dict(entry[-1]) for key, entry in program.entries.items()} == kept
    assert again.final_frame != "III"  # the frame changed, and its frames came from the table
    info = mfsim.pauli.frame_of_key.cache_info()
    assert info.misses == frames.misses and info.hits > frames.hits


def rotate_all(pairs, n, seed, program):
    """Rotations on ``pairs`` of an n-qubit register: (amplitudes, frame, record texts) each."""
    state = StateVector(haar_random_amplitudes(n, np.random.default_rng(seed)))
    rng, out = np.random.default_rng(seed), []
    frame = ErrorFrame.identity(n).updated(PauliString.from_str("YXZ" + "I" * (n - 3)))
    for pair, (k, l), t in zip(pairs, [(PauliAxis.X, PauliAxis.Z), (PauliAxis.Y, PauliAxis.Y),
                                       (PauliAxis.Z, PauliAxis.X)] * 4, (0.4, -1.1, 2.3) * 4):
        state, frame, records = realize_v_kl(state, pair, k, l, t, program.policy, frame, rng,
                                             program.loss, program)
        out.append((state.amplitudes, frame, list(records)))
    return out


@pytest.mark.parametrize("n", [3, 6])  # a dense operator, then a gathered one
def test_numpy_integer_sites_give_the_integer_sites_records_and_amplitudes(n):
    pairs = [(2, 0), (0, 1), (1, 2)] * 4
    numpy_pairs = [tuple(map(np.int64, p)) for p in pairs]
    runs = []
    for order in ((numpy_pairs, pairs), (pairs, numpy_pairs)):
        # the first run builds the entries, the second reads them
        program = Program(n, EpsilonPolicy(), LossConfig(p_loss=0.3))
        runs += [rotate_all(sites, n, 4, program) for sites in order]
    want = runs[2]  # int sites on a cold program
    for run in runs:
        for (amp, frame, texts), (want_amp, want_frame, want_texts) in zip(run, want):
            assert np.array_equal(amp, want_amp)
            assert frame == want_frame and texts == want_texts


@pytest.mark.parametrize("n", [3, 6])
def test_kept_operators_are_read_only_and_shared(n):
    state = StateVector(haar_random_amplitudes(n, np.random.default_rng(2)))
    program = Program(n, EpsilonPolicy())

    def rotations():
        for seed in range(20):
            realize_v_kl(state, PAIR, PauliAxis.X, PauliAxis.Z, 0.4, EpsilonPolicy(),
                         ErrorFrame.identity(n), np.random.default_rng(seed), program=program)

    rotations()
    (entry,) = program.entries.values()
    operators = entry[-1]
    assert 0 < len(operators) < 20  # twenty rotations, fewer products
    kept = dict(operators)
    rotations()  # the same draws read the same operators
    assert operators.keys() == kept.keys() and all(operators[p] is kept[p] for p in kept)
    for apply in operators.values():
        arrays = applier_arrays(apply)
        assert not any(a.flags.writeable for a in arrays)
        if n <= DENSE_PAIR_QUBITS:
            (op,) = arrays
            assert op.shape == (1 << n, 1 << n) and op.dtype == complex and apply == op.dot
        else:
            coeffs, index, phase = arrays
            assert coeffs.shape == (2,) and index.shape == phase.shape == (2, 1 << n)
