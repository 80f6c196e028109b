"""One cache entry per rotation: its masks, first level, operators; one frame table.

``realize_v_kl`` makes one ``feedback._rotation`` lookup per call.  The entry
holds the pair record's frame-key masks and Pauli strings, the first level
of the angle's doubling chain and the operators the rotation has applied,
keyed by (Theta, F).  Every operator built is kept; when all entries keep
``_OPERATOR_BOUND``, the cache is emptied.  A changed frame comes from
``pauli.frame_of_key``.
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
from mfsim.feedback import EpsilonPolicy, realize_v_kl
from mfsim.harness import (
    ProtocolConfig, emit_report, haar_random_amplitudes, run_ensemble, run_trajectory)
from mfsim.loss import LossConfig
from mfsim.pauli import ErrorFrame, PauliAxis, PauliString
from mfsim.statevec import DENSE_PAIR_QUBITS, StateVector

from conftest import MODULE_CACHES, applier_arrays, clear_module_caches

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import make_config  # noqa: E402

PAIR = (2, 0)


def package_caches():
    """Every callable with ``cache_clear`` defined in an ``mfsim`` module, or in one of its classes."""
    found = {}
    for info in pkgutil.iter_modules(mfsim.__path__):
        module = importlib.import_module(f"mfsim.{info.name}")
        for name, value in vars(module).items():
            owners = [(name, value)]
            if inspect.isclass(value) and value.__module__ == module.__name__:
                owners += [(f"{name}.{attr}", getattr(member, "__func__", member))
                           for attr, member in vars(value).items()]
            for qualname, obj in owners:
                if callable(obj) and hasattr(obj, "cache_clear"):
                    found.setdefault(id(obj), f"{module.__name__}.{qualname}")
    return found


def test_the_cache_helper_clears_every_package_cache():
    named = {id(getattr(module, name)) for module, name in MODULE_CACHES}
    missed = sorted(where for key, where in package_caches().items() if key not in named)
    assert missed == []


def test_the_scan_sees_a_cache_in_a_class(monkeypatch):
    probe = functools.cache(lambda cls: None)
    monkeypatch.setattr(mfsim.pauli.PauliString, "probe", classmethod(probe), raising=False)
    assert package_caches()[id(probe)] == "mfsim.pauli.PauliString.probe"


def spy_entries(monkeypatch, keys=None):
    """Every entry ``realize_v_kl`` reads while the test runs, in call order; keys go to ``keys``."""
    entries = []
    rotation = mfsim.feedback._rotation

    def spy(*key):
        entries.append(rotation(*key))
        if keys is not None:
            keys.append(key)
        return entries[-1]

    spy.cache_clear = rotation.cache_clear  # a full operator store empties the cache
    monkeypatch.setattr(mfsim.feedback, "_rotation", spy)
    return entries


def forbid(monkeypatch, module, name):
    def forbidden(*args, **kwargs):
        raise AssertionError(f"a warm trajectory called {name}")

    monkeypatch.setattr(module, name, forbidden)


def test_warm_trotter3_trajectory_makes_one_lookup_per_rotation_and_builds_nothing(monkeypatch):
    cfg = ProtocolConfig.from_dict(make_config("trotter3", 0, 1))
    clear_module_caches()
    first = run_trajectory(cfg, 0)
    kept, frames = mfsim.feedback._operators_kept[0], mfsim.pauli.frame_of_key.cache_info()
    entries = spy_entries(monkeypatch)
    for name in ("_pair_record", "_level", "_keep_operator"):
        forbid(monkeypatch, mfsim.feedback, name)
    forbid(monkeypatch, mfsim.pauli, "PauliString")
    again = run_trajectory(cfg, 0)
    assert again.to_dict() == first.to_dict() and not again.failed
    sweep = list(cfg.plan.sweep_rotations())
    assert len(entries) == len(again.rounds_per_rotation) == cfg.plan.n_steps * len(sweep)
    assert len(set(map(id, entries))) == len(sweep)  # one entry per rotation of a step
    assert mfsim.feedback._operators_kept[0] == kept
    assert again.final_frame != "III"  # the frame changed, and its frames came from the table
    info = mfsim.pauli.frame_of_key.cache_info()
    assert info.misses == frames.misses and info.hits > frames.hits


def rotate_all(pairs, n, seed):
    """Rotations on ``pairs`` of an n-qubit register: (amplitudes, frame, record texts) each."""
    state = StateVector(haar_random_amplitudes(n, np.random.default_rng(seed)))
    rng, out = np.random.default_rng(seed), []
    frame = ErrorFrame.identity(n).updated(PauliString.from_str("YXZ" + "I" * (n - 3)))
    for pair, (k, l), t in zip(pairs, [(PauliAxis.X, PauliAxis.Z), (PauliAxis.Y, PauliAxis.Y),
                                       (PauliAxis.Z, PauliAxis.X)] * 4, (0.4, -1.1, 2.3) * 4):
        state, frame, records = realize_v_kl(state, pair, k, l, t, EpsilonPolicy(), frame, rng,
                                             LossConfig(p_loss=0.3))
        out.append((state.amplitudes, frame, list(records)))
    return out


@pytest.mark.parametrize("n", [3, 6])  # a dense operator, then a gathered one
def test_numpy_integer_sites_give_the_integer_sites_records_and_amplitudes(n):
    pairs = [(2, 0), (0, 1), (1, 2)] * 4
    numpy_pairs = [tuple(map(np.int64, p)) for p in pairs]
    runs = []
    for order in ((numpy_pairs, pairs), (pairs, numpy_pairs)):
        clear_module_caches()  # the first run builds the entries, the second reads them
        runs += [rotate_all(sites, n, 4) for sites in order]
    want = runs[2]  # int sites on cold caches
    for run in runs:
        for (amp, frame, texts), (want_amp, want_frame, want_texts) in zip(run, want):
            assert np.array_equal(amp, want_amp)
            assert frame == want_frame and texts == want_texts


@pytest.mark.parametrize("n", [3, 6])
def test_kept_operators_are_read_only_and_shared(n, monkeypatch):
    state = StateVector(haar_random_amplitudes(n, np.random.default_rng(2)))
    clear_module_caches()
    entries = spy_entries(monkeypatch)

    def rotations():
        for seed in range(20):
            realize_v_kl(state, PAIR, PauliAxis.X, PauliAxis.Z, 0.4, EpsilonPolicy(),
                         ErrorFrame.identity(n), np.random.default_rng(seed))

    rotations()
    assert len(set(map(id, entries))) == 1
    operators = entries[0][-1]
    # twenty rotations, fewer products
    assert 0 < len(operators) == mfsim.feedback._operators_kept[0] < 20
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


def reports(name, tmp_path):
    """The seed-0 benchmark ensemble's report.json and audit.jsonl bytes."""
    trajectories = {"trotter3": 300, "backup2-loss60": 150}[name]
    cfg = ProtocolConfig.from_dict(make_config(name, 0, trajectories))
    report, stats = run_ensemble(cfg)
    emit_report(report, stats, tmp_path)
    return [(tmp_path / f).read_bytes() for f in ("report.json", "audit.jsonl")]


@pytest.mark.parametrize("name", ["trotter3", "backup2-loss60"])
def test_a_two_operator_bound_changes_no_byte(name, tmp_path, monkeypatch):
    want = reports(name, tmp_path / "default")
    clear_module_caches()
    monkeypatch.setattr(mfsim.feedback, "_OPERATOR_BOUND", 2)
    keys, built, counts = [], [], []
    entries = spy_entries(monkeypatch, keys)
    keep, pair_operator = mfsim.feedback._keep_operator, mfsim.feedback._pair_operator

    def counted_keep(*args):
        built.append(args)
        return keep(*args)

    def counted_pair_operator(*args):
        apply = pair_operator(*args)

        def counted(amplitudes):  # each state update, kept operator or new, comes through here
            counts.append(mfsim.feedback._operators_kept[0])
            return apply(amplitudes)

        counted.apply = apply
        return counted

    monkeypatch.setattr(mfsim.feedback, "_keep_operator", counted_keep)
    monkeypatch.setattr(mfsim.feedback, "_pair_operator", counted_pair_operator)
    assert reports(name, tmp_path / "two") == want
    # each time two operators were kept, the entries were dropped and the count restarted
    assert len(built) > 2 and max(counts) == 1
    for operators, _, product in built:  # every operator built was kept, read-only
        assert not any(a.flags.writeable for a in applier_arrays(operators[product].apply))
    monkeypatch.undo()  # the cached function again, past the spy
    latest = dict(zip(keys, entries))
    live = [e for key, e in latest.items() if mfsim.feedback._rotation(*key) is e]
    assert sum(len(e[-1]) for e in live) == mfsim.feedback._operators_kept[0] < 2


def test_a_config_after_a_full_operator_store_keeps_its_operators(monkeypatch):
    clear_module_caches()
    monkeypatch.setattr(mfsim.feedback, "_OPERATOR_BOUND", 64)
    run_ensemble(ProtocolConfig.from_dict(make_config("trotter3", 0, 20)))  # 67 operators
    pair = {"n_qubits": 2, "terms": [{"sites": [0, 1], "axes": "XX", "coeff": 1.0}]}
    cfg = ProtocolConfig.from_dict({"hamiltonian": pair, "t": 0.8, "n_steps": 3,
                                    "trajectories": 6, "master_seed": 5})
    entries = spy_entries(monkeypatch)
    first = run_ensemble(cfg)
    assert entries and all(entry[-1] for entry in entries)  # 11 operators, all kept
    forbid(monkeypatch, mfsim.feedback, "_keep_operator")
    assert run_ensemble(cfg)[0] == first[0]
