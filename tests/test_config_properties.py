"""Property tests at the config boundary.

Any JSON value put at one key path of a valid config, or the key removed,
makes ``mfsim schedule`` exit 0, 2 or 3 and never escape with an exception;
and every valid config survives ``from_dict(to_dict())``.  Examples are
derandomized and bounded.  ``simulate`` is never run: a valid but huge
``trajectories`` or ``n_steps`` runs for ever.
"""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from mfsim.cli import EXIT_CONFIG, EXIT_OK, EXIT_RESOURCE, main
from mfsim.harness import WORK_BUDGET, ProtocolConfig

HAMILTONIAN = {"n_qubits": 2, "terms": [{"sites": [0, 1], "axes": "XY", "coeff": 0.7}]}
BASES = [
    {"hamiltonian": HAMILTONIAN, "t": 0.5, "n_steps": 2,
     "policy": {"mode": "paper_doubling", "max_rounds": 8},
     "loss": {"p_loss": 0.3, "encoding": "polarization", "backup_enabled": True},
     "initial_state": {"random_seed": 3}, "trajectories": 2, "master_seed": 1},
    {"hamiltonian": HAMILTONIAN, "t": 0.5, "n_steps": 2,
     "loss": {"p_loss": 0.3, "encoding": "occupation"},
     "initial_state": {"amplitudes": [[0.6, 0], [0, 0.8], [0, 0], [0, 0]]}},
]


def key_paths(value, path=()):
    """Every key path into ``value``: dict keys and list indices, the empty path first."""
    yield path
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        yield from key_paths(item, (*path, key))


CASES = [(base, path) for base in BASES for path in key_paths(base)]
REMOVE = object()  # take the key out instead of setting it

SCALARS = (st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
           | st.sampled_from([0, 1, 2, -1, 0.5, 10**400, 2**63, "XX", "IX", "all_plus",
                              "residual_exact", "occupation", [0, 1], [1, 0]]))
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner,
                                                               max_size=3),
    max_leaves=8,
)


def replaced(base, path, value):
    if not path:
        return {} if value is REMOVE else value
    cfg = copy.deepcopy(base)
    parent = cfg
    for key in path[:-1]:
        parent = parent[key]
    if value is REMOVE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return cfg


def schedule(cfg) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(cfg))
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = main(["schedule", "--config", str(path)])
    if code == EXIT_CONFIG:
        assert err.getvalue().startswith(("config error:", "usage error:")), err.getvalue()
    return code


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.sampled_from(CASES), JSON_VALUES | st.just(REMOVE))
def test_any_value_at_any_key_path_exits_cleanly(case, value):
    base, path = case
    assert schedule(replaced(base, path, value)) in (EXIT_OK, EXIT_CONFIG, EXIT_RESOURCE)


def test_the_bases_are_valid():
    assert all(schedule(base) == EXIT_OK for base in BASES)


@st.composite
def valid_configs(draw):
    """A config that names every key, with values the parser keeps as given."""
    n = draw(st.integers(2, 4))
    sites = st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)
    terms = draw(st.lists(st.fixed_dictionaries({
        "sites": sites,
        "axes": st.text("XYZ", min_size=2, max_size=2),
        "coeff": st.floats(-10, 10) | st.integers(-10, 10),
    }), max_size=4))
    encoding = draw(st.sampled_from(["polarization", "occupation"]))
    amplitudes = st.lists(st.lists(st.floats(-1, 1), min_size=2, max_size=2),
                          min_size=1 << n, max_size=1 << n).filter(
        lambda amps: sum(re * re + im * im for re, im in amps) > 1e-6)
    n_steps, trajectories = draw(st.integers(1, 50)), draw(st.integers(0, 10**6))
    # within the work budget: at most WORK_BUDGET rounds at worst over all rotations
    rounds = WORK_BUDGET // max(1, trajectories * n_steps * len(terms))
    return {
        "hamiltonian": {"n_qubits": n, "terms": terms},
        "t": draw(st.floats(-5, 5)),
        "n_steps": n_steps,
        "policy": {"mode": draw(st.sampled_from(["residual_exact", "paper_doubling"])),
                   "max_rounds": draw(st.integers(1, min(10**6, rounds)))},
        "loss": {"p_loss": draw(st.floats(0, 1)), "encoding": encoding,
                 "backup_enabled": draw(st.booleans()) and encoding == "polarization"},
        "initial_state": draw(st.sampled_from(["all_zeros", "all_plus"])
                              | st.fixed_dictionaries({"random_seed": st.integers(0, 2**40)})
                              | st.fixed_dictionaries({"amplitudes": amplitudes})),
        "trajectories": trajectories,
        "master_seed": draw(st.integers(0, 2**40)),
    }


@settings(derandomize=True, max_examples=150, deadline=None)
@given(valid_configs())
def test_from_dict_round_trips_to_dict(d):
    cfg = ProtocolConfig.from_dict(d)
    assert cfg.to_dict() == d
    again = ProtocolConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
    assert again == cfg and again.to_dict() == cfg.to_dict()
