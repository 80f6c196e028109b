"""Round tables built a block at a time, as a feedback level builds its chain's next levels.

``loss.round_tables`` builds the tables of many eps in one pass, and each
must be bit for bit the table its eps gives alone: ``round_branches``, and
``one_table``, the single-table numpy pass it replaced.  A
feedback level that finds no table waiting for it builds the tables of its
chain's next ``feedback._BLOCK`` levels, up to where the chain closes, takes
its own and leaves the rest waiting; a level reached later takes its table.
The block length changes no report byte and no level.
"""

import math

import numpy as np
import pytest

import mfsim.feedback
import mfsim.loss
from mfsim.emission import PhotonEncoding
from mfsim.errors import ProtocolError, UsageError
from mfsim.feedback import EpsilonPolicy, PolicyMode, Program, reduce_angle
from mfsim.harness import ProtocolConfig, emit_report, run_ensemble
from mfsim.loss import LossConfig, RoundTable, round_branches, round_tables

from byte_identity_configs import CONFIGS

LOSSES = {
    "lossless": LossConfig(),
    "heralded": LossConfig(p_loss=0.3),
    "silent": LossConfig(p_loss=0.3, encoding=PhotonEncoding.OCCUPATION),
    "backup": LossConfig(p_loss=0.6, backup_enabled=True),
}


def chain_eps(t, mode, length):
    """The eps of the first ``length`` levels of ``t``'s doubling chain, up to where it closes."""
    rule, residual, eps = EpsilonPolicy(mode).eps_for, reduce_angle(t), []
    while len(eps) < length and residual is not None:
        eps.append(rule(abs(residual)))
        residual = reduce_angle(residual + residual)
    return eps


def one_table(eps, loss):
    """The table at ``eps`` built alone, one numpy pass over its branches: the reference.

    This is the single-table build ``round_tables`` replaced, with the weights'
    total a 1-D numpy sum and the running sums a 1-D ``cumsum`` over the kept branches.
    """
    eigen, records = mfsim.loss._outcome_stack(loss)
    coeffs = [1.0 - eps, eps, math.sqrt(eps * (1.0 - eps))]
    eigenvalues = np.dot(coeffs, eigen.reshape(3, -1)).reshape(-1, 4)
    weights = (np.abs(eigenvalues) ** 2).sum(axis=1) / 4
    keep = weights > mfsim.loss._ZERO_BRANCH
    eigenvalues, weights = eigenvalues[keep], weights[keep]
    phases = eigenvalues / np.abs(eigenvalues)
    kraus = np.dot(eigenvalues, mfsim.loss._SIGN_PROJECTORS.reshape(4, 16)).reshape(-1, 4, 4)
    kraus.flags.writeable = False
    cumulative = (*(np.cumsum(weights[:-1]) / weights.sum()).tolist(), 1.0)
    turns = phases[:, 1:3] * phases[:, :1].conj()
    signs = np.where(turns.real < 0.0, -1.0, 1.0)
    theta = np.log(signs[:, 0] * turns[:, 0]).imag / -2 + 0.0
    strings = (signs[:, 0] < 0.0) + 2 * (signs[:, 1] < 0.0)
    powers = np.rint(np.log(phases[:, 0] * np.exp(-1j * theta)).imag * (2 / np.pi)).astype(int) & 3
    branches = tuple(r for r, k in zip(records, keep) if k)
    return RoundTable(kraus, branches, cumulative,
                      tuple(zip(theta.tolist(), powers.tolist(), strings.tolist())))


def bits(table):
    """Everything a table holds, its floats as their bytes."""
    return (np.array(table.cumulative).tobytes(), table.branches,
            np.array([f[0] for f in table.forms]).tobytes(), [f[1:] for f in table.forms],
            table.kraus.tobytes(), table.kraus.shape, table.kraus.flags.writeable)


@pytest.mark.parametrize("t", [0.7, -2.9, 1e-3, math.pi / 4, math.pi / 2])
@pytest.mark.parametrize("mode", list(PolicyMode))
@pytest.mark.parametrize("loss", LOSSES.values(), ids=LOSSES)
def test_a_block_of_tables_is_bit_for_bit_the_tables_built_one_at_a_time(loss, mode, t):
    block = chain_eps(t, mode, mfsim.feedback._BLOCK)
    for eps in (block, block[::-1]):
        tables = round_tables(eps, loss)
        assert len(tables) == len(eps)
        assert [bits(table) for table in tables] == [bits(one_table(e, loss)) for e in eps]
        assert [bits(table) for table in tables] == [bits(round_branches(e, loss)) for e in eps]
    if t == math.pi / 4:  # pi/4 doubles to pi/2 and then to pi: the chain closes there
        assert len(block) == 2 and block[-1] == 1.0
    if t == math.pi / 2:  # eps 1: branches of weight zero are dropped
        assert block == [1.0]
        assert len(round_branches(1.0, loss).branches) < len(mfsim.loss._outcome_stack(loss)[1])


def test_a_table_does_not_depend_on_the_other_eps_of_its_block():
    eps = list(np.random.default_rng(8).random(40)) + [0.0, 1.0, 0.5, 1e-13]
    for loss in LOSSES.values():
        alone = [bits(one_table(e, loss)) for e in eps]
        assert [bits(round_branches(e, loss)) for e in eps] == alone
        for size in (3, 16, len(eps)):
            blocks = [round_tables(eps[i:i + size], loss) for i in range(0, len(eps), size)]
            assert [bits(table) for block in blocks for table in block] == alone


def test_the_first_bad_eps_of_a_block_raises_before_any_table(monkeypatch):
    assert round_tables([], LossConfig()) == ()
    for bad in (1.5, -0.1, float("nan")):
        with pytest.raises(UsageError, match=f"eps={bad} outside"):
            round_tables([0.2, bad, 2.0], LossConfig())
    monkeypatch.setattr(mfsim.loss, "_FORM_ATOL", -1.0)  # every branch is off its form
    with pytest.raises(ProtocolError, match="at eps=0.2 are not"):
        round_tables([0.2, 0.3], LossConfig(p_loss=0.3))


@pytest.mark.parametrize("mode", list(PolicyMode))
@pytest.mark.parametrize("loss", LOSSES.values(), ids=LOSSES)
def test_a_level_takes_the_table_built_ahead_for_it(loss, mode):
    policy = EpsilonPolicy(mode)
    program = Program(2, policy, loss)
    first = program.level(0.7)
    chain = chain_eps(0.7, mode, mfsim.feedback._BLOCK)
    assert len(chain) == mfsim.feedback._BLOCK
    assert list(program.waiting) == chain[1:]
    level, residual = first, first.residual
    for i, eps in enumerate(chain):
        if i:  # the level a round reaches after the one before it doubled the residual
            level = program.level(level.residual + level.residual)
            residual = reduce_angle(residual + residual)
        assert level.eps == eps and level.residual == residual
        table = round_branches(eps, loss)
        assert (level.cumulative, level.branches, level.forms) == (
            table.cumulative, table.branches, table.forms)
        assert eps not in program.waiting
    assert program.waiting == {}
    past = program.level(level.residual + level.residual)  # it builds the next block
    assert past.eps == policy.eps_for(abs(reduce_angle(residual + residual)))
    assert len(program.waiting) == mfsim.feedback._BLOCK - 1


def test_a_block_stops_where_the_chain_closes():
    program = Program(2, EpsilonPolicy())
    level = program.level(math.pi / 4)
    assert list(program.waiting) == [1.0]
    doubled = program.level(level.residual + level.residual)
    assert doubled.eps == 1.0 and program.waiting == {}
    assert program.level(doubled.residual + doubled.residual) is None


def run(config, out):
    """The config's report and audit bytes from a fresh program, and the levels it built."""
    cfg = ProtocolConfig.from_dict(config)
    report, stats = run_ensemble(cfg)
    emit_report(report, stats, out)
    return [(out / f).read_bytes() for f in ("report.json", "audit.jsonl")], len(cfg.program.levels)


@pytest.mark.parametrize("name", ["backup-loss", "paper-doubling", "many-angles"])
def test_short_blocks_refill_to_the_same_bytes_and_levels(name, tmp_path, monkeypatch):
    want = run(CONFIGS[name], tmp_path / "default")
    for length in (1, 2):
        monkeypatch.setattr(mfsim.feedback, "_BLOCK", length)
        assert run(CONFIGS[name], tmp_path / str(length)) == want


def test_round_tables_compare_and_hash_by_identity():
    first, again = round_branches(0.3, LossConfig()), round_branches(0.3, LossConfig())
    assert first == first and first != again
    assert hash(first) == hash(first) and len({first, again}) == 2
