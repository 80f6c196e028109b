"""One compiled program per config, freed with it, whose codes mean the same in any process.

``ProtocolConfig.program`` holds everything the config's rotations compile:
pair records, rotation entries and their operators, levels, tables built
ahead and the rows that round codes index.  Trajectory stats carry those
rows, so they read the same under any equal config, and a program's codes
do not depend on what ran before it in the process.
"""

import collections
import dataclasses
import gc
import json
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

from mfsim.feedback import _ROW_MASK
from mfsim.harness import ProtocolConfig, aggregate_report, emit_report, run_ensemble

from byte_identity_configs import CONFIGS

TESTS = Path(__file__).resolve().parent
CHILD_ENV = {"PYTHONPATH": str(TESTS.parent / "src"), "PYTHONDONTWRITEBYTECODE": "1"}


def test_a_configs_program_is_freed_with_it():
    config = {**CONFIGS["many-angles"], "trajectories": 20}
    run_ensemble(ProtocolConfig.from_dict(config))  # fills the caches every config shares
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        cfg = ProtocolConfig.from_dict(config)
        report, stats = run_ensemble(cfg)
        program = weakref.ref(cfg.program)
        assert len(program().levels) > 70 and len(program().rows) > 0
        del cfg, report, stats
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert program() is None
    assert after - before <= 0.5 * 2**20


def test_stats_read_the_same_under_a_second_equal_config(tmp_path):
    for name in ("heralded-loss", "paper-doubling-failing", "many-angles"):
        cfg = ProtocolConfig.from_dict(CONFIGS[name])
        report, stats = run_ensemble(cfg)
        emit_report(report, stats, tmp_path / name / "first")
        again = ProtocolConfig.from_dict(CONFIGS[name])  # its program is built only if asked
        emit_report(aggregate_report(again, stats), stats, tmp_path / name / "again")
        assert "program" not in vars(again)
        for f in ("report.json", "audit.jsonl"):
            assert (tmp_path / name / "first" / f).read_bytes() == (
                tmp_path / name / "again" / f).read_bytes()


def test_stats_of_several_programs_read_through_their_own_rows(tmp_path):
    runs = [run_ensemble(ProtocolConfig.from_dict(CONFIGS[name]))
            for name in ("heralded-loss", "many-angles", "backup-loss")]
    row_ids = [{code & _ROW_MASK for s in stats for code in s.codes} for _, stats in runs]
    assert row_ids[0] & row_ids[1] & row_ids[2]  # ids that name other rows in each program
    mixed = [s for _, stats in runs for s in stats]
    for i, (report, stats) in enumerate(runs):
        emit_report(report, stats, tmp_path / str(i))
    emit_report(runs[0][0], mixed, tmp_path / "mixed")
    assert (tmp_path / "mixed" / "audit.jsonl").read_text() == "".join(
        (tmp_path / str(i) / "audit.jsonl").read_text() for i in range(3))
    untallied = [dataclasses.replace(s) for s in mixed]
    counts = sum((collections.Counter(report["outcome_counts"]) for report, _ in runs),
                 collections.Counter())
    assert aggregate_report(ProtocolConfig.from_dict(CONFIGS["heralded-loss"]),
                            untallied)["outcome_counts"] == dict(sorted(counts.items()))


def test_a_stat_tallies_the_same_alone_in_blocks_or_mixed():
    # what streaming an ensemble in blocks needs: each trajectory tallies its own rounds
    runs = {}
    for name in ("heralded-loss", "backup-loss", "many-angles"):
        cfg = ProtocolConfig.from_dict({**CONFIGS[name], "trajectories": 20})
        runs[name] = cfg, *run_ensemble(cfg)
    summaries = [s.summary() for _, _, stats in runs.values() for s in stats]
    alone = [dataclasses.replace(s) for _, _, stats in runs.values() for s in stats]
    assert [s.summary() for s in alone] == summaries
    mixed = [dataclasses.replace(s) for _, _, stats in runs.values() for s in stats]
    aggregate_report(runs["heralded-loss"][0], mixed)
    assert [s.summary() for s in mixed] == summaries
    for cfg, report, stats in runs.values():
        for size in (1, 7):
            copies = [dataclasses.replace(s) for s in stats]
            parts = [aggregate_report(cfg, copies[i:i + size]) for i in range(0, len(copies), size)]
            assert [s.summary() for s in copies] == [s.summary() for s in stats]
            counts = sum((collections.Counter(part["outcome_counts"]) for part in parts),
                         collections.Counter())
            assert report["outcome_counts"] == dict(sorted(counts.items()))
            for key, sub in (("rounds", "total"), ("loss", "events")):
                assert report[key][sub] == sum(part[key][sub] for part in parts)


CODES = """
import json, sys
sys.path.insert(0, sys.argv[1])
from byte_identity_configs import CONFIGS
from mfsim.feedback import _ROW_MASK
from mfsim.harness import ProtocolConfig, run_ensemble
for name in sys.argv[2:]:
    _, stats = run_ensemble(ProtocolConfig.from_dict(CONFIGS[name]))
print(json.dumps([s.codes for s in stats]))
"""


def codes_after(*names):
    """The last config's round codes, from a fresh process that runs ``names`` in turn."""
    proc = subprocess.run([sys.executable, "-c", CODES, str(TESTS), *names], capture_output=True,
                          text=True, env=CHILD_ENV, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_a_code_reads_the_same_whatever_ran_before_it():
    alone = codes_after("heralded-loss")
    assert alone and any(alone)
    assert codes_after("many-angles", "heralded-loss") == alone
