"""Child process of the benchmark; prints one JSON object on its last line.

    worker.py setup CONFIG                    time `import mfsim` plus config parsing
    worker.py simulate CONFIG PREFIX OUT KIND `mfsim simulate` with per-trajectory timing
                                              and reference units of KIND between trajectories
    worker.py cli CONFIG OUT                  plain `mfsim simulate`, reporting peak memory
    worker.py trace PREFIX SECONDS OUT        alternate plain and traced `simulate` passes

The orchestrator (run.py) puts the program's ``src`` on PYTHONPATH and pins
BLAS threads before this process starts.  Timing happens here; the checks
and metrics are computed by the orchestrator from what this prints.
"""

import time

_PROCESS_START = time.perf_counter()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _versions() -> dict:
    import numpy

    return {"python": platform.python_version(), "numpy": numpy.__version__}


def _simulate_in_process(cfg_path: str, out: Path) -> int:
    import mfsim.cli

    with contextlib.redirect_stdout(io.StringIO()):
        return mfsim.cli.main(["simulate", "--config", cfg_path, "--out", str(out)])


# Reference work after each trajectory, as a share of the trajectory's time
# (at least one unit), so the host's speed is sampled all through the ensemble.
CALIB_SHARE = 0.1
SETUP_CALIB_UNITS = 3


def setup(cfg_path: str) -> dict:
    """Set-up time, then the host's speed in the same process right after it."""
    start = time.perf_counter()
    import mfsim  # noqa: F401
    from mfsim.harness import ProtocolConfig

    ProtocolConfig.from_json_file(cfg_path)
    setup_s = time.perf_counter() - start
    import calib

    calib.measure("interpreter")  # warm-up: numpy's first calls in a fresh process
    return {"setup_s": setup_s, "calib_s": calib.measure("interpreter", SETUP_CALIB_UNITS),
            "calib_nominal_s": calib.NOMINAL_S["interpreter"]}


def simulate(cfg_path: str, prefix_path: str, out: Path, kind: str) -> dict:
    """The `mfsim simulate` path in this fresh process, timing each trajectory.

    Only ``mfsim.harness.run_trajectory``, the binding the ensemble loop
    calls, is wrapped: one clock pair per trajectory.  wall_s runs from the
    start of this process to the return of ``mfsim.cli.main``.  Afterwards the
    first PREFIX trajectories are aggregated again under the prefix config, so
    the orchestrator can compare those bytes with a separate fresh run.  After
    each trajectory, outside its timing, reference units of ``kind`` run for CALIB_SHARE of
    its time; each unit's time is reported with the index of the trajectory it
    follows, and the wall time the units and their import take, so it can be
    taken out of wall_s.
    """
    import mfsim.harness as harness

    before_import = time.perf_counter()
    import calib

    original = harness.run_trajectory
    stats, times, calib_s, calib_after = [], [], [], []
    calib_wall = time.perf_counter() - before_import

    def timed(cfg, index):
        nonlocal calib_wall
        before = time.perf_counter()
        result = original(cfg, index)
        took = time.perf_counter() - before
        times.append(took)
        stats.append(result)
        spent = 0.0
        while not spent or spent < CALIB_SHARE * took:
            unit_s = calib.measure(kind)
            calib_s.append(unit_s)
            calib_after.append(len(times) - 1)
            spent += unit_s
        calib_wall += time.perf_counter() - before - took
        return result

    harness.run_trajectory = timed
    try:
        code = _simulate_in_process(cfg_path, out / "full")
        wall = time.perf_counter() - _PROCESS_START
    finally:
        harness.run_trajectory = original
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if code != 0:
        raise SystemExit(f"mfsim simulate exited {code}")
    if not stats:
        raise SystemExit("mfsim simulate ran no trajectory through harness.run_trajectory")

    prefix_cfg = harness.ProtocolConfig.from_json_file(prefix_path)
    prefix = stats[: prefix_cfg.trajectories]
    harness.emit_report(harness.aggregate_report(prefix_cfg, prefix), prefix, out / "prefix")
    report = json.loads((out / "full" / "report.json").read_text())
    completed = [s for s in stats if not s.failed]
    retries = [r for s in completed for r in s.photon_retry_counts]
    return {
        "wall_s": wall,
        "maxrss_kb": maxrss_kb,
        "times_s": times,
        "calib_s": calib_s,
        "calib_after": calib_after,
        "calib_wall_s": calib_wall,
        "calib_nominal_s": calib.NOMINAL_S[kind],
        "rounds": [s.rounds_total for s in stats],
        "rounds_total": report["rounds"]["total"],
        "incomplete": [s.failed for s in stats],
        "fidelity": [s.fidelity_vs_oracle for s in stats],
        "envelope": harness.noiseless_plan_fidelity(prefix_cfg),
        "retry_sum": sum(retries),
        "retry_count": len(retries),
        "report_sha256": _sha256(out / "full" / "report.json"),
        "audit_sha256": _sha256(out / "full" / "audit.jsonl"),
        "prefix_report_sha256": _sha256(out / "prefix" / "report.json"),
        "prefix_audit_sha256": _sha256(out / "prefix" / "audit.jsonl"),
        **_versions(),
    }


def cli(cfg_path: str, out: Path) -> dict:
    """`mfsim simulate` in this fresh process with no benchmark code in it, and its peak memory."""
    code = _simulate_in_process(cfg_path, out)
    if code != 0:
        raise SystemExit(f"mfsim simulate exited {code}")
    return {"maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}


def _summarize(tracer) -> dict:
    """Per span name: [calls, self ns, inclusive ns]."""
    from stats import self_times

    out = {name: [0, 0, 0] for name in tracer.names}
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        row = out[tracer.names[span[0]]]
        row[0] += 1
        row[1] += own
        row[2] += span[4] - span[3]
    return out


def trace(cfg_path: str, seconds: float, out: Path) -> dict:
    """Alternate plain and traced in-process `mfsim simulate` runs.

    Runs pairs until ``seconds`` have passed and at least two traced passes
    exist, so the orchestrator can require identical call counts.  The order
    within a pair alternates, so drift and warm-up fall on both sides.
    """
    from mfsim.harness import ProtocolConfig, noiseless_plan_fidelity
    from spantrace import Tracer, write_spans

    passes = []
    tracers = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(tracers) < 2:
        for traced in (False, True) if len(tracers) % 2 == 0 else (True, False):
            pass_dir = out / f"pass{len(passes)}"
            tracer = Tracer() if traced else contextlib.nullcontext()
            with tracer:
                before = time.perf_counter()
                code = _simulate_in_process(cfg_path, pass_dir)
                took = time.perf_counter() - before
            if code != 0:
                raise SystemExit(f"mfsim simulate exited {code}")
            report = json.loads((pass_dir / "report.json").read_text())
            audit = [json.loads(line) for line in (pass_dir / "audit.jsonl").read_text().splitlines()]
            passes.append({
                "traced": traced,
                "seconds": took,
                "report_sha256": _sha256(pass_dir / "report.json"),
                "audit_sha256": _sha256(pass_dir / "audit.jsonl"),
                "bytes": sum((pass_dir / f).stat().st_size for f in ("report.json", "audit.jsonl")),
                "rounds_total": report["rounds"]["total"],
                "mean_per_rotation": report["rounds"]["mean_per_rotation"],
                "loss_rounds": report["outcome_counts"].get("loss", 0),
                "retry_mean": report["loss"]["retry_mean"],
                "retry_count": report["loss"]["retry_count"],
                "incomplete": [t["failed"] for t in audit],
                "fidelity": [t["fidelity_vs_oracle"] for t in audit],
            })
            if traced:
                tracers.append(tracer)
    summaries = [_summarize(t) for t in tracers]
    write_spans(out / "spans.tsv", tracers)
    return {
        "passes": passes,
        "summaries": summaries,
        "missing": tracers[0].missing,
        "envelope": noiseless_plan_fidelity(ProtocolConfig.from_json_file(cfg_path)),
        **_versions(),
    }


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "setup":
        result = setup(argv[1])
    elif mode == "simulate":
        result = simulate(argv[1], argv[2], Path(argv[3]), argv[4])
    elif mode == "cli":
        result = cli(argv[1], Path(argv[2]))
    elif mode == "trace":
        result = trace(argv[1], float(argv[2]), Path(argv[3]))
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
