"""mfsim benchmark: end-to-end metrics, or with --trace 1 the per-layer breakdown.

Run from the root of a checkout:

    python3 perfbench/run.py --workload trotter3 --seed 0 --seconds 30 --trace 0

The load is a closed loop: one process, one client, trajectories run one after
another along the path `mfsim simulate` takes.  The last line of standard
output is one JSON object {"correct", "attempted", "failed", "metrics"}; the
lines before it give each metric by name with its unit, the checks, and the
environment.  The full record of a run, with every sample, goes to
perfbench/out/<workload>-seed<n>-trace<0|1>/result.json (and spans.tsv).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402
from workloads import WORKLOADS, ensemble_size, make_config  # noqa: E402

SETUP_PROBES = 5  # fresh processes before and again after the ensemble
FIDELITY_TOL = 1e-9
Z_LIMIT = 4.0  # "within a few standard errors": a false alarm once in ~16k runs
CHILD_TIMEOUT_S = 170.0
BLAS_THREADS = 1  # one client on a small shared machine: no BLAS thread pool
DEFAULT_SEED = 0

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "traj_per_s": "1/s",
    "rounds_per_s": "1/s",
    "traj_p50_ms": "ms",
    "traj_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


# --------------------------------------------------------------------------
# environment


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.pop("MFSIM_OUT_DIR", None)  # would override `simulate --out`
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    threads = str(min(BLAS_THREADS, nproc()))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = threads
    return env


def git_sha(root: Path):
    """HEAD of the checkout, or None; git is not asked to search parent directories."""
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_sha(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "mfsim").rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


# --------------------------------------------------------------------------
# children


def run_child(cmd: list[str], env: dict, root: Path) -> subprocess.CompletedProcess:
    """Run ``cmd`` from the checkout root; a child past the timeout is killed and reaped."""
    try:
        return subprocess.run(cmd, env=env, cwd=root, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{' '.join(cmd)} ran past {CHILD_TIMEOUT_S:g} s") from exc


def worker(mode: str, args: list[str], env: dict, root: Path) -> dict:
    proc = run_child([sys.executable, str(HERE / "worker.py"), mode, *args], env, root)
    if proc.returncode != 0:
        raise BenchError(f"worker {mode} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# --------------------------------------------------------------------------
# checks


def check(checks: list, name: str, ok: bool, detail: str) -> None:
    checks.append({"name": name, "ok": bool(ok), "detail": detail})


def retry_z(cfg: dict, retry_mean: float, retry_count: int):
    """z-score of the mean attempts per useful round against 1/(1-p)^2."""
    q = (1.0 - cfg["loss"]["p_loss"]) ** 2
    se = math.sqrt(1.0 - q) / q / math.sqrt(retry_count)
    return (retry_mean - 1.0 / q) / se


def trajectory_failures(incomplete, fidelity, envelope) -> tuple[list[bool], int]:
    """Failed flags (incomplete rotation or fidelity off the envelope) and mismatch count."""
    mismatch = [(not inc) and abs(f - envelope) > FIDELITY_TOL for inc, f in zip(incomplete, fidelity)]
    return [inc or bad for inc, bad in zip(incomplete, mismatch)], sum(mismatch)


# --------------------------------------------------------------------------
# untraced run: end-to-end metrics


def untraced(run: dict) -> dict:
    cfg, env, root, out = run["cfg"], run["env"], run["root"], run["out"]
    checks: list = []

    def setup_probes() -> list[dict]:
        return [worker("setup", [str(run["cfg_path"])], env, root) for _ in range(SETUP_PROBES)]

    # Probes before and after the ensemble, so a spell of host noise at one
    # moment does not decide the median.
    setups = setup_probes()
    w = worker("simulate", [str(run["cfg_path"]), str(run["prefix_path"]), str(out / "simulate"),
                            WORKLOADS[run["workload"]]["reference"]], env, root)
    setups += setup_probes()
    prefix_dir = out / "prefix-cli"
    cli = worker("cli", [str(run["prefix_path"]), str(prefix_dir)], env, root)
    prefix_audit = (prefix_dir / "audit.jsonl").read_text().splitlines()
    full_audit = (out / "simulate" / "full" / "audit.jsonl").read_text().splitlines()

    envelope = w["envelope"]
    failed, mismatched = trajectory_failures(w["incomplete"], w["fidelity"], envelope)
    prefix_records = [json.loads(line) for line in prefix_audit]
    prefix_failed, _ = trajectory_failures([t["failed"] for t in prefix_records],
                                           [t["fidelity_vs_oracle"] for t in prefix_records], envelope)
    n_prefix = len(prefix_audit)
    check(checks, "fidelity", mismatched == 0,
          f"{mismatched} of {len(failed)} completed trajectories off the noiseless plan "
          f"fidelity {envelope:.15f} by more than {FIDELITY_TOL:g}")
    check(checks, "report_repeat",
          sha256(prefix_dir / "report.json") == w["prefix_report_sha256"]
          and sha256(prefix_dir / "audit.jsonl") == w["prefix_audit_sha256"]
          and prefix_audit == full_audit[:n_prefix],
          f"first {n_prefix} trajectories, in a second fresh `mfsim simulate` and re-aggregated "
          f"in the first: report.json sha256 {w['prefix_report_sha256'][:16]}...")
    if cfg["loss"]["backup_enabled"]:
        mean = w["retry_sum"] / w["retry_count"]
        z = retry_z(cfg, mean, w["retry_count"])
        check(checks, "retries", abs(z) <= Z_LIMIT,
              f"mean attempts per useful round {mean:.3f} vs 1/(1-p)^2 = "
              f"{1 / (1 - cfg['loss']['p_loss']) ** 2:.3f}, z = {z:+.2f} over {w['retry_count']} rounds")

    # A failed trajectory's time and rounds are left out of every metric.
    # Each trajectory's time is also scaled to the nominal host speed by the
    # reference units that ran nearest it (stats.local_scales).
    times = w["times_s"]
    nominal = w["calib_nominal_s"]
    scales = stats.local_scales(len(times), w["calib_s"], w["calib_after"], nominal)
    scaled = [t * f for t, f in zip(times, scales)]
    good = [t for t, bad in zip(times, failed) if not bad]
    good_scaled = [t for t, bad in zip(scaled, failed) if not bad]
    if not good:
        raise BenchError("no trajectory completed its checks")
    good_rounds = sum(r for r, bad in zip(w["rounds"], failed) if not bad)
    ensemble_s = sum(good)
    tail = stats.tail(good_scaled)
    attempted = len(failed) + n_prefix
    n_failed = sum(failed) + sum(prefix_failed)
    # What the clock read on this host, next to the scaled metrics.
    raw = {
        "setup_s": statistics.median(p["setup_s"] for p in setups),
        "wall_s": w["wall_s"] - w["calib_wall_s"],
        "traj_per_s": len(good) / ensemble_s,
        "rounds_per_s": good_rounds / ensemble_s,
        "traj_p50_ms": 1e3 * stats.percentile(good, 50),
        "traj_tail_ms": 1e3 * stats.tail(good)["value"],
    }
    scale = stats.host_scale(w["calib_s"], nominal)
    setup_scaled = [p["setup_s"] * stats.host_scale([p["calib_s"]], p["calib_nominal_s"])
                    for p in setups]
    outside_trajectories = raw["wall_s"] - sum(times)
    metrics = {
        "setup_s": statistics.median(setup_scaled),
        "wall_s": sum(scaled) + outside_trajectories * scale,
        "traj_per_s": len(good) / sum(good_scaled),
        "rounds_per_s": good_rounds / sum(good_scaled),
        "traj_p50_ms": 1e3 * stats.percentile(good_scaled, 50),
        "traj_tail_ms": 1e3 * tail["value"],
        "peak_rss_mb": cli["maxrss_kb"] / 1024.0,
    }
    host = {"kind": WORKLOADS[run["workload"]]["reference"], "scale": scale,
            "unit_ms_median": 1e3 * statistics.median(w["calib_s"]),
            "unit_ms_nominal": 1e3 * nominal, "units": len(w["calib_s"]),
            "unit_wall_s": w["calib_wall_s"]}
    clock = {name: f"(clock {value:.6g})" for name, value in raw.items()}
    notes = {
        "setup_s": f"median of {len(setups)} fresh processes {clock['setup_s']}",
        "wall_s": f"fresh `mfsim simulate` of {cfg['trajectories']} trajectories, report and "
                  f"audit written, reference units taken out {clock['wall_s']}",
        "traj_per_s": f"{len(good)} completed {clock['traj_per_s']}",
        "rounds_per_s": f"{good_rounds} rounds of completed trajectories {clock['rounds_per_s']}",
        "traj_p50_ms": f"n={len(good)} {clock['traj_p50_ms']}",
        "traj_tail_ms": (f"p{tail['percentile']:g}, {tail['beyond']} samples beyond, n={tail['samples']}"
                         + (" (too few samples for a percentile: maximum)" if tail["too_few"] else "")
                         + f" {clock['traj_tail_ms']}"),
        "peak_rss_mb": (f"of a plain `mfsim simulate` of the first {n_prefix} trajectories "
                        f"(measured process with reference units: {w['maxrss_kb'] / 1024.0:.1f})"),
    }
    return {
        "metrics": metrics,
        "clock_metrics": raw,
        "host": host,
        "units": END_TO_END_UNITS,
        "notes": notes,
        "attempted": attempted,
        "failed": n_failed,
        "failed_frac": stats.failed_frac(attempted, n_failed),
        "checks": checks,
        "tail": tail,
        "samples": {"setup_s": [p["setup_s"] for p in setups],
                    "setup_unit_s": [p["calib_s"] for p in setups],
                    "traj_s": w["times_s"], "rounds": w["rounds"], "unit_s": w["calib_s"],
                    "unit_after": w["calib_after"]},
        "repeat": {"report_sha256": w["report_sha256"], "audit_sha256": w["audit_sha256"],
                   "rounds_total": w["rounds_total"]},
        "versions": {"python": w["python"], "numpy": w["numpy"]},
    }


# --------------------------------------------------------------------------
# traced run: per-layer metrics

# (metric, span name, field, unit): field "calls" is the call count, "self"
# the self time per call.
PER_CALL = (
    ("statevec.apply_local.calls", "statevec.apply_local", "calls", "count"),
    ("statevec.apply_local.us", "statevec.apply_local", "self", "us"),
    ("statevec.apply_two_qubit.calls", "statevec.apply_two_qubit", "calls", "count"),
    ("statevec.apply_two_qubit.us", "statevec.apply_two_qubit", "self", "us"),
    ("statevec.measure.calls", "statevec.measure", "calls", "count"),
    ("statevec.measure.us", "statevec.measure", "self", "us"),
    ("statevec.apply_pauli_string.calls", "statevec.apply_pauli_string", "calls", "count"),
    ("statevec.exact_evolution.calls", "statevec.exact_evolution", "calls", "count"),
    ("statevec.exact_evolution.ms", "statevec.exact_evolution", "self", "ms"),
    ("compiler.HamiltonianSpec.to_matrix.ms", "compiler.HamiltonianSpec.to_matrix", "self", "ms"),
    ("emission.joint_emission.calls", "emission.joint_emission", "calls", "count"),
    ("emission.joint_emission.us", "emission.joint_emission", "self", "us"),
    ("emission.beamsplitter_measure.calls", "emission.beamsplitter_measure", "calls", "count"),
    ("emission.beamsplitter_measure.us", "emission.beamsplitter_measure", "self", "us"),
    ("loss.loss_channel.calls", "loss.loss_channel", "calls", "count"),
    ("loss.loss_channel.us", "loss.loss_channel", "self", "us"),
    ("loss.backup_round.calls", "loss.backup_round", "calls", "count"),
    ("loss.backup_round.us", "loss.backup_round", "self", "us"),
    ("feedback.realize_v_kl.calls", "feedback.realize_v_kl", "calls", "count"),
    ("feedback.realize_v_kl.self_us", "feedback.realize_v_kl", "self", "us"),
    ("pauli.ErrorFrame.updated.calls", "pauli.ErrorFrame.updated", "calls", "count"),
    ("pauli.ErrorFrame.updated.us", "pauli.ErrorFrame.updated", "self", "us"),
    ("pauli.frame_conjugate_direction.calls", "pauli.frame_conjugate_direction", "calls", "count"),
    ("pauli.frame_conjugate_direction.us", "pauli.frame_conjugate_direction", "self", "us"),
    ("compiler.compile_plan.calls", "compiler.compile_plan", "calls", "count"),
    ("harness.run_trajectory.calls", "harness.run_trajectory", "calls", "count"),
    ("harness.aggregate_report.ms", "harness.aggregate_report", "self", "ms"),
    ("harness.emit_report.ms", "harness.emit_report", "self", "ms"),
)
NS_PER_UNIT = {"us": 1e3, "ms": 1e6, "s": 1e9}
LAYERS = ("statevec", "emission", "loss", "feedback", "pauli", "compiler", "harness", "cli")

PER_LAYER_UNITS = {
    **{metric: unit for metric, _, _, unit in PER_CALL},
    "statevec.calls_per_round": "count",
    "statevec.exact_evolution.share": "ratio",
    "loss.useful_ratio": "ratio",
    "feedback.rounds_per_rotation": "count",
    "harness.emit_report.bytes": "bytes",
    "harness.rounds_total": "count",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.overhead": "ratio",
}


def _per_pass(summaries: list[dict], name: str, field: int) -> list[float]:
    return [s.get(name, [0, 0, 0])[field] for s in summaries]


def traced(run: dict) -> dict:
    cfg = run["cfg"]
    checks: list = []
    w = worker("trace", [str(run["prefix_path"]), str(run["seconds"]), str(run["out"] / "trace")],
               run["env"], run["root"])
    passes, summaries = w["passes"], w["summaries"]
    first = passes[0]
    envelope = w["envelope"]

    attempted = n_failed = mismatched = 0
    for p in passes:
        failed, bad = trajectory_failures(p["incomplete"], p["fidelity"], envelope)
        attempted += len(failed)
        n_failed += sum(failed)
        mismatched += bad
    check(checks, "fidelity", mismatched == 0,
          f"{mismatched} completed trajectories off the noiseless plan fidelity "
          f"{envelope:.15f} by more than {FIDELITY_TOL:g}")
    check(checks, "report_repeat",
          len({(p["report_sha256"], p["audit_sha256"]) for p in passes}) == 1,
          f"{len(passes)} passes, traced and plain, give report.json sha256 {first['report_sha256'][:16]}...")
    counts = [{name: row[0] for name, row in s.items()} for s in summaries]
    check(checks, "calls_repeat", all(c == counts[0] for c in counts),
          f"per-span call counts identical across {len(counts)} traced passes")
    if cfg["loss"]["backup_enabled"]:
        z = retry_z(cfg, first["retry_mean"], first["retry_count"])
        check(checks, "retries", abs(z) <= Z_LIMIT,
              f"mean attempts per useful round {first['retry_mean']:.3f}, z = {z:+.2f}")

    rounds_total = first["rounds_total"]
    metrics = {}
    for metric, name, field, unit in PER_CALL:
        calls = _per_pass(summaries, name, 0)
        if field == "calls":
            metrics[metric] = calls[0]
        else:
            own = _per_pass(summaries, name, 1)
            metrics[metric] = statistics.median(
                [o / c / NS_PER_UNIT[unit] if c else 0.0 for o, c in zip(own, calls)])
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = statistics.median(
            [sum(row[1] for n, row in s.items() if n.split(".")[0] == layer) / NS_PER_UNIT["s"]
             for s in summaries])
    statevec_calls = sum(row[0] for n, row in summaries[0].items() if n.startswith("statevec."))
    metrics["statevec.calls_per_round"] = statevec_calls / rounds_total if rounds_total else 0.0
    exact = _per_pass(summaries, "statevec.exact_evolution", 2)
    traj = _per_pass(summaries, "harness.run_trajectory", 2)
    metrics["statevec.exact_evolution.share"] = statistics.median(
        [e / t if t else 0.0 for e, t in zip(exact, traj)])
    metrics["loss.useful_ratio"] = (rounds_total - first["loss_rounds"]) / rounds_total if rounds_total else 0.0
    metrics["feedback.rounds_per_rotation"] = first["mean_per_rotation"] or 0.0
    metrics["harness.emit_report.bytes"] = first["bytes"]
    metrics["harness.rounds_total"] = rounds_total
    plain = statistics.median([p["seconds"] for p in passes if not p["traced"]])
    with_trace = statistics.median([p["seconds"] for p in passes if p["traced"]])
    metrics["trace.overhead"] = with_trace / plain - 1.0

    return {
        "metrics": metrics,
        "units": PER_LAYER_UNITS,
        "notes": {"trace.overhead": f"traced {with_trace:.3f} s vs plain {plain:.3f} s per pass"},
        "pass_seconds": [(p["traced"], p["seconds"]) for p in passes],
        "inclusive_us_per_call": {name: statistics.median([s[name][2] / calls / 1e3 for s in summaries])
                                  for name, (calls, _, _) in summaries[0].items() if calls},
        "attempted": attempted,
        "failed": n_failed,
        "failed_frac": stats.failed_frac(attempted, n_failed),
        "checks": checks,
        "repeat": {"report_sha256": first["report_sha256"], "audit_sha256": first["audit_sha256"],
                   "rounds_total": rounds_total, "calls": counts[0]},
        "layer_map": layer_map(run["workload"], cfg, metrics),
        "missing": w["missing"],
        "passes": len(passes),
        "versions": {"python": w["python"], "numpy": w["numpy"]},
    }


def layer_map(workload: str, cfg: dict, m: dict) -> list[dict]:
    """The layer map the benchmark documents, confirmed on this run (not a correctness gate)."""
    out: list = []
    share = m["statevec.exact_evolution.share"]
    if workload == "chain10":
        check(out, "exact_evolution > 1/2 of trajectory time", share > 0.5, f"share {share:.3f}")
    if workload == "trotter3":
        check(out, "exact_evolution < 5% of trajectory time", share < 0.05, f"share {share:.4f}")
    if cfg["loss"]["backup_enabled"]:
        rounds = m["harness.rounds_total"]
        check(out, "backup_round.calls == rounds.total", m["loss.backup_round.calls"] == rounds,
              f"{m['loss.backup_round.calls']} vs {rounds}")
        q = (1.0 - cfg["loss"]["p_loss"]) ** 2
        z = (m["loss.useful_ratio"] - q) / math.sqrt(q * (1 - q) / rounds)
        check(out, f"useful_ratio ~ (1-p)^2 = {q:.2f}", abs(z) <= Z_LIMIT,
              f"{m['loss.useful_ratio']:.4f}, z = {z:+.2f} over {rounds} attempts")
    return out


def keep_only_record(out: Path) -> None:
    """Delete the reports and audits a finished run wrote; keep configs, result and spans."""
    spans = out / "trace" / "spans.tsv"
    if spans.exists():
        spans.replace(out / "spans.tsv")
    for child in out.iterdir():
        if child.is_dir():
            shutil.rmtree(child)


# --------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "mfsim" / "__init__.py").is_file():
        print(f"benchmark: no mfsim sources under {root / 'src'}; run from the root of a checkout",
              file=sys.stderr)
        return 2

    out = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    cfg = make_config(args.workload, args.seed, ensemble_size(args.workload, args.seconds))
    prefix = make_config(args.workload, args.seed, WORKLOADS[args.workload]["prefix"])
    run = {"workload": args.workload, "cfg": cfg, "seconds": args.seconds, "root": root,
           "out": out, "env": child_env(root),
           "cfg_path": out / "config.json", "prefix_path": out / "prefix.json"}
    for path, content in ((run["cfg_path"], cfg), (run["prefix_path"], prefix)):
        path.write_text(json.dumps(content, indent=2, sort_keys=True) + "\n")
    env = run["env"]
    environment = {
        "git_sha": git_sha(root),
        "src_sha256": source_sha(root),
        "nproc": nproc(),
        "cpu_count": os.cpu_count(),
        "blas_threads": env["OPENBLAS_NUM_THREADS"],
        "machine": platform.machine(),
    }

    try:
        res = (traced if args.trace else untraced)(run)
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    environment.update(res.pop("versions"))
    res["environment"] = environment
    res["workload"] = args.workload
    res["seed"] = args.seed
    res["config"] = cfg
    (out / "result.json").write_text(json.dumps(res, indent=2) + "\n")
    keep_only_record(out)

    correct = all(c["ok"] for c in res["checks"])
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{WORKLOADS[args.workload]['why']}")
    print("environment " + json.dumps(environment, sort_keys=True))
    print("repeat " + json.dumps(res["repeat"], sort_keys=True))
    if "host" in res:
        h = res["host"]
        print(f"host speed: {h['kind']} reference unit {h['unit_ms_median']:.4f} ms (median of {h['units']}), "
              f"nominal {h['unit_ms_nominal']:g} ms; times below are scaled to the nominal speed "
              f"(median factor {h['scale']:.4f}), clock readings in brackets")
    for name, value in res["metrics"].items():
        note = res["notes"].get(name, "")
        print(f"  {name:40s} {value:14.6g} {res['units'][name]:6s} {note}")
    print(f"  {'failed_frac':40s} {res['failed_frac']:14.6g} {'ratio':6s} "
          f"{res['failed']} of {res['attempted']} trajectories")
    for c in res["checks"] + res.get("layer_map", []):
        print(f"  {'PASS' if c['ok'] else 'FAIL'} {c['name']}: {c['detail']}")
    if res.get("missing"):
        print("  not traced (no longer in mfsim): " + ", ".join(res["missing"]))
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": res["units"][name]}
                    for name, value in res["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
