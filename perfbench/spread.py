"""Repeat the benchmark and report each end-to-end metric's quartile spread.

    python3 perfbench/spread.py --workload trotter3 --repeats 10
    python3 perfbench/spread.py --workload trotter3 --repeats 10 --distinct-seeds

Every repeat runs BENCHMARK.json's command untraced at its run_seconds, on
the default seed, or with --distinct-seeds on seeds 1, 2, ... (one each).
All repeats must pass their checks, and repeats of one seed must give the
same report.json and audit.jsonl sha256 and the same rounds.total; otherwise
the script exits with code 1.  For every end-to-end metric it prints the median
of the repeats, the quartile spread (Q3 - Q1) / median and the metric's bound;
a spread above a third of the bound is flagged.  Run from the root of a checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402
from run import DEFAULT_SEED  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--repeats", type=int, default=10)
    ap.add_argument("--distinct-seeds", action="store_true",
                    help="run seeds 1..REPEATS instead of repeating the default seed")
    args = ap.parse_args()

    bench = json.loads(Path("BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values: dict[str, list[float]] = {name: [] for name in bounds}
    repeats, ok = [], True
    for i in range(args.repeats):
        seed = i + 1 if args.distinct_seeds else DEFAULT_SEED
        cmd = [*bench["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        repeats.append(next(line for line in lines if line.startswith("repeat ")))
        ok = ok and result["correct"]
        row = {name: m["value"] for name, m in result["metrics"].items()}
        print(f"repeat {i} seed {seed} correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']} " + " ".join(f"{k}={v:.6g}" for k, v in row.items()),
              flush=True)
        for name in bounds:
            values[name].append(row[name])
    same = args.distinct_seeds or len(set(repeats)) == 1
    if not args.distinct_seeds:
        print(f"{'same' if same else 'DIFFERENT'} report.json, audit.jsonl and rounds.total "
              f"in {len(repeats)} repeats: {repeats[0][len('repeat '):]}")
    if len(repeats) >= 2:
        print(f"{'metric':16s} {'median':>12s} {'spread':>8s} {'bound':>6s}")
        for name, vals in values.items():
            spread = stats.quartile_spread(vals)
            flag = "" if spread < bounds[name] / 3 else "  above a third of the bound"
            print(f"{name:16s} {statistics.median(vals):12.6g} {spread:8.4f} {bounds[name]:6.2f}{flag}")
    return 0 if ok and same else 1


if __name__ == "__main__":
    sys.exit(main())
