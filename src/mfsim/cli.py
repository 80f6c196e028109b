"""Command-line interface.

Exit codes: 0 success, 2 configuration error, a numeric flag out of range or
an output directory ``simulate`` cannot write (``output error:`` and the path
are printed, before the first trajectory runs), 3 register-size cap exceeded,
4 a ``cnot-demo`` rotation ran out of rounds (the residual angle is printed),
141 (128 + SIGPIPE) the reader closed stdout before the output was written.
``MFSIM_OUT_DIR`` overrides the output directory of ``simulate``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from .compiler import round_budget, schedule_parallel, serial_success_probability
from .errors import ConfigError, IncompleteRotationError, ResourceError, UsageError
from .feedback import EpsilonPolicy, PolicyMode
from .harness import (
    ProtocolConfig,
    cnot_demo,
    emit_report,
    noiseless_plan_fidelity,
    probe_rounds,
    run_ensemble,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RESOURCE = 3
EXIT_INCOMPLETE = 4
EXIT_PIPE = 141

# (subcommand, flag, accepted values, test) for the numeric flags argparse only types.
_FLAG_BOUNDS = (
    ("probe-round", "--eps", "in [0, 1]", lambda v: 0.0 <= v <= 1.0),
    ("probe-round", "--samples", "in [1, 2^63)", lambda v: 1 <= v < 2**63),
    ("probe-round", "--seed", ">= 0", lambda v: v >= 0),
    ("schedule", "--confidence", "in (0, 1)", lambda v: 0.0 < v < 1.0),
    ("cnot-demo", "--p-loss", "in [0, 1]", lambda v: 0.0 <= v <= 1.0),
    ("cnot-demo", "--seed", ">= 0", lambda v: v >= 0),
    ("cnot-demo", "--max-rounds", ">= 1", lambda v: v >= 1),
)


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="mfsim")
    sub = p.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a full stochastic ensemble")
    sim.add_argument("--config", required=True, help="JSON protocol configuration")
    sim.add_argument("--out", default="out", help="output directory")
    sim.add_argument("--format", choices=["json", "csv"], default="json")

    probe = sub.add_parser("probe-round", help="sample the four-outcome law at fixed eps")
    probe.add_argument("--eps", type=float, required=True)
    probe.add_argument("--samples", type=int, default=100_000)
    probe.add_argument("--seed", type=int, default=0)

    sched = sub.add_parser("schedule", help="print a Trotter plan and its round budget")
    sched.add_argument("--config", required=True)
    sched.add_argument("--confidence", type=float, default=0.99)

    demo = sub.add_parser("cnot-demo", help="dressed V(pi/4) process fidelity to CNOT")
    demo.add_argument("--p-loss", type=float, default=0.0)
    demo.add_argument("--seed", type=int, default=0)
    demo.add_argument("--max-rounds", type=int, default=4096)

    oracle = sub.add_parser("oracle", help="noiseless plan fidelity against exact evolution")
    oracle.add_argument("--config", required=True)

    return p


def _check_flags(args: argparse.Namespace) -> None:
    for command, flag, accepted, ok in _FLAG_BOUNDS:
        value = getattr(args, flag[2:].replace("-", "_"), None)
        if args.command == command and not ok(value):
            raise UsageError(f"{flag}={value} must be {accepted}")


def _check_out_dir(out_dir) -> None:
    """Raise OSError unless ``out_dir`` is, or can be made as, a writable directory.

    Creates nothing, so a run that then fails for another reason leaves no trace.
    """
    path = Path(out_dir).absolute()
    existing = next(p for p in (path, *path.parents) if p.exists())
    if not existing.is_dir():
        raise NotADirectoryError(f"{existing} is not a directory")
    if not os.access(existing, os.W_OK | os.X_OK):
        raise PermissionError(f"{existing} is not writable")


def _output_error(out_dir, exc: OSError) -> int:
    print(f"output error: {out_dir}: {exc}", file=sys.stderr)
    return EXIT_CONFIG


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _check_flags(args)
        if args.command == "simulate":
            cfg = ProtocolConfig.from_json_file(args.config)
            out_dir = os.environ.get("MFSIM_OUT_DIR", args.out)
            try:
                _check_out_dir(out_dir)
            except OSError as exc:
                return _output_error(out_dir, exc)
            report, stats = run_ensemble(cfg)
            try:
                written = emit_report(report, stats, out_dir, fmt=args.format)
            except OSError as exc:
                return _output_error(out_dir, exc)
            for path in written:
                print(path)
        elif args.command == "probe-round":
            rng = np.random.Generator(np.random.PCG64(args.seed))
            result = probe_rounds(args.eps, args.samples, rng)
            print(json.dumps(result, sort_keys=True, indent=2))
        elif args.command == "schedule":
            cfg = ProtocolConfig.from_json_file(args.config)
            plan = schedule_parallel(cfg.plan)
            budget = round_budget(plan, confidence=args.confidence)
            n_terms = len(cfg.hamiltonian.terms)
            print(json.dumps({
                "plan": plan.to_dict(),
                "budget": budget,
                "paper_bulk_success_probability": serial_success_probability(max(1, n_terms)),
            }, sort_keys=True, indent=2))
        elif args.command == "cnot-demo":
            policy = EpsilonPolicy(PolicyMode.RESIDUAL_EXACT, max_rounds=args.max_rounds)
            result = cnot_demo(
                policy,
                master_seed=args.seed,
                p_loss=args.p_loss,
                backup=args.p_loss > 0.0,
            )
            print(json.dumps(result, sort_keys=True, indent=2))
        elif args.command == "oracle":
            cfg = ProtocolConfig.from_json_file(args.config)
            fid = noiseless_plan_fidelity(cfg)
            print(json.dumps({"noiseless_plan_fidelity": fid}, sort_keys=True, indent=2))
        sys.stdout.flush()  # a buffered write to a closed pipe fails here, not at exit
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # a silent exit flush
        return EXIT_PIPE
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ResourceError as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except IncompleteRotationError as exc:
        print(f"incomplete rotation: {exc}", file=sys.stderr)
        return EXIT_INCOMPLETE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
