"""Span tracing of mfsim's public functions, installed from outside the package.

A :class:`Tracer` replaces each function named in :data:`TRACED` with a
timing wrapper at every place an ``mfsim`` module binds it, since
``from .statevec import apply_local`` gives ``mfsim.feedback`` its own
binding.  Methods are wrapped once on their class.  Every binding is put back
when the tracer is removed.  Spans stay in memory until the caller writes
them out.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (layer, defining module, qualified name).  A layer is one mfsim module.
# Names that no longer exist are skipped and listed in Tracer.missing, so the
# program may delete hot-path functions without breaking the benchmark.
TRACED = (
    ("cli", "mfsim.cli", "main"),
    ("harness", "mfsim.harness", "ProtocolConfig.from_dict"),
    ("harness", "mfsim.harness", "run_ensemble"),
    ("harness", "mfsim.harness", "run_trajectory"),
    ("harness", "mfsim.harness", "aggregate_report"),
    ("harness", "mfsim.harness", "emit_report"),
    ("compiler", "mfsim.compiler", "compile_plan"),
    ("compiler", "mfsim.compiler", "HamiltonianSpec.to_matrix"),
    ("feedback", "mfsim.feedback", "realize_v_kl"),
    ("emission", "mfsim.emission", "joint_emission"),
    ("emission", "mfsim.emission", "beamsplitter_measure"),
    ("loss", "mfsim.loss", "loss_channel"),
    ("loss", "mfsim.loss", "backup_round"),
    ("pauli", "mfsim.pauli", "ErrorFrame.updated"),
    ("pauli", "mfsim.pauli", "frame_conjugate_direction"),
    ("statevec", "mfsim.statevec", "apply_local"),
    ("statevec", "mfsim.statevec", "apply_two_qubit"),
    ("statevec", "mfsim.statevec", "measure"),
    ("statevec", "mfsim.statevec", "apply_pauli_string"),
    ("statevec", "mfsim.statevec", "exact_evolution"),
)

# The function whose second argument is the trajectory index; spans opened
# inside it carry that index.
_TRAJECTORY_SPAN = "harness.run_trajectory"


class Tracer:
    """Records one span per call of a traced function while installed.

    ``spans[i]`` is (name index, parent span index or -1, trajectory index or
    -1, start ns, end ns); ``names[name index]`` is the span name.
    """

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._trajectory = [-1]
        self._restore: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        try:
            for layer, module_name, qualname in TRACED:
                self._install(layer, module_name, qualname)
        except BaseException:
            self.remove()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    def remove(self) -> None:
        """Put every replaced binding back, newest first."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _install(self, layer: str, module_name: str, qualname: str) -> None:
        name = f"{layer}.{qualname}"
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            self.missing.append(name)
            return
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        raw = vars(owner).get(attr) if owner is not None else None
        func = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
        if not callable(func):
            self.missing.append(name)
            return
        self.names.append(name)
        wrapper = self._wrap(func, len(self.names) - 1, name == _TRAJECTORY_SPAN)
        if path:
            replacement = type(raw)(wrapper) if raw is not func else wrapper
            self._restore.append((owner, attr, raw))
            setattr(owner, attr, replacement)
            return
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "mfsim" or mod_name.startswith("mfsim.")):
                continue
            for key, value in list(vars(module).items()):
                if value is func:
                    self._restore.append((module, key, value))
                    setattr(module, key, wrapper)

    def _wrap(self, func, name_id: int, sets_trajectory: bool):
        spans, stack, trajectory = self.spans, self._stack, self._trajectory
        clock = time.perf_counter_ns

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            outer = trajectory[0]
            if sets_trajectory:
                trajectory[0] = args[1] if len(args) > 1 else kwargs["index"]
            start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                end = clock()
                spans[sid] = (name_id, parent, trajectory[0], start, end)
                trajectory[0] = outer
                stack.pop()

        return wrapper


def write_spans(path, passes: list[Tracer]) -> None:
    """Write the spans of every traced pass as tab-separated text."""
    with open(path, "w") as f:
        f.write("pass\tspan\tparent\tname\ttrajectory\tstart_ns\tend_ns\n")
        for k, tracer in enumerate(passes):
            names = tracer.names
            for i, (name_id, parent, traj, start, end) in enumerate(tracer.spans):
                f.write(f"{k}\t{i}\t{parent}\t{names[name_id]}\t{traj}\t{start}\t{end}\n")
