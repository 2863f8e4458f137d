"""Layer tracing from outside the polarsim package.

`patched(tracer)` replaces public functions and methods of polarsim with
timing wrappers in every polarsim module namespace that holds them (so
`polarsim.protocol.ensemble_density` and `polarsim.cli.sweep_siphon` are
caught as well as the defining module's name), and restores every original
on exit. Spans are kept in memory with their parent and root ids and written
out at the end; self time is a span's duration minus the time its child
spans cover.

Cheap helpers such as `normalize_angle` and `pure_state` are left unwrapped:
a wrapper would cost more than they do. Their time shows in the caller's
self time. The hooks that count decisions, clipped reconstructions and CSV
bytes run in a `bench.hook` span of their own, so their cost is the
harness's and not the traced caller's.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import time
from collections import defaultdict
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

# workloads imports polarsim from the tree's src/, and from nowhere else
from workloads import polarsim
from polarsim import cli, polarization, protocol, sweeps, tomography
from polarsim.polarization import PSD_TOL

MODULES = {"polarsim": polarsim, "polarization": polarization, "tomography": tomography,
           "protocol": protocol, "sweeps": sweeps, "cli": cli}

# a traced run keeps at most this many raw spans; aggregates cover all of them
SPAN_CAP = 50_000

# span around each hook, so that its cost is not booked to a polarsim layer
HOOK_SPAN = "bench.hook"


class Tracer:
    def __init__(self) -> None:
        # (span_id, parent_id, root_id, name, start_ns, end_ns); parent 0 = root
        self.spans: List[Tuple[int, int, int, str, int, int]] = []
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, int] = defaultdict(int)
        self._stack: List[list] = []  # [span_id, name, start_ns, child_ns]
        self._next_id = 1
        self._root = 0

    def enter(self, name: str) -> None:
        span_id = self._next_id
        self._next_id += 1
        if not self._stack:
            self._root = span_id
        self._stack.append([span_id, name, time.perf_counter_ns(), 0])

    def exit(self) -> None:
        end = time.perf_counter_ns()
        span_id, name, start, child_ns = self._stack.pop()
        duration = end - start
        self.self_ns[name] += duration - child_ns
        self.calls[name] += 1
        parent = 0
        if self._stack:
            self._stack[-1][3] += duration
            parent = self._stack[-1][0]
        if len(self.spans) < SPAN_CAP:
            self.spans.append((span_id, parent, self._root, name, start, end))

    def unwind(self) -> None:
        """Close the spans a failed call left open."""
        while self._stack:
            self.exit()

    def layer_self_ns(self, layer: str) -> int:
        prefix = layer + "."
        return sum(ns for name, ns in self.self_ns.items() if name.startswith(prefix))

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for span_id, parent, root, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "root": root,
                                     "name": name, "start_ns": start, "end_ns": end}) + "\n")


def _count_decision(tracer: Tracer, args: tuple, outcome) -> None:
    tracer.counts["protocol.decisions." + outcome.decision.value] += 1


def _count_clip(tracer: Tracer, args: tuple, rho) -> None:
    # reconstruct_from_stokes projects iff the raw estimate has an eigenvalue
    # (1 - |s|) / 2 below -PSD_TOL, i.e. |s| > 1 + 2 PSD_TOL
    c = args[0]
    s1 = (c.n_d - c.n_a) / (c.n_d + c.n_a)
    s2 = (c.n_r - c.n_l) / (c.n_r + c.n_l)
    s3 = (c.n_h - c.n_v) / (c.n_h + c.n_v)
    tracer.counts["tomography.reconstructions"] += 1
    tracer.counts["tomography.clipped"] += (s1 * s1 + s2 * s2 + s3 * s3) ** 0.5 > 1.0 + 2.0 * PSD_TOL


def _count_csv_bytes(tracer: Tracer, args: tuple, result) -> None:
    tracer.counts["sweeps.csv_bytes"] += os.path.getsize(args[1])


Hook = Optional[Callable[[Tracer, tuple, object], None]]

# (module, function or Class.method, span name, hook run after the call)
TARGETS: Sequence[Tuple[str, str, str, Hook]] = (
    ("polarization", "DensityMatrix.__post_init__", "polarization.density_matrix", None),
    ("polarization", "PhotonEnsemble.__post_init__", "polarization.photon_ensemble", None),
    ("polarization", "density_of_pure", "polarization.density_of_pure", None),
    ("polarization", "ensemble_density", "polarization.ensemble_density", None),
    ("polarization", "eigendecompose", "polarization.eigendecompose", None),
    ("polarization", "purity", "polarization.purity", None),
    ("polarization", "matrix_distance", "polarization.matrix_distance", None),
    ("polarization", "stokes_from_density", "polarization.stokes_from_density", None),
    ("tomography", "born_probabilities", "tomography.born_probabilities", None),
    ("tomography", "sample_counts", "tomography.sample_counts", None),
    ("tomography", "simulate_counts", "tomography.simulate_counts", None),
    ("tomography", "stokes_estimate", "tomography.stokes_estimate", None),
    ("tomography", "reconstruct", "tomography.reconstruct", _count_clip),
    ("protocol", "run_protocol", "protocol.run_protocol", _count_decision),
    ("protocol", "decide", "protocol.decide", None),
    ("protocol", "ProtocolOutcome.to_key_value_block", "protocol.render", None),
    ("sweeps", "sweep_siphon", "sweeps.sweep_siphon", None),
    ("sweeps", "sweep_delta_family", "sweeps.sweep_delta_family", None),
    ("sweeps", "mixture_density", "sweeps.mixture_density", None),
    ("sweeps", "write_csv", "sweeps.csv_write", _count_csv_bytes),
    ("sweeps", "write_delta_family_csv", "sweeps.csv_write", _count_csv_bytes),
    ("cli", "main", "cli.main", None),
)


def _wrap(fn: Callable, span: str, tracer: Tracer, hook: Hook) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tracer.enter(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        if hook is not None:
            tracer.enter(HOOK_SPAN)
            try:
                hook(tracer, args, result)
            finally:
                tracer.exit()
        return result

    traced.__bench_original__ = fn
    return traced


@contextlib.contextmanager
def patched(tracer: Tracer) -> Iterator[None]:
    """Install timing wrappers for TARGETS; restore every name on exit."""
    undo: List[Tuple[object, str, object]] = []
    try:
        for module_name, qualname, span, hook in TARGETS:
            owner = MODULES[module_name]
            if "." in qualname:
                class_name, attr = qualname.split(".")
                cls = getattr(owner, class_name)
                original = cls.__dict__[attr]
                undo.append((cls, attr, original))
                setattr(cls, attr, _wrap(original, span, tracer, hook))
                continue
            original = getattr(owner, qualname)
            wrapper = _wrap(original, span, tracer, hook)
            for module in MODULES.values():
                for name, value in list(vars(module).items()):
                    if value is original:
                        undo.append((module, name, original))
                        setattr(module, name, wrapper)
        yield
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


def leftover_wrappers() -> List[str]:
    """Names in polarsim that still hold a tracing wrapper."""
    found = []
    for module_name, module in MODULES.items():
        for name, value in vars(module).items():
            if hasattr(value, "__bench_original__"):
                found.append(f"{module_name}.{name}")
            if isinstance(value, type):
                found.extend(f"{module_name}.{name}.{attr}" for attr, member in vars(value).items()
                             if hasattr(member, "__bench_original__"))
    return found
