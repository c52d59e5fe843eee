"""Outside-in span tracer for conecf.

The tracer rebinds, at module-global level, the names through which one
conecf module calls another (plus a few intra-module helpers that carry
most of the traffic), so no file of the package is edited.  Each wrapper
opens a span on entry and closes it on exit.  Spans are aggregated as
they close, keyed by binding: a million-span trace stored whole would
itself move the memory the benchmark measures.

A span's layer is the module that defines the wrapped function, so
``harness.trace_cf`` counts toward ``contfrac``.  Self time is a span's
duration minus the durations of its direct child spans, so the self
times of all spans sum to the durations of the root spans, with nothing
counted twice.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

# The single-shot evaluators, as bound in the modules that call them.
EVALUATORS = (
    "cf_general",
    "cf_ordinary",
    "to_ordinary",
    "w_seq",
    "u_vec",
    "f_closed",
    "f_direct",
    "q_apply",
    "_jump_expected",
)
# (module, name) bindings to wrap.  A binding missing from the installed
# package is reported as absent, not as an error: refactors are expected to
# remove some of them.
BINDINGS = (
    ("jordan", "_jacobi"),
    ("jordan", "in_cone"),
    ("division", "_chol_raw"),
    ("division", "_pi_raw"),
    ("division", "in_cone"),
    ("contfrac", "_jacobi"),
    ("contfrac", "_pi_raw"),
    ("contfrac", "_chol_raw"),
    ("contfrac", "in_cone"),
    ("randmat", "in_cone"),
    ("harness", "trace_cf"),
    ("harness", "sample_beta2"),
    ("harness", "sample_wishart"),
    ("harness", "pi_apply"),
    ("harness", "in_cone"),
    ("harness", "_min_eig_raw"),
    *(("harness", name) for name in EVALUATORS),
    ("cli", "run_convergence_experiment"),
    ("cli", "run_identity_suite"),
    ("cli", "trace_cf"),
    *(("cli", name) for name in ("cf_general", "cf_ordinary", "to_ordinary")),
)
LAYERS = ("jordan", "division", "contfrac", "randmat", "harness", "cli")


class Tracer:
    """Per-binding span aggregates: calls, ``None`` results, self time."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.nones: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.layer_of: dict[str, str] = {}
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.root_s = 0.0
        self.absent: list[str] = []
        self._stack: list[list[float]] = []
        self._installed: list[tuple[object, str, object]] = []

    def span(self, key: str, layer: str, fn, keep_durations: bool = False):
        """Wrap ``fn`` so every call records one span under ``key``."""
        self.layer_of[key] = layer
        stack = self._stack

        def wrapper(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                self.calls[key] += 1
                self.self_s[key] += dt - children[0]
                if stack:
                    stack[-1][0] += dt
                else:
                    self.root_s += dt
                if keep_durations:
                    self.durations[key].append(dt)
            if result is None:
                self.nones[key] += 1
            return result

        return wrapper

    def install(self) -> None:
        """Rebind every listed name that exists; record the rest as absent."""
        self.absent = []
        for mod_name, name in BINDINGS:
            mod = importlib.import_module(f"conecf.{mod_name}")
            fn = getattr(mod, name, None)
            if fn is None:
                self.absent.append(f"{mod_name}.{name}")
                continue
            layer = fn.__module__.rsplit(".", 1)[-1]
            key = f"{mod_name}.{name}"
            wrapped = self.span(key, layer, fn, keep_durations=name == "trace_cf")
            self._installed.append((mod, name, fn))
            setattr(mod, name, wrapped)

    def uninstall(self) -> None:
        for mod, name, fn in reversed(self._installed):
            setattr(mod, name, fn)
        self._installed.clear()

    def layer_self_s(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for key, s in self.self_s.items():
            out[self.layer_of[key]] += s
        return out
