"""Spans around calls into the program, recorded from outside it.

The traced run rebinds each traced function, in every ``perturbsense``
module that holds it, to a wrapper that records a span (name, start, end,
parent span, op id).  ``numpy.linalg.eigh`` and
``SpectralDecomposition.__post_init__`` are wrapped the same way.  Spans
stay in memory and are written out when the run ends.  The measured
(untraced) runs never import this module.
"""

from __future__ import annotations

import hashlib
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from perturbsense import (
    cli,
    dynamic_estimation,
    models,
    operators,
    oracle,
    perturbation,
    static_estimation,
)

TRACED_FUNCTIONS = {
    "operators.hermitian_eig": (operators, "hermitian_eig"),
    "perturbation.first_order_correction": (perturbation, "first_order_correction"),
    "perturbation.overlaps": (perturbation, "overlaps"),
    "static_estimation.static_report": (static_estimation, "static_report"),
    "static_estimation.qfim_static": (static_estimation, "qfim_static"),
    "static_estimation.uhlmann_static": (static_estimation, "uhlmann_static"),
    "static_estimation.bound_b": (static_estimation, "bound_b"),
    "static_estimation.quantumness_r": (static_estimation, "quantumness_r"),
    "dynamic_estimation.k_operator_spectral": (dynamic_estimation, "k_operator_spectral"),
    "dynamic_estimation.qfim_dynamic": (dynamic_estimation, "qfim_dynamic"),
    "dynamic_estimation.scan_time": (dynamic_estimation, "scan_time"),
    "models.build": (models, "build"),
    "oracle.fd_qfim": (oracle, "fd_qfim"),
    "oracle.exact_eigenstate": (oracle, "exact_eigenstate"),
    "cli.main": (cli, "main"),
}
EIGH = "operators.eigh"
SPECTRAL_CHECK = "operators.spectral_check"
ASSEMBLY = (
    "static_estimation.static_report",
    "static_estimation.qfim_static",
    "static_estimation.uhlmann_static",
    "static_estimation.bound_b",
    "static_estimation.quantumness_r",
)


class Tracer:
    """Records spans while installed; ``begin_op`` starts the next op id."""

    def __init__(self):
        # [name, start, end, parent index, op id, seconds spent hashing the input]
        self.spans: list = []
        self.eigh_keys: dict[int, bytes] = {}  # span index -> digest of the solved matrix
        self.op = -1
        self._stack: list[int] = []
        self._bindings: list = []  # (owner, attribute, original, wrapper)
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "perturbsense"]
        for name, (module, attr) in TRACED_FUNCTIONS.items():
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._bindings.append((mod, key, original, wrapper))
        eigh = np.linalg.eigh
        self._bindings.append((np.linalg, "eigh", eigh, self._wrap(EIGH, eigh, keyed=True)))
        check = operators.SpectralDecomposition.__post_init__
        self._bindings.append(
            (operators.SpectralDecomposition, "__post_init__", check, self._wrap(SPECTRAL_CHECK, check))
        )

    def _wrap(self, name, fn, keyed=False):
        spans, stack, keys = self.spans, self._stack, self.eigh_keys

        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            record = [name, time.perf_counter(), 0.0, parent, self.op, 0.0]
            spans.append(record)
            stack.append(index)
            if keyed:
                a = np.ascontiguousarray(args[0])
                keys[index] = hashlib.blake2b(
                    a.tobytes() + str((a.shape, a.dtype)).encode(), digest_size=16
                ).digest()
                record[5] = time.perf_counter() - record[1]
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()

        return wrapper

    def begin_op(self) -> None:
        self.op += 1

    def install(self) -> None:
        for owner, attr, _, wrapper in self._bindings:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._bindings:
            setattr(owner, attr, original)

    def layer_metrics(self, traced_ms: list[float], plain_ms: list[float]) -> dict:
        """Per-op calls and self times of each layer, plus the derived shares."""
        ops = self.op + 1
        self_s = [end - start - hashing for _, start, end, _, _, hashing in self.spans]
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                self_s[parent] -= end - start
        calls: dict[str, int] = defaultdict(int)
        self_ms: dict[str, float] = defaultdict(float)
        for (name, *_), s in zip(self.spans, self_s):
            calls[name] += 1
            self_ms[name] += 1e3 * s

        repeats = in_oracle = 0
        seen: dict[int, set] = defaultdict(set)
        for index, key in self.eigh_keys.items():
            op = self.spans[index][4]
            repeats += key in seen[op]
            seen[op].add(key)
            parent = self.spans[index][3]
            while parent >= 0 and not self.spans[parent][0].startswith("oracle."):
                parent = self.spans[parent][3]
            in_oracle += parent >= 0

        def per_op(value):
            return value / ops

        m = {}
        for name in [EIGH, SPECTRAL_CHECK, *TRACED_FUNCTIONS]:
            m[f"{name}.calls"] = per_op(calls[name])
            m[f"{name}.self_ms"] = per_op(self_ms[name])
        eigh_calls = calls[EIGH]
        m[f"{EIGH}.repeat_share"] = repeats / eigh_calls if eigh_calls else 0.0
        checks = self_ms["operators.hermitian_eig"] + self_ms[SPECTRAL_CHECK]
        m["operators.check_share"] = checks / (checks + self_ms[EIGH]) if checks else 0.0
        m["static_estimation.assembly_ms"] = per_op(sum(self_ms[n] for n in ASSEMBLY))
        m["oracle.eigensolves_per_check"] = per_op(in_oracle)
        m["trace.overhead_ratio"] = statistics.median(traced_ms) / statistics.median(plain_ms)
        return m

    def write(self, path: Path) -> None:
        """Write every span as CSV: op, name, start_s, end_s, parent."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op,name,start_s,end_s,parent\n")
            for name, start, end, parent, op, _ in self.spans:
                fh.write(f"{op},{name},{start!r},{end!r},{parent}\n")
