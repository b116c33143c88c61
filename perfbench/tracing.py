"""Spans and counters recorded around the calls into each entswap layer.

``Tracer.install`` replaces every binding of the traced functions by a
wrapper: each module attribute that holds the function (so callers that look
it up in their own module globals, such as ``analysis.run_swap`` and
``cli.run_swap``, are covered), the ``analysis._SIGNED``/``_CLAMPED`` tables,
``SwapOutcome.pair_state`` and ``numpy.linalg.eigh``/``eigvalsh``. Nothing
under ``src/`` changes; ``uninstall`` puts every binding back.

A span is ``(function, start, end, parent span, task id)``. Spans stay in
memory until ``write_spans``. Self time is a span's duration minus the time
of its traced children.
"""

from __future__ import annotations

import functools
import json
import math
from time import perf_counter

import numpy as np

import entswap
from entswap import analysis, cli, linalg, measures, povm, states, swap
from entswap.swap import SwapOutcome

# Traced functions, named by the module that defines them; the layers are
# the modules.
FUNCTIONS = (
    "cli.main", "cli.build_parser",
    "analysis.sweep", "analysis.find_threshold", "analysis.bisect",
    "swap.run_swap",
    "povm.werner_bell_povm", "povm.asymmetric_povm", "povm.validate", "povm.povm_from_dict",
    "states.initial_four_qubit", "states.check_density_matrix",
    "measures.report", "measures.correlation_spectrum", "measures.negativity_signed",
    "linalg.psd_sqrt", "linalg.partial_trace", "linalg.hermitian_eig",
)

# Where each function is defined (scipy's bisect is reached through analysis).
_HOME = {"analysis.bisect": analysis}
_MODULES = (entswap, cli, analysis, swap, povm, states, measures, linalg)
_TABLES = (analysis._SIGNED, analysis._CLAMPED)

# Functions each workload must reach; a zero count means a missed binding.
EXPECTED = {
    "sweep_grid": (
        "cli.main", "cli.build_parser", "analysis.sweep", "swap.run_swap",
        "povm.werner_bell_povm", "povm.asymmetric_povm", "povm.validate",
        "states.initial_four_qubit", "states.check_density_matrix",
        "measures.report", "measures.correlation_spectrum", "measures.negativity_signed",
        "linalg.psd_sqrt", "linalg.partial_trace", "linalg.hermitian_eig",
    ),
    "threshold_scan": (
        "analysis.find_threshold", "analysis.bisect", "swap.run_swap",
        "povm.werner_bell_povm", "povm.asymmetric_povm", "povm.validate",
        "states.initial_four_qubit", "states.check_density_matrix",
        "measures.correlation_spectrum", "measures.negativity_signed",
        "linalg.psd_sqrt", "linalg.partial_trace", "linalg.hermitian_eig",
    ),
    "custom_povm": (
        "cli.main", "cli.build_parser", "swap.run_swap", "povm.validate",
        "povm.povm_from_dict", "states.initial_four_qubit", "states.check_density_matrix",
        "measures.report", "measures.correlation_spectrum", "measures.negativity_signed",
        "linalg.psd_sqrt", "linalg.partial_trace", "linalg.hermitian_eig",
    ),
}


class Tracer:
    """Records spans and counters while installed; the benchmark installs it
    around the timed call of a task only, so its checks stay untraced."""

    def __init__(self) -> None:
        self.task_id = -1
        self.spans: list[tuple] = []
        self.calls = dict.fromkeys(FUNCTIONS, 0)
        self.total = dict.fromkeys(FUNCTIONS, 0.0)
        self.self_time = dict.fromkeys(FUNCTIONS, 0.0)
        self.counts = dict.fromkeys(
            ("eig_calls", "eig_matrices", "pair_states_built", "pair_states_used",
             "povms_validated", "root_evals"), 0,
        )
        self._stack: list[int] = []     # open span ids
        self._child: list[float] = []   # traced child time of each open span
        self._roots_open = 0            # find_threshold frames on the stack
        self._task_refs: dict[int, object] = {}
        self._bindings = self._find_bindings()

    def _find_bindings(self) -> list[tuple]:
        """(namespace, key, original, wrapper) for every place a caller looks up."""
        found = []
        for name in FUNCTIONS:
            module_name, attr = name.split(".")
            original = getattr(_HOME.get(name, getattr(entswap, module_name)), attr)
            wrapper = self._span(name, original)
            for module in _MODULES:
                found += [(vars(module), key, original, wrapper)
                          for key, value in vars(module).items() if value is original]
            for table in _TABLES:
                found += [(table, key, original, wrapper)
                          for key, value in table.items() if value is original]
        found.append((SwapOutcome, "pair_state", SwapOutcome.pair_state,
                      self._pair_state(SwapOutcome.pair_state)))
        for attr in ("eigh", "eigvalsh"):
            original = getattr(np.linalg, attr)
            found.append((np.linalg, attr, original, self._eig(original)))
        return found

    def install(self) -> None:
        for target, key, _, wrapper in self._bindings:
            _bind(target, key, wrapper)

    def uninstall(self) -> None:
        for target, key, original, _ in self._bindings:
            _bind(target, key, original)

    def _span(self, name: str, fn):
        is_swap = name == "swap.run_swap"
        is_root = name == "analysis.find_threshold"
        is_validate = name == "povm.validate"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if is_validate:
                self._first_use(args[0], "povms_validated")
            if is_swap and self._roots_open:
                self.counts["root_evals"] += 1
            span = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(span)
            self._child.append(0.0)
            self._roots_open += is_root
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._roots_open -= is_root
                self._stack.pop()
                child = self._child.pop()
                took = end - start
                if self._child:
                    self._child[-1] += took
                self.calls[name] += 1
                self.total[name] += took
                self.self_time[name] += took - child
                self.spans[span] = (name, start, end, parent, self.task_id)
            if is_swap:
                self.counts["pair_states_built"] += 3 * sum(not o.degenerate for o in result)
            return result

        return wrapper

    def _pair_state(self, fn):
        @functools.wraps(fn)
        def pair_state(outcome, pair):
            state = fn(outcome, pair)
            self._first_use(state, "pair_states_used")
            return state

        return pair_state

    def _eig(self, fn):
        @functools.wraps(fn)
        def eig(a, *args, **kwargs):
            self.counts["eig_calls"] += 1
            self.counts["eig_matrices"] += math.prod(np.shape(a)[:-2])
            return fn(a, *args, **kwargs)

        return eig

    def _first_use(self, obj, counter: str) -> None:
        # Holding a reference for the rest of the task keeps id() unique.
        if id(obj) not in self._task_refs:
            self._task_refs[id(obj)] = obj
            self.counts[counter] += 1

    def start_task(self, task_id: int) -> None:
        self.task_id = task_id
        self._task_refs.clear()

    # -- results ------------------------------------------------------------

    def missing(self, workload: str) -> list[str]:
        """Expected functions that recorded no call."""
        return [name for name in EXPECTED[workload] if self.calls[name] == 0]

    def metrics(self) -> dict[str, float]:
        """Per-function totals and the counters, each ratio with its base."""
        out: dict[str, float] = {}
        for name in FUNCTIONS:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.total_s"] = self.total[name]
            out[f"{name}.self_s"] = self.self_time[name]
        c = self.counts
        out["linalg.eig_calls"] = c["eig_calls"]
        out["linalg.eig_matrices"] = c["eig_matrices"]
        built, used = c["pair_states_built"], c["pair_states_used"]
        out["swap.pair_states_built"] = built
        out["swap.pair_states_used"] = used
        ratios = {
            "swap.pair_state_use_ratio": (used, built),
            "states.validations_per_state": (self.calls["states.check_density_matrix"], built),
            "povm.validations_per_povm": (self.calls["povm.validate"], c["povms_validated"]),
            "analysis.evals_per_root": (c["root_evals"], self.calls["analysis.find_threshold"]),
        }
        for key, (num, den) in ratios.items():
            if den:
                out[key] = num / den
                out[f"{key}.num"] = num
                out[f"{key}.den"] = den
        return out

    def write_spans(self, path: str) -> None:
        """One JSON array per line: [name, start, end, parent span, task id];
        a span's id is its line number, counted from 0."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _bind(target, key: str, value) -> None:
    if isinstance(target, dict):
        target[key] = value
    else:
        setattr(target, key, value)
