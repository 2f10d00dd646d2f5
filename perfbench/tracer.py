"""Span tracing of lusym's public functions, done entirely from outside the package.

`from .x import f` copies the binding of f into every importing module, so a
function is traced by rebinding every attribute of every loaded ``lusym.*``
module that *is* the original function. `uninstall` puts the originals back,
so untraced ops run the unmodified code.

Spans live in memory as tuples ``(name, start, end, parent, op)``; `parent`
is the index of the enclosing span or -1, `op` the id of the benchmark op.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

# The layer boundaries, named <module>.<function> after the lusym modules.
TRACED = (
    "analysis.analyze",
    "analysis.verify_symmetry",
    "analysis.compare_strata",
    "circuits.enumerate_circuits",
    "invariants.monomial_from_circuit",
    "invariants.evaluate",
    "normalizer.compute_normalizer",
    "normalizer.phase_condition_filter",
    "symmetry.solve_symmetry_group",
    "symmetry.qubit_action_profile",
    "symmetry.group_member",
    "symmetry.group_contains",
    "exactlinalg.smith_normal_form",
    "exactlinalg.rational_rank",
    "exactlinalg.rational_kernel",
    "exactlinalg.lattice_member",
    "states.apply_phase_element",
    "serialize.dump_report",
    "serialize.load_group",
)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.op = -1
        self._stack: list[int] = []
        self._wrappers: dict[int, tuple] = {}  # id(original) -> (original, wrapper)
        self._bound: list[tuple[object, str, object]] = []
        self.absent: list[str] = []
        for name in TRACED:
            module, func = name.split(".")
            try:
                original = getattr(importlib.import_module(f"lusym.{module}"), func)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            self._wrappers[id(original)] = (original, self._wrap(name, original))

    def _wrap(self, name, original):
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)

        return traced

    def install(self) -> None:
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "lusym" or modname.startswith("lusym.")):
                continue
            for attr, value in list(vars(module).items()):
                entry = self._wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
                    self._bound.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, original in self._bound:
            setattr(module, attr, original)
        self._bound.clear()


def summarize(spans) -> dict[str, dict[str, float]]:
    """calls, inclusive and self seconds per traced function, summed over spans.

    Inclusive time counts only the outermost span of a name on each stack, so
    a function calling itself is not counted twice. Self time is a span's
    duration minus the durations of its direct children.
    """
    out = {name: {"calls": 0, "incl": 0.0, "self": 0.0} for name in TRACED}
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    for i, (name, start, end, parent, _) in enumerate(spans):
        row = out[name]
        row["calls"] += 1
        row["self"] += end - start - child_time[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            row["incl"] += end - start
    return out
