"""Spans and counters around calls into the layers of ``src/hmog``.

The tracer wraps public functions of the program's modules from the
outside: each target is rebound, for the duration of one traced
repetition, in every ``hmog`` module namespace that holds it, so calls the
program makes internally (``pipeline`` calling its own binding of
``lgm_em_step``, ``hierarchical`` calling ``hmog_forward`` from inside the
Adam gradient) are seen as well as the benchmark's own calls. Nothing in
the program is edited and nothing stays wrapped outside ``Tracer.active``.

Spans are kept in memory as ``(name, start, end, parent, run_id, points)``
tuples and written out once, when the benchmark ends.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from collections import Counter

# Timed layers: (module, attribute, name of the points argument or None).
TIMED = (
    ("optim", "adam_optimize", None),
    ("hierarchical", "hmog_forward", None),
    ("hierarchical", "valid_blocks", None),
    ("hierarchical", "hmog_em_iteration", None),
    ("hierarchical", "hmog_posterior_stats", 1),
    ("hierarchical", "hmog_log_densities", 1),
    ("hierarchical", "hmog_classify_batch", 1),
    ("hierarchical", "hmog_project_batch", 1),
    ("mixture", "mixture_posterior_stats", None),
    ("mixture", "shifted_log_partition", None),
    ("mixture", "mog_em_step", None),
    ("mixture", "mixture_conjugation_parameters", None),
    ("linear_gaussian", "lgm_em_step", None),
    ("linear_gaussian", "lgm_forward", None),
    ("linear_gaussian", "lgm_conjugation_parameters", None),
    ("harmonium", "em_iteration", None),
    ("pipeline", "load_csv", None),
    ("cli", "main", None),
)

# Methods whose calls are counted but not timed: they run thousands of
# times per fit, once per component inside Python loops.
COUNTED_METHODS = (
    ("families", "MultivariateNormal", "log_partition"),
    ("families", "MultivariateNormal", "log_partition_batch"),
    ("families", "MultivariateNormal", "to_mean_batch"),
)

# One restart of a training driver is one call of this private helper;
# a restart fails when it raises, or when a unified EM iteration raises.
RESTART_FN = ("pipeline", "_two_stage_single")


def _modules():
    return {
        name.split(".", 1)[1]: module
        for name, module in list(sys.modules.items())
        if name.startswith("hmog.") and module is not None
    }


@contextlib.contextmanager
def _rebind(replacements):
    """Rebind ``original -> wrapper`` in every hmog module namespace."""
    undo = []
    try:
        for module in [sys.modules["hmog"], *_modules().values()]:
            for attr, value in list(vars(module).items()):
                wrapper = replacements.get(id(value))
                if wrapper is not None:
                    undo.append((module, attr, value))
                    setattr(module, attr, wrapper)
        yield
    finally:
        for module, attr, value in reversed(undo):
            setattr(module, attr, value)


class RestartLedger:
    """Counts restarts and restart failures; active in every run.

    ``fit_two_stage``/``fit_hmog`` swallow a failing restart as long as
    another one survives, so the ledger is the only place the benchmark
    can see it. It wraps two calls per restart iteration, which costs
    microseconds per fit.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    @contextlib.contextmanager
    def active(self):
        mods = _modules()
        single = getattr(mods[RESTART_FN[0]], RESTART_FN[1])
        em_iter = mods["hierarchical"].hmog_em_iteration

        def restart(*args, **kwargs):
            self.attempted += 1
            try:
                return single(*args, **kwargs)
            except Exception:
                self.failed += 1
                raise

        def unified_iteration(*args, **kwargs):
            try:
                return em_iter(*args, **kwargs)
            except Exception:
                self.failed += 1
                raise

        with _rebind({id(single): restart, id(em_iter): unified_iteration}):
            yield


class Tracer:
    """In-memory spans and counters for traced repetitions."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.run_id = 0
        self._stack: list[int] = []

    def _timed(self, name: str, fn, points_arg):
        spans, stack, counts = self.spans, self._stack, self.counts

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            sid = len(spans)
            spans.append(None)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                points = len(args[points_arg]) if points_arg is not None else 0
                spans[sid] = (name, start, end, parent, self.run_id, points)
            if name == "optim.adam_optimize":
                counts[name + ".steps"] += result[1]["steps"]
                counts[name + ".rejections"] += result[1]["rejections"]
            elif name == "hierarchical.hmog_em_iteration":
                counts[name + ".kept"] += not result[1].m_step_discarded
            return result

        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name + ".calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def active(self, run_id: int):
        """Trace one repetition; every wrapper is removed on exit."""
        self.run_id = run_id
        mods = _modules()
        replacements = {}
        for module, attr, points_arg in TIMED:
            fn = getattr(mods[module], attr)
            replacements[id(fn)] = self._timed(f"{module}.{attr}", fn, points_arg)
        patched = []
        try:
            for module, cls_name, attr in COUNTED_METHODS:
                cls = getattr(mods[module], cls_name)
                fn = cls.__dict__[attr]
                patched.append((cls, attr, fn))
                setattr(cls, attr, self._counted(f"{module}.{cls_name}.{attr}", fn))
            with _rebind(replacements):
                yield
        finally:
            for cls, attr, fn in reversed(patched):
                setattr(cls, attr, fn)

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total time, self time and points."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for sid, (name, start, end, _, _, points) in enumerate(self.spans):
            row = out.setdefault(
                name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "points": 0}
            )
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child[sid]
            row["points"] += points
        return out

    def write(self, path) -> None:
        """One JSON line per span: id, name, start, end, parent, run id."""
        with open(path, "w", encoding="utf-8") as handle:
            for sid, (name, start, end, parent, run_id, points) in enumerate(self.spans):
                handle.write(json.dumps(
                    {"id": sid, "name": name, "start": start, "end": end,
                     "parent": parent, "run": run_id, "points": points}
                ) + "\n")
