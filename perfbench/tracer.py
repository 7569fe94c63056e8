"""Spans around the calls into each annealkit layer, installed at run time.

The tracer wraps public functions where the package binds them and four
hot-loop boundaries (SignalBank.eval_at, _Rhs.__call__, DOP853.step,
NoiseSignal.eval).  Nothing in src/ changes: wrappers are set on module
and class attributes of this process only and removed by uninstall().

A span's self time is its duration minus the durations of its child
spans, so the self times of all spans under a root add up to the root's
wall time.  Hot-loop spans are aggregated only; every other span is kept
in memory as (id, parent, name, start, end, op), where op is the id of the
root span it belongs to, and written out at the end of the run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import sys
import time

# span name -> (module, attribute) of a function; wrapped wherever bound
FUNCTION_SPANS = {
    "cli.main": ("annealkit.cli", "main"),
    "config.load_config": ("annealkit.config", "load_config"),
    "config.validate_config": ("annealkit.config", "validate_config"),
    "ensemble.run_sweep": ("annealkit.ensemble", "run_sweep"),
    "ensemble.point": ("annealkit.ensemble", "run_point"),
    "ensemble.realization": ("annealkit.ensemble", "_one_realization"),
    "noise.sample_signal": ("annealkit.noise", "sample_signal"),
    "fermion.ground_state": ("annealkit.fermion", "ground_state"),
    "fermion.evolve": ("annealkit.fermion", "evolve"),
    "fermion.correlations": ("annealkit.fermion", "correlations"),
    "tables.write_table": ("annealkit.tables", "write_table"),
    "tables.read_table": ("annealkit.tables", "read_table"),
    "tables.append_row": ("annealkit.tables", "append_row"),
    "qubit.evolve": ("annealkit.qubit", "evolve_qubit"),
    "qubit.coherence_time": ("annealkit.qubit", "coherence_time"),
    "chimera.build_embedding": ("annealkit.chimera", "build_embedding"),
    "chimera.read_embedding": ("annealkit.chimera", "read_embedding"),
    "chimera.read_samples": ("annealkit.chimera", "read_samples"),
    "chimera.decode_samples": ("annealkit.chimera", "decode_samples"),
    "chimera.aggregate_tiles": ("annealkit.chimera", "aggregate_tiles"),
    "scaling.fit_global": ("annealkit.scaling", "fit_global"),
    "analysis.fit_table": ("annealkit.analysis", "fit_table"),
}

# span name -> (module, class, method); aggregated, never kept one by one
HOT_SPANS = {
    "noise.bank_eval": ("annealkit.noise", "SignalBank", "eval_at"),
    "noise.signal_eval": ("annealkit.noise", "NoiseSignal", "eval"),
    "fermion.rhs": ("annealkit.fermion", "_Rhs", "__call__"),
    "fermion.step": ("scipy.integrate", "DOP853", "step"),
}

# durations kept per span for latency percentiles, and results kept for
# health checks made after the timed section
KEEP_DURATIONS = ("ensemble.realization",)
KEEP_RESULTS = ("fermion.evolve",)

_INHERITED = object()


class Tracer:
    def __init__(self):
        self.stack = []           # [name, start, child_time, span_id]
        self.calls = {}
        self.total = {}
        self.self_time = {}
        self.durations = {name: [] for name in KEEP_DURATIONS}
        self.results = {name: [] for name in KEEP_RESULTS}
        self.spans = []
        self.op = None            # id of the root span in flight
        self.steps = 0            # DOP853 steps taken inside fermion.evolve
        self.step_rhs = 0         # RHS evaluations made by those steps
        self.step_state_bytes = 0
        self.read_sample_bytes = 0
        self._next_id = 0
        self._undo = []

    # -- span bookkeeping ---------------------------------------------------

    def enter(self, name: str) -> None:
        self._next_id += 1
        if not self.stack:
            self.op = self._next_id
        self.stack.append([name, time.perf_counter(), 0.0, self._next_id])

    def exit(self, keep: bool = True) -> None:
        end = time.perf_counter()
        name, start, child, span_id = self.stack.pop()
        dur = end - start
        if self.stack:
            self.stack[-1][2] += dur
        self.calls[name] = self.calls.get(name, 0) + 1
        self.total[name] = self.total.get(name, 0.0) + dur
        self.self_time[name] = self.self_time.get(name, 0.0) + dur - child
        if name in self.durations:
            self.durations[name].append(dur)
        if keep:
            parent = self.stack[-1][3] if self.stack else None
            self.spans.append((span_id, parent, name, start, end, self.op))

    @contextlib.contextmanager
    def span(self, name: str):
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        # import every traced module first, so no module binds a wrapper by
        # importing it after its target was patched
        for module_name, *_ in (*FUNCTION_SPANS.values(), *HOT_SPANS.values()):
            importlib.import_module(module_name)
        for name, (module_name, attr) in FUNCTION_SPANS.items():
            original = getattr(sys.modules[module_name], attr, None)
            if original is None:
                continue
            wrapper = self._wrap(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not mod_name.startswith("annealkit"):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)
        for name, (module_name, cls_name, attr) in HOT_SPANS.items():
            cls = getattr(sys.modules[module_name], cls_name, None)
            original = getattr(cls, attr, None) if cls is not None else None
            if original is None:
                continue
            wrapped = (self._wrap_step(original) if name == "fermion.step"
                       else self._wrap(name, original, keep=False))
            self._set(cls, attr, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            if original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, vars(owner).get(attr, _INHERITED)))
        setattr(owner, attr, value)

    def _wrap(self, name, fn, keep=True):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == "chimera.read_samples":
                tracer.read_sample_bytes += os.path.getsize(args[0])
            tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit(keep)
            if name in tracer.results:
                tracer.results[name].append(result)
            return result
        return traced

    def _wrap_step(self, fn):
        """DOP853.step is a chain span only inside fermion.evolve; the
        qubit solver's steps stay part of qubit.evolve's self time."""
        tracer = self

        @functools.wraps(fn)
        def traced(solver):
            if not tracer.stack or tracer.stack[-1][0] != "fermion.evolve":
                return fn(solver)
            nfev = solver.nfev
            tracer.enter("fermion.step")
            try:
                return fn(solver)
            finally:
                tracer.exit(keep=False)
                tracer.steps += 1
                tracer.step_rhs += solver.nfev - nfev
                tracer.step_state_bytes += solver.y.nbytes
        return traced

    # -- results ------------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, name, start, end, op in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent,
                                     "name": name, "start": start,
                                     "end": end, "op": op}) + "\n")
