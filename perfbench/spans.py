"""In-memory span recording around graphham's public functions.

A `Tracer` replaces each traced function with a wrapper wherever a caller
looks the name up: graphham's modules bind their imports with
`from .x import y`, so every module namespace that holds the function gets
the wrapper, and `ReferenceRates` methods are replaced on the class. Nothing
under `src/` changes; `Tracer.patched()` restores every binding on exit.

A span is one call: name, start, end, parent span, invocation id, and one
work count taken from the call's arguments (rows, steps, entries, ...).
Spans stay in per-thread buffers until the pass ends. Calls made on a
worker thread, such as the sampler's chunk pool, take the innermost span
open on the tracing thread as their parent.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import itertools
import sys
import threading
import time
from array import array

import numpy as np

# span times are stored relative to the tracer start, so that a parent's
# rank and a time fit one int64 sort key; a pass never lasts 2^38 ns (275 s)
_TIME_BITS = 38


def _steps(t0, t1, dt) -> float:
    """Step count of graphham's fixed-step marchers for one window."""
    return float(max(1, int(round((t1 - t0) / dt))))


def _bound(fn):
    sig = inspect.signature(fn)

    def arguments(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments
    return arguments


def targets():
    """(span name, owner, attribute, work counter) for every traced function.

    The counter maps (args, kwargs, result) to the span's work count; the
    hot ones read positions directly instead of binding the signature.
    """
    # the package re-exports the function theta over its submodule's name
    dynamics, graph, hamiltonians, markov, sbp, scenarios, theta = (
        importlib.import_module("graphham." + name)
        for name in ("dynamics", "graph", "hamiltonians", "markov", "sbp",
                     "scenarios", "theta"))

    def by_args(fn, count):
        arguments = _bound(fn)
        return lambda args, kwargs, result: count(arguments(args, kwargs))

    def elements(args, kwargs, result):
        return float(np.broadcast(args[1], args[2]).size)

    def steps(fn, t0="t0", t1="t1"):
        return by_args(fn, lambda a: _steps(a[t0], a[t1], a["dt"]))

    rates = hamiltonians.ReferenceRates
    return [
        ("theta.theta", theta, "theta", elements),
        ("theta.theta_partial", theta, "theta_partial", elements),
        ("graph.validate_graph", graph, "validate_graph", None),
        ("hamiltonians.vector_field", hamiltonians, "vector_field", None),
        ("hamiltonians.eval_H", hamiltonians, "eval_H", None),
        ("hamiltonians.support", rates, "support", None),
        ("hamiltonians.rates_at", rates, "at", None),
        ("hamiltonians.rates_at_many", rates, "at_many",
         lambda args, kwargs, result: float(np.size(args[1] if len(args) > 1
                                                    else kwargs["ts"]))),
        ("dynamics.integrate", dynamics, "integrate", steps(dynamics.integrate)),
        ("dynamics.fundamental_matrix", dynamics, "fundamental_matrix",
         steps(dynamics.fundamental_matrix)),
        ("dynamics.monodromy", dynamics, "monodromy", None),
        ("dynamics.schrodinger_evolve", dynamics, "schrodinger_evolve",
         steps(dynamics.schrodinger_evolve)),
        ("dynamics.symplectic_check", dynamics, "symplectic_check", None),
        ("markov.build_rate_matrix", markov, "build_rate_matrix", None),
        ("markov.validate_rate_matrix", markov, "validate_rate_matrix",
         by_args(markov.validate_rate_matrix, lambda a: float(np.size(a["q"])))),
        ("markov.sample_paths", markov, "sample_paths",
         by_args(markov.sample_paths, lambda a: float(a["n_paths"]))),
        ("markov.empirical_densities", markov, "empirical_densities", None),
        ("markov.propagator", markov, "propagator",
         steps(markov.propagator, t0="s", t1="t")),
        ("sbp.solve_bridge", sbp, "solve_bridge",
         lambda args, kwargs, result: float(getattr(result, "iterations", 0))),
        ("sbp.integrated_entropy_rate", sbp, "integrated_entropy_rate", None),
        ("sbp.path_entropy_bruteforce", sbp, "path_entropy_bruteforce", None),
        ("sbp.markov_condition_residual", sbp, "markov_condition_residual", None),
        ("sbp.stationary_point", sbp, "stationary_point", None),
        ("sbp.periodic_rate_from_density", sbp, "periodic_rate_from_density", None),
        ("scenarios.load_config", scenarios, "load_config", None),
    ]


class _Buffer:
    """Spans finished on one thread, column by column."""

    def __init__(self):
        self.stack = []
        self.ids = array("q")
        self.names = array("i")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self.invocations = array("i")
        self.work = array("d")


class Tracer:
    """Records spans while its `patched()` context is active."""

    def __init__(self):
        self.names: list = []
        self.invocation = -1
        self._ids = itertools.count()
        self._local = threading.local()
        self._buffers: list = []
        self._home = self._buffer()
        self._origin = time.perf_counter_ns()

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = _Buffer()
            self._local.buf = buf
            self._buffers.append(buf)
        return buf

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn, work=None):
        """fn with a span recorded around each call."""
        nid = self._name_id(name)
        home, ids, clock = self._home, self._ids, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            buf = self._buffer()
            stack = buf.stack
            if stack:
                parent = stack[-1]
            else:
                parent = home.stack[-1] if home.stack else -1
            sid = next(ids)
            stack.append(sid)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                buf.ids.append(sid)
                buf.names.append(nid)
                buf.starts.append(start)
                buf.ends.append(end)
                buf.parents.append(parent)
                buf.invocations.append(self.invocation)
                buf.work.append(1.0 if work is None else work(args, kwargs, result))
        return traced

    @contextlib.contextmanager
    def patched(self):
        """Swap every traced function for its wrapper in all graphham modules."""
        undo = []
        try:
            modules = [m for key, m in list(sys.modules.items())
                       if key == "graphham" or key.startswith("graphham.")]
            for name, owner, attr, work in targets():
                original = owner.__dict__[attr]
                traced = self.wrap(name, original, work)
                if isinstance(owner, type):
                    undo.append((owner, attr, original))
                    setattr(owner, attr, traced)
                    continue
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            undo.append((module, key, original))
                            setattr(module, key, traced)
            yield self
        finally:
            for owner, key, original in reversed(undo):
                setattr(owner, key, original)

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span of its own."""
        return self.wrap(name, fn)(*args, **kwargs)

    def spans(self) -> dict:
        """All finished spans as arrays indexed by span id, plus self times."""
        cols = {key: np.concatenate([np.asarray(getattr(b, key), dtype=dt)
                                     for b in self._buffers])
                for key, dt in (("ids", np.int64), ("names", np.int32),
                                ("starts", np.int64), ("ends", np.int64),
                                ("parents", np.int64), ("invocations", np.int32),
                                ("work", np.float64))}
        order = np.argsort(cols["ids"], kind="stable")
        cols = {key: value[order] for key, value in cols.items()}
        if len(cols["ids"]) and not np.array_equal(cols["ids"], np.arange(len(order))):
            raise RuntimeError("a span was left open")
        cols["starts"] -= self._origin
        cols["ends"] -= self._origin
        cols["self_ns"] = _self_times(cols["starts"], cols["ends"], cols["parents"])
        return cols


def _self_times(starts, ends, parents) -> np.ndarray:
    """Span duration minus the part of it that its child spans cover.

    Children on two threads may overlap, so the covered part is the union
    of their intervals, merged per parent in start order.
    """
    dur = ends - starts
    kids = np.flatnonzero(parents >= 0)
    if len(kids) == 0:
        return dur
    if ends.max() >= 1 << _TIME_BITS:
        raise RuntimeError("traced pass too long for the span sort key")
    # the parent in the high bits keeps each parent's children contiguous
    base = parents[kids] << _TIME_BITS
    lo, hi = base + starts[kids], base + ends[kids]
    order = np.argsort(lo, kind="stable")
    lo, hi, owner = lo[order], hi[order], parents[kids][order]
    reach = np.maximum.accumulate(hi)
    prev = np.concatenate([[np.iinfo(np.int64).min], reach[:-1]])
    covered = np.clip(hi - np.maximum(lo, prev), 0, None)
    return dur - np.bincount(owner, weights=covered, minlength=len(dur)).astype(np.int64)
