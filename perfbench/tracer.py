"""Outside-in layer trace: spans around calls into the program's public API.

Nothing under ``src/`` changes.  :meth:`Tracer.install` replaces public
methods and module functions of the program with wrappers defined here and
:meth:`Tracer.uninstall` puts the originals back, so untraced simulations in
the same process run the unmodified code:

* ``rma.ctx.*``      -- :class:`SimProcessContext` RMA calls plus ``compute``
  and ``barrier`` (dispatch, op bookkeeping, baton acquire/release and the
  inline driving of other ranks' spin waits);
* ``rma.window.*``   -- :class:`Window` memory ops; ``rma.window.init`` is the
  window constructor and the bulk ``load`` of the initial lock words;
* ``rma.fabric``     -- :meth:`FabricContentionModel.traverse`;
* ``rma.latency``    -- ``cost_table`` (the per-run cache lookup);
* ``rma.run``        -- :meth:`SimRuntime.run` on the calling thread;
* ``core.*``         -- lock-handle acquire/release of RMA-RW and RMA-MCS;
* ``traffic.*``      -- ``generate_schedule`` and ``aggregate_traffic``;
* ``bench.*``        -- the benchmark's call into the harness and each rank
  program built by ``make_lock_program``.

Each thread keeps its own span stack.  Self time is a span's duration on the
thread CPU clock minus its children's durations and the calibrated cost of
the span machinery itself.  The simulator passes one baton between rank
threads, so consecutive span events on different rank threads are exactly
the rank-thread handoffs.  Spans are kept in memory while
:attr:`Tracer.recording` is set; :meth:`Tracer.write_spans` writes them out.
"""

from __future__ import annotations

import json
import statistics
import threading
import time
from array import array
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

_cpu_ns = time.thread_time_ns
_wall_ns = time.perf_counter_ns
_get_ident = threading.get_ident

_CTX_METHODS = ("put", "get", "accumulate", "fao", "cas", "flush", "spin_on_cells",
                "compute", "barrier")
_WINDOW_METHODS = ("read", "write", "apply", "fetch_and_op", "compare_and_swap")
_ACQUIRES = ("acquire", "acquire_read", "acquire_write")
_LOCK_METHODS = _ACQUIRES + ("release", "release_read", "release_write")

#: Raw spans kept for the span file (the aggregates cover every span).
MAX_RECORDED_SPANS = 1_000_000


class Tracer:
    """Span stacks, self-time aggregates and layer counters for one process."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self._patches: List[Tuple[Any, str, Any]] = []
        self._main = threading.main_thread().ident
        #: Per-span cost of the wrapper as seen from the parent span and
        #: inside the span's own clock window (see :meth:`calibrate`).
        self.cost_outside_ns = 0
        self.cost_inside_ns = 0
        self.recording = False
        #: Set while a window op or bulk load runs, so the window's own
        #: nested calls (``apply`` -> ``fetch_and_op``, ``load`` -> ``write``)
        #: are neither spanned nor counted.  One rank thread runs at a time.
        self._in_window = False
        self._core_sids: set = set()
        self.reset()

    # ------------------------------------------------------------------ #
    # Span machinery
    # ------------------------------------------------------------------ #

    def sid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            if name.startswith("core."):
                self._core_sids.add(self._ids[name])
            self.self_ns.append(0)
            self.count.append(0)
        return self._ids[name]

    def reset(self) -> None:
        """Clear every aggregate and recorded span (names stay registered)."""
        n = len(self.names)
        self.self_ns: List[int] = [0] * n
        self.count: List[int] = [0] * n
        self._stacks: Dict[int, list] = {}
        self._threads: Dict[int, int] = {}
        self._last = None
        self._next_span = 0
        self.handoffs = 0
        self.spans = 0
        self.cas_total = 0
        self.cas_ok = 0
        self.polls = 0
        self.init_words = 0
        self.acquires = 0
        self.records = {
            col: array("q")
            for col in ("span", "parent", "name", "thread", "start_ns", "end_ns", "self_ns")
        }

    def _switch(self, ident: int) -> None:
        last = self._last
        if last is not None and last != self._main and ident != self._main:
            self.handoffs += 1
        self._last = ident

    def enter(self, sid: int) -> list:
        ident = _get_ident()
        if ident != self._last:
            self._switch(ident)
        stack = self._stacks.get(ident)
        if stack is None:
            stack = self._stacks[ident] = []
        span = self._next_span
        self._next_span = span + 1
        frame = [sid, 0, 0, span, stack[-1][3] if stack else -1, _wall_ns(), 0]
        stack.append(frame)
        frame[6] = _cpu_ns()
        return frame

    def exit(self, frame: list) -> None:
        cpu = _cpu_ns()
        wall = _wall_ns()
        ident = _get_ident()
        if ident != self._last:
            self._switch(ident)
        stack = self._stacks[ident]
        stack.pop()
        duration = cpu - frame[6]
        own = duration - frame[1] - frame[2] * self.cost_outside_ns - self.cost_inside_ns
        if stack:
            parent = stack[-1]
            parent[1] += duration
            parent[2] += 1
        sid = frame[0]
        self.self_ns[sid] += own
        self.count[sid] += 1
        self.spans += 1
        if self.recording and self.spans <= MAX_RECORDED_SPANS:
            rec = self.records
            rec["span"].append(frame[3])
            rec["parent"].append(frame[4])
            rec["name"].append(sid)
            rec["thread"].append(self._threads.setdefault(ident, len(self._threads)))
            rec["start_ns"].append(frame[5])
            rec["end_ns"].append(wall)
            rec["self_ns"].append(own)

    def in_core(self) -> bool:
        stack = self._stacks.get(_get_ident())
        return bool(stack) and any(f[0] in self._core_sids for f in stack)

    def wrap(self, fn: Callable, name: str) -> Callable:
        sid = self.sid(name)
        enter, exit_ = self.enter, self.exit

        def spanned(*args, **kwargs):
            frame = enter(sid)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(frame)

        return spanned

    # ------------------------------------------------------------------ #
    # Calibration
    # ------------------------------------------------------------------ #

    def calibrate(self, spans: int = 20000, trials: int = 7) -> None:
        """Measure the wrapper's cost inside and outside a span's clock window.

        An empty wrapped call inside a parent span shows both: its own
        measured duration is the inside cost, and the parent's remaining time,
        less a loop that calls an unwrapped no-op, is the outside cost.
        """
        def noop():
            return None

        def plain_loop():
            for _ in range(spans):
                noop()

        child = self.wrap(noop, "calibration.child")

        def spanned_loop():
            for _ in range(spans):
                child()

        parent = self.wrap(spanned_loop, "calibration.parent")
        inside, outside = [], []
        self.cost_outside_ns = self.cost_inside_ns = 0
        for _ in range(trials):
            t0 = _cpu_ns()
            plain_loop()
            base = _cpu_ns() - t0
            self.reset()
            parent()
            child_ns = self.self_ns[self.sid("calibration.child")]
            parent_ns = self.self_ns[self.sid("calibration.parent")]
            inside.append(child_ns / spans)
            outside.append((parent_ns - base) / spans)
        self.cost_inside_ns = int(statistics.median(inside))
        self.cost_outside_ns = max(0, int(statistics.median(outside)))
        self.reset()

    @property
    def span_cost_ns(self) -> int:
        return self.cost_inside_ns + self.cost_outside_ns

    # ------------------------------------------------------------------ #
    # Installing the wrappers
    # ------------------------------------------------------------------ #

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        import repro.bench.harness as harness
        import repro.rma.latency as latency
        import repro.rma.sim_runtime as sim_runtime
        import repro.traffic.accounting as accounting
        import repro.traffic.scenarios as scenarios
        from repro.core.rma_mcs import RMAMCSLockHandle
        from repro.core.rma_rw import RMARWLockHandle
        from repro.rma.fabric import FabricContentionModel
        from repro.rma.window import Window

        if self._patches:
            raise RuntimeError("tracer already installed")
        ctx_cls = sim_runtime.SimProcessContext
        for name in _CTX_METHODS:
            if name not in ("cas", "spin_on_cells"):
                self._patch(ctx_cls, name, self.wrap(ctx_cls.__dict__[name], f"rma.ctx.{name}"))
        self._patch(ctx_cls, "cas", self._wrap_cas(ctx_cls.__dict__["cas"]))
        self._patch(ctx_cls, "spin_on_cells", self._wrap_spin(ctx_cls.__dict__["spin_on_cells"]))

        for name in _WINDOW_METHODS:
            self._patch(Window, name, self._wrap_window_op(Window.__dict__[name], name))
        self._patch(Window, "__init__", self.wrap(Window.__dict__["__init__"], "rma.window.init"))
        self._patch(Window, "load", self._wrap_load(Window.__dict__["load"]))

        self._patch(FabricContentionModel, "traverse",
                    self.wrap(FabricContentionModel.__dict__["traverse"], "rma.fabric.traverse"))
        table = self.wrap(latency.cost_table, "rma.latency.cost_table")
        self._patch(latency, "cost_table", table)
        self._patch(sim_runtime, "cost_table", table)
        self._patch(sim_runtime.SimRuntime, "run",
                    self.wrap(sim_runtime.SimRuntime.__dict__["run"], "rma.run"))

        for cls in (RMARWLockHandle, RMAMCSLockHandle):
            for name in _LOCK_METHODS:
                if name in cls.__dict__:
                    self._patch(cls, name, self._wrap_lock(cls.__dict__[name], name))

        self._patch(scenarios, "generate_schedule",
                    self.wrap(scenarios.generate_schedule, "traffic.generate_schedule"))
        self._patch(accounting, "aggregate_traffic",
                    self.wrap(accounting.aggregate_traffic, "traffic.aggregate_traffic"))
        self._patch(harness, "make_lock_program", self._wrap_factory(harness.make_lock_program))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------ #
    # Wrappers that also count layer events
    # ------------------------------------------------------------------ #

    def _wrap_cas(self, fn: Callable) -> Callable:
        spanned = self.wrap(fn, "rma.ctx.cas")

        def cas(ctx, src_data, cmp_data, target, offset):
            value = spanned(ctx, src_data, cmp_data, target, offset)
            if self.in_core():
                self.cas_total += 1
                if value == int(cmp_data):
                    self.cas_ok += 1
            return value

        return cas

    def _wrap_spin(self, fn: Callable) -> Callable:
        spanned = self.wrap(fn, "rma.ctx.spin_on_cells")

        def spin_on_cells(ctx, cells, predicate):
            def counted(values):
                self.polls += 1
                return predicate(values)

            return spanned(ctx, cells, counted)

        return spin_on_cells

    def _wrap_window_op(self, fn: Callable, name: str) -> Callable:
        spanned = self.wrap(fn, f"rma.window.{name}")

        def window_op(*args):
            if self._in_window:
                return fn(*args)
            self._in_window = True
            try:
                return spanned(*args)
            finally:
                self._in_window = False

        return window_op

    def _wrap_load(self, fn: Callable) -> Callable:
        spanned = self.wrap(fn, "rma.window.init")

        def load(window, values):
            self.init_words += len(values)
            self._in_window = True
            try:
                return spanned(window, values)
            finally:
                self._in_window = False

        return load

    def _wrap_lock(self, fn: Callable, name: str) -> Callable:
        spanned = self.wrap(fn, f"core.{name}")
        is_acquire = name in _ACQUIRES

        def lock_method(handle, *args, **kwargs):
            if is_acquire and not self.in_core():
                self.acquires += 1
            return spanned(handle, *args, **kwargs)

        return lock_method

    def _wrap_factory(self, factory: Callable) -> Callable:
        def make_lock_program(*args, **kwargs):
            return self.wrap(factory(*args, **kwargs), "bench.program")

        return make_lock_program

    # ------------------------------------------------------------------ #
    # Results
    # ------------------------------------------------------------------ #

    def layer_self_s(self) -> Dict[str, float]:
        """Self seconds per layer (name prefix) of the spans since :meth:`reset`."""
        layers: Dict[str, float] = {}
        for sid, name in enumerate(self.names):
            if name.startswith("calibration."):
                continue
            key = _layer_of(name)
            layers[key] = layers.get(key, 0.0) + self.self_ns[sid] / 1e9
        return layers

    def count_of(self, prefix: str) -> int:
        return sum(
            self.count[sid] for sid, name in enumerate(self.names) if name.startswith(prefix)
        )

    def write_spans(self, path: Path, records: Dict[str, array], meta: Dict[str, Any]) -> None:
        """Write spans recorded by an earlier simulation as a NumPy archive."""
        import numpy as np

        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.asarray(self.names),
            meta=np.asarray(json.dumps(meta, sort_keys=True)),
            **{col: np.frombuffer(values, dtype=np.int64) for col, values in records.items()},
        )


def _layer_of(name: str) -> str:
    if name.startswith("rma.window."):
        return "rma.window.init" if name == "rma.window.init" else "rma.window"
    if name.startswith("rma.ctx."):
        return "rma.ctx"
    if name.startswith("core."):
        return "core"
    if name.startswith("bench."):
        return "bench.harness"
    return name
