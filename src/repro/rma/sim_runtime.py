"""Deterministic discrete-event RMA runtime with a time-horizon scheduler.

This backend is the repository's substitute for the paper's Cray XC30 /
foMPI testbed.  Every rank is a logical process with its own virtual clock
and RMA window; RMA calls charge latencies from a
:class:`~repro.rma.latency.LatencyModel` that depends on the topological
distance between origin and target.  Execution follows the deterministic
scheduling contract documented in :mod:`repro.rma.runtime_base`: after every
clock advance, the runnable rank with the smallest ``(clock, rank)`` key
continues, so the same program with the same seed produces bit-identical
results on every run — and bit-identical results to the preserved seed
scheduler (:mod:`repro.rma.baseline_runtime`), as pinned down by the golden
tests.

Scheduler architecture
----------------------
Every rank program is a coroutine (see :mod:`repro.rma.runtime_base`), and
all of them run on the thread that called :meth:`SimRuntime.run`:

* **Driver loop.**  Runnable ranks wait in a min-heap keyed on
  ``(clock, rank)``.  The loop pops the smallest key, sets ``_horizon`` to
  the next-smallest one, and resumes that rank's coroutine with ``send``.
  Heap entries are validated against the rank's current status/clock on
  pop, so stale entries are discarded lazily.

* **Horizon fast path.**  While the running rank's key stays below the
  horizon it keeps running — no heap, no suspension — because the loop
  would pick it again anyway.  Only an operation whose completion crosses
  the horizon pushes the rank's key and yields once to the loop.

* **Parking spin-waiters.**  ``spin_on_cells`` — the protocols'
  ``do {Get; Flush} while (...)`` loops — is itself the poll loop.  A round
  whose predicate still holds parks the rank on the polled cells with no key
  in the heap; the next write to one of them (``_post_write``) puts the rank
  back at ``max(its clock, writer clock)``.  A per-cell version counter
  guarantees that a write landing between the poll and the park is never
  missed.

A fault plan's kills are raised at the victim's next context call, or thrown
into its coroutine when it is parked or waiting at a barrier; a restarting
rank re-enters the heap at its restart time with a fresh coroutine.
Per-operation accounting uses per-rank integer arrays indexed by call
(folded into name-keyed dicts once at ``run()`` end) and the precomputed
:class:`~repro.rma.latency.CostTable`, so the fast path is a handful of
array lookups.

If every unfinished rank is parked or waiting at a barrier the runtime
raises :class:`~repro.rma.runtime_base.SimDeadlockError`, which doubles as a
protocol-level deadlock detector in the test-suite.
"""

from __future__ import annotations

import gc
import threading
import time
import types
from collections import defaultdict
from heapq import heappop, heappush
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.api.registry import register_runtime
from repro.rma.fabric import FabricContentionModel
from repro.rma.latency import LatencyModel, cost_table
from repro.rma.perturbation import PerturbationModel, RankPerturbation
from repro.rma.ops import CALLS, CALL_INDEX, NUM_CALLS, AtomicOp, RMACall
from repro.rma.runtime_base import (
    Cell,
    FaultHorizonError,
    ProcessContext,
    RMARuntime,
    RunResult,
    RuntimeError_,
    SimDeadlockError,
    WindowInit,
    start_program,
)
from repro.rma.window import Window
from repro.topology.machine import Machine
from repro.util.rng import rank_rng

__all__ = ["SimRuntime", "SimProcessContext"]

# Rank states (ints: compared on the hot path).
_READY = 0
_PARKED = 1
_BARRIER = 2
_FINISHED = 3

#: Horizon sentinel when no other rank is runnable: every finite clock wins.
_INF_KEY: Tuple[float, int] = (float("inf"), -1)

_PUT = RMACall.PUT
_GET = RMACall.GET
_ACCUMULATE = RMACall.ACCUMULATE
_FAO = RMACall.FAO
_CAS = RMACall.CAS
_FLUSH = RMACall.FLUSH
_PUT_I = CALL_INDEX[_PUT]
_GET_I = CALL_INDEX[_GET]
_ACCUMULATE_I = CALL_INDEX[_ACCUMULATE]
_FAO_I = CALL_INDEX[_FAO]
_CAS_I = CALL_INDEX[_CAS]
_FLUSH_I = CALL_INDEX[_FLUSH]


class _Aborted(BaseException):
    """Internal control-flow exception that unwinds rank coroutines on abort."""


class _Killed(BaseException):
    """Unwinds exactly one rank's coroutine when a fault plan kills that rank.

    Raised at the rank's next public context call (or thrown into its
    coroutine when the scheduler reaps it from a parked/barrier wait);
    ``SimRuntime._faulted_rank`` catches it and either restarts the rank or
    retires it with a crash-marker result.
    """


_INF = float("inf")


@types.coroutine
def _suspend():
    """Hand control back to the driver loop until this rank is picked again."""
    yield


class _RankState:
    """Scheduler bookkeeping for one rank."""

    __slots__ = (
        "rank",
        "clock",
        "status",
        "watching",
        "result",
        "finish_time",
        "ops",
        "coro",
    )

    def __init__(self, rank: int):
        self.rank = rank
        self.clock = 0.0
        self.status = _READY
        self.watching: Set[Cell] = set()
        self.result: Any = None
        self.finish_time = 0.0
        #: Per-call op counters indexed by repro.rma.ops.CALL_INDEX.
        self.ops: List[int] = [0] * NUM_CALLS
        #: The rank program's coroutine (None once it returned).
        self.coro: Any = None


class SimProcessContext(ProcessContext):
    """Per-rank handle bound to a :class:`SimRuntime` run."""

    #: The runtime's fault plan (None on unfaulted runs); fault-aware lock
    #: handles use it as a perfect failure detector via ``fault.dead_at``.
    fault: Optional[Any] = None
    #: Incarnation counter: 0 until the rank crashes and restarts.
    incarnation: int = 0

    def __init__(self, runtime: "SimRuntime", state: _RankState):
        self._rt = runtime
        self._state = state
        self.rank = state.rank
        self.nranks = runtime.num_ranks
        self.rng = rank_rng(runtime.seed, state.rank)
        #: The runtime's observer hook (None when no observer is installed);
        #: handle wrappers such as verification.oracles.observe_lock use it.
        self.observer = runtime.observer

    # -- properties ------------------------------------------------------- #

    @property
    def machine(self) -> Machine:
        """The machine hierarchy this run executes on."""
        return self._rt.machine

    def now(self) -> float:
        return self._state.clock

    # -- Listing 1 -------------------------------------------------------- #
    #
    # Each call charges the operation (``_issue``), suspends if its completion
    # crossed the horizon, and applies its window effect once resumed.

    async def put(self, src_data: int, target: int, offset: int) -> None:
        rt = self._rt
        if rt._issue(self._state, _PUT, _PUT_I, target):
            await _suspend()
        rt.windows[target].write(offset, int(src_data))
        rt._post_write(self._state, target, offset)

    async def get(self, target: int, offset: int) -> int:
        rt = self._rt
        if rt._issue(self._state, _GET, _GET_I, target):
            await _suspend()
        return rt.windows[target].read(offset)

    async def accumulate(self, operand: int, target: int, offset: int, op: AtomicOp = AtomicOp.SUM) -> None:
        rt = self._rt
        if rt._issue(self._state, _ACCUMULATE, _ACCUMULATE_I, target):
            await _suspend()
        rt.windows[target].apply(offset, int(operand), op)
        rt._post_write(self._state, target, offset)

    async def fao(self, operand: int, target: int, offset: int, op: AtomicOp) -> int:
        rt = self._rt
        if rt._issue(self._state, _FAO, _FAO_I, target):
            await _suspend()
        value = rt.windows[target].fetch_and_op(offset, int(operand), op)
        rt._post_write(self._state, target, offset)
        if rt.observer is not None:
            rt.observer.on_rmw(self.rank, _FAO)
        return value

    async def cas(self, src_data: int, cmp_data: int, target: int, offset: int) -> int:
        rt = self._rt
        if rt._issue(self._state, _CAS, _CAS_I, target):
            await _suspend()
        value = rt.windows[target].compare_and_swap(offset, int(cmp_data), int(src_data))
        rt._post_write(self._state, target, offset)
        if rt.observer is not None:
            rt.observer.on_rmw(self.rank, _CAS)
        return value

    async def flush(self, target: int) -> None:
        if self._rt._issue(self._state, _FLUSH, _FLUSH_I, target):
            await _suspend()

    # -- helpers ----------------------------------------------------------- #

    async def spin_on_cells(self, cells: Sequence[Cell], predicate: Callable[[Sequence[int]], bool]) -> List[int]:
        """The Get+Flush poll loop, parking on the cells between rounds.

        A poll round whose predicate still holds parks the rank on the polled
        cells (no key in the heap) unless a write raced with the round, which
        the per-cell version counters detect; ``_post_write`` wakes it.
        """
        rt = self._rt
        state = self._state
        rank = state.rank
        issue = rt._issue
        windows = rt.windows
        versions = rt._versions
        watchers = rt._watchers
        cells = [(int(t), int(o)) for t, o in cells]
        targets = sorted({t for t, _ in cells})
        kill_at = rt._kill_at
        plan = rt.fault_plan
        ceiling = plan.horizon_us if plan is not None and plan.horizon_us is not None else _INF
        while True:
            # Faulted runs only: each poll round is a kill/ceiling checkpoint,
            # mirroring the public-context-call checks (a rank that keeps
            # polling past its kill time must still die deterministically).
            if kill_at is not None:
                if state.clock >= kill_at[rank]:
                    raise _Killed()
                if state.clock >= ceiling:
                    raise FaultHorizonError(
                        f"rank {rank} passed the fault plan's virtual-time ceiling "
                        f"of {ceiling:g}us at t={state.clock:.2f}us while spinning"
                    )
            snapshot = [versions[c] for c in cells]
            values: List[int] = []
            for t, o in cells:
                if issue(state, _GET, _GET_I, t):
                    await _suspend()
                values.append(windows[t].read(o))
            for t in targets:
                if issue(state, _FLUSH, _FLUSH_I, t):
                    await _suspend()
            if not predicate(values):
                return values
            if [versions[c] for c in cells] != snapshot:
                continue  # a write raced with the poll; re-read instead of parking
            for c in cells:
                watchers.setdefault(c, set()).add(rank)
            state.watching.update(cells)
            state.status = _PARKED
            await _suspend()  # resumed only after a write wakes this rank

    async def compute(self, duration_us: float) -> None:
        if duration_us < 0:
            raise ValueError("compute duration must be non-negative")
        if self._rt._advance(self._state, float(duration_us)):
            await _suspend()

    async def barrier(self) -> None:
        if self._rt._barrier(self._state):
            await _suspend()


class _FaultedSimContext(SimProcessContext):
    """Context variant used only when a fault plan is installed.

    Every *public* context call checks the rank's virtual clock against its
    scheduled kill time (and the plan's optional horizon ceiling) before
    executing.  The clock observed at a context-call boundary is part of the
    deterministic scheduling contract, so the crash lands on the same call
    under every conforming scheduler.  Unfaulted runs never construct this
    class, which keeps their hot path byte-identical to the goldens.
    """

    def __init__(self, runtime: "SimRuntime", state: _RankState):
        super().__init__(runtime, state)
        plan = runtime.fault_plan
        self.fault = plan
        self.incarnation = 0
        self._kill_us = runtime._kill_at[state.rank]
        self._ceiling = plan.horizon_us if plan.horizon_us is not None else _INF

    def _entry(self) -> None:
        clock = self._state.clock
        if clock >= self._kill_us:
            raise _Killed()
        if clock >= self._ceiling:
            raise FaultHorizonError(
                f"rank {self.rank} passed the fault plan's virtual-time ceiling "
                f"of {self._ceiling:g}us at t={clock:.2f}us (livelock under a crash?)"
            )

    def _on_restarted(self) -> None:
        """Called once the scheduler revives this rank (one crash per run)."""
        self.incarnation += 1
        self._kill_us = _INF

    async def put(self, src_data: int, target: int, offset: int) -> None:
        self._entry()
        await SimProcessContext.put(self, src_data, target, offset)

    async def get(self, target: int, offset: int) -> int:
        self._entry()
        return await SimProcessContext.get(self, target, offset)

    async def accumulate(self, operand: int, target: int, offset: int, op: AtomicOp = AtomicOp.SUM) -> None:
        self._entry()
        await SimProcessContext.accumulate(self, operand, target, offset, op)

    async def fao(self, operand: int, target: int, offset: int, op: AtomicOp) -> int:
        self._entry()
        return await SimProcessContext.fao(self, operand, target, offset, op)

    async def cas(self, src_data: int, cmp_data: int, target: int, offset: int) -> int:
        self._entry()
        return await SimProcessContext.cas(self, src_data, cmp_data, target, offset)

    async def flush(self, target: int) -> None:
        self._entry()
        await SimProcessContext.flush(self, target)

    async def spin_on_cells(self, cells: Sequence[Cell], predicate: Callable[[Sequence[int]], bool]) -> List[int]:
        self._entry()
        return await SimProcessContext.spin_on_cells(self, cells, predicate)

    async def compute(self, duration_us: float) -> None:
        self._entry()
        await SimProcessContext.compute(self, duration_us)

    async def barrier(self) -> None:
        self._entry()
        await SimProcessContext.barrier(self)


class SimRuntime(RMARuntime):
    """Discrete-event simulation of ``P`` ranks communicating through RMA windows."""

    def __init__(
        self,
        machine: Machine,
        *,
        window_words: int = 64,
        latency: Optional[LatencyModel] = None,
        fabric: Optional[FabricContentionModel] = None,
        tracer: Optional[Any] = None,
        seed: int = 0,
        barrier_cost_us: float = 2.0,
        max_ops: Optional[int] = None,
        stall_timeout_s: float = 600.0,
        perturbation: Optional[PerturbationModel] = None,
        observer: Optional[Any] = None,
        fault_plan: Optional[Any] = None,
    ):
        self.machine = machine
        self.window_words = int(window_words)
        self.latency = latency if latency is not None else LatencyModel.cray_xc30()
        self.fabric = fabric
        if self.fabric is not None:
            self.fabric.validate_machine(machine)
        #: Optional trace sink with a ``record(rank, call, target, start_us, duration_us)``
        #: method (e.g. :class:`repro.bench.trace.TraceRecorder`).
        self.tracer = tracer
        #: Optional seeded schedule perturbation (see repro.rma.perturbation);
        #: None (or an all-zero model) leaves the cost path byte-identical to
        #: the golden-fingerprint behaviour.
        self.perturbation = perturbation
        #: Optional run observer (see repro.verification.oracles.RunObserver);
        #: reset via on_run_start at the top of every run().
        self.observer = observer
        #: Optional seeded crash schedule (see repro.fault.FaultPlan).  A null
        #: plan is normalized to None so every fault code path stays cold and
        #: the run is bit-identical to an unfaulted one.
        self.fault_plan = (
            fault_plan if fault_plan is not None and not fault_plan.is_null else None
        )
        self.seed = int(seed)
        self.barrier_cost_us = float(barrier_cost_us)
        self.max_ops = max_ops
        self.stall_timeout_s = float(stall_timeout_s)
        if self.window_words < 1:
            raise ValueError("window_words must be >= 1")

        # Re-entry guard: run() builds all per-run state and would corrupt an
        # in-flight run if invoked again on the same instance (for instance
        # from inside a rank program, or from a second host thread).
        self._run_guard = threading.Lock()
        self._run_active = False

        # Per-run state (installed atomically at the top of run()).
        self.windows: List[Window] = []
        self._states: List[_RankState] = []
        self._nranks = machine.num_processes
        self._port_free: List[float] = []
        self._link_free: Dict[object, float] = {}
        self._lock = threading.Lock()  # guards abort transitions against the watchdog
        self._watchers: Dict[Cell, Set[int]] = {}
        self._versions: Dict[Cell, int] = defaultdict(int)
        self._barrier_waiting: List[int] = []
        self._abort = False
        self._abort_exc: Optional[BaseException] = None
        self._total_ops = 0
        self._heap: List[Tuple[float, int]] = []
        self._horizon: Tuple[float, int] = _INF_KEY
        self._cost: List[List[float]] = []
        self._occ: List[List[float]] = []
        self._node_of: Tuple[int, ...] = ()
        self._perturb: Optional[List[RankPerturbation]] = None
        # Fault state (only populated when a non-null fault plan is set):
        # per-rank kill times (inf = never).
        self._kill_at: Optional[List[float]] = None

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #

    @property
    def num_ranks(self) -> int:
        return self.machine.num_processes

    def window(self, rank: int) -> Window:
        """The window of ``rank`` from the most recent run (for inspection in tests)."""
        return self.windows[rank]

    def run(
        self,
        program: Callable[..., Any],
        *,
        window_init: Optional[WindowInit] = None,
        program_args: Optional[Sequence[Any]] = None,
    ) -> RunResult:
        nranks = self.num_ranks
        if program_args is not None and len(program_args) != nranks:
            raise ValueError(f"program_args must have one entry per rank ({nranks})")
        with self._run_guard:
            if self._run_active:
                raise RuntimeError_(
                    "SimRuntime.run() is not reentrant: a run is already active on "
                    "this instance; create one runtime per concurrent run"
                )
            self._run_active = True
        try:
            return self._execute(program, window_init, program_args, nranks)
        finally:
            with self._run_guard:
                self._run_active = False

    def _execute(
        self,
        program: Callable[..., Any],
        window_init: Optional[WindowInit],
        program_args: Optional[Sequence[Any]],
        nranks: int,
    ) -> RunResult:
        # Build the fresh per-run state in locals first so a failure while
        # constructing it (e.g. a raising window_init) cannot leave the
        # instance with a half-reset mixture of old and new state.
        windows = [Window(self.window_words) for _ in range(nranks)]
        if window_init is not None:
            for rank in range(nranks):
                init = window_init(rank)
                if init:
                    windows[rank].load(init)
        table = cost_table(self.latency, self.machine)
        perturbation = self.perturbation
        perturb_states: Optional[List[RankPerturbation]] = None
        if perturbation is not None:
            # Per-rank slowdowns are baked into the cost table (one build per
            # run); jitter/pause streams are rebuilt from the seed so every
            # run of this instance replays the same perturbed schedule.
            table = table.scaled_by_origin(perturbation.rank_multipliers(nranks))
            perturb_states = perturbation.rank_states(nranks)
        states = [_RankState(r) for r in range(nranks)]

        self.windows = windows
        self._states = states
        self._nranks = nranks
        self._cost = table.cost
        self._occ = table.occupancy
        self._node_of = table.node_of
        self._perturb = perturb_states
        if self.observer is not None:
            self.observer.on_run_start(nranks)
        self._port_free = [0.0] * nranks
        self._link_free = self.fabric.new_state() if self.fabric is not None else {}
        self._watchers = {}
        self._versions = defaultdict(int)
        self._barrier_waiting = []
        self._abort = False
        self._abort_exc = None
        self._total_ops = 0
        plan = self.fault_plan
        if plan is not None:
            plan.validate_for(nranks)
            kill_at = [_INF] * nranks
            for fault in plan.faults:
                kill_at[fault.rank] = fault.kill_us
            self._kill_at = kill_at
        else:
            self._kill_at = None
        # All clocks are zero and ties break by rank: every rank starts in the
        # heap (already heap-ordered by construction) and rank 0 runs first.
        self._heap = [(0.0, r) for r in range(nranks)]
        self._horizon = _INF_KEY
        try:
            for s in states:
                if plan is None:
                    s.coro = start_program(program, SimProcessContext(self, s), program_args)
                else:
                    s.coro = self._faulted_rank(s, _FaultedSimContext(self, s), program, program_args)
        except BaseException:
            self._close_coroutines()
            raise

        # The run allocates heavily (heap keys, poll values, coroutine frames)
        # but creates no reference cycles on the hot path; pausing the cyclic
        # GC for the duration avoids collection stalls.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        run_done = threading.Event()
        watchdog = threading.Thread(
            target=self._watchdog_main, args=(run_done,), name="sim-watchdog", daemon=True
        )
        wall_start = time.perf_counter()
        try:
            watchdog.start()
            self._drive()
        finally:
            wall_time = time.perf_counter() - wall_start
            run_done.set()
            self._close_coroutines()
            if gc_was_enabled:
                gc.enable()
        watchdog.join()

        if self._abort_exc is not None:
            # Neither the runtime nor a local keeps the failure: its traceback
            # holds the failing rank's frame and context, which must be freed
            # by reference counting once the caller drops the exception.
            try:
                raise self._abort_exc
            finally:
                self._abort_exc = None
        if self.observer is not None:
            self.observer.on_run_end()

        finish_times = [s.finish_time for s in states]
        totals = [0] * NUM_CALLS
        per_rank_counts: List[Dict[str, int]] = []
        for s in states:
            counts: Dict[str, int] = {}
            ops = s.ops
            for i in range(NUM_CALLS):
                n = ops[i]
                if n:
                    counts[CALLS[i].value] = n
                    totals[i] += n
            per_rank_counts.append(counts)
        return RunResult(
            returns=[s.result for s in states],
            finish_times_us=finish_times,
            total_time_us=max(finish_times) if finish_times else 0.0,
            op_counts={CALLS[i].value: totals[i] for i in range(NUM_CALLS) if totals[i]},
            per_rank_op_counts=per_rank_counts,
            wall_time_s=wall_time,
        )

    # ------------------------------------------------------------------ #
    # Scheduler core
    # ------------------------------------------------------------------ #
    #
    # Every rank program runs on the calling thread.  The driver loop pops
    # the smallest valid ``(clock, rank)`` key, sets ``_horizon`` to the next
    # one, and resumes that rank's coroutine; the rank runs until an advance
    # crosses the horizon (``_issue``/``_advance`` push its key and it yields
    # once), it parks in ``spin_on_cells``, it waits at a barrier, or its
    # program returns.

    def _drive(self) -> None:
        heap = self._heap
        states = self._states
        while not self._abort:
            s = None
            while heap:
                clock, rank = heappop(heap)
                cand = states[rank]
                if cand.status == _READY and cand.clock == clock:
                    s = cand
                    break
                # otherwise a stale entry (aborted/retired rank)
            if s is None:
                if self._no_runnable():
                    continue
                return
            # Inline _peek_key: the next-smallest valid key is the horizon.
            while heap:
                clock, rank = heap[0]
                cand = states[rank]
                if cand.status == _READY and cand.clock == clock:
                    self._horizon = (clock, rank)
                    break
                heappop(heap)
            else:
                self._horizon = _INF_KEY
            try:
                s.coro.send(None)
            except BaseException as exc:  # noqa: BLE001 - the program ended
                self._settle(s, exc)

    def _settle(self, s: _RankState, exc: BaseException) -> None:
        """Handle the end of ``s``'s coroutine: return, abort or failure.

        A failure is recorded, and ``run()`` re-raises it once every other
        coroutine is closed.
        """
        s.coro = None
        if isinstance(exc, StopIteration):
            s.result = exc.value
            self._finish_rank(s)
        elif not isinstance(exc, _Aborted):
            self._fail(exc)

    def _fail(self, exc: BaseException) -> None:
        with self._lock:
            if self._abort_exc is None:
                self._abort_exc = exc
            self._abort = True

    def _close_coroutines(self) -> None:
        """Unwind every unfinished rank program (after an abort or failure).

        With the abort flag set, a context call in a ``finally`` block raises
        ``_Aborted`` instead of suspending.  Dropping the coroutines also
        breaks the runtime <-> context reference cycle, so the run's windows
        and generators are freed without waiting for the cyclic collector.
        """
        self._abort = True
        for s in self._states:
            coro, s.coro = s.coro, None
            if coro is not None:
                try:
                    coro.close()
                except (_Aborted, _Killed, Exception):
                    pass  # the run already failed; its first error is re-raised

    def _finish_rank(self, state: _RankState) -> None:
        state.status = _FINISHED
        state.finish_time = state.clock
        if self.fault_plan is not None:
            # A finish can change the crash-aware barrier's headcount (e.g.
            # the ranks parked at the final barrier are joined by a crash
            # instead of an arrival); re-check before scheduling on.
            self._release_barrier_if_complete()

    def _peek_key(self) -> Tuple[float, int]:
        """Smallest valid heap key (discarding stale entries), or the sentinel."""
        heap = self._heap
        states = self._states
        while heap:
            clock, rank = heap[0]
            s = states[rank]
            if s.status == _READY and s.clock == clock:
                return (clock, rank)
            heappop(heap)
        return _INF_KEY

    def _no_runnable(self) -> bool:
        """Handle an empty heap: reap a crash victim (True), or drain/deadlock."""
        if self.fault_plan is not None and self._reap_blocked():
            return True
        unfinished = [s.rank for s in self._states if s.status != _FINISHED]
        if unfinished:
            self._fail(SimDeadlockError(
                f"ranks {unfinished} are blocked forever with no runnable rank "
                f"left: {self._blocked_report()}"
            ))
        return False

    def _blocked_report(self) -> str:
        """Human-readable description of every blocked rank (for deadlock errors)."""
        lines = []
        for s in self._states:
            if s.status == _PARKED:
                cells = ", ".join(f"(rank {t}, offset {o})" for t, o in sorted(s.watching))
                lines.append(f"rank {s.rank}: parked on {cells} at t={s.clock:.2f}us")
            elif s.status == _BARRIER:
                lines.append(f"rank {s.rank}: waiting at barrier at t={s.clock:.2f}us")
        return "; ".join(lines) if lines else "(no blocked ranks)"

    def _watchdog_main(self, run_done: threading.Event) -> None:
        """Abort the run if no simulation progress happens for stall_timeout_s.

        Progress is observed through ``_total_ops`` plus the per-rank finish
        count.  The watchdog only raises the abort flag, which the driving
        thread checks at every operation and clock advance (a program that
        advances its clock with ``compute`` alone never counts an op).
        """
        interval = min(max(self.stall_timeout_s / 4.0, 0.05), 5.0)
        last = (-1, -1)
        stalled_for = 0.0
        while not run_done.wait(interval):
            snapshot = (
                self._total_ops,
                sum(1 for s in self._states if s.status == _FINISHED),
            )
            if snapshot != last:
                last = snapshot
                stalled_for = 0.0
                continue
            stalled_for += interval
            if stalled_for >= self.stall_timeout_s:
                self._fail(RuntimeError_(
                    f"scheduler stall: no simulation progress within "
                    f"{self.stall_timeout_s}s of wall-clock time"
                ))
                return

    # ------------------------------------------------------------------ #
    # Fault handling (every method below runs only under a non-null plan)
    # ------------------------------------------------------------------ #

    async def _faulted_rank(
        self,
        state: _RankState,
        ctx: _FaultedSimContext,
        program: Callable[..., Any],
        program_args: Optional[Sequence[Any]],
    ) -> Any:
        """A rank under a fault plan: its program, then its crash and restart.

        The kill arrives as ``_Killed`` out of the program.  One crash per
        rank per run: the kill time is retired so a restarted rank cannot be
        re-killed.  A restarting rank re-enters the heap keyed at its restart
        time, so the scheduler revives it exactly when the rest of the
        simulation reaches that virtual moment — or immediately, if every
        survivor is blocked waiting for it — and re-runs the program from the
        top: fresh handles and local state, while its window keeps whatever
        survivors wrote to it while the rank was dead.
        """
        while True:
            try:
                return await start_program(program, ctx, program_args)
            except _Killed:
                pass
            assert self._kill_at is not None
            self._kill_at[state.rank] = _INF
            observer = self.observer
            on_crash = getattr(observer, "on_crash", None)
            if on_crash is not None:
                on_crash(state.rank, state.clock)
            fault = self.fault_plan.fault_for(state.rank)
            if fault is None or fault.restart_us is None:
                return {"__crashed__": True, "rank": state.rank, "t_us": state.clock}
            if state.clock < fault.restart_us:
                state.clock = fault.restart_us
            state.status = _READY
            heappush(self._heap, (state.clock, state.rank))
            await _suspend()
            on_restart = getattr(observer, "on_restart", None)
            if on_restart is not None:
                on_restart(state.rank, state.clock)
            ctx._on_restarted()

    def _cleanup_blocked(self, state: _RankState) -> None:
        """Detach a blocked victim from every wait structure before killing it."""
        for cell in state.watching:
            waiters = self._watchers.get(cell)
            if waiters is not None:
                waiters.discard(state.rank)
        state.watching.clear()
        if state.rank in self._barrier_waiting:
            self._barrier_waiting.remove(state.rank)

    def _reap_blocked(self) -> bool:
        """Kill the next blocked rank whose crash is scheduled, if any.

        Called when the scheduler ran out of runnable ranks: a parked or
        barrier-blocked victim will never issue the context call that would
        normally deliver its kill, so the scheduler throws it into the
        victim's coroutine here — smallest ``(kill_us, rank)`` first, clock
        bumped to the kill time so the crash happens at a deterministic
        virtual moment.  Returns True when a victim was killed.
        """
        kill_at = self._kill_at
        assert kill_at is not None
        victim: Optional[_RankState] = None
        for s in self._states:
            if s.status in (_PARKED, _BARRIER) and kill_at[s.rank] < _INF:
                if victim is None or (kill_at[s.rank], s.rank) < (kill_at[victim.rank], victim.rank):
                    victim = s
        if victim is None:
            return False
        if victim.clock < kill_at[victim.rank]:
            victim.clock = kill_at[victim.rank]
        self._cleanup_blocked(victim)
        victim.status = _READY
        try:
            victim.coro.throw(_Killed())
        except BaseException as exc:  # noqa: BLE001 - the victim's program ended
            self._settle(victim, exc)
        return True

    def _barrier_need(self) -> int:
        """Crash-aware barrier headcount: every rank not (yet) finished."""
        return sum(1 for s in self._states if s.status != _FINISHED)

    def _release_barrier_if_complete(self) -> None:
        """Release the barrier if crashes/finishes completed its headcount."""
        waiting = self._barrier_waiting
        if not waiting or len(waiting) < self._barrier_need():
            return
        states = self._states
        release_time = max(states[r].clock for r in waiting) + self.barrier_cost_us
        heap = self._heap
        for r in waiting:
            s = states[r]
            s.clock = release_time
            s.status = _READY
            heappush(heap, (release_time, r))
        self._barrier_waiting = []
        self._horizon = self._peek_key()

    # ------------------------------------------------------------------ #
    # RMA operation plumbing
    # ------------------------------------------------------------------ #

    def _op_body(self, state: _RankState, call: RMACall, ci: int, target: int) -> float:
        """Account, charge and time one RMA call; returns the post-op clock.

        ``ci`` is the call's dense :data:`~repro.rma.ops.CALL_INDEX`, passed
        alongside to keep the enum off the hot path.  The caller is
        responsible for the scheduling decision (horizon check) that follows
        the advance.
        """
        if self._abort:
            raise _Aborted()
        nranks = self._nranks
        if not 0 <= target < nranks:
            raise ValueError(f"target rank {target} out of range 0..{nranks - 1}")
        state.ops[ci] += 1
        total = self._total_ops + 1
        self._total_ops = total
        if self.max_ops is not None and total > self.max_ops:
            raise RuntimeError_(
                f"simulation exceeded max_ops={self.max_ops}; possible livelock"
            )
        rank = state.rank
        idx = rank * nranks + target
        cost = self._cost[ci][idx]
        perturb = self._perturb
        if perturb is not None:
            cost = perturb[rank].perturb(cost)
        start = state.clock
        # Remote accesses serialize at the target: if its port is busy, the
        # operation starts only once the port frees up.  This queueing is what
        # turns a single hot lock word into a scalability bottleneck.
        occupancy = self._occ[ci][idx]
        if occupancy > 0.0:
            port_free = self._port_free[target]
            if port_free > start:
                start = port_free
            self._port_free[target] = start + occupancy
        # Optional link-level contention: inter-node data/atomic traffic also
        # serializes on every Dragonfly link along its minimal route.
        if self.fabric is not None and call is not _FLUSH:
            node_of = self._node_of
            src_node = node_of[rank]
            dst_node = node_of[target]
            if src_node != dst_node:
                arrival = self.fabric.traverse(self._link_free, src_node, dst_node, start)
                cost += arrival - start
        if self.tracer is not None:
            self.tracer.record(rank, call, target, start, cost)
        clock = start + cost
        state.clock = clock
        return clock

    def _issue(self, state: _RankState, call: RMACall, ci: int, target: int) -> bool:
        """Charge one RMA call; True when the caller must suspend.

        The fast path: while the rank's new key stays below the horizon it
        keeps running, because the scheduler would pick it again anyway.
        Otherwise its key goes into the heap and the caller yields once.
        """
        clock = self._op_body(state, call, ci, target)
        h = self._horizon
        if clock < h[0] or (clock == h[0] and state.rank < h[1]):
            return False
        heappush(self._heap, (clock, state.rank))
        return True

    def _advance(self, state: _RankState, dt: float) -> bool:
        """Advance ``state``'s clock by ``dt``; True when the caller must suspend."""
        if self._abort:
            raise _Aborted()
        clock = state.clock + dt
        state.clock = clock
        h = self._horizon
        if clock < h[0] or (clock == h[0] and state.rank < h[1]):
            return False
        heappush(self._heap, (clock, state.rank))
        return True

    def _post_write(self, state: _RankState, target: int, offset: int) -> None:
        """Version-bump a just-written cell and wake any rank parked on it.

        Callers mutate the window directly (after ``_issue``) so the hot path
        carries no per-operation effect closures.
        """
        cell = (target, offset)
        self._versions[cell] += 1
        waiters = self._watchers.pop(cell, None)
        if waiters:
            states = self._states
            heap = self._heap
            horizon = self._horizon
            writer_clock = state.clock
            for rank in waiters:
                ws = states[rank]
                if ws.status != _PARKED:
                    continue
                for other in ws.watching:
                    if other != cell and other in self._watchers:
                        self._watchers[other].discard(rank)
                ws.watching.clear()
                ws.status = _READY
                # The sleeper was logically polling all along; it observes
                # the write no earlier than the writer's current time.
                if writer_clock > ws.clock:
                    ws.clock = writer_clock
                key = (ws.clock, rank)
                heappush(heap, key)
                if key < horizon:
                    horizon = key
            self._horizon = horizon

    # ------------------------------------------------------------------ #
    # Barrier
    # ------------------------------------------------------------------ #

    def _barrier(self, state: _RankState) -> bool:
        """Arrive at the barrier; True when the caller must suspend."""
        if self._abort:
            raise _Aborted()
        waiting = self._barrier_waiting
        waiting.append(state.rank)
        # Faulted runs count only unfinished ranks: crashed ranks never reach
        # the barrier, so the rendezvous must not wait for them.
        need = self._nranks if self.fault_plan is None else self._barrier_need()
        if len(waiting) < need:
            state.status = _BARRIER
            return True
        states = self._states
        release_time = max(states[r].clock for r in waiting)
        release_time += self.barrier_cost_us
        heap = self._heap
        me = state.rank
        for r in waiting:
            s = states[r]
            s.clock = release_time
            s.status = _READY
            if r != me:
                heappush(heap, (release_time, r))
        self._barrier_waiting = []
        # The releasing rank continues; equal clocks, ties broken by rank.
        h = self._peek_key()
        self._horizon = h
        if release_time < h[0] or (release_time == h[0] and me < h[1]):
            return False
        heappush(heap, (release_time, me))
        return True


# --------------------------------------------------------------------------- #
# Registry entry (see repro.api): the default scheduler.
# --------------------------------------------------------------------------- #

@register_runtime(
    "horizon",
    help="min-heap time-horizon scheduler driving rank coroutines on one thread (the fast default; bit-identical to 'baseline')",
    fault_injection=True,
)
def _make_horizon_runtime(
    machine, *, window_words=64, seed=0, latency=None, fabric=None, tracer=None,
    perturbation=None, observer=None, fault_plan=None,
):
    return SimRuntime(
        machine,
        window_words=window_words,
        latency=latency,
        fabric=fabric,
        tracer=tracer,
        seed=seed,
        perturbation=perturbation,
        observer=observer,
        fault_plan=fault_plan,
    )
