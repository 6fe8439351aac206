"""Common runtime interface shared by the simulated and threaded backends.

A *runtime* owns ``P`` ranks, one RMA window per rank, and executes a rank
program (``program(ctx)``) on every rank.  The per-rank handle
:class:`ProcessContext` exposes exactly the RMA call set of the paper's
Listing 1 plus a handful of helpers that the lock protocols need:

* ``spin_while`` — the ``do {Get; Flush} while (predicate)`` local/remote
  polling loop used throughout the protocols.  On the simulated backend this
  parks the rank on the polled memory cells instead of burning simulated
  events; on the threaded backend it really polls.
* ``compute`` — advance local time by a given number of microseconds (models
  critical-section work and back-off delays).
* ``barrier`` — synchronize all ranks (used to delimit measurement phases).

Rank programs and lock-handle methods are ``async def`` coroutines: every
RMA call, ``spin_*``, ``compute`` and ``barrier`` is awaited, while ``now()``,
``rng``, ``rank``, ``nranks`` and ``machine`` stay plain attributes and
calls.  Predicates passed to ``spin_*`` are plain functions.  ``run()``
raises :class:`TypeError` when ``program(ctx)`` does not return a coroutine
(see :func:`start_program`), so a program written without ``async`` fails
loudly instead of running zero operations.

Values returned by ``get``/``fao``/``cas`` follow the paper's semantics of
being usable after the subsequent ``flush``; both backends return them
immediately but protocols still issue the flushes so that the simulated time
accounting matches the real protocols.

Deterministic scheduling contract
---------------------------------
The simulated backend executes rank programs under a *fixed total order* that
any conforming scheduler must reproduce bit-identically:

1. Every clock advance (RMA call or ``compute``) is a *scheduling point*.
   After rank ``p`` advances its clock, execution continues with the rank
   whose ``(clock, rank)`` key is the strict lexicographic minimum among all
   runnable ranks.
2. The *body* of an operation (port occupancy, fabric traversal, window
   mutation, waking parked ranks) runs under the scheduling decision of the
   rank's previous advance; bodies are atomic with respect to other ranks.
3. ``spin_on_cells`` polls (Get+Flush rounds) are ordinary operations in that
   order; a parked rank resumes polling at ``max(its clock, writer clock)``.

The seed scheduler (:mod:`repro.rma.baseline_runtime`) realises this order by
handing an event between one OS thread per rank at every scheduling point.
The horizon scheduler in :mod:`repro.rma.sim_runtime` realises the *same*
order on the calling thread alone: one loop pops the smallest ``(clock,
rank)`` key from a min-heap and resumes that rank's coroutine, and a rank
suspends only when an operation's completion crosses the next-smallest key —
see the "Simulator internals" section of the README.  The golden tests in
``tests/rma/test_golden_determinism.py`` pin the contract down.
"""

from __future__ import annotations

import abc
import inspect
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.rma.ops import AtomicOp

__all__ = [
    "Cell",
    "FaultHorizonError",
    "ProcessContext",
    "RMARuntime",
    "RunResult",
    "RuntimeError_",
    "SimDeadlockError",
    "WindowInit",
    "run_to_completion",
    "start_program",
]

#: A (target_rank, offset) pair identifying one window word.
Cell = Tuple[int, int]

#: Callable mapping a rank to its initial window contents ({offset: value}).
WindowInit = Callable[[int], Mapping[int, int]]


class RuntimeError_(RuntimeError):
    """Base class for runtime failures (name avoids shadowing the builtin)."""


class SimDeadlockError(RuntimeError_):
    """Raised when every unfinished rank is blocked and no progress is possible."""


class FaultHorizonError(RuntimeError_):
    """A faulted run passed its virtual-time ceiling without draining.

    Only raised when a :class:`repro.fault.FaultPlan` with a ``horizon_us``
    ceiling is installed: a crash can turn a polling lock into a livelock
    that never parks (so the structural deadlock detector cannot fire); the
    ceiling converts it into this deterministic abort at the first context
    call past the limit.
    """


@dataclass
class RunResult:
    """Outcome of one ``runtime.run(...)`` invocation.

    Attributes:
        returns: Per-rank return values of the rank program.
        finish_times_us: Per-rank completion times (virtual µs for the
            simulator, wall-clock µs for the thread backend).
        total_time_us: Makespan across all ranks.
        op_counts: Total number of RMA calls issued, keyed by call name.
        per_rank_op_counts: The same, broken down per rank.
        wall_time_s: Host wall-clock seconds the run took (simulator
            throughput metric; 0.0 when the backend does not record it).
    """

    returns: List[Any]
    finish_times_us: List[float]
    total_time_us: float
    op_counts: Dict[str, int] = field(default_factory=dict)
    per_rank_op_counts: List[Dict[str, int]] = field(default_factory=list)
    wall_time_s: float = 0.0

    @property
    def num_ranks(self) -> int:
        return len(self.returns)

    def total_ops(self) -> int:
        return int(sum(self.op_counts.values()))

    def ops_per_sec(self) -> float:
        """Simulator throughput: RMA operations executed per host second.

        The headline metric of the perf suite (``benchmarks/test_perf_runtime.py``
        and ``python -m repro perf``); 0.0 when wall time was not recorded.
        """
        if self.wall_time_s <= 0.0:
            return 0.0
        return self.total_ops() / self.wall_time_s


class ProcessContext(abc.ABC):
    """Per-rank handle through which a rank program issues RMA calls."""

    #: Rank of this process (0-based).
    rank: int
    #: Total number of ranks.
    nranks: int
    #: Per-rank deterministic random generator.
    rng: np.random.Generator

    # -- Listing 1 ------------------------------------------------------- #

    @abc.abstractmethod
    async def put(self, src_data: int, target: int, offset: int) -> None:
        """Atomically place ``src_data`` in ``target``'s window at ``offset``."""

    @abc.abstractmethod
    async def get(self, target: int, offset: int) -> int:
        """Atomically fetch the word at ``offset`` in ``target``'s window."""

    @abc.abstractmethod
    async def accumulate(self, operand: int, target: int, offset: int, op: AtomicOp = AtomicOp.SUM) -> None:
        """Atomically apply ``op`` with ``operand`` to the word at ``target``."""

    @abc.abstractmethod
    async def fao(self, operand: int, target: int, offset: int, op: AtomicOp) -> int:
        """Fetch-and-op: apply ``op`` and return the previous value."""

    @abc.abstractmethod
    async def cas(self, src_data: int, cmp_data: int, target: int, offset: int) -> int:
        """Compare-and-swap; returns the previous value of the word."""

    @abc.abstractmethod
    async def flush(self, target: int) -> None:
        """Complete all pending RMA calls issued by this rank at ``target``."""

    # -- helpers ---------------------------------------------------------- #

    @abc.abstractmethod
    async def spin_on_cells(self, cells: Sequence[Cell], predicate: Callable[[Sequence[int]], bool]) -> List[int]:
        """Repeat ``Get``+``Flush`` over ``cells`` while ``predicate(values)`` is true.

        Returns the first observed values for which the predicate is false.
        """

    async def spin_while(self, target: int, offset: int, predicate: Callable[[int], bool]) -> int:
        """Single-cell convenience wrapper around :meth:`spin_on_cells`."""
        values = await self.spin_on_cells([(target, offset)], lambda vs: predicate(vs[0]))
        return values[0]

    @abc.abstractmethod
    async def compute(self, duration_us: float) -> None:
        """Model ``duration_us`` microseconds of local computation."""

    @abc.abstractmethod
    async def barrier(self) -> None:
        """Synchronize all ranks."""

    @abc.abstractmethod
    def now(self) -> float:
        """Current local time in microseconds (virtual or wall-clock)."""

    # -- optional hooks ---------------------------------------------------- #

    def log(self, message: str) -> None:  # pragma: no cover - debugging aid
        """Diagnostic hook; backends may route this to stderr or discard it."""


class RMARuntime(abc.ABC):
    """A backend capable of running rank programs over RMA windows."""

    @property
    @abc.abstractmethod
    def num_ranks(self) -> int:
        """Number of ranks this runtime simulates/executes."""

    @abc.abstractmethod
    def run(
        self,
        program: Callable[[ProcessContext], Any],
        *,
        window_init: Optional[WindowInit] = None,
        program_args: Optional[Sequence[Any]] = None,
    ) -> RunResult:
        """Execute ``program`` on every rank and return the collected result.

        ``window_init(rank)`` may supply initial non-zero window contents
        (e.g. null-pointer sentinels).  ``program_args`` optionally provides a
        per-rank extra argument passed as ``program(ctx, arg)``.
        """


def start_program(program: Callable[..., Any], ctx: ProcessContext, args: Optional[Sequence[Any]]) -> Any:
    """Call ``program`` for ``ctx``'s rank and return the coroutine it made.

    Raises :class:`TypeError` when the program is not a coroutine function:
    a plain ``def`` program would call the ``async`` context methods without
    awaiting them and finish having issued no operation at all.
    """
    coro = program(ctx, args[ctx.rank]) if args is not None else program(ctx)
    if not inspect.iscoroutine(coro):
        raise TypeError(
            f"rank program {getattr(program, '__qualname__', program)!r} returned "
            f"{type(coro).__name__}, not a coroutine: rank programs and lock-handle "
            "methods are `async def`, and every context call is awaited "
            "(see 'Writing a lock' in README.md)"
        )
    return coro


def run_to_completion(coro: Any) -> Any:
    """Drive a coroutine that never suspends and return its result.

    The trampoline of the thread-per-rank backends (``baseline``, ``thread``):
    their context methods block the calling OS thread instead of suspending,
    so one ``send`` runs the whole rank program.
    """
    try:
        coro.send(None)
    except StopIteration as stop:
        return stop.value
    coro.close()
    raise RuntimeError_(
        "rank program suspended on a thread-per-rank runtime; it awaited "
        "something other than this runtime's context calls"
    )
