"""Centralized baseline locks standing in for the foMPI locking schemes.

The paper compares against the locks shipped with foMPI, the scalable MPI-3
RMA implementation of Gerstenberger et al.:

* ``foMPI-Spin`` — a simple spin lock providing mutual exclusion.  Modeled
  here by :class:`FompiSpinLockSpec`: a single lock word on a home rank,
  acquired with CAS and test-and-test-and-set spinning plus exponential
  back-off.
* ``foMPI-RW`` — a reader-writer lock providing shared and exclusive access.
  Modeled by :class:`FompiRWLockSpec`: a single counter word on a home rank
  whose low part counts readers and whose high "writer bit" serializes
  writers, exactly the kind of centralized, topology-oblivious structure the
  paper identifies as the scalability bottleneck.

Both are faithful *behavioural* stand-ins: they are correct locks whose
performance characteristics (single remote hot spot, no topology awareness)
match the baselines' role in the evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.api.registry import register_scheme
from repro.core.layout import LayoutAllocator
from repro.core.lock_base import LockHandle, LockSpec, RWLockHandle, RWLockSpec
from repro.rma.ops import AtomicOp
from repro.rma.runtime_base import ProcessContext

__all__ = [
    "FompiSpinLockSpec",
    "FompiSpinLockHandle",
    "FompiRWLockSpec",
    "FompiRWLockHandle",
]

#: Writer bit of the centralized reader-writer word (far above any reader count).
_RW_WRITER_BIT = 1 << 40

#: Back-off bounds in microseconds for the spin lock.
_BACKOFF_MIN_US = 0.2
_BACKOFF_MAX_US = 16.0


@dataclass(frozen=True)
class FompiSpinLockSpec(LockSpec):
    """A centralized CAS spin lock on ``home_rank`` (the foMPI-Spin stand-in)."""

    num_processes: int
    home_rank: int = 0
    base_offset: int = 0
    lock_offset: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        if self.num_processes < 1:
            raise ValueError("num_processes must be >= 1")
        if not 0 <= self.home_rank < self.num_processes:
            raise ValueError(f"home_rank {self.home_rank} out of range")
        alloc = LayoutAllocator(base=self.base_offset)
        object.__setattr__(self, "lock_offset", alloc.field("spin_lock"))

    @property
    def window_words(self) -> int:
        return self.lock_offset + 1

    def init_window(self, rank: int) -> Mapping[int, int]:
        return {self.lock_offset: 0} if rank == self.home_rank else {}

    def make(self, ctx: ProcessContext) -> "FompiSpinLockHandle":
        return FompiSpinLockHandle(self, ctx)


class FompiSpinLockHandle(LockHandle):
    """Test-and-test-and-set with exponential back-off on a single remote word."""

    def __init__(self, spec: FompiSpinLockSpec, ctx: ProcessContext):
        if ctx.nranks != spec.num_processes:
            raise ValueError("lock spec and runtime disagree on the number of ranks")
        self.spec = spec
        self.ctx = ctx

    async def acquire(self) -> None:
        ctx = self.ctx
        spec = self.spec
        backoff = _BACKOFF_MIN_US
        while True:
            prev = await ctx.cas(1, 0, spec.home_rank, spec.lock_offset)
            await ctx.flush(spec.home_rank)
            if prev == 0:
                return
            # Locked by someone else: back off, then spin on the value before
            # retrying the CAS (test-and-test-and-set).
            await ctx.compute(backoff)
            backoff = min(backoff * 2.0, _BACKOFF_MAX_US)
            await ctx.spin_while(spec.home_rank, spec.lock_offset, lambda v: v != 0)

    async def release(self) -> None:
        ctx = self.ctx
        spec = self.spec
        await ctx.put(0, spec.home_rank, spec.lock_offset)
        await ctx.flush(spec.home_rank)


@dataclass(frozen=True)
class FompiRWLockSpec(RWLockSpec):
    """A centralized reader-counter / writer-bit RW lock (the foMPI-RW stand-in)."""

    num_processes: int
    home_rank: int = 0
    base_offset: int = 0
    word_offset: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        if self.num_processes < 1:
            raise ValueError("num_processes must be >= 1")
        if not 0 <= self.home_rank < self.num_processes:
            raise ValueError(f"home_rank {self.home_rank} out of range")
        alloc = LayoutAllocator(base=self.base_offset)
        object.__setattr__(self, "word_offset", alloc.field("rw_word"))

    @property
    def window_words(self) -> int:
        return self.word_offset + 1

    def init_window(self, rank: int) -> Mapping[int, int]:
        return {self.word_offset: 0} if rank == self.home_rank else {}

    def make(self, ctx: ProcessContext) -> "FompiRWLockHandle":
        return FompiRWLockHandle(self, ctx)


class FompiRWLockHandle(RWLockHandle):
    """Readers bump a shared counter; writers set an exclusive bit and drain readers."""

    def __init__(self, spec: FompiRWLockSpec, ctx: ProcessContext):
        if ctx.nranks != spec.num_processes:
            raise ValueError("lock spec and runtime disagree on the number of ranks")
        self.spec = spec
        self.ctx = ctx

    # -- reader side ------------------------------------------------------- #

    async def acquire_read(self) -> None:
        ctx = self.ctx
        spec = self.spec
        while True:
            prev = await ctx.fao(1, spec.home_rank, spec.word_offset, AtomicOp.SUM)
            await ctx.flush(spec.home_rank)
            if prev < _RW_WRITER_BIT:
                return
            # A writer holds or awaits the lock: undo and wait for it to finish.
            await ctx.accumulate(-1, spec.home_rank, spec.word_offset, AtomicOp.SUM)
            await ctx.flush(spec.home_rank)
            await ctx.spin_while(spec.home_rank, spec.word_offset, lambda v: v >= _RW_WRITER_BIT)

    async def release_read(self) -> None:
        ctx = self.ctx
        spec = self.spec
        await ctx.accumulate(-1, spec.home_rank, spec.word_offset, AtomicOp.SUM)
        await ctx.flush(spec.home_rank)

    # -- writer side ------------------------------------------------------- #

    async def acquire_write(self) -> None:
        ctx = self.ctx
        spec = self.spec
        while True:
            current = await ctx.get(spec.home_rank, spec.word_offset)
            await ctx.flush(spec.home_rank)
            if current >= _RW_WRITER_BIT:
                # Another writer is pending or active: wait for it to clear.
                await ctx.spin_while(spec.home_rank, spec.word_offset, lambda v: v >= _RW_WRITER_BIT)
                continue
            prev = await ctx.cas(current + _RW_WRITER_BIT, current, spec.home_rank, spec.word_offset)
            await ctx.flush(spec.home_rank)
            if prev == current:
                break
        # The writer bit is set: new readers bounce; wait for active readers to drain.
        await ctx.spin_while(spec.home_rank, spec.word_offset, lambda v: v != _RW_WRITER_BIT)

    async def release_write(self) -> None:
        ctx = self.ctx
        spec = self.spec
        await ctx.accumulate(-_RW_WRITER_BIT, spec.home_rank, spec.word_offset, AtomicOp.SUM)
        await ctx.flush(spec.home_rank)


# --------------------------------------------------------------------------- #
# Registry entries (see repro.api): the centralized foMPI baselines.
# --------------------------------------------------------------------------- #

@register_scheme(
    "fompi-spin",
    category="mcs",
    help="centralized CAS spin lock with exponential back-off (foMPI-Spin stand-in)",
)
def _build_fompi_spin(machine) -> FompiSpinLockSpec:
    return FompiSpinLockSpec(num_processes=machine.num_processes)


@register_scheme(
    "fompi-rw",
    rw=True,
    category="rw",
    help="centralized reader-counter/writer-bit RW lock (foMPI-RW stand-in)",
)
def _build_fompi_rw(machine) -> FompiRWLockSpec:
    return FompiRWLockSpec(num_processes=machine.num_processes)
