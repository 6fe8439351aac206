"""Distributed Counter (DC) — Section 3.2.1 of the paper.

The DC tracks the number of active readers (and whether a writer holds the
lock) using several *physical counters*, one on every ``T_DC``-th rank.  Each
physical counter is a pair of 64-bit words:

* ``ARRIVE`` — incremented by a reader when it tries to enter the critical
  section.  One "bit" (a large added constant, :data:`~repro.core.constants.WRITE_FLAG`)
  marks the counter as being in WRITE mode.
* ``DEPART`` — incremented by a reader when it leaves the critical section.

Readers touch only their own physical counter ``c(p)``; a writer that wants
the lock must switch *every* physical counter to WRITE mode and wait until
the readers accounted by each counter have drained (arrivals equal
departures).  ``T_DC`` therefore trades reader latency/contention against
writer latency, which is the first axis of the paper's parameter space.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Awaitable, Callable, Dict, List, Mapping, Optional

from repro.core.constants import WRITE_FLAG
from repro.core.layout import LayoutAllocator
from repro.rma.ops import AtomicOp
from repro.rma.runtime_base import ProcessContext
from repro.topology.mapping import CounterPlacement

__all__ = ["DistributedCounterSpec", "DistributedCounterHandle"]


@dataclass(frozen=True)
class DistributedCounterSpec:
    """Window layout and placement of the distributed counter."""

    placement: CounterPlacement
    arrive_offset: int
    depart_offset: int

    @classmethod
    def allocate(cls, placement: CounterPlacement, allocator: LayoutAllocator) -> "DistributedCounterSpec":
        """Reserve the two counter words in ``allocator`` and return the spec."""
        arrive = allocator.field("dc_arrive")
        depart = allocator.field("dc_depart")
        return cls(placement=placement, arrive_offset=arrive, depart_offset=depart)

    @property
    def counter_ranks(self) -> List[int]:
        """Ranks hosting a physical counter."""
        return self.placement.owners()

    @property
    def num_counters(self) -> int:
        return self.placement.num_counters

    def counter_rank_of(self, rank: int) -> int:
        """``c(p)``: the physical counter used by ``rank``."""
        return self.placement.owner(rank)

    def init_window(self, rank: int) -> Mapping[int, int]:
        """Counters start at zero; no non-default initialization needed."""
        return {}

    def make(self, ctx: ProcessContext) -> "DistributedCounterHandle":
        return DistributedCounterHandle(self, ctx)


class DistributedCounterHandle:
    """Per-process operations on the distributed counter (Listings 6, 9, 10)."""

    def __init__(self, spec: DistributedCounterSpec, ctx: ProcessContext):
        self.spec = spec
        self.ctx = ctx
        self.my_counter = spec.counter_rank_of(ctx.rank)

    # -- reader side ------------------------------------------------------- #

    async def reader_arrive(self) -> int:
        """Atomically increment the local arrival count; return the previous value."""
        ctx = self.ctx
        prev = await ctx.fao(1, self.my_counter, self.spec.arrive_offset, AtomicOp.SUM)
        await ctx.flush(self.my_counter)
        return prev

    async def reader_backoff(self) -> None:
        """Undo an arrival that exceeded ``T_R`` or raced with a writer (Listing 9, line 24)."""
        ctx = self.ctx
        await ctx.accumulate(-1, self.my_counter, self.spec.arrive_offset, AtomicOp.SUM)
        await ctx.flush(self.my_counter)

    async def reader_depart(self) -> None:
        """Record that this reader left the critical section (Listing 10)."""
        ctx = self.ctx
        await ctx.accumulate(1, self.my_counter, self.spec.depart_offset, AtomicOp.SUM)
        await ctx.flush(self.my_counter)

    async def read_my_arrivals(self) -> int:
        """Current arrival count of this rank's physical counter."""
        ctx = self.ctx
        value = await ctx.get(self.my_counter, self.spec.arrive_offset)
        await ctx.flush(self.my_counter)
        return value

    async def spin_until_read_mode(
        self, t_r: int, writer_waiting: Optional[Callable[[], Awaitable[bool]]] = None
    ) -> None:
        """Spin while the local counter is saturated or in WRITE mode.

        Listing 9 spins while ``ARRIVE >= T_R``.  We spin while ``ARRIVE > T_R``
        instead: with the paper's predicate the counter can come to rest at
        exactly ``T_R`` (every saturated reader backed off, every admitted
        reader departed, no writer left) with all remaining readers waiting
        forever, because the reset duty belongs to the next arriving reader and
        none will arrive.  Allowing a reader to retry when the counter sits at
        exactly ``T_R`` lets it re-execute the arrival path, observe
        ``prev == T_R`` and perform the reset (or defer to a waiting writer),
        which restores liveness without affecting mutual exclusion: the WRITE
        flag keeps the counter far above ``T_R`` whenever a writer is active.

        A second liveness corner needs an explicit *recovery* path: the reset
        of Listing 6 is not atomic, so a reader departure that lands between
        the reset's reads and its accumulates survives the reset as a non-zero
        ``DEPART`` residue, which keeps ``ARRIVE`` permanently above ``T_R``
        even though nobody is in the critical section.  Every reader of the
        counter would then wait forever (the reset duty belongs to an arriving
        reader, and none can arrive).  To stay live, a waiting reader that
        observes the counter saturated, in READ mode and with *no active
        readers* resets the counter itself — unless ``writer_waiting`` reports
        a queued writer, in which case it keeps waiting (the writer will take
        over and reset the counter when it hands the lock back to the
        readers).  Mutual exclusion is unaffected: the recovery reset never
        admits the reader directly (it still re-executes the arrival FAO) and,
        like every reader-initiated reset, it never touches the WRITE flag
        (see :meth:`reset_counter`).
        """
        ctx = self.ctx
        arrive_cell = (self.my_counter, self.spec.arrive_offset)
        depart_cell = (self.my_counter, self.spec.depart_offset)

        def keep_spinning(values) -> bool:
            arrive, depart = values
            if arrive <= t_r:
                return False            # back to READ mode: stop waiting
            if arrive >= WRITE_FLAG:
                return True             # WRITE mode: the writer will reset
            return self._active_readers(arrive, depart) > 0

        while True:
            arrive, _depart = await ctx.spin_on_cells([arrive_cell, depart_cell], keep_spinning)
            if arrive <= t_r:
                return
            # Saturated, READ mode, nobody active: the counter is stranded.
            if writer_waiting is not None and await writer_waiting():
                # A writer is queued; it will switch the counter to WRITE mode
                # and reset it when handing the lock back to the readers.
                await ctx.spin_while(
                    self.my_counter, self.spec.arrive_offset, lambda v: v > t_r
                )
                return
            await self.reset_counter(self.my_counter, clear_write_flag=False)
            return

    # -- writer side ------------------------------------------------------- #

    async def set_counters_to_write(self) -> None:
        """Switch every physical counter to WRITE mode (Listing 6, top)."""
        ctx = self.ctx
        for rank in self.spec.counter_ranks:
            await ctx.accumulate(WRITE_FLAG, rank, self.spec.arrive_offset, AtomicOp.SUM)
            await ctx.flush(rank)

    async def wait_readers_drained(self) -> None:
        """Wait until every reader that arrived before WRITE mode has departed.

        The paper's correctness argument (Section 4.1, Reader & Writer) requires
        the writer to re-check each counter for active readers after switching
        the mode; this is that check.
        """
        ctx = self.ctx
        for rank in self.spec.counter_ranks:
            await ctx.spin_on_cells(
                [(rank, self.spec.arrive_offset), (rank, self.spec.depart_offset)],
                lambda values: self._active_readers(values[0], values[1]) > 0,
            )

    @staticmethod
    def _active_readers(arrive: int, depart: int) -> int:
        """Readers inside the CS according to one physical counter."""
        if arrive >= WRITE_FLAG:
            arrive -= WRITE_FLAG
        return arrive - depart

    async def reset_counter(self, rank: int, *, clear_write_flag: bool = True) -> None:
        """Fold the departures out of one physical counter (Listing 6, middle).

        The seed port performed the reset as two unconditional accumulates
        computed from a stale read, which the conformance layer's
        implementation-derived model checker
        (:func:`repro.verification.impl_model.rma_rw_impl_model`) and its
        chaos sweeps proved unsafe: two resets racing each other (or a reset
        racing a writer's mode switch) could subtract the same departures —
        or the WRITE flag — twice, leaving ``DEPART`` negative and ``ARRIVE``
        stranded just below :data:`~repro.core.constants.WRITE_FLAG`, which
        breaks the flag encoding for good (readers and writers then spin on
        ``active > 0`` forever, or a reader erases a writer's freshly-set
        flag and both enter the critical section).  Two rules close every
        interleaving the checker found:

        * **The depart fold is CAS-claimed.**  A resetter may subtract only
          the departures it atomically claimed by swinging ``DEPART`` from
          its observed value to zero; a concurrent departure or a competing
          reset makes the CAS fail and the loop re-reads.  Each departure is
          therefore folded into ``ARRIVE`` exactly once, system-wide.
        * **Only the writer clears the WRITE flag** (``clear_write_flag``,
          default True for the writer paths).  Reader-initiated resets — the
          first-to-saturate reset of Listing 9 and the stranded-counter
          recovery — pass False, so a reader that raced a writer's
          ``set_counters_to_write`` can no longer erase the flag out from
          under it.  At most one writer holds the root at a time, so the
          flag is set and cleared strictly alternately.

        Between the claim and the arrive fold the counter transiently
        *over*-counts active readers (departs already zeroed, arrivals not
        yet reduced), which only ever delays a spinning writer/reader — the
        safe direction.
        """
        ctx = self.ctx
        while True:
            arr_cnt = await ctx.get(rank, self.spec.arrive_offset)
            dep_cnt = await ctx.get(rank, self.spec.depart_offset)
            await ctx.flush(rank)
            claimed = await ctx.cas(0, dep_cnt, rank, self.spec.depart_offset)
            await ctx.flush(rank)
            if claimed != dep_cnt:
                continue  # a departure (or another reset) raced us; re-read
            sub_arr = -dep_cnt
            if clear_write_flag and arr_cnt >= WRITE_FLAG:
                sub_arr -= WRITE_FLAG
            if sub_arr:
                await ctx.accumulate(sub_arr, rank, self.spec.arrive_offset, AtomicOp.SUM)
                await ctx.flush(rank)
            return

    async def reset_my_counter(self) -> None:
        """Reset the counter associated with this rank (reader path, Listing 9).

        Reader resets never clear the WRITE flag — see :meth:`reset_counter`.
        """
        await self.reset_counter(self.my_counter, clear_write_flag=False)

    async def reset_counters(self) -> None:
        """Reset all physical counters (Listing 6, bottom): hand the lock to readers."""
        for rank in self.spec.counter_ranks:
            await self.reset_counter(rank)

    # -- inspection --------------------------------------------------------- #

    async def snapshot(self) -> Dict[int, Dict[str, int]]:
        """Raw arrive/depart values of every physical counter (for tests/debugging)."""
        ctx = self.ctx
        out: Dict[int, Dict[str, int]] = {}
        for rank in self.spec.counter_ranks:
            arrive = await ctx.get(rank, self.spec.arrive_offset)
            depart = await ctx.get(rank, self.spec.depart_offset)
            await ctx.flush(rank)
            out[rank] = {"arrive": arrive, "depart": depart}
        return out
