"""D-MCS: the distributed, topology-oblivious MCS lock (Section 2.4).

Processes waiting for the lock form a single queue that may span multiple
nodes.  Each process exposes, in its window, a pointer to its successor
(``NEXT``) and a spin flag (``STATUS``); one designated process
(``tail_rank``) additionally hosts the global queue-tail pointer (``TAIL``).
The acquire/release protocols follow Listings 2 and 3 of the paper verbatim.

D-MCS is both a comparison target in the evaluation (Figure 3) and the
building block of the topology-aware RMA-MCS and RMA-RW locks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.api.registry import register_scheme
from repro.core.constants import NULL_RANK
from repro.core.layout import LayoutAllocator
from repro.core.lock_base import LockHandle, LockSpec
from repro.rma.ops import AtomicOp
from repro.rma.runtime_base import ProcessContext

__all__ = ["DMCSLockSpec", "DMCSLockHandle"]

#: STATUS value meaning "spin wait" (Listing 2 uses a boolean flag).
_WAITING = 1
#: STATUS value meaning "the lock has been passed to you".
_GRANTED = 0


@dataclass(frozen=True)
class DMCSLockSpec(LockSpec):
    """Shared description of one D-MCS lock instance.

    Args:
        num_processes: Total number of ranks that may use the lock.
        tail_rank: Rank hosting the global queue-tail pointer.
        base_offset: First window word used by this lock (three words are used).
    """

    num_processes: int
    tail_rank: int = 0
    base_offset: int = 0
    next_offset: int = field(init=False, default=0)
    status_offset: int = field(init=False, default=0)
    tail_offset: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        if self.num_processes < 1:
            raise ValueError("num_processes must be >= 1")
        if not 0 <= self.tail_rank < self.num_processes:
            raise ValueError(f"tail_rank {self.tail_rank} out of range")
        alloc = LayoutAllocator(base=self.base_offset)
        object.__setattr__(self, "next_offset", alloc.field("dmcs_next"))
        object.__setattr__(self, "status_offset", alloc.field("dmcs_status"))
        object.__setattr__(self, "tail_offset", alloc.field("dmcs_tail"))

    @property
    def window_words(self) -> int:
        return self.tail_offset + 1

    def init_window(self, rank: int) -> Mapping[int, int]:
        values = {self.next_offset: NULL_RANK, self.status_offset: _GRANTED}
        if rank == self.tail_rank:
            values[self.tail_offset] = NULL_RANK
        return values

    def make(self, ctx: ProcessContext) -> "DMCSLockHandle":
        return DMCSLockHandle(self, ctx)


class DMCSLockHandle(LockHandle):
    """Per-process D-MCS handle implementing Listings 2 and 3."""

    def __init__(self, spec: DMCSLockSpec, ctx: ProcessContext):
        if ctx.nranks != spec.num_processes:
            raise ValueError(
                f"lock spec was built for {spec.num_processes} ranks but the runtime has {ctx.nranks}"
            )
        self.spec = spec
        self.ctx = ctx

    async def acquire(self) -> None:
        """Listing 2: enqueue at the tail and spin until the predecessor hands over."""
        ctx = self.ctx
        spec = self.spec
        p = ctx.rank
        # Prepare local fields.
        await ctx.put(NULL_RANK, p, spec.next_offset)
        await ctx.put(_WAITING, p, spec.status_offset)
        await ctx.flush(p)
        # Enter the tail of the MCS queue and fetch the predecessor.
        pred = await ctx.fao(p, spec.tail_rank, spec.tail_offset, AtomicOp.REPLACE)
        await ctx.flush(spec.tail_rank)
        if pred != NULL_RANK:
            # Make the predecessor see us, then spin locally until it hands over.
            await ctx.put(p, pred, spec.next_offset)
            await ctx.flush(pred)
            await ctx.spin_while(p, spec.status_offset, lambda waiting: waiting == _WAITING)

    async def release(self) -> None:
        """Listing 3: hand the lock to the successor, or clear the tail if alone."""
        ctx = self.ctx
        spec = self.spec
        p = ctx.rank
        succ = await ctx.get(p, spec.next_offset)
        await ctx.flush(p)
        if succ == NULL_RANK:
            # Maybe we are the only process in the queue.
            curr_rank = await ctx.cas(NULL_RANK, p, spec.tail_rank, spec.tail_offset)
            await ctx.flush(spec.tail_rank)
            if curr_rank == p:
                return
            # Somebody is enqueueing; wait until it makes itself visible.
            succ = await ctx.spin_while(p, spec.next_offset, lambda nxt: nxt == NULL_RANK)
        # Notify the successor.
        await ctx.put(_GRANTED, succ, spec.status_offset)
        await ctx.flush(succ)


# --------------------------------------------------------------------------- #
# Registry entry (see repro.api).
# --------------------------------------------------------------------------- #

@register_scheme(
    "d-mcs",
    category="mcs",
    help="distributed topology-oblivious MCS queue lock (Listings 2-3)",
    # The queue is strictly FIFO from the tail swap on: once enqueued, every
    # other rank can enter at most once before us (checked live by the
    # conformance oracles, and exhaustively by verification.fairness).
    fairness_bound=lambda p: p - 1,
)
def _build_dmcs(machine) -> DMCSLockSpec:
    return DMCSLockSpec(num_processes=machine.num_processes)
