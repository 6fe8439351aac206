#!/usr/bin/env python3
"""Register a third-party lock with the public API — end to end.

This example shows what the registry layer (:mod:`repro.api`) buys you: a
lock implemented *outside* the repro package plugs into the scheme catalogue
with one decorator and immediately works with ``Cluster.lock``,
``Cluster.bench``, ``LockBenchConfig`` and the whole benchmark harness —
no edits to the harness, the CLI or the figure drivers.

The lock itself is deliberately simple: a **test-and-set lock with
proportional backoff** whose single lock word lives on a configurable home
rank.  Its spec/handle pair follows the same convention as every built-in
lock (see :mod:`repro.core.lock_base`), and its registration declares a typed
parameter (``home_rank``) that round-trips through ``Cluster.lock(**params)``.

Run with:  python examples/custom_lock.py
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Mapping

from repro.api import Cluster, ParamSpec, register_scheme
from repro.core.layout import LayoutAllocator
from repro.core.lock_base import LockHandle, LockSpec
from repro.rma.runtime_base import ProcessContext

ITERATIONS = int(os.environ.get("REPRO_EXAMPLE_ITERATIONS", "8"))
NODES = int(os.environ.get("REPRO_EXAMPLE_NODES", "2"))
PROCS_PER_NODE = int(os.environ.get("REPRO_EXAMPLE_PROCS_PER_NODE", "4"))


# --------------------------------------------------------------------------- #
# 1. A third-party lock: plain spec/handle classes, no repro internals.
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class TASBackoffLockSpec(LockSpec):
    """A centralized test-and-set lock with proportional backoff."""

    num_processes: int
    home_rank: int = 0
    min_backoff_us: float = 0.2
    max_backoff_us: float = 8.0
    base_offset: int = 0
    lock_offset: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        if not 0 <= self.home_rank < self.num_processes:
            raise ValueError(f"home_rank {self.home_rank} out of range")
        alloc = LayoutAllocator(base=self.base_offset)
        object.__setattr__(self, "lock_offset", alloc.field("tas_word"))

    @property
    def window_words(self) -> int:
        return self.lock_offset + 1

    def init_window(self, rank: int) -> Mapping[int, int]:
        return {self.lock_offset: 0}

    def make(self, ctx: ProcessContext) -> "TASBackoffLockHandle":
        return TASBackoffLockHandle(self, ctx)


class TASBackoffLockHandle(LockHandle):
    """Per-process handle: CAS on the home word, backoff while held."""

    def __init__(self, spec: TASBackoffLockSpec, ctx: ProcessContext):
        self.spec = spec
        self.ctx = ctx

    async def acquire(self) -> None:
        ctx = self.ctx
        spec = self.spec
        backoff = spec.min_backoff_us
        while True:
            prev = await ctx.cas(1, 0, spec.home_rank, spec.lock_offset)
            await ctx.flush(spec.home_rank)
            if prev == 0:
                return
            await ctx.compute(float(ctx.rng.uniform(0.0, backoff)))
            backoff = min(backoff * 2.0, spec.max_backoff_us)

    async def release(self) -> None:
        ctx = self.ctx
        await ctx.put(0, self.spec.home_rank, self.spec.lock_offset)
        await ctx.flush(self.spec.home_rank)


# --------------------------------------------------------------------------- #
# 2. One decorator: the lock joins the scheme catalogue.
# --------------------------------------------------------------------------- #

@register_scheme(
    "tas-backoff",
    category="custom",
    params=(
        ParamSpec("home_rank", int, 0, "rank hosting the lock word", tunable=False),
        ParamSpec("max_backoff_us", float, 8.0, "backoff cap in microseconds"),
    ),
    help="centralized test-and-set lock with proportional backoff (example)",
    replace=True,  # keep the example re-runnable within one process
)
def _build_tas_backoff(machine, home_rank=0, max_backoff_us=8.0):
    return TASBackoffLockSpec(
        num_processes=machine.num_processes,
        home_rank=home_rank,
        max_backoff_us=max_backoff_us,
    )


# --------------------------------------------------------------------------- #
# 3. Use it exactly like a built-in scheme.
# --------------------------------------------------------------------------- #

def main() -> None:
    with Cluster(procs=NODES * PROCS_PER_NODE, procs_per_node=PROCS_PER_NODE, seed=3) as c:
        print(f"Machine: {c.describe()}")

        lock = c.lock("tas-backoff", home_rank=1)
        print(f"Built {lock!r}: {lock.window_words} window word(s), home on rank 1")

        # The registered scheme runs under the standard harness (same warm-up
        # discipline, same metrics) next to a built-in comparison target.
        rows = []
        for scheme in ("tas-backoff", "d-mcs"):
            result = c.bench(scheme, "ecsb", iterations=ITERATIONS)
            rows.append((scheme, result.throughput_mln_per_s, result.latency_mean_us))
        print("\nscheme       throughput [mln/s]   mean latency [us]")
        for scheme, throughput, latency in rows:
            print(f"{scheme:<12} {throughput:>18.4f} {latency:>19.3f}")

        # Mutual exclusion check: a shared counter incremented under the lock.
        session = c.session(lock, extra_words=1)
        shared_offset = lock.window_words

        async def program(ctx):
            handle = lock.make(ctx)
            await ctx.barrier()
            for _ in range(ITERATIONS):
                async with handle.held():
                    value = await ctx.get(0, shared_offset)
                    await ctx.flush(0)
                    await ctx.put(value + 1, 0, shared_offset)
                    await ctx.flush(0)
            await ctx.barrier()

        session.run(program)
        final = session.window(0).read(shared_offset)
        expected = c.num_processes * ITERATIONS
        print(f"\nShared counter: {final} (expected {expected})")
        assert final == expected, "lost update: the custom lock is broken!"
        print("OK: the custom lock provides mutual exclusion through the public API.")


if __name__ == "__main__":
    main()
