#!/usr/bin/env python3
"""Open-loop traffic over a lock table — including a third-party lock.

The traffic engine (:mod:`repro.traffic`) measures what the closed-loop
benchmarks cannot: a *service* of many locks under skewed, open-loop load,
judged by its latency tails.  This example shows the full integration story:

1. Register a third-party lock (a simple test-and-set lock with proportional
   backoff) with one ``@register_scheme`` decorator.
2. Register a custom traffic scenario — Zipf(1.2) popularity over a lock
   table, Poisson arrivals — with one ``register_traffic_scenario`` call.
3. Sweep the third-party lock against built-in schemes through the ordinary
   benchmark harness and print the p50/p99/p99.9 end-to-end latency table.

The centralized TAS lock and the centralized foMPI-RW stand-in serve every
key from a handful of rotated home words, while the topology-aware RMA locks
spread the queue state — under a skewed table the tails tell that story
directly.

Run with:  python examples/traffic_demo.py
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Mapping

from repro.api import register_scheme
from repro.bench.harness import run_lock_benchmark
from repro.bench.report import format_table, traffic_percentile_rows
from repro.bench.workloads import LockBenchConfig
from repro.core.layout import LayoutAllocator
from repro.core.lock_base import LockHandle, LockSpec
from repro.rma.runtime_base import ProcessContext
from repro.topology.builder import xc30_like
from repro.traffic import TrafficScenario, register_traffic_scenario

ITERATIONS = int(os.environ.get("REPRO_EXAMPLE_ITERATIONS", "8"))
NODES = int(os.environ.get("REPRO_EXAMPLE_NODES", "4"))
PROCS_PER_NODE = int(os.environ.get("REPRO_EXAMPLE_PROCS_PER_NODE", "8"))
NUM_LOCKS = int(os.environ.get("REPRO_EXAMPLE_LOCKS", "256"))


# --------------------------------------------------------------------------- #
# 1. A third-party lock.  The spec follows the repository's layout convention
#    (frozen dataclass + base_offset), which is exactly what lets the traffic
#    engine replicate it into a lock table without any table-specific code.
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class DemoTASLockSpec(LockSpec):
    """A centralized test-and-set lock word with proportional backoff."""

    num_processes: int
    home_rank: int = 0
    base_offset: int = 0
    lock_offset: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        alloc = LayoutAllocator(base=self.base_offset)
        object.__setattr__(self, "lock_offset", alloc.field("demo_tas_word"))

    @property
    def window_words(self) -> int:
        return self.lock_offset + 1

    def init_window(self, rank: int) -> Mapping[int, int]:
        return {self.lock_offset: 0} if rank == self.home_rank else {}

    def make(self, ctx: ProcessContext) -> "DemoTASLockHandle":
        return DemoTASLockHandle(self, ctx)


class DemoTASLockHandle(LockHandle):
    def __init__(self, spec: DemoTASLockSpec, ctx: ProcessContext):
        self.spec = spec
        self.ctx = ctx

    async def acquire(self) -> None:
        ctx, spec = self.ctx, self.spec
        backoff = 0.2
        while True:
            prev = await ctx.cas(1, 0, spec.home_rank, spec.lock_offset)
            await ctx.flush(spec.home_rank)
            if prev == 0:
                return
            await ctx.compute(backoff)
            backoff = min(backoff * 2.0, 6.4)
            await ctx.spin_while(spec.home_rank, spec.lock_offset, lambda v: v != 0)

    async def release(self) -> None:
        ctx, spec = self.ctx, self.spec
        await ctx.put(0, spec.home_rank, spec.lock_offset)
        await ctx.flush(spec.home_rank)


@register_scheme("demo-tas", category="custom", help="third-party TAS lock (traffic demo)")
def _build_demo_tas(machine) -> DemoTASLockSpec:
    return DemoTASLockSpec(num_processes=machine.num_processes)


# --------------------------------------------------------------------------- #
# 2. A custom traffic scenario: hotter-than-default Zipf skew over the table.
# --------------------------------------------------------------------------- #

register_traffic_scenario(
    TrafficScenario(
        name="traffic-demo-hot",
        help="Zipf(1.2) over the demo table, Poisson arrivals",
        num_locks=NUM_LOCKS,
        arrival="poisson",
        mean_gap_us=10.0,
        key_dist="zipf",
        zipf_exponent=1.2,
    ),
    replace=True,
)


def main() -> None:
    machine = xc30_like(NODES * PROCS_PER_NODE, procs_per_node=PROCS_PER_NODE)
    print(f"Machine: {machine.describe()}")
    print(
        f"Scenario: traffic-demo-hot — Zipf(1.2) over {NUM_LOCKS} locks, "
        f"Poisson arrivals, {ITERATIONS} requests per rank\n"
    )

    results = []
    for scheme in ("demo-tas", "fompi-rw", "rma-mcs", "rma-rw"):
        config = LockBenchConfig(
            machine=machine,
            scheme=scheme,
            benchmark="traffic-demo-hot",
            iterations=ITERATIONS,
            fw=0.1,
            seed=7,
        )
        results.append(run_lock_benchmark(config))

    print(format_table(traffic_percentile_rows(results)))
    tails = {r.scheme: r.percentiles["e2e_p99_us"] for r in results}
    best = min(tails, key=tails.get)
    print(
        f"\nLowest p99 end-to-end latency: {best} "
        f"({tails[best]:.1f} us vs {tails['demo-tas']:.1f} us for the "
        f"centralized third-party TAS lock)."
    )


if __name__ == "__main__":
    main()
