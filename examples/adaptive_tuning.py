#!/usr/bin/env python3
"""Adaptive threshold tuning and hand-off locality instrumentation.

The paper's conclusion proposes extending RMA-RW "with adaptive schemes for a
runtime selection and tuning of the values of the parameters".  This example
shows that extension in action:

1. A workload phase (SOB with a small writer fraction) is benchmarked with the
   paper-recommended starting parameters (one counter per node).
2. :class:`repro.core.adaptive.ThresholdTuner` then adjusts one knob per phase
   (``T_DC`` stride, ``T_R``, node-level ``T_L``), keeping whichever setting
   improved throughput.
3. Finally the same workload is run once more with an *instrumented* lock so
   the hand-off locality (how often the lock stayed inside one node) of the
   tuned configuration can be reported.

Run with:  python examples/adaptive_tuning.py
"""

from __future__ import annotations

import os

from repro import Machine
from repro.bench.harness import run_lock_benchmark
from repro.bench.report import format_table
from repro.bench.workloads import LockBenchConfig
from repro.core.adaptive import AdaptiveParameters, WorkloadSample, tune_rma_rw
from repro.core.instrumentation import GrantLedgerSpec, InstrumentedRWLock, locality_report
from repro.core.rma_rw import RMARWLockSpec
from repro.rma.sim_runtime import SimRuntime

NODES = int(os.environ.get("REPRO_EXAMPLE_NODES", "4"))
PROCS_PER_NODE = int(os.environ.get("REPRO_EXAMPLE_PROCS_PER_NODE", "8"))
ITERATIONS = int(os.environ.get("REPRO_EXAMPLE_ITERATIONS", "12"))
PHASES = int(os.environ.get("REPRO_EXAMPLE_OPS", "8"))
FW = 0.05


def measure_factory(machine: Machine):
    """Build the measurement callback the tuner drives."""

    def measure(params: AdaptiveParameters) -> WorkloadSample:
        kwargs = params.as_lock_kwargs(machine)
        config = LockBenchConfig(
            machine=machine,
            scheme="rma-rw",
            benchmark="sob",
            iterations=ITERATIONS,
            fw=FW,
            t_dc=kwargs["t_dc"],
            t_l=kwargs["t_l"],
            t_r=kwargs["t_r"],
            seed=11,
        )
        result = run_lock_benchmark(config)
        return WorkloadSample(
            throughput=result.throughput_mln_per_s,
            latency_us=result.latency_mean_us,
            observed_fw=result.writes / max(result.total_acquires, 1),
        )

    return measure


def measure_locality(machine: Machine, params: AdaptiveParameters):
    """Re-run the workload with an instrumented lock and report writer hand-off locality."""
    kwargs = params.as_lock_kwargs(machine)
    lock_spec = RMARWLockSpec(machine, t_dc=kwargs["t_dc"], t_l=kwargs["t_l"], t_r=kwargs["t_r"])
    ledger = GrantLedgerSpec(capacity=machine.num_processes * ITERATIONS, base_offset=lock_spec.window_words)
    runtime = SimRuntime(machine, window_words=ledger.window_words, seed=11)

    def window_init(rank):
        values = dict(lock_spec.init_window(rank))
        values.update(ledger.init_window(rank))
        return values

    async def program(ctx):
        lock = InstrumentedRWLock(lock_spec.make(ctx), ledger, ctx)
        rng = ctx.rng
        await ctx.barrier()
        for _ in range(ITERATIONS):
            if rng.random() < FW:
                async with lock.writing():
                    await ctx.compute(0.3)
            else:
                async with lock.reading():
                    await ctx.compute(0.3)
        await ctx.barrier()

    runtime.run(program, window_init=window_init)
    grants = ledger.read_grants_from_window(runtime.window(ledger.home_rank))
    return locality_report(machine, grants)


def main() -> None:
    machine = Machine.cluster(nodes=NODES, procs_per_node=PROCS_PER_NODE)
    print(f"Simulated machine: {machine.describe()}")
    print(f"Workload: SOB, F_W = {FW * 100:g}%, {ITERATIONS} acquisitions/process, {PHASES} tuning phases\n")

    measure = measure_factory(machine)
    best, history = tune_rma_rw(machine, measure, phases=PHASES)

    rows = [
        {
            "phase": i,
            "T_DC": step.params.t_dc,
            "T_R": step.params.t_r,
            "T_L(node)": step.params.t_l_leaf,
            "throughput_mln_s": round(step.sample.throughput, 3),
            "latency_us": round(step.sample.latency_us, 2),
            "kept": "yes" if step.accepted else "no",
        }
        for i, step in enumerate(history)
    ]
    print(format_table(rows))
    print(f"\nBest parameters found: T_DC={best.t_dc}, T_R={best.t_r}, node-level T_L={best.t_l_leaf}")

    report = measure_locality(machine, best)
    print(
        f"Writer hand-off locality with the tuned parameters: "
        f"{report.node_locality * 100:.0f}% of consecutive writer grants stayed on one node "
        f"({report.recorded_grants} writer grants recorded)."
    )
    print(
        "\nReading guide: the tuner reproduces the paper's Section-6 recipe "
        "automatically — start from one counter per node, then trade reader "
        "against writer throughput (T_R) and locality against fairness (T_L) "
        "based on the observed workload."
    )


if __name__ == "__main__":
    main()
