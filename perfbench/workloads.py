"""The benchmark's three workloads and the set-up that makes them runnable.

Every input is derived from the ``--seed`` argument: the closed-loop
workloads hand it to the harness as the per-rank random seed (writer draws
and critical-section times), the open-loop workload hands it to the traffic
schedule generator, and ``mcs-ecsb-p256`` -- whose ECSB rank program draws
nothing random -- also uses it to draw the machine's network speed: every
network tier of the XC30 latency model is scaled by one factor in
``[1, 1 + MCS_NETWORK_SPREAD]`` (:meth:`LatencyModel.scaled`).  That model's
cost table is built once, in the set-up, like the default model's would be,
so a timed simulation does exactly the work of a plain ECSB run.

This module imports nothing from ``repro`` at import time, so ``run.py``
can start its set-up clock before the first ``repro`` import.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

#: Ranks per compute node of the xc30-like machine of every workload.
PROCS_PER_NODE = 8

#: Upper bound of the network-speed factor drawn for ``mcs-ecsb-p256``.
MCS_NETWORK_SPREAD = 0.05


@dataclass(frozen=True)
class Workload:
    """One named workload: a lock benchmark configuration at a fixed size."""

    name: str
    procs: int
    scheme: str
    benchmark: str
    iterations: int
    fw: float = 0.0
    fabric: bool = False
    #: Draw the network tiers' scale factor from ``[1, 1 + network_spread]``.
    network_spread: float = 0.0

    @property
    def open_loop(self) -> bool:
        return self.benchmark.startswith("traffic-")


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        # Fig. 5's moderate writer mix on the ROADMAP gate case.
        Workload("rw-wcsb-p64", 64, "rma-rw", "wcsb", iterations=100, fw=0.02),
        # Fig. 3: all-exclusive RMA-MCS at a deeper scheduler heap.
        Workload(
            "mcs-ecsb-p256", 256, "rma-mcs", "ecsb", iterations=16,
            network_spread=MCS_NETWORK_SPREAD,
        ),
        # Open loop: 64 Poisson streams, 100 requests each, over three phases
        # against a 1024-entry RMA-RW table under Dragonfly link contention.
        Workload(
            "traffic-phased-fabric", 64, "rma-rw", "traffic-phased",
            iterations=100, fabric=True,
        ),
    )
}


@dataclass
class Prepared:
    """Everything one simulation needs, built once per process."""

    workload: Workload
    seed: int
    config: Any
    spec: Any
    is_rw: bool
    kwargs: Dict[str, Any]
    #: Host seconds of each set-up phase, in the order they ran.
    phases: Dict[str, float] = field(default_factory=dict)

    @property
    def expected_acquires(self) -> int:
        """Acquisitions (closed loop) or scheduled requests (open loop)."""
        return self.workload.procs * self.workload.iterations

    def simulate(self, *, scheduler: Optional[str] = None, observer: Any = None):
        """Run one simulation; returns ``(LockBenchResult, RunResult)``."""
        from repro.bench.harness import run_lock_benchmark_detailed

        kwargs = dict(self.kwargs)
        if observer is not None:
            kwargs["observer"] = observer
        return run_lock_benchmark_detailed(
            self.config,
            spec=self.spec,
            is_rw=self.is_rw,
            scheduler=scheduler or "horizon",
            **kwargs,
        )


def _timed(phases: Dict[str, float], name: str, fn: Callable[[], Any]) -> Any:
    t0 = time.perf_counter()
    value = fn()
    phases[name] = time.perf_counter() - t0
    return value


def prepare(workload: Workload, seed: int) -> Prepared:
    """Import the program and build machine, fabric, lock spec and cost table.

    The phase names are the per-layer set-up metrics: ``imports``,
    ``topology.machine_build`` (machine plus the Dragonfly fabric model),
    ``bench.spec_build`` (lock spec plus the benchmark's spec transform,
    which builds the whole lock table on the open-loop workload) and
    ``rma.latency.cost_table``.
    """
    phases: Dict[str, float] = {}

    def _imports():
        import repro.bench.campaign  # noqa: F401  (digest used by every check)
        import repro.traffic  # noqa: F401  (registers the traffic scenarios)
        import repro.verification.oracles  # noqa: F401
        from repro.api.registry import get_benchmark
        from repro.bench.harness import build_lock_spec
        from repro.bench.workloads import LockBenchConfig
        from repro.rma.fabric import FabricContentionModel
        from repro.rma.latency import LatencyModel, cost_table
        from repro.topology.builder import xc30_like

        return (get_benchmark, build_lock_spec, LockBenchConfig, FabricContentionModel,
                LatencyModel, cost_table, xc30_like)

    (get_benchmark, build_lock_spec, LockBenchConfig, FabricContentionModel,
     LatencyModel, cost_table, xc30_like) = _timed(phases, "imports", _imports)

    def _machine():
        machine = xc30_like(workload.procs, PROCS_PER_NODE)
        fabric = FabricContentionModel.for_machine(machine) if workload.fabric else None
        return machine, fabric

    machine, fabric = _timed(phases, "topology.machine_build", _machine)
    config = LockBenchConfig(
        machine=machine,
        scheme=workload.scheme,
        benchmark=workload.benchmark,
        iterations=workload.iterations,
        fw=workload.fw,
        seed=seed,
    )

    def _spec():
        spec, is_rw = build_lock_spec(config)
        transform = get_benchmark(config.benchmark).spec_transform
        if transform is not None:
            spec = transform(config, spec, is_rw)
        return spec, is_rw

    spec, is_rw = _timed(phases, "bench.spec_build", _spec)
    latency = LatencyModel.cray_xc30()
    kwargs: Dict[str, Any] = {}
    if workload.network_spread:
        factor = 1.0 + workload.network_spread * random.Random(seed).random()
        latency = LatencyModel.scaled(factor)
        kwargs["latency_model"] = latency
    # Cached per (model, machine): every simulation reuses this table.
    _timed(phases, "rma.latency.cost_table", lambda: cost_table(latency, machine))

    if fabric is not None:
        kwargs["fabric"] = fabric
    return Prepared(workload, seed, config, spec, is_rw, kwargs, phases)
