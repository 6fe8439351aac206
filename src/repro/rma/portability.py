"""Portability layer: the paper's Table 3 as executable adapters.

Table 3 of the paper shows that the six RMA calls the locks rely on exist in
every major RMA/PGAS environment (UPC, Berkeley UPC, SHMEM, Fortran 2008,
Linux RDMA/IB verbs, iWARP).  This module turns that table into code:

* :data:`PORTABILITY_TABLE` — the mapping of each Listing-1 call to its
  counterpart per environment, exactly as printed in the paper (including the
  Fortran caveat about the missing atomic swap).
* Thin adapter classes (:class:`ShmemFacade`, :class:`UpcFacade`) that expose
  the SHMEM-/UPC-flavoured names on top of any
  :class:`~repro.rma.runtime_base.ProcessContext`, demonstrating that the
  lock protocols are not tied to the MPI-3 RMA spelling of the operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.rma.ops import AtomicOp
from repro.rma.runtime_base import ProcessContext

__all__ = [
    "PORTABILITY_TABLE",
    "PortabilityEntry",
    "ShmemFacade",
    "UpcFacade",
    "environments",
    "operations",
    "supports_all_required_ops",
]


@dataclass(frozen=True)
class PortabilityEntry:
    """How one RMA call is expressed in one environment."""

    environment: str
    operation: str
    equivalent: str
    note: Optional[str] = None

    @property
    def supported(self) -> bool:
        """False when the environment needs a protocol adjustment for this call."""
        return self.note is None


#: Table 3 of the paper, row by row.
PORTABILITY_TABLE: List[PortabilityEntry] = [
    # UPC (standard)
    PortabilityEntry("upc", "put", "UPC_SET"),
    PortabilityEntry("upc", "get", "UPC_GET"),
    PortabilityEntry("upc", "accumulate", "UPC_INC"),
    PortabilityEntry("upc", "fao_sum", "UPC_INC / UPC_DEC"),
    PortabilityEntry("upc", "fao_replace", "UPC_SET"),
    PortabilityEntry("upc", "cas", "UPC_CSWAP"),
    # Berkeley UPC
    PortabilityEntry("berkeley-upc", "put", "bupc_atomicX_set_RS"),
    PortabilityEntry("berkeley-upc", "get", "bupc_atomicX_read_RS"),
    PortabilityEntry("berkeley-upc", "accumulate", "bupc_atomicX_fetchadd_RS"),
    PortabilityEntry("berkeley-upc", "fao_sum", "bupc_atomicX_fetchadd_RS"),
    PortabilityEntry("berkeley-upc", "fao_replace", "bupc_atomicX_swap_RS"),
    PortabilityEntry("berkeley-upc", "cas", "bupc_atomicX_cswap_RS"),
    # SHMEM
    PortabilityEntry("shmem", "put", "shmem_swap"),
    PortabilityEntry("shmem", "get", "shmem_mswap"),
    PortabilityEntry("shmem", "accumulate", "shmem_fadd"),
    PortabilityEntry("shmem", "fao_sum", "shmem_fadd"),
    PortabilityEntry("shmem", "fao_replace", "shmem_swap"),
    PortabilityEntry("shmem", "cas", "shmem_cswap"),
    # Fortran 2008
    PortabilityEntry("fortran-2008", "put", "atomic_define"),
    PortabilityEntry("fortran-2008", "get", "atomic_ref"),
    PortabilityEntry("fortran-2008", "accumulate", "atomic_add"),
    PortabilityEntry("fortran-2008", "fao_sum", "atomic_add"),
    PortabilityEntry(
        "fortran-2008",
        "fao_replace",
        "atomic_define",
        note="Fortran 2008 lacks an atomic swap; protocols relying on it need a different atomic mix.",
    ),
    PortabilityEntry("fortran-2008", "cas", "atomic_cas"),
    # Linux RDMA / InfiniBand verbs
    PortabilityEntry("rdma-ib", "put", "MskCmpSwap"),
    PortabilityEntry("rdma-ib", "get", "MskCmpSwap"),
    PortabilityEntry("rdma-ib", "accumulate", "FetchAdd"),
    PortabilityEntry("rdma-ib", "fao_sum", "FetchAdd"),
    PortabilityEntry("rdma-ib", "fao_replace", "MskCmpSwap"),
    PortabilityEntry("rdma-ib", "cas", "CmpSwap"),
    # iWARP
    PortabilityEntry("iwarp", "put", "masked CmpSwap"),
    PortabilityEntry("iwarp", "get", "masked CmpSwap"),
    PortabilityEntry("iwarp", "accumulate", "FetchAdd"),
    PortabilityEntry("iwarp", "fao_sum", "FetchAdd"),
    PortabilityEntry("iwarp", "fao_replace", "masked CmpSwap"),
    PortabilityEntry("iwarp", "cas", "CmpSwap"),
]


def environments() -> List[str]:
    """All environments covered by Table 3, in table order."""
    seen: List[str] = []
    for entry in PORTABILITY_TABLE:
        if entry.environment not in seen:
            seen.append(entry.environment)
    return seen


def operations(environment: str) -> Dict[str, PortabilityEntry]:
    """The per-operation mapping for one environment."""
    table = {e.operation: e for e in PORTABILITY_TABLE if e.environment == environment}
    if not table:
        raise KeyError(f"unknown environment {environment!r}; known: {environments()}")
    return table


def supports_all_required_ops(environment: str) -> bool:
    """True when every Listing-1 call maps cleanly (no protocol adjustment needed)."""
    return all(entry.supported for entry in operations(environment).values())


class ShmemFacade:
    """SHMEM-flavoured names (``shmem_put``/``shmem_fadd``/...) over a ProcessContext."""

    def __init__(self, ctx: ProcessContext):
        self.ctx = ctx

    async def shmem_put(self, value: int, pe: int, offset: int) -> None:
        await self.ctx.put(value, pe, offset)

    async def shmem_get(self, pe: int, offset: int) -> int:
        return await self.ctx.get(pe, offset)

    async def shmem_fadd(self, pe: int, offset: int, value: int) -> int:
        return await self.ctx.fao(value, pe, offset, AtomicOp.SUM)

    async def shmem_swap(self, pe: int, offset: int, value: int) -> int:
        return await self.ctx.fao(value, pe, offset, AtomicOp.REPLACE)

    async def shmem_cswap(self, pe: int, offset: int, cond: int, value: int) -> int:
        return await self.ctx.cas(value, cond, pe, offset)

    async def shmem_quiet(self, pe: int) -> None:
        await self.ctx.flush(pe)

    async def shmem_barrier_all(self) -> None:
        await self.ctx.barrier()

    @property
    def my_pe(self) -> int:
        return self.ctx.rank

    @property
    def n_pes(self) -> int:
        return self.ctx.nranks


class UpcFacade:
    """UPC-flavoured names (``upc_set``/``upc_cswap``/...) over a ProcessContext."""

    def __init__(self, ctx: ProcessContext):
        self.ctx = ctx

    async def upc_set(self, thread: int, offset: int, value: int) -> None:
        await self.ctx.put(value, thread, offset)

    async def upc_get(self, thread: int, offset: int) -> int:
        return await self.ctx.get(thread, offset)

    async def upc_inc(self, thread: int, offset: int, value: int = 1) -> int:
        return await self.ctx.fao(value, thread, offset, AtomicOp.SUM)

    async def upc_cswap(self, thread: int, offset: int, compare: int, value: int) -> int:
        return await self.ctx.cas(value, compare, thread, offset)

    async def upc_fence(self, thread: int) -> None:
        await self.ctx.flush(thread)

    async def upc_barrier(self) -> None:
        await self.ctx.barrier()

    @property
    def mythread(self) -> int:
        return self.ctx.rank

    @property
    def threads(self) -> int:
        return self.ctx.nranks
