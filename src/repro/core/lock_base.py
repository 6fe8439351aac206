"""Abstract interfaces shared by every lock implementation.

A lock comes in two pieces:

* a **spec** — pure data describing window layout, thresholds and topology
  mappings.  Specs are created once (before the runtime starts), contribute
  their window words, and know how to initialize each rank's window.
* a **handle** — the per-process object a rank program obtains by calling
  ``spec.make(ctx)`` inside the runtime.  Handles issue the actual RMA calls.

Mutual-exclusion locks expose ``acquire``/``release``; reader-writer locks
additionally expose ``acquire_read``/``release_read`` (and alias
``acquire``/``release`` to the writer side so an RW lock can be dropped in
wherever a plain lock is expected).  Every handle method that issues RMA
calls is an ``async def`` coroutine and is awaited by its caller; see
:mod:`repro.rma.runtime_base`.
"""

from __future__ import annotations

import abc
from contextlib import asynccontextmanager
from typing import AsyncIterator, Dict, Mapping

from repro.rma.runtime_base import ProcessContext

__all__ = ["LockHandle", "RWLockHandle", "LockSpec", "RWLockSpec"]


class LockHandle(abc.ABC):
    """Per-process handle of a mutual-exclusion lock."""

    @abc.abstractmethod
    async def acquire(self) -> None:
        """Block (spin) until the calling process owns the lock."""

    @abc.abstractmethod
    async def release(self) -> None:
        """Release the lock; the caller must currently own it."""

    @asynccontextmanager
    async def held(self) -> AsyncIterator[None]:
        """Context manager form: ``async with lock.held(): ...``."""
        await self.acquire()
        try:
            yield
        finally:
            await self.release()


class RWLockHandle(LockHandle):
    """Per-process handle of a reader-writer lock."""

    @abc.abstractmethod
    async def acquire_read(self) -> None:
        """Enter the critical section as a reader (shared access)."""

    @abc.abstractmethod
    async def release_read(self) -> None:
        """Leave the critical section as a reader."""

    @abc.abstractmethod
    async def acquire_write(self) -> None:
        """Enter the critical section as a writer (exclusive access)."""

    @abc.abstractmethod
    async def release_write(self) -> None:
        """Leave the critical section as a writer."""

    # A reader-writer lock used through the plain Lock interface behaves as a
    # writer (exclusive) lock.
    async def acquire(self) -> None:
        await self.acquire_write()

    async def release(self) -> None:
        await self.release_write()

    @asynccontextmanager
    async def reading(self) -> AsyncIterator[None]:
        """Context manager for the reader side."""
        await self.acquire_read()
        try:
            yield
        finally:
            await self.release_read()

    @asynccontextmanager
    async def writing(self) -> AsyncIterator[None]:
        """Context manager for the writer side."""
        await self.acquire_write()
        try:
            yield
        finally:
            await self.release_write()


class LockSpec(abc.ABC):
    """Shared, immutable description of a lock instance."""

    @property
    @abc.abstractmethod
    def window_words(self) -> int:
        """Number of window words the lock needs (counting from offset 0)."""

    @abc.abstractmethod
    def init_window(self, rank: int) -> Mapping[int, int]:
        """Initial window contents for ``rank`` (offsets not listed stay 0)."""

    @abc.abstractmethod
    def make(self, ctx: ProcessContext) -> LockHandle:
        """Create the per-process handle bound to ``ctx``."""

    # Convenience so several specs (lock + DHT + scratch) can be combined.
    @staticmethod
    def merge_inits(*inits: Mapping[int, int]) -> Dict[int, int]:
        """Merge window-init dictionaries, rejecting conflicting offsets."""
        merged: Dict[int, int] = {}
        for init in inits:
            for offset, value in init.items():
                if offset in merged and merged[offset] != value:
                    raise ValueError(f"conflicting initial values for window offset {offset}")
                merged[offset] = value
        return merged


class RWLockSpec(LockSpec):
    """Spec whose handles implement :class:`RWLockHandle`."""

    @abc.abstractmethod
    def make(self, ctx: ProcessContext) -> RWLockHandle:  # type: ignore[override]
        """Create the per-process reader-writer handle bound to ``ctx``."""
