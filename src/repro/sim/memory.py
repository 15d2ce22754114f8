"""Device memory allocator with live/peak accounting and OOM behaviour.

The allocator hands out *simulated* device addresses from a fixed-size
arena using a first-fit free list.  It does not own the backing store
(NumPy arrays or :class:`~repro.sim.varray.VirtualArray` live alongside
the address records); its job is the part the paper measures:

* the **footprint** each execution model needs (Figures 6 and 10), via
  live-byte and peak-byte counters, and
* the **out-of-memory failures** that make the Naive and hand-coded
  Pipelined matmul versions unable to run the two largest problem sizes
  (Figure 9/10), via :class:`OutOfDeviceMemory`.

A fixed ``context_overhead`` models the CUDA/OpenCL context plus the
vendor runtime and scheduler state.  The paper calls this out for the
Parboil stencil: "the GPU runtime and scheduler, rather than the data
set, consume a large portion of the memory for this small test case."
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.errors import ReproError

__all__ = ["ALIGNMENT", "AllocationRecord", "MemoryAllocator", "OutOfDeviceMemory", "aligned"]

#: default allocation alignment in bytes (CUDA guarantees at least 256)
ALIGNMENT = 256


def aligned(nbytes: int, alignment: int = ALIGNMENT) -> int:
    """``nbytes`` rounded up to a multiple of ``alignment``."""
    return (nbytes + alignment - 1) // alignment * alignment


class OutOfDeviceMemory(ReproError, MemoryError):
    """Raised when an allocation cannot fit in device memory.

    Mirrors ``cudaErrorMemoryAllocation``: the paper notes that neither
    OpenMP nor OpenACC can recover from this condition, which motivates
    the ``pipeline_mem_limit`` clause.
    """

    def __init__(self, requested: int, free: int, capacity: int) -> None:
        super().__init__(
            f"device OOM: requested {requested} B, {free} B free of "
            f"{capacity} B usable"
        )
        self.requested = requested
        self.free = free
        self.capacity = capacity


@dataclass(frozen=True)
class AllocationRecord:
    """One live device allocation.

    Attributes
    ----------
    address:
        Simulated device address (byte offset into the arena).
    nbytes:
        Size of the allocation in bytes.
    tag:
        Debug label ("A0 ring buffer", ...).
    """

    address: int
    nbytes: int
    tag: str = ""


@dataclass
class MemoryAllocator:
    """First-fit free-list allocator over a fixed arena.

    Parameters
    ----------
    capacity:
        Usable device memory in bytes (card memory minus reservations
        such as ECC overhead; see the device profiles).
    context_overhead:
        Bytes permanently consumed by the driver context/runtime.  It is
        charged immediately and counted in ``used`` and ``peak`` so that
        reported memory usage matches what a profiler would show.
    alignment:
        Allocation alignment in bytes (CUDA guarantees at least 256).
    """

    capacity: int
    context_overhead: int = 0
    alignment: int = ALIGNMENT
    _free: List[Tuple[int, int]] = field(default_factory=list)  # (addr, size)
    _live: Dict[int, AllocationRecord] = field(default_factory=dict)
    _used: int = 0
    _peak: int = 0
    _n_allocs: int = 0
    _n_frees: int = 0

    def __post_init__(self) -> None:
        if self.context_overhead > self.capacity:
            raise ValueError("context overhead exceeds device capacity")
        base = self._align(self.context_overhead)
        self._free = [(base, self.capacity - base)]
        self._used = self.context_overhead
        self._peak = self.context_overhead

    def _align(self, n: int) -> int:
        return aligned(n, self.alignment)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def used(self) -> int:
        """Bytes currently in use (including the context overhead)."""
        return self._used

    @property
    def peak(self) -> int:
        """High-water mark of :attr:`used` since construction."""
        return self._peak

    @property
    def free(self) -> int:
        """Bytes currently available."""
        return self.capacity - self._used

    @property
    def live_allocations(self) -> List[AllocationRecord]:
        """Records for every live allocation, ordered by address."""
        return sorted(self._live.values(), key=lambda r: r.address)

    @property
    def alloc_count(self) -> int:
        """Total number of successful allocations."""
        return self._n_allocs

    # ------------------------------------------------------------------
    # allocate / free
    # ------------------------------------------------------------------
    def allocate(self, nbytes: int, tag: str = "") -> AllocationRecord:
        """Reserve ``nbytes`` of device memory.

        Raises
        ------
        OutOfDeviceMemory
            If no free block can hold the (aligned) request.
        ValueError
            If ``nbytes`` is not positive.
        """
        if nbytes <= 0:
            raise ValueError(f"allocation size must be positive, got {nbytes}")
        size = self._align(nbytes)
        for i, (addr, blk) in enumerate(self._free):
            if blk >= size:
                rec = AllocationRecord(addr, size, tag)
                rest = blk - size
                if rest:
                    self._free[i] = (addr + size, rest)
                else:
                    del self._free[i]
                self._live[addr] = rec
                self._used += size
                self._peak = max(self._peak, self._used)
                self._n_allocs += 1
                return rec
        raise OutOfDeviceMemory(size, self.free, self.capacity)

    def release(self, rec: AllocationRecord) -> None:
        """Return an allocation to the free list (with coalescing)."""
        if rec.address not in self._live:
            raise ValueError(f"double free / unknown allocation at {rec.address}")
        del self._live[rec.address]
        self._used -= rec.nbytes
        self._n_frees += 1
        self._insert_free(rec.address, rec.nbytes)

    def _insert_free(self, addr: int, size: int) -> None:
        # keep free list sorted by address; coalesce neighbours
        lo, hi = 0, len(self._free)
        while lo < hi:
            mid = (lo + hi) // 2
            if self._free[mid][0] < addr:
                lo = mid + 1
            else:
                hi = mid
        self._free.insert(lo, (addr, size))
        # coalesce with next
        if lo + 1 < len(self._free):
            a, s = self._free[lo]
            na, ns = self._free[lo + 1]
            if a + s == na:
                self._free[lo] = (a, s + ns)
                del self._free[lo + 1]
        # coalesce with previous
        if lo > 0:
            pa, ps = self._free[lo - 1]
            a, s = self._free[lo]
            if pa + ps == a:
                self._free[lo - 1] = (pa, ps + s)
                del self._free[lo]

    def reset_peak(self) -> None:
        """Reset the peak counter to the current usage."""
        self._peak = self._used

    def check_invariants(self) -> None:
        """Validate internal bookkeeping; used by property tests."""
        free_bytes = sum(s for _, s in self._free)
        live_bytes = sum(r.nbytes for r in self._live.values())
        base = self._align(self.context_overhead)
        if free_bytes + live_bytes != self.capacity - base:
            raise AssertionError("free + live bytes do not cover the arena")
        if self._used != live_bytes + self.context_overhead:
            raise AssertionError("used counter out of sync")
        prev_end = None
        for addr, size in self._free:
            if size <= 0:
                raise AssertionError("empty free block")
            if prev_end is not None and addr < prev_end:
                raise AssertionError("free list overlap / out of order")
            prev_end = addr + size
        # live allocations must not overlap each other or free blocks
        spans = sorted(
            [(r.address, r.nbytes, "live") for r in self._live.values()]
            + [(a, s, "free") for a, s in self._free]
        )
        prev_end = base
        for addr, size, _ in spans:
            if addr < prev_end:
                raise AssertionError("overlapping spans in arena")
            prev_end = addr + size
