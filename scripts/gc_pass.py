"""What one benchmark pass costs the cyclic GC, and what it leaves alive.

The bench ledger shows collector time only inside ``bench.unattributed``.
This script runs one workload of ``bench/workloads.py`` the way
``bench/run.py`` does (prepare, then setup and run per pass), first one
warm pass, then:

1. one pass timed as ``bench/run.py`` times it (a full collection,
   setup, a full collection, then the run) with a ``gc.callbacks`` hook
   on the run only: collections and seconds per generation, and
   ``gc.get_count()`` as the run ends, which shows how far the pass
   stands from its next gen-1 or gen-2 collection;
2. one pass under ``tracemalloc``: the MB still allocated once the pass
   has run while its results are alive (a full collection first), and
   at that point the live ``Command`` and ``EventToken`` counts, the
   growth in GC-tracked objects since before the pass, and what the
   pass pins past its regions: the live ``PipelineIssuer`` objects and
   the bytes of the real backings of live device arrays (root handles,
   freed or not; views share their root's bytes);
3. what ``compile_plan``'s memo holds after these passes, started empty
   before the warm pass: the programs the warm pass and the timed pass
   each built (its misses), its entries, hits and misses, the bytes it
   retains (a ``sys.getsizeof`` walk of everything reachable from it
   but classes, modules and functions) and the GC-tracked objects among
   them per compiled chunk.

Run from the repository root::

    PYTHONPATH=src python scripts/gc_pass.py paper_sweep [--seed 1]

The workloads are imported from ``bench/workloads.py`` read-only (no
bytecode is written there).
"""

from __future__ import annotations

import argparse
import gc
import os
import shutil
import sys
import tempfile
import time
import tracemalloc
import types
from pathlib import Path

sys.dont_write_bytecode = True
ROOT = Path(__file__).resolve().parents[1]
for p in (ROOT / "src", ROOT / "bench"):
    if str(p) not in sys.path:
        sys.path.insert(0, str(p))
for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")

from workloads import WORKLOADS  # noqa: E402

from repro.core import pipemodel  # noqa: E402
from repro.core.executor import PipelineIssuer  # noqa: E402
from repro.gpu.darray import DeviceArray  # noqa: E402
from repro.sim.engine import Command, EventToken  # noqa: E402


def gc_costs(wl):
    """Per-generation ``(collections, seconds)`` over one timed run, and
    ``gc.get_count()`` as it ends."""
    stats = {g: [0, 0.0] for g in range(3)}
    started = {}

    def hook(phase, info):
        if phase == "start":
            started["t"] = time.perf_counter()
        else:
            row = stats[info["generation"]]
            row[0] += 1
            row[1] += time.perf_counter() - started["t"]

    gc.collect()
    state = wl.setup()
    gc.collect()
    gc.callbacks.append(hook)
    try:
        raw = wl.run(state)
        count = gc.get_count()
    finally:
        gc.callbacks.remove(hook)
    return stats, count


def retained(wl):
    """``(MB allocated, Commands, EventTokens, tracked-object growth,
    PipelineIssuers, device-array backing bytes)`` after one pass, its
    results still alive."""
    gc.collect()
    tracked0 = len(gc.get_objects())
    tracemalloc.start()
    try:
        state = wl.setup()
        raw = wl.run(state)
        gc.collect()
        mb = tracemalloc.get_traced_memory()[0] / 1e6
    finally:
        tracemalloc.stop()
    live = gc.get_objects()
    cmds = sum(1 for o in live if type(o) is Command)
    toks = sum(1 for o in live if type(o) is EventToken)
    growth = len(live) - tracked0
    issuers = sum(1 for o in live if type(o) is PipelineIssuer)
    backing = sum(
        o.nbytes for o in live
        if type(o) is DeviceArray and not o.is_view and not o.is_virtual
    )
    del state, raw, live
    return mb, cmds, toks, growth, issuers, backing


def memo_footprint():
    """``(bytes, GC-tracked objects, compiled chunks)`` of what
    ``compile_plan``'s memo keeps reachable."""
    shared = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType)
    seen = set()
    todo = [pipemodel._memo]
    nbytes = tracked = 0
    while todo:
        obj = todo.pop()
        if id(obj) in seen or isinstance(obj, shared):
            continue
        seen.add(id(obj))
        nbytes += sys.getsizeof(obj)
        tracked += gc.is_tracked(obj)
        todo += gc.get_referents(obj)
    chunks = sum(len(c.chunks) for c in pipemodel.compile_memo().entries)
    return nbytes, tracked, chunks


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    workdir = tempfile.mkdtemp(prefix="gc-pass-")
    try:
        wl = WORKLOADS[args.workload](args.seed, quick=False, workdir=workdir)
        wl.prepare()
        pipemodel.clear_compile_memo()
        wl.run(wl.setup())  # warm pass
        warm_builds = pipemodel.compile_memo().misses
        stats, count = gc_costs(wl)
        next_builds = pipemodel.compile_memo().misses - warm_builds
        gc.collect()
        memo = pipemodel.compile_memo()
        memo_bytes, memo_tracked, memo_chunks = memo_footprint()
        mb, cmds, toks, growth, issuers, backing = retained(wl)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"workload {args.workload} seed {args.seed}")
    for g, (n, s) in stats.items():
        print(f"gc gen{g}: {n} collections, {s:.3f} s")
    print(f"gc count at the end of the run: {count}")
    print(f"retained after the pass: {mb:.1f} MB (tracemalloc)")
    print(f"live Command {cmds}, EventToken {toks}, tracked objects +{growth}")
    print(f"live PipelineIssuer {issuers}, device-array backings {backing / 2**20:.1f} MiB")
    print(
        f"compile memo: {warm_builds} programs built in the warm pass, {next_builds} in "
        f"the timed pass; {len(memo.entries)} entries, {memo.hits} hits, {memo.misses} misses"
    )
    per_chunk = f"{memo_tracked / memo_chunks:.2f}" if memo_chunks else "n/a"
    print(
        f"compile memo retains {memo_bytes / 1e6:.2f} MB, {memo_tracked} GC-tracked objects "
        f"for {memo_chunks} compiled chunks ({per_chunk} per chunk)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
