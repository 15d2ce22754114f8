"""Extensions bench — the paper's future-work features, measured.

Two features the paper names as future work are implemented here and
quantified:

* **Auto-tuning scheduler** ("integrate a performance model in an
  autotuning scheduler"): virtual dry runs pick (chunk_size,
  num_streams) per device.  On the HD 7970, where the hand-chosen
  default is catastrophic (Figure 8), the tuner must recover the
  hand-tuned optimum.
* **Multi-device sharding** ("multi-nodes with different
  accelerators", building on CoreTSAR): the loop splits across devices
  by probed throughput and the shards pipeline concurrently on a
  shared clock, contending for one host PCIe link and exchanging
  halos at shard boundaries.

The sharded numbers are deliberately honest: 768^3 convolution is
transfer-bound on the K40m, so a second card on the *same* host link
buys roughly parity, and adding a slower HD 7970 costs time even
though the probed split keeps both shards finishing together.  The
workloads where sharding pays off (independent regions across a
pool) are measured in ``test_sharding_scaling.py``.
"""

from __future__ import annotations

from repro.analysis.report import format_table
from repro.apps import conv3d as cv
from repro.core.autotune import autotune
from repro.core.multidevice import execute_sharded
from repro.gpu import Runtime
from repro.kernels.conv3d import Conv3dKernel
from repro.sim import AMD_HD7970, NVIDIA_K40M, Device
from repro.sim.varray import VirtualArray

from conftest import memo

AMD_CFG = cv.Conv3dConfig(nz=384, ny=384, nx=384, num_streams=2)


def _virtual_conv_arrays(cfg):
    return cv.make_arrays(cfg, virtual=True)


def run_autotune(cache):
    def compute():
        out = {}
        for dev_name, profile in (("k40m", NVIDIA_K40M), ("hd7970", AMD_HD7970)):
            cfg = cv.Conv3dConfig() if dev_name == "k40m" else AMD_CFG
            region = cv.make_region(cfg)
            arrays = _virtual_conv_arrays(cfg)
            kernel = Conv3dKernel(cfg.ny, cfg.nx)
            rep = autotune(
                region.bind(arrays), Runtime(Device(profile), virtual=True), arrays,
                kernel,
            )
            naive = cv.run_model("naive", cfg, dev_name, virtual=True)
            out[dev_name] = (rep, naive)
        return out

    return memo(cache, "ext_autotune", compute)


def test_extension_autotune(benchmark, cache, report):
    data = run_autotune(cache)
    benchmark.pedantic(
        lambda: autotune(
            cv.make_region(AMD_CFG).bind(_virtual_conv_arrays(AMD_CFG)),
            Runtime(Device(AMD_HD7970), virtual=True),
            _virtual_conv_arrays(AMD_CFG),
            Conv3dKernel(AMD_CFG.ny, AMD_CFG.nx),
            max_streams=4,
        ),
        rounds=1, iterations=1,
    )

    rows = []
    for dev, (rep, naive) in data.items():
        rows.append(
            [
                dev,
                rep.best.chunk_size,
                rep.best.num_streams,
                naive.elapsed / rep.best.elapsed,
                rep.dry_runs,
            ]
        )
    report.emit(
        "Extension: autotuned pipeline parameters (3dconv)",
        format_table(["device", "chunk", "streams", "speedup vs naive", "dry runs"], rows),
    )

    # the tuner beats Naive on both devices — including the AMD card,
    # where the paper's default configuration *loses* by 2x
    for dev, (rep, naive) in data.items():
        assert naive.elapsed / rep.best.elapsed > 1.3, dev
    # and it steers the AMD card far away from the paper's fine-grained
    # default (chunk size 1, which loses 2x to Naive there)
    assert data["hd7970"][0].best.chunk_size >= 8
    # a handful of millisecond-scale dry runs, not an exhaustive sweep
    assert data["hd7970"][0].dry_runs < 60


def test_extension_multidevice(benchmark, cache, report):
    cfg = cv.Conv3dConfig(chunk_size=8)
    region = cv.make_region(cfg)
    kernel = Conv3dKernel(cfg.ny, cfg.nx)

    def dual():
        arrays = _virtual_conv_arrays(cfg)
        return execute_sharded(
            [Runtime(Device(NVIDIA_K40M), virtual=True) for _ in range(2)],
            region, arrays, kernel, weights=[1, 1],
        )

    res_dual = benchmark.pedantic(dual, rounds=3, iterations=1)
    single = cv.run_model("pipelined-buffer", cfg, virtual=True)

    arrays = _virtual_conv_arrays(cfg)
    hetero = execute_sharded(
        [Runtime(Device(NVIDIA_K40M), virtual=True),
         Runtime(Device(AMD_HD7970), virtual=True)],
        region, arrays, kernel,
    )

    report.emit(
        "Extension: multi-device sharding, shared PCIe (3dconv 768^3)",
        format_table(
            ["configuration", "elapsed s", "shares", "halo MiB"],
            [
                ["1x K40m", single.elapsed, "766", 0],
                [
                    "2x K40m",
                    res_dual.elapsed,
                    "/".join(map(str, res_dual.shares)),
                    res_dual.halo_bytes / 2**20,
                ],
                [
                    "K40m + HD7970",
                    hetero.elapsed,
                    "/".join(map(str, hetero.shares)),
                    hetero.halo_bytes / 2**20,
                ],
            ],
        ),
    )

    # every shard configuration covers the full loop
    assert sum(res_dual.shares) == sum(hetero.shares) == 766
    # halo exchange at the shard seam is charged, not elided
    assert res_dual.halo_bytes > 0
    # transfer-bound region on one host link: a second identical card
    # buys at best parity — but must not *cost* time either
    assert res_dual.elapsed < 1.05 * single.elapsed
    # heterogeneous pair: the probe gives the K40m the larger share and
    # balances shard finish times, but the slower card plus link
    # contention makes the pair slower than the K40m alone
    assert hetero.shares[0] > hetero.shares[1]
    assert hetero.imbalance() < 0.25
    assert hetero.elapsed > res_dual.elapsed
