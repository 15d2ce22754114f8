#!/usr/bin/env python3
"""Future-work features: autotuning + heterogeneous multi-device runs.

The paper's conclusion lists an auto-tuning scheduler and multi-device
execution as future work; both are implemented here as extensions.
This example:

1. lets the autotuner pick ``(chunk_size, num_streams)`` for the 3-D
   convolution on each device via virtual dry runs, then
2. shards the convolution across a K40m + HD 7970 pair through the
   placement API (``region.run(..., devices=[...])``): the loop is
   split proportionally to each device's probed throughput on a shared
   virtual clock, with halo exchange and shared-PCIe contention
   modelled.

Run::

    python examples/heterogeneous_cluster.py
"""

from repro.apps import conv3d as cv
from repro.core.autotune import autotune
from repro.gpu import Runtime
from repro.kernels.conv3d import Conv3dKernel
from repro.sim import AMD_HD7970, NVIDIA_K40M, Device


def main() -> None:
    # -- 1. per-device autotuning -------------------------------------
    print("autotuning 3dconv pipeline parameters (virtual dry runs):")
    for name, profile, cfg in (
        ("K40m  ", NVIDIA_K40M, cv.Conv3dConfig()),
        ("HD7970", AMD_HD7970, cv.Conv3dConfig(nz=384, ny=384, nx=384)),
    ):
        region = cv.make_region(cfg)
        arrays = cv.make_arrays(cfg, virtual=True)
        kernel = Conv3dKernel(cfg.ny, cfg.nx)
        rep = autotune(
            region.bind(arrays), Runtime(Device(profile), virtual=True), arrays, kernel
        )
        naive = cv.run_model("naive", cfg, profile, virtual=True)
        print(
            f"  {name}: chunk={rep.best.chunk_size:<4} streams={rep.best.num_streams} "
            f"-> {naive.elapsed / rep.best.elapsed:.2f}x over naive "
            f"({rep.dry_runs} dry runs)"
        )

    # -- 2. heterogeneous sharding via the placement API ---------------
    cfg = cv.Conv3dConfig(nz=384, ny=384, nx=384, chunk_size=8, num_streams=2)
    region = cv.make_region(cfg)
    kernel = Conv3dKernel(cfg.ny, cfg.nx)

    single = cv.run_model("pipelined-buffer", cfg, virtual=True)
    twin = region.run(
        None, cv.make_arrays(cfg, virtual=True), kernel,
        devices=[Runtime(Device(NVIDIA_K40M), virtual=True),
                 Runtime(Device(NVIDIA_K40M), virtual=True)],
    )
    pair = region.run(
        None, cv.make_arrays(cfg, virtual=True), kernel,
        devices=[Runtime(Device(NVIDIA_K40M), virtual=True),
                 Runtime(Device(AMD_HD7970), virtual=True)],
    )

    print("\nsharded 3dconv 384^3 over a shared PCIe link:")
    print(f"  single K40m:      {single.elapsed * 1e3:7.1f} ms")
    print(
        f"  K40m + K40m:      {twin.elapsed * 1e3:7.1f} ms "
        f"({single.elapsed / twin.elapsed:.2f}x)"
    )
    print(
        f"  K40m + HD7970:    {pair.elapsed * 1e3:7.1f} ms "
        f"({single.elapsed / pair.elapsed:.2f}x, shares "
        f"{pair.shares[0]}/{pair.shares[1]} planes, "
        f"imbalance {100 * pair.imbalance():.0f}%)"
    )
    print(
        "  the probed split keeps both shards finishing together, but a\n"
        "  transfer-bound region gains little from a second card when\n"
        "  both shards contend for the same host link — the honest\n"
        "  multi-GPU story a per-device-link model would hide"
    )


if __name__ == "__main__":
    main()
