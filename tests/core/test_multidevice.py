"""Tests for multi-device co-scheduling (paper future work).

Loop splitting, probed weights and the per-device results of
:func:`execute_sharded`; the shared-clock model's failover, halo and
contention accounting are covered by ``tests/serve/test_sharding.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.multidevice import (
    MultiDeviceResult,
    execute_sharded,
    probe_rates,
    split_loop,
)
from repro.directives.clauses import DirectiveError, Loop
from repro.gpu import Runtime
from repro.sim import AMD_HD7970, NVIDIA_K40M

from tests.core.test_executor import ScaleKernel, expected, make_arrays, make_region


class TestSplitLoop:
    def test_even_split(self):
        parts = split_loop(Loop("k", 0, 100), [1, 1])
        assert parts == [(0, 50), (50, 100)]

    def test_proportional_split(self):
        parts = split_loop(Loop("k", 0, 100), [3, 1])
        assert parts == [(0, 75), (75, 100)]

    def test_split_covers_loop_exactly(self):
        for weights in ([1], [2, 1], [1, 2, 3], [5, 1, 1, 1]):
            parts = split_loop(Loop("k", 7, 64), weights)
            assert parts[0][0] == 7 and parts[-1][1] == 64
            for (a, b), (c, d) in zip(parts, parts[1:]):
                assert b == c
            assert all(b > a for a, b in parts)

    def test_extreme_weights_still_give_everyone_work(self):
        parts = split_loop(Loop("k", 0, 10), [1000, 1, 1])
        assert all(b > a for a, b in parts)
        assert parts[-1][1] == 10

    def test_bad_weights_rejected(self):
        with pytest.raises(DirectiveError):
            split_loop(Loop("k", 0, 10), [])
        with pytest.raises(DirectiveError):
            split_loop(Loop("k", 0, 10), [1, -1])

    def test_nonfinite_weights_rejected(self):
        """NaN/inf slipped through the old ``w <= 0`` guard and blew up
        deep inside ``round``; now they fail fast with a clear error."""
        for bad in (
            [float("nan"), 1.0],
            [float("inf"), 1.0],
            [1.0, float("-inf")],
        ):
            with pytest.raises(DirectiveError, match="positive finite"):
                split_loop(Loop("k", 0, 10), bad)

    def test_non_numeric_weights_rejected(self):
        with pytest.raises(DirectiveError, match="positive finite"):
            split_loop(Loop("k", 0, 10), ["2", 1])
        with pytest.raises(DirectiveError, match="positive finite"):
            split_loop(Loop("k", 0, 10), [True, 1])

    def test_more_devices_than_iterations_rejected(self):
        with pytest.raises(DirectiveError):
            split_loop(Loop("k", 0, 2), [1, 1, 1])

    def test_inconsistent_loop_metadata_rejected(self):
        """A loop whose trip count disagrees with its bounds can force
        the one-iteration-minimum fixup to produce non-monotonic
        bounds; the post-fixup validation must catch it."""

        class BadLoop:
            var = "k"
            start = 0
            stop = 2
            trip_count = 40

        with pytest.raises(DirectiveError, match="monotonic"):
            split_loop(BadLoop(), [1, 1, 1, 1])


class TestExecution:
    def heavy(self, n=128):
        rng = np.random.default_rng(4)
        a = rng.random((n, 32768))
        return {"IN": a, "OUT": np.zeros_like(a)}

    def test_two_homogeneous_devices_match_reference(self):
        n = 64
        arrays = make_arrays(n)
        region = make_region(n, 2, 2)
        rts = [Runtime(NVIDIA_K40M), Runtime(NVIDIA_K40M)]
        res = execute_sharded(rts, region, arrays, ScaleKernel(), weights=[1, 1])
        assert isinstance(res, MultiDeviceResult)
        assert np.allclose(arrays["OUT"], expected(arrays, n))
        assert sum(res.shares) == n - 2

    def test_heterogeneous_pair_matches_reference(self):
        n = 64
        arrays = make_arrays(n)
        region = make_region(n, 2, 2)
        rts = [Runtime(NVIDIA_K40M), Runtime(AMD_HD7970)]
        execute_sharded(rts, region, arrays, ScaleKernel())
        assert np.allclose(arrays["OUT"], expected(arrays, n))

    def test_two_devices_faster_than_one(self):
        # compute-bound: both shards' transfers share one PCIe link, so
        # a transfer-bound region gains nothing from a second device
        n = 128
        kernel = ScaleKernel(cost_per_iter=500e-6)
        arrays = self.heavy(n)
        region = make_region(n, 4, 2)
        single = region.run(Runtime(NVIDIA_K40M), dict(arrays), kernel)
        dual = execute_sharded(
            [Runtime(NVIDIA_K40M), Runtime(NVIDIA_K40M)],
            region, arrays, kernel, weights=[1, 1],
        )
        assert dual.elapsed < 0.65 * single.elapsed  # near-2x scaling

    def test_probe_weights_balance_heterogeneous_pair(self):
        """Throughput-probed shares beat a naive 50/50 split when one
        device is much slower."""
        n = 256
        kernel = ScaleKernel(cost_per_iter=25e-6)
        region = make_region(n, 4, 2)
        arrays = self.heavy(n)
        even = execute_sharded(
            [Runtime(NVIDIA_K40M), Runtime(AMD_HD7970)],
            region, dict(arrays) | {"OUT": np.zeros_like(arrays["OUT"])},
            kernel, weights=[1, 1],
        )
        probed = execute_sharded(
            [Runtime(NVIDIA_K40M), Runtime(AMD_HD7970)],
            region, arrays, kernel,
        )
        assert probed.shares[0] > probed.shares[1]  # K40m takes more
        assert probed.elapsed < even.elapsed
        assert probed.imbalance() < even.imbalance()

    def test_probe_rates_orders_devices(self):
        n = 128
        region = make_region(n, 4, 2)
        plan = region.bind(self.heavy(n))
        rates = probe_rates(
            [Runtime(NVIDIA_K40M), Runtime(AMD_HD7970)],
            plan, self.heavy(n), ScaleKernel(cost_per_iter=25e-6),
        )
        assert rates[0] > rates[1]

    def test_per_device_memory_stays_small(self):
        n = 128
        arrays = self.heavy(n)
        region = make_region(n, 2, 2)
        res = execute_sharded(
            [Runtime(NVIDIA_K40M), Runtime(NVIDIA_K40M)],
            region, arrays, ScaleKernel(), weights=[1, 1],
        )
        full = arrays["IN"].nbytes + arrays["OUT"].nbytes
        for r in res.per_device:
            assert r.data_peak < full / 4

    def test_no_devices_rejected(self):
        with pytest.raises(DirectiveError):
            execute_sharded(
                [], make_region(16), make_arrays(16), ScaleKernel()
            )

    def test_summary_text(self):
        n = 32
        res = execute_sharded(
            [Runtime(NVIDIA_K40M), Runtime(NVIDIA_K40M)],
            make_region(n), make_arrays(n), ScaleKernel(), weights=[1, 1],
        )
        text = res.summary()
        assert "device 0" in text and "device 1" in text
        assert "wall (max)" in text and "imbalance" in text
