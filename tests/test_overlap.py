import time

import numpy as np
import pytest

from halolab import lattice
from halolab.halo import HaloBuffers, exchange
from halolab.overlap import (
    OverlapWorkload,
    _aligned_empty,
    step_with_overlap,
    synthetic_workload,
)
from halolab.runner import run_ranks
from halolab.topology import CartesianTopology
from helpers import halo_shell


def field_and_buffers(ctx, topo, dims, m, seed):
    f = lattice.DistributionField(dims, m)
    rng = np.random.default_rng([seed, ctx.rank])
    f.interior()[...] = rng.uniform(0.1, 1.0, size=f.interior().shape)
    return f, HaloBuffers(topo, ctx.rank, dims, m, ctx.endpoint)


class TestSyntheticWorkload:
    def test_intensity_zero_is_plain_traversal(self):
        f = lattice.DistributionField((3, 3, 3), 19)
        f.interior()[..., 0] = 2.0
        assert synthetic_workload(f, 0) == pytest.approx(2.0 * 27)

    def test_deterministic(self):
        rng = np.random.default_rng(8)
        f = lattice.DistributionField((4, 4, 4), 19)
        f.interior()[...] = rng.uniform(size=f.interior().shape)
        assert synthetic_workload(f, 50) == synthetic_workload(f, 50)

    def test_does_not_modify_field(self):
        rng = np.random.default_rng(9)
        f = lattice.DistributionField((3, 3, 3), 5)
        f.data[...] = rng.uniform(size=f.data.shape)
        before = f.data.copy()
        synthetic_workload(f, 20)
        assert np.array_equal(f.data, before)

    def test_rejects_negative_intensity(self):
        f = lattice.DistributionField((2, 2, 2), 1)
        with pytest.raises(ValueError):
            synthetic_workload(f, -1)
        with pytest.raises(ValueError):
            OverlapWorkload(-2)

    def test_wall_time_roughly_linear_in_intensity(self):
        f = lattice.DistributionField((24, 24, 24), 1)

        def measure(intensity):
            best = float("inf")
            for _ in range(3):
                t0 = time.perf_counter()
                synthetic_workload(f, intensity)
                best = min(best, time.perf_counter() - t0)
            return best

        measure(50)  # warm caches
        t1 = measure(400)
        t2 = measure(800)
        assert t2 / t1 <= 2.0 * 1.5
        assert t2 / t1 >= 2.0 / 1.5


class TestStepWithOverlap:
    def test_halo_identical_to_plain_nonblocking(self):
        topo = CartesianTopology((2, 1, 1))
        dims, m = (3, 3, 3), 19

        def plain(ctx):
            f, buffers = field_and_buffers(ctx, topo, dims, m, 44)
            exchange(f, topo, buffers, "nonblocking")
            return halo_shell(f)

        def overlapped(ctx):
            f, buffers = field_and_buffers(ctx, topo, dims, m, 44)
            step_with_overlap(f, topo, buffers, OverlapWorkload(30))
            return halo_shell(f)

        for a, b in zip(
            run_ranks(2, plain, watchdog_seconds=5.0),
            run_ranks(2, overlapped, watchdog_seconds=5.0),
        ):
            assert np.array_equal(a, b)

    def test_checksum_matches_standalone_workload(self):
        topo = CartesianTopology((1, 1, 1))
        dims, m = (4, 4, 4), 7

        def body(ctx):
            f, buffers = field_and_buffers(ctx, topo, dims, m, 45)
            reference = synthetic_workload(f, 12)
            got = step_with_overlap(f, topo, buffers, OverlapWorkload(12))
            return reference, got

        reference, got = run_ranks(1, body, watchdog_seconds=5.0)[0]
        assert got == reference


@pytest.mark.parametrize("shape", [(1, 1, 1), (3, 4, 5), (16, 16, 16)])
def test_work_array_is_cache_line_aligned(shape):
    for _ in range(8):
        a = _aligned_empty(shape)
        assert a.shape == shape and a.flags.c_contiguous
        assert a.ctypes.data % 64 == 0
