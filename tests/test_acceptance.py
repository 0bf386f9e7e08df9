"""Acceptance suite: one test per criterion, one PASS line printed each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria complete.
"""

import time

import numpy as np
import pytest

from halolab import lattice
from halolab.config import RunConfig
from halolab.halo import HaloBuffers, exchange
from halolab.metrics import (
    comm_work_ratio,
    halo_sites,
    stddev,
)
from halolab.overlap import OverlapWorkload, step_with_overlap, synthetic_workload
from halolab.runner import (
    bandwidth_sweep,
    detect_plateau,
    plateau_level,
    run_ranks,
    run_regression,
    run_test_halo,
)
from halolab.topology import CartesianTopology
from halolab.transport import TransportModel
from helpers import describe_sweep, halo_shell, total_mass, total_momentum


def _pass(n, message):
    print(f"PASS criterion {n}: {message}")


def _ms(samples):
    """Timing samples in ms, for failure messages that show every sample."""
    return "[" + ", ".join(f"{t * 1e3:.3f}" for t in samples) + "] ms"


def _shells_for(proc_dims, dims, m, seed, watchdog=15.0):
    topo = CartesianTopology(proc_dims)

    def make_body(strategy):
        def body(ctx):
            f = lattice.DistributionField(dims, m)
            rng = np.random.default_rng([seed, ctx.rank])
            f.interior()[...] = rng.uniform(-1.0, 1.0, size=f.interior().shape)
            buffers = HaloBuffers(topo, ctx.rank, dims, m, ctx.endpoint)
            exchange(f, topo, buffers, strategy)
            return halo_shell(f)
        return body

    blocking = run_ranks(topo.nranks, make_body("blocking"), watchdog_seconds=watchdog)
    nonblocking = run_ranks(topo.nranks, make_body("nonblocking"), watchdog_seconds=watchdog)
    return blocking, nonblocking


def test_criterion_1_strategy_equivalence():
    """Blocking and non-blocking halo shells bit-identical over the matrix."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(20160819)
    matrix = [((1, 1, 1), 70), ((2, 1, 1), 60), ((2, 2, 2), 45), ((4, 3, 2), 30)]
    cases = 0
    for proc_dims, count in matrix:
        for k in range(count):
            if k % 3 == 0:
                L = int(rng.integers(2, 7))
                dims = (L, L, L)
            else:
                dims = tuple(int(v) for v in rng.integers(2, 7, size=3))
            m = int(rng.choice([1, 2, 19, 27]))
            seed = int(rng.integers(0, 2**31))
            blocking, nonblocking = _shells_for(proc_dims, dims, m, seed)
            for rank, (a, b) in enumerate(zip(blocking, nonblocking)):
                assert np.array_equal(a, b), (
                    f"halo mismatch: procs={proc_dims} dims={dims} m={m} rank={rank}"
                )
            cases += 1
    elapsed = time.perf_counter() - t0
    assert cases >= 200
    assert elapsed < 120.0
    _pass(1, f"{cases} randomized cases bit-identical across strategies "
             f"in {elapsed:.1f}s (tolerance 0)")


def test_criterion_2_test_halo_suite():
    t0 = time.perf_counter()
    checked = 0
    for proc_dims in ((1, 1, 1), (2, 2, 2), (2, 2, 1), (4, 3, 2)):
        for periodic in (True, False):
            cfg = RunConfig(
                proc_dims=proc_dims, local_dims=(3, 2, 4), m=19,
                periodic=periodic, watchdog_seconds=15.0,
            )
            report = run_test_halo(cfg)  # runs both strategies
            assert report.passed, report.describe()
            checked += report.checked_sites
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _pass(2, f"seeded-field exchange exact on all topologies, both "
             f"strategies, periodic and open ({checked} halo sites, {elapsed:.1f}s)")


def test_criterion_3_regression():
    cfg = RunConfig(
        proc_dims=(2, 2, 2), local_dims=(8, 8, 8), m=19, physics="full",
        watchdog_seconds=20.0,
    )
    report = run_regression(cfg, steps=10)
    assert report.passed, report.describe()
    assert report.max_delta == 0.0
    _pass(3, f"10-step full-physics runs agree: max |delta| = "
             f"{report.max_delta} (tolerance 1e-12)")


def test_criterion_4_formula_oracles():
    # halo shell count: closed form vs direct difference, L = 1..64
    for L in range(1, 65):
        direct = (L + 2) ** 3 - L**3
        assert halo_sites((L, L, L)) == direct
        assert direct == 6 * L * L + 12 * L + 8
    # spot-check the closed form against literal set construction
    for L in (1, 2, 5, 9):
        box = {(x, y, z) for x in range(L + 2) for y in range(L + 2) for z in range(L + 2)}
        interior = {
            (x, y, z)
            for x in range(1, L + 1)
            for y in range(1, L + 1)
            for z in range(1, L + 1)
        }
        assert halo_sites((L, L, L)) == len(box - interior)
    # non-cubic x : 1.5x : 2x family
    for x in range(2, 58, 2):
        got = comm_work_ratio((x, 3 * x // 2, 2 * x))
        expected = (14.5 * x * x + 18.0 * x + 8.0) / (3.0 * x**3)
        assert abs(got - expected) <= 1e-12 * expected
    # frozen non-cubic sweep table: sizes and the 2:3:4 dimension ratio
    sizes = {
        (16, 24, 32): 12_288,
        (24, 36, 48): 41_472,
        (28, 42, 56): 65_856,
        (32, 48, 64): 98_304,
        (40, 60, 80): 192_000,
        (44, 66, 88): 255_552,
        (48, 72, 96): 331_776,
        (52, 78, 104): 421_824,
        (56, 84, 112): 526_848,
    }
    for dims, expected in sizes.items():
        assert dims[0] * dims[1] * dims[2] == expected
        assert dims[1] * 2 == dims[0] * 3 and dims[2] == 2 * dims[0]
    _pass(4, "halo-site formula (L=1..64), x:1.5x:2x ratio within 1e-12, "
             "non-cubic sweep sizes exact")


def _timed_exchange(strategy, latency_s, iters=12):
    """Best-case per-exchange wall time under the injected model; the
    minimum estimates the deterministic cost without scheduler noise."""
    topo = CartesianTopology((1, 1, 1))
    model = TransportModel(latency_s, 1e6)
    dims, m = (6, 6, 6), 19

    def body(ctx):
        f = lattice.DistributionField(dims, m)
        rng = np.random.default_rng(17)
        f.interior()[...] = rng.uniform(size=f.interior().shape)
        buffers = HaloBuffers(topo, 0, dims, m, ctx.endpoint)
        for _ in range(2):
            exchange(f, topo, buffers, strategy)
        best = float("inf")
        for _ in range(iters):
            t0 = time.perf_counter()
            exchange(f, topo, buffers, strategy)
            best = min(best, time.perf_counter() - t0)
        return best

    return run_ranks(1, body, watchdog_seconds=30.0, model=model)[0]


def test_criterion_5_cost_model_latency_gap():
    t0 = time.perf_counter()
    for latency in (1e-4, 1e-3):
        # finely interleave the two strategies so a host-side stall window
        # cannot inflate only one side of the difference
        blocking, nonblocking = [], []
        for _ in range(4):
            blocking.append(_timed_exchange("blocking", latency, iters=6))
            nonblocking.append(_timed_exchange("nonblocking", latency, iters=6))
        gap = min(nonblocking) - min(blocking)
        target = 20.0 * latency
        assert abs(gap - target) <= 0.15 * target, (
            f"l={latency}: gap {gap * 1e3:.3f} ms vs 20*l = {target * 1e3:.3f} ms; "
            f"blocking minima {_ms(blocking)}, nonblocking minima {_ms(nonblocking)}"
        )
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _pass(5, f"26-message minus 6-message exchange time matches 20*l within "
             f"15% for l in {{0.1 ms, 1 ms}} ({elapsed:.1f}s)")


def test_criterion_6_conservation():
    vs = lattice.D3Q19
    topo = CartesianTopology((2, 2, 2))
    dims = (4, 4, 4)
    steps = 100

    def body(ctx):
        rng = np.random.default_rng([61, ctx.rank])
        f = lattice.random_state(dims, vs, rng, du=0.01)
        alt = lattice.DistributionField(dims, vs.m)
        buffers = HaloBuffers(topo, ctx.rank, dims, vs.m, ctx.endpoint)
        mass0 = total_mass(f)
        mom0 = total_momentum(f, vs)
        for _ in range(steps):
            exchange(f, topo, buffers, "nonblocking")
            alt = lattice.stream(f, vs, out=alt)
            f, alt = alt, f
            lattice.collide(f, 1.0, vs)
        return mass0, mom0, total_mass(f), total_momentum(f, vs)

    outs = run_ranks(topo.nranks, body, watchdog_seconds=30.0)
    mass0 = sum(o[0] for o in outs)
    mom0 = sum(o[1] for o in outs)
    mass1 = sum(o[2] for o in outs)
    mom1 = sum(o[3] for o in outs)
    mass_drift = abs(mass1 - mass0) / abs(mass0)
    mom_drift = float(np.max(np.abs(mom1 - mom0)))
    assert mass_drift <= 1e-12
    assert mom_drift <= 1e-12
    _pass(6, f"100-step 8-rank run: density drift {mass_drift:.2e} (rel), "
             f"momentum drift {mom_drift:.2e} (abs)")


def test_criterion_7_overlap_efficacy():
    # everything is timed on the one rank thread so thread-to-thread CPU
    # asymmetry cannot bias the comparison, and the three quantities are
    # sampled round-robin so a scheduler stall cannot inflate just one of
    # them; per-quantity minima then estimate the deterministic costs
    topo = CartesianTopology((1, 1, 1))
    dims, m = (16, 16, 16), 19
    model = TransportModel(2.5e-3, 1e6)

    def body(ctx):
        f = lattice.DistributionField(dims, m)
        rng = np.random.default_rng(5)
        f.interior()[...] = rng.uniform(size=f.interior().shape)
        buffers = HaloBuffers(topo, 0, dims, m, ctx.endpoint)

        def once(fn):
            # hold the core busy first so frequency scaling cannot make a
            # sample's speed depend on what happened to run before it
            t_spin = time.perf_counter()
            while time.perf_counter() - t_spin < 0.02:
                pass
            t0 = time.perf_counter()
            fn()
            return time.perf_counter() - t0

        def timed(fn, tries):
            return min(once(fn) for _ in range(tries))

        exchange(f, topo, buffers, "nonblocking")  # warm
        comm = timed(lambda: exchange(f, topo, buffers, "nonblocking"), 3)
        per_pass = timed(lambda: synthetic_workload(f, 500), 2) / 500
        results = []
        for fraction in (0.5, 1.0, 2.0):
            intensity = max(1, int(fraction * comm / per_pass))

            def workload_step():
                synthetic_workload(f, intensity)

            def serial_step():
                exchange(f, topo, buffers, "nonblocking")
                synthetic_workload(f, intensity)

            def overlapped_step():
                step_with_overlap(f, topo, buffers, OverlapWorkload(intensity))

            # five interleaved rounds: a host-side stall window has to cover
            # every sample of a quantity to bias its minimum
            works, serials, overlaps = [], [], []
            for _ in range(5):
                works.append(once(workload_step))
                serials.append(once(serial_step))
                overlaps.append(once(overlapped_step))
            results.append((comm, works, serials, overlaps))
        return results

    for comm, works, serials, overlaps in run_ranks(
        1, body, watchdog_seconds=60.0, model=model
    )[0]:
        work, serial, overlapped = min(works), min(serials), min(overlaps)
        samples = f"; W {_ms(works)}, serial {_ms(serials)}, overlapped {_ms(overlaps)}"
        assert overlapped <= 1.2 * max(comm, work), (
            f"W={work * 1e3:.1f}ms C={comm * 1e3:.1f}ms: overlapped "
            f"{overlapped * 1e3:.1f}ms > 1.2*max(C,W)" + samples
        )
        assert serial >= 0.95 * (comm + work), (
            f"W={work * 1e3:.1f}ms C={comm * 1e3:.1f}ms: serial "
            f"{serial * 1e3:.1f}ms below 0.95*(C+W)" + samples
        )
        assert overlapped < serial, (
            f"W={work * 1e3:.1f}ms: overlap did not beat the serial step" + samples
        )
    _pass(7, f"overlap step <= 1.2*max(C,W), serial >= 0.95*(C+W) and "
             f"overlapped < serial for W in [0.5C, 2C] (C = {comm * 1e3:.1f} ms)")


def test_criterion_8_statistics_pipeline():
    assert abs(stddev([2, 4, 4, 4, 5, 5, 7, 9]) - 2.0) <= 1e-15
    assert abs(stddev([1.0, 3.0]) - 1.0) <= 1e-15
    assert stddev([5.0] * 5) == 0.0
    # the summary pipeline must apply derived-then-sigma, which an
    # asymmetric fixture distinguishes from sigma-then-derived
    from halolab.metrics import effective_bandwidth
    from halolab.reporting import result_rows, summarize
    from halolab.metrics import BenchRecord

    times = [1.0, 2.0, 4.0]
    record = BenchRecord(
        strategy="blocking", proc_dims=(1, 1, 1), local_dims=(4, 4, 4), m=19,
        iterations=10, halo_times_s=times, step_times_s=times,
        bytes_sent=[0, 0, 0], messages_sent=[0, 0, 0],
    )
    summary = summarize(result_rows(record))[0]
    per_rep = [effective_bandwidth((4, 4, 4), 19, t / 10) for t in times]
    derived_then_sigma = stddev(per_rep)
    sigma_then_derived = effective_bandwidth((4, 4, 4), 19, stddev(times) / 10)
    assert summary["B_eff_sigma_MBps"] == derived_then_sigma
    assert abs(derived_then_sigma - sigma_then_derived) > 1e-6
    _pass(8, "population sigma exact on fixtures; pipeline computes "
             "derived-then-sigma")


def test_criterion_9_pingpong_plateau_on_host():
    samples = bandwidth_sweep()  # 1 KiB .. 8 MiB
    assert all(np.isfinite(s.bandwidth_MBps) and s.bandwidth_MBps > 0 for s in samples)
    plateau = detect_plateau(samples)
    level = plateau_level(samples)
    shown = describe_sweep(samples, level, plateau)
    # monotone rise into the plateau band, then never below half the
    # sustained level (the self-referential saturation point)
    smallest = min(samples, key=lambda s: s.message_bytes)
    assert smallest.bandwidth_MBps < level, f"smallest size reaches the level\n{shown}"
    for s in samples:
        if s.message_bytes >= plateau.message_bytes:
            assert s.bandwidth_MBps >= 0.5 * level, (
                f"{s.message_bytes} B below half the level\n{shown}")
    _pass(9, f"host bandwidth curve is monotone-then-plateau; saturation at "
             f"{plateau.message_bytes} B, sustained level {level:.0f} MB/s "
             f"(self-referential, no fixed hardware target)")
