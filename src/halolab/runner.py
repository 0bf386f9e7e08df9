"""Rank orchestration: run rank 0 on the calling thread and one thread per
further subdomain, and run the harnesses (benchmark, test-halo, regression,
ping-pong).  The first three run one rank loop, ``_bench_body``, from one
field maker, ``_rank_fields``, so test-halo checks the exchange of the
seeded fields that the benchmark times.

Ranks are threads on one machine, so configurations beyond the CPUs the
process may use run fine for correctness work but their timings are flagged
as oversubscribed in the metadata.  With physics, a rank holds one
distribution field, which it streams in place and then collides.  Both
kernels are split across the rank's kernel workers: the rank thread and,
where the run leaves CPUs spare and the subdomain is large enough, helper
threads of its own (``kernel_slabs``), as Ludwig threads its kernels
inside each MPI rank.  The workers stream disjoint component sets and
collide x-slabs.
"""

from __future__ import annotations

import contextlib
import os
import threading
from concurrent import futures
from dataclasses import dataclass, replace
from time import perf_counter

import numpy as np

from . import lattice
from .errors import ConfigurationError, TransportAborted, TransportDeadlock
from .halo import STRATEGIES, HaloBuffers
from .metrics import BenchRecord, halo_sites
from .overlap import synthetic_workload
from .topology import CartesianTopology
from .transport import Fabric


@dataclass
class RankContext:
    """What a rank body gets handed: its endpoint plus a shared barrier."""

    rank: int
    endpoint: object
    barrier: threading.Barrier


def usable_cpus():
    """The CPUs this process may run on: the host's ``nproc`` and the bound
    above which a run's rank threads are oversubscribed."""
    return len(os.sched_getaffinity(0))


def run_ranks(nranks, body, watchdog_seconds=30.0, model=None):
    """Run ``body(ctx)`` once per rank; return the per-rank results.

    Rank 0 runs on the calling thread, as the launched process is rank 0
    of an MPI job; ranks 1..n-1 each get a thread, so a one-rank run starts
    none.  The first rank failure aborts the fabric and the barrier so
    peers fail fast instead of hitting the watchdog; that first error is
    re-raised.  The barrier shares the fabric's watchdog: a rank that waits
    there longer fails with ``TransportDeadlock``.  Once rank 0 has
    returned, the other ranks get two more watchdog periods to end, or one
    if a rank has failed: a rank blocked in the fabric or at a barrier
    fails by itself within one.  Ranks still running then are left behind
    (the threads are daemons) and named in the ``TransportDeadlock`` raised
    instead.  Rank 0 itself, like the only rank of a one-rank run, is
    bounded only at its blocking points, so it cannot be left behind;
    between them a run may compute as long as it needs.
    """
    fabric = Fabric(nranks, watchdog_seconds=watchdog_seconds, model=model)
    barrier = threading.Barrier(nranks, timeout=watchdog_seconds)
    results = [None] * nranks
    errors = []
    ended = set()
    changed = threading.Condition()

    def run_one(rank):
        ctx = RankContext(rank, fabric.endpoint(rank), barrier)
        try:
            results[rank] = body(ctx)
        except BaseException as exc:  # noqa: BLE001 - collected and re-raised
            with changed:
                # the barrier is aborted only after an error is recorded,
                # so a broken barrier with no error recorded timed out
                if isinstance(exc, threading.BrokenBarrierError) and not errors:
                    exc = TransportDeadlock(
                        f"rank {rank} waited {watchdog_seconds:.1f}s at a barrier "
                        "that not every rank reached"
                    )
                errors.append((rank, exc))
            barrier.abort()
            fabric.abort(f"rank {rank} failed: {exc!r}")
        finally:
            with changed:
                ended.add(rank)
                changed.notify()

    threads = {
        r: threading.Thread(target=run_one, args=(r,), name=f"rank-{r}", daemon=True)
        for r in range(1, nranks)
    }
    for t in threads.values():
        t.start()
    run_one(0)
    with changed:
        if not errors:
            changed.wait_for(lambda: errors or len(ended) == nranks, 2 * watchdog_seconds)
        if errors:
            changed.wait_for(lambda: len(ended) == nranks, watchdog_seconds)
        stuck = sorted(set(range(nranks)) - ended)
        failures = list(errors)  # a rank left behind may still append
    for rank in sorted(ended - {0}):
        threads[rank].join()
    if failures:
        # prefer the root cause over secondary barrier/abort fallout
        def precedence(item):
            _, exc = item
            secondary = isinstance(exc, (threading.BrokenBarrierError, TransportAborted))
            return (secondary, item[0])

        rank, exc = min(failures, key=precedence)
        if stuck:
            raise TransportDeadlock(
                f"rank(s) {stuck} still running {watchdog_seconds:.1f}s after "
                f"rank {rank} failed: {exc!r}"
            ) from exc
        raise exc
    if stuck:
        raise TransportDeadlock(
            f"rank(s) {stuck} still running {2 * watchdog_seconds:.1f}s after a peer ended")
    fabric.assert_drained()
    return results


def _rank_fields(cfg, local_dims, rank, vs):
    """A rank's seeded field: near equilibrium with physics, uniform without."""
    rng = np.random.default_rng([cfg.seed, rank])
    if vs is not None:
        return lattice.random_state(local_dims, vs, rng)
    field = lattice.DistributionField(local_dims, cfg.m)
    field.interior()[...] = rng.uniform(0.5, 1.5, size=field.interior().shape)
    return field


# The fewest interior sites per kernel worker.  Numpy releases the GIL
# only inside each call, so every call of a helper's share hands the GIL
# over; below this size the hand-offs cost more than the second CPU gives.
# Step time of one-rank D3Q19 ``run_benchmark`` runs with physics (stream
# in place by component set, collide by x-slab), two workers against one,
# medians of six alternating runs per series on 2 vCPUs (Python 3.11,
# numpy 2.4): L=24 (6,912 sites per worker) +42 % and +43 %, L=26 (8,788)
# +27 % twice, L=27 (9,841) +8 % to +30 % over three series, L=28
# (10,976) +1 % to +12 % in all seven, L=29 (12,194) -2 % to +13 % over
# three, L=30 (13,500) -11 % to +7 % and faster in three of four, L=31
# (14,895) -8 % to -11 % in all three, L=32 (16,384) -8 % to -17 % in all
# three.
KERNEL_MIN_SITES = 13_000


def kernel_slabs(local_dims, nranks):
    """The x-slabs, as boxes, that a rank's kernel workers collide, one per
    worker: ``w = min(usable_cpus() // nranks, Lx, sites //
    KERNEL_MIN_SITES)`` workers, at least one, with slab widths differing
    by at most one plane.  The slabs give the whole-field values bit for
    bit (``lattice.collide``)."""
    lx, ly, lz = local_dims
    w = max(1, min(usable_cpus() // nranks, lx, lx * ly * lz // KERNEL_MIN_SITES))
    _, by, bz = lattice.interior_box(local_dims)
    cuts = [1 + k * lx // w for k in range(w + 1)]
    return [(slice(a, b), by, bz) for a, b in zip(cuts, cuts[1:])]


def _fork_join(helpers, phase, kernel, jobs, timeout):
    """Run ``kernel(*jobs[0])`` on the calling thread and the other jobs on
    the ``helpers`` executor, then join them.  A helper's exception is
    re-raised as itself; a helper not done ``timeout`` seconds after the
    calling thread's job is a ``TransportDeadlock`` naming it and ``phase``."""
    forks = [helpers.submit(kernel, *job) for job in jobs[1:]]
    kernel(*jobs[0])
    _, late = futures.wait(forks, timeout)
    if late:
        worker = next(k for k, fork in enumerate(forks, 1) if fork in late)
        raise TransportDeadlock(f"kernel worker {worker} did not finish its {phase} "
                                f"{timeout:.1f}s after worker 0")
    for fork in forks:
        fork.result()


def _lb_step(field, vs, tau, slabs, helpers, timeout):
    """Stream ``field`` in place, then collide it, with one kernel worker
    per slab of ``slabs``: the calling thread and the ``helpers`` executor.
    Of w workers, worker k streams components 1 + k, 1 + k + w, ... of the
    whole interior (component 0, the rest velocity, stays where it is):
    streamed in place, an x-slab's edge plane would read the neighbour
    slab's first plane while that slab overwrites it.  Worker k then
    collides ``slabs[k]``, which reads every component of its sites, so the
    workers join after each phase."""
    w = len(slabs)
    _fork_join(helpers, "stream", lattice.stream,
               [(field, vs, field, None, range(1 + k, vs.m, w)) for k in range(w)], timeout)
    _fork_join(helpers, "collide", lattice.collide,
               [(field, tau, vs, box) for box in slabs], timeout)


def _bench_body(cfg, topo, vs, fields):
    """The rank loop of every harness.  Rank r steps ``fields[r]`` in place,
    so the list holds the final fields once every rank has returned, and
    returns (halo seconds, step seconds, sends, bytes sent) of its timed
    steps: the halo seconds sum the start-to-end windows, the step seconds
    span the whole loop, and the sends and bytes are its endpoint's counts."""
    start, end = STRATEGIES[cfg.strategy]
    # work runs only at a nonzero intensity; overlap_enabled decides whether
    # it runs inside the start/end window or serially after the exchange
    intensity = cfg.overlap_intensity
    overlapped = intensity > 0 and cfg.overlap_enabled
    serial = intensity > 0 and not cfg.overlap_enabled

    def body(ctx):
        field = fields[ctx.rank]
        ep = ctx.endpoint
        buffers = HaloBuffers(topo, ctx.rank, field.local_dims, cfg.m, ep)
        slabs = kernel_slabs(field.local_dims, topo.nranks) if vs is not None else []
        # the helpers live for the run and are joined as it ends, failed or not
        team = (futures.ThreadPoolExecutor(len(slabs) - 1,
                                           thread_name_prefix=f"rank-{ctx.rank}-kernel")
                if len(slabs) > 1 else contextlib.nullcontext())
        with team as helpers:
            halo_s, t0 = 0.0, perf_counter()
            for i in range(cfg.warmup + cfg.iterations):
                if i == cfg.warmup:
                    ep.sends = ep.bytes_sent = 0
                    ctx.barrier.wait()
                    halo_s, t0 = 0.0, perf_counter()
                h0 = perf_counter()
                token = start(field, topo, buffers)
                if overlapped:
                    synthetic_workload(field, intensity)
                end(token, field, buffers)
                halo_s += perf_counter() - h0
                if serial:
                    synthetic_workload(field, intensity)
                if vs is not None:
                    _lb_step(field, vs, cfg.tau, slabs, helpers, cfg.watchdog_seconds)
            ctx.barrier.wait()
            return halo_s, perf_counter() - t0, ep.sends, ep.bytes_sent

    return body


def _launch(cfg):
    """Run ``_bench_body`` once on every rank, rank r starting from its
    seeded ``_rank_fields``; returns (topology, results, final fields)."""
    proc, local, _ = cfg.resolve_dims()
    topo = CartesianTopology(proc, periodic=cfg.periodic)
    vs = lattice.velocity_set_for(cfg.m) if cfg.physics == "full" else None
    # One field per rank, made here, not on the rank threads, which live
    # for one run: glibc's arena of a finished rank thread kept the freed
    # fields resident, and a run whose rank thread was given another arena
    # made a second set on top (when each rank also held a spare field, the
    # peak RSS of a process repeating one-rank L=32 runs read ~57 MB or, in
    # some processes, ~74 MB).  Made by this thread, they are freed into one
    # arena.  Rank 0 runs on this thread too, so its kernel scratch also
    # comes from this arena; a kernel helper's scratch (the component copies
    # of its in-place stream, the collide scratch of its slab) comes from the
    # helper's own arena.
    fields = [_rank_fields(cfg, local, rank, vs) for rank in range(topo.nranks)]
    outs = run_ranks(topo.nranks, _bench_body(cfg, topo, vs, fields),
                     watchdog_seconds=cfg.watchdog_seconds, model=cfg.transport_model())
    return topo, outs, fields


def run_benchmark(cfg):
    """Execute the configured benchmark; returns (BenchRecord, metadata dict).

    Per repetition all ranks start afresh, warm up untimed, then run the
    timed loop between barriers so the row reflects the slowest rank.
    """
    cfg.validate()
    proc, local, _ = cfg.resolve_dims()
    halo_times, step_times, bytes_sent, messages = [], [], [], []
    for _ in range(cfg.repetitions):
        # the fields go here, before the next repetition makes its own
        topo, outs = _launch(cfg)[:2]
        t_halo, t_step, sends, nbytes = zip(*outs)
        halo_times.append(max(t_halo))
        step_times.append(max(t_step))
        bytes_sent.append(sum(nbytes))
        messages.append(sum(sends))
    record = BenchRecord(
        strategy=cfg.strategy,
        proc_dims=proc,
        local_dims=local,
        m=cfg.m,
        iterations=cfg.iterations,
        halo_times_s=halo_times,
        step_times_s=step_times,
        bytes_sent=bytes_sent,
        messages_sent=messages,
    )
    meta = cfg.meta()
    meta["oversubscribed"] = topo.nranks > usable_cpus()
    meta["kernel_threads"] = len(kernel_slabs(local, topo.nranks)) if cfg.physics == "full" else 0
    return record, meta


# -- test_halo ------------------------------------------------------------


@dataclass
class HaloMismatch:
    strategy: str
    rank: int
    site: tuple
    component: int
    expected: float
    got: float


@dataclass
class HaloTestReport:
    checked_sites: int
    failures: list

    @property
    def passed(self):
        return not self.failures

    @property
    def first_failure(self):
        return self.failures[0] if self.failures else None

    def describe(self):
        if self.passed:
            return f"test-halo passed ({self.checked_sites} halo sites checked)"
        f = self.first_failure
        return (
            f"test-halo FAILED at strategy={f.strategy} rank={f.rank} "
            f"site={f.site} component={f.component}: "
            f"expected {f.expected!r}, got {f.got!r} "
            f"({len(self.failures)} mismatching values in total)"
        )


def halo_oracle(cfg):
    """Each rank's data after one correct exchange of its seeded
    ``physics=none`` field, built without the exchange: the seeded interiors
    are assembled into the global lattice, which is padded by one site per
    axis (wrapped on a periodic axis, zeros on an open one) and cut into
    the ranks' boxes, halo included."""
    proc, local, global_ = cfg.resolve_dims()
    topo = CartesianTopology(proc, periodic=cfg.periodic)
    # each rank's first interior site on the global lattice, which is also
    # its first halo site on the padded one
    origins = [[c * n for c, n in zip(topo.cart_coords(r), local)] for r in range(topo.nranks)]
    whole = np.empty((*global_, cfg.m))
    for rank, origin in enumerate(origins):
        box = tuple(slice(o, o + n) for o, n in zip(origin, local))
        whole[box] = _rank_fields(cfg, local, rank, None).interior()
    for axis, periodic in enumerate(topo.periodic):
        width = [(0, 0)] * 4
        width[axis] = (1, 1)
        whole = np.pad(whole, width, mode="wrap" if periodic else "constant")
    return [whole[tuple(slice(o, o + n + 2) for o, n in zip(origin, local))]
            for origin in origins]


def find_mismatches(data, expected, rank, strategy):
    """One ``HaloMismatch`` per site, halo or interior, where ``data``
    differs from ``expected``, in ascending (x, y, z) order, naming the
    site's first wrong component."""
    wrong = data != expected
    failures = []
    for x, y, z in np.argwhere(wrong.any(axis=-1)).tolist():
        i = int(np.argmax(wrong[x, y, z]))
        failures.append(HaloMismatch(
            strategy, rank, (x, y, z), i,
            float(expected[x, y, z, i]), float(data[x, y, z, i]),
        ))
    return failures


def run_test_halo(cfg):
    """Unit test of the exchange itself: after one step of the benchmark
    loop per strategy, with no physics, work or cost model, every value of
    every rank's seeded field, halo and interior alike, must equal
    ``halo_oracle``'s.  The report counts the halo sites checked."""
    cfg.validate()
    cfg = replace(cfg, physics="none", iterations=1, warmup=0, overlap_intensity=0,
                  model_latency_us=None, model_bandwidth_MBps=None)
    expected = halo_oracle(cfg)
    checked = 0
    failures = []
    for strategy in STRATEGIES:
        for rank, field in enumerate(_launch(replace(cfg, strategy=strategy))[2]):
            checked += halo_sites(field.local_dims)
            failures.extend(find_mismatches(field.data, expected[rank], rank, strategy))
    return HaloTestReport(checked, failures)


# -- regression ------------------------------------------------------------


@dataclass
class RegressionReport:
    steps: int
    max_delta: float
    location: tuple  # (rank, site, component) or None
    tolerance: float = 1e-12

    @property
    def passed(self):
        return self.max_delta <= self.tolerance

    def describe(self):
        verdict = "passed" if self.passed else "FAILED"
        where = "" if self.location is None else f" at rank={self.location[0]} site={self.location[1]} i={self.location[2]}"
        return (
            f"regression {verdict}: {self.steps} steps, "
            f"max |delta| = {self.max_delta:.3e}{where} (tolerance {self.tolerance:.0e})"
        )


def run_physics(cfg, strategy, steps):
    """Seeded full-physics run of the benchmark loop (exchange, stream,
    collide) for ``steps`` steps; per-rank final data."""
    run = replace(cfg, strategy=strategy, physics="full", iterations=steps, warmup=0,
                  overlap_intensity=0)
    return [field.data for field in _launch(run)[2]]


def run_regression(cfg, steps):
    """Run both strategies from one seeded state; fields must agree to 1e-12."""
    if steps < 0:
        raise ConfigurationError(f"steps cannot be negative, got {steps}")
    cfg = replace(cfg, physics="full").validate()
    blocking = run_physics(cfg, "blocking", steps)
    nonblocking = run_physics(cfg, "nonblocking", steps)
    max_delta = 0.0
    location = None
    for rank, (a, b) in enumerate(zip(blocking, nonblocking)):
        delta = np.abs(a[1:-1, 1:-1, 1:-1, :] - b[1:-1, 1:-1, 1:-1, :])
        worst = float(delta.max()) if delta.size else 0.0
        if worst > max_delta:
            max_delta = worst
            x, y, z, i = np.unravel_index(int(delta.argmax()), delta.shape)
            location = (rank, (int(x) + 1, int(y) + 1, int(z) + 1), int(i))
    return RegressionReport(steps=steps, max_delta=max_delta, location=location)


# -- ping-pong -------------------------------------------------------------

# each size of a sweep is measured this often and the fastest run kept,
# which damps scheduler hiccups on a busy host
_SWEEP_TRIES = 2
# the plateau starts at the first size reaching this share of its level
_PLATEAU_FRACTION = 0.7


@dataclass(frozen=True)
class PingPongSample:
    """One ping-pong measurement; bandwidth counts bytes moved both ways."""

    message_bytes: int
    round_trips: int
    elapsed_s: float
    bandwidth_MBps: float


def ping_pong(message_bytes, round_trips, watchdog_seconds=30.0):
    """Time a two-rank back-and-forth exchange of fixed-size payloads.

    bandwidth = 2 * message_bytes * round_trips / elapsed / 1e6 (MBytes/s).
    """
    message_bytes = int(message_bytes)
    round_trips = int(round_trips)
    if message_bytes < 8:
        raise ValueError("message size must be at least 8 bytes")
    if round_trips < 1:
        raise ValueError("need at least one round trip")
    payload = b"\xa5" * message_bytes

    # every trip uses tag 0; FIFO matching per (source, tag) keeps the
    # trips in order.  Each rank receives every trip into its one buffer, so
    # a delivery allocates nothing; a trip's receive is posted only after
    # the previous trip's echo has left the buffer.  The first trip is an
    # untimed warm-up so the timed loop does not absorb thread start-up and
    # first-touch costs
    def body(ctx):
        ep = ctx.endpoint
        inbox = memoryview(bytearray(message_bytes))
        if ctx.rank == 1:
            for _ in range(round_trips + 1):
                rh = ep.post_recv(0, 0, inbox)
                ep.wait_all((rh,))
                ep.wait_all((ep.post_send(0, 0, rh.payload),))
            return None
        rh = ep.post_recv(1, 0, inbox)
        ep.wait_all((rh, ep.post_send(1, 0, payload)))
        t0 = perf_counter()
        for _ in range(round_trips):
            rh = ep.post_recv(1, 0, inbox)
            ep.wait_all((rh, ep.post_send(1, 0, payload)))
        # as bytes: comparing a memoryview goes byte by byte, bytes by memcmp
        return perf_counter() - t0, bytes(rh.payload)

    (elapsed, echo), _ = run_ranks(2, body, watchdog_seconds=watchdog_seconds)
    if echo != payload:
        raise AssertionError("ping-pong echo corrupted the payload")
    bandwidth = (2.0 * message_bytes * round_trips) / elapsed / 1e6
    return PingPongSample(message_bytes, round_trips, elapsed, bandwidth)


def bandwidth_sweep(sizes=None):
    """Ping-pong over a size sweep, by default 1 KiB .. 8 MiB doubling;
    round trips scaled down for big payloads, fastest of the tries kept."""
    if sizes is None:
        sizes = [1024 << k for k in range(14)]
    samples = []
    for size in sizes:
        reps = max(8, min(64, (1 << 21) // int(size)))
        tries = [ping_pong(size, reps) for _ in range(_SWEEP_TRIES)]
        samples.append(min(tries, key=lambda s: s.elapsed_s))
    return samples


def plateau_level(samples):
    """Sustained bandwidth level: median over the three largest sizes.

    The sustained tail is the reference rather than the raw peak because on
    a shared-memory host mid-size messages can ride a cache resonance above
    the memory-bound plateau.
    """
    if not samples:
        raise ValueError("empty sweep")
    ordered = sorted(samples, key=lambda s: s.message_bytes)
    tail = sorted(s.bandwidth_MBps for s in ordered[-3:])
    return tail[len(tail) // 2]


def detect_plateau(samples):
    """Smallest-message sample whose bandwidth reaches ``_PLATEAU_FRACTION``
    of the sustained plateau level.

    Self-referential: the level comes from the sweep itself, not from any
    fixed hardware target.
    """
    level = plateau_level(samples)
    for s in sorted(samples, key=lambda s: s.message_bytes):
        if s.bandwidth_MBps >= _PLATEAU_FRACTION * level:
            return s
    raise AssertionError("unreachable: a tail sample always reaches the level")
