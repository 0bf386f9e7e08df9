"""In-process message passing with synchronous non-blocking send semantics.

Each rank owns an Endpoint on a shared Fabric.  Posting a send or receive
returns immediately with a RequestHandle; a send handle completes only
once the matching receive has been posted and the payload handed over
(synchronous semantics), a receive completes when its payload arrives.
Matching is by (source, tag) at the destination, FIFO per pair, no
wildcards.

A send payload is any object with the buffer protocol (``bytes``,
``bytearray``, a numpy array, a ``memoryview``).  The fabric keeps a view
of it, not a copy, so as in MPI the sender must not write the buffer until
its send handle completes.  Delivery copies the sender's buffer once into
the receive handle's ``payload``, a ``bytes`` object bit-identical to what
was sent.  A halo message thus costs pack (field to send buffer), one
delivery copy and unpack (payload to field).

All fabric state sits under one lock, shared by one condition per rank.
A post that completes another rank's handle notifies that rank's
condition only: the destination on ``post_send``, the source on
``post_recv``.  ``abort`` notifies every rank.

An optional cost model delays completion of every message by
``latency + nbytes / bandwidth``; the delays are serialised per sending
rank (an injection pipe), so a rank that posts N messages pays the full
``N*l + total_bytes/B`` before its last message can complete.  The model
changes completion *times* only, never matching or payload contents, and
is off by default so wall-clock benchmarks measure the host machine.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from time import perf_counter

from .errors import (
    MessageTruncation,
    TransportAborted,
    TransportDeadlock,
    UsageError,
)


@dataclass(frozen=True)
class TransportModel:
    """Injected per-message cost: t = latency_s + nbytes / (bandwidth_MBps * 1e6)."""

    latency_s: float
    bandwidth_MBps: float

    def __post_init__(self):
        if self.latency_s < 0.0:
            raise ValueError("latency must be non-negative")
        if not self.bandwidth_MBps > 0.0:
            raise ValueError("bandwidth must be positive")

    def delay(self, nbytes):
        return self.latency_s + nbytes / (self.bandwidth_MBps * 1e6)


@dataclass(frozen=True)
class PingPongSample:
    """One ping-pong measurement; bandwidth counts bytes moved both ways."""

    message_bytes: int
    round_trips: int
    elapsed_s: float
    bandwidth_MBps: float


def _sleep_until(target):
    # coarse sleep, then yield-spin, then a tight spin for the last stretch;
    # sub-0.1 ms accuracy matters for the latency-difference experiments
    while True:
        remaining = target - perf_counter()
        if remaining <= 0.0:
            return
        if remaining > 0.002:
            time.sleep(remaining - 0.001)
        elif remaining > 0.0003:
            time.sleep(0)
        else:
            while perf_counter() < target:
                pass
            return


class RequestHandle:
    """Tracks one posted send or receive until completion.

    A handle completes exactly once; waiting on a completed handle returns
    immediately.  ``payload`` is readable on a receive handle only after
    completion.
    """

    __slots__ = (
        "kind", "source", "dest", "tag", "nbytes", "capacity",
        "payload", "_send_payload", "_matched", "_ready", "_error", "_consumed",
    )

    def __init__(self, kind, source, dest, tag, nbytes=0, capacity=0):
        self.kind = kind
        self.source = source
        self.dest = dest
        self.tag = tag
        self.nbytes = nbytes
        self.capacity = capacity
        self.payload = None
        self._send_payload = None
        self._matched = False
        self._ready = None
        self._error = None
        self._consumed = False

    def _done(self, now):
        if self._error is not None:
            return True
        return self._matched and (self._ready is None or now >= self._ready)

    @property
    def state(self):
        return "complete" if self._done(perf_counter()) else "pending"

    def triple(self):
        return (self.kind, self.source, self.dest, self.tag)

    def __repr__(self):
        return (
            f"RequestHandle({self.kind} {self.source}->{self.dest} "
            f"tag={self.tag} {self.state})"
        )


class Fabric:
    """Delivery substrate shared by all rank endpoints.

    Internally synchronised; safe for concurrent posts and waits from all
    rank threads.  Waits block only their calling thread.
    """

    def __init__(self, nranks, watchdog_seconds=30.0, model=None):
        nranks = int(nranks)
        if nranks < 1:
            raise ValueError("need at least one rank")
        if not watchdog_seconds > 0.0:
            raise ValueError("watchdog timeout must be positive")
        self.nranks = nranks
        self.watchdog_seconds = float(watchdog_seconds)
        self.model = model
        self._lock = threading.Lock()
        # one condition per rank, woken when a post completes one of its handles
        self._conds = [threading.Condition(self._lock) for _ in range(nranks)]
        # pending queues keyed by dest, then (source, tag); FIFO per key
        self._sends = {r: {} for r in range(nranks)}
        self._recvs = {r: {} for r in range(nranks)}
        self._pipe_free = [0.0] * nranks
        self._aborted = None

    def endpoint(self, rank):
        rank = int(rank)
        if not 0 <= rank < self.nranks:
            raise ValueError(f"rank {rank} outside 0..{self.nranks - 1}")
        return Endpoint(self, rank)

    def abort(self, reason):
        with self._lock:
            if self._aborted is None:
                self._aborted = str(reason)
            for cond in self._conds:
                cond.notify_all()

    def _check_abort(self):
        if self._aborted is not None:
            raise TransportAborted(f"fabric aborted: {self._aborted}")

    def pending_summary(self):
        """All unmatched posted requests as (kind, source, dest, tag)."""
        with self._lock:
            out = []
            for queues in (self._sends, self._recvs):
                for per_dest in queues.values():
                    for q in per_dest.values():
                        out.extend(h.triple() for h in q)
            return sorted(out)

    def assert_drained(self):
        """Unmatched requests left at shutdown are a deadlock fault."""
        leftovers = self.pending_summary()
        if leftovers:
            raise TransportDeadlock(
                f"fabric shut down with {len(leftovers)} unmatched request(s): "
                f"{leftovers}",
                pending=leftovers,
            )

    # -- internals -------------------------------------------------------

    @staticmethod
    def _deliver(send_h, recv_h, now):
        if send_h.nbytes > recv_h.capacity:
            err = MessageTruncation(
                f"payload of {send_h.nbytes} bytes from rank {send_h.source} "
                f"(tag {send_h.tag}) exceeds receive capacity {recv_h.capacity}"
            )
            send_h._error = err
            recv_h._error = err
        else:
            # the one copy of a message: the sender's buffer into new bytes
            recv_h.payload = bytes(send_h._send_payload)
        ready = send_h._ready
        if ready is not None and ready < now:
            ready = None
        send_h._ready = ready
        recv_h._ready = ready
        send_h._matched = True
        recv_h._matched = True
        send_h._send_payload = None

    def _post_send(self, source, dest, tag, payload):
        if not 0 <= dest < self.nranks:
            raise ValueError(f"invalid destination rank {dest}")
        if tag < 0:
            raise ValueError("tag must be non-negative")
        payload = memoryview(payload)
        h = RequestHandle("send", source, dest, tag, nbytes=payload.nbytes)
        h._send_payload = payload
        key = (source, tag)
        with self._lock:
            self._check_abort()
            now = perf_counter()
            if self.model is not None:
                start = max(now, self._pipe_free[source])
                h._ready = start + self.model.delay(h.nbytes)
                self._pipe_free[source] = h._ready
            waiting = self._recvs[dest].get(key)
            if waiting:
                self._deliver(h, waiting.popleft(), now)
                if dest != source:  # a rank that posts is not waiting
                    self._conds[dest].notify_all()
            else:
                self._sends[dest].setdefault(key, deque()).append(h)
        return h

    def _post_recv(self, dest, source, tag, capacity):
        if not 0 <= source < self.nranks:
            raise ValueError(f"invalid source rank {source}")
        if tag < 0:
            raise ValueError("tag must be non-negative")
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        h = RequestHandle("recv", source, dest, tag, capacity=capacity)
        key = (source, tag)
        with self._lock:
            self._check_abort()
            now = perf_counter()
            waiting = self._sends[dest].get(key)
            if waiting:
                self._deliver(waiting.popleft(), h, now)
                if source != dest:
                    self._conds[source].notify_all()
            else:
                self._recvs[dest].setdefault(key, deque()).append(h)
        return h

    def _wait(self, rank, handles, wait_any):
        """Block rank until every handle, or with wait_any one unconsumed
        handle, has completed; wait_any consumes and returns its index.

        Each pass is one scan of the handles under the lock.  Unmatched
        handles sleep on the rank's condition (woken by the matching post,
        or polled every 50 ms) under the watchdog; matched handles whose
        modelled completion lies ahead are spun to outside the lock.
        """
        if wait_any and not handles:
            raise UsageError("wait_any needs a non-empty handle list")
        cond = self._conds[rank]
        deadline = None
        while True:
            with self._lock:
                self._check_abort()
                now = perf_counter()
                live = unmatched = False
                # the earliest (wait_any) or latest modelled completion ahead
                target = None
                for i, h in enumerate(handles):
                    if wait_any:
                        if h._consumed:
                            continue
                        live = True
                    if h._error is not None:
                        if wait_any:
                            h._consumed = True
                        raise h._error
                    if not h._matched:
                        unmatched = True
                    elif h._ready is not None and h._ready > now:
                        if target is None or (h._ready < target if wait_any else h._ready > target):
                            target = h._ready
                    elif wait_any:
                        h._consumed = True
                        return i
                if wait_any and not live:
                    raise UsageError("every handle was already consumed by wait_any")
                if unmatched:
                    if deadline is None:
                        deadline = time.monotonic() + self.watchdog_seconds
                    remaining = deadline - time.monotonic()
                    if remaining <= 0.0:
                        pend = sorted(h.triple() for h in handles if not h._matched)
                        raise TransportDeadlock(
                            f"wait timed out after {self.watchdog_seconds:.1f}s; "
                            f"unmatched: {pend}",
                            pending=pend,
                        )
                    timeout = min(remaining, 0.05)
                    if wait_any and target is not None:
                        # a matched handle may complete before any post arrives
                        timeout = min(timeout, target - now)
                    cond.wait(timeout)
                    continue
                if target is None:
                    return None
            _sleep_until(target)


class Endpoint:
    """One rank's interface to the fabric."""

    __slots__ = ("fabric", "rank")

    def __init__(self, fabric, rank):
        self.fabric = fabric
        self.rank = rank

    def post_send(self, dest, tag, payload):
        """Non-blocking synchronous send; completes only after the matching
        receive has been posted and the payload handed over.  The payload
        buffer is not copied here: leave it unwritten until the send completes."""
        return self.fabric._post_send(self.rank, dest, tag, payload)

    def post_recv(self, source, tag, capacity):
        """Non-blocking receive of up to ``capacity`` bytes from (source, tag)."""
        return self.fabric._post_recv(self.rank, source, tag, capacity)

    def wait_all(self, handles):
        """Block until every handle in the list has completed."""
        self.fabric._wait(self.rank, handles, wait_any=False)

    def wait_any(self, handles):
        """Block until one not-yet-returned handle completes; return its index.

        Repeated calls over the same list yield each index exactly once.
        """
        return self.fabric._wait(self.rank, handles, wait_any=True)


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
    fabric = Fabric(2, watchdog_seconds=watchdog_seconds)
    payload = b"\xa5" * message_bytes
    box = {}

    # tag round_trips is an untimed warm-up trip so the timed loop does not
    # absorb thread start-up and first-touch costs
    def pinger():
        ep = fabric.endpoint(0)
        rh = ep.post_recv(1, round_trips, message_bytes)
        sh = ep.post_send(1, round_trips, payload)
        ep.wait_all((rh, sh))
        t0 = perf_counter()
        for r in range(round_trips):
            rh = ep.post_recv(1, r, message_bytes)
            sh = ep.post_send(1, r, payload)
            ep.wait_all((rh, sh))
        box["elapsed"] = perf_counter() - t0
        box["echo"] = rh.payload

    def ponger():
        ep = fabric.endpoint(1)
        for r in [round_trips] + list(range(round_trips)):
            rh = ep.post_recv(0, r, message_bytes)
            ep.wait_all((rh,))
            sh = ep.post_send(0, r, rh.payload)
            ep.wait_all((sh,))

    threads = [
        threading.Thread(target=pinger, name="pingpong-0", daemon=True),
        threading.Thread(target=ponger, name="pingpong-1", daemon=True),
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if box.get("echo") != payload:
        raise AssertionError("ping-pong echo corrupted the payload")
    fabric.assert_drained()
    elapsed = box["elapsed"]
    bandwidth = (2.0 * message_bytes * round_trips) / elapsed / 1e6
    return PingPongSample(message_bytes, round_trips, elapsed, bandwidth)


def default_sweep_sizes():
    """1 KiB .. 8 MiB doubling, the usual microbenchmark span."""
    return [1024 << k for k in range(14)]


def bandwidth_sweep(sizes=None, watchdog_seconds=30.0, tries=2):
    """Ping-pong over a size sweep; round trips scaled down for big payloads.

    Each size is measured ``tries`` times and the fastest run kept, which
    damps scheduler hiccups on a busy host.
    """
    if sizes is None:
        sizes = default_sweep_sizes()
    samples = []
    for size in sizes:
        reps = max(8, min(64, (1 << 21) // int(size)))
        best = None
        for _ in range(max(1, tries)):
            sample = ping_pong(size, reps, watchdog_seconds=watchdog_seconds)
            if best is None or sample.elapsed_s < best.elapsed_s:
                best = sample
        samples.append(best)
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


def detect_plateau(samples, fraction=0.7):
    """Smallest-message sample whose bandwidth reaches ``fraction`` of the
    sustained plateau level.

    Self-referential: the level comes from the sweep itself, not from any
    fixed hardware target.
    """
    level = plateau_level(samples)
    for s in sorted(samples, key=lambda s: s.message_bytes):
        if s.bandwidth_MBps >= fraction * level:
            return s
    raise AssertionError("unreachable: a tail sample always reaches the level")
