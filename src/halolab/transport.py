"""In-process message passing with synchronous non-blocking send semantics.

Each rank owns an Endpoint on a shared Fabric, used by that rank's thread
alone, which counts the sends it posts and their bytes.  Posting a send
or receive returns immediately with a RequestHandle; a send handle
completes only once the matching receive has been posted and the payload
handed over (synchronous semantics), a receive completes when its payload
arrives.
Matching is by (source, tag) at the destination, FIFO per pair, no
wildcards.  A destination keeps one queue of unmatched posts for every
(source, tag); without wildcards a queue only ever holds posts of one kind,
so a post matches the oldest post of the other kind or joins the queue.
Emptied queues are kept, so callers should reuse a fixed set of tags
rather than draw a new tag per message.

A send payload is any C-contiguous object with the buffer protocol
(``bytes``, ``bytearray``, a numpy array, a ``memoryview``).  The fabric
keeps a view of it, not a copy, so as in MPI the sender must not write the
buffer until its send handle completes.  A receive names the buffer it
lands in, as ``MPI_Irecv`` does: any writable C-contiguous buffer, whose
byte length is the capacity.  Delivery copies the sender's bytes once into
that buffer, and the receive handle's ``payload`` is then a ``memoryview``
of the delivered bytes, the leading part of the buffer; nothing is
allocated per message.  The receiver must not read the buffer before the
receive completes, nor reuse it for another receive while this one is in
flight.  A payload longer than the buffer is not delivered: the buffer is
left unwritten, ``payload`` stays ``None`` and both handles fail with
``MessageTruncation``.  A halo message thus costs pack (field to send
buffer), one delivery copy (send buffer to receive buffer) and unpack
(receive buffer to field).

All fabric state sits under one lock, shared by one condition per rank.
``post_send`` and ``post_recv`` check their arguments, then take the lock
for one step shared by both: check for an abort, give a modelled send its
ready time, match or queue, and notify the peer whose handle the match
completed (the destination on ``post_send``, the source on ``post_recv``;
never the posting rank, which is not waiting).  A match delivers there and
then, so without a cost model both handles are complete when the second
post returns.  ``abort`` notifies every rank.

A wait first scans its handles without the lock.  A handle's state only
moves forward (pending, matched, complete), a delivery marks it matched
after writing its payload, error and completion time, and only the
waiting rank consumes a handle, so what the scan finds complete stays
complete.  ``wait_all`` over complete handles, and ``wait_any`` whose
first live handle (one it has not yet returned) is complete, thus return
after that one scan; ``wait_any`` checks its first live handle before it
scans at all.  The abort is still checked first, on every pass: an
aborted fabric raises ``TransportAborted`` even over complete handles.
A scan that finds an unmatched handle is repeated under the lock, and
only then does the rank sleep, woken by the matching post or the abort
and bounded by the watchdog.

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
from collections import defaultdict, deque
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
        if not self.latency_s >= 0.0:
            raise ValueError("latency must be non-negative")
        if not self.bandwidth_MBps > 0.0:
            raise ValueError("bandwidth must be positive")

    def delay(self, nbytes):
        """Time to move one message of ``nbytes``: t = l + m/B."""
        if nbytes < 0:
            raise ValueError("message size must be non-negative")
        return self.latency_s + nbytes / (self.bandwidth_MBps * 1e6)


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
    completion: a view of the delivered bytes in the receive buffer.
    ``_buffer`` is the posted byte view: a send's until its delivery, a
    receive's for good.
    """

    __slots__ = (
        "kind", "source", "dest", "tag", "payload",
        "_buffer", "_matched", "_ready", "_error", "_consumed",
    )

    def __init__(self, kind, source, dest, tag, buffer):
        self.kind = kind
        self.source = source
        self.dest = dest
        self.tag = tag
        self.payload = None
        self._buffer = buffer
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

    Holds the shared state: the lock, one condition per rank, the pending
    queues and the injection pipes.  The posts and waits themselves are
    ``Endpoint`` methods.  Safe for concurrent posts and waits from all rank
    threads; waits block only their calling thread.
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
        # unmatched posts indexed by dest, then keyed by (source, tag); FIFO
        # per key, all of one kind.  Emptied queues are kept, so a reused key
        # allocates nothing
        self._pending = [defaultdict(deque) for _ in range(nranks)]
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

    def pending_summary(self):
        """All unmatched posted requests as (kind, source, dest, tag)."""
        with self._lock:
            return sorted(h.triple() for per_dest in self._pending
                          for q in per_dest.values() for h in q)

    def assert_drained(self):
        """Unmatched requests left at shutdown are a deadlock fault."""
        leftovers = self.pending_summary()
        if leftovers:
            raise TransportDeadlock(
                f"fabric shut down with {len(leftovers)} unmatched request(s): "
                f"{leftovers}",
                pending=leftovers,
            )


def _bytes_view(buffer):
    """A one-dimensional byte view of a C-contiguous buffer.  A post calls
    this only for what is not such a view already, and posts one as it is."""
    view = buffer if type(buffer) is memoryview else memoryview(buffer)
    return view.cast("B")


class Endpoint:
    """One rank's interface to the fabric, used by that rank's thread alone:
    its posts and waits, and ``sends`` and ``bytes_sent``, the number and
    payload bytes of the sends the fabric has accepted (the rank may reset
    them)."""

    __slots__ = ("fabric", "rank", "sends", "bytes_sent")

    def __init__(self, fabric, rank):
        self.fabric = fabric
        self.rank = rank
        self.sends = self.bytes_sent = 0

    def post_send(self, dest, tag, payload):
        """Non-blocking synchronous send; completes only after the matching
        receive has been posted and the payload handed over.  Unless that
        receive is already posted, the payload buffer is not copied here:
        leave it unwritten until the send completes."""
        if not 0 <= dest < self.fabric.nranks:
            raise ValueError(f"invalid destination rank {dest}")
        if tag < 0:
            raise ValueError("tag must be non-negative")
        if type(payload) is not memoryview or payload.format != "B" or payload.ndim != 1:
            payload = _bytes_view(payload)
        h = self._post(RequestHandle("send", self.rank, dest, tag, payload), dest)
        self.sends += 1
        self.bytes_sent += len(payload)
        return h

    def post_recv(self, source, tag, buffer):
        """Non-blocking receive from (source, tag) into ``buffer``, a writable
        C-contiguous buffer whose byte length is the capacity.  Leave it
        unread until the receive completes."""
        if not 0 <= source < self.fabric.nranks:
            raise ValueError(f"invalid source rank {source}")
        if tag < 0:
            raise ValueError("tag must be non-negative")
        if type(buffer) is not memoryview or buffer.format != "B" or buffer.ndim != 1:
            buffer = _bytes_view(buffer)
        if buffer.readonly:
            raise ValueError("receive buffer must be writable")
        return self._post(RequestHandle("recv", source, self.rank, tag, buffer), source)

    def _post(self, h, peer):
        """The locked step of every post: check for an abort, give a modelled
        send its ready time, then match ``h`` against the oldest post of the
        other kind on its (source, tag) key or queue it there, and notify
        ``peer`` if a match completed its handle."""
        fabric = self.fabric
        lock = fabric._lock
        lock.acquire()
        try:
            if fabric._aborted is not None:
                raise TransportAborted(f"fabric aborted: {fabric._aborted}")
            model = fabric.model
            if model is not None and h.kind == "send":
                start = max(perf_counter(), fabric._pipe_free[h.source])
                h._ready = fabric._pipe_free[h.source] = start + model.delay(len(h._buffer))
            queue = fabric._pending[h.dest][h.source, h.tag]
            if not queue or queue[0].kind == h.kind:
                queue.append(h)
                return h
            send, recv = (h, queue.popleft()) if h.kind == "send" else (queue.popleft(), h)
            # deliver; _matched is written last, so a lock-free reader that
            # sees it set also sees the payload, error and ready time
            payload, buffer = send._buffer, recv._buffer
            nbytes, capacity = len(payload), len(buffer)
            if nbytes > capacity:
                send._error = recv._error = MessageTruncation(
                    f"payload of {nbytes} bytes from rank {send.source} "
                    f"(tag {send.tag}) exceeds receive capacity {capacity}"
                )
            else:
                delivered = buffer if nbytes == capacity else buffer[:nbytes]
                # the one copy of a message: the sender's buffer into the receiver's
                delivered[:] = payload
                recv.payload = delivered
            recv._ready = send._ready
            send._buffer = None
            send._matched = recv._matched = True
            if peer != self.rank:  # a rank that posts is not waiting
                fabric._conds[peer].notify_all()
        finally:
            lock.release()
        return h

    def wait_all(self, handles):
        """Block until every handle in the list has completed."""
        self._wait(False, handles)

    def wait_any(self, handles):
        """Block until one not-yet-returned handle completes; return its index.

        Repeated calls over the same list yield each index exactly once.
        A first live handle that has already completed is returned without
        a scan of the rest.
        """
        if self.fabric._aborted is None:
            for i, h in enumerate(handles):
                if h._consumed:
                    continue
                # _matched before _error, as in _wait
                if h._matched and h._error is None and (
                    h._ready is None or h._ready <= perf_counter()
                ):
                    h._consumed = True
                    return i
                break
        return self._wait(True, handles)

    def _wait(self, wait_any, handles):
        """Block until every handle, or with wait_any one unconsumed handle,
        has completed; wait_any consumes and returns its index.

        Each pass checks the abort, then scans the handles once; the first
        pass runs without the lock (see the module docstring).  A pass that
        finds an unmatched handle is repeated under the lock before the
        rank sleeps on its condition (woken by the matching post, or polled
        every 50 ms) under the watchdog.  Matched handles whose modelled
        completion lies ahead are spun to outside the lock.
        """
        if wait_any and not handles:
            raise UsageError("wait_any needs a non-empty handle list")
        fabric = self.fabric
        lock = fabric._lock
        locked = False
        deadline = None
        try:
            while True:
                if fabric._aborted is not None:
                    raise TransportAborted(f"fabric aborted: {fabric._aborted}")
                live = unmatched = False
                # the earliest (wait_any) or latest modelled completion ahead;
                # only a modelled handle has a completion time to compare
                target = None
                now = perf_counter() if fabric.model is not None else None
                for i, h in enumerate(handles):
                    if wait_any:
                        if h._consumed:
                            continue
                        live = True
                    # _matched before _error: a delivery writes them in the
                    # other order, so this read order cannot miss an error
                    if not h._matched:
                        unmatched = True
                        continue
                    if h._error is not None:
                        if wait_any:
                            h._consumed = True
                        raise h._error
                    ready = h._ready
                    if ready is not None and ready > now:
                        if target is None or (ready < target if wait_any else ready > target):
                            target = ready
                    elif wait_any:
                        h._consumed = True
                        return i
                if wait_any and not live:
                    raise UsageError("every handle was already consumed by wait_any")
                if unmatched:
                    if not locked:
                        # scan again under the lock, so that no post can
                        # match between the scan and the sleep unnoticed
                        lock.acquire()
                        locked = True
                        continue
                    if deadline is None:
                        deadline = time.monotonic() + fabric.watchdog_seconds
                    remaining = deadline - time.monotonic()
                    if remaining <= 0.0:
                        pend = sorted(h.triple() for h in handles if not h._matched)
                        raise TransportDeadlock(
                            f"wait timed out after {fabric.watchdog_seconds:.1f}s; "
                            f"unmatched: {pend}",
                            pending=pend,
                        )
                    timeout = min(remaining, 0.05)
                    if wait_any and target is not None:
                        # a matched handle may complete before any post arrives
                        timeout = min(timeout, target - now)
                    fabric._conds[self.rank].wait(timeout)
                    continue
                if target is None:
                    return None
                if locked:
                    lock.release()
                    locked = False
                _sleep_until(target)
        finally:
            if locked:
                lock.release()
